"""The three benchmark workloads as lists of chains of `fracasym` commands.

Inputs are the four coefficients of tests/conftest.py, unchanged, with
alpha=0.5, T=1 and t_max=100 (the CLI defaults). A chain is a list of
commands that must run in order (check, then solve, then verify, all in
one output directory); the workload seed only permutes the chains.

Every workload runs at least one command of each kind (check, solve,
verify, sweep), because every end-to-end metric must be measured, and be
non-zero, on every workload. The commands added for that reason are
marked below; each is kept small next to the work that gives the
workload its character. A short added command runs in several copies
(separate chains, so the seed scatters them over the pass): a metric
summed over a few commands at different moments of a pass varies less
from run to run than one command of a few tenths of a second.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# coefficient file -> (case it is solved with, a, b), as in tests/conftest.py
COEFFICIENTS = {
    "thm1": ("slow_decay", 1.0, 1.0),
    "thm2": ("origin_quadratic", 1.0, 1.0),
    "thm3": ("heavy_tail", 0.3, 1.0),
    "lemma2": ("sign_change", 0.0, 0.0),
}


@dataclass(frozen=True)
class Command:
    kind: str          # check | solve | verify | sweep
    args: tuple        # CLI arguments after the subcommand, without --out
    case: str | None   # --case, or None for a check of all four chains


@dataclass(frozen=True)
class Chain:
    name: str
    commands: tuple[Command, ...]


def _coeff_path(name: str) -> str:
    return f"perfbench/inputs/{name}.json"


def _case_command(kind: str, case: str, nodes: int | None) -> Command:
    coeff, a, b = COEFFICIENTS[case]
    args = ["--coeff", _coeff_path(coeff), "--case", case,
            "--a", repr(a), "--b", repr(b)]
    if nodes is not None:
        args += ["--nodes", str(nodes)]
    return Command(kind, tuple(args), case)


def _pipeline(case: str, nodes: int | None = None, kinds=("check", "solve", "verify"),
              copy: int = 0) -> Chain:
    suffix = f"-n{nodes}" if nodes else ""
    return Chain(f"{case}{suffix}-{copy}",
                 tuple(_case_command(k, case, nodes) for k in kinds))


def _sweep(case: str, axis: str, nodes: int | None = None, copy: int = 0) -> Chain:
    coeff = COEFFICIENTS[case][0]
    args = ["--coeff", _coeff_path(coeff), "--case", case, "--sweep", axis]
    if nodes is not None:
        args += ["--nodes", str(nodes)]
    return Chain(f"sweep-{case}-{copy}", (Command("sweep", tuple(args), case),))


def _check_all(coeff: str) -> Chain:
    return Chain(f"check-{coeff}",
                 (Command("check", ("--coeff", _coeff_path(coeff)), None),))


WORKLOADS: dict[str, tuple[Chain, ...]] = {
    # Gate quadrature and coefficient evaluation dominate; the kernel gets
    # little. The two lemma2 sweeps run the program's 8-thread pool over
    # the gate for throughput. The four lemma2 solve and verify chains are
    # the added commands (about 15% of the pass).
    "gate-check": (
        *(_check_all(c) for c in ("slow_decay", "origin_quadratic",
                                  "heavy_tail", "sign_change")),
        *(_sweep("lemma2", "amp=0.5:2:8", nodes=1024, copy=k) for k in range(2)),
        *(_pipeline("lemma2", kinds=("solve", "verify"), copy=k) for k in range(4)),
    ),
    # The representative user run at the default n=4096: the only workload
    # with the thm3 step and reconstruction, and it pays the thm3 gate
    # twice (in check and inside solve). The thm3 check, about 80% of
    # check_s, runs a second time as its own chain; that copy and the two
    # thm1 split-time sweeps are the added commands.
    "pipeline-default": (
        *(_pipeline(c) for c in ("thm1", "thm2", "thm3", "lemma2")),
        _pipeline("thm3", kinds=("check",), copy=1),
        *(_sweep("thm1", "T=0.5:4:128", copy=k) for k in range(2)),
    ),
    # n=8192: the O(N^2) product-integration kernel takes most of the pass
    # and the gate almost none. solve hits the kernel repeatedly with one
    # beta, verify once each with other betas. The checks (two of them
    # independent of n) and the two thm2 split-time sweeps are the added
    # commands.
    "fine-mesh": (
        *(_pipeline(c, nodes=8192) for c in ("thm1", "thm2", "lemma2")),
        *(_sweep("thm2", "T=0.5:4:128", nodes=8192, copy=k) for k in range(2)),
    ),
}


def chain_order(workload: str, rng: random.Random) -> list[Chain]:
    """One pass: the workload's chains in an order drawn from rng."""
    chains = list(WORKLOADS[workload])
    rng.shuffle(chains)
    return chains
