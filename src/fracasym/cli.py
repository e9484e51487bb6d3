"""Command-line front end: check hypotheses, solve, verify, sweep.

Configuration comes from an optional JSON file (--config) whose keys match
the flag names; explicit flags win. All data files are deterministic and
encoded by meshfun.write_json and meshfun.write_csv: floats in repr
(shortest round-trip), JSON keys sorted, non-finite numbers as strings,
and nothing carries a timestamp. Run provenance lives in a separate
run_meta.json sidecar so byte-identical reruns stay byte-identical.

Exit codes: 0 success, 1 hypothesis failure, 2 input or config error
(a coefficient above its declared envelope, or an envelope that holds only
past --tmax, included), 3 non-convergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .coeffexpr import Coefficient, check_envelope, load_coefficient
from .fracops import as_alpha, peeled_integral
from .meshfun import GradedGrid, GridFunction, make_graded_grid, write_csv, write_json
from .solver import CHAINS, SOLVE_CASES, Gate, SolveSpec, gates, solve
from .verify import asymptotic_fit, boundary_limits, chain_head, residual

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_VERIFY = 4


@dataclass(frozen=True)
class RunConfig:
    command: str
    coeff: str | None = None
    alpha: float = 0.5
    case: str | None = None
    a: float = 1.0
    b: float = 1.0
    T: float = 1.0
    tmax: float = 100.0
    nodes: int = 4096
    grading: float = 2.0
    out: str = "out"
    override_hypotheses: bool = False
    sweep: tuple[str, ...] = ()
    max_iterations: int = 60
    tolerance: float = 1e-10
    residual_tolerance: float = 5e-3
    sweep_ratios: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
        if self.case is not None and self.case not in SOLVE_CASES:
            raise ValueError(f"case must be one of {SOLVE_CASES}, got {self.case!r}")
        if self.command != "check" and self.case is None:
            raise ValueError(f"{self.command} needs --case")
        as_alpha(self.alpha)
        if self.nodes < 16:
            raise ValueError("need at least 16 nodes")
        if self.command == "sweep":
            self.sweep_axes  # a bad range or order is bad input before anything is written

    @cached_property
    def sweep_axes(self) -> dict[str, np.ndarray]:
        """The sweep's alpha, amp and T axes, each a single value unless swept."""
        axes = {
            "alpha": np.array([self.alpha]),
            "amp": np.array([1.0]),
            "T": np.array([self.T]),
        }
        for entry in self.sweep:
            name, _, rng = entry.partition("=")
            if name not in axes:
                raise ValueError(f"sweep parameter must be one of {tuple(axes)}, got {name!r}")
            parts = rng.split(":")
            if len(parts) != 3:
                raise ValueError(f"sweep range must be lo:hi:steps, got {rng!r}")
            lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
            # hi - lo is finite exactly when lo, hi and every point between are
            if steps < 0 or not math.isfinite(hi - lo):
                raise ValueError(f"bad sweep range {rng!r}")
            try:
                axes[name] = np.linspace(lo, hi, steps)
            except MemoryError:  # numpy refuses an axis it cannot allocate, allocating nothing
                raise ValueError(f"bad sweep range {rng!r}: {steps} points do not fit in memory") \
                    from None
        for al in axes["alpha"]:
            as_alpha(al)  # an order out of range is bad input, as in the config
        return axes


_CONFIG_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "command"}
_CONFIG_KEYS = set(_CONFIG_DEFAULTS)
# set only in a --config file; every other RunConfig field is also a flag
_CONFIG_ONLY = ("max_iterations", "tolerance", "residual_tolerance", "sweep_ratios")
# the flags whose options their field's default does not tell
_FLAG_OPTIONS = {"case": {"choices": SOLVE_CASES},
                 "override_hypotheses": {"action": "store_true"},
                 "sweep": {"action": "append", "metavar": "param=lo:hi:steps"}}


def _build_parser() -> argparse.ArgumentParser:
    # a flag left out parses to None, so it never overrides the config file
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=str, default=None)
    for key, default in _CONFIG_DEFAULTS.items():
        if key not in _CONFIG_ONLY:
            shared.add_argument("--" + key.replace("_", "-"), default=None, **_FLAG_OPTIONS.get(
                key, {"type": str if default is None else type(default)}))

    p = argparse.ArgumentParser(
        prog="fracasym",
        description="hypothesis checks, fixed-point solves, and solution "
                    "verification for fractional asymptotic integration",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, doc) in _COMMANDS.items():
        sub.add_parser(name, parents=[shared], help=doc)
    return p


def _config_type_ok(key: str, val) -> bool:
    """A config value must have its field's type: floats take JSON integers,
    optional strings take null, the sweep takes a list of strings."""
    want = type(_CONFIG_DEFAULTS[key])
    if want is tuple:
        return isinstance(val, list) and all(isinstance(v, str) for v in val)
    if want is float:
        want = (int, float)
    elif want is type(None):
        want = (str, type(None))
    return isinstance(val, want) and isinstance(val, bool) == (want is bool)


def _load_config(ns: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if ns.config is not None:
        with open(ns.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        mistyped = sorted(k for k, v in raw.items() if not _config_type_ok(k, v))
        if mistyped:
            raise ValueError(f"config values of the wrong type: {mistyped}")
        merged.update(raw)
    merged.update((k, v) for k, v in vars(ns).items() if k in _CONFIG_KEYS and v is not None)
    if "sweep" in merged:
        merged["sweep"] = tuple(merged["sweep"])
    return RunConfig(command=ns.command, **merged)


def _write_meta(cfg: RunConfig) -> None:
    meta = {
        "tool": "fracasym",
        "command": cfg.command,
        "config": {k: getattr(cfg, k) for k in sorted(_CONFIG_KEYS)},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    write_json(os.path.join(cfg.out, "run_meta.json"), meta)


def cmd_check(cfg: RunConfig, coeff: Coefficient, grid: GradedGrid) -> int:
    cases = (cfg.case,) if cfg.case else SOLVE_CASES
    all_pass = True
    for name in cases:
        g, = gates(name, coeff, cfg.alpha, [cfg.T], grid)
        payload = g.report if g.error is None else {"error": str(g.error), "passed": False}
        write_json(os.path.join(cfg.out, f"check_{name}.json"), payload)
        all_pass = all_pass and g.passed
    return EXIT_OK if all_pass else EXIT_HYPOTHESIS


def _solve_spec(cfg: RunConfig, coeff: Coefficient, grid: GradedGrid) -> SolveSpec:
    return SolveSpec(
        case=cfg.case,
        alpha=cfg.alpha,
        a=cfg.a,
        b=cfg.b,
        coefficient=coeff,
        grid=grid,
        split=cfg.T,
        max_iterations=cfg.max_iterations,
        tolerance=cfg.tolerance,
        attempt_anyway=cfg.override_hypotheses,
    )


def cmd_solve(cfg: RunConfig, coeff: Coefficient, grid: GradedGrid) -> int:
    spec = _solve_spec(cfg, coeff, grid)
    try:
        result = solve(spec)
    except ValueError as e:
        write_json(
            os.path.join(cfg.out, f"solve_{cfg.case}.json"),
            {"error": str(e), "converged": False},
        )
        print(f"hypothesis gate: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    write_json(os.path.join(cfg.out, f"solve_{cfg.case}.json"), result)
    result.fixed_point.to_csv(os.path.join(cfg.out, f"fixed_point_{cfg.case}.csv"))
    if result.solution is not result.fixed_point:
        result.solution.to_csv(os.path.join(cfg.out, f"solution_{cfg.case}.csv"))
    if not result.converged:
        print(
            f"did not reach tolerance {spec.tolerance!r} in "
            f"{spec.max_iterations} iterations",
            file=sys.stderr,
        )
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _read_artifact_csv(path: str, grid: GradedGrid) -> np.ndarray:
    with open(path) as fh:
        rows = fh.read().strip().split("\n")
    if rows[0] != "t,value":
        raise ValueError(f"{path}: expected a 't,value' table")
    body = rows[1:]
    if len(body) != grid.n + 1:
        raise ValueError(
            f"{path}: {len(body)} rows do not match the configured grid "
            f"({grid.n + 1} nodes)"
        )
    commas = np.fromiter(map(str.count, body, itertools.repeat(",")), dtype=int,
                         count=len(body))
    malformed = np.flatnonzero(commas != 1)
    if malformed.size:
        raise ValueError(f"{path}: malformed row {malformed[0] + 2}")
    # float() reads each cell exactly as repr wrote it; the cells are split
    # and converted row by row in C, so no list of all cells is held, and
    # the copy keeps both columns contiguous
    cells = itertools.chain.from_iterable(map(str.split, body, itertools.repeat(",")))
    t, v = np.fromiter(map(float, cells), dtype=float, count=2 * len(body)).reshape(-1, 2).T.copy()
    if not np.allclose(t, grid.nodes, rtol=1e-12, atol=1e-12):
        raise ValueError(f"{path}: node times do not match the configured grid")
    return v


def cmd_verify(cfg: RunConfig, coeff: Coefficient, grid: GradedGrid) -> int:
    case = cfg.case
    sol_path = os.path.join(cfg.out, f"solution_{case}.csv")
    if not os.path.exists(sol_path):
        sol_path = os.path.join(cfg.out, f"fixed_point_{case}.csv")
    if not os.path.exists(sol_path):
        print(f"error: no solution artifact for {case} in {cfg.out}", file=sys.stderr)
        return EXIT_INPUT
    try:
        v = _read_artifact_csv(sol_path, grid)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT

    al = cfg.alpha
    chain = CHAINS[case]
    fit_case, a_true, b_true = chain.verify_as or (case, cfg.a, cfg.b)
    operator, head_e, _, reference = chain_head(fit_case, al)
    x = GridFunction(grid, v, head_exponent=head_e if v[0] != 0.0 else 0.0)

    # the residual and the boundary derivative share one I^(1-alpha) x
    inner = peeled_integral(x, 1.0 - al)
    res = residual(x, operator, coeff, al, inner=inner)
    write_json(os.path.join(cfg.out, f"residual_{case}.json"), res)
    res.to_csv(os.path.join(cfg.out, f"residual_{case}.csv"))

    rep = asymptotic_fit(x, fit_case, al, a_true=a_true, b_true=b_true)
    write_json(os.path.join(cfg.out, f"asymptotic_{case}.json"), rep)

    bl = boundary_limits(x, case, al, inner=inner)
    write_json(os.path.join(cfg.out, f"boundary_{case}.json"), bl)

    fp_path = os.path.join(cfg.out, f"fixed_point_{case}.csv")
    if chain.certify is not None and os.path.exists(fp_path):
        y = GridFunction(grid, _read_artifact_csv(fp_path, grid))
        write_json(os.path.join(cfg.out, f"certificate_{case}.json"), chain.certify(y))

    t = grid.nodes[1:]
    head_vals = reference(t, a_true, b_true)
    weighted = t ** (1.0 - al) * np.abs(v[1:] - head_vals)
    write_csv(os.path.join(cfg.out, f"verify_{case}.csv"), "t,x,head,weighted_remainder",
              [grid.node_texts[1:], v[1:], head_vals, weighted])

    if not res.sup_residual <= cfg.residual_tolerance:  # a nan residual fails too
        print(
            f"residual {res.sup_residual!r} exceeds tolerance "
            f"{cfg.residual_tolerance!r}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def _guard_t_max(cfg: RunConfig) -> float:
    """Expressions are scanned for poles on [0, max(100, t_max)]."""
    return max(100.0, cfg.tmax)


def cmd_sweep(cfg: RunConfig, coeff: Coefficient, grid: GradedGrid) -> int:
    axes = cfg.sweep_axes
    header = [*axes, "k", "passed", "observed_ratio", "error"]
    out_path = os.path.join(cfg.out, f"sweep_{cfg.case}.csv")

    # one scaled coefficient per amp, whose sign-change search serves every
    # amp and alpha, or the Gate of its refusal; the cells of one
    # (alpha, amp) share one gates call
    rows = []
    splits = [float(T) for T in axes["T"]]
    amps = [float(amp) for amp in axes["amp"]] if splits else []
    scalings = []
    for amp in amps:
        try:
            scalings.append((coeff.scaled(amp, _guard_t_max(cfg)), None))
        except ValueError as e:
            scalings.append((None, Gate(None, math.nan, False, error=e)))
    for al, (amp, (scaled, refused)) in itertools.product(map(float, axes["alpha"]),
                                                         zip(amps, scalings)):
        block = [refused] * len(splits) if refused else gates(cfg.case, scaled, al, splits, grid)
        for T, g in zip(splits, block):
            cell = [repr(al), repr(amp), repr(T)]
            error, ratio = g.error, ""
            if error is None and cfg.sweep_ratios:
                cell_cfg = replace(cfg, alpha=al, T=T, override_hypotheses=True)
                try:
                    ratio = repr(solve(_solve_spec(cell_cfg, scaled, grid)).observed_ratio)
                except ValueError as e:
                    error = e
            rows.append(cell + (["", "False", "", str(error)] if error is not None
                                else [repr(g.k), str(g.passed), ratio, ""]))
    with open(out_path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return EXIT_OK


_COMMANDS = {
    "check": (cmd_check, "evaluate the contraction constants and pass flags"),
    "solve": (cmd_solve, "iterate the integral map to its fixed point"),
    "verify": (cmd_verify, "residual, asymptotic fit and boundary limits of a solution"),
    "sweep": (cmd_sweep, "tabulate constants over a parameter grid"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        cfg = _load_config(ns)
        if cfg.coeff is None:
            raise ValueError("a coefficient file is required (--coeff PATH)")
        coeff = load_coefficient(cfg.coeff, _guard_t_max(cfg))
        if coeff.envelope.valid_from > cfg.tmax:
            raise ValueError(
                f"envelope valid_from={coeff.envelope.valid_from!r} lies past "
                f"--tmax={cfg.tmax!r}, so nothing bounds a(t) between them"
            )
        # the one grid of the command: checked here, then handed to it
        grid = make_graded_grid(cfg.tmax, cfg.nodes, cfg.grading)
        ok, excess = check_envelope(coeff, grid)
        if not ok:
            raise ValueError(
                f"|a(t)| exceeds its declared envelope A t^-p by up to {excess!r} "
                "at the grid nodes past valid_from"
            )
        os.makedirs(cfg.out, exist_ok=True)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    _write_meta(cfg)
    try:
        return _COMMANDS[cfg.command][0](cfg, coeff, grid)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
