"""Command-line front end: check hypotheses, solve, verify, sweep.

Configuration comes from an optional JSON file (--config) whose keys match
the flag names; explicit flags win. All data files are deterministic and
encoded by meshfun.write_json and meshfun.write_csv: floats in repr
(shortest round-trip), JSON keys sorted, non-finite numbers as strings,
and nothing carries a timestamp. Run provenance lives in a separate
run_meta.json sidecar so byte-identical reruns stay byte-identical.

Exit codes: 0 success, 1 hypothesis failure, 2 input or config error,
3 non-convergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .coeffexpr import Coefficient, load_coefficient
from .fracops import as_alpha, peeled_integral
from .meshfun import GradedGrid, GridFunction, make_graded_grid, write_csv, write_json
from .solver import CHAINS, SOLVE_CASES, SolveSpec, gate, solve
from .verify import asymptotic_fit, boundary_limits, residual

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_VERIFY = 4

_SWEEP_PARAMS = ("alpha", "amp", "T")


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
        as_alpha(self.alpha)
        if self.nodes < 16:
            raise ValueError("need at least 16 nodes")


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", type=str, default=None)
    shared.add_argument("--coeff", type=str, default=None)
    shared.add_argument("--alpha", type=float, default=None)
    shared.add_argument("--case", type=str, choices=SOLVE_CASES, default=None)
    shared.add_argument("--a", type=float, default=None)
    shared.add_argument("--b", type=float, default=None)
    shared.add_argument("--T", type=float, default=None)
    shared.add_argument("--tmax", type=float, default=None)
    shared.add_argument("--nodes", type=int, default=None)
    shared.add_argument("--grading", type=float, default=None)
    shared.add_argument("--out", type=str, default=None)
    shared.add_argument("--override-hypotheses", action="store_true", default=None)
    shared.add_argument("--sweep", action="append", default=None,
                        metavar="param=lo:hi:steps")

    p = argparse.ArgumentParser(
        prog="fracasym",
        description="hypothesis checks, fixed-point solves, and solution "
                    "verification for fractional asymptotic integration",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("check", "evaluate the contraction constants and pass flags"),
        ("solve", "iterate the integral map to its fixed point"),
        ("verify", "residual, asymptotic fit and boundary limits of a solution"),
        ("sweep", "tabulate constants over a parameter grid"),
    ]:
        sub.add_parser(name, parents=[shared], help=doc)
    return p


_CONFIG_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "command"}
_CONFIG_KEYS = set(_CONFIG_DEFAULTS)


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
    for key in ("coeff", "alpha", "case", "a", "b", "T", "tmax", "nodes",
                "grading", "out", "sweep"):
        val = getattr(ns, key)
        if val is not None:
            merged[key] = val
    if ns.override_hypotheses is not None:
        merged["override_hypotheses"] = True
    if "sweep" in merged:
        merged["sweep"] = tuple(merged["sweep"])
    return RunConfig(command=ns.command, **merged)


def _grid(cfg: RunConfig) -> GradedGrid:
    return make_graded_grid(cfg.tmax, cfg.nodes, cfg.grading)


def _write_meta(cfg: RunConfig) -> None:
    meta = {
        "tool": "fracasym",
        "command": cfg.command,
        "config": {k: getattr(cfg, k) for k in sorted(_CONFIG_KEYS)},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    write_json(os.path.join(cfg.out, "run_meta.json"), meta)


def cmd_check(cfg: RunConfig, coeff: Coefficient) -> int:
    cases = (cfg.case,) if cfg.case else SOLVE_CASES
    grid = _grid(cfg)
    all_pass = True
    for name in cases:
        try:
            g = gate(name, coeff, cfg.alpha, cfg.T, grid)
            passed = g.passed
            payload = {**CHAINS[name].payload(g), "passed": passed}
        except ValueError as e:
            payload, passed = {"error": str(e), "passed": False}, False
        write_json(os.path.join(cfg.out, f"check_{name}.json"), payload)
        all_pass = all_pass and passed
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


def cmd_solve(cfg: RunConfig, coeff: Coefficient) -> int:
    spec = _solve_spec(cfg, coeff, _grid(cfg))
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
    if not rows or rows[0] != "t,value":
        raise ValueError(f"{path}: expected a 't,value' table")
    body = rows[1:]
    if len(body) != grid.n + 1:
        raise ValueError(
            f"{path}: {len(body)} rows do not match the configured grid "
            f"({grid.n + 1} nodes)"
        )
    t = np.empty(grid.n + 1)
    v = np.empty(grid.n + 1)
    for i, line in enumerate(body):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed row {i + 2}")
        t[i], v[i] = float(parts[0]), float(parts[1])
    if not np.allclose(t, grid.nodes, rtol=1e-12, atol=1e-12):
        raise ValueError(f"{path}: node times do not match the configured grid")
    return v


def cmd_verify(cfg: RunConfig, coeff: Coefficient) -> int:
    case = cfg.case
    grid = _grid(cfg)
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
    head_e = chain.stored_head(al)
    x = GridFunction(grid, v, head_exponent=head_e if v[0] != 0.0 else 0.0)

    # the residual and the boundary derivative share one I^(1-alpha) x
    inner = peeled_integral(x, 1.0 - al)
    res = residual(x, chain.operator, coeff, al, inner=inner)
    write_json(os.path.join(cfg.out, f"residual_{case}.json"), res)
    res.to_csv(os.path.join(cfg.out, f"residual_{case}.csv"))

    fit_case, a_true, b_true = chain.verify_as or (case, cfg.a, cfg.b)
    rep = asymptotic_fit(x, fit_case, al, a_true=a_true, b_true=b_true)
    write_json(os.path.join(cfg.out, f"asymptotic_{case}.json"), rep)

    bl = boundary_limits(x, case, al, inner=inner)
    write_json(os.path.join(cfg.out, f"boundary_{case}.json"), bl)

    fp_path = os.path.join(cfg.out, f"fixed_point_{case}.csv")
    if chain.certify is not None and os.path.exists(fp_path):
        y = GridFunction(grid, _read_artifact_csv(fp_path, grid))
        write_json(os.path.join(cfg.out, f"certificate_{case}.json"), chain.certify(y))

    t = grid.nodes[1:]
    head_vals = CHAINS[fit_case].head(t, al, a_true, b_true)
    weighted = t ** (1.0 - al) * np.abs(v[1:] - head_vals)
    write_csv(os.path.join(cfg.out, f"verify_{case}.csv"), "t,x,head,weighted_remainder",
              [t, v[1:], head_vals, weighted])

    if res.sup_residual > cfg.residual_tolerance:
        print(
            f"residual {res.sup_residual!r} exceeds tolerance "
            f"{cfg.residual_tolerance!r}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def _parse_sweep_ranges(cfg: RunConfig) -> dict[str, np.ndarray]:
    axes = {
        "alpha": np.array([cfg.alpha]),
        "amp": np.array([1.0]),
        "T": np.array([cfg.T]),
    }
    for entry in cfg.sweep:
        name, _, rng = entry.partition("=")
        if name not in _SWEEP_PARAMS:
            raise ValueError(
                f"sweep parameter must be one of {_SWEEP_PARAMS}, got {name!r}"
            )
        parts = rng.split(":")
        if len(parts) != 3:
            raise ValueError(f"sweep range must be lo:hi:steps, got {rng!r}")
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        if steps < 0 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"bad sweep range {rng!r}")
        axes[name] = np.linspace(lo, hi, steps)
    return axes


def _scaled_coefficient(coeff: Coefficient, lam: float) -> Coefficient:
    if lam == 1.0:
        return coeff
    env = replace(coeff.envelope, amplitude=coeff.envelope.amplitude * abs(lam))
    if coeff.text is not None:
        return Coefficient.from_expression(
            f"{lam!r} * ({coeff.text})", env, alpha_context=coeff.alpha_context
        )
    scaled = np.column_stack([coeff.samples[:, 0], coeff.samples[:, 1] * lam])
    return Coefficient.from_samples(scaled, env, alpha_context=coeff.alpha_context)


def cmd_sweep(cfg: RunConfig, coeff: Coefficient) -> int:
    try:
        axes = _parse_sweep_ranges(cfg)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    cells = [
        (al, amp, T)
        for al in axes["alpha"]
        for amp in axes["amp"]
        for T in axes["T"]
    ]
    header = ["alpha", "amp", "T", "k", "passed", "observed_ratio", "error"]
    out_path = os.path.join(cfg.out, f"sweep_{cfg.case}.csv")
    grid = _grid(cfg)

    def cell_row(cell: tuple[float, float, float]) -> list:
        al, amp, T = (float(c) for c in cell)
        cell_cfg = replace(cfg, alpha=al, T=T, override_hypotheses=True)
        try:
            scaled = _scaled_coefficient(coeff, amp)
            g = gate(cfg.case, scaled, al, T, grid)
            ratio = ""
            if cfg.sweep_ratios:
                ratio = repr(solve(_solve_spec(cell_cfg, scaled, grid)).observed_ratio)
            return [repr(al), repr(amp), repr(T), repr(g.k),
                    str(g.passed), ratio, ""]
        except ValueError as e:
            return [repr(al), repr(amp), repr(T), "", "False", "", str(e)]

    rows = [cell_row(cell) for cell in cells]
    with open(out_path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return EXIT_OK


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
        coeff = load_coefficient(cfg.coeff)
        os.makedirs(cfg.out, exist_ok=True)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    _write_meta(cfg)
    if cfg.command != "check" and cfg.case is None:
        print(f"error: {cfg.command} needs --case", file=sys.stderr)
        return EXIT_INPUT

    try:
        if cfg.command == "check":
            return cmd_check(cfg, coeff)
        if cfg.command == "solve":
            return cmd_solve(cfg, coeff)
        if cfg.command == "verify":
            return cmd_verify(cfg, coeff)
        return cmd_sweep(cfg, coeff)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
