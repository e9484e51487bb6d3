"""Reference outputs: read what a command wrote, capture it, compare it.

For every command the reference holds its exit code and:
  check  - every field of each check_<case>.json (verdicts, statuses and
           contraction constants), except the argmax locations, which
           sit on flat maxima and are not constants;
  solve  - iterations and the convergence/gate flags of solve_<case>.json,
           and every node value of the solution (solution_<case>.csv, else
           fixed_point_<case>.csv);
  verify - the exit code only (its sup residual is a metric of its own);
  sweep  - every row of sweep_<case>.csv.

Exit codes, booleans, strings and iteration counts must match exactly.
Numbers match when |x - ref| <= RTOL * |ref| (node values also get
ATOL_SCALE * max|ref| of slack, for nodes where the solution crosses
zero). RTOL = 1e-9 sits about 50x below the discretization error of the
default mesh (a weighted change of 4.7e-8 for thm1 from n=2048 to
n=4096), so a faster result that drifts by a discretization error counts
as wrong, while one that only reorders floating-point sums does not.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

RTOL = 1e-9
ATOL_SCALE = 1e-10
ALL_CASES = ("thm1", "thm2", "thm3", "lemma2")
_SOLVE_FIELDS = ("iterations", "converged", "hypotheses_pass", "ratio_exceeded")


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_outputs(cmd, out_dir: str) -> tuple[dict, np.ndarray | None]:
    """(scalar outputs, solution node values or None) that cmd left in out_dir."""
    if cmd.kind == "check":
        values = {}
        for case in ((cmd.case,) if cmd.case else ALL_CASES):
            payload = _load_json(os.path.join(out_dir, f"check_{case}.json"))
            values[case] = {k: v for k, v in payload.items() if not k.endswith("argmax")}
        return values, None
    if cmd.kind == "solve":
        payload = _load_json(os.path.join(out_dir, f"solve_{cmd.case}.json"))
        values = {k: payload[k] for k in _SOLVE_FIELDS}
        path = os.path.join(out_dir, f"solution_{cmd.case}.csv")
        if not os.path.exists(path):
            path = os.path.join(out_dir, f"fixed_point_{cmd.case}.csv")
        nodes = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]
        return values, nodes
    if cmd.kind == "verify":
        payload = _load_json(os.path.join(out_dir, f"residual_{cmd.case}.json"))
        return {"sup_residual": payload["sup_residual"]}, None
    with open(os.path.join(out_dir, f"sweep_{cmd.case}.csv"), newline="") as fh:
        return {"rows": list(csv.DictReader(fh))}, None


def _number(v):
    """JSON numbers, and the strings the CLI writes for non-finite ones."""
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            return None
    return None


def _same(ref, got, where: str, out: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            out.append(f"{where}: keys differ")
            return
        for k in ref:
            _same(ref[k], got[k], f"{where}.{k}", out)
        return
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            out.append(f"{where}: length differs")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _same(r, g, f"{where}[{i}]", out)
        return
    r, g = _number(ref), _number(got)
    if r is None or g is None or isinstance(ref, bool) or isinstance(got, bool):
        if ref != got:
            out.append(f"{where}: {got!r} != {ref!r}")
        return
    if math.isnan(r) or math.isinf(r):
        ok = (math.isnan(r) and math.isnan(g)) or r == g
    else:
        ok = abs(g - r) <= RTOL * abs(r)
    if not ok:
        out.append(f"{where}: {g!r} != {r!r}")


def compare(ref: dict, exit_code: int, values: dict | None,
            nodes: np.ndarray | None, ref_nodes: np.ndarray | None) -> list[str]:
    """Mismatches of one command against its reference record."""
    out: list[str] = []
    if exit_code != ref["exit"]:
        out.append(f"exit code {exit_code} != {ref['exit']}")
    if values is None:
        out.append("outputs missing")
        return out
    if ref["kind"] == "verify":
        return out
    _same(ref["values"], values, "outputs", out)
    if ref_nodes is not None:
        if nodes is None or nodes.shape != ref_nodes.shape:
            out.append("solution: node count differs")
        else:
            scale = float(np.max(np.abs(ref_nodes)))
            err = np.abs(nodes - ref_nodes) - RTOL * np.abs(ref_nodes)
            worst = float(np.max(err))
            if not worst <= ATOL_SCALE * scale:
                j = int(np.argmax(err))
                out.append(f"solution node {j}: {float(nodes[j])!r} != {float(ref_nodes[j])!r}")
    return out


def paths(ref_dir: str, workload: str) -> tuple[str, str]:
    return (os.path.join(ref_dir, f"{workload}.json"),
            os.path.join(ref_dir, f"{workload}.npz"))


def load(ref_dir: str, workload: str) -> tuple[dict, dict[str, np.ndarray]]:
    json_path, npz_path = paths(ref_dir, workload)
    with np.load(npz_path) as z:
        arrays = {k: z[k] for k in z.files}
    return _load_json(json_path), arrays


def save(ref_dir: str, workload: str, records: dict, arrays: dict) -> None:
    json_path, npz_path = paths(ref_dir, workload)
    with open(json_path, "w", newline="\n") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez_compressed(npz_path, **arrays)
