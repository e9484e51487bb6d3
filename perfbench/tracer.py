"""Layer spans recorded from outside the program.

The tracer replaces the functions listed in TARGETS with timing wrappers,
in every place the name is looked up: a function that one module imports
from another with `from .x import f` is bound twice, and both bindings
are rewired. Spans live in memory as tuples

    (id, name index, start, end, parent id, thread id, command, work)

where the parent is the enclosing span on the same thread (-1 for none),
command is the index of the CLI command in the pass, and work is a size
taken from the arguments (points evaluated, kernel nodes, bytes read).

Times are derived per thread and then merged on the wall clock: a layer's
time is the length of the union of its spans over all threads, and its
self time the union of each span minus its same-thread children. With
the sweep's worker threads running side by side, summing span durations
would count time twice; the union counts what happened.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "fracasym"

# float64 reads and writes per panel moment in the loop body of
# fracops._prodint_linear at the seed: building d, p1, p2, dp1, m0 and the
# five arithmetic steps of m1 writes 10 arrays and reads 15, and the two
# dot products read 4 more (29 accesses of 8 bytes). It is computed from
# array sizes and ignores caches.
KERNEL_BYTES_PER_PAIR = 29 * 8
KERNEL_BUCKETS = (1024, 4096, 8192)


class TraceError(RuntimeError):
    """The tracer cannot see a layer it is meant to measure."""


def _points(args, kwargs):
    return int(np.size(args[1]))


def _nodes(args, kwargs):
    return len(args[0])


def _file_size(args, kwargs):
    return os.path.getsize(args[0])


# (module, attribute, work measure); "Class.method" names a method.
TARGETS = (
    ("coeffexpr", "Coefficient.__call__", _points),
    ("coeffexpr", "Coefficient.zeros", None),
    ("coeffexpr", "load_coefficient", _file_size),
    ("hypotheses", "thm1_constants", None),
    ("hypotheses", "thm2_constants", None),
    ("hypotheses", "thm3_constants", None),
    ("hypotheses", "lemma1_profile", None),
    ("hypotheses", "lemma2_constants", None),
    # _conv_power_kernel looks _prodint_linear up in fracops at call time
    ("fracops", "_prodint_linear", _nodes),
    ("fracops", "apply_operator", None),
    ("solver", "solve", None),
    ("solver", "step_thm1", None),
    ("solver", "step_thm2", None),
    ("solver", "step_thm3", None),
    ("solver", "step_lemma2", None),
    ("solver", "reconstruct_thm3", None),
    ("solver", "reconstruct_prop1", None),
    ("meshfun", "make_graded_grid", None),
    ("meshfun", "integrate", None),
    ("meshfun", "metric_distance", None),
    ("verify", "residual", None),
    ("verify", "asymptotic_fit", None),
    ("verify", "boundary_limits", None),
    ("cli", "main", None),
    ("cli", "_read_artifact_csv", _file_size),
)


class _Stack(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{m}.{a.split('.')[-1]}" for m, a, _ in TARGETS]
        self.spans: list[tuple] = []
        self.command = -1
        self._ids = itertools.count()
        self._local = _Stack()
        self._undo: list[tuple] = []
        self._originals: dict[int, str] = {}

    # ---------------------------------------------------------------- wrapping

    def _wrap(self, fn, name_index: int, work):
        spans, ids, local, tracer = self.spans, self._ids, self._local, self
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            w = work(args, kwargs) if work is not None else 0
            stack = local.stack
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name_index, t0, t1, parent, get_ident(),
                              tracer.command, w))

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    @staticmethod
    def _modules() -> list:
        return [m for name, m in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def install(self) -> None:
        modules = self._modules()
        for index, (module, attr, work) in enumerate(TARGETS):
            home = sys.modules.get(f"{PACKAGE}.{module}")
            owner, key = home, attr
            if "." in attr:
                cls, key = attr.split(".")
                owner = getattr(home, cls, None)
            orig = getattr(owner, key, None) if owner is not None else None
            if not callable(orig):
                raise TraceError(f"{PACKAGE}.{module}.{attr} is missing; "
                                 "this layer cannot be traced")
            wrapper = self._wrap(orig, index, work)
            self._originals[id(orig)] = f"{module}.{attr}"
            if owner is not home:
                self._undo.append((owner, key, orig, "attr"))
                setattr(owner, key, wrapper)
                continue
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._undo.append((m, k, orig, "attr"))
                        setattr(m, k, wrapper)
                    elif isinstance(v, dict):
                        for kk, vv in v.items():
                            if vv is orig:
                                self._undo.append((v, kk, orig, "item"))
                                v[kk] = wrapper
                    elif isinstance(v, list):
                        for i, vv in enumerate(v):
                            if vv is orig:
                                self._undo.append((v, i, orig, "item"))
                                v[i] = wrapper
        self.check_complete()

    def check_complete(self) -> None:
        """Fail if any module-level binding still reaches an unwrapped function."""
        for m in self._modules():
            for k, v in vars(m).items():
                holders = [(k, v)]
                if isinstance(v, dict):
                    holders += [(f"{k}[{kk!r}]", vv) for kk, vv in v.items()]
                elif isinstance(v, (list, tuple)):
                    holders += [(f"{k}[{i}]", vv) for i, vv in enumerate(v)]
                elif isinstance(v, type) and v.__module__.startswith(PACKAGE):
                    holders += [(f"{k}.{kk}", vv) for kk, vv in vars(v).items()]
                for where, val in holders:
                    if id(val) in self._originals:
                        raise TraceError(
                            f"{m.__name__}.{where} still binds the untraced "
                            f"{self._originals[id(val)]}")

    def uninstall(self) -> None:
        while self._undo:
            holder, key, orig, how = self._undo.pop()
            if how == "attr":
                setattr(holder, key, orig)
            else:
                holder[key] = orig
        self._originals.clear()

    def take(self) -> list[tuple]:
        """The spans recorded so far, in start order; the buffer is emptied."""
        out = sorted(self.spans)
        self.spans.clear()
        return out


# -------------------------------------------------------------------- analysis

def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _length(merged) -> float:
    return sum(b - a for a, b in merged)


def _minus(merged_a, merged_b) -> float:
    """Length of the union merged_a with the union merged_b taken out."""
    total, j = 0.0, 0
    for a, b in merged_a:
        cur = a
        while j < len(merged_b) and merged_b[j][1] <= cur:
            j += 1
        k = j
        while k < len(merged_b) and merged_b[k][0] < b:
            lo, hi = merged_b[k]
            if lo > cur:
                total += lo - cur
            cur = max(cur, hi)
            k += 1
        if b > cur:
            total += b - cur
    return total


def layer_metrics(spans: list[tuple], names: list[str], pass_window: tuple[float, float],
                  commands: list[tuple[str, float, float]], iterations: int,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    commands holds (kind, start, end) per command in pass order; iterations
    is the sum of `iterations` over the pass's solve outputs.
    """
    name = [names[s[1]] for s in spans]
    layer = [n.split(".", 1)[0] for n in name]
    by_name: dict[str, list[int]] = defaultdict(list)
    by_layer: dict[str, list[int]] = defaultdict(list)
    for i, n in enumerate(name):
        by_name[n].append(i)
        by_layer[layer[i]].append(i)
    pos = {s[0]: i for i, s in enumerate(spans)}
    parent = [pos.get(s[4], -1) for s in spans]
    children: dict[int, list[int]] = defaultdict(list)
    in_solve = [False] * len(spans)
    for i, p in enumerate(parent):  # a parent starts, so sorts, before its children
        if p >= 0:
            children[p].append(i)
            in_solve[i] = in_solve[p] or name[p] == "solver.solve"

    def self_intervals(i: int):
        _, _, t0, t1, *_ = spans[i]
        cur = t0
        for c in children.get(i, ()):
            c0, c1 = spans[c][2], spans[c][3]
            if c0 > cur:
                yield cur, c0
            cur = max(cur, c1)
        if t1 > cur:
            yield cur, t1

    def union_of(idx) -> list:
        return _union((spans[i][2], spans[i][3]) for i in idx)

    def time_of(idx) -> float:
        return _length(union_of(idx))

    def self_of(lay: str) -> list:
        return _union(iv for i in by_layer[lay] for iv in self_intervals(i))

    m: dict[str, float] = {}

    calls = by_name["coeffexpr.__call__"]
    points = sum(spans[i][7] for i in calls)
    m["coeffexpr.calls"] = len(calls)
    m["coeffexpr.points"] = points
    m["coeffexpr.points_per_call"] = points / len(calls) if calls else 0.0
    m["coeffexpr.busy_s"] = time_of(by_layer["coeffexpr"])
    m["coeffexpr.zeros_s"] = time_of(by_name["coeffexpr.zeros"])

    for key, fn in (("thm1_s", "thm1_constants"), ("thm2_s", "thm2_constants"),
                    ("thm3_s", "thm3_constants"), ("lemma1_profile_s", "lemma1_profile"),
                    ("lemma2_s", "lemma2_constants")):
        m[f"hypotheses.{key}"] = time_of(by_name[f"hypotheses.{fn}"])
    m["hypotheses.gate_calls"] = len(by_layer["hypotheses"])
    m["hypotheses.self_s"] = _length(self_of("hypotheses"))

    kernel = by_name["fracops._prodint_linear"]
    pairs = defaultdict(int)
    dur = defaultdict(float)
    for i in kernel:
        n = spans[i][7] - 1
        pairs[n] += n * (n + 1) // 2
        dur[n] += spans[i][3] - spans[i][2]
    total_pairs = sum(pairs.values())
    m["fracops.kernel_calls"] = len(kernel)
    m["fracops.kernel_nodes"] = sum(spans[i][7] for i in kernel)
    m["fracops.kernel_s"] = _length(union_of(kernel))
    m["fracops.kernel_pairs"] = total_pairs
    m["fracops.kernel_bytes_computed"] = total_pairs * KERNEL_BYTES_PER_PAIR
    m["fracops.kernel_ns_per_pair"] = (sum(dur.values()) / total_pairs * 1e9
                                       if total_pairs else 0.0)
    for n in KERNEL_BUCKETS:
        m[f"fracops.kernel_ns_per_pair.n{n}"] = (dur[n] / pairs[n] * 1e9
                                                 if pairs[n] else 0.0)
    m["fracops.apply_operator_s"] = time_of(by_name["fracops.apply_operator"])

    m["solver.solve_s"] = time_of(by_name["solver.solve"])
    m["solver.gate_s"] = time_of(i for i in by_layer["hypotheses"] if in_solve[i])
    steps = [i for i in by_layer["solver"] if name[i].startswith("solver.step_")]
    m["solver.step_calls"] = len(steps)
    m["solver.step_s"] = _length(union_of(steps))
    m["solver.iterations"] = iterations
    m["solver.reconstruct_s"] = time_of(
        i for i in by_layer["solver"]
        if in_solve[i] and name[i].startswith("solver.reconstruct_"))
    m["solver.self_s"] = _length(self_of("solver"))

    m["meshfun.metric_distance_s"] = time_of(by_name["meshfun.metric_distance"])
    m["meshfun.integrate_s"] = time_of(by_name["meshfun.integrate"])
    m["meshfun.grid_builds"] = len(by_name["meshfun.make_graded_grid"])

    m["verify.residual_s"] = time_of(by_name["verify.residual"])
    m["verify.boundary_limits_s"] = time_of(by_name["verify.boundary_limits"])
    m["verify.asymptotic_fit_s"] = time_of(by_name["verify.asymptotic_fit"])

    # The command's own thread blocks in the sweep pool while workers run
    # the library, so CLI self time also excludes library spans on other
    # threads.
    library = union_of(i for i in range(len(spans)) if layer[i] != "cli")
    m["cli.self_s"] = _minus(self_of("cli"), library)
    m["cli.bytes_written"] = bytes_written
    m["cli.bytes_read"] = sum(
        spans[i][7] for n in ("cli._read_artifact_csv", "coeffexpr.load_coefficient")
        for i in by_name[n])
    # a sweep cell is one gate evaluation; the threads of the busiest sweep
    # and the sum of each thread's gate time against the sweeps' wall time
    # show the overlap
    sweep_cmds = [c for c, (kind, _, _) in enumerate(commands) if kind == "sweep"]
    per_thread = defaultdict(list)
    for i in by_layer["hypotheses"]:
        if spans[i][6] not in sweep_cmds:
            continue
        per_thread[spans[i][6], spans[i][5]].append((spans[i][2], spans[i][3]))
    cell_time = sum(_length(_union(iv)) for iv in per_thread.values())
    sweep_wall = sum(commands[c][2] - commands[c][1] for c in sweep_cmds)
    m["cli.sweep_threads"] = max(
        (sum(1 for cmd, _ in per_thread if cmd == c) for c in sweep_cmds), default=0)
    m["cli.sweep_overlap"] = cell_time / sweep_wall if sweep_wall else 0.0

    wall = pass_window[1] - pass_window[0]
    m["trace.pass_s"] = wall
    m["trace.unattributed_share"] = _minus([pass_window], union_of(range(len(spans)))) / wall
    m["trace.kernel_share"] = m["fracops.kernel_s"] / wall
    # gate work outside the kernel calls that lemma1_profile makes
    m["trace.gate_share"] = _minus(union_of(by_layer["hypotheses"] + by_layer["coeffexpr"]),
                                   union_of(kernel)) / wall
    m["trace.spans"] = len(spans)
    return m


# Where each layer's metrics are expected to move; a zero there means a
# wrapper no longer sees the layer, so the traced run fails instead.
MAPPED = {
    "coeffexpr.": ("gate-check",),
    "hypotheses.": ("gate-check", "pipeline-default"),
    "fracops.": ("fine-mesh",),
    "solver.": ("fine-mesh", "pipeline-default"),
    "meshfun.": ("fine-mesh",),
    "verify.": ("fine-mesh",),
    "cli.self_s": ("fine-mesh",),
    "cli.bytes_written": ("fine-mesh",),
    "cli.bytes_read": ("fine-mesh",),
    "cli.sweep_threads": ("gate-check",),
    "cli.sweep_overlap": ("gate-check",),
    "fracops.kernel_ns_per_pair.n1024": ("gate-check",),
    "fracops.kernel_ns_per_pair.n4096": ("gate-check", "pipeline-default"),
    "fracops.kernel_ns_per_pair.n8192": ("fine-mesh",),
}


def mapped_zeros(metrics: dict[str, float], workload: str) -> list[str]:
    """Metrics that read zero on a workload they are mapped to."""
    out = []
    for name, value in metrics.items():
        keys = [k for k in MAPPED if name.startswith(k)]
        if keys and workload in MAPPED[max(keys, key=len)] and not value > 0:
            out.append(name)
    return out


def write_spans(path: str, names: list[str], passes: list[list[tuple]]) -> None:
    """All spans of the traced passes as CSV, times relative to the first span."""
    t_ref = min((p[0][2] for p in passes if p), default=0.0)
    with open(path, "w", newline="\n") as fh:
        fh.write("pass,id,name,start_s,end_s,parent,thread,command,work\n")
        for k, spans in enumerate(passes):
            for sid, ni, t0, t1, parent, thread, command, work in spans:
                fh.write(f"{k},{sid},{names[ni]},{t0 - t_ref:.9f},{t1 - t_ref:.9f},"
                         f"{parent},{thread},{command},{work}\n")
