"""Benchmark of the fracasym command line, end to end or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload gate-check --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --capture      # rewrite perfbench/reference/

Each pass runs one workload's commands (perfbench/workloads.py) through
fracasym.cli.main in this process, as a closed loop: one client, and each
command starts when the previous one has returned. Passes repeat while
another typical pass fits in --seconds. --seed only permutes the order of
the chains in each pass; the inputs never change. After every pass,
outside the timed region, each command's exit code and outputs are
compared with the reference outputs in perfbench/reference/ (see
reference.py); a mismatch counts the command as failed.

--trace 0 reports the end-to-end metrics: setup_s, the median over fresh
interpreters (one before each pass, at least five, not counted in
--seconds) that import fracasym, load the four coefficient files and
build the default grid; the per-pass medians of pass_s, check_s, solve_s,
verify_s, sweep_cells_per_s and residual_sup; and peak_rss_mb of this
process.

The times and the sweep rate of --trace 0 are given at a reference host
speed. A core of a shared host switches, every second or so, between a
fast and a slow state (about 1.5x slower), and the share of time it
spends slow drifts within minutes, which moves a 40-second median by
more than the bounds; longer runs do not average that out. A separate
interpreter (SpeedProbe) therefore times a fixed pure-Python loop
before every command, after the last command of a pass and around every
set-up sample. The times of a pass, and each set-up time, are multiplied
by REFERENCE_PROBE_S over the mean of the loop times taken in and around
them (the sweep rate is divided by it). The mean, unlike the median,
grows with the share of slow samples as the commands' times do. Scaling
a whole pass by one factor, rather than each command by the two samples
next to it, keeps the noise of single samples out of short commands,
and out of the sweep, whose threads run on both cores while the probe
runs on one. The probe shares no code or state with fracasym, so a
change to the program moves the scaled times just as it moves the raw
ones; the log shows both, and the mean factor.

--trace 1 alternates untraced passes with passes traced by
tracer.py and reports the per-layer metrics (medians over traced passes),
the share of each pass that falls in no span, and the tracing overhead;
the spans go to perfbench/.work/spans-<workload>.csv. It fails, with no
result, when a wrapper cannot see its layer.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, chain_order

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = ROOT / "perfbench"
WORK = HERE / ".work"
REFERENCE = HERE / "reference"
SETUP_REPEATS = 5
# the mean time of the probe loop on the reference host (2 vCPUs of a
# shared x86-64 host, Python 3.11); scaled times are seconds on that host
REFERENCE_PROBE_S = 0.05
PROBE_CODE = """
import math, sys, time

def loop():
    s = 0.0
    for i in range(600_000):
        s += math.sqrt(i) * 0.5
    return s

for _ in sys.stdin:
    t0 = time.perf_counter()
    loop()
    print(time.perf_counter() - t0, flush=True)
"""
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = """
import fracasym
from fracasym.coeffexpr import load_coefficient
from fracasym.meshfun import make_graded_grid
for name in ("slow_decay", "origin_quadratic", "heavy_tail", "sign_change"):
    load_coefficient(f"perfbench/inputs/{name}.json")
make_graded_grid()
"""


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


def cap_thread_pools(nproc: int) -> None:
    """Cap BLAS and OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            ok = 0 < int(os.environ.get(var, "")) <= nproc
        except ValueError:
            ok = False
        if not ok:
            os.environ[var] = str(nproc)


def import_program():
    if not (SRC / "fracasym" / "__init__.py").is_file():
        raise BenchError(f"no fracasym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fracasym.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "fracasym":
        raise BenchError(f"imported fracasym from {cli.__file__}, not from {SRC}")
    return cli


# ----------------------------------------------------------------- provenance

def _git_hash() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fracasym").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu() -> tuple[str | None, dict]:
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    return model, caches


def provenance(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    model, caches = _cpu()
    return {
        "git": _git_hash(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "nproc": nproc,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ----------------------------------------------------------------------- runs

def scale(samples: list[float]) -> float:
    """Reference seconds per measured second, from the probe samples of an interval."""
    return REFERENCE_PROBE_S / statistics.fmean(samples)


class SpeedProbe:
    """A second interpreter that times a fixed loop when asked, one at a time.

    It runs only while this process waits for its answer, so it never
    competes with a command for a core.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.proc = subprocess.Popen([sys.executable, "-c", PROBE_CODE], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the speed probe stopped")
        self.samples.append(float(line))
        return self.samples[-1]

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def measure_setup() -> float:
    """Wall time of a fresh interpreter doing what every CLI call does first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise BenchError(f"set-up interpreter failed:\n{done.stderr}")
    return elapsed


class Pass:
    """One pass over a workload: timings, exit codes and checked outputs."""

    def __init__(self, workload: str, chains, cli, reference, tracer=None,
                 probe: SpeedProbe | None = None) -> None:
        self.plan = []
        shutil.rmtree(WORK / workload, ignore_errors=True)
        for chain in chains:
            out = WORK / workload / chain.name
            out.mkdir(parents=True)
            for i, cmd in enumerate(chain.commands):
                self.plan.append((f"{chain.name}/{i}", cmd, out))
        self.commands: list[tuple[str, float, float]] = []
        self.exit_codes: list[int | None] = []
        self.stderr: list[str] = []
        # loop times of the probe before each command and after the last
        self.probes: list[float] = []
        self.start = time.perf_counter()
        for k, (_, cmd, out) in enumerate(self.plan):
            if probe is not None:
                self.probes.append(probe.sample())
            argv = [cmd.kind, *cmd.args, "--out", str(out.relative_to(ROOT))]
            buf = io.StringIO()
            if tracer is not None:
                tracer.command = k
            t0 = time.perf_counter()
            with contextlib.redirect_stderr(buf):
                try:
                    rc = cli.main(argv)
                except Exception:  # a crash is a failed command, not a dead benchmark
                    traceback.print_exc()
                    rc = None
            t1 = time.perf_counter()
            self.commands.append((cmd.kind, t0, t1))
            self.exit_codes.append(rc)
            self.stderr.append(buf.getvalue())
        if probe is not None:
            self.probes.append(probe.sample())
        self.end = time.perf_counter()
        self.outputs = []
        for _, cmd, out in self.plan:
            try:
                self.outputs.append(reference.read_outputs(cmd, str(out)))
            except (OSError, ValueError, KeyError):
                self.outputs.append((None, None))
        self.bytes_written = sum(p.stat().st_size
                                 for p in (WORK / workload).rglob("*") if p.is_file())

    def check(self, refs: dict, arrays: dict, reference) -> list[str]:
        problems = []
        for (key, cmd, _), rc, (values, nodes), err in zip(
                self.plan, self.exit_codes, self.outputs, self.stderr):
            ref = refs.get(key)
            if ref is None or ref["kind"] != cmd.kind:
                problems.append(f"{key}: no reference record")
                continue
            found = reference.compare(ref, rc, values, nodes, arrays.get(key.replace("/", "__")))
            if found:
                tail = err.strip().splitlines()[-1:] if err.strip() else []
                problems.append(f"{key} ({cmd.kind} {' '.join(cmd.args)}): "
                                + "; ".join(found[:3] + tail))
        return problems

    def record(self) -> tuple[dict, dict]:
        """Reference records and solution arrays of this pass."""
        records, arrays = {}, {}
        for (key, cmd, _), rc, (values, nodes) in zip(self.plan, self.exit_codes, self.outputs):
            if values is None:
                raise BenchError(f"{key}: no outputs to capture")
            records[key] = {"kind": cmd.kind, "exit": rc, "values": values}
            if nodes is not None:
                arrays[key.replace("/", "__")] = nodes
        return records, arrays

    def _values(self, kind: str, field: str) -> list:
        return [v[field] for (_, cmd, _), (v, _) in zip(self.plan, self.outputs)
                if cmd.kind == kind and v is not None]

    def _time(self, kind: str | None = None) -> float:
        """Summed time of the commands of a kind (all with None), scaled."""
        return scale(self.probes) * sum(t1 - t0 for k, t0, t1 in self.commands
                                        if kind in (None, k))

    def metrics(self) -> dict[str, float]:
        cells = sum(len(rows) for rows in self._values("sweep", "rows"))
        sweep_s = self._time("sweep")
        return {
            "pass_s": self._time(),
            "check_s": self._time("check"),
            "solve_s": self._time("solve"),
            "verify_s": self._time("verify"),
            "sweep_cells_per_s": cells / sweep_s if sweep_s > 0 else 0.0,
            "residual_sup": max(self._values("verify", "sup_residual"), default=0.0),
        }

    def iterations(self) -> int:
        return sum(self._values("solve", "iterations"))


# ----------------------------------------------------------------- reporting

def _summary(name: str, values: list[float], unit: str) -> str:
    return (f"  {name:<36} median {statistics.median(values):<12.6g} "
            f"max {max(values):<12.6g} n={len(values)} [{unit}]  "
            + " ".join(f"{v:.4g}" for v in values))


def _result(spec_metrics: list[dict], values: dict[str, float], attempted: int,
            problems: list[str]) -> dict:
    for line in problems:
        print(f"FAILED {line}")
    names = [m["name"] for m in spec_metrics]
    if set(values) != set(names):
        raise BenchError(f"metrics {sorted(set(values) ^ set(names))} differ "
                         "from BENCHMARK.json")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }


def _room(spent: float, seconds: float, passes: list) -> bool:
    """Whether one more pass, as long as a typical one so far, fits in seconds."""
    typical = statistics.median(p.end - p.start for p in passes)
    return spent + typical <= seconds


def run_end_to_end(workload, seconds, rng, cli, reference, refs, arrays, spec):
    # one set-up sample before each pass, so they spread over the run; the
    # samples do not count against the measuring time
    setups, passes, problems = [], [], []
    probe = SpeedProbe()

    def setup() -> tuple[float, float]:
        before = probe.sample()
        t = measure_setup()
        return t, t * scale([before, probe.sample()])

    try:
        start = time.perf_counter()
        while not passes or _room(time.perf_counter() - start - sum(t for t, _ in setups),
                                  seconds, passes):
            setups.append(setup())
            p = Pass(workload, chain_order(workload, rng), cli, reference, probe=probe)
            problems += p.check(refs, arrays, reference)
            passes.append(p)
        while len(setups) < SETUP_REPEATS:
            setups.append(setup())
    finally:
        probe.close()
    per_pass = [p.metrics() for p in passes]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values["setup_s"] = statistics.median(s for _, s in setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{workload}: {len(passes)} passes, closed loop, one client")
    print(_summary("probe_s", probe.samples, "s"))
    print(f"  mean speed factor {REFERENCE_PROBE_S / statistics.fmean(probe.samples):.4f} "
          "(reference seconds per measured second); times scaled, raw pass_s and "
          "setup_s for comparison")
    print(_summary("raw.pass_s", [sum(t1 - t0 for _, t0, t1 in p.commands)
                                  for p in passes], "s"))
    print(_summary("raw.setup_s", [t for t, _ in setups], "s"))
    print(_summary("setup_s", [s for _, s in setups], units["setup_s"]))
    for k in per_pass[0]:
        print(_summary(k, [m[k] for m in per_pass], units[k]))
    attempted = sum(len(p.plan) for p in passes)
    return _result(spec["end_to_end"], values, attempted, problems)


def run_traced(workload, seconds, rng, cli, reference, refs, arrays, spec):
    import tracer as tr

    tracer = tr.Tracer()
    untraced, traced, problems = [], [], []
    layer_runs, span_passes = [], []
    start = time.perf_counter()
    while not (untraced and traced) or _room(time.perf_counter() - start, seconds,
                                             untraced + traced):
        tracing = len(traced) < len(untraced)
        if tracing:
            tracer.install()
            try:
                p = Pass(workload, chain_order(workload, rng), cli, reference, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            m = tr.layer_metrics(spans, tracer.names, (p.start, p.end), p.commands,
                                 p.iterations(), p.bytes_written)
            if m["solver.step_calls"] != m["solver.iterations"]:
                raise tr.TraceError(
                    f"{m['solver.step_calls']} traced step calls, but the solve "
                    f"outputs report {m['solver.iterations']} iterations")
            layer_runs.append(m)
            span_passes.append(spans)
            traced.append(p)
        else:
            p = Pass(workload, chain_order(workload, rng), cli, reference)
            untraced.append(p)
        problems += p.check(refs, arrays, reference)

    values = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]}
    values["trace.untraced_pass_s"] = statistics.median(p.end - p.start for p in untraced)
    values["trace.overhead_s"] = values["trace.pass_s"] - values["trace.untraced_pass_s"]
    zeros = tr.mapped_zeros(values, workload)
    if zeros:
        raise tr.TraceError(f"{workload}: mapped metrics read zero: {', '.join(zeros)}")
    tr.write_spans(str(WORK / f"spans-{workload}.csv"), tracer.names, span_passes)

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"{workload}: {len(traced)} traced and {len(untraced)} untraced passes")
    for k in sorted(values):
        runs = [m[k] for m in layer_runs] if k in layer_runs[0] else [values[k]]
        print(_summary(k, runs, units.get(k, "?")))
    print(f"  split: kernel {values['trace.kernel_share']:.1%} of the pass, "
          f"gate (hypotheses + coeffexpr) outside it {values['trace.gate_share']:.1%}, "
          f"in no span {values['trace.unattributed_share']:.2%}")
    attempted = sum(len(p.plan) for p in untraced + traced)
    return _result(spec["per_layer"], values, attempted, problems)


def capture(cli, reference) -> None:
    REFERENCE.mkdir(exist_ok=True)
    for workload, chains in WORKLOADS.items():
        records, arrays = Pass(workload, chains, cli, reference).record()
        reference.save(str(REFERENCE), workload, records, arrays)
        print(f"{workload}: captured {len(records)} commands")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capture", action="store_true",
                    help="run each workload once and rewrite the reference outputs")
    args = ap.parse_args(argv)
    if not args.capture and args.workload is None:
        ap.error("--workload is required")

    os.chdir(ROOT)
    nproc = len(os.sched_getaffinity(0))
    cap_thread_pools(nproc)
    try:
        cli = import_program()
        import reference

        if args.capture:
            capture(cli, reference)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        refs, arrays = reference.load(str(REFERENCE), args.workload)
        print("provenance: " + json.dumps(provenance(args.seed, nproc), sort_keys=True))
        run = run_traced if args.trace else run_end_to_end
        result = run(args.workload, args.seconds, random.Random(args.seed), cli,
                     reference, refs, arrays, spec)
    except (BenchError, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
