"""tangentia benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The library is imported from ``src/``;
nothing is installed.  Every op is checked against ``golden.json``.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it is a readable
summary, and ``perfbench/out/`` receives the full record of the run.
See README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import catalogue
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PY = sys.executable
WORKER = str(HERE / "worker.py")

SETUP_LAUNCHES = 21  # setup_s is the median over these
PROBE_LAUNCHES = 9  # importtime and bare-interpreter probes of a traced run
READY_PROBE = "import sys, tangentia.cli; sys.stdout.write(tangentia.cli.__file__ + '\\n'); sys.stdout.flush()"
WORKLOADS = ("cli-mix", "battery", "scale")
CAL_ROUNDS = 2000
# setup_s converts set-up launches, measured in bare interpreter starts,
# back to seconds at this fixed start time, about what a bare start takes
# on a 2-CPU host with Python 3.11
START_REFERENCE_MS = 55.0


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env(extra: dict | None = None) -> dict:
    """The caller's environment without settings that change how Python or
    tangentia run; bytecode is cached under out/, as an install would."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "TANGENTIA_", "PERFBENCH_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.update(extra or {})
    return env


def from_checkout(path: str) -> bool:
    return Path(path.strip()).resolve().is_relative_to(SRC)


# ---------------------------------------------------------------------------
# the reference loop and the set-up and start-up probes
# ---------------------------------------------------------------------------

def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop of Fraction and dict work.

    It uses no tangentia code, so no change to the library can move it.  It
    runs beside every op on the same CPU, and an op's time divided by it
    (unit ``cal``) stays put while neighbours on a shared host slow the
    machine down and speed it up again.
    """
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, CAL_ROUNDS):
        acc += Fraction(i % 7, i % 11 + 1)
        seen[i, i % 5] = str(acc.denominator)[:3]
    return (time.perf_counter() - start) * 1000


def ready_ms() -> float:
    """Launch a fresh interpreter; ms until tangentia.cli is imported."""
    start = time.perf_counter()
    proc = subprocess.Popen([PY, "-c", READY_PROBE], stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.communicate()
    if proc.returncode or not from_checkout(line):
        raise RuntimeError(f"tangentia.cli did not import from {SRC}: {line.strip()!r}")
    return elapsed * 1000


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+tangentia\.(\w+)$")


def import_ms() -> dict[str, float]:
    """Self import time of each layer, from ``-X importtime``."""
    proc = subprocess.run([PY, "-X", "importtime", "-c", "import tangentia.cli"],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line.strip())
        if m and m.group(2) in tracer.LAYERS:
            found[m.group(2)] = int(m.group(1)) / 1000
    return found


def bare_start_ms() -> float:
    start = time.perf_counter()
    subprocess.run([PY, "-c", "pass"], env=child_env(), cwd=ROOT, check=True)
    return (time.perf_counter() - start) * 1000


def setup_launches() -> tuple[list[float], list[float]]:
    """The ms of each set-up launch, and of a bare interpreter start before
    each launch and after the last.

    A bare start goes through the same process creation, site start-up and
    file reads as a launch, so on a shared host it slows down and speeds up
    with it, far more closely than the reference loop does.
    """
    launches, bare = [], [bare_start_ms()]
    for _ in range(SETUP_LAUNCHES):
        launches.append(ready_ms())
        bare.append(bare_start_ms())
    return launches, bare


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def relative(ms: list[float], ref_ms: list[float], keep: list[bool] | None = None) -> list[float]:
    """Each time ``ms[i]`` divided by the mean of ``ref_ms[i]`` and
    ``ref_ms[i + 1]``, the reference runs just before and after it."""
    return [t * 2 / (ref_ms[i] + ref_ms[i + 1])
            for i, t in enumerate(ms) if keep is None or keep[i]]


class Run:
    """Samples, failures and span summaries of one timed run.

    ``cal_ms[i]`` is the reference loop taken just before op i; one more is
    taken after the last op, so op i's time in ``cal`` divides by the mean of
    ``cal_ms[i]`` and ``cal_ms[i + 1]``.
    """

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.ops: list[tuple[float, bool]] = []  # (ms, traced)
        self.cal_ms: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.traces: list[dict] = []
        self.traced_ops = 0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def ms(self, traced: bool) -> list[float]:
        return [ms for ms, t in self.ops if t == traced]

    def in_cal(self) -> list[float]:
        """Untraced op times, each divided by the reference loop beside it."""
        return relative([ms for ms, _ in self.ops], self.cal_ms, [not traced for _, traced in self.ops])

    def calibrate(self) -> None:
        self.cal_ms.append(calibrate())

    def record(self, ms: float, traced: bool, problem: str | None) -> None:
        self.ops.append((ms, traced))
        if problem:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problem)
                print(f"FAILED: {problem}", file=sys.stderr)


def cli_op(run: Run, entry: str, traced: bool, spans: Path | None = None) -> None:
    """One fresh ``tangentia`` process, compared byte for byte with golden.json."""
    argv, extra = catalogue.split_entry(entry)
    trace_file = OUT / f"trace-{os.getpid()}.json"
    if traced:
        cmd = [PY, WORKER, "cli", *argv]
        extra = dict(extra, PERFBENCH_TRACE_OUT=str(trace_file))
        if spans:
            extra["PERFBENCH_SPANS"] = str(spans)
    else:
        cmd = [PY, "-m", "tangentia.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=child_env(extra), cwd=ROOT)
    ms = (time.perf_counter() - start) * 1000
    want = run.golden["cli"][entry]
    got = {"exit": proc.returncode, "stdout": sha(proc.stdout), "stderr": sha(proc.stderr)}
    problem = None if got == want else f"{entry!r}: exit {proc.returncode}, {proc.stderr[-200:]!r}"
    if traced:
        run.traces.append(json.loads(trace_file.read_text()))
        trace_file.unlink()
        run.traced_ops += 1
    run.record(ms, traced, problem)


def cli_loop(run: Run, entries, deadline: float, trace: bool) -> None:
    for index, entry in enumerate(entries):
        if time.perf_counter() >= deadline and run.traced_ops >= trace:
            return
        run.calibrate()
        cli_op(run, entry, traced=trace and index % 2 == 1)


def scale_worker(traced: bool, spans: Path | None = None) -> subprocess.Popen:
    extra = {"PERFBENCH_SPANS": str(spans)} if spans else {}
    proc = subprocess.Popen([PY, WORKER, "scale", *(["--trace"] if traced else [])],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=child_env(extra), cwd=ROOT)
    ready = proc.stdout.readline()
    if not ready or not from_checkout(json.loads(ready)["ready"]):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"scale worker did not import tangentia from {SRC}")
    return proc


def scale_pass(run: Run, calls: list, traced: bool, spans: Path | None = None) -> None:
    """One fresh worker process answers the pass's calls, in order."""
    proc = scale_worker(traced, spans)
    done = 0
    for call in calls:
        run.calibrate()
        proc.stdin.write(json.dumps(call) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        key = catalogue.call_key(call)
        if not line:
            run.record(0.0, traced, f"scale worker died on {key}")
            break
        reply = json.loads(line)
        want = run.golden["scale"][key]
        run.record(reply["ms"], traced, None if reply["fp"] == want else f"{key}: {reply['fp']} != {want}")
        done += 1
    proc.stdin.close()
    rest = proc.stdout.read()
    proc.wait()
    if traced and done:
        run.traces.append(json.loads(rest)["trace"])
        run.traced_ops += done


def scale_loop(run: Run, rng: random.Random, deadline: float, trace: bool) -> None:
    """Whole passes until the deadline, so every run makes each slot's call
    the same number of times.  Ended mid-pass, a run's slowest ops would
    depend on how far the host's speed let the last pass get, and the
    tail would jump between the costs of the heaviest calls."""
    index = 0
    while time.perf_counter() < deadline or run.traced_ops < trace:
        scale_pass(run, catalogue.scale_pass(rng), traced=trace and index % 2 == 1)
        index += 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile that still has ten samples beyond it, and
    which percentile that is (the maximum when there are ten or fewer)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(run: Run, setup: tuple[list[float], list[float]], elapsed: float) -> tuple[dict, dict]:
    ops, ops_cal = run.ms(False), run.in_cal()
    tail_ms, tail_pct = tail(ops)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    launches, bare = setup
    metrics = {
        "setup_s": (statistics.median(relative(launches, bare)) * START_REFERENCE_MS / 1000, "s"),
        "op_p50_cal": (statistics.median(ops_cal), "cal"),
        "op_tail_cal": (tail(ops_cal)[0], "cal"),
        "ok_share": ((run.attempted - run.failed) / run.attempted, "share"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    # wall-clock figures, as a user on this machine saw them during the run
    extra = {"op_p50_ms": statistics.median(ops), "op_tail_ms": tail_ms,
             "ops_per_s": len(ops) / (elapsed - sum(run.cal_ms) / 1000),
             "op_tail_percentile": tail_pct, "op_samples": len(ops),
             "fail_share": run.failed / run.attempted, "cal_p50_ms": statistics.median(run.cal_ms),
             "setup_wall_p50_s": statistics.median(launches) / 1000, "setup_launch_ms": launches,
             "setup_bare_ms": bare, "op_ms": ops, "cal_ms": run.cal_ms}
    return metrics, extra


def per_layer(run: Run, imports: list[dict], starts: list[float]) -> tuple[dict, dict]:
    spans: dict[str, list[float]] = {}
    shapes = 0
    for summary in run.traces:
        shapes += summary["distinct_shapes"]
        for name, s in summary["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += s["calls"]
            acc[1] += s["total_s"]
            acc[2] += s["self_s"]
    per_op = 1 / max(run.traced_ops, 1)

    def name_calls(name: str) -> float:
        return spans.get(name, [0])[0] * per_op

    metrics: dict[str, tuple[float, str]] = {}
    for layer in tracer.LAYERS:
        mine = [acc for name, acc in spans.items() if name.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = (sum(a[0] for a in mine) * per_op, "count")
        metrics[f"{layer}.self_ms"] = (sum(a[2] for a in mine) * per_op * 1000, "ms")
        metrics[f"{layer}.import_ms"] = (statistics.median(i.get(layer, 0.0) for i in imports), "ms")
    violations = spans.get("trees.CombType.violations", [0])[0]
    metrics["trees.violations_per_shape"] = (violations / shapes if shapes else 0.0, "ratio")
    metrics["torsion.points_constructed"] = (name_calls("torsion.TorsionPoint"), "count")
    metrics["census.aggregate_N.calls"] = (name_calls("census.aggregate_N"), "count")
    metrics["lattice.enumerate_classes.calls"] = (name_calls("lattice.enumerate_classes"), "count")
    checks = run.traces[0]["checks"] if run.traces else {}
    for check, span_name in checks.items():
        total = spans.get(span_name, [0, 0.0])[1]
        metrics[f"verify.check.{check}_ms"] = (total * per_op * 1000, "ms")
    metrics["interpreter.start_ms"] = (statistics.median(starts), "ms")
    traced_p50, plain_p50 = statistics.median(run.ms(True)), statistics.median(run.ms(False))
    metrics["trace.overhead_ms"] = (traced_p50 - plain_p50, "ms")
    extra = {"traced_ops": run.traced_ops, "untraced_ops": len(run.ms(False)),
             "traced_op_p50_ms": traced_p50, "untraced_op_p50_ms": plain_p50,
             "spans": {name: {"calls": a[0], "total_s": a[1], "self_s": a[2]} for name, a in sorted(spans.items())}}
    return metrics, extra


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tangentia" / "__init__.py").is_file():
        print(f"no tangentia sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    rng = random.Random(args.seed)
    # one CPU for this process and every child, so that the reference loop
    # and the op it divides share the same neighbours
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setup_start = time.perf_counter()
    setup = ([], []) if trace else setup_launches()
    imports = [import_ms() for _ in range(PROBE_LAUNCHES)] if trace else []
    starts = [bare_start_ms() for _ in range(PROBE_LAUNCHES)] if trace else []
    setup_wall = time.perf_counter() - setup_start

    run = Run(golden)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    start = time.perf_counter()
    deadline = start + args.seconds
    if args.workload == "scale":
        scale_loop(run, rng, deadline, trace)
    else:
        entries = catalogue.cli_mix(rng) if args.workload == "cli-mix" else catalogue.battery()
        cli_loop(run, entries, deadline, trace)
    run.calibrate()
    elapsed = time.perf_counter() - start
    if trace:
        # one more traced op, outside the timed run, writes its spans out
        spans.unlink(missing_ok=True)
        extra_run = Run(golden)
        if args.workload == "scale":
            scale_pass(extra_run, catalogue.scale_pass(rng)[:1], True, spans)
        else:
            cli_op(extra_run, next(entries), True, spans)
        run.failed += extra_run.failed

    if trace:
        metrics, extra = per_layer(run, imports, starts)
    else:
        metrics, extra = end_to_end(run, setup, elapsed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "setup_wall_s": setup_wall, "timed_wall_s": elapsed,
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **extra,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    shown = ", ".join(f"{k}={v:.4g}{u if u in ('ms', 's') else ''}" for k, (v, u) in metrics.items()
                      if not k.startswith("verify.check."))
    print(f"{args.workload} seed={args.seed} python={record['python']} nproc={record['nproc']} "
          f"attempted={run.attempted} failed={run.failed} "
          + ("" if trace else f"op_p50_ms={extra['op_p50_ms']:.4g}, op_tail_ms={extra['op_tail_ms']:.4g} "
             f"(p{extra['op_tail_percentile']:.1f} of {extra['op_samples']}), ops_per_s={extra['ops_per_s']:.4g}, "
             f"setup_wall_s={extra['setup_wall_p50_s']:.4g}, ")
          + shown)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
