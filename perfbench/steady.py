"""Steadiness self-check: run the benchmark in sets and compare them.

    python3 perfbench/steady.py --out perfbench/baseline.json

Each of two sets runs every workload once for each of ten seeds, untraced,
for BENCHMARK.json's ``run_seconds``; each set has its own seeds.  For
every end-to-end metric it reports the median and the quartile spread,
``(q3 - q1) / median`` with ``statistics.quantiles(values, n=4)``.  The
check passes when every spread is within the metric's bound and, for every
metric, the second set's median is not worse than the first set's by more
than the bound.  The wall-clock ``op_p50_ms``, ``op_tail_ms`` and ``ops_per_s``
of each run are recorded and shown beside them, ungated.  The record names
the Python version, ``nproc`` and the seeds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WALL = ("op_p50_ms", "op_tail_ms", "ops_per_s", "setup_wall_p50_s")  # recorded, not gated
SEEDS = 10  # runs per workload and set
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {**{name: m["value"] for name, m in result["metrics"].items()}, **{k: record[k] for k in WALL}}


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the record here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    sets = []
    for index in range(SETS):
        seeds = [1000 * (index + 1) + k for k in range(SEEDS)]
        values = {w: {name: [] for name in (*metrics, *WALL)} for w in workloads}
        for seed in seeds:
            for workload in workloads:
                for name, value in run_once(workload, seed, seconds).items():
                    values[workload][name].append(value)
                print(f"set {index + 1} seed {seed} {workload} done", file=sys.stderr, flush=True)
        stats = {}
        for workload in workloads:
            stats[workload] = {}
            for name, vals in values[workload].items():
                median = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                stats[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                         "spread": (q3 - q1) / median, "values": vals}
        sets.append({"seeds": seeds, "stats": stats})

    ok = True
    lines = []
    for workload in workloads:
        for name, spec_m in metrics.items():
            first = sets[0]["stats"][workload][name]
            row = f"{workload:8} {name:16} bound {spec_m['bound']:.2f}"
            for later in sets:
                s = later["stats"][workload][name]
                drift = worse_by(first["median"], s["median"], spec_m["better"])
                passed = s["spread"] <= spec_m["bound"] and drift <= spec_m["bound"]
                ok &= passed
                row += f" | median {s['median']:.5g} spread {s['spread']:.4f} worse {drift:+.4f}"
                row += "" if passed else " FAIL"
            lines.append(row)
        for name in WALL:
            row = f"{workload:8} {name:16} (wall, not gated)"
            for later in sets:
                s = later["stats"][workload][name]
                row += f" | median {s['median']:.5g} spread {s['spread']:.4f}"
            lines.append(row)
    print("\n".join(lines))
    print("steady" if ok else "NOT steady")
    if args.out:
        record = {"python": platform.python_version(), "nproc": os.cpu_count(),
                  "run_seconds": seconds, "steady": ok, "sets": sets}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
