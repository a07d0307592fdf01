"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage::

    python3 perfbench/spread.py --workload churn --seeds 1 2 3 4 5 [--out FILE]

Runs ``perfbench/run.py`` once per seed (tracing off, ``run_seconds``
from ``BENCHMARK.json``), then prints for every end-to-end metric the
median, the quartiles and the spread -- the distance between the first
and third quartile as a share of the median -- beside the metric's
bound.  ``--out`` appends every run's JSON result, one line each, with
the printed table (simulated figures included) under ``printed`` and
the run's ``#`` note lines under ``notes`` and the run's own wall time
under ``wall_s``.

``--record FILE`` also makes one traced run at the first seed and
writes the workload's entry of a baseline file (see
``perfbench/baselines/``): every run's end-to-end values with their
median, quartiles and spread, the simulated figures and the per-layer
metrics.  Other workloads already in FILE are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    began = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False
    )
    wall_s = time.monotonic() - began
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The table rows: "<workload> <name> <value> <unit>", figures included.
    result["printed"] = {
        row[1]: float(row[2])
        for row in (line.split() for line in lines[:-1])
        if len(row) == 4 and row[0] == workload
    }
    # The run's own notes: every simulation's whole-run and set-up times.
    result["notes"] = [line for line in lines[:-1] if line.startswith("#")]
    result["wall_s"] = wall_s
    return result


def summary(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def record(path: Path, workload: str, seeds: list, results: list,
           spec: dict) -> None:
    """Write ``workload``'s baseline entry into ``path``."""
    import platform

    import numpy

    traced = run_once(workload, seeds[0], spec["run_seconds"], trace=1)
    names = sorted({k for r in results for k in r["printed"]}
                   - {m["name"] for m in spec["end_to_end"]})
    entry = {
        "seeds": seeds,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": {
            m["name"]: {
                "unit": m["unit"],
                **summary([r["metrics"][m["name"]]["value"] for r in results]),
            }
            for m in spec["end_to_end"]
        },
        "figures": {
            name: {
                "median": statistics.median(r["printed"][name] for r in results),
                "values": [r["printed"][name] for r in results],
            }
            for name in names
        },
        "per_layer_seed": seeds[0],
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
    }
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("host", {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    data["run_seconds"] = spec["run_seconds"]
    data.setdefault("workloads", {})[workload] = entry
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, spec["run_seconds"])
        results.append(result)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     **result}) + "\n")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        stats = summary(values)
        print(
            f"{args.workload:8s} {metric['name']:12s} median "
            f"{stats['median']:10.4f} q1 {stats['q1']:10.4f} "
            f"q3 {stats['q3']:10.4f} spread {stats['spread']:7.2%} "
            f"bound {metric['bound']:.0%}"
        )
    if args.record:
        record(args.record, args.workload, args.seeds, results, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
