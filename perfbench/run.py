"""The repository benchmark: one workload per invocation.

Usage::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 0

Workloads are ``churn``, ``faults`` and ``sharded`` (see
``perfbench/README.md``).  The seed builds the workload's config; the
simulator receives only that config.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``run_s`` -- the time from the first dispatched event to the
  horizon, as the sum over blocks of the run of the fastest of the
  run's simulations of the seed (:func:`fastest_blocks`).  A run makes
  ``--seconds`` ÷ the workload's nominal round time rounds; a classic
  round is one simulation per core at once (see :func:`measure`);
* ``setup_s`` -- median over fresh processes, probed at points spread
  evenly from before the first round to after the last, of the time
  from process start to the first event (imports, config validation,
  wiring, populate);
* ``peak_rss_mb`` -- the high-water mark of a simulating process; for
  ``sharded`` plus its worker processes.

The simulated figures (``ratio_error``, ``query_success``,
``msgs_per_query``, ``request_fail_ratio``) are printed with them.

``--trace 1`` runs the seed untraced, then traced, checks that both
produced the same trajectory, and reports the per-layer metrics of
:mod:`layers`; ``--seconds`` does not apply.  The spans are written
to ``.perfbench/trace-<workload>.npz``.

Every run checks its output (overlay invariants, final population,
complete series, identical trajectories across simulations).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 if any check failed, 2 if the
simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from workloads import ROOT, WORKLOADS, bootstrap, digest, simulate

CHILD = Path(__file__).resolve().parent / "child.py"
#: Seconds a child process may take (the whole run must end in 180).
CHILD_TIMEOUT = 150
#: No further round starts once the rounds have taken this many times
#: ``--seconds``: a slow host then makes fewer simulations, not a run
#: that overruns its time.
ROUNDS_DEADLINE = 1.25
#: Set-up probes per run, spread evenly from before the first round of
#: simulations to after the last.
SETUP_PROBES = 6
#: Where traced runs write their spans (inside the checkout).
TRACE_DIR = ROOT / ".perfbench"

END_TO_END: Dict[str, str] = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Simulated figures printed beside the end-to-end metrics.
FIGURE_UNITS: Dict[str, str] = {
    "ratio_error": "fraction",
    "query_success": "fraction",
    "msgs_per_query": "messages",
    "request_fail_ratio": "fraction",
}


def setup_time(workload: str, seed: int, scale: float) -> float:
    """Seconds from starting a fresh process to its first event."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), "setup", workload, str(seed), repr(scale)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - started


def run_copies(name: str, seed: int, scale: float, cores: List[int]) -> List[dict]:
    """One simulation of the seed per core, all at once, each in a fresh
    process pinned to its core (see ``child.py`` for the result keys)."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(CHILD), "run", name, str(seed), repr(scale),
             str(core)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for core in cores
    ]
    copies = []
    try:
        for proc in procs:
            try:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT)
                copies.append(json.loads(out.strip().splitlines()[-1]))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                copies.append({"run_s": 0.0, "failures": ["simulation timed out"]})
            except (ValueError, IndexError):
                copies.append(
                    {"run_s": 0.0, "failures": [f"simulation process failed:\n{err}"]}
                )
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return copies


def fastest_blocks(copies: List[dict]) -> float:
    """Sum over the blocks of a seed's run of the fastest simulation's
    time for each block.

    Every simulation of one seed splits into the same blocks of work
    (the digest check makes sure the trajectories agree), so block
    ``i`` is the same work in each.  The host slows down for periods of
    any length, differently on each core; taking each block's minimum
    drops the slow periods shorter than the run, as ``timeit`` does for
    whole repetitions.  A sharded simulation is one block, so for it
    this is the fastest whole simulation.  Falls back to the median
    whole-run time if the block counts disagree.
    """
    blocks = [copy.get("segments") or [] for copy in copies]
    if not blocks[0] or any(len(b) != len(blocks[0]) for b in blocks):
        return statistics.median(copy["run_s"] for copy in copies)
    return sum(min(times) for times in zip(*blocks))


def sharded_copy(name: str, seed: int, scale: float) -> dict:
    """One sharded simulation, run from this process on its workers.

    The peak RSS is this process's high-water mark plus ``workers``
    times the largest child's (an upper bound on the workers' combined
    peak).
    """
    workload = WORKLOADS[name]
    out = simulate(workload, seed, scale=scale, workers=workload.workers)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "run_s": out.run_s,
        "segments": out.segments,
        "failures": out.failures,
        "figures": out.figures,
        "digest": digest(out),
        "rss_kib": own + workload.workers * child,
    }


def rounds_for(workload, seconds: float) -> int:
    """Rounds of simulations that fill ``seconds`` at the workload's
    nominal copy time.  The count depends on ``--seconds`` only, not on
    how fast the host happens to be, so every run takes the minimum
    over the same number of simulations."""
    return max(1, int(seconds // workload.copy_s))


def measure(
    name: str,
    seed: int,
    seconds: float,
    *,
    scale: float = 1.0,
    setup_probes: int = SETUP_PROBES,
) -> Tuple[Dict[str, float], Dict[str, float], List[str], int, int]:
    """Untraced run: (end-to-end metrics, figures, failure messages,
    operations attempted, operations failed).

    An operation is one set-up probe or one simulation.  A classic
    workload runs in rounds of one simulation per available core, all
    at once, each pinned to its core; a sharded workload runs one
    simulation per round, on its worker processes.  ``run_s`` is
    :func:`fastest_blocks` over all of them.  The ``setup_probes``
    set-up probes are spread evenly from before the first round to
    after the last, so their median samples the host across the run.
    """
    workload = WORKLOADS[name]
    failures: List[str] = []
    failed = 0
    probes = 0
    setups: List[float] = []
    rounds = rounds_for(workload, seconds)
    # Probe k runs after round at[k] (0: before the first round).
    gaps = max(1, setup_probes - 1)
    at = [round(k * rounds / gaps) for k in range(setup_probes)]

    def probe_setup(after: int) -> None:
        nonlocal failed, probes
        for _ in range(at.count(after)):
            probes += 1
            try:
                setups.append(setup_time(name, seed, scale))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                failures.append(str(exc))
                failed += 1

    probe_setup(0)
    cores = sorted(os.sched_getaffinity(0))
    copies: List[dict] = []
    began = time.monotonic()
    for done_rounds in range(1, rounds + 1):
        if copies and time.monotonic() - began > ROUNDS_DEADLINE * seconds:
            break
        if workload.sharded:
            done = [sharded_copy(name, seed, scale)]
        else:
            done = run_copies(name, seed, scale, cores)
        copies.extend(done)
        probe_setup(done_rounds)
        if any(copy["failures"] for copy in done):
            break
    first = copies[0]
    for i, copy in enumerate(copies):
        if not copy["failures"] and copy["digest"] != first["digest"]:
            copy["failures"].append(
                f"simulation {i + 1} diverged from the first simulation of "
                "the same seed"
            )
        if copy["failures"]:
            failures.extend(copy["failures"])
            failed += 1
    runs = [copy["run_s"] for copy in copies]
    metrics = {
        "run_s": fastest_blocks(copies),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max(copy.get("rss_kib", 0) for copy in copies) / 1024.0,
    }
    print(
        f"# {name} seed={seed}: {len(runs)} simulation(s), whole-run time each "
        + ", ".join(f"{r:.3f}" for r in runs)
        + "; setup_s each "
        + ", ".join(f"{s:.3f}" for s in setups)
    )
    figures = first.get("figures", {})
    return metrics, figures, failures, probes + len(runs), failed


def trace(
    name: str, seed: int, *, scale: float = 1.0, write: bool = True
) -> Tuple[Dict[str, float], List[str], int, int]:
    """Traced run: (per-layer metrics, failure messages, operations
    attempted, operations failed)."""
    from layers import layer_metrics
    from tracer import Tracer

    workload = WORKLOADS[name]
    # Spans are recorded in-process, so a sharded run is traced on one
    # worker; its untraced reference uses one worker too.
    reference = simulate(workload, seed, scale=scale, workers=1)
    tracer = Tracer()
    traced = simulate(workload, seed, scale=scale, workers=1, tracer=tracer)
    parallel = None
    if workload.sharded:
        parallel = simulate(workload, seed, scale=scale, workers=workload.workers)
    runs = [run for run in (reference, traced, parallel) if run is not None]
    for label, run in (("traced", traced), ("parallel", parallel)):
        if run is not None and not run.failures and not reference.failures:
            if run.fingerprint != reference.fingerprint:
                run.failures.append(
                    f"trace parity: the {label} run's events, joins, deaths "
                    "or ratio series differ from the untraced run of the "
                    "same seed"
                )
    failures = [f for run in runs for f in run.failures]
    failed = sum(1 for run in runs if run.failures)
    if reference.failures or traced.failures:
        return {}, failures, len(runs), failed
    cols = tracer.columns()
    if write:
        TRACE_DIR.mkdir(exist_ok=True)
        cols.write(str(TRACE_DIR / f"trace-{name}.npz"))
    metrics = layer_metrics(cols, traced, reference, parallel)
    print(
        f"# {name} seed={seed}: untraced run_s {reference.run_s:.3f}, traced "
        f"run_s {traced.run_s:.3f}, {len(cols.start)} spans; trace parity "
        + ("FAILED" if failures else "ok")
        + f"; trace.overhead_s {metrics['trace.overhead_s']:.3f}"
    )
    return metrics, failures, len(runs), failed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    bootstrap()
    if args.trace:
        from layers import PER_LAYER

        values, failures, attempted, failed = trace(args.workload, args.seed)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        for name, value in values.items():
            print(
                f"{args.workload:8s} {name:34s} {value:16.6f} "
                f"{units[name]:9s} -> {PER_LAYER[name][2]}"
            )
    else:
        values, figures, failures, attempted, failed = measure(
            args.workload, args.seed, args.seconds
        )
        units = END_TO_END
        for name, value in {**values, **figures}.items():
            unit = units.get(name) or FIGURE_UNITS[name]
            print(f"{args.workload:8s} {name:34s} {value:16.6f} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    print(json.dumps(report))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
