"""The benchmark's child processes.

Usage::

    python3 perfbench/child.py setup <workload> <seed> <scale>
    python3 perfbench/child.py run <workload> <seed> <scale> <core>

``setup`` sets the workload up in this fresh process and stops at its
first event.  It prints ``time.monotonic()`` at the moment the run is
wired and populated, just before the first event would be dispatched.
The caller stamps ``time.monotonic()`` before starting the process;
both read the same system-wide monotonic clock, so the difference is
the set-up time from process start: interpreter start, imports, config
validation, wiring and populate.  A sharded run wires inside its worker
processes, so for it the probe covers imports and config validation.

``run`` pins this process to CPU ``core``, simulates the workload once
in timed blocks (see ``workloads.simulate``) and prints one JSON object:
``run_s``, the block times ``segments``, ``failures``, ``figures``, the
trajectory ``digest`` and the process's peak RSS in KiB.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from workloads import WORKLOADS, bootstrap, digest, simulate


def main(argv) -> int:
    mode, name, seed, scale = argv[0], argv[1], int(argv[2]), float(argv[3])
    bootstrap()
    workload = WORKLOADS[name]
    if mode == "setup":
        cfg, scenario = workload.build(seed, scale)
        if not workload.sharded:
            from repro.experiments.runner import run_experiment

            run_experiment(cfg, scenario=scenario, run=False)
        print(repr(time.monotonic()))
        return 0
    os.sched_setaffinity(0, {int(argv[4])})
    out = simulate(workload, seed, scale=scale)
    print(
        json.dumps(
            {
                "run_s": out.run_s,
                "segments": out.segments,
                "failures": out.failures,
                "figures": out.figures,
                "digest": digest(out),
                "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
