"""The benchmark's workloads and the simulation step every run repeats.

Each workload is built only from the simulator's public config surface
(``largescale_config``/``bench_config().with_(...)``, ``FaultPlan``,
``SearchConfig``, ``HealthConfig``, ``scaled_scenario``).  The seed is
the only input that varies between runs; the program receives the
generated config and nothing else.

:func:`simulate` runs one workload once, times it, and checks its
output: overlay invariants at the horizon (classic engine), the final
population, and a complete sample series.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Events per timed block of a classic simulation (see :func:`simulate`).
SEGMENT_EVENTS = 200


def bootstrap() -> None:
    """Put the checkout's ``src/`` on ``sys.path``; exit 2 if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no simulator sources under {SRC}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """How to build one workload.

    ``build(seed, scale)`` returns ``(config, scenario)``.  ``scale`` < 1
    shrinks the population and horizon for smoke tests; the benchmark
    always runs at 1.0.
    """

    build: Callable[[int, float], tuple]
    #: Nominal seconds of one round of simulations on a 2-core host;
    #: sets how many rounds a run of ``--seconds`` makes.
    copy_s: float
    #: Worker processes of the untraced run (sharded engine only).
    workers: Optional[int] = None

    @property
    def sharded(self) -> bool:
        return self.workers is not None


def _churn(seed: int, scale: float, *, n: int = 5_000, shards: int = 1):
    from repro.experiments.configs import largescale_config
    from repro.experiments.dynamic_run import scaled_scenario

    cfg = largescale_config().with_(
        name="perfbench",
        n=max(200, int(n * scale)),
        horizon=160.0 if scale >= 1.0 else 120.0,
        seed=seed,
        shards=shards,
    )
    return cfg, scaled_scenario(cfg)


def _faults(seed: int, scale: float):
    from repro.experiments.configs import SearchConfig, bench_config
    from repro.experiments.dynamic_run import scaled_scenario
    from repro.health.config import HealthConfig
    from repro.protocol.faults import FaultPlan

    cfg = bench_config().with_(
        name="perfbench",
        n=max(200, int(1_000 * scale)),
        horizon=300.0 if scale >= 1.0 else 120.0,
        seed=seed,
        faults=FaultPlan(loss_rate=0.05, latency_scale=1.0),
        health=HealthConfig(),
        search=SearchConfig(query_rate=10.0),
    )
    return cfg, scaled_scenario(cfg)


def _sharded(seed: int, scale: float):
    return _churn(seed, scale, shards=2)


WORKLOADS: Dict[str, Workload] = {
    "churn": Workload(_churn, copy_s=4.2),
    "faults": Workload(_faults, copy_s=4.2),
    "sharded": Workload(_sharded, copy_s=2.7, workers=2),
}


@dataclass
class Outcome:
    """One simulation: its timing, trajectory fingerprint and checks."""

    run_s: float
    failures: List[str] = field(default_factory=list)
    #: Simulated figures (repeat exactly for a seed): ratio_error, ...
    figures: Dict[str, float] = field(default_factory=dict)
    #: (events, joins, deaths, population, ratio series) -- equal for
    #: every run of one seed, traced or not, on any worker count.
    fingerprint: tuple = ()
    result: object = None
    #: Wall time of each consecutive block of the run's work (see
    #: :func:`simulate`).
    segments: List[float] = field(default_factory=list)


def simulate(
    workload: Workload,
    seed: int,
    *,
    scale: float = 1.0,
    workers: Optional[int] = None,
    tracer=None,
) -> Outcome:
    """Run ``workload`` once; an error in the run becomes a failure.

    Classic runs are wired with ``run_experiment(run=False)`` and
    ``run_s`` spans the first dispatched event to the horizon.  A
    sharded run wires and populates inside its worker processes, so its
    ``run_s`` is the whole ``run_experiment`` call.  ``tracer`` (a
    :class:`tracer.Tracer`) is installed before wiring and removed after.

    The run also records the wall time of each block of its work in
    ``segments``.  A classic run advances in blocks of
    :data:`SEGMENT_EVENTS` events (``Simulator.run(until, max_events)``
    delivers the same events in the same order as one call); the
    telemetry export is the last block.  Every simulation of a seed
    splits into the same blocks, so block times can be compared across
    simulations.  A sharded run is one block: its engine offers no
    public way to stop between windows.
    """
    from repro.experiments.runner import run_experiment
    from repro.telemetry import export_run

    cfg, scenario = workload.build(seed, scale)
    saved = os.environ.get("REPRO_WORKERS")
    if workers is not None:
        os.environ["REPRO_WORKERS"] = str(workers)
    if tracer is not None:
        tracer.install()
    segments: List[float] = []
    try:
        if workload.sharded:
            t0 = time.perf_counter()
            result = run_experiment(cfg, scenario=scenario)
            run_s = time.perf_counter() - t0
            segments = [run_s]
        else:
            result = run_experiment(cfg, scenario=scenario, run=False)
            sim = result.ctx.sim
            t0 = time.perf_counter()
            while True:
                before = sim.events_processed
                s0 = time.perf_counter()
                sim.run(until=cfg.horizon, max_events=SEGMENT_EVENTS)
                segments.append(time.perf_counter() - s0)
                if sim.events_processed - before < SEGMENT_EVENTS:
                    break
            s0 = time.perf_counter()
            export_run(result)
            end = time.perf_counter()
            segments.append(end - s0)
            run_s = end - t0
    except Exception:  # noqa: BLE001 - a failed run is a reported failure
        return Outcome(run_s=0.0, failures=[traceback.format_exc()])
    finally:
        if tracer is not None:
            tracer.uninstall()
        if saved is None:
            os.environ.pop("REPRO_WORKERS", None)
        else:
            os.environ["REPRO_WORKERS"] = saved
    out = Outcome(run_s=run_s, result=result, segments=segments)
    try:
        out.failures = check(cfg, result, sharded=workload.sharded)
        out.figures = figures(cfg, result)
        out.fingerprint = fingerprint(result, sharded=workload.sharded)
    except Exception:  # noqa: BLE001 - a result we cannot read fails
        out.failures.append(traceback.format_exc())
    return out


def _population(result, sharded: bool) -> int:
    return result.n if sharded else result.overlay.n


def check(cfg, result, *, sharded: bool) -> List[str]:
    """Output checks at the horizon; returns failure messages."""
    failures = []
    if not sharded:
        try:
            result.overlay.check_invariants(aggregates=True)
        except Exception as exc:  # noqa: BLE001 - any violation fails
            failures.append(f"overlay invariants: {exc}")
    population = _population(result, sharded)
    if population != cfg.n:
        failures.append(f"final population {population} != n={cfg.n}")
    expected = int(round(cfg.horizon / cfg.sample_interval))
    for name in result.series.names():
        series = result.series[name]
        if len(series) != expected or series.last()[0] != cfg.horizon:
            failures.append(
                f"series {name!r}: {len(series)} samples, expected "
                f"{expected} ending at t={cfg.horizon}"
            )
    return failures


def fingerprint(result, *, sharded: bool) -> tuple:
    """What a traced or repeated run of the same seed must reproduce."""
    if sharded:
        stats = getattr(result, "stats", None)
        events = getattr(stats, "events_processed", -1)
        joins, deaths = result.joins, result.deaths
    else:
        events = result.ctx.sim.events_processed
        joins, deaths = result.driver.joins, result.driver.deaths
    ratio = result.series["ratio"]
    return (
        events,
        joins,
        deaths,
        _population(result, sharded),
        ratio.times.tobytes(),
        ratio.values.tobytes(),
    )


def digest(out: Outcome) -> str:
    """A short hash of an outcome's fingerprint, to compare across
    processes."""
    return hashlib.sha256(repr(out.fingerprint).encode()).hexdigest()


def request_totals(ledger) -> Dict[str, int]:
    """Phase-1 request accounting from the message ledger.

    Every timeout either retransmits or gives the request up, so
    failures are timeouts minus retransmissions; requests started are
    request messages minus retransmissions.
    """
    from repro.protocol.messages import NeighNumRequest, ValueRequest

    kinds = (NeighNumRequest, ValueRequest)
    sent = sum(ledger.count(k) for k in kinds)
    retx = sum(ledger.retransmissions_for(k) for k in kinds)
    timeouts = sum(ledger.timeouts_for(k) for k in kinds)
    return {
        "started": sent - retx,
        "failed": timeouts - retx,
        "retransmissions": retx,
    }


def figures(cfg, result) -> Dict[str, float]:
    """Simulated end-to-end figures (deterministic for a seed).

    ``ratio_error`` is |tail mean(ratio) - eta| / eta over
    [2 * warmup, horizon], the Figure-6 convention.
    """
    from repro.metrics.summary import relative_error, summarize

    t0 = 2 * cfg.warmup
    if t0 >= cfg.horizon:
        t0 = cfg.warmup
    tail = summarize(result.series["ratio"], t_from=t0, t_to=cfg.horizon)
    out = {"ratio_error": relative_error(tail.mean, cfg.eta)}
    stats = result.query_stats
    if stats is not None:
        out["query_success"] = stats.success_rate
        out["msgs_per_query"] = stats.mean_messages_per_query
    if cfg.faults is not None:
        req = request_totals(result.ctx.messages)
        out["request_fail_ratio"] = req["failed"] / max(1, req["started"])
    return out
