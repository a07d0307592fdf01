"""Sharded runs: K independent sub-runs plus an exact reduction.

``ExperimentConfig.shards = K > 1`` partitions the population into K
regional overlays.  DLM is a per-overlay protocol -- every peer decides
from its own neighbourhood -- so nothing in the model couples the
regions: shard ``k`` is exactly the classic run of
:func:`shard_config` ``(config, k)``, with its own scheduler, named RNG
streams rooted at :func:`~repro.sim.shard.shard_seed`, peer-store
slice, churn driver, DLM policy, and sampler.

Execution is a plain fan-out.  Each sub-run goes through
:func:`~repro.experiments.runner.run_experiment` ``(config, shard=k)``,
dispatched by :func:`~repro.experiments.parallel.parallel_map`, and
returns a reduced, picklable payload.  A sub-run's trajectory is a pure
function of ``(config, k, scenario)``, so the worker count
(``--workers`` / ``REPRO_WORKERS``) is execution-only: any layout
yields **bit-identical** results.  The shard count K, by contrast, is a
*model* parameter like ``seed``: K = 1 is the classic engine (the
runner never dispatches here), and different K are different (equally
valid) trajectories of the same experiment, so K participates in the
checkpoint config hash.

Global metrics come from exact reduction, not averaging: each sub-run
logs its raw big-int aggregate rows per sample tick
(:class:`~repro.metrics.shardstats.ShardSampleLog`) and the parent sums
them with :func:`~repro.metrics.shardstats.reduce_sample_logs`, so the
reduced layer series are bit-equal to a single sampler scanning the
union population, regardless of worker layout or reduction order.
Telemetry streams merge by the ``(t, shard, seq)`` total order of
:mod:`repro.health.aggregate`.

Checkpoints: each sub-run writes its own classic checkpoint at
``<checkpoint_path>.shard{k}`` (schema v8), recording the parent's
config and shard count plus its own index.
:func:`~repro.experiments.checkpoint.resume_run` resolves the complete
set, resumes every sub-run from its own file, and reduces as above.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..churn.scenarios import Scenario
from ..metrics.shardstats import reduce_sample_logs
from ..metrics.timeseries import SeriesBundle
from ..sim.shard import partition_counts, shard_seed
from .configs import ExperimentConfig
from .parallel import parallel_map, resolve_workers

__all__ = [
    "ShardPlaneStats",
    "ShardedRunResult",
    "run_sharded_experiment",
    "resume_sharded_run",
    "shard_config",
]

logger = logging.getLogger("repro.progress")


def _suffix_path(path: Optional[str], index: int) -> Optional[str]:
    return None if path is None else f"{path}.shard{index}"


def shard_config(config: ExperimentConfig, index: int) -> ExperimentConfig:
    """The sub-config shard ``index`` of ``config`` is wired from.

    A shard is a classic single-engine run over its population slice:
    ``shards`` collapses to 1 (the composition root must not recurse),
    the seed is the shard's derived root, and every output path --
    checkpoint, telemetry exports, flight recorder -- gets a per-shard
    ``.shard{index}`` suffix so K writers never collide.
    """
    if not 0 <= index < config.shards:
        raise ValueError(
            f"shard index {index} out of range 0..{config.shards - 1}"
        )
    sizes = partition_counts(config.n, config.shards)
    telemetry = config.telemetry
    if telemetry is not None:
        telemetry = dataclasses.replace(
            telemetry,
            jsonl_path=_suffix_path(telemetry.jsonl_path, index),
            chrome_trace_path=_suffix_path(telemetry.chrome_trace_path, index),
            # K interleaved stderr reporters are noise; each sub-run
            # logs one line when it finishes instead (_run_shard).
            progress_every=None,
        )
    health = config.health
    if health is not None and health.flight_path is not None:
        health = dataclasses.replace(
            health, flight_path=_suffix_path(health.flight_path, index)
        )
    return config.with_(
        name=f"{config.name}.s{index}",
        n=sizes[index],
        seed=shard_seed(config.seed, index),
        shards=1,
        checkpoint_path=_suffix_path(config.checkpoint_path, index),
        telemetry=telemetry,
        health=health,
    )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlaneStats:
    """Execution statistics of a sharded run.

    ``busy_wall`` is each sub-run's own wall time and ``idle_fraction``
    its share of the run's wall time spent not running (waiting for a
    worker, or for its siblings to finish).  The sub-runs never
    synchronize or exchange messages, so ``sync_rounds`` and
    ``cross_messages`` are always 0.
    """

    shards: int
    workers: int
    events_processed: int
    busy_wall: tuple
    idle_fraction: tuple
    wall_time: float

    @property
    def sync_rounds(self) -> int:
        """Barrier rounds between sub-runs: none."""
        return 0

    @property
    def cross_messages(self) -> int:
        """Messages exchanged between sub-runs: none."""
        return 0


@dataclass
class ShardedRunResult:
    """Everything a sharded run produced.

    Intentionally shaped like :class:`~repro.experiments.runner
    .RunResult` where downstream harnesses look -- ``config`` and the
    global ``series`` -- while being honest that there is no single
    ``ctx``: per-shard series ride along, and the execution stats
    replace the single-simulator counters.
    """

    config: ExperimentConfig
    series: SeriesBundle
    shard_series: List[SeriesBundle]
    stats: ShardPlaneStats
    joins: int
    deaths: int
    n_super: int
    n_leaf: int
    policy_name: str
    checkpoint_writes: int = 0

    @property
    def n(self) -> int:
        """Final global population."""
        return self.n_super + self.n_leaf

    @property
    def query_stats(self):
        """None: the search plane samples per shard, not globally."""
        return None


# ---------------------------------------------------------------------------
# The fan-out
# ---------------------------------------------------------------------------


def _run_shard(spec: tuple) -> Dict[str, Any]:
    """Worker: run (or resume) one sub-run, return its reduced payload."""
    from .runner import run_experiment

    config, index, policy_factory, scenario, payload = spec
    started = time.perf_counter()
    result = run_experiment(
        config,
        policy_factory=policy_factory,
        scenario=scenario,
        resume_from=payload,
        shard=index,
    )
    busy = time.perf_counter() - started
    sim = result.ctx.sim
    if config.telemetry is not None and config.telemetry.progress_every:
        logger.info(
            "%s: sub-run %d/%d finished at t=%g | %d events | %.0f ev/s",
            result.config.name,
            index + 1,
            config.shards,
            sim.now,
            sim.events_processed,
            sim.events_processed / max(busy, 1e-9),
        )
    agg = result.ctx.overlay.aggregates
    manager = result.checkpoint_manager
    return {
        "series": result.series.snapshot(),
        "sample_log": result.sample_log.snapshot(),
        "joins": result.driver.joins,
        "deaths": result.driver.deaths,
        "events": sim.events_processed,
        "n_super": agg.super_layer.count,
        "n_leaf": agg.leaf_layer.count,
        "policy": result.policy.name,
        "checkpoint_writes": 0 if manager is None else manager.writes,
        "busy_wall": busy,
    }


def _execute(
    config: ExperimentConfig,
    policy_factory,
    scenario: Optional[Scenario],
    payloads: Sequence[Optional[dict]],
    workers: Optional[int],
) -> ShardedRunResult:
    nshards = config.shards
    n_workers = min(resolve_workers(workers), nshards)
    specs = [
        (config, k, policy_factory, scenario, payloads[k])
        for k in range(nshards)
    ]
    started = time.perf_counter()
    results = parallel_map(_run_shard, specs, n_workers=n_workers)
    wall = time.perf_counter() - started

    shard_series = []
    for p in results:
        bundle = SeriesBundle()
        bundle.restore(p["series"])
        shard_series.append(bundle)
    stats = ShardPlaneStats(
        shards=nshards,
        workers=n_workers,
        events_processed=sum(p["events"] for p in results),
        busy_wall=tuple(p["busy_wall"] for p in results),
        idle_fraction=tuple(
            max(0.0, 1.0 - p["busy_wall"] / wall) if wall > 0 else 0.0
            for p in results
        ),
        wall_time=wall,
    )
    if config.telemetry is not None and config.telemetry.jsonl_path:
        # The run-level stream: per-shard exports merged by the
        # (t, shard, seq) total order, so every read-back CLI sees a
        # sharded run exactly like a classic one.
        from ..health.aggregate import write_merged_run

        write_merged_run(
            config.telemetry.jsonl_path,
            [
                _suffix_path(config.telemetry.jsonl_path, k)
                for k in range(nshards)
            ],
            header_overrides={
                "name": config.name,
                "n": config.n,
                "seed": config.seed,
                "shards": nshards,
            },
        )
    return ShardedRunResult(
        config=config,
        series=reduce_sample_logs([p["sample_log"] for p in results]),
        shard_series=shard_series,
        stats=stats,
        joins=sum(p["joins"] for p in results),
        deaths=sum(p["deaths"] for p in results),
        n_super=sum(p["n_super"] for p in results),
        n_leaf=sum(p["n_leaf"] for p in results),
        policy_name=results[0]["policy"],
        # Every sub-run writes its file at the same checkpoint times.
        checkpoint_writes=max(p["checkpoint_writes"] for p in results),
    )


def run_sharded_experiment(
    config: ExperimentConfig,
    *,
    policy_factory=None,
    scenario: Optional[Scenario] = None,
    workers: Optional[int] = None,
) -> ShardedRunResult:
    """Execute a ``shards > 1`` config to its horizon.

    ``workers`` is execution-only (default: ``REPRO_WORKERS`` / CPU
    count, capped at the shard count); any value yields bit-identical
    results.  Reached through :func:`~repro.experiments.runner
    .run_experiment`'s dispatch, or directly.
    """
    if config.shards < 2:
        raise ValueError(
            "run_sharded_experiment needs shards >= 2; a single-shard "
            "run is the classic engine (run_experiment)"
        )
    from .runner import default_policy_factory

    return _execute(
        config,
        policy_factory or default_policy_factory,
        scenario,
        [None] * config.shards,
        workers,
    )


def resume_sharded_run(
    payloads: Sequence[dict],
    config: ExperimentConfig,
    *,
    policy_factory=None,
    workers: Optional[int] = None,
) -> ShardedRunResult:
    """Continue every sub-run of a checkpoint set to ``config.horizon``.

    ``payloads`` holds one validated checkpoint per sub-run, in index
    order (:func:`~repro.experiments.checkpoint.load_checkpoint_set`).
    The worker count is free to differ from the writing run's: sub-runs
    are independent by construction.  Called by
    :func:`~repro.experiments.checkpoint.resume_run`.
    """
    from .runner import default_policy_factory

    return _execute(
        config,
        policy_factory or default_policy_factory,
        payloads[0].get("scenario"),
        list(payloads),
        workers,
    )
