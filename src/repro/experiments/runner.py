"""The experiment runner: composition root for one simulated run.

Wires a full system -- engine, overlay, churn, layer policy, samplers,
optional search plane -- from an :class:`ExperimentConfig`, runs it to
the horizon, and returns a :class:`RunResult` with every recorded
artifact.  All figure/table harnesses and examples run through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..churn.distributions import (
    BandwidthMixture,
    LogNormalDistribution,
    ScalableDistribution,
)
from ..churn.lifecycle import ChurnDriver
from ..churn.scenarios import Scenario
from ..context import SystemContext, build_context
from ..core.dlm import DLMPolicy
from ..core.policy import LayerPolicy
from ..health.plane import HealthMonitor
from ..metrics.layerstats import LayerStatsSampler
from ..metrics.shardstats import ShardSampleLog
from ..metrics.timeseries import SeriesBundle
from ..search.content import ContentCatalog
from ..search.index import ContentDirectory
from ..search.workload import QueryWorkload
from ..sim.processes import PeriodicProcess
from ..telemetry import (
    ProgressReporter,
    TelemetryConfig,
    attach_transport_trace,
    bind_standard_producers,
    export_run,
    telemetry_from_config,
)
from .checkpoint import CheckpointManager, restore_run_state
from .configs import ExperimentConfig

__all__ = ["RunResult", "run_experiment", "default_policy_factory"]

PolicyFactory = Callable[[ExperimentConfig], LayerPolicy]


@dataclass
class RunResult:
    """Everything one run produced."""

    config: ExperimentConfig
    ctx: SystemContext
    policy: LayerPolicy
    driver: ChurnDriver
    series: SeriesBundle
    sampler: LayerStatsSampler = None  # set by run_experiment
    maintenance_process: PeriodicProcess = None  # set by run_experiment
    workload: Optional[QueryWorkload] = None
    directory: Optional[ContentDirectory] = None
    checkpoint_manager: Optional[CheckpointManager] = None
    checkpoint_process: Optional[PeriodicProcess] = None
    health_monitor: Optional["HealthMonitor"] = None
    #: Raw aggregate rows per sample tick; set on a sharded sub-run
    #: (``run_experiment(config, shard=k)``) for the exact reduction.
    sample_log: Optional[ShardSampleLog] = None

    @property
    def overlay(self):
        """The final overlay state."""
        return self.ctx.overlay

    @property
    def query_stats(self):
        """Cumulative query snapshot (None without a search plane)."""
        return self.workload.stats.snapshot if self.workload else None

    @property
    def telemetry(self):
        """The run's telemetry plane (NULL_TELEMETRY when disabled)."""
        return self.ctx.telemetry


def default_policy_factory(config: ExperimentConfig) -> LayerPolicy:
    """DLM with the experiment's η/m/k_s (and any explicit overrides)."""
    return DLMPolicy(config.dlm_config())


def build_distributions(
    config: ExperimentConfig,
) -> tuple[ScalableDistribution, ScalableDistribution]:
    """Fresh (lifetime, capacity) distributions for one run."""
    lifetimes = LogNormalDistribution(
        median=config.lifetime_median, sigma=config.lifetime_sigma
    )
    capacities = BandwidthMixture()
    return lifetimes, capacities


def run_experiment(
    config: ExperimentConfig,
    *,
    policy_factory: PolicyFactory = default_policy_factory,
    scenario: Optional[Scenario] = None,
    run: bool = True,
    resume_from: Optional[dict] = None,
    fresh_rng_domain: Optional[int] = None,
    shard: Optional[int] = None,
) -> "RunResult":
    """Wire and (by default) execute one run to ``config.horizon``.

    With ``run=False`` the caller receives the fully wired system before
    any event fires -- used by tests that want to single-step.

    ``resume_from`` takes a checkpoint payload (at least its ``"state"``
    entry): the system is wired exactly as for a fresh run -- which
    re-derives all listeners, handlers, and process tokens -- then the
    captured state replaces the fresh state before the run continues.
    ``fresh_rng_domain`` (warm-start forks) keeps the checkpoint's RNG
    streams *out*: the wired system draws from the given RNG domain
    instead, so forked futures are independent of the prefix's draws.

    ``config.shards > 1`` dispatches the whole run to the sharded
    engine (:mod:`repro.experiments.sharded`) and returns its
    :class:`~repro.experiments.sharded.ShardedRunResult` -- same
    ``config``/``series`` surface, no single ``ctx``.  ``shard=k``
    instead runs only sub-run ``k`` of that config: the classic run of
    :func:`~repro.experiments.sharded.shard_config` plus a
    :class:`~repro.metrics.shardstats.ShardSampleLog`
    (``result.sample_log``), checkpointing to ``<checkpoint_path>
    .shard{k}`` under the parent config.  The sharded engine runs each
    sub-run this way.
    """
    parent = None
    if shard is not None:
        from .sharded import shard_config

        parent, config = config, shard_config(config, shard)
    elif config.shards > 1:
        if not run or resume_from is not None or fresh_rng_domain is not None:
            raise ValueError(
                "sharded configs (shards > 1) support neither run=False, "
                "direct resume_from, nor warm-start forks through "
                "run_experiment; use repro.experiments.sharded entry "
                "points (resume goes through resume_run)"
            )
        from .sharded import run_sharded_experiment

        return run_sharded_experiment(
            config, policy_factory=policy_factory, scenario=scenario
        )
    telemetry_cfg = config.telemetry
    if telemetry_cfg is None and config.health is not None:
        # The health plane observes *through* telemetry: detectors need
        # the record log and registry, so enabling health without an
        # explicit TelemetryConfig wires the default one.
        telemetry_cfg = TelemetryConfig()
    telemetry = telemetry_from_config(telemetry_cfg)
    wire_span = telemetry.span("run.wire")
    wire_span.__enter__()
    ctx = build_context(
        seed=config.seed,
        m=config.m,
        k_s=config.k_s,
        faults=config.faults,
        rng_domain=fresh_rng_domain if fresh_rng_domain is not None else 0,
        telemetry=telemetry,
        family=config.family,
    )
    policy = policy_factory(config)
    policy.bind(ctx)
    attach_transport_trace(telemetry, ctx.info)

    maintenance_process = PeriodicProcess(
        ctx.sim,
        config.maintenance_interval,
        lambda sim, now: ctx.maintenance.sweep(),
        kind="maintenance_sweep",
    )

    lifetimes, capacities = build_distributions(config)
    driver = ChurnDriver(
        ctx, policy, lifetimes, capacities, replacement=True, scenario=scenario
    )
    wire_span.__exit__(None, None, None)
    if resume_from is None:
        with telemetry.span("run.populate"):
            driver.populate(config.n, warmup=config.warmup)

    sampler = LayerStatsSampler(
        ctx.sim,
        ctx.overlay,
        interval=config.sample_interval,
        start=config.sample_interval,
    )

    workload = None
    directory = None
    if config.search is not None:
        sc = config.search
        catalog = ContentCatalog(n_objects=sc.n_objects, s=sc.zipf_s)
        directory = ContentDirectory(
            ctx.overlay,
            catalog,
            ctx.sim.rng.get("content"),
            files_per_peer=sc.files_per_peer,
        )
        router = ctx.family.build_router(directory, sc, ledger=ctx.messages)
        workload = QueryWorkload(
            ctx.sim, ctx.overlay, catalog, router, rate=sc.query_rate
        )
    bind_standard_producers(
        telemetry, ctx, driver=driver, policy=policy, workload=workload
    )

    sample_log = None
    if parent is not None:
        sample_log = ShardSampleLog()
        sampler.add_sample_listener(sample_log.observe)

    health_monitor = None
    if config.health is not None:
        health_monitor = HealthMonitor(
            config.health,
            telemetry=telemetry,
            ctx=ctx,
            policy=policy,
            run_config=config,
        ).attach(sampler)

    result = RunResult(
        config=config,
        ctx=ctx,
        policy=policy,
        driver=driver,
        series=sampler.bundle,
        sampler=sampler,
        maintenance_process=maintenance_process,
        workload=workload,
        directory=directory,
        health_monitor=health_monitor,
        sample_log=sample_log,
    )

    if config.checkpoint_every is not None:
        manager = CheckpointManager(
            config.checkpoint_path,
            config if parent is None else parent,
            scenario=scenario,
            shard_index=shard,
        )
        result.checkpoint_manager = manager
        result.checkpoint_process = PeriodicProcess(
            ctx.sim,
            config.checkpoint_every,
            lambda sim, now: manager.write(result),
            start=config.checkpoint_every,
            kind="checkpoint_write",
        )

    if resume_from is not None:
        restore_run_state(
            result, resume_from["state"], restore_rng=fresh_rng_domain is None
        )

    if run:
        reporter = None
        if telemetry.enabled and telemetry.config.progress_every is not None:
            reporter = ProgressReporter(
                ctx.sim,
                horizon=config.horizon,
                every=telemetry.config.progress_every,
                label=config.name,
            ).attach()
        try:
            with telemetry.span("run.execute"):
                ctx.sim.run(until=config.horizon)
        except Exception as exc:
            # The flight recorder's crash half: dump the postmortem
            # bundle (record/audit tails, scheduler state) before the
            # exception propagates.
            if health_monitor is not None:
                health_monitor.crash_dump(exc)
            raise
        finally:
            if reporter is not None:
                reporter.detach()
        export_run(result)
    return result
