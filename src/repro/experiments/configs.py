"""Experiment configurations.

:func:`table2_config` is the paper's Table 2 verbatim (n = 50 000,
η = 40, m = 2, k_l = 80, k_s = 3).  Full-scale runs take minutes in pure
Python, so every experiment also ships a laptop-scale default obtained
with :meth:`ExperimentConfig.scaled`, which shrinks the population while
keeping η, m, k_s, the horizon, and the churn distributions identical --
the reproduced quantities (ratios, age/capacity separations, PAO/NLCO
percentages) are intensive, not extensive, so the shapes survive scaling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..core.config import DLMConfig
from ..health.config import HealthConfig
from ..protocol.faults import FaultPlan
from ..telemetry.config import TelemetryConfig

__all__ = [
    "ExperimentConfig",
    "SearchConfig",
    "table2_config",
    "bench_config",
    "largescale_config",
]


@dataclass(frozen=True, slots=True)
class SearchConfig:
    """Query-plane settings used by the Figure-7/8 runs."""

    n_objects: int = 10_000
    zipf_s: float = 0.8
    files_per_peer: int = 10
    query_rate: float = 10.0
    ttl: int = 7

    def __post_init__(self) -> None:
        if self.n_objects < 1:
            raise ValueError("n_objects must be >= 1")
        if self.files_per_peer < 0:
            raise ValueError("files_per_peer must be >= 0")
        if self.query_rate <= 0:
            raise ValueError("query_rate must be positive")
        if self.ttl < 1:
            raise ValueError("ttl must be >= 1")


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything one run needs.

    ``lifetime_median``/``lifetime_sigma`` parameterize the log-normal
    session distribution; ``capacity`` uses the 4-class bandwidth mixture
    (see :mod:`repro.churn.distributions`).

    ``faults`` selects the Phase-1 information-collection mode: ``None``
    (default) is the omniscient exchange; a
    :class:`~repro.protocol.faults.FaultPlan` routes knowledge through
    the message-driven engine with its loss/latency/timeout knobs.
    """

    name: str = "table2"
    n: int = 50_000
    eta: float = 40.0
    m: int = 2
    k_s: int = 3
    horizon: float = 2_000.0
    warmup: float = 100.0
    sample_interval: float = 10.0
    maintenance_interval: float = 10.0
    seed: int = 2004
    lifetime_median: float = 60.0
    lifetime_sigma: float = 1.0
    dlm: Optional[DLMConfig] = None
    search: Optional[SearchConfig] = None
    faults: Optional[FaultPlan] = None
    #: Overlay family owning the super-layer's link structure and query
    #: routing (see :mod:`repro.overlay.family`): ``"superpeer"`` is the
    #: paper's random backbone, ``"chord"`` the hierarchical ring.
    #: Trajectory-determining, so it participates in the checkpoint
    #: config hash (and the checkpoint header records it explicitly).
    family: str = "superpeer"
    #: Write a checkpoint every this many time units (None: no writer).
    #: Excluded from the checkpoint-compat config hash: changing the
    #: writing cadence never changes the simulated trajectory.
    checkpoint_every: Optional[float] = None
    #: Where the periodic writer puts its checkpoint (required with
    #: ``checkpoint_every``); also excluded from the config hash.
    checkpoint_path: Optional[str] = None
    #: Telemetry plane settings (None: disabled, the zero-overhead
    #: default).  Telemetry observes without perturbing the trajectory,
    #: so this too is excluded from the checkpoint-compat config hash.
    telemetry: Optional[TelemetryConfig] = None
    #: Run-health plane settings -- SLO thresholds, detector windows,
    #: flight-recorder path (None: disabled).  Health observes through
    #: the telemetry plane (enabling it auto-enables telemetry with
    #: defaults) and never perturbs the trajectory, so like
    #: ``telemetry`` it is excluded from the checkpoint config hash.
    health: Optional[HealthConfig] = None
    #: Number of logical shards the population partitions into.  1 (the
    #: default) runs the classic single-process engine.  K > 1 runs K
    #: independent regional sub-overlays and reduces their samples
    #: exactly (see :mod:`repro.experiments.sharded`).  Like ``seed``,
    #: the shard count is a *model* parameter -- it determines the
    #: trajectory and participates in the checkpoint config hash.  The
    #: worker-process count, by contrast, is pure execution (CLI
    #: ``--workers`` / ``REPRO_WORKERS``) and never changes results.
    shards: int = 1

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.horizon <= self.warmup:
            raise ValueError("horizon must exceed warmup")
        if self.sample_interval <= 0 or self.maintenance_interval <= 0:
            raise ValueError("intervals must be positive")
        if self.checkpoint_every is not None:
            if self.checkpoint_every <= 0:
                raise ValueError("checkpoint_every must be positive")
            if self.checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        from ..overlay.family import family_names

        if self.family not in family_names():
            raise ValueError(
                f"unknown overlay family {self.family!r}; "
                f"known: {', '.join(family_names())}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shards > 1 and self.n // self.shards < 2:
            raise ValueError(
                f"shards={self.shards} leaves fewer than 2 peers per "
                f"shard at n={self.n}; use fewer shards or more peers"
            )

    @property
    def k_l(self) -> float:
        """Equation a: the optimal leaf-neighbor count."""
        return self.m * self.eta

    @property
    def expected_supers(self) -> float:
        """Equation b at the configured size."""
        return self.n / (1.0 + self.eta)

    def dlm_config(self) -> DLMConfig:
        """The DLM parameters for this run (defaults unless overridden)."""
        if self.dlm is not None:
            return self.dlm
        return DLMConfig(eta=self.eta, m=self.m, k_s=self.k_s)

    def scaled(self, n: int, *, horizon: Optional[float] = None) -> "ExperimentConfig":
        """A copy at a different population (and optionally horizon)."""
        changes: dict = {"n": n}
        if horizon is not None:
            changes["horizon"] = horizon
        return dataclasses.replace(self, **changes)

    def with_(self, **changes) -> "ExperimentConfig":
        """A copy with arbitrary field overrides."""
        return dataclasses.replace(self, **changes)


def table2_config() -> ExperimentConfig:
    """The paper's Table 2: n = 50 000, η = 40 (k_l = 80), m = 2, k_s = 3."""
    return ExperimentConfig()


def bench_config() -> ExperimentConfig:
    """Laptop-scale default used by the benchmark harness.

    Same η/m/k_s/horizon/distributions as Table 2 at 1/25th of the
    population (n = 2 000), which runs one full dynamic scenario in
    roughly ten seconds.
    """
    return table2_config().scaled(2_000)


def largescale_config() -> ExperimentConfig:
    """The 100k-peer churned workload (the ``--scale`` preset).

    Twice the paper's Table-2 population -- the ≥10⁵ evaluation scale of
    the churn literature (*Fluctuation in Peer-to-Peer Networks*, arXiv
    cs/0406027) -- with η/m/k_s and the churn distributions unchanged.
    The horizon is shortened to 240 units: with the 60-unit log-normal
    lifetime median most of the population still turns over at least
    once after warm-up, so the run exercises sustained replacement churn,
    role transitions, and O(1) sampling at a memory footprint the
    per-peer-object design has to carry (~10⁵ live peers, ~10⁶ churn
    events end to end).
    """
    return table2_config().with_(
        name="largescale", n=100_000, horizon=240.0, warmup=60.0
    )
