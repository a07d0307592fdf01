"""Per-layer metrics of a traced run.

Layers are the ``src/repro/`` modules.  Every metric is computed from
the traced run's spans (see :mod:`tracer`), from counters the run's
public result objects expose, or from the untraced reference run of
the same seed.  :data:`PER_LAYER` lists them with the end-to-end metric
and workload each one is predicted to move.
"""

from __future__ import annotations

from typing import Dict, Tuple

from tracer import EVENT_PREFIX, SpanColumns, SpanTotals, top_level_time, totals

#: name -> (unit, better, what it should move).
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "sim.events": ("count", "lower", "run_s on faults"),
    "sim.events_per_s": ("1/s", "higher", "run_s on faults"),
    "sim.loop_self_s": ("s", "lower", "run_s on faults"),
    "churn.joins": ("count", "lower", "run_s on churn and sharded"),
    "churn.join_s": ("s", "lower", "run_s on churn and sharded"),
    "churn.join_self_us": ("us", "lower", "run_s on churn and sharded"),
    "churn.leaves": ("count", "lower", "run_s on churn and sharded"),
    "churn.leave_s": ("s", "lower", "run_s on churn and sharded"),
    "overlay.connects": ("count", "lower", "run_s on churn"),
    "overlay.connect_s": ("s", "lower", "run_s on churn"),
    "overlay.transition_s": ("s", "lower", "run_s on churn"),
    "overlay.maintenance_s": ("s", "lower", "run_s on churn"),
    "core.drain_s": ("s", "lower", "run_s on churn (batch) and faults (scalar)"),
    "core.sweep_s": ("s", "lower", "run_s on churn (batch) and faults (scalar)"),
    "core.evaluations": ("count", "lower", "run_s on churn and faults"),
    "core.scalar_evals": ("count", "lower", "run_s on faults"),
    "core.deferrals": ("count", "lower", "run_s on faults"),
    "core.action_ratio": ("fraction", "higher", "run_s on churn and faults"),
    "protocol.exchanges": ("count", "lower", "run_s on churn"),
    "protocol.exchange_s": ("s", "lower", "run_s on churn"),
    "protocol.delivers": ("count", "lower", "run_s on faults"),
    "protocol.deliver_s": ("s", "lower", "run_s on faults"),
    "protocol.timeouts": ("count", "lower", "run_s and request_fail_ratio on faults"),
    "protocol.timeout_s": ("s", "lower", "run_s on faults"),
    "protocol.retransmissions": ("count", "lower", "request_fail_ratio on faults"),
    "protocol.satisfied_ratio": ("fraction", "higher", "request_fail_ratio on faults"),
    "search.queries": ("count", "higher", "run_s on faults only"),
    "search.query_s": ("s", "lower", "run_s on faults only"),
    "search.route_s": ("s", "lower", "run_s on faults only"),
    "search.snapshot_rebuilds": ("count", "lower", "run_s on faults only"),
    "search.rebuild_ratio": ("fraction", "lower", "run_s on faults only"),
    "metrics.samples": ("count", "lower", "nothing (about 0.01 s a run)"),
    "metrics.sample_s": ("s", "lower", "nothing (about 0.01 s a run)"),
    "health.tick_s": ("s", "lower", "run_s on faults only"),
    "health.records": ("count", "lower", "run_s on faults only"),
    "experiments.shard_busy_s": ("s", "lower", "run_s on sharded"),
    "experiments.shard_idle_fraction": ("fraction", "lower", "run_s on sharded"),
    "experiments.sync_rounds": ("count", "lower", "run_s on sharded"),
    "experiments.cross_messages": ("count", "lower", "run_s on sharded"),
    "experiments.parallel_efficiency": ("fraction", "higher", "run_s on sharded"),
    "trace.overhead_s": ("s", "lower", "nothing: traced minus untraced run_s"),
}

_NONE = SpanTotals(0, 0.0, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    cols: SpanColumns,
    traced,
    reference,
    parallel=None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced run.

    ``traced`` and ``reference`` are the traced and untraced
    :class:`workloads.Outcome` of one seed; ``parallel`` is the untraced
    multi-worker outcome of a sharded workload (its engine statistics
    feed the ``experiments`` layer).  A layer the workload bypasses
    reads 0.
    """
    span = totals(cols)

    def get(name: str) -> SpanTotals:
        return span.get(name, _NONE)

    def event(kind: str) -> SpanTotals:
        return get(EVENT_PREFIX + kind)

    result = traced.result
    events, joins, deaths = traced.fingerprint[:3]
    m: Dict[str, float] = {
        "sim.events": events,
        "sim.events_per_s": _ratio(events, reference.run_s),
        "sim.loop_self_s": traced.run_s - top_level_time(cols),
        "churn.joins": joins,
        "churn.join_s": event("peer_join").total_s,
        "churn.join_self_us": _ratio(event("peer_join").self_s * 1e6, joins),
        "churn.leaves": deaths,
        "churn.leave_s": event("peer_leave").total_s,
        "overlay.connects": get("overlay.connect").count,
        "overlay.connect_s": get("overlay.connect").total_s,
        "overlay.transition_s": get("overlay.promote").total_s
        + get("overlay.demote").total_s,
        "overlay.maintenance_s": event("maintenance_sweep").total_s,
        "core.drain_s": event("dlm_evaluate").total_s,
        "core.sweep_s": event("dlm_eval_sweep").total_s
        + event("dlm_refresh").total_s,
        "core.scalar_evals": get("core.evaluate").count,
        "protocol.exchanges": get("protocol.exchange").count,
        "protocol.exchange_s": get("protocol.exchange").total_s,
        "protocol.delivers": event("transport_deliver").count,
        "protocol.deliver_s": event("transport_deliver").total_s,
        "protocol.timeouts": event("transport_timeout").count,
        "protocol.timeout_s": event("transport_timeout").total_s,
        "search.queries": event("query_issued").count,
        "search.query_s": event("query_issued").total_s,
        "search.route_s": get("search.route").total_s,
        "search.snapshot_rebuilds": get("search.rebuild").count,
        "search.rebuild_ratio": _ratio(
            get("search.rebuild").count, event("query_issued").count
        ),
        "metrics.samples": event("metrics_sample").count,
        # Self time: the health listener runs inside the sample handler.
        "metrics.sample_s": event("metrics_sample").self_s,
        "health.tick_s": get("health.tick").total_s,
        "trace.overhead_s": traced.run_s - reference.run_s,
    }
    m.update(_policy_counters(getattr(result, "policy", None)))
    m.update(_protocol_counters(getattr(result, "ctx", None)))
    m["health.records"] = _health_records(getattr(result, "telemetry", None))
    m.update(_shard_stats(parallel))
    return {name: float(m[name]) for name in PER_LAYER}


def _policy_counters(policy) -> Dict[str, float]:
    """DLM counters (the sharded result keeps its policies per shard
    and exposes none, so they read 0 there)."""
    evaluations = getattr(policy, "evaluations", 0)
    actions = getattr(policy, "promotions", 0) + getattr(policy, "demotions", 0)
    return {
        "core.evaluations": evaluations,
        "core.deferrals": getattr(policy, "deferrals", 0),
        "core.action_ratio": _ratio(actions, evaluations),
    }


def _protocol_counters(ctx) -> Dict[str, float]:
    """Retransmissions and the share of Phase-1 requests satisfied."""
    if ctx is None or not ctx.info.message_driven:
        return {"protocol.retransmissions": 0, "protocol.satisfied_ratio": 0.0}
    from workloads import request_totals

    req = request_totals(ctx.messages)
    satisfied = req["started"] - req["failed"] - ctx.info.in_flight
    return {
        "protocol.retransmissions": req["retransmissions"],
        "protocol.satisfied_ratio": _ratio(satisfied, req["started"]),
    }


def _health_records(telemetry) -> int:
    """Health records emitted: warnings + criticals + recoveries."""
    if telemetry is None or not telemetry.enabled:
        return 0
    reg = telemetry.registry
    return sum(
        reg.counter(f"health.{kind}").value
        for kind in ("warnings", "criticals", "recoveries")
    )


def _shard_stats(parallel) -> Dict[str, float]:
    """The sharded engine's execution statistics, when it exposes them."""
    stats = getattr(getattr(parallel, "result", None), "stats", None)
    if stats is None:
        return {
            "experiments.shard_busy_s": 0.0,
            "experiments.shard_idle_fraction": 0.0,
            "experiments.sync_rounds": 0,
            "experiments.cross_messages": 0,
            "experiments.parallel_efficiency": 0.0,
        }
    busy = sum(stats.busy_wall)
    return {
        "experiments.shard_busy_s": busy,
        "experiments.shard_idle_fraction": max(stats.idle_fraction),
        "experiments.sync_rounds": stats.sync_rounds,
        "experiments.cross_messages": stats.cross_messages,
        "experiments.parallel_efficiency": _ratio(
            busy, stats.workers * parallel.run_s
        ),
    }

