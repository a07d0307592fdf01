#!/usr/bin/env python
"""Benchmark regression recorder: ``python benchmarks/record.py``.

Executes the hot-path micro-benchmarks (scheduler event throughput,
flood-query throughput), times representative figure harnesses, and
measures the parallel sweep engine against its serial path, then writes
everything to ``BENCH_<date>.json`` in the repository root.  Commit the
JSON alongside performance-relevant changes so regressions show up as
diffs, not vibes.

Modes
-----
``--quick``
    CI-scale run (~tens of seconds): smaller networks, fewer events.
    Numbers are only comparable to other ``--quick`` records.
``--out PATH``
    Write the JSON somewhere else (default ``BENCH_<today>.json``).
``--compare PREV.json``
    After recording, diff the throughput metrics against a previous
    record and exit nonzero if any regressed more than ``--threshold``
    (default 15%).  This is the CI regression gate: compare against the
    latest committed ``BENCH_*.json``.  Records taken with a different
    ``--quick`` setting are not comparable; the gate warns and passes.
``--trend``
    Print the per-section wall-time and peak-RSS trajectory across
    *every* committed ``BENCH_*.json`` (ordered like the baseline
    selection: embedded date, git commit-time tie-break) instead of
    recording anything.  ``--format md`` emits Markdown tables for
    pasting into a PR or report.

The parallel section verifies serial/parallel metric equality (the
engine's bit-identical contract) and records the speedup.  On a host
where :func:`~repro.experiments.parallel.resolve_workers` resolves to 1
the comparison is skipped and annotated instead: a 1-worker "parallel"
run is the serial path plus process-pool overhead, so timing it records
a spurious ~0.9x regression that says nothing about the engine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import replicate  # noqa: E402
from repro.experiments.configs import (  # noqa: E402
    SearchConfig,
    bench_config,
    largescale_config,
)
from repro.experiments.dynamic_run import run_dynamic_scenario  # noqa: E402
from repro.experiments.figure6 import run_figure6  # noqa: E402
from repro.experiments.figure_families import run_figure_families  # noqa: E402
from repro.experiments.parallel import resolve_workers  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.experiments.sharded import run_sharded_experiment  # noqa: E402
from repro.experiments.sweeps import sweep_dlm_parameters  # noqa: E402
from repro.experiments.table3 import run_table3  # noqa: E402
from repro.search.flooding import FloodRouter  # noqa: E402
from repro.sim.scheduler import Simulator  # noqa: E402
from repro.telemetry import TelemetryConfig  # noqa: E402


def peak_rss_mb() -> int:
    """Process peak RSS in MB (``ru_maxrss`` high-water mark).

    The kernel never lowers the high-water mark, so a section's reading
    is "peak RSS up to and including this section" in run order -- the
    first section that spikes memory is the one whose reading jumps.
    """
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def bench_scheduler(n_events: int, passes: int = 3) -> dict:
    """Schedule + deliver ``n_events`` self-perpetuating events.

    Best-of-``passes``: shared containers jitter single passes by 2x,
    so the fastest pass is the least-contended estimate of the same
    peak throughput (the convention timeit and pytest-benchmark use).
    """
    elapsed = math.inf
    for _ in range(passes):
        sim = Simulator(seed=0)
        count = 0

        def handler(s, e):
            nonlocal count
            count += 1
            if count < n_events:
                s.schedule(0.01, "tick")

        sim.on("tick", handler)
        sim.schedule(0.01, "tick")
        started = time.perf_counter()
        sim.run()
        elapsed = min(elapsed, time.perf_counter() - started)
        assert count == n_events
    return {
        "events": n_events,
        "wall_s": round(elapsed, 4),
        "events_per_sec": round(n_events / elapsed),
    }


def bench_flooding(n: int, horizon: float, n_queries: int) -> dict:
    """Flood queries over a settled backbone (setup excluded)."""
    cfg = bench_config().with_(
        n=n,
        horizon=horizon,
        search=SearchConfig(query_rate=0.001, n_objects=5000),
    )
    result = run_experiment(cfg)
    router = FloodRouter(result.overlay, result.directory, ttl=7)
    rng = result.ctx.sim.rng.get("micro")
    sources = list(result.overlay.leaf_ids.sample(rng, 64))
    catalog = result.workload.catalog
    pairs = [
        (sources[i % len(sources)], catalog.query_target(rng))
        for i in range(n_queries)
    ]
    elapsed = math.inf
    for _ in range(3):  # best-of-3, same rationale as bench_scheduler
        started = time.perf_counter()
        hits = 0
        for src, obj in pairs:
            hits += router.query(src, obj).found
        elapsed = min(elapsed, time.perf_counter() - started)
    return {
        "n": n,
        "queries": n_queries,
        "hits": hits,
        "wall_s": round(elapsed, 4),
        "queries_per_sec": round(n_queries / elapsed),
    }


def bench_harnesses(quick: bool) -> dict:
    """Wall time of representative figure/table harnesses."""
    walls = {}
    cfg = bench_config()
    if quick:
        cfg = cfg.with_(n=400, horizon=150.0, warmup=30.0)

    started = time.perf_counter()
    run_figure6(cfg)
    walls["figure6"] = round(time.perf_counter() - started, 3)

    sizes = (300, 600) if quick else (1_000, 4_000)
    settle, window = (80.0, 60.0) if quick else (800.0, 400.0)
    started = time.perf_counter()
    run_table3(sizes, settle=settle, window=window)
    walls["table3"] = round(time.perf_counter() - started, 3)
    return walls


def bench_families(quick: bool) -> dict:
    """The cross-family grid: every policy × every overlay family.

    End-to-end wall of :func:`run_figure_families` (which re-checks the
    overlay, family, and aggregate invariants per cell), the cell
    throughput the gate watches, and the headline cross-family shape
    metric -- Chord's per-query message cost relative to flooding's
    under DLM.
    """
    cfg = bench_config().with_(
        search=SearchConfig(n_objects=2_000, query_rate=2.0)
    )
    if quick:
        cfg = cfg.with_(n=300, horizon=100.0, warmup=20.0)
    else:
        cfg = cfg.with_(n=1_000, horizon=300.0, warmup=60.0)

    started = time.perf_counter()
    result = run_figure_families(cfg)
    elapsed = time.perf_counter() - started
    shape = result.check_shape()
    return {
        "n": cfg.n,
        "horizon": cfg.horizon,
        "cells": len(result.cells),
        "wall_s": round(elapsed, 3),
        "cells_per_sec": round(len(result.cells) / elapsed, 3),
        "chord_vs_flood_message_ratio": round(
            shape["dlm_chord_vs_flood_message_ratio"], 4
        ),
        "dlm_ratio_error_family_gap": round(
            shape["dlm_ratio_error_family_gap"], 4
        ),
    }


def bench_million(quick: bool) -> dict:
    """Memory-headroom probe: the columnar core at n = 10^6.

    A short-horizon churned run whose headline metric is the footprint,
    not throughput: the struct-of-arrays ``PeerStore`` plus the
    calendar-queue engine (pending deaths as store columns, never a
    million Event objects on a heap) must carry a million live peers in
    under a gigabyte, where the per-object design extrapolated to ~3GB.
    ``store_mb`` isolates the columnar core's own share of that peak.
    Quick mode drops to 10^5 so the section stays CI-sized.
    """
    cfg = largescale_config().with_(
        name="million", n=1_000_000, horizon=90.0, warmup=45.0
    )
    if quick:
        cfg = cfg.with_(n=100_000, horizon=60.0, warmup=30.0)

    started = time.perf_counter()
    run = run_dynamic_scenario(cfg).result
    elapsed = time.perf_counter() - started
    run.overlay.check_invariants(aggregates=True)

    events = run.ctx.sim.events_processed
    return {
        "n": cfg.n,
        "horizon": cfg.horizon,
        "engine": run.ctx.sim.engine,
        "wall_s": round(elapsed, 3),
        "events": events,
        "events_per_sec": round(events / elapsed),
        "joins": run.driver.joins,
        "deaths": run.driver.deaths,
        "final_ratio": round(run.overlay.layer_size_ratio(), 2),
        "store_mb": round(run.overlay.store.nbytes / (1 << 20)),
        "peak_rss_mb": peak_rss_mb(),
    }


def bench_largescale(quick: bool) -> dict:
    """The churned large-N dynamic run (100k peers; 10k in quick mode).

    End-to-end wall time, simulator throughput, churn volume, and peak
    RSS for the ``largescale_config`` workload -- the scale the O(1)
    aggregate sampling plane exists for.  The aggregate counters are
    verified against a brute-force scan at the end of the run.
    """
    cfg = largescale_config()
    if quick:
        cfg = cfg.with_(n=10_000, horizon=120.0, warmup=40.0)

    started = time.perf_counter()
    run = run_dynamic_scenario(cfg).result
    elapsed = time.perf_counter() - started
    run.overlay.check_invariants(aggregates=True)

    events = run.ctx.sim.events_processed
    return {
        "n": cfg.n,
        "horizon": cfg.horizon,
        "wall_s": round(elapsed, 3),
        "events": events,
        "events_per_sec": round(events / elapsed),
        "joins": run.driver.joins,
        "deaths": run.driver.deaths,
        "final_ratio": round(run.overlay.layer_size_ratio(), 2),
        "peak_rss_mb": peak_rss_mb(),
    }


def bench_parallel(quick: bool) -> dict:
    """Serial vs parallel replicate: speedup and metric equality.

    Skipped (with an annotation) when only one worker would be used:
    a 1-worker pool run is the serial path plus pool overhead, so the
    measured "speedup" would be a spurious ~0.9x regression.
    """
    workers = resolve_workers()
    if workers <= 1:
        return {
            "experiment": "figure6",
            "workers": workers,
            "skipped": True,
            "reason": "single-worker host: pool overhead would record "
            "a spurious regression, not an engine property",
        }
    cfg = bench_config()
    seeds = (1, 2, 3, 4)
    if quick:
        cfg = cfg.with_(n=300, horizon=120.0, warmup=30.0)
        seeds = (1, 2)

    started = time.perf_counter()
    serial = replicate(run_figure6, seeds=seeds, config=cfg, n_workers=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    par = replicate(run_figure6, seeds=seeds, config=cfg, n_workers=workers)
    parallel_s = time.perf_counter() - started

    identical = serial.metrics == par.metrics
    if not identical:
        raise AssertionError(
            "parallel replicate diverged from serial: "
            f"{serial.metrics} != {par.metrics}"
        )
    return {
        "experiment": "figure6",
        "seeds": list(seeds),
        "workers": workers,
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "identical_metrics": identical,
    }


def bench_shards(quick: bool) -> dict:
    """Sharded runs (K independent sub-runs) at K in {1, 2, 4}.

    K = 1 is the classic engine (sharding is a model parameter, so each
    K simulates its own -- equally valid -- trajectory; walls are
    comparable because population and horizon match).  For each K > 1
    the 1-worker run is the reference wall and the gated throughput;
    on multi-core hosts the same K re-runs across processes and must
    reproduce the global series bit for bit before its speedup is
    recorded.  On a single-core host the multi-worker measurement is
    annotated and skipped, like :func:`bench_parallel`: K processes
    timesharing one core measure scheduling overhead, not the engine.
    """
    cfg = bench_config()
    if quick:
        cfg = cfg.with_(n=400, horizon=150.0, warmup=30.0)
    host_workers = resolve_workers()

    started = time.perf_counter()
    classic = run_experiment(cfg)
    classic_s = time.perf_counter() - started
    record = {
        "n": cfg.n,
        "horizon": cfg.horizon,
        "host_workers": host_workers,
        "by_shards": {
            "1": {
                "engine": "classic",
                "wall_s": round(classic_s, 3),
                "events": classic.ctx.sim.events_processed,
            }
        },
    }

    for k in (2, 4):
        kcfg = cfg.with_(shards=k)
        started = time.perf_counter()
        serial = run_sharded_experiment(kcfg, workers=1)
        serial_s = time.perf_counter() - started
        entry = {
            "engine": "sharded",
            "wall_s": round(serial_s, 3),
            "events": serial.stats.events_processed,
        }
        if host_workers > 1:
            started = time.perf_counter()
            par = run_sharded_experiment(kcfg, workers=min(host_workers, k))
            parallel_s = time.perf_counter() - started
            identical = all(
                serial.series[name].values.tolist()
                == par.series[name].values.tolist()
                for name in serial.series.names()
            )
            if not identical:
                raise AssertionError(
                    f"{k}-shard run diverged between 1 and "
                    f"{par.stats.workers} workers"
                )
            entry.update(
                workers=par.stats.workers,
                parallel_wall_s=round(parallel_s, 3),
                speedup=round(serial_s / parallel_s, 2),
                identical_series=identical,
            )
        else:
            entry["multiworker"] = {
                "skipped": True,
                "reason": "single-core host: K processes timesharing one "
                "core measure scheduling overhead, not engine speedup",
            }
        record["by_shards"][str(k)] = entry

    two = record["by_shards"]["2"]
    record["events_per_sec"] = int(two["events"] / two["wall_s"])
    return record


def bench_warmstart(quick: bool) -> dict:
    """Warm-start sweep forking vs the cold sweep: speedup and parity.

    Runs the same DLM grid twice -- every point a full cold run, then
    every point forked from one shared warm-up prefix -- and records the
    wall-clock ratio.  The warm sweep is also executed through the
    process pool (when more than one worker resolves) and its points
    must match the serial warm sweep exactly: forks are pure functions
    of their spec, so parity is an engine invariant, not a tolerance.
    """
    cfg = bench_config()
    if quick:
        cfg = cfg.with_(n=400, horizon=150.0, warmup=30.0)
    grid = {"alpha": [1.0, 2.0], "beta": [1.0, 2.0]}
    fork_at = cfg.horizon / 2

    started = time.perf_counter()
    sweep_dlm_parameters(grid, config=cfg, n_workers=1)
    cold_s = time.perf_counter() - started

    started = time.perf_counter()
    warm_serial = sweep_dlm_parameters(
        grid, config=cfg, n_workers=1, warm_start_at=fork_at
    )
    warm_s = time.perf_counter() - started

    workers = resolve_workers()
    identical = True
    if workers > 1:
        warm_par = sweep_dlm_parameters(
            grid, config=cfg, n_workers=workers, warm_start_at=fork_at
        )
        identical = warm_par.points == warm_serial.points
        if not identical:
            raise AssertionError(
                "parallel warm-start sweep diverged from serial"
            )
    return {
        "points": len(warm_serial.points),
        "fork_at": fork_at,
        "horizon": cfg.horizon,
        "cold_wall_s": round(cold_s, 3),
        "warm_wall_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 2),
        "serial_parallel_identical": identical,
        "workers": workers,
    }


def bench_telemetry(quick: bool) -> dict:
    """Telemetry enabled vs disabled on the figure6 workload.

    Two best-of-2 end-to-end runs of the same config: one with the
    plane disabled (the NULL_TELEMETRY default every figure harness
    uses) and one with a full audit log plus spans.  Records both walls
    and the enabled-mode overhead so the "zero-overhead when disabled"
    claim stays checkable -- the disabled wall is also what the
    scheduler/flooding gates see, since those sections never enable
    telemetry.
    """
    cfg = bench_config()
    if quick:
        cfg = cfg.with_(n=400, horizon=150.0, warmup=30.0)

    def best_wall(c):
        best, result = math.inf, None
        for _ in range(2):
            started = time.perf_counter()
            result = run_experiment(c)
            best = min(best, time.perf_counter() - started)
        return best, result

    disabled_s, _ = best_wall(cfg)
    enabled_s, run = best_wall(cfg.with_(telemetry=TelemetryConfig()))
    telemetry = run.telemetry
    return {
        "n": cfg.n,
        "horizon": cfg.horizon,
        "disabled_wall_s": round(disabled_s, 3),
        "enabled_wall_s": round(enabled_s, 3),
        "enabled_overhead_pct": round(100.0 * (enabled_s - disabled_s) / disabled_s, 1),
        "audit_records": telemetry.log.total_emitted,
        "audit_retained": len(telemetry.log),
        "verdicts": dict(sorted(telemetry.audit.verdict_counts.items())),
    }


#: Every recordable section, in run order (``--sections`` subsets this).
SECTIONS = (
    "scheduler",
    "flooding",
    "harness",
    "families",
    "largescale",
    "million",
    "parallel",
    "shards",
    "warmstart",
    "telemetry",
)

#: Throughput metrics gated by ``--compare`` (higher is better).
THROUGHPUT_METRICS = (
    ("scheduler", "events_per_sec"),
    ("flooding", "queries_per_sec"),
    ("families", "cells_per_sec"),
    ("largescale", "events_per_sec"),
    ("million", "events_per_sec"),
    ("shards", "events_per_sec"),
    ("warmstart", "speedup"),
)

#: Memory metrics gated by ``--compare`` (lower is better).  Every
#: section records the process high-water mark at its completion; only
#: the large-scale run is *gated*, because it is the one section whose
#: footprint is dominated by simulation state rather than by whatever
#: earlier sections already pinned (ru_maxrss never goes down).
MEMORY_METRICS = (
    ("families", "peak_rss_mb"),
    ("largescale", "peak_rss_mb"),
    ("million", "peak_rss_mb"),
)


def compare_records(
    prev: dict, new: dict, threshold: float, mem_threshold: float = 0.20
) -> tuple[list, list]:
    """Diff throughput and memory metrics; return (failures, warnings).

    A failure is a drop of more than ``threshold`` (fraction) in any
    :data:`THROUGHPUT_METRICS` entry, or a *growth* of more than
    ``mem_threshold`` in any :data:`MEMORY_METRICS` entry.  Incomparable
    records (different ``quick`` mode, or a metric missing on either
    side) produce warnings, never failures -- the gate must not block on
    a record taken at a different scale.
    """
    failures: list[str] = []
    warnings: list[str] = []
    if prev.get("quick") != new.get("quick"):
        warnings.append(
            f"records not comparable: prev quick={prev.get('quick')} vs "
            f"new quick={new.get('quick')}; skipping throughput gate"
        )
        return failures, warnings
    for section, metric in THROUGHPUT_METRICS:
        label = f"{section}.{metric}"
        before = prev.get(section, {}).get(metric)
        after = new.get(section, {}).get(metric)
        if before is None and after is None:
            continue  # neither record ran the section: nothing to gate
        if not before or after is None:
            warnings.append(f"{label}: missing in one record, skipped")
            continue
        change = (after - before) / before
        line = f"{label}: {before:,} -> {after:,} ({change:+.1%})"
        if change < -threshold:
            failures.append(f"{line} exceeds -{threshold:.0%} gate")
        elif change < 0:
            warnings.append(line)
    for section, metric in MEMORY_METRICS:
        label = f"{section}.{metric}"
        before = prev.get(section, {}).get(metric)
        after = new.get(section, {}).get(metric)
        if before is None and after is None:
            continue  # neither record samples memory: nothing to gate
        if not before or after is None:
            warnings.append(f"{label}: missing in one record, skipped")
            continue
        change = (after - before) / before
        line = f"{label}: {before:,} -> {after:,} MB ({change:+.1%})"
        if change > mem_threshold:
            failures.append(f"{line} exceeds +{mem_threshold:.0%} memory gate")
        elif change > 0:
            warnings.append(line)
    return failures, warnings


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or None
    except Exception:
        return None


def _git_commit_time(path: Path) -> int:
    """Unix time of the last commit touching ``path``; 0 if unknown."""
    try:
        out = subprocess.run(
            ["git", "log", "-1", "--format=%ct", "--", str(path)],
            cwd=path.parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return int(out.stdout.strip() or 0)
    except Exception:
        return 0


def latest_baseline(root: Path = ROOT) -> str | None:
    """The committed ``BENCH_*.json`` to gate against, or None.

    Selected by each record's embedded ``date`` field -- not the
    filename, which sorts lexicographically and says nothing when a
    record was renamed or backfilled -- with the file's git commit time
    breaking date ties (two records landing the same day gate against
    the one committed last).  Unreadable or date-less files are skipped.
    """
    best_key: tuple[str, int] | None = None
    best_path: Path | None = None
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            embedded = json.loads(path.read_text()).get("date")
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(embedded, str) or not embedded:
            continue
        key = (embedded, _git_commit_time(path))
        if best_key is None or key > best_key:
            best_key = key
            best_path = path
    return str(best_path) if best_path is not None else None


#: ``--trend`` section labels -> the record key their data lives under.
TREND_SECTIONS = (
    ("scheduler", "scheduler"),
    ("flooding", "flooding"),
    ("harness", "harness_wall_s"),
    ("families", "families"),
    ("largescale", "largescale"),
    ("million", "million"),
    ("parallel", "parallel_replicate"),
    ("shards", "shards"),
    ("warmstart", "warmstart"),
    ("telemetry", "telemetry"),
)


def _section_wall(label: str, data: dict):
    """One representative wall-time figure for a section's record entry."""
    if label == "harness":
        # harness_wall_s maps harness name -> wall (plus the stamped RSS).
        walls = [
            v
            for k, v in data.items()
            if k != "peak_rss_mb" and isinstance(v, (int, float))
        ]
        return round(sum(walls), 3) if walls else None
    for key in ("wall_s", "serial_wall_s", "disabled_wall_s", "warm_wall_s"):
        if isinstance(data.get(key), (int, float)):
            return data[key]
    two = data.get("by_shards", {}).get("2")
    if isinstance(two, dict) and isinstance(two.get("wall_s"), (int, float)):
        return two["wall_s"]  # shards: the gated 2-shard serial wall
    return None


def collect_trend(root: Path = ROOT) -> list:
    """Every readable ``BENCH_*.json``, oldest first, reduced for --trend.

    Ordered by the same key as :func:`latest_baseline` (embedded date,
    git commit-time tie-break); files without a date are skipped.
    """
    entries = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            rec = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        embedded = rec.get("date")
        if not isinstance(embedded, str) or not embedded:
            continue
        entries.append(((embedded, _git_commit_time(path)), path, rec))
    entries.sort(key=lambda e: e[0])
    rows = []
    for (embedded, _), path, rec in entries:
        sections = {}
        for label, key in TREND_SECTIONS:
            data = rec.get(key)
            if not isinstance(data, dict):
                continue
            wall = _section_wall(label, data)
            rss = data.get("peak_rss_mb")
            if wall is None and rss is None:
                continue
            sections[label] = {"wall_s": wall, "peak_rss_mb": rss}
        rows.append(
            {
                "file": path.name,
                "date": embedded,
                "commit": rec.get("commit"),
                "quick": bool(rec.get("quick")),
                "sections": sections,
            }
        )
    return rows


def _trend_table(rows: list, metric: str, title: str, fmt: str) -> list:
    labels = [
        label
        for label, _ in TREND_SECTIONS
        if any(
            row["sections"].get(label, {}).get(metric) is not None
            for row in rows
        )
    ]
    if not labels:
        return []
    header = ["record"] + labels
    body = []
    for row in rows:
        name = f"{row['date']} {row['commit'] or '?'}"
        if row["quick"]:
            name += " (quick)"
        cells = [name]
        for label in labels:
            value = row["sections"].get(label, {}).get(metric)
            cells.append("-" if value is None else f"{value:g}")
        body.append(cells)
    if fmt == "md":
        lines = [f"### {title}", ""]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join("---" for _ in header) + "|")
        lines.extend("| " + " | ".join(cells) + " |" for cells in body)
    else:
        widths = [
            max(len(line[i]) for line in [header] + body)
            for i in range(len(header))
        ]
        lines = [f"{title}:"]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.extend(
            "  ".join(c.ljust(w) for c, w in zip(cells, widths))
            for cells in body
        )
    lines.append("")
    return lines


def render_trend(rows: list, fmt: str = "text") -> str:
    """The --trend report: wall-time and peak-RSS trajectory tables.

    Quick-mode records are flagged inline -- their numbers sit in the
    same columns but are only comparable to other quick records.
    """
    lines = []
    lines += _trend_table(rows, "wall_s", "wall time (s) by section", fmt)
    lines += _trend_table(rows, "peak_rss_mb", "peak RSS (MB) by section", fmt)
    if not lines:
        return "no trend data in the discovered records"
    return "\n".join(lines).rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI-scale run (seconds, not minutes)"
    )
    parser.add_argument(
        "--out", default=None, help="output path (default BENCH_<today>.json)"
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="PREV.json",
        help="gate against a previous record; exit 1 on regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="max tolerated throughput drop as a fraction (default 0.15)",
    )
    parser.add_argument(
        "--mem-threshold",
        type=float,
        default=0.20,
        help="max tolerated peak-RSS growth as a fraction (default 0.20)",
    )
    parser.add_argument(
        "--trend",
        action="store_true",
        help="print the per-section wall-time / peak-RSS trajectory "
        "across all committed BENCH_*.json records and exit (runs "
        "nothing)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "md"),
        default="text",
        help="--trend output format (default: aligned text; 'md' emits "
        "Markdown tables)",
    )
    parser.add_argument(
        "--latest-baseline",
        action="store_true",
        help="print the path of the latest committed BENCH_*.json "
        "(by embedded date, git commit-time tie-break) and exit; "
        "prints nothing when no record exists",
    )
    parser.add_argument(
        "--sections",
        default=None,
        metavar="A,B,...",
        help="comma-separated subset of sections to run (default: all); "
        f"choices: {','.join(SECTIONS)}.  Metrics for skipped sections "
        "are absent from the record, so --compare warns instead of "
        "gating on them",
    )
    args = parser.parse_args(argv)

    if args.latest_baseline:
        base = latest_baseline()
        if base:
            print(base)
        return 0

    if args.trend:
        rows = collect_trend()
        if not rows:
            print("no BENCH_*.json records found", file=sys.stderr)
            return 1
        print(render_trend(rows, args.format))
        return 0

    if args.sections is None:
        selected = set(SECTIONS)
    else:
        selected = {s.strip() for s in args.sections.split(",") if s.strip()}
        unknown = selected - set(SECTIONS)
        # A typo'd (or empty) selection must fail loudly, not record an
        # empty JSON that --compare then waves through with warnings.
        if unknown:
            print(
                f"error: unknown sections: {', '.join(sorted(unknown))}\n"
                f"valid sections: {', '.join(SECTIONS)}",
                file=sys.stderr,
            )
            return 1
        if not selected:
            print(
                "error: --sections selected nothing\n"
                f"valid sections: {', '.join(SECTIONS)}",
                file=sys.stderr,
            )
            return 1

    record = {
        "date": date.today().isoformat(),
        "commit": git_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "quick": args.quick,
    }

    def stamp_rss(key: str) -> None:
        # Process high-water mark at section completion (run-order
        # cumulative; see ``peak_rss_mb``).  The largescale section
        # records its own reading inside the bench function.
        record[key].setdefault("peak_rss_mb", peak_rss_mb())

    if "scheduler" in selected:
        print("scheduler micro-benchmark...", flush=True)
        record["scheduler"] = bench_scheduler(20_000 if args.quick else 100_000)
        stamp_rss("scheduler")
        print(f"  {record['scheduler']['events_per_sec']:,} events/sec")

    if "flooding" in selected:
        print("flooding micro-benchmark...", flush=True)
        record["flooding"] = bench_flooding(
            n=600 if args.quick else 2_000,
            horizon=150.0 if args.quick else 300.0,
            n_queries=500 if args.quick else 2_000,
        )
        stamp_rss("flooding")
        print(f"  {record['flooding']['queries_per_sec']:,} queries/sec")

    if "harness" in selected:
        print("harness wall times...", flush=True)
        record["harness_wall_s"] = bench_harnesses(args.quick)
        stamp_rss("harness_wall_s")
        for name, wall in record["harness_wall_s"].items():
            print(f"  {name}: {wall}s")

    if "families" in selected:
        print("cross-family grid (policies x overlay families)...", flush=True)
        record["families"] = bench_families(args.quick)
        stamp_rss("families")
        fm = record["families"]
        print(
            f"  n={fm['n']}: {fm['cells']} cells in {fm['wall_s']}s "
            f"({fm['cells_per_sec']}/s), chord/flood msg ratio "
            f"{fm['chord_vs_flood_message_ratio']}"
        )

    if "largescale" in selected:
        print("large-scale churned run...", flush=True)
        record["largescale"] = bench_largescale(args.quick)
        ls = record["largescale"]
        print(
            f"  n={ls['n']:,}: {ls['wall_s']}s, {ls['events']:,} events "
            f"({ls['events_per_sec']:,}/s), {ls['peak_rss_mb']} MB peak rss"
        )

    if "million" in selected:
        print("million-peer memory probe...", flush=True)
        record["million"] = bench_million(args.quick)
        mm = record["million"]
        print(
            f"  n={mm['n']:,}: {mm['wall_s']}s, {mm['events']:,} events "
            f"({mm['events_per_sec']:,}/s), {mm['store_mb']} MB store, "
            f"{mm['peak_rss_mb']} MB peak rss"
        )

    if "parallel" in selected:
        print("parallel replicate (serial vs all-cores)...", flush=True)
        record["parallel_replicate"] = bench_parallel(args.quick)
        stamp_rss("parallel_replicate")
        pr = record["parallel_replicate"]
        if pr.get("skipped"):
            print(f"  skipped: {pr['reason']}")
        else:
            print(
                f"  {pr['workers']} worker(s): {pr['serial_wall_s']}s serial, "
                f"{pr['parallel_wall_s']}s parallel ({pr['speedup']}x), "
                f"identical={pr['identical_metrics']}"
            )

    if "shards" in selected:
        print("sharded runs (K = 1/2/4)...", flush=True)
        record["shards"] = bench_shards(args.quick)
        stamp_rss("shards")
        for k, entry in record["shards"]["by_shards"].items():
            line = f"  K={k} ({entry['engine']}): {entry['wall_s']}s serial"
            if "speedup" in entry:
                line += (
                    f", {entry['parallel_wall_s']}s on "
                    f"{entry['workers']} workers ({entry['speedup']}x)"
                )
            elif entry.get("multiworker", {}).get("skipped"):
                line += ", multi-worker skipped (single core)"
            print(line)
        print(f"  2-shard serial: {record['shards']['events_per_sec']:,} events/sec")

    if "warmstart" in selected:
        print("warm-start sweep forking (cold vs warm)...", flush=True)
        record["warmstart"] = bench_warmstart(args.quick)
        stamp_rss("warmstart")
        ws = record["warmstart"]
        print(
            f"  {ws['points']} points: {ws['cold_wall_s']}s cold, "
            f"{ws['warm_wall_s']}s warm ({ws['speedup']}x), "
            f"parity={ws['serial_parallel_identical']}"
        )

    if "telemetry" in selected:
        print("telemetry overhead (disabled vs enabled)...", flush=True)
        record["telemetry"] = bench_telemetry(args.quick)
        stamp_rss("telemetry")
        tl = record["telemetry"]
        print(
            f"  figure6 n={tl['n']}: {tl['disabled_wall_s']}s disabled, "
            f"{tl['enabled_wall_s']}s enabled "
            f"({tl['enabled_overhead_pct']:+.1f}%), "
            f"{tl['audit_records']:,} audit records"
        )

    out = Path(args.out) if args.out else ROOT / f"BENCH_{record['date']}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {out}")

    if args.compare:
        prev = json.loads(Path(args.compare).read_text())
        failures, warnings = compare_records(
            prev, record, args.threshold, args.mem_threshold
        )
        print(f"\ncomparing against {args.compare}:")
        for line in warnings:
            print(f"  warn: {line}")
        for line in failures:
            print(f"  FAIL: {line}")
        if failures:
            return 1
        print("  throughput gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
