"""Command-line entry point: ``repro-experiment <id> [options]``.

Runs any registered paper artifact at bench scale (default), full paper
scale (``--full``), or a custom size, and prints the rendered figure or
table plus the shape metrics recorded in EXPERIMENTS.md.

``repro trace <run.jsonl>`` and ``repro stats <run.jsonl>`` inspect a
run's exported telemetry (see :mod:`repro.telemetry.cli`); the
``--telemetry`` / ``--audit-jsonl`` / ``--chrome-trace`` / ``--progress``
flags produce those artifacts in the first place.  ``repro health
<run.jsonl>`` renders the SLO report of a run executed with
``--health`` (its exit code gates CI), and ``repro postmortem
<bundle.json>`` renders a flight-recorder bundle (see
:mod:`repro.health.cli`).

Status and diagnostics go through :mod:`logging` (one root config on
stderr, ``-v``/``--quiet`` to adjust); rendered figures and tables stay
on stdout where they can be piped.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from typing import Optional, Sequence

from ..telemetry.config import AUDIT_LEVELS, TelemetryConfig
from .configs import bench_config, largescale_config, table2_config
from .parallel import WORKERS_ENV
from .registry import all_ids, get_experiment
from .table3 import PAPER_SIZES, run_table3

__all__ = ["main", "build_parser", "configure_logging"]

logger = logging.getLogger("repro.cli")

#: Subcommands dispatched to the telemetry CLI before argparse runs.
_TELEMETRY_COMMANDS = ("trace", "stats", "health", "postmortem")


def configure_logging(verbosity: int = 0) -> None:
    """One root logging config for the CLI: message-only lines on stderr.

    ``verbosity`` < 0 shows warnings and errors only, 0 adds progress
    and status lines (INFO), > 0 adds debug detail.
    """
    if verbosity < 0:
        level = logging.WARNING
    elif verbosity == 0:
        level = logging.INFO
    else:
        level = logging.DEBUG
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(message)s", force=True
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-experiment`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Reproduce a table/figure from 'Dynamic Layer Management in "
            "Super-peer Architectures' (ICPP 2004)."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(all_ids()) + ["list", "report"],
        help="experiment id, 'list' to enumerate, or 'report' to "
        "regenerate EXPERIMENTS.md content on stdout (omit with --resume)",
    )
    scale_group = parser.add_mutually_exclusive_group()
    scale_group.add_argument(
        "--full",
        action="store_true",
        help="run at the paper's Table-2 scale (n=50000; minutes, not seconds)",
    )
    scale_group.add_argument(
        "--scale",
        action="store_true",
        help="run the large-scale preset (n=100000, shortened churned "
        "horizon; exercises the O(1) aggregate sampling path)",
    )
    parser.add_argument("--n", type=int, default=None, help="override network size")
    from ..overlay.family import family_names

    parser.add_argument(
        "--family",
        choices=family_names(),
        default=None,
        help="overlay family for the super-layer structure "
        "(default: superpeer, the paper's random backbone; "
        "chord arranges the supers in a hierarchical ring)",
    )
    parser.add_argument(
        "--horizon", type=float, default=None, help="override simulated horizon"
    )
    parser.add_argument("--seed", type=int, default=None, help="override root seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep-style experiments and sharded "
        f"runs (sets {WORKERS_ENV}; default: all cores, 1 forces "
        "serial; never changes results)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="partition the run into K independent regional sub-runs "
        "whose samples reduce exactly into the global series (a model "
        "parameter, like --seed: different K are different "
        "trajectories; --workers spreads the sub-runs over processes "
        "and never changes results)",
    )
    parser.add_argument(
        "--loss",
        type=float,
        default=None,
        metavar="P",
        help="enable the message-driven Phase-1 engine with drop "
        "probability P per message leg (0 still routes knowledge "
        "through messages)",
    )
    parser.add_argument(
        "--latency-scale",
        type=float,
        default=None,
        metavar="L",
        help="median one-way Phase-1 message delay in time units "
        "(implies the message-driven engine)",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="also write the render and shape metrics into DIR",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=float,
        default=None,
        metavar="T",
        help="write a resumable checkpoint every T simulated time units "
        "(requires --checkpoint-path)",
    )
    parser.add_argument(
        "--checkpoint-path",
        metavar="PATH",
        default=None,
        help="checkpoint file the periodic writer atomically replaces "
        "(under --shards K, one file per sub-run at PATH.shard<k>)",
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="resume a checkpointed run and continue it to its horizon "
        "(or --horizon); resumption is bit-identical to the "
        "uninterrupted run.  For a sharded run pass the checkpoint "
        "path: its PATH.shard<k> files resume together",
    )
    telemetry = parser.add_argument_group(
        "telemetry",
        "observe the run (metrics, span timing, DLM audit log); "
        "disabled -- and zero-overhead -- unless one of these is given",
    )
    telemetry.add_argument(
        "--telemetry",
        action="store_true",
        help="enable the telemetry plane with default settings",
    )
    telemetry.add_argument(
        "--audit-jsonl",
        metavar="PATH",
        default=None,
        help="export the run's records + metrics + spans as JSONL to "
        "PATH (readable by 'repro trace' / 'repro stats'; implies "
        "--telemetry)",
    )
    telemetry.add_argument(
        "--chrome-trace",
        metavar="PATH",
        default=None,
        help="export span timing as Chrome-trace/Perfetto JSON to PATH "
        "(implies --telemetry)",
    )
    telemetry.add_argument(
        "--progress",
        type=float,
        default=None,
        metavar="SECONDS",
        help="log live progress (events/s, horizon %%, ETA) every "
        "SECONDS of wall time (implies --telemetry); under --shards K, "
        "one line per finished sub-run instead",
    )
    telemetry.add_argument(
        "--audit-level",
        choices=AUDIT_LEVELS,
        default=None,
        help="DLM audit detail: 'full' records every decision, "
        "'actions' skips no-ops, 'off' disables the audit log "
        "(default: full; implies --telemetry)",
    )
    telemetry.add_argument(
        "--transport-trace",
        action="store_true",
        help="also record Phase-1 request lifecycle stages (implies "
        "--telemetry; message-driven runs only produce stages)",
    )
    health = parser.add_argument_group(
        "run health",
        "streaming anomaly detectors over the telemetry stream "
        "(ratio drift, role flapping, load imbalance, timeout surges, "
        "DLM defer spikes, stalled clock); read the verdict back with "
        "'repro health <run.jsonl>'",
    )
    health.add_argument(
        "--health",
        action="store_true",
        help="enable the run-health plane with default SLO thresholds "
        "(implies --telemetry)",
    )
    health.add_argument(
        "--slo",
        action="append",
        metavar="KEY=VALUE[,KEY=VALUE...]",
        default=None,
        help="override health thresholds (repeatable; implies --health). "
        "KEYs are HealthConfig fields, e.g. ratio_band=0.3,"
        "critical_after=2; VALUE 'none' disables a detector",
    )
    health.add_argument(
        "--flight-recorder",
        metavar="PATH",
        default=None,
        help="arm the crash flight recorder: on a critical detector "
        "firing (or an unhandled exception, at PATH.crash) dump a "
        "bounded postmortem bundle readable by 'repro postmortem' "
        "(implies --health)",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="show debug-level diagnostics on stderr",
    )
    verbosity.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="only show warnings and errors on stderr",
    )
    return parser


def _telemetry_config(args) -> Optional[TelemetryConfig]:
    """The run's TelemetryConfig, or None when no flag asked for one."""
    if not (
        args.telemetry
        or args.audit_jsonl is not None
        or args.chrome_trace is not None
        or args.progress is not None
        or args.audit_level is not None
        or args.transport_trace
    ):
        return None
    return TelemetryConfig(
        audit_level=args.audit_level if args.audit_level is not None else "full",
        jsonl_path=args.audit_jsonl,
        chrome_trace_path=args.chrome_trace,
        progress_every=args.progress,
        transport_trace=args.transport_trace,
    )


def _coerce_slo_value(text: str):
    """``--slo`` values: 'none' disables, else int, float, or string."""
    if text.lower() in ("none", "null", "off"):
        return None
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _health_config(args):
    """The run's HealthConfig, or None when no health flag was given.

    Raises ValueError on a malformed or unknown ``--slo`` override (the
    callers turn that into exit code 2).
    """
    if not (args.health or args.slo or args.flight_recorder is not None):
        return None
    from ..health.config import HealthConfig

    valid = set(HealthConfig.field_names())
    overrides = {}
    for spec in args.slo or ():
        for pair in spec.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"--slo needs KEY=VALUE, got {pair!r}")
            if key not in valid:
                raise ValueError(
                    f"unknown --slo key {key!r}; valid keys: "
                    + ", ".join(sorted(valid))
                )
            overrides[key] = _coerce_slo_value(value.strip())
    if args.flight_recorder is not None:
        overrides["flight_path"] = args.flight_recorder
    return HealthConfig(**overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] in _TELEMETRY_COMMANDS:
        # `repro trace <run.jsonl> ...` / `repro stats <run.jsonl> ...`
        # operate on exported files, not experiments: hand the whole
        # command line to the telemetry CLI.
        from ..telemetry.cli import main as telemetry_main

        configure_logging()
        return telemetry_main(argv)
    args = build_parser().parse_args(argv)
    configure_logging(1 if args.verbose else (-1 if args.quiet else 0))

    if args.workers is not None:
        # Harnesses resolve REPRO_WORKERS themselves (see .parallel), so
        # setting the env var reaches them through the registry's plain
        # run(cfg) signature.
        os.environ[WORKERS_ENV] = str(args.workers)

    if args.resume is not None:
        return _resume(args)
    if args.experiment is None:
        logger.error("error: an experiment id is required unless --resume is given")
        return 2

    if args.experiment == "list":
        for exp_id in all_ids():
            exp = get_experiment(exp_id)
            print(f"{exp_id:10s} {exp.paper_artifact:9s} {exp.description}")
        return 0

    if args.full:
        cfg = table2_config()
    elif args.scale:
        cfg = largescale_config()
    else:
        cfg = bench_config()
    if args.experiment == "report":
        from .report import generate_experiments_report

        print(generate_experiments_report(None if not args.full else cfg))
        return 0

    if args.n is not None:
        cfg = cfg.scaled(args.n)
    if args.horizon is not None:
        cfg = cfg.with_(horizon=args.horizon)
    if args.seed is not None:
        cfg = cfg.with_(seed=args.seed)
    if args.family is not None:
        cfg = cfg.with_(family=args.family)
    if args.shards is not None:
        try:
            cfg = cfg.with_(shards=args.shards)
        except ValueError as exc:
            logger.error("error: %s", exc)
            return 2
    if args.loss is not None or args.latency_scale is not None:
        from ..protocol.faults import FaultPlan

        cfg = cfg.with_(
            faults=FaultPlan(
                loss_rate=args.loss or 0.0,
                latency_scale=args.latency_scale or 0.0,
            )
        )
    if args.checkpoint_every is not None:
        if args.checkpoint_path is None:
            logger.error("error: --checkpoint-every requires --checkpoint-path")
            return 2
        cfg = cfg.with_(
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint_path,
        )
    telemetry_cfg = _telemetry_config(args)
    if telemetry_cfg is not None:
        cfg = cfg.with_(telemetry=telemetry_cfg)
    try:
        health_cfg = _health_config(args)
    except ValueError as exc:
        logger.error("error: %s", exc)
        return 2
    if health_cfg is not None:
        # The runner auto-wires a default TelemetryConfig when health is
        # enabled without any --telemetry flag.
        cfg = cfg.with_(health=health_cfg)

    started = time.perf_counter()
    if args.experiment == "table3" and args.n is None:
        # Table 3 sweeps sizes itself; --full selects the paper's sizes.
        sizes = PAPER_SIZES if args.full else None
        result = run_table3(sizes) if sizes else run_table3()
    else:
        result = get_experiment(args.experiment).run(cfg)
    elapsed = time.perf_counter() - started

    render = getattr(result, "render", None)
    rendered = render() if callable(render) else None
    if rendered is not None:
        print(rendered)
    check = getattr(result, "check_shape", None)
    shape = check() if callable(check) else None
    if shape is not None:
        print("\nshape metrics:")
        for key, value in shape.items():
            print(f"  {key}: {value}")
    if args.save:
        _save_artifacts(args.save, args.experiment, rendered, shape)
    if telemetry_cfg is not None:
        outputs = (("jsonl_path", "telemetry"), ("chrome_trace_path", "trace"))
        for attr, label in outputs:
            path = getattr(telemetry_cfg, attr)
            if path and attr == "chrome_trace_path" and cfg.shards > 1:
                # Span timings stay per sub-run; only JSONL merges.
                path = f"{path}.shard<k>"
            if path:
                logger.info("%s written to %s", label, path)
    logger.info("[%s completed in %.1fs]", args.experiment, elapsed)
    return 0


def _resume(args) -> int:
    """Continue a checkpointed run (``--resume PATH``) and summarize it."""
    from .checkpoint import CheckpointError, load_checkpoint_set, resume_run
    from .sharded import ShardedRunResult

    started = time.perf_counter()
    try:
        health_cfg = _health_config(args)
    except ValueError as exc:
        logger.error("error: %s", exc)
        return 2
    try:
        header = load_checkpoint_set(args.resume)[0]["header"]
        result = resume_run(
            args.resume,
            horizon=args.horizon,
            telemetry=_telemetry_config(args),
            health=health_cfg,
        )
    except CheckpointError as exc:
        logger.error("error: %s", exc)
        return 1
    elapsed = time.perf_counter() - started
    if isinstance(result, ShardedRunResult):  # no single overlay/ctx
        stats = result.stats
        print(
            f"resumed {result.config.name!r} ({header['policy']}) from "
            f"t={header['time']:g} to t={result.config.horizon:g} "
            f"[{stats.shards} shards, {stats.workers} workers]"
        )
        ratio = result.n_leaf / result.n_super if result.n_super else float("inf")
        print(
            f"  peers: {result.n}  supers: {result.n_super}  "
            f"ratio: {ratio:.2f}  "
            f"joins: {result.joins}  deaths: {result.deaths}"
        )
    else:
        overlay = result.overlay
        print(
            f"resumed {result.config.name!r} ({header['policy']}) from "
            f"t={header['time']:g} to t={result.ctx.sim.now:g}"
        )
        print(
            f"  peers: {overlay.n}  supers: {overlay.n_super}  "
            f"ratio: {overlay.layer_size_ratio():.2f}  "
            f"joins: {result.driver.joins}  deaths: {result.driver.deaths}"
        )
    logger.info("[resume completed in %.1fs]", elapsed)
    return 0


def _save_artifacts(directory: str, experiment: str, rendered, shape) -> None:
    """Write the render (.txt) and shape metrics (.json) into a directory."""
    import json
    from pathlib import Path

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    if rendered is not None:
        (out / f"{experiment}.txt").write_text(rendered + "\n")
    if shape is not None:
        (out / f"{experiment}_shape.json").write_text(
            json.dumps(shape, indent=2, sort_keys=True, default=str)
        )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
