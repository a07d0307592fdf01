"""Cross-shard telemetry aggregation: K per-shard streams as one run.

A sharded run (DESIGN.md §11) is K independent sub-runs, each exporting
its own JSONL stream (``<path>.shard0`` ... ``.shard{K-1}``).  This
module merges them back into a single run-level stream so every
read-back CLI -- ``repro stats`` / ``trace`` / ``health`` -- sees a
sharded run exactly like a classic run:

* **record lines** k-way merge by the ``(t, shard, per-shard seq)``
  total order, a key no two records share and no worker layout can
  change.  Merged records get a fresh global ``seq``, keep their
  per-shard sequence as ``sseq``, and carry their origin as ``shard``;
* **meta lines** reduce exactly: numeric metrics sum, histograms merge
  (count/sum/min/max/buckets), audit verdict tallies and truncation
  counts sum, span aggregates merge by name.

:func:`resolve_run_stream` is the CLI entry point: given a path it
yields the file itself when it exists, otherwise it resolves the
``.shard{k}`` siblings and merges -- so one argument shape serves both
classic and sharded runs.  A single-file "merge" is the identity
passthrough by construction, which is what keeps classic-run output
byte-stable through this layer.
"""

from __future__ import annotations

import heapq
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from ..telemetry.export import iter_jsonl, write_jsonl

__all__ = [
    "shard_stream_paths",
    "merge_streams",
    "resolve_run_stream",
    "write_merged_run",
]

#: Meta line kinds (everything else is a record line).
_META_KINDS = frozenset({"run", "metrics", "spans", "audit_summary", "truncation"})

_SHARD_SUFFIX = re.compile(r"\.shard(\d+)$")
_SHARD_NAME = re.compile(r"\.s\d+$")


def shard_stream_paths(path: str) -> List[str]:
    """The files behind ``path``: itself, or its shard siblings.

    A plain existing file resolves to itself.  Otherwise ``path`` is
    treated as a sharded-run prefix and every ``<path>.shard{k}``
    sibling is collected in shard-index order; holes (shard 0..K-1 not
    contiguous) are refused, naming the missing indices, rather than
    silently merged short.  Sharded checkpoints use the same suffix
    rule and resolve through here too.
    """
    p = Path(path)
    if p.is_file():
        return [str(p)]
    parent = p.parent if str(p.parent) else Path(".")
    found: Dict[int, str] = {}
    if parent.is_dir():
        for sibling in parent.iterdir():
            if not sibling.name.startswith(p.name):
                continue
            match = _SHARD_SUFFIX.search(sibling.name)
            if match and sibling.name == f"{p.name}.shard{match.group(1)}":
                found[int(match.group(1))] = str(sibling)
    if not found:
        raise FileNotFoundError(
            f"no file at {path!r} and no {path}.shard<k> files"
        )
    indices = sorted(found)
    missing = sorted(set(range(indices[-1] + 1)) - set(indices))
    if missing:
        raise FileNotFoundError(
            f"sharded set {path!r} is missing shard index "
            f"{', '.join(map(str, missing))} (found {indices})"
        )
    return [found[k] for k in indices]


def _merge_metric(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        # Histogram layout: count/sum/min/max/mean plus bucket counts.
        merged = dict(a)
        for key, value in b.items():
            if key == "min":
                merged[key] = value if merged.get(key) is None else (
                    value if value is not None and value < merged[key]
                    else merged[key]
                )
            elif key == "max":
                merged[key] = value if merged.get(key) is None else (
                    value if value is not None and value > merged[key]
                    else merged[key]
                )
            elif key == "mean":
                continue  # recomputed below
            elif isinstance(value, dict) and isinstance(merged.get(key), dict):
                # Nested bucket counts merge by the same rules.
                merged[key] = _merge_metric(merged[key], value)
            elif isinstance(value, (int, float)) and isinstance(
                merged.get(key), (int, float)
            ):
                merged[key] = merged[key] + value
            else:
                merged.setdefault(key, value)
        if merged.get("count"):
            merged["mean"] = merged.get("sum", 0) / merged["count"]
        return merged
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a + b
    return a


class _ShardStream:
    """One shard's parsed stream, split into records and meta lines."""

    def __init__(self, index: int, path: str) -> None:
        self.index = index
        self.header: Optional[dict] = None
        self.metrics: Optional[dict] = None
        self.metrics_t: Optional[float] = None
        self.spans: Optional[dict] = None
        self.audit_summary: Optional[dict] = None
        self.truncation: Optional[dict] = None
        self.records: List[dict] = []
        for line in iter_jsonl(path):
            kind = line.get("kind")
            if kind == "run":
                self.header = line
            elif kind == "metrics":
                self.metrics = line.get("data", {})
                self.metrics_t = line.get("t")
            elif kind == "spans":
                self.spans = line.get("data", {})
            elif kind == "audit_summary":
                self.audit_summary = line
            elif kind == "truncation":
                self.truncation = line
            else:
                self.records.append(line)


def _merged_header(streams: List[_ShardStream], overrides: Optional[dict]) -> dict:
    base = dict(streams[0].header or {"kind": "run"})
    base["name"] = _SHARD_NAME.sub("", str(base.get("name", "run")))
    base["n"] = sum(s.header.get("n", 0) for s in streams if s.header)
    base["seed"] = [s.header.get("seed") for s in streams if s.header]
    base["shards"] = len(streams)
    if overrides:
        base.update(overrides)
    return base


def merge_streams(
    paths: List[str], *, header_overrides: Optional[dict] = None
) -> Iterator[dict]:
    """Yield the run-level JSONL lines for the given shard streams.

    With one path this is the identity passthrough (classic runs and
    the ``--shards 1`` engine never pay a rewrite); with K > 1 the
    records merge by ``(t, shard, seq)`` and the meta lines reduce as
    documented in the module docstring.
    """
    if len(paths) == 1:
        yield from iter_jsonl(paths[0])
        return
    streams = [_ShardStream(k, path) for k, path in enumerate(paths)]
    yield _merged_header(streams, header_overrides)

    def keyed(stream: _ShardStream) -> Iterator[tuple]:
        # A function scope per stream: the key's shard index must bind
        # *this* stream, not the loop variable (whose late binding
        # would collapse every stream onto the last index and let
        # heapq.merge fall through to comparing the record dicts).
        for r in stream.records:
            yield (r.get("t", 0.0), stream.index, r.get("seq", 0), r)

    merged = heapq.merge(*(keyed(s) for s in streams))
    for seq, (_, shard, sseq, record) in enumerate(merged):
        out = dict(record)
        out["seq"] = seq
        out["sseq"] = sseq
        out["shard"] = shard
        yield out
    dropped = sum(
        s.truncation.get("dropped", 0) for s in streams if s.truncation
    )
    if dropped:
        retained = sum(
            s.truncation.get("retained", 0) for s in streams if s.truncation
        )
        yield {"kind": "truncation", "dropped": dropped, "retained": retained}
    metrics: Dict[str, object] = {}
    for stream in streams:
        for name, value in (stream.metrics or {}).items():
            metrics[name] = (
                _merge_metric(metrics[name], value)
                if name in metrics
                else value
            )
    metrics_t = max(
        (s.metrics_t for s in streams if s.metrics_t is not None), default=0.0
    )
    yield {
        "kind": "metrics",
        "t": metrics_t,
        "data": dict(sorted(metrics.items())),
    }
    if any(s.audit_summary for s in streams):
        verdicts: Dict[str, int] = {}
        level = None
        for stream in streams:
            if not stream.audit_summary:
                continue
            level = level or stream.audit_summary.get("level")
            for verdict, count in stream.audit_summary.get("verdicts", {}).items():
                verdicts[verdict] = verdicts.get(verdict, 0) + count
        yield {
            "kind": "audit_summary",
            "level": level,
            "verdicts": dict(sorted(verdicts.items())),
        }
    spans: Dict[str, dict] = {}
    for stream in streams:
        for name, agg in (stream.spans or {}).items():
            if name not in spans:
                spans[name] = dict(agg)
            else:
                merged_span = spans[name]
                for key in ("calls", "wall_s", "events"):
                    merged_span[key] = merged_span.get(key, 0) + agg.get(key, 0)
    for agg in spans.values():
        if "wall_s" in agg:
            agg["wall_s"] = round(agg["wall_s"], 6)
    yield {"kind": "spans", "data": dict(sorted(spans.items()))}


def resolve_run_stream(
    path: str, *, header_overrides: Optional[dict] = None
) -> Iterator[dict]:
    """The run-level line stream for ``path`` (file or sharded prefix)."""
    return merge_streams(
        shard_stream_paths(path), header_overrides=header_overrides
    )


def write_merged_run(
    out_path: str,
    shard_paths: List[str],
    *,
    header_overrides: Optional[dict] = None,
) -> int:
    """Write the merged run-level JSONL; returns the line count."""
    return write_jsonl(
        out_path,
        merge_streams(shard_paths, header_overrides=header_overrides),
    )
