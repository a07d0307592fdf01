"""Cross-shard stream aggregation: path resolution and merge semantics."""

from __future__ import annotations

import json

import pytest

from repro.health.aggregate import (
    merge_streams,
    resolve_run_stream,
    shard_stream_paths,
    write_merged_run,
)
from repro.telemetry.export import iter_jsonl


def write_stream(path, lines):
    with open(path, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line, separators=(",", ":"), sort_keys=True) + "\n")


def shard_lines(index, records, *, metrics=None, verdicts=None):
    lines = [
        {"kind": "run", "name": f"demo.s{index}", "n": 100, "seed": 40 + index}
    ]
    lines += records
    lines.append(
        {
            "kind": "metrics",
            "t": 50.0,
            "data": dict(metrics or {}),
        }
    )
    lines.append(
        {"kind": "audit_summary", "level": "full", "verdicts": verdicts or {}}
    )
    lines.append(
        {
            "kind": "spans",
            "data": {"run.execute": {"calls": 1, "wall_s": 0.5, "events": 10}},
        }
    )
    return lines


class TestShardStreamPaths:
    def test_existing_file_wins(self, tmp_path):
        p = tmp_path / "run.jsonl"
        p.write_text("{}\n")
        assert shard_stream_paths(str(p)) == [str(p)]

    def test_prefix_resolves_contiguous_shards(self, tmp_path):
        for k in range(3):
            (tmp_path / f"run.jsonl.shard{k}").write_text("{}\n")
        paths = shard_stream_paths(str(tmp_path / "run.jsonl"))
        assert paths == [str(tmp_path / f"run.jsonl.shard{k}") for k in range(3)]

    def test_hole_in_the_shard_sequence_is_an_error(self, tmp_path):
        for k in (0, 2):
            (tmp_path / f"run.jsonl.shard{k}").write_text("{}\n")
        with pytest.raises(FileNotFoundError, match="missing shard index 1"):
            shard_stream_paths(str(tmp_path / "run.jsonl"))

    def test_nothing_at_all_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            shard_stream_paths(str(tmp_path / "run.jsonl"))


class TestMergeStreams:
    def test_single_path_is_the_identity(self, tmp_path):
        p = tmp_path / "run.jsonl"
        lines = shard_lines(0, [{"kind": "audit", "t": 1.0, "seq": 0}])
        write_stream(p, lines)
        assert list(merge_streams([str(p)])) == list(iter_jsonl(str(p)))

    def test_records_merge_by_t_shard_seq_total_order(self, tmp_path):
        a = tmp_path / "run.jsonl.shard0"
        b = tmp_path / "run.jsonl.shard1"
        write_stream(
            a,
            shard_lines(
                0,
                [
                    {"kind": "audit", "t": 1.0, "seq": 0, "pid": 1},
                    {"kind": "audit", "t": 3.0, "seq": 1, "pid": 2},
                ],
            ),
        )
        write_stream(
            b,
            shard_lines(
                1,
                [
                    {"kind": "audit", "t": 2.0, "seq": 0, "pid": 4},
                    # Same t as shard 0's second record: the shard index
                    # breaks the tie, so shard 0 comes first.
                    {"kind": "audit", "t": 3.0, "seq": 1, "pid": 3},
                ],
            ),
        )
        out = list(merge_streams([str(a), str(b)]))
        records = [line for line in out if line["kind"] == "audit"]
        assert [(r["t"], r["shard"], r["sseq"]) for r in records] == [
            (1.0, 0, 0),
            (2.0, 1, 0),
            (3.0, 0, 1),
            (3.0, 1, 1),
        ]
        assert [r["seq"] for r in records] == [0, 1, 2, 3]

    def test_meta_lines_reduce(self, tmp_path):
        a = tmp_path / "run.jsonl.shard0"
        b = tmp_path / "run.jsonl.shard1"
        hist = {
            "count": 2,
            "sum": 10.0,
            "min": 1.0,
            "max": 9.0,
            "mean": 5.0,
            "buckets": {"le_10": 2, "inf": 0},
        }
        write_stream(
            a,
            shard_lines(
                0,
                [],
                metrics={"dlm.promotions": 5, "lat": dict(hist)},
                verdicts={"promote": 3, "none": 7},
            ),
        )
        write_stream(
            b,
            shard_lines(
                1,
                [],
                metrics={"dlm.promotions": 7, "lat": dict(hist, min=0.5)},
                verdicts={"promote": 1, "demote": 2},
            ),
        )
        out = list(merge_streams([str(a), str(b)]))
        header = out[0]
        assert header["kind"] == "run"
        assert header["name"] == "demo"  # .s0 suffix stripped
        assert header["n"] == 200
        assert header["seed"] == [40, 41]
        assert header["shards"] == 2

        metrics = next(line for line in out if line["kind"] == "metrics")
        assert metrics["data"]["dlm.promotions"] == 12
        lat = metrics["data"]["lat"]
        assert lat["count"] == 4
        assert lat["sum"] == 20.0
        assert lat["min"] == 0.5
        assert lat["max"] == 9.0
        assert lat["mean"] == 5.0
        assert lat["buckets"] == {"le_10": 4, "inf": 0}

        audit = next(line for line in out if line["kind"] == "audit_summary")
        assert audit["verdicts"] == {"demote": 2, "none": 7, "promote": 4}

        spans = next(line for line in out if line["kind"] == "spans")
        agg = spans["data"]["run.execute"]
        assert agg["calls"] == 2
        assert agg["wall_s"] == 1.0
        assert agg["events"] == 20

    def test_header_overrides_apply(self, tmp_path):
        a = tmp_path / "run.jsonl.shard0"
        b = tmp_path / "run.jsonl.shard1"
        write_stream(a, shard_lines(0, []))
        write_stream(b, shard_lines(1, []))
        out_path = tmp_path / "merged.jsonl"
        write_merged_run(
            str(out_path),
            [str(a), str(b)],
            header_overrides={"name": "demo", "seed": 40, "n": 200},
        )
        header = next(iter_jsonl(str(out_path)))
        assert header["name"] == "demo"
        assert header["seed"] == 40


class TestResolveRunStream:
    def test_prefix_resolution_reads_like_one_stream(self, tmp_path):
        a = tmp_path / "run.jsonl.shard0"
        b = tmp_path / "run.jsonl.shard1"
        write_stream(a, shard_lines(0, [{"kind": "audit", "t": 1.0, "seq": 0}]))
        write_stream(b, shard_lines(1, [{"kind": "audit", "t": 2.0, "seq": 0}]))
        lines = list(resolve_run_stream(str(tmp_path / "run.jsonl")))
        kinds = [line["kind"] for line in lines]
        assert kinds.count("audit") == 2
        assert kinds[0] == "run"
