"""The sharded engine's contract: independent sub-runs, exact reduction.

The logical shard count K is a *model* parameter (part of the config
hash, like the seed); the worker process count N is execution-only.
These tests pin the load-bearing guarantees -- every shard is exactly
the standalone classic run of its sub-config, and a K-shard run
produces bit-identical results on 1 worker and N workers, through
per-sub-run checkpoints, in fresh processes, and under the debug
aggregate audits -- plus the dispatch seams (``shards=1`` is the
classic engine) and the checkpoint-set refusals.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    CheckpointManager,
    load_checkpoint_set,
    resume_run,
)
from repro.experiments.configs import table2_config
from repro.experiments.runner import RunResult, run_experiment
from repro.experiments.sharded import (
    ShardedRunResult,
    resume_sharded_run,
    run_sharded_experiment,
    shard_config,
)


def sharded_config(**overrides):
    base = dict(n=200, horizon=60.0, warmup=20.0, seed=11, shards=2)
    base.update(overrides)
    return table2_config().with_(**base)


def assert_sharded_identical(a, b):
    """Every observable artifact of two sharded runs matches exactly."""
    assert a.series.names() == b.series.names()
    for name in a.series.names():
        sa, sb = a.series[name], b.series[name]
        assert np.array_equal(sa.times, sb.times), f"times diverge in {name}"
        assert np.array_equal(sa.values, sb.values), f"values diverge in {name}"
    assert len(a.shard_series) == len(b.shard_series)
    for k, (sha, shb) in enumerate(zip(a.shard_series, b.shard_series)):
        assert sha.names() == shb.names()
        for name in sha.names():
            assert np.array_equal(
                sha[name].values, shb[name].values
            ), f"shard {k} series {name} diverged"
    assert (a.joins, a.deaths) == (b.joins, b.deaths)
    assert (a.n_super, a.n_leaf) == (b.n_super, b.n_leaf)
    assert a.stats.events_processed == b.stats.events_processed
    assert a.stats.sync_rounds == b.stats.sync_rounds
    assert a.stats.cross_messages == b.stats.cross_messages


class TestDispatch:
    def test_single_shard_is_the_classic_engine(self):
        result = run_experiment(sharded_config(shards=1))
        assert isinstance(result, RunResult)

    def test_multi_shard_dispatches_through_run_experiment(self):
        result = run_experiment(sharded_config())
        assert isinstance(result, ShardedRunResult)
        assert result.stats.shards == 2

    def test_sharded_refuses_wiring_only(self):
        with pytest.raises(ValueError, match="run=False"):
            run_experiment(sharded_config(), run=False)

    def test_sharded_refuses_classic_resume_payload(self):
        with pytest.raises(ValueError, match="resume"):
            run_experiment(sharded_config(), resume_from={"state": {}})

    def test_run_sharded_experiment_needs_two_shards(self):
        with pytest.raises(ValueError, match="shards >= 2"):
            run_sharded_experiment(sharded_config(shards=1))

    def test_checkpoint_cadence_needs_a_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_sharded_experiment(sharded_config(checkpoint_every=30.0))

    def test_shard_index_must_be_in_range(self):
        with pytest.raises(ValueError, match="out of range"):
            run_experiment(sharded_config(), shard=2)


class TestSubRuns:
    """A shard is the classic run of its sub-config, nothing more."""

    def test_each_shard_equals_the_standalone_sub_run(self):
        cfg = sharded_config()
        result = run_sharded_experiment(cfg, workers=1)
        for k, bundle in enumerate(result.shard_series):
            alone = run_experiment(shard_config(cfg, k)).series
            assert bundle.names() == alone.names()
            for name in alone.names():
                assert np.array_equal(bundle[name].times, alone[name].times)
                assert np.array_equal(
                    bundle[name].values, alone[name].values
                ), f"shard {k} series {name} differs from its standalone run"

    def test_sub_run_entry_point_logs_samples(self):
        cfg = sharded_config()
        sub = run_experiment(cfg, shard=1)
        assert isinstance(sub, RunResult)
        assert sub.config == shard_config(cfg, 1)
        assert len(sub.sample_log.rows) == len(sub.series["n"])

    def test_progress_logs_one_line_per_finished_sub_run(self, caplog):
        from repro.telemetry import TelemetryConfig

        cfg = sharded_config(telemetry=TelemetryConfig(progress_every=60.0))
        with caplog.at_level("INFO", logger="repro.progress"):
            run_sharded_experiment(cfg, workers=1)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 2
        assert "sub-run 1/2 finished at t=60" in lines[0]
        assert "sub-run 2/2 finished at t=60" in lines[1]

    def test_no_cross_shard_traffic(self):
        stats = run_sharded_experiment(sharded_config(), workers=1).stats
        assert (stats.sync_rounds, stats.cross_messages) == (0, 0)
        assert len(stats.busy_wall) == len(stats.idle_fraction) == 2
        assert all(0.0 <= f <= 1.0 for f in stats.idle_fraction)


class TestWorkerInvariance:
    """The tentpole guarantee: worker layout never changes the bits."""

    def test_one_vs_two_workers(self):
        cfg = sharded_config()
        serial = run_sharded_experiment(cfg, workers=1)
        forked = run_sharded_experiment(cfg, workers=2)
        assert serial.stats.workers == 1
        # On a 1-core host fork still yields 2 timesharing processes.
        assert forked.stats.workers == 2
        assert_sharded_identical(serial, forked)

    def test_four_shards_across_worker_counts(self):
        cfg = sharded_config(n=240, shards=4)
        runs = [
            run_sharded_experiment(cfg, workers=w) for w in (1, 2, 4)
        ]
        assert_sharded_identical(runs[0], runs[1])
        assert_sharded_identical(runs[0], runs[2])

    def test_workers_capped_at_shard_count(self):
        result = run_sharded_experiment(sharded_config(), workers=16)
        assert result.stats.workers == 2


class TestGlobalSeries:
    def test_global_population_is_the_shard_sum(self):
        result = run_sharded_experiment(sharded_config(), workers=1)
        total = result.series["n"].values
        per_shard = [s["n"].values for s in result.shard_series]
        assert np.array_equal(total, sum(per_shard))

    def test_final_counts_match_series_tail(self):
        result = run_sharded_experiment(sharded_config(), workers=1)
        assert result.series["n"].values[-1] == result.n
        assert result.series["n_super"].values[-1] == result.n_super

    def test_debug_aggregates_audit_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_AGGREGATES", "1")
        cfg = sharded_config(horizon=30.0)
        a = run_sharded_experiment(cfg, workers=1)
        b = run_sharded_experiment(cfg, workers=1)
        assert_sharded_identical(a, b)


class TestShardedCheckpoint:
    def _reference(self, tmp_path):
        """The uninterrupted run: its checkpoint writer fires at the
        same times, so even the event counts must match a resume."""
        (tmp_path / "ref").mkdir()
        return run_sharded_experiment(
            self._checkpointed(tmp_path / "ref"), workers=1
        )

    def _checkpointed(self, tmp_path, **overrides):
        return sharded_config(
            checkpoint_every=30.0,
            checkpoint_path=str(tmp_path / "sharded.ckpt"),
            **overrides,
        )

    def test_resume_is_bit_identical(self, tmp_path):
        cfg = self._checkpointed(tmp_path, horizon=30.0)
        partial = run_sharded_experiment(cfg, workers=1)
        assert partial.checkpoint_writes == 1

        ref = self._reference(tmp_path)
        resumed = resume_run(cfg.checkpoint_path, horizon=60.0)
        assert isinstance(resumed, ShardedRunResult)
        assert_sharded_identical(ref, resumed)

    def test_resume_under_any_worker_count(self, tmp_path):
        cfg = self._checkpointed(tmp_path, horizon=30.0)
        run_sharded_experiment(cfg, workers=2)
        ref = self._reference(tmp_path)
        payloads = load_checkpoint_set(cfg.checkpoint_path)
        resumed = resume_sharded_run(
            payloads, payloads[0]["config"].with_(horizon=60.0), workers=2
        )
        assert_sharded_identical(ref, resumed)

    def test_header_records_shard_count(self, tmp_path):
        cfg = self._checkpointed(tmp_path, horizon=30.0)
        run_sharded_experiment(cfg, workers=1)
        for k in range(2):
            payload = CheckpointManager.load(f"{cfg.checkpoint_path}.shard{k}")
            assert payload["header"]["shards"] == 2
            assert payload["header"]["shard_index"] == k
            assert payload["config"] == cfg
            assert payload["state"]["sample_log"]
            assert "shard_states" not in payload

    def test_resume_refuses_shard_count_mismatch(self, tmp_path):
        cfg = self._checkpointed(tmp_path, n=300, shards=3, horizon=30.0)
        run_sharded_experiment(cfg, workers=1)
        Path(f"{cfg.checkpoint_path}.shard2").unlink()
        with pytest.raises(CheckpointError, match="missing shard index 2"):
            resume_run(cfg.checkpoint_path, horizon=60.0)

    def test_resume_refuses_a_hole_in_the_set(self, tmp_path):
        cfg = self._checkpointed(tmp_path, n=300, shards=3, horizon=30.0)
        run_sharded_experiment(cfg, workers=1)
        Path(f"{cfg.checkpoint_path}.shard1").unlink()
        with pytest.raises(CheckpointError, match="missing shard index 1"):
            resume_run(cfg.checkpoint_path, horizon=60.0)

    def test_resume_refuses_files_of_another_shard_count(self, tmp_path):
        cfg = self._checkpointed(tmp_path, horizon=30.0)
        run_sharded_experiment(cfg, workers=1)
        stale = self._checkpointed(
            tmp_path / "other", n=300, shards=3, horizon=30.0
        )
        (tmp_path / "other").mkdir()
        run_sharded_experiment(stale, workers=1)
        Path(f"{stale.checkpoint_path}.shard2").rename(
            f"{cfg.checkpoint_path}.shard2"
        )
        with pytest.raises(CheckpointError, match="shard counts"):
            resume_run(cfg.checkpoint_path, horizon=60.0)

    def test_sub_run_file_alone_names_the_missing_siblings(self, tmp_path):
        cfg = self._checkpointed(tmp_path, horizon=30.0)
        run_sharded_experiment(cfg, workers=1)
        with pytest.raises(CheckpointError, match="missing shard index 1"):
            resume_run(f"{cfg.checkpoint_path}.shard0", horizon=60.0)

    def test_cli_resume_summarizes_the_sharded_run(self, tmp_path, capsys):
        from repro.experiments.cli import main

        cfg = self._checkpointed(tmp_path, horizon=30.0)
        run_sharded_experiment(cfg, workers=1)
        assert main(["--resume", cfg.checkpoint_path, "--horizon", "60"]) == 0
        out = capsys.readouterr().out
        assert "from t=30 to t=60 [2 shards," in out
        assert "peers: 200" in out

    def test_classic_checkpoint_still_resumes_classically(self, tmp_path):
        path = str(tmp_path / "classic.ckpt")
        cfg = sharded_config(
            shards=1, horizon=30.0, checkpoint_every=30.0, checkpoint_path=path
        )
        run_experiment(cfg)
        resumed = resume_run(path, horizon=60.0)
        assert isinstance(resumed, RunResult)



class TestRetiredSchemas:
    """Schema 7 and older are refused before any hash or state access."""

    def _write(self, path, payload):
        path.write_bytes(pickle.dumps(payload))
        return str(path)

    def test_v7_classic_file_refused_by_schema(self, tmp_path):
        path = self._write(
            tmp_path / "v7.ckpt",
            {
                "header": {"schema": 7, "config_hash": "0" * 64, "time": 30.0},
                "config": sharded_config(shards=1),
                "state": {},
            },
        )
        with pytest.raises(CheckpointError, match="schema 7"):
            resume_run(path, horizon=60.0)

    def test_window_loop_sharded_file_refused(self, tmp_path):
        path = self._write(
            tmp_path / "v6.ckpt",
            {
                "header": {"schema": 6, "shards": 2, "time": 30.0},
                "config": sharded_config(),
                "shard_states": [{}, {}],
            },
        )
        with pytest.raises(CheckpointError, match="shard_states"):
            resume_run(path, horizon=60.0)

    def test_shard_states_refused_whatever_the_schema_says(self, tmp_path):
        path = self._write(
            tmp_path / "odd.ckpt",
            {
                "header": {"schema": SCHEMA_VERSION, "shards": 2},
                "shard_states": [{}, {}],
            },
        )
        with pytest.raises(CheckpointError, match="shard_states"):
            CheckpointManager.load(path)

    def test_current_schema_without_state_refused(self, tmp_path):
        path = self._write(
            tmp_path / "empty.ckpt", {"header": {"schema": SCHEMA_VERSION}}
        )
        with pytest.raises(CheckpointError, match="no run state"):
            CheckpointManager.load(path)

_FRESH_PROCESS_SCRIPT = """
import pickle, sys
import numpy as np
from repro.experiments.checkpoint import resume_run

ckpt_path, expected_path, workers = sys.argv[1], sys.argv[2], int(sys.argv[3])
result = resume_run(ckpt_path, horizon=60.0)
assert result.stats.shards == 2, result.stats
with open(expected_path, "rb") as fh:
    want = pickle.load(fh)
got = {name: result.series[name].values.tolist() for name in result.series.names()}
assert set(got) == set(want), (sorted(got), sorted(want))
for name in want:
    assert got[name] == want[name], f"series {name} diverged after resume"
print("FRESH-PROCESS-SHARDED-OK")
"""


class TestFreshProcessShardedResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_in_subprocess(self, tmp_path, workers):
        """Checkpoint at H/2, resume in a brand-new interpreter under
        either worker count, compare every global series bit for bit."""
        cfg = sharded_config(
            horizon=30.0,
            checkpoint_every=30.0,
            checkpoint_path=str(tmp_path / "half.ckpt"),
        )
        run_sharded_experiment(cfg, workers=1)
        ref = run_sharded_experiment(sharded_config(), workers=1)
        expected = {
            name: ref.series[name].values.tolist()
            for name in ref.series.names()
        }
        expected_path = tmp_path / "expected.pkl"
        expected_path.write_bytes(pickle.dumps(expected))

        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _FRESH_PROCESS_SCRIPT,
                str(tmp_path / "half.ckpt"),
                str(expected_path),
                str(workers),
            ],
            env={
                "PYTHONPATH": src,
                "PATH": "/usr/bin:/bin",
                "REPRO_WORKERS": str(workers),
            },
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "FRESH-PROCESS-SHARDED-OK" in proc.stdout
