"""Small-n smoke runs of every workload, untraced and traced."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import PER_LAYER
from workloads import WORKLOADS, fingerprint, simulate

BENCH = Path(__file__).resolve().parent.parent
SCALE = 0.05


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_metric_and_passes_checks(name):
    metrics, figures, failures, attempted, failed = run.measure(
        name, 3, 0.0, scale=SCALE, setup_probes=1
    )
    assert failures == [] and failed == 0
    copies = 1 if WORKLOADS[name].sharded else len(os.sched_getaffinity(0))
    # One round, with its one set-up probe before it.
    assert attempted == 1 + copies
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert "ratio_error" in figures
    if name == "faults":
        assert 0 < figures["query_success"] <= 1
        assert figures["msgs_per_query"] > 0
        assert 0 <= figures["request_fail_ratio"] < 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_reports_every_layer(name):
    metrics, failures, attempted, failed = run.trace(
        name, 3, scale=SCALE, write=False
    )
    assert failures == [] and failed == 0
    assert set(metrics) == set(PER_LAYER)
    assert metrics["sim.events"] > 0 and metrics["churn.joins"] > 0
    assert metrics["churn.join_s"] > 0 and metrics["overlay.connect_s"] > 0
    loaded = {
        "faults": ("protocol.deliver_s", "search.route_s", "health.tick_s"),
        "sharded": ("experiments.sync_rounds",),
    }
    for metric in loaded.get(name, ()):
        assert metrics[metric] > 0


@pytest.mark.parametrize(
    "name", sorted(n for n, w in WORKLOADS.items() if not w.sharded)
)
def test_timing_in_blocks_leaves_the_trajectory_unchanged(name):
    from repro.experiments.runner import run_experiment

    cfg, scenario = WORKLOADS[name].build(3, SCALE)
    whole = run_experiment(cfg, scenario=scenario)
    blocks = simulate(WORKLOADS[name], 3, scale=SCALE)
    assert blocks.failures == []
    assert blocks.fingerprint == fingerprint(whole, sharded=False)
    assert len(blocks.segments) > 2
    assert sum(blocks.segments) == pytest.approx(blocks.run_s, rel=0.01)


def test_run_time_sums_the_fastest_copy_of_each_block():
    copies = [
        {"run_s": 6.0, "segments": [1.0, 2.0, 3.0]},
        {"run_s": 7.0, "segments": [2.0, 1.0, 4.0]},
    ]
    assert run.fastest_blocks(copies) == pytest.approx(5.0)
    copies[1]["segments"] = [1.0]
    assert run.fastest_blocks(copies) == pytest.approx(6.5)


def test_a_failed_check_makes_the_run_fail(monkeypatch):
    import workloads

    # The sharded workload simulates in this process, so the patch applies.
    monkeypatch.setattr(workloads, "check", lambda cfg, result, sharded: ["boom"])
    _, _, failures, _, failed = run.measure(
        "sharded", 3, 0.0, scale=SCALE, setup_probes=0
    )
    assert failures == ["boom"] and failed == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: entry[:2] for name, entry in PER_LAYER.items()
    }


def test_exits_nonzero_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
