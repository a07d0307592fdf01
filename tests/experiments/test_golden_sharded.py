"""Golden test: the sharded engine's output is pinned bit for bit.

``golden_sharded.json`` was captured under the conservative window-loop
engine, before sharded runs became K independent sub-runs fanned across
workers.  The fan-out must reproduce, for a 2-shard and a 4-shard
config, every per-shard series, every reduced series, joins, deaths
and the final population exactly -- everything except the retired
gossip series ``shard_known_n`` (see :mod:`.golden_sharded`).
"""

from __future__ import annotations

import json

import pytest

from .golden_sharded import GOLDEN_CONFIGS, GOLDEN_PATH, run_record


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing; regenerate with "
        "`PYTHONPATH=src:. python tests/experiments/golden_sharded.py` "
        "at a commit whose sharded output is the intended baseline"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_sharded_output_matches_golden(golden, name):
    want = golden["runs"][name]
    got = run_record(name)
    for key in ("joins", "deaths", "n_super", "n_leaf"):
        assert got[key] == want[key], key
    assert got["series"] == want["series"]
    assert len(got["shard_series"]) == len(want["shard_series"])
    for k, (mine, theirs) in enumerate(
        zip(got["shard_series"], want["shard_series"])
    ):
        assert mine == theirs, f"shard {k} series differ from the golden"
