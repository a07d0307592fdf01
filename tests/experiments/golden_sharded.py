"""Golden baseline for the sharded engine's observable output.

A ``shards=K`` run is K independent sub-runs whose per-shard series and
exact reduction make up the result.  ``golden_sharded.json`` next to
this module pins, for a small 2-shard and a small 4-shard config:

* every per-shard series (times and values);
* every reduced (global) series;
* joins, deaths, and the final super/leaf population.

It was captured under the conservative window-loop engine that the
fan-out of independent sub-runs replaced.  That engine also recorded a
per-shard ``shard_known_n`` series fed by its ring gossip; the gossip is
gone, so the series is excluded here.  Everything else must match bit
for bit: JSON floats round-trip exactly through ``repr``.

Regenerate (only when a change is *intended* to alter sample paths)::

    PYTHONPATH=src:. python tests/experiments/golden_sharded.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_sharded.json")

#: Series of the retired gossip workload, never part of the golden.
EXCLUDED_SERIES = ("shard_known_n",)

#: name -> config overrides on ``table2_config()``.
GOLDEN_CONFIGS = {
    "k2": dict(n=300, horizon=100.0, warmup=30.0, seed=7, shards=2),
    "k4": dict(n=400, horizon=80.0, warmup=20.0, seed=13, shards=4),
}


def golden_config(name: str):
    """The fixed small sharded config behind golden entry ``name``."""
    from repro.experiments.configs import table2_config

    return table2_config().with_(name=f"golden-{name}", **GOLDEN_CONFIGS[name])


def _bundle(bundle) -> dict:
    return {
        name: {
            "times": [float(t) for t in bundle[name].times],
            "values": [float(v) for v in bundle[name].values],
        }
        for name in bundle.names()
        if name not in EXCLUDED_SERIES
    }


def run_record(name: str, workers: int = 1) -> dict:
    """Everything the golden pins for one config, freshly computed."""
    from repro.experiments.sharded import run_sharded_experiment

    result = run_sharded_experiment(golden_config(name), workers=workers)
    return {
        "series": _bundle(result.series),
        "shard_series": [_bundle(b) for b in result.shard_series],
        "joins": result.joins,
        "deaths": result.deaths,
        "n_super": result.n_super,
        "n_leaf": result.n_leaf,
    }


def compute_golden() -> dict:
    """The full golden record for the current code."""
    return {
        "configs": GOLDEN_CONFIGS,
        "runs": {name: run_record(name) for name in GOLDEN_CONFIGS},
    }


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
