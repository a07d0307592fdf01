"""Seed and population derivation for sharded runs.

A sharded run partitions the peer population into K *logical shards*,
each a complete, independent sub-run with its own scheduler, named RNG
streams, and peer-store slice (see :mod:`repro.experiments.sharded`).
Nothing couples the shards while they run, so all a shard needs from
the parent config is its population size and its root seed -- both pure
functions defined here.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = [
    "partition_counts",
    "shard_seed",
    "SHARD_RNG_DOMAIN_KEY",
]

#: Spawn-key tag for per-shard seed derivation, disjoint by construction
#: from every ``RngStreams`` stream key (those live in the crc32 stream
#: namespace) and from the warm-start fork domain.  ASCII "SHRD".
SHARD_RNG_DOMAIN_KEY = 0x53485244


def shard_seed(seed: int, index: int) -> int:
    """The root seed of shard ``index`` in a run seeded with ``seed``.

    Derived through :class:`numpy.random.SeedSequence` spawn keys so
    shard streams are statistically independent of each other *and* of
    the classic engine's streams for the same config seed.  Pure
    function of ``(seed, index)``: every worker layout, and a resume in
    a fresh process, derives identical streams.
    """
    ss = np.random.SeedSequence(
        entropy=seed, spawn_key=(SHARD_RNG_DOMAIN_KEY, index)
    )
    a, b = ss.generate_state(2, np.uint32)
    return (int(a) << 32) | int(b)


def partition_counts(n: int, shards: int) -> List[int]:
    """Population sizes per shard: as even as possible, remainder first.

    ``sum == n`` exactly; sizes differ by at most one, with the first
    ``n % shards`` shards carrying the extra peer.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if n < shards:
        raise ValueError(f"cannot split {n} peers across {shards} shards")
    base, rem = divmod(n, shards)
    return [base + 1] * rem + [base] * (shards - rem)
