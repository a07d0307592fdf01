"""Unit tests for the sim-layer shard primitives: seed and partition
derivation."""

from __future__ import annotations

import pytest

from repro.sim.shard import partition_counts, shard_seed


class TestShardSeed:
    def test_pure_function(self):
        assert shard_seed(42, 0) == shard_seed(42, 0)
        assert shard_seed(42, 3) == shard_seed(42, 3)

    def test_distinct_across_indices_and_seeds(self):
        seeds = {shard_seed(42, i) for i in range(16)}
        assert len(seeds) == 16
        assert shard_seed(42, 0) != shard_seed(43, 0)

    def test_distinct_from_root_seed(self):
        assert shard_seed(42, 0) != 42

    def test_fits_64_bits(self):
        for i in range(8):
            assert 0 <= shard_seed(123456789, i) < 2**64


class TestPartitionCounts:
    def test_even_split(self):
        assert partition_counts(400, 4) == [100, 100, 100, 100]

    def test_remainder_goes_first(self):
        assert partition_counts(10, 3) == [4, 3, 3]

    def test_sum_is_exact(self):
        for n in (7, 100, 401, 1003):
            for k in (1, 2, 3, 5, 7):
                counts = partition_counts(n, k)
                assert sum(counts) == n
                assert max(counts) - min(counts) <= 1

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            partition_counts(10, 0)
        with pytest.raises(ValueError):
            partition_counts(2, 3)
