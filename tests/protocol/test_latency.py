"""Unit tests for per-hop latency models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocol.latency import (
    ConstantLatency,
    LogNormalLatency,
    MixtureLatency,
    ShiftedLatency,
    UniformLatency,
    default_latency_model,
)


class TestConstantLatency:
    def test_samples_constant(self, rng):
        np.testing.assert_array_equal(ConstantLatency(2.5).sample(rng, 4), 2.5)

    def test_mean(self):
        assert ConstantLatency(3.0).mean == 3.0

    def test_zero_allowed(self, rng):
        assert ConstantLatency(0.0).sample_one(rng) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)


class TestUniformLatency:
    def test_bounds(self, rng):
        s = UniformLatency(1.0, 3.0).sample(rng, 1000)
        assert s.min() >= 1.0 and s.max() <= 3.0

    def test_mean(self):
        assert UniformLatency(1.0, 3.0).mean == 2.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)
        with pytest.raises(ValueError):
            UniformLatency(-1.0, 1.0)


class TestLogNormalLatency:
    def test_median(self, rng):
        s = LogNormalLatency(median=5.0, sigma=0.5).sample(rng, 50_000)
        assert np.median(s) == pytest.approx(5.0, rel=0.05)

    def test_mean_formula(self, rng):
        model = LogNormalLatency(median=1.0, sigma=0.5)
        s = model.sample(rng, 100_000)
        assert s.mean() == pytest.approx(model.mean, rel=0.05)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LogNormalLatency(0.0, 1.0)
        with pytest.raises(ValueError):
            LogNormalLatency(1.0, 0.0)


class TestDefault:
    def test_default_is_lognormal_unit_median(self):
        model = default_latency_model()
        assert isinstance(model, LogNormalLatency)
        assert model.mean > 1.0  # lognormal mean exceeds median


class TestShiftedLatency:
    def test_samples_raised_by_shift(self, rng):
        s = ShiftedLatency(UniformLatency(0.0, 1.0), 2.0).sample(rng, 1000)
        assert s.min() >= 2.0 and s.max() <= 3.0

    def test_mean(self):
        assert ShiftedLatency(ConstantLatency(1.0), 0.5).mean == 1.5

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            ShiftedLatency(ConstantLatency(1.0), -0.1)


class TestMixtureLatency:
    def test_samples_come_from_components(self, rng):
        model = MixtureLatency(
            [ConstantLatency(1.0), ConstantLatency(5.0)], [0.5, 0.5]
        )
        s = model.sample(rng, 2000)
        assert set(np.unique(s)) == {1.0, 5.0}

    def test_mean_is_weighted(self):
        model = MixtureLatency(
            [ConstantLatency(1.0), ConstantLatency(5.0)], [3.0, 1.0]
        )
        assert model.mean == pytest.approx(0.75 * 1.0 + 0.25 * 5.0)

    def test_weights_normalized(self):
        model = MixtureLatency([ConstantLatency(1.0)], [7.0])
        assert model.weights == (1.0,)

    def test_invalid(self):
        with pytest.raises(ValueError):
            MixtureLatency([], [])
        with pytest.raises(ValueError):
            MixtureLatency([ConstantLatency(1.0)], [1.0, 2.0])
        with pytest.raises(ValueError):
            MixtureLatency([ConstantLatency(1.0)], [-1.0])
        with pytest.raises(ValueError):
            MixtureLatency(
                [ConstantLatency(1.0), ConstantLatency(2.0)], [0.0, 0.0]
            )


class TestStableReprs:
    """Model reprs feed the checkpoint config hash; no memory addresses."""

    @pytest.mark.parametrize(
        "model",
        [
            ConstantLatency(1.5),
            UniformLatency(0.5, 1.5),
            LogNormalLatency(2.0, 0.5),
            ShiftedLatency(UniformLatency(0.0, 1.0), 0.5),
            MixtureLatency(
                [ConstantLatency(1.0), ConstantLatency(2.0)], [1.0, 3.0]
            ),
        ],
        ids=["constant", "uniform", "lognormal", "shifted", "mixture"],
    )
    def test_repr_roundtrips_by_eval(self, model):
        rebuilt = eval(repr(model))  # noqa: S307 - controlled test input
        assert repr(rebuilt) == repr(model)
        assert "0x" not in repr(model)


class TestTimedFlooding:
    def test_flood_reports_latency(self, rng):
        from repro.overlay.roles import Role
        from repro.overlay.topology import Overlay
        from repro.search.content import ContentCatalog
        from repro.search.flooding import FloodRouter
        from repro.search.index import ContentDirectory
        from tests.conftest import make_peer

        ov = Overlay()
        directory = ContentDirectory(
            ov, ContentCatalog(50), np.random.default_rng(1), files_per_peer=0
        )
        for sid in range(4):
            ov.add_peer(make_peer(sid, Role.SUPER))
            if sid:
                ov.connect(sid - 1, sid)
        ov.add_peer(make_peer(100, Role.LEAF))
        directory._files[100] = (7,)
        ov.connect(100, 3)

        router = FloodRouter(
            ov, directory, ttl=5, latency=ConstantLatency(2.0), rng=rng
        )
        out = router.query(0, 7)
        assert out.found and out.first_hit_hops == 3
        # 3 hops out + 3 hops back at 2.0 each
        assert out.first_hit_latency == pytest.approx(12.0)

    def test_local_hit_has_zero_latency(self, rng):
        from repro.overlay.roles import Role
        from repro.overlay.topology import Overlay
        from repro.search.content import ContentCatalog
        from repro.search.flooding import FloodRouter
        from repro.search.index import ContentDirectory
        from tests.conftest import make_peer

        ov = Overlay()
        directory = ContentDirectory(
            ov, ContentCatalog(50), np.random.default_rng(1), files_per_peer=0
        )
        ov.add_peer(make_peer(0, Role.SUPER))
        directory._files[0] = (7,)
        router = FloodRouter(
            ov, directory, ttl=5, latency=ConstantLatency(2.0), rng=rng
        )
        out = router.query(0, 7)
        assert out.first_hit_latency == 0.0

    def test_untimed_flood_reports_none(self, rng):
        from repro.overlay.roles import Role
        from repro.overlay.topology import Overlay
        from repro.search.content import ContentCatalog
        from repro.search.flooding import FloodRouter
        from repro.search.index import ContentDirectory
        from tests.conftest import make_peer

        ov = Overlay()
        directory = ContentDirectory(
            ov, ContentCatalog(50), np.random.default_rng(1), files_per_peer=0
        )
        ov.add_peer(make_peer(0, Role.SUPER))
        directory._files[0] = (7,)
        out = FloodRouter(ov, directory).query(0, 7)
        assert out.first_hit_latency is None

    def test_latency_without_rng_rejected(self):
        from repro.overlay.topology import Overlay
        from repro.search.content import ContentCatalog
        from repro.search.index import ContentDirectory

        ov = Overlay()
        directory = ContentDirectory(
            ov, ContentCatalog(10), np.random.default_rng(0)
        )
        from repro.search.flooding import FloodRouter

        with pytest.raises(ValueError, match="rng"):
            FloodRouter(ov, directory, latency=ConstantLatency(1.0))

    def test_stats_accumulate_latency(self, rng):
        from repro.search.flooding import QueryOutcome
        from repro.search.stats import QueryStats

        stats = QueryStats()
        stats.record(
            QueryOutcome(1, 2, True, 1, 3, 5, 2, 2, first_hit_latency=4.0)
        )
        stats.record(
            QueryOutcome(1, 2, True, 1, 3, 5, 2, 2, first_hit_latency=8.0)
        )
        stats.record(QueryOutcome(1, 2, False, 0, 3, 5, 0, None))
        snap = stats.snapshot
        assert snap.latency_samples == 2
        assert snap.mean_time_to_first_hit == pytest.approx(6.0)
