"""Self-time arithmetic and span recording of the benchmark tracer."""

import numpy as np
import pytest

from tracer import SpanColumns, Tracer, self_times, top_level_time, totals


def _cols(rows):
    """SpanColumns from (name, start, end, parent) rows."""
    names = sorted({r[0] for r in rows})
    return SpanColumns(
        names=tuple(names),
        name_id=np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        start=np.array([r[1] for r in rows], dtype=np.float64),
        end=np.array([r[2] for r in rows], dtype=np.float64),
        parent=np.array([r[3] for r in rows], dtype=np.int64),
        cause=np.zeros(len(rows), dtype=np.int64),
    )


def test_self_time_subtracts_direct_children_only():
    # event [0, 10] > connect [1, 4] > exchange [2, 3]; event > connect [5, 7]
    cols = _cols(
        [
            ("event", 0.0, 10.0, -1),
            ("connect", 1.0, 4.0, 0),
            ("exchange", 2.0, 3.0, 1),
            ("connect", 5.0, 7.0, 0),
        ]
    )
    assert self_times(cols).tolist() == [5.0, 2.0, 1.0, 2.0]
    t = totals(cols)
    assert (t["event"].count, t["event"].total_s, t["event"].self_s) == (1, 10.0, 5.0)
    assert (t["connect"].count, t["connect"].total_s, t["connect"].self_s) == (
        2,
        5.0,
        4.0,
    )
    assert t["exchange"].self_s == 1.0


def test_self_times_of_a_forest_sum_to_top_level_time():
    cols = _cols(
        [
            ("a", 0.0, 4.0, -1),
            ("b", 1.0, 2.0, 0),
            ("a", 6.0, 9.0, -1),
            ("b", 6.5, 8.5, 2),
            ("c", 7.0, 8.0, 3),
        ]
    )
    assert top_level_time(cols) == 7.0
    assert self_times(cols).sum() == pytest.approx(7.0)


def test_recorded_spans_nest_and_share_the_event_cause():
    tracer = Tracer()

    def leaf():
        return 1

    def inner():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    handler = tracer.wrap_handler("tick", lambda sim, ev: tracer.wrap("inner", inner)())

    class Ev:
        seq = 42

    handler(None, Ev())
    cols = tracer.columns()
    names = [cols.names[i] for i in cols.name_id]
    assert names == ["event.tick", "inner", "leaf", "leaf"]
    assert cols.parent.tolist() == [-1, 0, 1, 1]
    assert cols.cause.tolist() == [42, 42, 42, 42]
    assert (cols.end >= cols.start).all()
    own = self_times(cols)
    assert (own >= 0).all()
    assert own.sum() == pytest.approx(top_level_time(cols))


def test_install_wraps_handlers_and_uninstall_restores():
    from repro.sim.scheduler import Simulator

    original_on = Simulator.on
    tracer = Tracer()
    tracer.install()
    try:
        sim = Simulator(seed=0)
        fired = []

        class Listener:
            def handler(self, s, ev):
                fired.append(ev.seq)

        listener = Listener()
        sim.on("tick", listener.handler)
        sim.schedule(1.0, "tick")
        sim.schedule(2.0, "tick")
        sim.run()
        sim.off("tick", listener.handler)
        sim.schedule(3.0, "tick")
        sim.run()
    finally:
        tracer.uninstall()
    assert Simulator.on is original_on
    assert len(fired) == 2
    cols = tracer.columns()
    assert [cols.names[i] for i in cols.name_id] == ["event.tick"] * 2
    assert cols.cause.tolist() == fired
