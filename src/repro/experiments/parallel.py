"""The parallel sweep engine: fan independent runs across cores.

Every paper artifact decomposes into *independent* simulated runs --
replication seeds, figure-sweep points (Table 3's n-sweep, Figure 1's
arrival mixes, DLM grid sweeps), policy-tournament arms, the sub-runs
of one sharded run.  Each run is a pure function of a picklable spec
(config + seed + parameters), so they parallelize over a
``concurrent.futures.ProcessPoolExecutor`` with no shared state.  This
module owns the worker-pool plumbing; the harnesses
(:mod:`.replication`, :mod:`.sweeps`, :mod:`.table3`, :mod:`.figure1`,
:mod:`.tournament`, :mod:`.sharded`) define module-level worker
functions and call :func:`parallel_map`.

Design rules the harnesses follow:

* **Specs in, payloads out.**  Workers receive plain data (configs are
  frozen dataclasses of primitives) and return *reduced* payloads --
  shape-metric dicts, ``SweepPoint``/``Table3Row`` records, row tuples --
  never full ``RunResult`` objects, which hold live overlays, listener
  closures, and RNG state that neither pickle nor belong on a queue.
* **Deterministic ordering.**  Results are returned in spec order
  regardless of completion order (``Executor.map`` semantics), so
  reducers are order-stable by construction.
* **Serial fallback.**  ``n_workers=1`` runs the exact same worker
  functions inline -- no pool, no pickling -- which keeps tests
  deterministic, debuggable, and coverage-visible.  Specs that cannot be
  pickled (e.g. a lambda ``run_fn``) silently use the serial path.
* **Error transparency.**  A crashing worker propagates its exception to
  the caller immediately (the pool is shut down, nothing hangs), with
  the worker-side traceback attached by ``concurrent.futures`` as the
  exception's ``__cause__``.

Determinism across process boundaries (the seed scheme)
-------------------------------------------------------

Parallel and serial execution produce **bit-identical** per-run results
because no random state ever crosses a process boundary.  Each spec
carries its own integer root seed (for replication: the per-seed config
``cfg.with_(seed=s)``); the worker builds a fresh
:class:`~repro.sim.rng.RngStreams` from it, which derives every
subsystem substream as ``SeedSequence(entropy=seed,
spawn_key=(crc32(stream_name),))``.  A run is therefore a pure function
of ``(config, seed)`` -- where it executes cannot matter.  The
regression test ``tests/experiments/test_parallel.py`` asserts the
equality exactly.

The worker count resolves, in order: the explicit ``n_workers``
argument, the ``REPRO_WORKERS`` environment variable (what the CLI's
``--workers`` flag sets), then ``os.cpu_count()``.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar

__all__ = ["WORKERS_ENV", "resolve_workers", "parallel_map"]

#: Environment variable consulted when ``n_workers`` is not given.
WORKERS_ENV = "REPRO_WORKERS"

S = TypeVar("S")
R = TypeVar("R")


def resolve_workers(n_workers: Optional[int] = None) -> int:
    """The effective worker count: argument, ``REPRO_WORKERS``, cpu count."""
    if n_workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                n_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            n_workers = os.cpu_count() or 1
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return n_workers


def _picklable(*objs: object) -> bool:
    """Whether every object round-trips through pickle."""
    try:
        for obj in objs:
            pickle.dumps(obj)
        return True
    except Exception:
        return False


def parallel_map(
    fn: Callable[[S], R],
    specs: Iterable[S],
    *,
    n_workers: Optional[int] = None,
) -> List[R]:
    """``[fn(spec) for spec in specs]`` fanned across worker processes.

    Results come back in spec order regardless of completion order.
    With ``n_workers=1`` (or a single spec, or an unpicklable ``fn``/
    spec list) the map runs serially in-process, executing the identical
    worker function -- the two paths are interchangeable by construction.

    A worker exception is re-raised here with the worker-side traceback
    attached as ``__cause__``; in-flight siblings are abandoned and the
    pool is torn down, so a crash can never hang the sweep.
    """
    spec_list = list(specs)
    workers = min(resolve_workers(n_workers), len(spec_list))
    if workers > 1 and not _picklable(fn, spec_list):
        workers = 1
    if workers <= 1:
        return [fn(spec) for spec in spec_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, spec_list))
