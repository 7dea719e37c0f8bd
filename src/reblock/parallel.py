"""Deterministic fan-out over parents.

Workers are separate processes.  On Linux they are forked, so they start
with the parent's imported modules and cost milliseconds, not a fresh
interpreter and a NumPy import each; elsewhere they are spawned, because
fork is unavailable (Windows) or unsafe with system frameworks (macOS).
Output does not depend on which: every worker's context comes from the
initializer, which replaces whatever state a forked worker inherited,
results come back in submission order, and nothing a worker computes
depends on which process ran it — which is what makes outputs
byte-identical for any thread count.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ValidationError

T = TypeVar("T")
R = TypeVar("R")

# Under fork, ProcessPoolExecutor forks every worker before it starts its
# own manager thread, so the parent's only other threads at that point are
# NumPy's idle BLAS workers.
_START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"


def default_threads() -> int:
    return os.cpu_count() or 1


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    threads: int,
    initializer: Callable[..., None] | None = None,
    initargs: Iterable = (),
) -> list[R]:
    """Order-preserving map, in-process when one thread is enough.

    ``initializer`` receives the shared read-only context exactly once
    per worker (or once in-process), so large payloads such as surface
    meshes are not re-pickled per item.
    """
    if threads < 1:
        raise ValidationError("thread count must be positive")
    if threads == 1 or len(items) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in items]
    ctx = mp.get_context(_START_METHOD)
    chunksize = max(1, -(-len(items) // (threads * 4)))
    # under fork the pool starts every worker up front, so it gets no more
    # workers than there are items
    with ProcessPoolExecutor(
        max_workers=min(threads, len(items)),
        mp_context=ctx,
        initializer=initializer,
        initargs=tuple(initargs),
    ) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
