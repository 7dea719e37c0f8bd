"""Deterministic fan-out over parents.

``threads`` processes, the caller included, each map one contiguous share
of the items; there is no pool.  The caller starts a child per share but
the first, each with a one-way pipe, then maps the first share itself.
Children are forked on Linux, starting in milliseconds with their share
in memory, and spawned elsewhere (fork is missing on Windows and unsafe
with macOS frameworks).  Whatever a process needs besides its items is
bound into ``fn`` (``functools.partial``), never read from module state
that a forked child would inherit, and shares are joined in input order:
outputs are byte-identical for any thread count.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
from typing import Callable, Sequence, TypeVar

from .errors import ValidationError

T = TypeVar("T")
R = TypeVar("R")

# children fork before the caller starts work, while NumPy's BLAS threads idle
_START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"


def default_threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _child(conn, send, fn, share) -> None:
    conn.close()  # forked, this copy would keep a dead caller's pipe open: send would block
    try:
        outcome = [fn(item) for item in share], None
    except Exception as exc:
        outcome = [], exc
    send.send(outcome)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int) -> list[R]:
    """Order-preserving map over ``threads`` processes; ``fn`` must pickle
    where children spawn.  A failure raises the first failing item's error."""
    if threads < 1:
        raise ValidationError("thread count must be positive")
    n, children = max(1, min(threads, len(items))), []
    ctx = mp.get_context(_START_METHOD)
    try:
        for i in range(1, n):
            conn, send = ctx.Pipe(duplex=False)
            share = items[len(items) * i // n : len(items) * (i + 1) // n]
            child = ctx.Process(target=_child, args=(conn, send, fn, share))
            child.start()
            children.append((child, conn))
            send.close()
        results = [fn(item) for item in items[: len(items) // n]]
        for child, conn in children:
            try:
                part, exc = conn.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"worker process ended with exit code {child.exitcode}") from None
            conn.close()
            if exc is not None:
                raise exc
            results += part
        return results
    finally:
        for child, conn in children:
            if not conn.closed:  # unread, it may be blocked writing to its pipe
                child.terminate()
            child.join()
            conn.close()
