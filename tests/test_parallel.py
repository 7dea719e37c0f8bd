"""Process fan-out: ordering, the in-process fast path, worker context."""

import multiprocessing as mp

import pytest

from reblock import parallel
from reblock.errors import ValidationError
from reblock.parallel import default_threads, parallel_map

# under spawn, workers import this module fresh, so everything handed to
# the pool has to live at module scope
_CTX: dict = {}


def _square(x):
    return x * x


def _with_context(x):
    return x + _CTX["offset"]


def _init_offset(offset):
    _CTX["offset"] = offset
    _CTX["calls"] = _CTX.get("calls", 0) + 1


@pytest.fixture(autouse=True)
def _clean_context():
    yield
    _CTX.clear()


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch):
    """Run a pooled test under each start method this platform offers.

    Linux forks its workers; spawn is what every other platform uses.
    """
    if request.param not in mp.get_all_start_methods():
        pytest.skip(f"no {request.param} start method on this platform")
    monkeypatch.setattr(parallel, "_START_METHOD", request.param)
    return request.param


def test_orders_match_input():
    items = [3, 1, 4, 1, 5, 9, 2, 6]
    assert parallel_map(_square, items, threads=1) == [x * x for x in items]


def test_nonpositive_threads_rejected():
    with pytest.raises(ValidationError):
        parallel_map(_square, [1], threads=0)


def test_single_item_stays_in_process():
    # one item never justifies a pool; the initializer runs right here
    assert parallel_map(_with_context, [10], threads=8, initializer=_init_offset, initargs=(5,)) == [15]
    assert _CTX["calls"] == 1


def test_in_process_initializer_runs_once():
    out = parallel_map(_with_context, [1, 2, 3], threads=1, initializer=_init_offset, initargs=(100,))
    assert out == [101, 102, 103]
    assert _CTX["calls"] == 1


def test_pooled_workers_match_serial(start_method):
    items = list(range(37))
    serial = parallel_map(_square, items, threads=1)
    pooled = parallel_map(_square, items, threads=2)
    assert pooled == serial


def test_pooled_workers_receive_initargs(start_method):
    out = parallel_map(_with_context, list(range(8)), threads=2, initializer=_init_offset, initargs=(1000,))
    assert out == [1000 + x for x in range(8)]


def test_initializer_replaces_inherited_context(start_method):
    # a forked worker starts with a copy of this dict; the initializer
    # must win over it in every worker, or stale state leaks into results
    _CTX["offset"] = -(10**9)
    out = parallel_map(_with_context, list(range(40)), threads=2, initializer=_init_offset, initargs=(1000,))
    assert out == [1000 + x for x in range(40)]
    assert _CTX["offset"] == -(10**9)


def test_pool_gets_no_more_workers_than_items(monkeypatch):
    # a stand-in for the executor records its worker count and chunk size
    # and maps in-process, so no process starts
    pools = []

    class Recording:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            pools.append([max_workers])
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            pools[-1].append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Recording)
    assert parallel_map(_with_context, [1, 2, 3], 8, _init_offset, (10,)) == [11, 12, 13]
    assert parallel_map(_with_context, list(range(40)), 2, _init_offset, (0,)) == list(range(40))
    assert parallel_map(_with_context, list(range(40)), 64, _init_offset, (0,)) == list(range(40))
    assert pools == [[3, 1], [2, 5], [40, 1]]


def test_default_threads_positive():
    assert default_threads() >= 1
