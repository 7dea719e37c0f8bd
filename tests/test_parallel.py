"""Process fan-out: ordering, the in-process fast path, bound arguments,
failures in the caller's share and in the children's."""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import reblock
from reblock import parallel, pipeline
from reblock.errors import ValidationError
from reblock.lattice import Block, BlockModel, LatticeSpec
from reblock.merge import MergeParams
from reblock.parallel import default_threads, parallel_map
from reblock.pipeline import merge_model

# under spawn, children import this module fresh, so everything handed to
# them has to live at module scope; a forked child inherits _CTX as the
# caller left it
_CTX: dict = {}


def _square(x):
    return x * x


def _add(offset, x):
    return x + offset


def _add_where(offset, x):
    return x + offset, os.getpid()


def _exit_past_one(x):
    if x > 1:
        os._exit(3)
    return x


def _fail_on_threes(x):
    if x % 4 == 3:
        raise ValueError(str(x))
    return x


def _big_error_past_zero(x):
    if x > 0:
        raise ValueError(str(x) * (100 * 1024))
    return x


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


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test that takes over a minute."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(*_):
        raise TimeoutError("test took over 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_orders_match_input():
    items = [3, 1, 4, 1, 5, 9, 2, 6]
    assert parallel_map(_square, items, threads=1) == [x * x for x in items]


def test_nonpositive_threads_rejected():
    with pytest.raises(ValidationError):
        parallel_map(_square, [1], threads=0)


def test_single_item_stays_in_process(monkeypatch):
    # one item never justifies a child process, whatever the thread count
    def no_child(*args, **kwargs):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(mp.get_context(parallel._START_METHOD), "Process", no_child)
    assert parallel_map(partial(_add, 5), [10], threads=8) == [15]


def test_pooled_workers_match_serial(start_method):
    items = list(range(37))
    serial = parallel_map(_square, items, threads=1)
    pooled = parallel_map(_square, items, threads=2)
    assert pooled == serial


# the per-process setup an initializer once ran is now an argument bound
# to the mapped function; these three tests check that it reaches the
# caller's share and every child's


class _Counting:
    """A bound argument that counts, in its own process, the calls it serves."""

    def __init__(self, offset):
        self.offset, self.calls = offset, 0

    def __call__(self, x):
        self.calls += 1
        return x + self.offset


def test_in_process_initializer_runs_once():
    # threads=1 maps with the very object bound by the caller, not a copy
    counting = _Counting(100)
    assert parallel_map(counting, [1, 2, 3], threads=1) == [101, 102, 103]
    assert counting.calls == 3


def test_pooled_workers_receive_initargs(start_method):
    out = parallel_map(partial(_add, 1000), list(range(8)), threads=2)
    assert out == [1000 + x for x in range(8)]


def test_initializer_replaces_inherited_context(start_method):
    # a forked child starts with a copy of this stale module state; the
    # function gets its offset bound, in the caller's share and each child's
    _CTX["offset"] = -(10**9)
    out = parallel_map(partial(_add_where, 1000), list(range(40)), threads=3)
    assert [value for value, _ in out] == [1000 + x for x in range(40)]
    pids = [pid for _, pid in out]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert _CTX == {"offset": -(10**9)}


def test_pool_gets_no_more_workers_than_items(monkeypatch):
    # the caller maps one share and starts a child per other share; a
    # stand-in for the context's Process runs its target in-process at
    # start, so no process starts (each share's results fit a pipe buffer)
    started = []

    class Recording:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            started.append(self)
            # a child closes its own copy of the pipe's read end, not the caller's
            self.target(mp.Pipe(duplex=False)[0], *self.args[1:])

        def join(self):
            pass

    monkeypatch.setattr(mp.get_context(parallel._START_METHOD), "Process", Recording)
    children = []
    for n_items, threads in [(3, 8), (40, 2), (40, 64)]:
        started.clear()
        out = parallel_map(partial(_add, 10), list(range(n_items)), threads)
        assert out == [10 + x for x in range(n_items)]
        children.append(len(started))
    assert children == [2, 1, 39]


def test_child_that_sends_nothing_names_its_exit_code(start_method, deadline):
    with pytest.raises(RuntimeError, match="exit code 3"):
        parallel_map(_exit_past_one, [0, 1, 2, 3], threads=2)
    assert mp.active_children() == []


@pytest.mark.parametrize("n_items, threads", [(8, 2), (9, 3)])
def test_earliest_failing_item_is_raised(start_method, deadline, n_items, threads):
    # items 3 and 7 fail: in the caller's share and a child's at
    # threads=2, in two children's shares at threads=3
    with pytest.raises(ValueError, match="^3$"):
        parallel_map(_fail_on_threes, list(range(n_items)), threads)
    assert mp.active_children() == []


def test_child_errors_larger_than_a_pipe_buffer(start_method, deadline):
    # each child's error outgrows a 64 KiB pipe buffer; the second child is
    # still blocked writing when the first child's error is raised
    with pytest.raises(ValueError) as info:
        parallel_map(_big_error_past_zero, [0, 1, 2], threads=3)
    assert str(info.value) == "1" * (100 * 1024)
    assert mp.active_children() == []


# the caller dies in its own share while its child sends it 1 MiB
_CALLER_DIES = """
import os
from reblock.parallel import parallel_map
parallel_map(lambda x: "x" * (1 << 20) if x else os._exit(0), [0, 1], 2)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="children fork on Linux only")
def test_child_ends_when_the_caller_dies():
    # a forked child holds the captured stdout open, so run() returns only
    # once it has ended: it must get a broken pipe, not block for good
    src = str(Path(reblock.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CALLER_DIES],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0


def test_merge_error_in_a_child_names_the_parent(monkeypatch, deadline):
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    monkeypatch.setattr(parallel, "_START_METHOD", "fork")
    # every parent is one whole block but the last, a child's, in two halves
    spec = LatticeSpec(origin=(0, 0, 0), parent_dims=(2, 2, 2), min_dims=(1, 1, 1))
    blocks = [Block(parent=(p, 0, 0), cell_min=(0, 0, 0), cell_dims=(2, 2, 2), label=1) for p in range(2)]
    blocks += [Block(parent=(2, 0, 0), cell_min=(0, 0, z), cell_dims=(2, 2, 1), label=1) for z in range(2)]
    merge_prepared = pipeline.merge_prepared

    def fail_on_halves(inputs, *args):
        if len(inputs[0]) == 2:
            raise ValidationError("cannot merge")
        return merge_prepared(inputs, *args)

    monkeypatch.setattr(pipeline, "merge_prepared", fail_on_halves)
    params = MergeParams(convention="persistent")
    with pytest.raises(ValidationError, match=r"^parent \(2, 0, 0\): cannot merge$"):
        merge_model(BlockModel(spec, blocks), params, threads=2)


def test_default_threads_positive():
    assert default_threads() >= 1


def test_default_threads_follow_the_affinity_mask(monkeypatch):
    # a process pinned to one CPU of many gets one thread by default
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert default_threads() == 1
    # where the platform has no affinity mask, the CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert default_threads() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_threads() == 1
