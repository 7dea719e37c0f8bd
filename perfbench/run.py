"""Benchmark of ``reblock`` on three seeded batch workloads.

    python3 perfbench/run.py --workload crossed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  The run
writes its generated inputs and outputs under ``perfbench/_work`` and
removes them when it ends.  Human-readable detail (host facts, every
pass, failures) goes to standard error; the last line of standard
output is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced single-threaded run.  See README.md for
what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCES = HERE / "references.json"

# Every run times at least this many passes, however short --seconds is.
MIN_PASSES = 3
# Traced runs time this many passes with and without the tracer.
MIN_TRACED = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "parents_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "blocks_out": "count",
}

PER_LAYER = {
    "lattice.read_model_csv_s": "s",
    "lattice.write_model_csv_s": "s",
    "lattice.rows_read": "count",
    "lattice.rows_written": "count",
    "mesh.load_mesh_s": "s",
    "mesh.integrity_check_s": "s",
    "mesh.build_index_s": "s",
    "mesh.triangles": "count",
    "mesh.query_cast_s": "s",
    "mesh.query_overlap_s": "s",
    "mesh.query_calls": "count",
    "mesh.candidates_per_query": "ratio",
    "intersection.detect_overlaps_s": "s",
    "intersection.sat_overlap_s": "s",
    "intersection.sat_cells_s": "s",
    "intersection.sat_pairs": "count",
    "intersection.sat_hit_ratio": "ratio",
    "intersection.parents_crossed": "count",
    "sidedness.classify_cells_s": "s",
    "sidedness.cast_cells_s": "s",
    "sidedness.cast_passthrough_s": "s",
    "sidedness.recast_s": "s",
    "sidedness.points_cast": "count",
    "sidedness.ray_tri_pairs": "count",
    "sidedness.recasts": "count",
    "sidedness.dirty_ratio": "ratio",
    "merge.merge_class_s": "s",
    "merge.coalesce_s": "s",
    "merge.merge_class_calls": "count",
    "merge.boxes_in": "count",
    "merge.blocks_out": "count",
    "merge.scan_runs": "count",
    "tagging.apply_tagging_s": "s",
    "pipeline.restructure_self_s": "s",
    "pipeline.merge_model_self_s": "s",
    "pipeline.worker_self_s": "s",
    "parallel.map_s": "s",
    "parallel.pool_start_s": "s",
    "parallel.tasks": "count",
    "trace.overhead_frac": "ratio",
}

# per-layer time metric -> span whose self time it reports
SELF_TIMES = {
    "lattice.read_model_csv_s": "lattice.read_model_csv",
    "lattice.write_model_csv_s": "lattice.write_model_csv",
    "mesh.load_mesh_s": "mesh.load_mesh",
    "mesh.integrity_check_s": "mesh.integrity_check",
    "mesh.build_index_s": "mesh.build_index",
    "mesh.query_cast_s": "mesh.query_cast",
    "mesh.query_overlap_s": "mesh.query_overlap",
    "intersection.detect_overlaps_s": "intersection.detect_overlaps",
    "intersection.sat_overlap_s": "intersection.sat_overlap",
    "intersection.sat_cells_s": "intersection.sat_cells",
    "sidedness.classify_cells_s": "sidedness.classify_cells",
    "sidedness.cast_cells_s": "sidedness.cast_cells",
    "sidedness.cast_passthrough_s": "sidedness.cast_passthrough",
    "sidedness.recast_s": "sidedness.recast",
    "merge.merge_class_s": "merge.merge_class",
    "merge.coalesce_s": "merge.coalesce",
    "tagging.apply_tagging_s": "tagging.apply_tagging",
    "pipeline.restructure_self_s": "pipeline.restructure",
    "pipeline.merge_model_self_s": "pipeline.merge_model",
    "pipeline.worker_self_s": "parallel.map",
}

# per-layer count metrics copied straight from the tracer's counters
COUNTS = (
    "lattice.rows_read",
    "lattice.rows_written",
    "mesh.triangles",
    "mesh.query_calls",
    "intersection.sat_pairs",
    "intersection.parents_crossed",
    "sidedness.points_cast",
    "sidedness.ray_tri_pairs",
    "sidedness.recasts",
    "merge.merge_class_calls",
    "merge.boxes_in",
    "merge.blocks_out",
    "merge.scan_runs",
    "parallel.tasks",
)


def log(**record: object) -> None:
    print(json.dumps(record, default=str), file=sys.stderr, flush=True)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("crossed", "passthrough", "merge"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="time spent on timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the smoke check",
    )
    return p.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and check it is what loads."""
    if not (SRC / "reblock" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no reblock sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import reblock

    if Path(reblock.__file__).resolve().parent != SRC / "reblock":
        raise SystemExit(f"run.py: imported reblock from {reblock.__file__}, not {SRC}")


def git_rev() -> str:
    """HEAD's commit, read from the files; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> dict[str, object]:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "git_rev": git_rev(),
        "loadavg": os.getloadavg(),
    }


def peak_rss_mib(pool_workers: int) -> float:
    """Peak RSS of this process plus ``pool_workers`` x the largest child's.

    ``getrusage`` reports the largest waited-for child, not the sum, so
    for a pool of equal workers this is an upper bound on the peak of
    the whole process tree.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


class Runner:
    """Runs and checks passes of one scene, keeping the tally."""

    def __init__(self, scene, workdir: Path, reference: str | None) -> None:
        self.scene = scene
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digest: str | None = None

    def attempt(self, threads: int, label: str, scope=None):
        """One checked pass; returns its timings, or None when it failed.

        ``scope`` is a context manager (a tracer) entered around the pass
        itself; the checks run outside it.
        """
        import workloads
        from reblock.errors import ReblockError

        self.attempted += 1
        try:
            with scope or contextlib.nullcontext():
                timing, result = workloads.run_pass(self.scene, self.workdir / "out.csv", threads)
        except ReblockError as exc:
            return self._fail(label, f"{type(exc).__name__}: {exc}")
        problem = workloads.check_output(self.scene, result)
        if problem is None and self.reference is not None and timing.digest != self.reference:
            problem = "output digest differs from the recorded reference"
        if self.first_digest is None:
            self.first_digest = timing.digest
        elif problem is None and timing.digest != self.first_digest:
            problem = "output digest differs from the first pass (threads=1)"
        log(
            label=label, threads=threads, wall_s=timing.wall_s, setup_s=timing.setup_s,
            blocks_out=timing.blocks_out, digest=timing.digest, problem=problem,
        )
        if problem is not None:
            return self._fail(label, problem)
        return timing

    def _fail(self, label: str, problem: str) -> None:
        self.failures.append(f"{label}: {problem}")
        log(label=label, failed=problem)
        return None


def repeat(seconds: float, minimum: int, run) -> list:
    """``run(i)`` for i = 0, 1, ... until ``seconds`` have gone by and at
    least ``minimum`` calls were made."""
    out = []
    end = time.perf_counter() + seconds
    while len(out) < minimum or time.perf_counter() < end:
        out.append(run(len(out)))
    return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


# Host-speed calibration.  A shared host's speed drifts by up to 1.9x for
# minutes at a time (README.md, "Variance"), longer than a run, so each
# timed pass is scaled by fixed reference kernels timed just before it.
# CAL_REF_S is the kernels' time on a 2-vCPU Intel Xeon host when not
# slowed, so scaled times read as seconds on such a host.
CAL_REF_S = 0.0015
CAL_REPEATS = 5
CAL_TEXT = "".join(f"{i},{i * 0.5!r},{i % 7}\n" for i in range(8000))
_CAL_ARRAY = None


def _cal_python() -> float:
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(60_000):
        total += i * i
        table[i & 255] = total
    return time.perf_counter() - t0


def _cal_numpy() -> float:
    global _CAL_ARRAY
    import numpy

    if _CAL_ARRAY is None:
        _CAL_ARRAY = numpy.random.default_rng(0).random(100_000)
    t0 = time.perf_counter()
    numpy.sort(_CAL_ARRAY)
    numpy.cumsum(_CAL_ARRAY)
    return time.perf_counter() - t0


def _cal_file(path: Path) -> float:
    t0 = time.perf_counter()
    path.write_text(CAL_TEXT)
    path.read_text().splitlines()
    return time.perf_counter() - t0


def host_slowdown(workdir: Path) -> float:
    """How many times slower than the reference the host runs right now.

    Three kernels that do not touch ``reblock`` -- a pure-Python loop, a
    NumPy sort, and writing, reading back and splitting a small CSV file
    in ``workdir`` -- are timed ``CAL_REPEATS`` times each; the geometric
    mean of their medians is divided by ``CAL_REF_S``.
    """
    kernels = (_cal_python, _cal_numpy, lambda: _cal_file(workdir / "calibrate.csv"))
    medians = [statistics.median(k() for _ in range(CAL_REPEATS)) for k in kernels]
    return statistics.geometric_mean(medians) / CAL_REF_S


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    scene = runner.scene
    runner.attempt(1, "warmup-t1-")

    def timed_pass(i: int):
        slowdown = host_slowdown(runner.workdir)
        return slowdown, runner.attempt(scene.threads, f"timed{i}")

    timed = [(k, p) for k, p in repeat(seconds, MIN_PASSES, timed_pass) if p]
    log(
        passes=len(timed),
        raw_wall_median_s=_median([p.wall_s for _, p in timed]),
        slowdown_median=_median([k for k, _ in timed]),
    )
    wall = _median([p.wall_s / k for k, p in timed])
    return {
        "wall_s": wall,
        "setup_s": _median([p.setup_s / k for k, p in timed]),
        "parents_per_s": scene.parents / wall,
        "peak_rss_mb": peak_rss_mib(scene.threads if scene.threads > 1 else 0),
        "blocks_out": timed[0][1].blocks_out if timed else float("nan"),
    }


def per_layer(runner: Runner, seconds: float) -> dict[str, float]:
    import tracing
    from reblock import parallel

    scene = runner.scene
    runner.attempt(1, "warmup-t1-")

    def traced_pass(threads: int, label: str):
        tracer = tracing.Tracer()
        timing = runner.attempt(threads, label, scope=tracer)
        return (timing, tracer) if timing else None

    # Untraced and traced passes alternate, so drift in the host's speed
    # affects both sides of trace.overhead_frac alike.
    pairs = repeat(
        seconds, MIN_TRACED,
        lambda i: (runner.attempt(1, f"untraced{i}"), traced_pass(1, f"traced{i}")),
    )
    plain = [p for p, _ in pairs if p]
    traced = [t for _, t in pairs if t]
    if not traced or not plain:
        return {name: float("nan") for name in PER_LAYER}
    counts = [dict(t.counts) for _, t in traced]
    if any(c != counts[0] for c in counts[1:]):
        runner.failures.append("traced counters differ between passes")
        log(counters=counts)
    c = counts[0]

    out: dict[str, float] = {}
    for name, span in SELF_TIMES.items():
        out[name] = _median([t.self_s.get(span, 0.0) for _, t in traced])
    for name in COUNTS:
        out[name] = c.get(name, 0)
    out["mesh.candidates_per_query"] = c.get("mesh.candidates", 0) / max(1, c.get("mesh.query_calls", 0))
    out["intersection.sat_hit_ratio"] = c.get("intersection.sat_hits", 0) / max(1, c.get("intersection.sat_pairs", 0))
    out["sidedness.dirty_ratio"] = c.get("sidedness.recasts", 0) / max(1, c.get("sidedness.points_cast", 0))

    if scene.threads > 1:
        pooled = traced_pass(scene.threads, f"traced-t{scene.threads}-")
        out["parallel.map_s"] = pooled[1].total_s["parallel.map"] if pooled else float("nan")
    else:
        out["parallel.map_s"] = _median([t.total_s.get("parallel.map", 0.0) for _, t in traced])

    def pool_start(_: int) -> float:
        t0 = time.perf_counter()
        parallel.parallel_map(abs, [0, 1], 2)
        return time.perf_counter() - t0

    out["parallel.pool_start_s"] = _median(repeat(0.0, 3, pool_start))
    out["trace.overhead_frac"] = (
        _median([p.wall_s for p, _ in traced]) / _median([p.wall_s for p in plain]) - 1.0
    )
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    import scenes

    log(host=host_facts(), workload=args.workload, seed=args.seed, scale=args.scale, trace=args.trace)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        scene = scenes.generate(args.workload, args.seed, workdir, args.scale)
        references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
        reference = references.get(args.scale, {}).get(args.workload, {}).get(str(args.seed))
        if reference is None:
            log(note=f"no recorded reference digest for seed {args.seed}; checking invariants only")
        runner = Runner(scene, workdir, reference)
        if args.trace:
            values, units = per_layer(runner, args.seconds), PER_LAYER
        else:
            values, units = end_to_end(runner, args.seconds), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    if runner.failures:
        log(failures=runner.failures)
    print(
        json.dumps(
            {
                "correct": not runner.failures,
                "attempted": runner.attempted,
                "failed": len(runner.failures),
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


def _become_subreaper() -> bool:
    """Have orphaned descendants re-parented to this process (Linux only),
    so that it can wait for them."""
    try:
        import ctypes

        PR_SET_CHILD_SUBREAPER = 36
        return ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _reap(group: int, grace_s: float) -> None:
    """Wait until every process of ``group`` has ended, killing what is
    left after ``grace_s`` seconds and giving up a few seconds later
    (a killed orphan that nobody reaps stays as a zombie).

    multiprocessing's resource tracker outlives the process that started
    it and exits only once that process has; as this process is the
    subreaper, the tracker ends up as its child and is waited for here.
    """
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline + 5.0:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pid = -1
        if pid > 0:
            continue
        try:
            os.killpg(group, signal.SIGKILL if time.monotonic() > deadline else 0)
        except (ProcessLookupError, PermissionError):
            if pid < 0:
                return
        time.sleep(0.01)


def supervise(argv: list[str]) -> int:
    """Run the benchmark in a child process group and return its exit code
    once it and every process it started have ended."""
    _become_subreaper()
    child = subprocess.Popen([sys.executable, __file__, "--inner", *argv], start_new_session=True)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
        _reap(child.pid, grace_s=20.0)


if __name__ == "__main__":
    if "--inner" in sys.argv[1:]:
        sys.exit(main([a for a in sys.argv[1:] if a != "--inner"]))
    sys.exit(supervise(sys.argv[1:]))
