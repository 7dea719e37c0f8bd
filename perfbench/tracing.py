"""Spans and counters recorded around calls into ``reblock``'s modules.

The tracer replaces a function on the module that *calls* it (for
example ``reblock.pipeline.cast_parity_many`` for the pass-through casts
and ``reblock.sidedness.cast_parity_many`` for the cell casts), so one
function called from two places is timed as two spans.  Spans nest: a
span's self time is its duration minus the time of the spans it
encloses.  Spans are aggregated by name in memory; counters are updated
from each call's arguments and return value.

Spawned worker processes import fresh modules and do not see the
replacements, so per-layer figures come from single-threaded passes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable

import numpy as np
from reblock import intersection, lattice, merge, pipeline, sidedness

Counter = Callable[[dict, tuple, dict, Any], None]


def _add(**names: Callable[[tuple, dict, Any], int]) -> Counter:
    """A counter that adds ``f(args, kwargs, result)`` to each named count."""

    def count(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
        for name, f in names.items():
            counts[name] += int(f(args, kwargs, result))

    return count


@dataclass(frozen=True)
class Probe:
    module: ModuleType
    attr: str
    span: str
    count: Counter | None = None


# (module the caller looks the function up on, attribute, span name, counters)
PROBES = (
    Probe(lattice, "read_model_csv", "lattice.read_model_csv",
          _add(**{"lattice.rows_read": lambda a, k, r: len(r.blocks)})),
    Probe(lattice, "write_model_csv", "lattice.write_model_csv",
          _add(**{"lattice.rows_written": lambda a, k, r: r})),
    Probe(pipeline, "load_mesh", "mesh.load_mesh"),
    Probe(pipeline, "integrity_check", "mesh.integrity_check"),
    Probe(pipeline, "build_index", "mesh.build_index",
          _add(**{"mesh.triangles": lambda a, k, r: len(a[0])})),
    Probe(intersection, "query_candidates", "mesh.query_overlap",
          _add(**{"mesh.query_calls": lambda a, k, r: 1, "mesh.candidates": lambda a, k, r: len(r)})),
    Probe(sidedness, "query_candidates", "mesh.query_cast",
          _add(**{
              "mesh.query_calls": lambda a, k, r: 1,
              "mesh.candidates": lambda a, k, r: len(r),
              "sidedness.ray_tri_pairs": lambda a, k, r: len(r),
          })),
    Probe(pipeline, "detect_overlaps", "intersection.detect_overlaps",
          _add(**{"intersection.parents_crossed": lambda a, k, r: len(r.parents)})),
    Probe(intersection, "sat_batch", "intersection.sat_overlap",
          _add(**{"intersection.sat_pairs": lambda a, k, r: r.size,
                  "intersection.sat_hits": lambda a, k, r: np.count_nonzero(r)})),
    Probe(sidedness, "sat_batch", "intersection.sat_cells",
          _add(**{"intersection.sat_pairs": lambda a, k, r: r.size,
                  "intersection.sat_hits": lambda a, k, r: np.count_nonzero(r)})),
    Probe(pipeline, "classify_cells", "sidedness.classify_cells"),
    Probe(sidedness, "cast_parity_many", "sidedness.cast_cells",
          _add(**{"sidedness.points_cast": lambda a, k, r: len(a[0])})),
    Probe(pipeline, "cast_parity_many", "sidedness.cast_passthrough",
          _add(**{"sidedness.points_cast": lambda a, k, r: len(a[0])})),
    Probe(sidedness, "cast_parity", "sidedness.recast",
          _add(**{"sidedness.recasts": lambda a, k, r: 1})),
    Probe(pipeline, "merge_class", "merge.merge_class",
          _add(**{
              "merge.merge_class_calls": lambda a, k, r: 1,
              "merge.boxes_in": lambda a, k, r: len(a[0]),
              "merge.blocks_out": lambda a, k, r: len(r),
          })),
    Probe(merge, "coalesce_binary", "merge.coalesce",
          _add(**{"merge.scan_runs": lambda a, k, r: 1})),
    Probe(merge, "coalesce_persistent", "merge.coalesce",
          _add(**{"merge.scan_runs": lambda a, k, r: 1})),
    Probe(pipeline, "apply_tagging", "tagging.apply_tagging"),
    Probe(pipeline, "restructure", "pipeline.restructure"),
    Probe(pipeline, "merge_model", "pipeline.merge_model"),
    Probe(pipeline, "parallel_map", "parallel.map",
          _add(**{"parallel.tasks": lambda a, k, r: len(a[1])})),
)


class Tracer:
    """Installs the probes on entry and restores the originals on exit."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[ModuleType, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for probe in PROBES:
            original = getattr(probe.module, probe.attr)
            self._saved.append((probe.module, probe.attr, original))
            setattr(probe.module, probe.attr, self._wrap(original, probe))
        return self

    def __exit__(self, *exc: object) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.self_s[probe.span] += duration - children[0]
                self.total_s[probe.span] += duration
            if probe.count is not None:
                probe.count(self.counts, args, kwargs, result)
            return result

        return traced
