"""One pass of each workload through the public ``reblock`` API.

A pass makes the calls the CLI subcommand makes -- read the model CSV,
load the surfaces, restructure or merge, write the CSV -- and times
them.  Checks run after the clock stops.  Every function is looked up
on its module at call time, so a tracer that replaces a module
attribute sees the call.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from reblock import lattice, merge, metrics, pipeline, tagging
from reblock.errors import ReblockError

from scenes import Scene


@dataclass
class Pass:
    wall_s: float
    setup_s: float
    blocks_out: int
    digest: str


def _spec(scene: Scene) -> lattice.LatticeSpec:
    return lattice.LatticeSpec(scene.origin, scene.parent_dims, scene.min_dims)


def run_pass(scene: Scene, out: Path, threads: int) -> tuple[Pass, lattice.BlockModel]:
    """Time one end-to-end run; returns the timings and the output model."""
    t0 = time.perf_counter()
    model = lattice.read_model_csv(scene.model, _spec(scene))
    if scene.config is None:
        setup = time.perf_counter() - t0
        result = pipeline.merge_model(
            model, merge.MergeParams(convention=scene.convention), threads=threads
        )
        n = lattice.write_model_csv(out, result)
        metrics.write_stats_csv(out.with_suffix(".stats.csv"), metrics.compute_stats(result))
    else:
        instructions = tuple(tagging.parse_instruction_file(scene.config))
        surfaces = pipeline.load_surfaces(instructions)
        setup = time.perf_counter() - t0
        config = pipeline.PipelineConfig(
            instructions=instructions,
            merge_params=merge.MergeParams(convention=scene.convention),
            mode="preclassified",
        )
        result = pipeline.restructure(model, config, surfaces=surfaces, threads=threads)
        n = lattice.write_model_csv(out, result)
    wall = time.perf_counter() - t0
    return Pass(wall, setup, n, sha256(out)), result


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cells(model: lattice.BlockModel, by_label: bool) -> Counter:
    totals: Counter = Counter()
    for b in model.blocks:
        sx, sy, sz = b.cell_dims
        totals[(b.parent, b.label) if by_label else b.parent] += sx * sy * sz
    return totals


def check_output(scene: Scene, result: lattice.BlockModel) -> str | None:
    """Invariants that hold for any seed; None when the output passes.

    ``validate`` checks that output blocks are disjoint.  Restructuring
    must cover exactly the input's cells in every parent, and merging
    must also keep every label's cell count per parent.
    """
    try:
        result.validate()
    except ReblockError as exc:
        return f"validate: {type(exc).__name__}: {exc}"
    source = lattice.read_model_csv(scene.model, _spec(scene))
    by_label = scene.config is None
    if _cells(source, by_label) != _cells(result, by_label):
        return "output does not cover the input's cells" + (" per label" if by_label else "")
    return None
