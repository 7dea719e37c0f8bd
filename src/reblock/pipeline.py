"""The library's drivers: end-to-end restructuring (overlap → decompose →
classify → merge → tag), whole-model merging, and the octree baseline.

Only the merge's scan patterns run over ``threads`` processes, the
calling process included (:func:`parallel_map`; there is no pool).
Everything else (overlap detection, cell classification, the merge
inputs, tagging and assembly) runs in the calling process alone and is
order-stable, so output models are byte-identical for any thread count.
``merge_model`` and ``restructure`` build every class's merge input
with :func:`class_inputs` before any child process starts:
``merge_model`` from the model's (parent, label) classes,
``restructure`` from the cells of the parents a surface crosses,
classified a window at a time (a slice of the overlap map's parents)
with one cast per surface and one sort of the cells' class keys.  Both
hand their tasks to one merge call (:func:`_merge_tasks`), whose workers
get the lattice and the merge parameters bound into the function they
map.  Restructure then tags every block in one :func:`apply_tagging`
pass: positions come from the class keys, and majorities from one paint
of the merged blocks.
``octree_model`` casts and decomposes a window of parents at a time.

Two consolidation regimes are supported, on one classification and one
class-key layout: crossed parent, label, then per surface a cell's
intersect flag and side.  ``preclassified`` (the default) keeps the side
in the key, so no output block ever mixes cells from both sides of a
surface.  ``legacy-two-set`` zeroes the side columns, so it merges on
intersect/non-intersect alone, and then derives each merged block's
sidedness from a single ray at its centroid — a block straddling a
surface's support edge can swallow cells whose own classification
disagrees.  Both are kept so the difference stays measurable.  With a
diagnostics directory, restructure writes the overlap records and the
cells' sides, which do not depend on the regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

from . import merge
from .errors import ReblockError, ValidationError
from .intersection import detect_overlaps, write_overlap_csv
from .lattice import BlockModel, IntTriple, LatticeSpec, cell_lut, expand_cells, unique_rows
from .merge import (
    MergeParams,
    _check_caps,
    class_inputs,
    merge_class,  # uncalled here; perfbench/tracing.py probes it on this module
    merge_prepared,
)
from .mesh import MeshIndex, TriangleMesh, build_index, integrity_check, load_mesh
from .octree import decompose_parents, validate_dyadic
from .parallel import parallel_map
from .sidedness import (
    SIDE_ABOVE,
    SIDE_BELOW,
    cast_parity_many,
    classify_cells,
    write_sidedness_csv,
)
from .tagging import ACROSS, TaggingInstruction, apply_tagging

Mode = Literal["preclassified", "legacy-two-set"]

# Per-surface block position: tagging's {+1, 0, -1}, plus a sentinel for
# "not classified here — cast a ray from the block centroid".
POS_UNCAST = 2


@dataclass(frozen=True)
class PipelineConfig:
    """Everything restructure needs besides the model itself."""

    instructions: tuple[TaggingInstruction, ...]
    merge_params: MergeParams = MergeParams()
    mode: Mode = "preclassified"
    diagnostics_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("preclassified", "legacy-two-set"):
            raise ValidationError(f"unknown consolidation mode '{self.mode}'")


def load_surface(path: str | Path) -> tuple[TriangleMesh, MeshIndex]:
    """Load, sanity-check and index one surface."""
    mesh, _ = integrity_check(load_mesh(path))
    return mesh, build_index(mesh)


def load_surfaces(
    instructions: Sequence[TaggingInstruction],
) -> list[tuple[TriangleMesh, MeshIndex]]:
    """:func:`load_surface` for each instruction's surface."""
    return [load_surface(i.surface_path) for i in instructions]


# ---------------------------------------------------------------------------
# workers and assembly
# ---------------------------------------------------------------------------

def _merge_parent(
    spec: LatticeSpec, params: MergeParams, task: tuple[IntTriple, list[tuple]]
) -> np.ndarray:
    """(M, 7) rows of cell_min, cell_dims and label: the merge of one
    parent's classes, as :func:`class_inputs` gives them."""
    parent, classes = task
    try:
        rows = []
        for label, inputs in classes:
            merged = merge_prepared(inputs, spec.cell_counts, spec.min_dims, params)
            rows += [(*n, *s, label) for n, s in merged]
        return np.array(rows, dtype=np.int64).reshape(-1, 7)
    except ReblockError as exc:
        raise type(exc)(f"parent {parent}: {exc}") from None


def _merge_tasks(
    spec: LatticeSpec, params: MergeParams, tasks: list[tuple], threads: int
) -> BlockModel:
    """The merged blocks of :func:`class_inputs` tasks over ``threads``
    processes, as one model in task order."""
    results = parallel_map(partial(_merge_parent, spec, params), tasks, threads)
    table = np.concatenate([np.empty((0, 7), dtype=np.int64), *results])
    parents = np.repeat([p for p, _ in tasks], [len(r) for r in results], axis=0)
    return BlockModel.from_columns(spec, parents, table[:, 0:3], table[:, 3:6], table[:, 6])


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def restructure(
    model: BlockModel,
    config: PipelineConfig,
    surfaces: Sequence[tuple[TriangleMesh, MeshIndex]] | None = None,
    threads: int = 1,
) -> BlockModel:
    """Restructure a model against the configured surfaces.

    Parents untouched by every surface pass through with their geometry
    intact (their labels still go through the tagging instructions);
    parents a surface crosses are rebuilt from cells, merged class by
    class, then tagged.  With no instructions the input is returned
    unchanged.

    Crossed parents are taken in raster order, a window of them (a slice of
    the overlap map's) at a time: one paint of their blocks, which the
    model's grouping by parent finds, one :func:`classify_cells`, and
    one :func:`unique_rows` that gives each occupied cell its class, keyed
    by parent, label and per surface its intersect flag and side (0 under
    ``legacy-two-set``).  The classes get ids across windows and, as unit
    cells labelled by class id, go to :func:`class_inputs` and then, all at
    once, to the workers.  A merged block's class key gives its label and
    positions; its cells, painted once for all blocks, count its majority
    side of each surface.  A cell's classification depends on its own
    arithmetic only, so no output depends on the window size or the thread
    count.
    """
    model.validate()
    _check_caps(config.merge_params.max_dims, model.spec.cell_counts)
    if not config.instructions:
        return model
    if surfaces is None:
        surfaces = load_surfaces(config.instructions)
    if len(surfaces) != len(config.instructions):
        raise ValidationError(
            f"{len(surfaces)} surfaces for {len(config.instructions)} instructions"
        )
    spec, params = model.spec, config.merge_params
    kx, ky, kz = spec.cell_counts
    k, n_surfaces = spec.cells_per_parent, len(surfaces)
    directions = [i.positive_direction for i in config.instructions]
    overlap = detect_overlaps(model, surfaces)

    # the crossed parents' blocks, parent by parent: their groups of the
    # model's grouping by parent, one after another
    parents = overlap.parents
    grouped, _, offsets = model.parent_groups
    size = np.diff(offsets)[overlap.group]
    bounds = np.append(0, np.cumsum(size))  # crossed parent i's blocks: bounds[i]:bounds[i + 1]
    crossed_rows = grouped[np.repeat(offsets[overlap.group] - bounds[:-1], size) + np.arange(bounds[-1])]
    through = np.bincount(crossed_rows, minlength=len(model)) == 0
    local = np.indices((kz, ky, kx)).reshape(3, -1)[::-1].T  # raster index -> cell
    # legacy-two-set leaves the side out of the class key: its columns are 0
    keyed = config.mode == "preclassified"
    keys = [np.empty((0, 2 + 2 * n_surfaces), dtype=np.int64)]
    sides, tasks = [np.empty((n_surfaces, 0, k), dtype=np.int8)], []
    step = max(1, merge._CLASS_CELLS // k)
    for first in range(0, len(parents), step):
        window = slice(first, min(first + step, len(parents)))
        rows = crossed_rows[bounds[first] : bounds[window.stop]]
        where = np.repeat(np.arange(first, window.stop), size[window])
        # one paint of the window's blocks, disjoint in a valid model: each
        # occupied cell as (crossed parent * k + raster index), in that order
        ordinal, cell = expand_cells(model.cell_min[rows], model.cell_dims[rows], spec.cell_counts)
        at = where[ordinal] * k + cell
        order = np.argsort(at)
        cells, label = at[order], model.label[rows[ordinal[order]]]
        intersects, window_sides = classify_cells(spec, overlap, surfaces, directions, window)
        # class keys: crossed parent, label, then per surface its intersect
        # flag and side (both 0 where it does not cross the parent); a
        # parent's classes come out in the order of its own keys
        columns = np.stack([intersects, window_sides * keyed], 1)
        columns = columns.reshape(-1, (window.stop - first) * k)[:, cells - first * k].T
        classes, class_of = unique_rows(np.column_stack([cells // k, label, columns]))
        # each window's classes get global ids: the rows of the joined keys
        cell_rows = (parents[cells // k], class_of + sum(map(len, keys)), local[cells % k])
        tasks += class_inputs(*cell_rows, np.ones_like(cell_rows[2]), spec.cell_counts, params.convention)
        keys.append(classes)
        sides.append(window_sides)
    merged = _merge_tasks(spec, params, tasks, threads)

    # positions from the class keys; majorities from one paint of the
    # merged blocks, counting the cells classified above each surface
    key = np.concatenate(keys)[merged.label]
    flags, side = key[:, 2::2], key[:, 3::2]
    sides = np.concatenate(sides, 1)
    ordinal, cell = expand_cells(merged.cell_min, merged.cell_dims, spec.cell_counts)
    painted = sides.reshape(n_surfaces, -1)[:, key[ordinal, 0] * k + cell]
    above = np.array([np.bincount(ordinal[s == SIDE_ABOVE], minlength=len(merged)) for s in painted])
    columns = zip(
        (model.parent, model.cell_min, model.cell_dims, model.label),
        (merged.parent, merged.cell_min, merged.cell_dims, key[:, 1]),
    )
    staged = BlockModel.from_columns(spec, *(np.concatenate([c[through], m]) for c, m in columns))
    kept = (np.count_nonzero(through), n_surfaces)
    positions = np.concatenate([
        np.full(kept, POS_UNCAST), np.where(flags == 1, ACROSS, np.where(side == 0, POS_UNCAST, side))
    ])
    majorities = np.concatenate([
        np.full(kept, SIDE_ABOVE),
        np.where(above * 2 >= merged.cell_dims.prod(axis=1), SIDE_ABOVE, SIDE_BELOW).T,
    ])

    centroids = staged.centroids()
    for sid, (mesh, index) in enumerate(surfaces):
        missing = np.flatnonzero(positions[:, sid] == POS_UNCAST)
        if len(missing):
            cast = cast_parity_many(centroids[missing], mesh, index, directions[sid])
            positions[missing, sid] = cast.sides

    labels = apply_tagging(positions, majorities, staged.label, config.instructions)
    out = BlockModel.from_columns(spec, staged.parent, staged.cell_min, staged.cell_dims, labels)
    out.validate()

    if config.diagnostics_dir is not None:
        diag = Path(config.diagnostics_dir)
        diag.mkdir(parents=True, exist_ok=True)
        write_overlap_csv(diag / "overlap.csv", overlap)
        write_sidedness_csv(diag / "sidedness.csv", spec, parents, sides)
    return out


def merge_model(
    model: BlockModel, params: MergeParams, threads: int = 1
) -> BlockModel:
    """Merge every parent's blocks class-by-class, in parallel over parents.

    The calling process builds every class's kernel input
    (:func:`class_inputs`); the workers run the scan patterns on them.
    """
    model.validate()
    spec = model.spec
    _check_caps(params.max_dims, spec.cell_counts)
    columns = (model.parent, model.label, model.cell_min, model.cell_dims)
    tasks = class_inputs(*columns, spec.cell_counts, params.convention)
    out = _merge_tasks(spec, params, tasks, threads)
    out.validate()
    return out


def octree_model(
    model: BlockModel, surfaces: Sequence[str | Path], depth: int, intra: bool
) -> BlockModel:
    """The octree baseline of a model of complete parents: ``depth`` levels
    deep, with intra-scale merging when ``intra``.

    A label is a bitmask, bit i set below surface i (at most 63 surfaces).
    Parents go in raster order, a window of ``merge._CLASS_CELLS`` cells
    at a time: one cast per surface labels the window's cells, and one
    :func:`decompose_parents` decomposes them, its blocks in level order.
    """
    spec = model.spec
    validate_dyadic(spec.cell_counts, depth)
    if len(surfaces) > 63:
        raise ValidationError(
            f"octree labels hold at most 63 surfaces, one bit each; got {len(surfaces)}"
        )
    loaded = [load_surface(path) for path in surfaces]
    model.validate()  # blocks disjoint and inside their parents: short volume = not covered
    k, (kx, ky, kz) = spec.cells_per_parent, spec.cell_counts
    parents = model.parent_groups[1]
    short = np.flatnonzero(np.bincount(model.parent_of(), model.cell_dims.prod(axis=1), len(parents)) != k)
    if len(short):
        raise ValidationError(
            f"parent {tuple(parents[short[0]].tolist())} is not fully covered; the octree "
            "baseline needs complete parents"
        )
    corners = np.asarray(spec.origin) + parents * np.asarray(spec.parent_dims)
    lut, rows = cell_lut(spec), [np.empty((0, 10), dtype=np.int64)]
    step = max(1, merge._CLASS_CELLS // k)
    for first in range(0, len(parents), step):
        centers = (corners[first : first + step, None] + lut).reshape(-1, 3)
        labels = np.zeros(len(centers), dtype=np.int64)
        for sid, (mesh, index) in enumerate(loaded):
            below = cast_parity_many(centers, mesh, index).sides == SIDE_BELOW
            labels |= below.astype(np.int64) << sid
        leaves = decompose_parents(labels.reshape(-1, kz, ky, kx), depth, intra)
        rows.append(np.column_stack([parents[first + leaves[:, 0]], leaves[:, 1:]]))
    table = np.concatenate(rows)
    return BlockModel.from_columns(spec, table[:, :3], table[:, 3:6], table[:, 6:9], table[:, 9])

