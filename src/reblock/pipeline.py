"""End-to-end restructuring: overlap → decompose → classify → merge → tag.

Only the merge's scan patterns run over ``threads`` processes, the
calling process included (:func:`parallel_map`; there is no pool).
Everything else (overlap detection, cell classification, the merge
inputs, tagging and assembly) runs in the calling process alone and is
order-stable, so output models are byte-identical for any thread count.
``merge_model`` and ``restructure`` build every class's merge input
before any child process starts, a window of whole parents at a time
(:func:`_merge_tasks`): ``merge_model`` from the model's (parent, label)
classes, ``restructure`` from the cells of the parents a surface
crosses, classified a window at a time with one cast per surface and one
sort of the cells' class keys.

Two consolidation regimes are supported.  ``preclassified`` (the
default) folds each cell's per-surface sidedness into its merge class,
so no output block ever mixes cells from both sides of a surface.
``legacy-two-set`` merges on intersect/non-intersect alone and then
derives each merged block's sidedness from a single ray at its centroid
— cheaper, but a block straddling a surface's support edge can swallow
cells whose own classification disagrees.  Both are kept so the
difference stays measurable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import ReblockError, ValidationError
from .intersection import detect_overlaps, write_overlap_csv
from .lattice import BlockModel, IntTriple, LatticeSpec, expand_cells, unique_rows
from .merge import (
    MergeParams,
    _check_caps,
    class_contacts,
    merge_class,  # uncalled here; perfbench/tracing.py probes it on this module
    merge_prepared,
    mirror_layers,
)
from .mesh import (
    MeshIndex,
    RefineParams,
    TriangleMesh,
    build_index,
    integrity_check,
    load_mesh,
    refine_mesh,
)
from .parallel import parallel_map
from .sidedness import (
    SIDE_ABOVE,
    SIDE_BELOW,
    CellClassification,
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
    refine_params: RefineParams | None = None
    diagnostics_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("preclassified", "legacy-two-set"):
            raise ValidationError(f"unknown consolidation mode '{self.mode}'")


def load_surface(
    path: str | Path, refine_params: RefineParams | None = None
) -> tuple[TriangleMesh, MeshIndex]:
    """Load, sanity-check, optionally refine, and index one surface."""
    if not Path(path).is_file():
        raise ValidationError(f"surface file not found: {path}")
    mesh, _ = integrity_check(load_mesh(path))
    if refine_params is not None:
        mesh = refine_mesh(mesh, refine_params)
    return mesh, build_index(mesh)


def load_surfaces(
    instructions: Sequence[TaggingInstruction],
    refine_params: RefineParams | None = None,
) -> list[tuple[TriangleMesh, MeshIndex]]:
    """:func:`load_surface` for each instruction's surface."""
    return [load_surface(i.surface_path, refine_params) for i in instructions]


# ---------------------------------------------------------------------------
# worker context and assembly
# ---------------------------------------------------------------------------

# Read-only context shared by every process that merges; set once per
# process by parallel_map's initializer, in the caller as in each child.
_CTX: dict = {}


def _set_context(ctx: dict) -> None:
    _CTX.clear()
    _CTX.update(ctx)


def _assemble(spec: LatticeSpec, parts: Iterable[tuple]) -> BlockModel:
    """One model from ``(parent, rows)`` parts, in order: a (3,) or (M, 3)
    parent and (M, 7) rows of cell_min, cell_dims and label."""
    parents, rows = [np.empty((0, 3), dtype=np.int64)], [np.empty((0, 7), dtype=np.int64)]
    for parent, part in parts:
        parents.append(np.broadcast_to(parent, (len(part), 3)))
        rows.append(part)
    table = np.concatenate(rows)
    return BlockModel.from_columns(
        spec, np.concatenate(parents), table[:, 0:3], table[:, 3:6], table[:, 6]
    )


def _above_counts(sides_grid: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(S, N) count of cells classified above each surface row of the
    (S, z, y, x) ``sides_grid`` inside each cell box [lo, hi) (x, y, z
    columns), by inclusion-exclusion on a summed-volume table."""
    table = np.zeros(np.add(sides_grid.shape, (0, 1, 1, 1)), dtype=np.int64)
    table[:, 1:, 1:, 1:] = (sides_grid == SIDE_ABOVE).cumsum(1).cumsum(2).cumsum(3)
    out = np.zeros((len(sides_grid), len(lo)), dtype=np.int64)
    for corner in itertools.product((0, 1), repeat=3):
        x, y, z = ((hi if c else lo)[:, k] for k, c in enumerate(corner))
        out += (-1) ** (3 - sum(corner)) * table[:, z, y, x]
    return out


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

    Crossed parents are taken in raster order, a window of them at a time:
    one paint of their blocks, one :func:`classify_cells`, and one
    :func:`unique_rows` that gives each occupied cell its class, keyed by
    parent, label and per-surface flags.  The classes, as a model of unit
    cells labelled by class, go to :func:`_merge_tasks` and the workers,
    as :func:`merge_model`'s classes do.  A cell's classification depends
    on its own arithmetic only, so no output depends on the window size or
    the thread count.
    """
    model.validate()
    _check_caps(config.merge_params.max_dims, model.spec.cell_counts)
    if not config.instructions:
        return model
    if surfaces is None:
        surfaces = load_surfaces(config.instructions, config.refine_params)
    if len(surfaces) != len(config.instructions):
        raise ValidationError(
            f"{len(surfaces)} surfaces for {len(config.instructions)} instructions"
        )
    spec, params = model.spec, config.merge_params
    kx, ky, kz = spec.cell_counts
    k, n_surfaces = spec.cells_per_parent, len(surfaces)
    directions = [i.positive_direction for i in config.instructions]
    overlap = detect_overlaps(model, surfaces)

    by_parent = model.by_parent()
    crossed = sorted(overlap.intersecting_parents(), key=lambda p: (p[2], p[1], p[0]))
    through = np.ones(len(model), dtype=bool)
    local = np.indices((kz, ky, kx)).reshape(3, -1)[::-1].T  # raster index -> cell
    windows, tasks, classified = [], [], []
    step = max(1, _CLASS_CELLS // k)
    for window in (crossed[i : i + step] for i in range(0, len(crossed), step)):
        rows = [by_parent[p] for p in window]
        where = np.repeat(np.arange(len(window)), [len(r) for r in rows])
        rows = np.concatenate(rows)
        through[rows] = False
        # one paint of the window's blocks, disjoint in a valid model: each
        # occupied cell as (window parent * k + raster index), in that order
        ordinal, cell = expand_cells(model.cell_min[rows], model.cell_dims[rows], spec.cell_counts)
        at = where[ordinal] * k + cell
        order = np.argsort(at)
        cells, label = at[order], model.label[rows[ordinal[order]]]
        intersects, sides = classify_cells(spec, window, surfaces, overlap, directions)
        # class keys: window parent, label, then per surface its intersect
        # flag, -1 where it does not cross the parent, and when preclassified
        # its side; a parent's classes come out in the order of its own keys
        flags = np.where(sides != 0, intersects, -1)
        columns = np.stack([flags, sides], 1) if config.mode == "preclassified" else flags[:, None]
        keys = np.column_stack([cells // k, label, columns.reshape(-1, len(window) * k)[:, cells].T])
        classes, class_of = unique_rows(keys)
        parents = np.array(window)
        unit = BlockModel.from_columns(
            spec, parents[cells // k], local[cells % k], np.ones((len(cells), 3)), class_of
        )
        tasks += _merge_tasks(unit, params)
        # the window's parents stacked along z, for _above_counts
        windows.append((parents, classes, sides.reshape(n_surfaces, -1, ky, kx)))
        if config.diagnostics_dir is not None:
            for w, parent in enumerate(window):
                ids = sorted(overlap.surfaces_of(parent))
                classified.append(CellClassification(parent, ids, intersects[ids, w], sides[ids, w]))
    ctx = {"spec": spec, "params": params}
    results = parallel_map(
        _merge_parent, tasks, threads, initializer=_set_context, initargs=(ctx,)
    )

    kept = np.column_stack([model.cell_min, model.cell_dims, model.label])[through]
    parts = [(model.parent[through], kept)]
    positions = [np.full((len(kept), n_surfaces), POS_UNCAST)]
    majorities = [np.full((len(kept), n_surfaces), SIDE_ABOVE)]
    done = 0
    for parents, classes, sides_grid in windows:
        blocks = np.concatenate(results[done : done + len(parents)])
        done += len(parents)
        key = classes[blocks[:, 6]]
        lo, dims = blocks[:, 0:3], blocks[:, 3:6]
        lift = key[:, :1] * [0, 0, kz]
        above = _above_counts(sides_grid, lo + lift, lo + dims + lift)
        majorities.append(np.where(above * 2 >= dims.prod(axis=1), SIDE_ABOVE, SIDE_BELOW).T)
        flags = key[:, 2::2] if config.mode == "preclassified" else key[:, 2:]
        side = key[:, 3::2] if config.mode == "preclassified" else POS_UNCAST
        positions.append(np.where(flags == 1, ACROSS, np.where(flags == 0, side, POS_UNCAST)))
        parts.append((parents[key[:, 0]], np.column_stack([lo, dims, key[:, 1]])))
    staged = _assemble(spec, parts)
    positions, majorities = np.concatenate(positions), np.concatenate(majorities)

    centroids = staged.centroids()
    for sid, instr in enumerate(config.instructions):
        missing = np.flatnonzero(positions[:, sid] == POS_UNCAST)
        if len(missing) == 0:
            continue
        mesh, index = surfaces[sid]
        batch = cast_parity_many(
            centroids[missing], mesh, index, instr.positive_direction
        )
        positions[missing, sid] = batch.sides

    labels = apply_tagging(positions, majorities, staged.label, config.instructions)
    out = BlockModel.from_columns(
        spec, staged.parent, staged.cell_min, staged.cell_dims, labels
    )
    out.validate()

    if config.diagnostics_dir is not None:
        diag = Path(config.diagnostics_dir)
        diag.mkdir(parents=True, exist_ok=True)
        write_overlap_csv(diag / "overlap.csv", overlap)
        write_sidedness_csv(diag / "sidedness.csv", spec, classified, n_surfaces)
    return out


# _merge_tasks builds the classes of a run of whole parents at a time, those
# whose first class starts within one window of this many class-grid cells;
# restructure classifies this many cells, or one parent's, at a time
_CLASS_CELLS = 1 << 15


def _merge_tasks(model: BlockModel, params: MergeParams) -> list[tuple]:
    """One task per parent, parents in raster order: the parent and, per
    label ascending, the label and its class's input to
    :func:`merge_prepared`, boxes in input order.

    Each window of parents is painted with one ``expand_cells`` call:
    under dissolved, onto one occupancy map per class, packed with one
    :func:`mirror_layers`; under persistent, onto (parents, z, y, x) grids
    of class and ordinal within the class, read by one
    :func:`class_contacts`.  The model must be valid.
    """
    counts, k = model.spec.cell_counts, model.spec.cells_per_parent
    order = np.lexsort((model.label, *model.parent.T))
    parent, label = model.parent[order], model.label[order]
    lo, dims = model.cell_min[order], model.cell_dims[order]
    n = len(order)
    new_parent = np.ones(n, dtype=bool)
    new_parent[1:] = (parent[1:] != parent[:-1]).any(axis=1)
    new_class = new_parent.copy()
    new_class[1:] |= label[1:] != label[:-1]
    parent_of, class_of = np.cumsum(new_parent) - 1, np.cumsum(new_class) - 1
    class_start = np.append(np.flatnonzero(new_class), n)  # rows, per class
    parent_start = np.append(class_of[new_parent], len(class_start) - 1)  # classes, per parent
    rank = np.arange(n) - class_start[class_of]
    window = np.flatnonzero(np.diff(parent_start[:-1] // max(1, _CLASS_CELLS // k))) + 1
    inputs: list = []
    if params.convention == "persistent":
        boxes = np.stack([lo, dims], axis=1)
    for p0, p1 in zip([0, *window], [*window, len(parent_start) - 1]):
        c0, c1 = parent_start[p0], parent_start[p1]
        r0, r1 = class_start[c0], class_start[c1]
        ordinal, cell = expand_cells(lo[r0:r1], dims[r0:r1], counts)
        row = ordinal + r0
        if params.convention == "dissolved":
            theta = np.zeros((c1 - c0, k), dtype=bool)
            theta[class_of[row] - c0, cell] = True
            layers = mirror_layers(theta.reshape(-1, *counts[::-1]))
            step = 4 * counts[2]
            inputs += [layers[i : i + step] for i in range(0, len(layers), step)]
        else:
            grid = np.full((2, (p1 - p0) * k), -1, dtype=np.int64)
            at = (parent_of[row] - p0) * k + cell
            grid[0, at], grid[1, at] = class_of[row] - c0, rank[row]
            grid = grid.reshape(2, p1 - p0, *counts[::-1])
            contacts = class_contacts(grid[0], grid[1], np.diff(class_start[c0 : c1 + 1]))
            bounds = class_start[c0 : c1 + 1].tolist()
            inputs += [(boxes[i:j], t) for i, j, t in zip(bounds, bounds[1:], contacts)]
    labels = label[class_start[:-1]].tolist()
    parents = parent[class_start[parent_start[:-1]]].tolist()
    bounds = parent_start.tolist()
    return [
        (tuple(p), list(zip(labels[i:j], inputs[i:j])))
        for p, i, j in zip(parents, bounds, bounds[1:])
    ]


def _merge_parent(task: tuple[IntTriple, list[tuple]]) -> np.ndarray:
    parent, classes = task
    try:
        spec: LatticeSpec = _CTX["spec"]
        params: MergeParams = _CTX["params"]
        rows = []
        for label, inputs in classes:
            merged = merge_prepared(inputs, spec.cell_counts, spec.min_dims, params)
            rows += [(*n, *s, label) for n, s in merged]
        return np.array(rows, dtype=np.int64).reshape(-1, 7)
    except ReblockError as exc:
        raise type(exc)(f"parent {parent}: {exc}") from None


def merge_model(
    model: BlockModel, params: MergeParams, threads: int = 1
) -> BlockModel:
    """Merge every parent's blocks class-by-class, in parallel over parents.

    The calling process builds every class's kernel input
    (:func:`_merge_tasks`); the workers run the scan patterns on them.
    """
    model.validate()
    _check_caps(params.max_dims, model.spec.cell_counts)
    tasks = _merge_tasks(model, params)
    ctx = {"spec": model.spec, "params": params}
    results = parallel_map(
        _merge_parent, tasks, threads, initializer=_set_context, initargs=(ctx,)
    )
    out = _assemble(model.spec, ((parent, rows) for (parent, _), rows in zip(tasks, results)))
    out.validate()
    return out


def heal_and_merge(
    model: BlockModel, params: MergeParams | None = None, threads: int = 1
) -> BlockModel:
    """Re-merge a labelled model to heal fragmentation left by old boundaries.

    Healing dissolves block boundaries within each (parent, label) class,
    so blocks split by a surface that later lost its meaning coalesce
    again.
    """
    if params is None:
        params = MergeParams(convention="dissolved")
    if params.convention != "dissolved":
        raise ValidationError("healing requires the dissolved convention")
    return merge_model(model, params, threads)
