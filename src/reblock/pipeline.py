"""End-to-end restructuring: overlap → decompose → classify → merge → tag.

The per-parent middle stages are independent and run on a process pool;
everything that crosses parents (overlap detection, tagging, assembly)
is single-threaded and order-stable, so output models are byte-identical
for any thread count.  ``merge_model`` also builds every class's merge
input before the pool starts, a window of whole parents at a time, so
its workers run only the scan patterns.

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
from .intersection import OverlapMap, detect_overlaps, write_overlap_csv
from .lattice import BlockModel, IntTriple, LatticeSpec, expand_cells, paint_parent
from .merge import (
    MergeParams,
    _check_caps,
    class_contacts,
    merge_class,  # uncalled here; perfbench/tracing.py probes it on this module
    merge_grid,
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
# per-parent worker
# ---------------------------------------------------------------------------

# Read-only context shared by every worker; sent once per process by the
# pool initializer (or set in-process for single-threaded runs).
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


@dataclass
class _ParentOut:
    parent: IntTriple
    blocks: np.ndarray  # (n_blocks, 7) rows, as _assemble takes them
    positions: np.ndarray  # (n_blocks, n_surfaces) int8
    majorities: np.ndarray  # (n_blocks, n_surfaces) int8
    classification: object | None = None


def _restructure_parent(
    task: tuple[IntTriple, BlockModel, dict[int, np.ndarray]],
) -> _ParentOut:
    parent, blocks, per_surface = task
    try:
        return _restructure_parent_inner(parent, blocks, per_surface)
    except ReblockError as exc:
        raise type(exc)(f"parent {parent}: {exc}") from None


def _restructure_parent_inner(
    parent: IntTriple,
    blocks: BlockModel,
    per_surface: dict[int, np.ndarray],
) -> _ParentOut:
    spec: LatticeSpec = _CTX["spec"]
    surfaces = _CTX["surfaces"]
    directions = _CTX["directions"]
    params: MergeParams = _CTX["params"]
    preclassified = _CTX["mode"] == "preclassified"
    n_surfaces = len(surfaces)
    counts = spec.cell_counts
    kx, ky, kz = counts

    labels_grid, owner = paint_parent(spec, blocks)
    flat_labels = labels_grid.reshape(-1)
    occupied = np.flatnonzero(owner.reshape(-1) != -1)

    cls = classify_cells(
        spec, parent, surfaces, OverlapMap(parents={parent: per_surface}), directions
    )
    sides_grid = cls.sides.reshape(len(cls.surface_ids), kz, ky, kx)

    columns = [flat_labels]
    for row in range(len(cls.surface_ids)):
        columns.append(cls.intersects[row].astype(np.int64))
        if preclassified:
            columns.append(cls.sides[row].astype(np.int64))
    keys = np.stack(columns, axis=1)[occupied]
    classes, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()

    # a cell's ordinal, a unit block of its own: its raster rank in its class
    order = np.argsort(inverse, kind="stable")
    rank = np.arange(len(order)) - np.searchsorted(inverse[order], inverse[order])
    class_grid, rank_grid = np.full((2, kz, ky, kx), -1, dtype=np.int64)
    class_grid.ravel()[occupied], rank_grid.ravel()[occupied[order]] = inverse, rank
    rows, class_of = [], []
    for class_id, key in enumerate(classes):
        ordinals = np.where(class_grid == class_id, rank_grid, -1)
        merged = merge_grid(ordinals, counts, spec.min_dims, params)
        rows += [(*n, *s, int(key[0])) for n, s in merged]
        class_of += [class_id] * len(merged)
    out_blocks = np.array(rows, dtype=np.int64).reshape(-1, 7)

    n_blocks = len(out_blocks)
    lo = out_blocks[:, 0:3]
    hi = lo + out_blocks[:, 3:6]
    above = _above_counts(sides_grid, lo, hi)
    positions = np.full((n_blocks, n_surfaces), POS_UNCAST, dtype=np.int8)
    majorities = np.full((n_blocks, n_surfaces), SIDE_ABOVE, dtype=np.int8)
    majorities[:, cls.surface_ids] = np.where(
        above * 2 >= (hi - lo).prod(axis=1), SIDE_ABOVE, SIDE_BELOW
    ).T
    # class key columns: the label, then per tested surface its intersect
    # flag and, when preclassified, its side
    stride = 2 if preclassified else 1
    key_rows = classes[class_of]
    sides = key_rows[:, 2::stride] if preclassified else POS_UNCAST
    positions[:, cls.surface_ids] = np.where(key_rows[:, 1::stride] != 0, ACROSS, sides)

    return _ParentOut(
        parent=parent,
        blocks=out_blocks,
        positions=positions,
        majorities=majorities,
        classification=cls if _CTX.get("keep_classifications") else None,
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
    spec = model.spec
    directions = [i.positive_direction for i in config.instructions]
    overlap = detect_overlaps(model, surfaces)

    by_parent = model.by_parent()
    crossed = sorted(
        overlap.intersecting_parents(), key=lambda p: (p[2], p[1], p[0])
    )
    tasks = [
        (parent, model.take(by_parent[parent]), overlap.surfaces_of(parent))
        for parent in crossed
    ]
    ctx = {
        "spec": spec,
        "surfaces": list(surfaces),
        "directions": directions,
        "params": config.merge_params,
        "mode": config.mode,
        "keep_classifications": config.diagnostics_dir is not None,
    }
    results = parallel_map(
        _restructure_parent, tasks, threads, initializer=_set_context, initargs=(ctx,)
    )

    through = np.ones(len(model), dtype=bool)
    for parent in crossed:
        through[by_parent[parent]] = False
    n_surfaces = len(surfaces)
    kept = np.column_stack([model.cell_min, model.cell_dims, model.label])[through]
    staged = _assemble(
        spec, [(model.parent[through], kept), *((r.parent, r.blocks) for r in results)]
    )
    positions = np.concatenate(
        [np.full((len(kept), n_surfaces), POS_UNCAST, dtype=np.int8)]
        + [r.positions for r in results]
    )
    majorities = np.concatenate(
        [np.full((len(kept), n_surfaces), SIDE_ABOVE, dtype=np.int8)]
        + [r.majorities for r in results]
    )

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
        write_sidedness_csv(
            diag / "sidedness.csv",
            spec,
            [r.classification for r in results if r.classification is not None],
            n_surfaces,
        )
    return out


# merge_model builds the classes of a run of whole parents at a time, those
# whose first class starts within one window of this many class-grid cells
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
