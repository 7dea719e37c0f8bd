"""Block-model data model.

A model is a two-tier lattice: conceptual *parent blocks* tile space on a
regular grid anchored at an origin, and each parent subdivides into an
integer number of *cells* of the minimum block size.  Real blocks are
rectangular unions of whole cells that never straddle a parent boundary.

Blocks are stored as integer cell coordinates plus a parent index; floats
appear only at the I/O boundary.  That keeps disjointness and partition
bookkeeping exact regardless of coordinate magnitude.
"""

from __future__ import annotations

import array
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MisalignedBlock, ValidationError
from .geometry import Vec3, vec3

UNLABELLED = -1

# Boundary points quantize onto the parent grid deterministically when the
# normalized coordinate sits within this distance of an integer.
PARENT_SNAP = 1e-9
# Ingested float geometry may be off-grid by this fraction of the cell size.
INGEST_SNAP = 1e-6

CSV_HEADER = ("x", "y", "z", "dx", "dy", "dz", "label")

IntTriple = tuple[int, int, int]


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice geometry: origin, parent dimensions, minimum block size.

    ``cell_counts`` (cells per parent along x, y, z) is derived; parent
    dimensions must be integer multiples of the minimum block size.
    """

    origin: Vec3
    parent_dims: Vec3
    min_dims: Vec3
    cell_counts: IntTriple = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", vec3(*self.origin))
        object.__setattr__(self, "parent_dims", vec3(*self.parent_dims))
        object.__setattr__(self, "min_dims", vec3(*self.min_dims))
        counts = []
        for axis in range(3):
            p = self.parent_dims[axis]
            d = self.min_dims[axis]
            if p <= 0 or d <= 0:
                raise ValidationError("lattice dimensions must be positive")
            ratio = p / d
            k = round(ratio)
            if k < 1 or abs(ratio - k) > PARENT_SNAP * max(1.0, ratio):
                raise ValidationError(
                    f"parent dims must be integer multiples of min dims; "
                    f"axis {axis}: {p} / {d} = {ratio}"
                )
            counts.append(int(k))
        object.__setattr__(self, "cell_counts", tuple(counts))

    @property
    def cells_per_parent(self) -> int:
        kx, ky, kz = self.cell_counts
        return kx * ky * kz


def parent_index_of(spec: LatticeSpec, point: Vec3 | Sequence[float], context="point") -> IntTriple:
    """Parent containing ``point`` under the lower-closed convention.

    Coordinates within ``PARENT_SNAP`` (relative) of a parent boundary
    snap onto it first, so boundary points land in the parent whose lower
    face they sit on, independent of float noise.
    """
    out = []
    for axis in range(3):
        q = (point[axis] - spec.origin[axis]) / spec.parent_dims[axis]
        if not math.isfinite(q):
            raise ValidationError(f"{context}: non-finite parent index {q}")
        if abs(q) >= 2**62:  # parents are int64, with room for the arithmetic on them
            raise ValidationError(f"{context}: parent index {q} is out of range")
        r = round(q)
        if abs(q - r) <= PARENT_SNAP * max(1.0, abs(q)):
            out.append(int(r))
        else:
            out.append(int(np.floor(q)))
    return (out[0], out[1], out[2])


def parent_min_corner(spec: LatticeSpec, parent: IntTriple) -> Vec3:
    return vec3(
        spec.origin.x + parent[0] * spec.parent_dims.x,
        spec.origin.y + parent[1] * spec.parent_dims.y,
        spec.origin.z + parent[2] * spec.parent_dims.z,
    )


def raster_index(n: IntTriple, counts: IntTriple) -> int:
    """Flat cell index: x fastest, then y, then z.  Takes arrays too."""
    return (n[2] * counts[1] + n[1]) * counts[0] + n[0]


def subscript_of(i: int, counts: IntTriple) -> IntTriple:
    kx, ky, _ = counts
    nx = i % kx
    rest = i // kx
    return (nx, rest % ky, rest // ky)


@dataclass(frozen=True, slots=True)
class Block:
    """An axis-aligned block: whole cells of one parent.

    ``cell_min`` is the lowest-index cell covered and ``cell_dims`` the
    extent in cells; both are exact integers.
    """

    parent: IntTriple
    cell_min: IntTriple
    cell_dims: IntTriple
    label: int = UNLABELLED

    def min_corner(self, spec: LatticeSpec) -> Vec3:
        base = parent_min_corner(spec, self.parent)
        return vec3(
            base.x + self.cell_min[0] * spec.min_dims.x,
            base.y + self.cell_min[1] * spec.min_dims.y,
            base.z + self.cell_min[2] * spec.min_dims.z,
        )

    def dims(self, spec: LatticeSpec) -> Vec3:
        return vec3(
            self.cell_dims[0] * spec.min_dims.x,
            self.cell_dims[1] * spec.min_dims.y,
            self.cell_dims[2] * spec.min_dims.z,
        )


def cells_of(spec: LatticeSpec, block: Block) -> list[IntTriple]:
    """All cell coordinates covered by ``block``, in raster order."""
    counts = spec.cell_counts
    for axis in range(3):
        n0 = block.cell_min[axis]
        s = block.cell_dims[axis]
        if s < 1 or n0 < 0 or n0 + s > counts[axis]:
            raise MisalignedBlock(
                f"block {block.cell_min}+{block.cell_dims} does not fit the "
                f"{counts} cell grid of parent {block.parent}"
            )
    return [
        (nx, ny, nz)
        for nz in range(block.cell_min[2], block.cell_min[2] + block.cell_dims[2])
        for ny in range(block.cell_min[1], block.cell_min[1] + block.cell_dims[1])
        for nx in range(block.cell_min[0], block.cell_min[0] + block.cell_dims[0])
    ]


def cell_lut(spec: LatticeSpec) -> np.ndarray:
    """(K, 3) local centroid offsets, row ``i`` = cell with raster index ``i``."""
    kx, ky, kz = spec.cell_counts
    nz, ny, nx = np.meshgrid(
        np.arange(kz), np.arange(ky), np.arange(kx), indexing="ij"
    )
    offsets = np.empty((spec.cells_per_parent, 3), dtype=np.float64)
    offsets[:, 0] = (nx.ravel() + 0.5) * spec.min_dims.x
    offsets[:, 1] = (ny.ravel() + 0.5) * spec.min_dims.y
    offsets[:, 2] = (nz.ravel() + 0.5) * spec.min_dims.z
    return offsets


def expand_cells(
    cell_min: np.ndarray, cell_dims: np.ndarray, counts: IntTriple
) -> tuple[np.ndarray, np.ndarray]:
    """Every cell of (N, 3) cell boxes on one parent's grid, as ``(ordinal,
    raster index)`` arrays: box after box, each in its own raster order.
    The boxes must have positive extent and fit the grid.
    """
    sx, sy, sz = cell_dims.T
    # a box is sy * sz runs of sx cells with consecutive raster indices, and
    # its run t lies on row t % sy of layer t // sy
    runs = sy * sz
    box = np.repeat(np.arange(len(cell_dims)), runs)
    z, y = np.divmod(np.arange(box.size) - np.repeat(np.cumsum(runs) - runs, runs), sy[box])
    start = raster_index(cell_min.T, counts)[box] + raster_index((0, y, z), counts)
    length = sx[box]
    ordinal = np.repeat(box, length)
    cell = np.repeat(start - (np.cumsum(length) - length), length) + np.arange(ordinal.size)
    return ordinal, cell


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

# validate paints a run of whole parents at a time, those that start within
# one window of painted cells: this many, or a 64th of the model if more
_PAINT_CELLS = 2048


class BlockModel:
    """A lattice spec plus its blocks, as int64 columns: (N, 3) ``parent``,
    ``cell_min`` and ``cell_dims`` and (N,) ``label``, row ``i`` for block
    ordinal ``i``.  ``blocks`` holds the same rows as :class:`Block` objects,
    built when first read.  Treated as immutable once constructed;
    per-parent views are disjoint, which makes parent-parallel work safe.
    """

    def __init__(self, spec: LatticeSpec, blocks: Sequence[Block] = ()) -> None:
        rows = [(*b.parent, *b.cell_min, *b.cell_dims, b.label) for b in blocks]
        table = np.array(rows, dtype=np.int64).reshape(-1, 10)
        self.spec, self._blocks = spec, list(blocks)
        self.parent, self.cell_min, self.cell_dims = table[:, 0:3], table[:, 3:6], table[:, 6:9]
        self.label = table[:, 9]

    @classmethod
    def from_columns(cls, spec: LatticeSpec, parent, cell_min, cell_dims, label) -> BlockModel:
        model = cls.__new__(cls)
        model.spec, model.parent, model.cell_min, model.cell_dims = (
            spec, *(np.asarray(c, dtype=np.int64).reshape(-1, 3) for c in (parent, cell_min, cell_dims))
        )
        model.label, model._blocks = np.asarray(label, dtype=np.int64).reshape(-1), None
        return model

    @property
    def blocks(self) -> list[Block]:
        if self._blocks is None:
            rows = np.column_stack([self.parent, self.cell_min, self.cell_dims, self.label])
            self._blocks = [
                Block(tuple(r[:3]), tuple(r[3:6]), tuple(r[6:9]), r[9]) for r in rows.tolist()
            ]
        return self._blocks

    def __len__(self) -> int:
        return len(self.label)

    def take(self, ordinals) -> BlockModel:
        """The blocks at ``ordinals``, in that order."""
        columns = (self.parent, self.cell_min, self.cell_dims, self.label)
        return BlockModel.from_columns(self.spec, *(c[ordinals] for c in columns))

    def _parent_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Ordinals grouped by parent, parents in raster order (z, then y,
        then x) and input order within each, and a mask of group starts."""
        order = np.lexsort(self.parent.T)
        change = np.ones(len(order), dtype=bool)
        change[1:] = (np.diff(self.parent[order], axis=0) != 0).any(axis=1)
        return order, change

    def by_parent(self) -> dict[IntTriple, list[int]]:
        """Parent index -> ordinals of blocks inside it (input order)."""
        order, change = self._parent_runs()
        starts = np.flatnonzero(change)
        parents = self.parent[order[starts]].tolist()
        return {tuple(p): ids.tolist() for p, ids in zip(parents, np.split(order, starts[1:]))}

    def canonical(self) -> BlockModel:
        """Canonical export order: parent raster, then min-vertex raster."""
        cell = raster_index(self.cell_min.T, self.spec.cell_counts)
        return self.take(np.lexsort((cell, *self.parent.T)))

    def centroids(self) -> np.ndarray:
        """(N, 3) centroids: parent corner + (cell_min + cell_dims / 2) * min_dims."""
        spec = self.spec
        base = np.asarray(spec.origin) + self.parent * np.asarray(spec.parent_dims)
        return base + (self.cell_min + self.cell_dims * 0.5) * np.asarray(spec.min_dims)

    def validate(self) -> None:
        """Check the pairwise-disjointness invariant by cell painting.

        Reports the smallest faulty ordinal and its first faulty axis (an
        empty extent, else leaving the parent) or its overlap with an earlier
        block.  Painting stops at the first block that takes its parent's
        painted volume past the parent's cell count.
        """
        n, k, counts = len(self), self.spec.cells_per_parent, self.spec.cell_counts
        lo, dims = self.cell_min, self.cell_dims
        out = (dims < 1) | (lo < 0) | (lo + dims > np.asarray(counts))
        faulty = np.flatnonzero(out.any(axis=1))
        first = int(faulty[0]) if len(faulty) else n
        order, change = self._parent_runs()
        group = np.cumsum(change) - 1
        volume = dims[order].prod(axis=1)
        volume[order >= first] = 0
        end = np.cumsum(volume)  # painted through each block, over all parents in order
        start = (end - volume)[change][group]  # painted before the block's parent
        past = order[end - start > k]
        stop = min(first, int(past.min()) + 1) if len(past) else first
        window = max(_PAINT_CELLS, int(end[-1]) // 64 if n else 0)
        bounds = [0, *(np.flatnonzero(np.diff(start // window)) + 1).tolist(), n]
        clash = n
        for a, b in zip(bounds, bounds[1:]):
            keep = order[a:b] < stop
            part, grp = order[a:b][keep], group[a:b][keep]
            ordinal, cell = expand_cells(lo[part], dims[part], counts)
            key = grp[ordinal] * k + cell
            rank = np.argsort(key, kind="stable")  # a cell's later painters overlap its first
            again = ordinal[rank[1:][key[rank[1:]] == key[rank[:-1]]]]
            clash = min(clash, int(part[again].min(initial=n)))
        if clash < n:
            parent = tuple(self.parent[clash].tolist())
            raise ValidationError(f"block {clash} overlaps another block in parent {parent}")
        if first < n and dims[first, out[first].argmax()] < 1:
            raise ValidationError(f"block {first} has empty extent")
        if first < n:
            parent = tuple(self.parent[first].tolist())
            raise MisalignedBlock(f"block {first} leaves its parent {parent}")


def paint_parent(
    spec: LatticeSpec, blocks: Sequence[Block] | BlockModel
) -> tuple[np.ndarray, np.ndarray]:
    """Rasterize blocks of one parent onto its cell grid.

    Returns ``(labels, owner)`` arrays of shape (Kz, Ky, Kx): ``labels``
    holds each covering block's label, ``owner`` its ordinal; uncovered
    cells hold UNLABELLED / −1.  Raises on any double-covered cell.
    """
    part = blocks if isinstance(blocks, BlockModel) else BlockModel(spec, blocks)
    ordinal, cell = expand_cells(part.cell_min, part.cell_dims, spec.cell_counts)
    owner = np.full(spec.cell_counts[::-1], -1, dtype=np.int64)
    labels = np.full_like(owner, UNLABELLED)
    owner.ravel()[cell] = ordinal
    if np.count_nonzero(owner >= 0) < len(cell):
        raise ValidationError(f"overlapping blocks in parent {tuple(part.parent[0].tolist())}")
    labels.ravel()[cell] = part.label[ordinal]
    return labels, owner


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def _snap_count(value: float, what: str, context: str) -> int:
    if not math.isfinite(value):
        raise ValidationError(f"{context}: non-finite {what} {value}")
    snapped = round(value)
    if abs(value - snapped) > INGEST_SNAP:
        raise MisalignedBlock(f"{context}: {what} {value} is off-grid")
    return int(snapped)


def block_from_floats(
    spec: LatticeSpec,
    centroid: Sequence[float],
    dims: Sequence[float],
    label: int,
    context: str = "block",
) -> Block:
    """Snap a float (centroid, dims) description onto the cell grid."""
    cell_dims = []
    for axis in range(3):
        if dims[axis] <= 0:
            raise ValidationError(f"{context}: non-positive dimension {dims[axis]}")
        s = _snap_count(dims[axis] / spec.min_dims[axis], "block size", context)
        if s < 1:
            raise MisalignedBlock(f"{context}: dimension below the minimum block size")
        cell_dims.append(s)
    parent = parent_index_of(spec, centroid, context)
    base = parent_min_corner(spec, parent)
    cell_min = []
    for axis in range(3):
        lo = centroid[axis] - dims[axis] * 0.5
        n = _snap_count((lo - base[axis]) / spec.min_dims[axis], "block corner", context)
        if n < 0 or n + cell_dims[axis] > spec.cell_counts[axis]:
            raise MisalignedBlock(
                f"{context}: block straddles a parent boundary on axis {axis}"
            )
        cell_min.append(n)
    return Block(
        parent=parent,
        cell_min=(cell_min[0], cell_min[1], cell_min[2]),
        cell_dims=(cell_dims[0], cell_dims[1], cell_dims[2]),
        label=label,
    )


def read_model_csv(path: str | Path, spec: LatticeSpec) -> BlockModel:
    """Load `x,y,z,dx,dy,dz,label` rows, snap onto the lattice, validate.

    Rows are parsed one at a time, then snapped all at once with the float
    operations of :func:`block_from_floats`, in the same order.  The first
    row in file order with a fault goes through :func:`block_from_floats`,
    which raises that fault's message.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"model file not found: {path}")
    values = array.array("d")  # x, y, z, dx, dy, dz of each row, unboxed
    labels = array.array("q")  # int64: a label outside it fails to append
    lines: list[int] = []
    failure: tuple[str, Exception | None] | None = None
    extend, append, mark = values.extend, labels.append, lines.append  # the hot loop's calls
    with path.open(newline="") as handle:
        header: list[str] | None = None
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if "#" in row[0] and row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [c.strip().lower() for c in row]
                if tuple(header) != CSV_HEADER:
                    raise ValidationError(
                        f"{path}:{lineno}: expected header "
                        f"'{','.join(CSV_HEADER)}', got '{','.join(header)}'"
                    )
                continue
            if len(row) != 7:
                failure = (f"{path}:{lineno}: expected 7 fields, got {len(row)}", None)
                break
            try:
                extend(map(float, row[:6]))
                append(int(row[6]))
            except ValueError as exc:
                failure = (f"{path}:{lineno}: {exc}", exc)
                break
            except OverflowError as exc:
                failure = (f"{path}:{lineno}: label {int(row[6])} is outside int64", exc)
                break
            mark(lineno)
    if header is None:
        raise ValidationError(f"{path}: empty model file")
    # the rows before one the loop rejected are snapped, and may fail, first
    rows = np.asarray(values)[: 6 * len(lines)].reshape(-1, 2, 3)
    centroid, dims = rows.transpose(1, 0, 2)
    origin, pdims, mdims = (np.asarray(v) for v in (spec.origin, spec.parent_dims, spec.min_dims))
    with np.errstate(all="ignore"):  # a non-finite value fails a check
        size = dims / mdims
        cells = np.rint(size)
        q = (centroid - origin) / pdims
        near = np.abs(q - np.rint(q)) <= PARENT_SNAP * np.maximum(1.0, np.abs(q))
        parent = np.where(near, np.rint(q), np.floor(q))
        corner = (centroid - dims * 0.5 - (origin + parent * pdims)) / mdims
        low = np.rint(corner)
        ok = (dims > 0) & (np.abs(size - cells) <= INGEST_SNAP) & (cells >= 1)
        ok &= (np.abs(corner - low) <= INGEST_SNAP) & (np.abs(q) < 2**62)
        ok &= (low >= 0) & (low + cells <= spec.cell_counts)
    bad = np.flatnonzero(~ok.all(axis=1))
    if len(bad):
        i, where = bad[0], f"{path}:{lines[bad[0]]}"
        block_from_floats(spec, centroid[i].tolist(), dims[i].tolist(), labels[i], where)
        raise AssertionError(f"{where}: the bulk snap rejects a row block_from_floats accepts")
    if failure is not None:
        raise ValidationError(failure[0]) from failure[1]
    model = BlockModel.from_columns(spec, parent, low, cells, labels)
    del values, rows, size, cells, q, near, parent, corner, low, ok  # before validate paints
    model.validate()
    return model


_ROW = "%r,%r,%r,%r,%r,%r,%d\n"


def write_model_csv(path: str | Path, model: BlockModel) -> int:
    """Write the model in canonical order; returns the block count.

    Rows go out 4,096 at a time, each chunk one ``%`` format of Python
    floats and ints, so every float is written as its ``repr``.
    """
    ordered = model.canonical()
    floats = np.hstack([ordered.centroids(), ordered.cell_dims * np.asarray(model.spec.min_dims)])
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(CSV_HEADER) + "\n")
        for at in range(0, len(ordered), 4096):
            chunk = [floats[at : at + 4096], ordered.label[at : at + 4096, None]]
            chunk = np.concatenate(chunk, axis=1, dtype=object).ravel().tolist()
            handle.write(_ROW * (len(chunk) // 7) % tuple(chunk))
    return len(ordered)
