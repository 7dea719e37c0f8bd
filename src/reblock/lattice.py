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

import csv
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


def parent_index_of(spec: LatticeSpec, point: Vec3 | Sequence[float]) -> IntTriple:
    """Parent containing ``point`` under the lower-closed convention.

    Coordinates within ``PARENT_SNAP`` (relative) of a parent boundary
    snap onto it first, so boundary points land in the parent whose lower
    face they sit on, independent of float noise.
    """
    out = []
    for axis in range(3):
        q = (point[axis] - spec.origin[axis]) / spec.parent_dims[axis]
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
    """Flat cell index: x fastest, then y, then z."""
    return (n[2] * counts[1] + n[1]) * counts[0] + n[0]


def subscript_of(i: int, counts: IntTriple) -> IntTriple:
    kx, ky, _ = counts
    nx = i % kx
    rest = i // kx
    return (nx, rest % ky, rest // ky)


@dataclass(frozen=True)
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

    def centroid(self, spec: LatticeSpec) -> Vec3:
        base = parent_min_corner(spec, self.parent)
        return vec3(
            base.x + (self.cell_min[0] + self.cell_dims[0] * 0.5) * spec.min_dims.x,
            base.y + (self.cell_min[1] + self.cell_dims[1] * 0.5) * spec.min_dims.y,
            base.z + (self.cell_min[2] + self.cell_dims[2] * 0.5) * spec.min_dims.z,
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


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

@dataclass
class BlockModel:
    """A lattice spec plus the blocks living on it.

    Treated as immutable once constructed; per-parent views are disjoint,
    which is what makes parent-parallel processing safe.
    """

    spec: LatticeSpec
    blocks: list[Block]

    def __len__(self) -> int:
        return len(self.blocks)

    def by_parent(self) -> dict[IntTriple, list[int]]:
        """Parent index -> ordinals of blocks inside it (input order)."""
        out: dict[IntTriple, list[int]] = {}
        for ordinal, block in enumerate(self.blocks):
            out.setdefault(block.parent, []).append(ordinal)
        return out

    def sorted_blocks(self) -> list[Block]:
        """Canonical export order: parent raster, then min-vertex raster."""
        counts = self.spec.cell_counts

        def key(block: Block) -> tuple:
            px, py, pz = block.parent
            return (pz, py, px, raster_index(block.cell_min, counts))

        return sorted(self.blocks, key=key)

    def validate(self) -> None:
        """Check the pairwise-disjointness invariant by cell painting."""
        counts = self.spec.cell_counts
        kx, ky, kz = counts
        grids: dict[IntTriple, np.ndarray] = {}
        for ordinal, block in enumerate(self.blocks):
            for axis in range(3):
                if block.cell_dims[axis] < 1:
                    raise ValidationError(f"block {ordinal} has empty extent")
                if (
                    block.cell_min[axis] < 0
                    or block.cell_min[axis] + block.cell_dims[axis] > counts[axis]
                ):
                    raise MisalignedBlock(
                        f"block {ordinal} leaves its parent {block.parent}"
                    )
            grid = grids.get(block.parent)
            if grid is None:
                grid = np.zeros((kz, ky, kx), dtype=bool)
                grids[block.parent] = grid
            nx, ny, nz = block.cell_min
            sx, sy, sz = block.cell_dims
            window = grid[nz : nz + sz, ny : ny + sy, nx : nx + sx]
            if window.any():
                raise ValidationError(
                    f"block {ordinal} overlaps another block in parent {block.parent}"
                )
            window[:] = True


def paint_parent(
    spec: LatticeSpec, blocks: Sequence[Block]
) -> tuple[np.ndarray, np.ndarray]:
    """Rasterize blocks of one parent onto its cell grid.

    Returns ``(labels, owner)`` arrays of shape (Kz, Ky, Kx): ``labels``
    holds each covering block's label, ``owner`` its ordinal; uncovered
    cells hold UNLABELLED / −1.  Raises on any double-covered cell.
    """
    kx, ky, kz = spec.cell_counts
    labels = np.full((kz, ky, kx), UNLABELLED, dtype=np.int64)
    owner = np.full((kz, ky, kx), -1, dtype=np.int64)
    for pos, block in enumerate(blocks):
        nx, ny, nz = block.cell_min
        sx, sy, sz = block.cell_dims
        window = owner[nz : nz + sz, ny : ny + sy, nx : nx + sx]
        if (window != -1).any():
            raise ValidationError(f"overlapping blocks in parent {block.parent}")
        window[:] = pos
        labels[nz : nz + sz, ny : ny + sy, nx : nx + sx] = block.label
    return labels, owner


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def _snap_count(value: float, what: str, context: str) -> int:
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
    parent = parent_index_of(spec, centroid)
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
    """Load `x,y,z,dx,dy,dz,label` rows, snap onto the lattice, validate."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"model file not found: {path}")
    blocks: list[Block] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header: list[str] | None = None
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
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
                raise ValidationError(
                    f"{path}:{lineno}: expected 7 fields, got {len(row)}"
                )
            try:
                centroid = (float(row[0]), float(row[1]), float(row[2]))
                dims = (float(row[3]), float(row[4]), float(row[5]))
                label = int(row[6])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            blocks.append(
                block_from_floats(spec, centroid, dims, label, f"{path}:{lineno}")
            )
    if header is None:
        raise ValidationError(f"{path}: empty model file")
    model = BlockModel(spec=spec, blocks=blocks)
    model.validate()
    return model


def write_model_csv(path: str | Path, model: BlockModel) -> int:
    """Write the model in canonical order; returns the block count."""
    spec = model.spec
    ordered = model.sorted_blocks()
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(CSV_HEADER) + "\n")
        for block in ordered:
            c = block.centroid(spec)
            d = block.dims(spec)
            handle.write(
                f"{c.x!r},{c.y!r},{c.z!r},{d.x!r},{d.y!r},{d.z!r},{block.label}\n"
            )
    return len(ordered)
