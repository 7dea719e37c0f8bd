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

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MisalignedBlock, ValidationError
from .geometry import Vec3
from .tables import parse_table, read_text

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
        for name in ("origin", "parent_dims", "min_dims"):
            v = tuple(float(c) for c in getattr(self, name))
            if not np.isfinite(v).all():
                raise ValidationError(f"lattice {name} must be finite, got {v}")
            object.__setattr__(self, name, Vec3(*v))
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


def raster_index(n: IntTriple, counts: IntTriple) -> int:
    """Flat cell index: x fastest, then y, then z.  Takes arrays too."""
    return (n[2] * counts[1] + n[1]) * counts[0] + n[0]


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


def cell_runs(
    cell_min: np.ndarray, cell_dims: np.ndarray, counts: IntTriple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every x-run of (N, 3) cell boxes on one parent's grid, as
    ``(ordinal, first raster index, length)`` arrays: box after box, each
    box's sy * sz runs of sx cells in raster order.  The boxes must have
    positive extent and fit the grid.
    """
    sx, sy, sz = cell_dims.T
    # a box's run t lies on row t % sy of layer t // sy
    runs = sy * sz
    box = np.repeat(np.arange(len(cell_dims)), runs)
    z, y = np.divmod(np.arange(box.size) - np.repeat(np.cumsum(runs) - runs, runs), sy[box])
    first = raster_index(cell_min.T, counts)[box] + raster_index((0, y, z), counts)
    return box, first, sx[box]


def expand_cells(
    cell_min: np.ndarray, cell_dims: np.ndarray, counts: IntTriple
) -> tuple[np.ndarray, np.ndarray]:
    """Every cell of (N, 3) cell boxes on one parent's grid, as ``(ordinal,
    raster index)`` arrays: box after box, each in its own raster order.
    The boxes must have positive extent and fit the grid.
    """
    box, first, length = cell_runs(cell_min, cell_dims, counts)
    ordinal = np.repeat(box, length)
    cell = np.repeat(first - (np.cumsum(length) - length), length) + np.arange(ordinal.size)
    return ordinal, cell


def runs_disjoint(first: np.ndarray, length: np.ndarray) -> bool:
    """Whether the runs of cells ``[first, first + length)`` are pairwise
    disjoint: sorted by first cell, every run ends at or before the next
    one starts."""
    rank = np.argsort(first)
    first = first[rank]
    return bool((first[:-1] + length[rank[:-1]] <= first[1:]).all())


def unique_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(table, axis=0, return_inverse=True)`` of an (N, C) integer
    table, by one ``np.lexsort`` rather than a sort of rows as opaque
    records: the distinct rows in ascending order, and each row's index
    among them."""
    order = np.lexsort(table.T[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for column in table[order].T:  # column by column: a reduction over short rows is slow
        new[1:] |= column[1:] != column[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return table[order[new]], inverse


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

# validate checks a run of whole parents at a time, those that start within
# one window of cells: this many, or a 64th of the model if more.  The
# window bounds the cells painted when its x-runs overlap
_PAINT_CELLS = 1 << 16


class BlockModel:
    """A lattice spec plus its blocks, as int64 columns: (N, 3) ``parent``,
    ``cell_min`` and ``cell_dims`` and (N,) ``label``, row ``i`` for block
    ordinal ``i``.  ``blocks`` holds the same rows as :class:`Block` objects,
    built when first read.  The columns are read-only views, so a model
    that passed :meth:`validate` is not checked again; per-parent views
    are disjoint, which makes parent-parallel work safe.
    """

    def __init__(self, spec: LatticeSpec, blocks: Sequence[Block] = ()) -> None:
        rows = [(*b.parent, *b.cell_min, *b.cell_dims, b.label) for b in blocks]
        table = np.array(rows, dtype=np.int64).reshape(-1, 10)
        table.flags.writeable = False
        self.spec, self._blocks, self._valid = spec, list(blocks), False
        self.parent, self.cell_min, self.cell_dims = table[:, 0:3], table[:, 3:6], table[:, 6:9]
        self.label = table[:, 9]

    @classmethod
    def from_columns(cls, spec: LatticeSpec, parent, cell_min, cell_dims, label) -> BlockModel:
        """A model on the given columns, without a copy where they are int64
        already; the model's views of them are read-only, the caller's
        arrays are left as they are."""
        model = cls.__new__(cls)
        columns = [np.asarray(c, dtype=np.int64).reshape(-1, 3) for c in (parent, cell_min, cell_dims)]
        columns.append(np.asarray(label, dtype=np.int64).reshape(-1))
        for column in columns:  # reshape made each a view of its own
            column.flags.writeable = False
        model.parent, model.cell_min, model.cell_dims, model.label = columns
        model.spec, model._blocks, model._valid = spec, None, False
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

    @cached_property
    def parent_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The blocks grouped by parent, sorted once per model: read-only
        ``(order, parents, offsets)``.  ``parents`` holds the distinct
        parents in raster order (z, then y, then x), and group g's ordinals,
        in input order, are ``order[offsets[g]:offsets[g + 1]]``."""
        order = np.lexsort(self.parent.T)
        p = self.parent[order].T  # column by column: a reduction over rows of 3 is slow
        change = np.ones(len(order), dtype=bool)
        change[1:] = (p[0, 1:] != p[0, :-1]) | (p[1, 1:] != p[1, :-1]) | (p[2, 1:] != p[2, :-1])
        starts = np.flatnonzero(change)
        groups = order, self.parent[order[starts]], np.append(starts, len(order))
        for column in groups:
            column.flags.writeable = False
        return groups

    def parent_of(self) -> np.ndarray:
        """Each block's group in :attr:`parent_groups`."""
        order, _, offsets = self.parent_groups
        group = np.empty_like(order)
        group[order] = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        return group

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
        """Check that every block has positive extent, lies inside its
        parent and is disjoint from the other blocks of its parent.

        Reports the smallest faulty ordinal and its first faulty axis (an
        empty extent, else leaving the parent) or its overlap with an
        earlier block.  The check stops at the first block that takes its
        parent's volume past the parent's cell count.  Each window of whole
        parents makes one sort of its blocks' x-runs; only a window whose
        runs overlap is painted cell by cell, to name the smallest block
        that paints a cell an earlier block painted.  A model that passes
        is not checked again.
        """
        if self._valid:
            return
        n, k, counts = len(self), self.spec.cells_per_parent, self.spec.cell_counts
        lo, dims = self.cell_min, self.cell_dims
        out = (dims < 1) | (lo < 0) | (lo + dims > np.asarray(counts))
        faulty = np.flatnonzero(out.any(axis=1))
        first = int(faulty[0]) if len(faulty) else n
        order, _, offsets = self.parent_groups
        group = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        volume = (dims[:, 0] * dims[:, 1] * dims[:, 2])[order]
        volume[order >= first] = 0
        end = np.cumsum(volume)  # cells through each block, over all parents in order
        start = (end - volume)[offsets[:-1]][group]  # cells before the block's parent
        past = order[end - start > k]
        stop = min(first, int(past.min()) + 1) if len(past) else first
        window = max(_PAINT_CELLS, int(end[-1]) // 64 if n else 0)
        bounds = [0, *(np.flatnonzero(np.diff(start // window)) + 1).tolist(), n]
        clash = n
        for a, b in zip(bounds, bounds[1:]):
            keep = order[a:b] < stop
            part, grp = order[a:b][keep], group[a:b][keep]
            box, first_cell, length = cell_runs(lo[part], dims[part], counts)
            if runs_disjoint(grp[box] * k + first_cell, length):
                continue
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
        self._valid = True


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

# a data row as NumPy's C reader parses it
_ROW_DTYPE = np.dtype([("centroid", "f8", 3), ("dims", "f8", 3), ("label", "i8")])
# each field's type, and what is said of a value that type takes but NumPy's
# C reader does not: digit-group underscores and non-ASCII digits
_FIELDS = ((float, "could not convert string to float: {!r}"),) * 6 + (
    (int, "invalid literal for int() with base 10: {!r}"),
)


def read_model_csv(path: str | Path, spec: LatticeSpec) -> BlockModel:
    """Load `x,y,z,dx,dy,dz,label` rows, snap onto the lattice, validate.

    The file is UTF-8, with or without a byte-order mark.  Blank lines and
    lines that start with ``#`` are skipped, and a field may be
    double-quoted within its line.  NumPy's C reader parses every row in
    one call.  Only if it refuses the file are the rows parsed again, to
    find the first bad line.  The rows before it are snapped all at once,
    and the first in file order that fails a snap check reports its first
    failure: the size checks, then the parent checks, then the corner
    checks, each group axis by axis.  Only then is the bad line reported.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"model file not found: {path}")
    text = read_text(path).split("\n")
    numbers = [n for n, line in enumerate(text, 1) if line.strip() and line.lstrip()[0] != "#"]
    if not numbers:
        raise ValidationError(f"{path}: empty model file")
    header = [c.strip().lower() for c in parse_table([text[numbers[0] - 1]], object, None, ",")[0]]
    if tuple(header) != CSV_HEADER:
        raise ValidationError(
            f"{path}:{numbers[0]}: expected header "
            f"'{','.join(CSV_HEADER)}', got '{','.join(header)}'"
        )
    numbers = numbers[1:]
    rows = [text[n - 1] for n in numbers]
    del text
    table = parse_table(rows, _ROW_DTYPE, None, ",")
    fault = None
    if table is None:  # parse again, only to find the first bad line
        parts = itertools.takewhile(lambda part: part is not None, _row_tables(rows))
        table = np.concatenate([np.empty((0, 1), _ROW_DTYPE), *parts])
        if len(table) < len(rows):
            fault = f"{path}:{numbers[len(table)]}: {_row_fault(rows[len(table)])}"
    del rows
    table = table.reshape(-1)
    centroid, dims, labels = table["centroid"], table["dims"], table["label"].copy()
    origin, pdims, mdims = (np.asarray(v) for v in (spec.origin, spec.parent_dims, spec.min_dims))
    with np.errstate(all="ignore"):  # a non-finite value fails a check
        size = dims / mdims
        cells = np.rint(size)
        q = (centroid - origin) / pdims
        near = np.abs(q - np.rint(q)) <= PARENT_SNAP * np.maximum(1.0, np.abs(q))
        parent = np.where(near, np.rint(q), np.floor(q))
        corner = (centroid - dims * 0.5 - (origin + parent * pdims)) / mdims
        low = np.rint(corner)
        # (failure mask, error, message, value) per check, grouped in report
        # order; parents are int64, with room for the arithmetic on them
        checks = (
            (
                (dims <= 0, ValidationError, "non-positive dimension {}", dims),
                (~np.isfinite(size), ValidationError, "non-finite block size {}", size),
                (np.abs(size - cells) > INGEST_SNAP, MisalignedBlock,
                 "block size {} is off-grid", size),
                (cells < 1, MisalignedBlock, "dimension below the minimum block size", size),
            ),
            (
                (~np.isfinite(q), ValidationError, "non-finite parent index {}", q),
                (np.abs(q) >= 2**62, ValidationError, "parent index {} is out of range", q),
            ),
            (
                (~np.isfinite(corner), ValidationError, "non-finite block corner {}", corner),
                (np.abs(corner - low) > INGEST_SNAP, MisalignedBlock,
                 "block corner {} is off-grid", corner),
                ((low < 0) | (low + cells > spec.cell_counts), MisalignedBlock,
                 "block straddles a parent boundary on axis {axis}", corner),
            ),
        )
    failed = np.logical_or.reduce([mask for group in checks for mask, *_ in group])
    bad = np.flatnonzero(failed.any(axis=1))
    if len(bad):
        i = bad[0]
        error, message, value, axis = next(
            (*check, axis)
            for group in checks for axis in range(3) for mask, *check in group if mask[i, axis]
        )
        raise error(f"{path}:{numbers[i]}: " + message.format(value[i, axis].item(), axis=axis))
    if fault is not None:
        raise ValidationError(fault)
    model = BlockModel.from_columns(spec, parent, low, cells, labels)
    # free the snap's arrays before validate paints
    del table, centroid, dims, size, cells, q, near, parent, corner, low, checks, failed
    model.validate()
    return model


def _row_tables(rows: list[str]):
    """``rows`` parsed by NumPy's C reader 1,024 at a time, and one at a
    time in a block it refuses; None for each row it refuses."""
    for at in range(0, len(rows), 1024):
        block = rows[at : at + 1024]
        table = parse_table(block, _ROW_DTYPE, None, ",")
        yield from [table] if table is not None else (
            parse_table([row], _ROW_DTYPE, None, ",") for row in block
        )


def _row_fault(line: str) -> str:
    """Why NumPy's C reader refuses a data line, in the words ``float`` and
    ``int`` use for a field they refuse too."""
    fields = parse_table([line], object, None, ",")[0].tolist()
    if len(fields) != 7:
        return f"expected 7 fields, got {len(fields)}"
    for field, (kind, refused) in zip(fields, _FIELDS):
        try:
            value = kind(field)
        except ValueError as exc:
            return str(exc)
        if "_" in field or not field.strip().isascii():
            return refused.format(field)
        if kind is int and not -(2**63) <= value < 2**63:
            return f"label {value} is outside int64"
    raise AssertionError(f"NumPy's C reader refuses a line float() and int() accept: {line!r}")


_ROW = "%s,%s,%s,%s,%s,%s,%d\n"


def write_model_csv(path: str | Path, model: BlockModel) -> int:
    """Write the model in canonical order; returns the block count.

    Rows go out 4,096 at a time.  Each chunk takes the ``repr`` of each
    distinct float64 bit pattern in it once, so every float is written as
    its shortest ``repr``, and makes one ``%`` format of those strings
    and the labels' Python ints.
    """
    ordered = model.canonical()
    floats = np.hstack([ordered.centroids(), ordered.cell_dims * np.asarray(model.spec.min_dims)])
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(CSV_HEADER) + "\n")
        for at in range(0, len(ordered), 4096):
            bits, inverse = np.unique(floats[at : at + 4096].view(np.int64), return_inverse=True)
            text = np.array([repr(f) for f in bits.view(np.float64).tolist()], dtype=object)
            chunk = [text[inverse].reshape(-1, 6), ordered.label[at : at + 4096, None]]
            chunk = np.concatenate(chunk, axis=1, dtype=object).ravel().tolist()
            handle.write(_ROW * (len(chunk) // 7) % tuple(chunk))
    return len(ordered)
