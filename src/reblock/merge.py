"""Coordinate-ascent block merging.

Two conventions over a parent's cell grid:

* **dissolved** — input block boundaries are forgotten; the active cell
  set of a class is re-tiled greedily from scratch.  A block seeds at the
  first active cell in raster order and repeatedly tries to grow by one
  cell layer along +x, +y, +z; growth must stay inside the parent, within
  the merge-size limit, and cover only active cells.  Three consecutive
  blocked axes (or token expiry, or consuming every active cell) emit the
  block and deactivate its cells.

* **persistent** — every input block keeps its identity: blocks take
  turns (smallest first) absorbing whole neighbouring blocks across their
  +x/+y/+z faces.  An absorption is feasible only when the face's delta
  slab contains no foreign cell, all adjoining blocks have one uniform
  length along the growth axis, and their combined cell count exactly
  tiles the extension box — so every output block is a rectangle and
  every input block lands wholly inside exactly one output block.

Both conventions run on one ordinal grid per class, painted once: each
cell holds the index of its input block, or -1.  Eight scan patterns
(``np.flip`` views of that grid along any subset of axes) give the greedy
sweep eight different vantage points; the multi-scan driver keeps
whichever result scores best under the chosen objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import EmptyInput, ValidationError
from .lattice import IntTriple, subscript_of

Convention = Literal["dissolved", "persistent"]
Objective = Literal["count", "aspect"]

ALL_SCAN_PATTERNS: tuple[int, ...] = tuple(range(8))


@dataclass(frozen=True)
class MergeParams:
    """Knobs shared by both conventions.

    ``token_life`` caps uninterrupted growth cycles per possession turn
    (None = unlimited); ``max_dims`` caps merged cell dimensions (None =
    the parent itself); ``scan_patterns`` are indices 0..7 with bit 0/1/2
    flipping x/y/z.
    """

    convention: Convention = "dissolved"
    objective: Objective = "count"
    token_life: int | None = None
    max_dims: IntTriple | None = None
    scan_patterns: tuple[int, ...] = ALL_SCAN_PATTERNS

    def __post_init__(self) -> None:
        if self.convention not in ("dissolved", "persistent"):
            raise ValidationError(f"unknown convention '{self.convention}'")
        if self.objective not in ("count", "aspect"):
            raise ValidationError(f"unknown objective '{self.objective}'")
        if self.token_life is not None and self.token_life < 1:
            raise ValidationError("token life span must be positive")
        if not self.scan_patterns:
            raise ValidationError("at least one scan pattern is required")
        for p in self.scan_patterns:
            if not 0 <= p <= 7:
                raise ValidationError(f"scan pattern {p} outside 0..7")
        if self.max_dims is not None and any(m < 1 for m in self.max_dims):
            raise ValidationError("max merge dims must be positive")


@dataclass(frozen=True)
class MergedBlock:
    """One output block, as a cell box local to its parent."""

    cell_min: IntTriple
    cell_dims: IntTriple
    label: int


def _box_slices(n: Sequence[int], s: Sequence[int]) -> tuple[slice, slice, slice]:
    """Grid slices for the cell box [n, n+s); arrays are indexed [z, y, x]."""
    return (
        slice(n[2], n[2] + s[2]),
        slice(n[1], n[1] + s[1]),
        slice(n[0], n[0] + s[0]),
    )


# ---------------------------------------------------------------------------
# dissolved convention
# ---------------------------------------------------------------------------

def coalesce_binary(
    theta: np.ndarray,
    label: int,
    max_dims: IntTriple | None = None,
    token_life: int | None = None,
) -> list[MergedBlock]:
    """Greedy re-tiling of the active (=1) cells of a binary occupancy map.

    The input map is not modified.
    """
    theta = np.array(theta, dtype=np.uint8)
    kz, ky, kx = theta.shape
    counts = (kx, ky, kz)
    mx, my, mz = counts if max_dims is None else max_dims
    flat = theta.ravel()
    n_occupant = int(flat.sum())
    out: list[MergedBlock] = []
    count = 0

    while True:
        remaining = n_occupant - count
        if remaining == 0:
            break
        first = int(flat.argmax())
        if remaining == 1:
            n = subscript_of(first, counts)
            out.append(MergedBlock(n, (1, 1, 1), label))
            break
        nx, ny, nz = subscript_of(first, counts)
        sx = sy = sz = 1
        i = token_life
        while True:
            barriers = 0
            # +x: one new slab of cells at x = nx+sx .. nx+dx
            dx = min(sx + 1, kx - nx)
            if (
                dx <= mx
                and sy <= my
                and sz <= mz
                and dx > sx
                and theta[nz : nz + sz, ny : ny + sy, nx + sx : nx + dx].all()
            ):
                sx = dx
            else:
                barriers += 1
            dy = min(sy + 1, ky - ny)
            if (
                sx <= mx
                and dy <= my
                and sz <= mz
                and dy > sy
                and theta[nz : nz + sz, ny + sy : ny + dy, nx : nx + sx].all()
            ):
                sy = dy
            else:
                barriers += 1
            dz = min(sz + 1, kz - nz)
            if (
                sx <= mx
                and sy <= my
                and dz <= mz
                and dz > sz
                and theta[nz + sz : nz + dz, ny : ny + sy, nx : nx + sx].all()
            ):
                sz = dz
            else:
                barriers += 1
            if i is not None:
                i -= 1
            if count + sx * sy * sz == n_occupant or barriers == 3 or i == 0:
                break
        out.append(MergedBlock((nx, ny, nz), (sx, sy, sz), label))
        theta[nz : nz + sz, ny : ny + sy, nx : nx + sx] = 0
        count += sx * sy * sz
    return out


# ---------------------------------------------------------------------------
# persistent convention
# ---------------------------------------------------------------------------

@dataclass
class MergeRecord:
    """Mutable bookkeeping for one input block during persistent merging."""

    cell_min: IntTriple
    dims: list[int]
    n_curr: int
    subsumed: bool = False


def feasible_cell_expansion(
    theta: np.ndarray,
    records: list[MergeRecord],
    b: int,
    corner_lo: IntTriple,
    corner_hi: IntTriple,
    axis: int,
    max_dims: IntTriple,
) -> bool:
    """Try to absorb the blocks behind one face of block ``b``.

    ``corner_lo``/``corner_hi`` bound the one-cell-thick delta slab just
    beyond the face, in (x, y, z) cell coordinates.  On success the
    absorbed records are marked subsumed, their cells repainted to ``b``,
    and ``b``'s dims and cell count updated; on failure nothing changes.
    """
    kz, ky, kx = theta.shape
    if corner_lo[0] >= kx or corner_lo[1] >= ky or corner_lo[2] >= kz:
        return False
    region = theta[
        corner_lo[2] : corner_hi[2],
        corner_lo[1] : corner_hi[1],
        corner_lo[0] : corner_hi[0],
    ]
    if (region == -1).any():
        return False  # at least one foreign cell
    neighbours = np.unique(region)
    lengths = {records[int(nb)].dims[axis] for nb in neighbours}
    if len(lengths) != 1:
        return False  # failed uniform length requirement
    n_extend = lengths.pop()
    absorbable = [int(nb) for nb in neighbours if not records[int(nb)].subsumed]

    rec = records[b]
    new_dims = list(rec.dims)
    new_dims[axis] += n_extend
    for c in range(3):
        if new_dims[c] > max_dims[c]:
            return False
    cross = 1
    for c in range(3):
        if c != axis:
            cross *= rec.dims[c]
    n_region_cells = sum(records[nb].n_curr for nb in absorbable)
    if n_region_cells != n_extend * cross:
        return False  # join would not be a full rectangle

    for nb in absorbable:
        other = records[nb]
        other.subsumed = True
        theta[_box_slices(other.cell_min, other.dims)] = b
    rec.n_curr += n_region_cells
    rec.dims[axis] += n_extend
    return True


def coalesce_persistent(
    owner: np.ndarray,
    label: int,
    max_dims: IntTriple | None = None,
    token_life: int | None = None,
) -> list[MergedBlock]:
    """Merge whole input blocks without ever splitting one.

    ``owner`` is a [z, y, x] ordinal grid: each cell holds the index of
    the input block covering it, or -1.  The ordinals must run 0..n-1 and
    each must cover one solid box, as ``merge_class`` paints them.  The
    input grid is not modified.  Smaller blocks move first ("priority
    gives smaller blocks the earliest opportunity to grow"); passes repeat
    until no block's cell count changes.  Output is in ordinal order.
    """
    theta = np.array(owner, dtype=np.int64)
    kz, ky, kx = theta.shape
    counts = (kx, ky, kz)
    m = counts if max_dims is None else max_dims
    flat = theta.ravel()
    cells = np.flatnonzero(flat >= 0)
    ordinals = flat[cells]
    # a box's first and last raster cells are its min and max corners
    _, first = np.unique(ordinals, return_index=True)
    _, last = np.unique(ordinals[::-1], return_index=True)
    starts = cells[first].tolist()
    records: list[MergeRecord] = []
    for start, end in zip(starts, cells[cells.size - 1 - last].tolist()):
        n = subscript_of(start, counts)
        t = subscript_of(end, counts)
        dims = [t[0] - n[0] + 1, t[1] - n[1] + 1, t[2] - n[2] + 1]
        records.append(MergeRecord(n, dims, dims[0] * dims[1] * dims[2]))

    while True:
        # disjoint live blocks have distinct min corners, so the key is total
        order = sorted(
            (b for b, r in enumerate(records) if not r.subsumed),
            key=lambda b: (records[b].n_curr, starts[b]),
        )
        if len(order) <= 1:
            break
        grew = False
        for b in order:
            rec = records[b]
            if rec.subsumed:
                continue
            at_turn_start = rec.n_curr
            i = token_life
            nx, ny, nz = rec.cell_min
            sx, sy, sz = rec.dims
            while True:
                barriers = 0
                dx = min(sx + 1, kx - nx)
                if dx > sx and feasible_cell_expansion(
                    theta,
                    records,
                    b,
                    (nx + sx, ny, nz),
                    (nx + dx, ny + sy, nz + sz),
                    0,
                    m,
                ):
                    sx = rec.dims[0]
                else:
                    barriers += 1
                dy = min(sy + 1, ky - ny)
                if dy > sy and feasible_cell_expansion(
                    theta,
                    records,
                    b,
                    (nx, ny + sy, nz),
                    (nx + sx, ny + dy, nz + sz),
                    1,
                    m,
                ):
                    sy = rec.dims[1]
                else:
                    barriers += 1
                dz = min(sz + 1, kz - nz)
                if dz > sz and feasible_cell_expansion(
                    theta,
                    records,
                    b,
                    (nx, ny, nz + sz),
                    (nx + sx, ny + sy, nz + dz),
                    2,
                    m,
                ):
                    sz = rec.dims[2]
                else:
                    barriers += 1
                if i is not None:
                    i -= 1
                if (
                    (sx == kx - nx and sy == ky - ny and sz == kz - nz)
                    or barriers == 3
                    or i == 0
                ):
                    break
            if rec.n_curr != at_turn_start:
                grew = True
        # a pass without a single absorption is the fixed point; comparing
        # cell counts over *all* records would deadlock on blocks that grew
        # and were then subsumed inside one pass
        if not grew:
            break

    return [
        MergedBlock(r.cell_min, (r.dims[0], r.dims[1], r.dims[2]), label)
        for r in records
        if not r.subsumed
    ]


# ---------------------------------------------------------------------------
# objectives and the multi-scan driver
# ---------------------------------------------------------------------------

def scan_flips(pattern: int) -> tuple[bool, bool, bool]:
    """Which axes pattern 0..7 mirrors (bit 0 = x, bit 1 = y, bit 2 = z)."""
    return bool(pattern & 1), bool(pattern & 2), bool(pattern & 4)


def aspect_ratio_objective(
    blocks: Sequence[MergedBlock], min_dims: Sequence[float]
) -> float:
    """Volume-weighted mean of max/min real block dimension."""
    if not blocks:
        raise EmptyInput("aspect-ratio objective over an empty block list")
    total_v = 0.0
    acc = 0.0
    for b in blocks:
        d = [b.cell_dims[c] * float(min_dims[c]) for c in range(3)]
        v = d[0] * d[1] * d[2]
        total_v += v
        acc += v * (max(d) / min(d))
    return acc / total_v


def objective_value(
    blocks: Sequence[MergedBlock],
    min_dims: Sequence[float],
    objective: Objective,
) -> float | tuple[int, float]:
    ar = aspect_ratio_objective(blocks, min_dims)
    if objective == "aspect":
        return ar
    return (len(blocks), ar)


def merge_class(
    boxes: Sequence[tuple[IntTriple, IntTriple]],
    counts: IntTriple,
    min_dims: Sequence[float],
    params: MergeParams,
    label: int,
) -> list[MergedBlock]:
    """Best merge of one class's blocks over the configured scan patterns.

    The boxes are painted once onto an ordinal grid; they must be pairwise
    disjoint and inside the parent.  Every pattern runs the configured
    convention with the standard raster scan on a mirrored view of that
    grid and scores the result; ties keep the lowest pattern index.  Only
    the winner is mirrored back.
    """
    if not boxes:
        return []
    for axis in range(3):
        limit = counts[axis] if params.max_dims is None else params.max_dims[axis]
        if limit > counts[axis]:
            raise ValidationError(
                "max merge dims cannot exceed the parent cell dimensions"
            )
    kx, ky, kz = counts
    owner = np.full((kz, ky, kx), -1, dtype=np.int64)
    for ordinal, (n, s) in enumerate(boxes):
        window = owner[_box_slices(n, s)]
        if (
            min(n) < 0
            or min(s) < 1
            or window.shape != (s[2], s[1], s[0])
            or (window != -1).any()
        ):
            raise ValidationError("input blocks overlap or leave the parent")
        window[:] = ordinal

    runs = []
    for pattern in params.scan_patterns:
        flips = scan_flips(pattern)
        view = np.flip(owner, tuple(2 - a for a in range(3) if flips[a]))
        if params.convention == "dissolved":
            merged = coalesce_binary(
                view >= 0, label, max_dims=params.max_dims, token_life=params.token_life
            )
        else:
            merged = coalesce_persistent(
                view, label, max_dims=params.max_dims, token_life=params.token_life
            )
        score = objective_value(merged, min_dims, params.objective)
        runs.append((score, flips, merged))
    _, best_flips, best = min(runs, key=lambda run: run[0])  # first of equal scores
    return [
        MergedBlock(
            tuple(
                k - lo - d if flip else lo
                for k, lo, d, flip in zip(counts, b.cell_min, b.cell_dims, best_flips)
            ),
            b.cell_dims,
            label,
        )
        for b in best
    ]
