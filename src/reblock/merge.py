"""Coordinate-ascent block merging.

Two conventions over a parent's cell grid:

* **dissolved** — input block boundaries are forgotten; the active cell
  set of a class is re-tiled greedily from scratch.  A block seeds at the
  first active cell in raster order and repeatedly tries to grow by one
  cell layer along +x, +y, +z; growth must stay inside the parent, within
  the merge-size limit, and cover only active cells.  An axis blocked once
  stays blocked while the block grows, so it is not tried again; once
  every axis is blocked (or on token expiry, or on consuming every active
  cell) the block is emitted and its cells deactivated.

* **persistent** — every input block keeps its identity: blocks take
  turns (smallest first) absorbing whole neighbouring blocks across their
  +x/+y/+z faces.  An absorption is feasible only when the face is fully
  in contact with other blocks (no foreign cell beyond it), all of them
  have one uniform length along the growth axis, and their combined cell
  count exactly tiles the extension box — so every output block is a
  rectangle and every input block lands wholly inside exactly one output
  block.  The test reads a face-contact table, not the grid: per pair of
  touching blocks, the axis and the number of cells their faces share.
  Each block keeps the sum of those areas per face, so the common failing
  check, a foreign cell beyond the face, is one multiply and compare.

There are two entries.  :func:`class_inputs` builds the kernel input of
every (parent, label) class of a set of block rows, a window of whole
parents at a time: under dissolved the class's :func:`mirror_layers`
ints, under persistent its boxes and their :func:`class_contacts` table.
:func:`merge_prepared` runs the scan patterns on one class's input.  The
pipeline builds the inputs of ``merge_model`` and of restructuring with
the first and hands them to workers running the second; ``merge_class``
checks one class's list of boxes and makes a one-class call of each.
Eight scan patterns (mirrors of the parent along any subset of axes)
give the greedy sweep eight vantage points; whichever result scores best
under the chosen objective is kept.  A class's runs share one table of
block-shape terms, so each shape's aspect ratio is computed once per
class (:func:`aspect_ratio_objective`).  The dissolved sweep runs on one
Python int per z-layer of a mirrored view, one AND per growth check, and
one packing serves all eight views; the persistent ascent runs on integer
records, and one contact table serves all eight, because a mirror only
swaps the + and - faces along its axes.  Both kernels return
``(cell_min, cell_dims)`` tuples; only the winner's are mirrored back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .errors import EmptyInput, ValidationError
from .lattice import IntTriple, cell_runs, expand_cells, runs_disjoint

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


class MergedBlock(NamedTuple):
    """One output block, as a cell box local to its parent."""

    cell_min: IntTriple
    cell_dims: IntTriple
    label: int


# ---------------------------------------------------------------------------
# dissolved convention
# ---------------------------------------------------------------------------

def _layers(views: np.ndarray) -> list[int]:
    """One Python int per z-layer of each [z, y, x] map stacked in ``views``,
    bit ``y*kx + x`` set where cell (x, y) is active; one ``np.packbits``."""
    kz, ky, kx = np.shape(views)[-3:]
    packed = np.packbits(np.reshape(views, (-1, kx * ky)), axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") for i in range(len(packed))]


def mirror_layers(theta: np.ndarray) -> list[int]:
    """:func:`_layers` of the four x/y mirrors of each [z, y, x] map stacked
    in ``theta``: per map, 4 * kz ints, the map as it is, then mirrored
    along x, along y, and along both."""
    mirrors = [theta, theta[..., ::-1], theta[..., ::-1, :], theta[..., ::-1, ::-1]]
    return _layers(np.stack(mirrors, axis=-4))


def coalesce_binary(
    theta: np.ndarray,
    label: int,
    max_dims: IntTriple | None = None,
    token_life: int | None = None,
) -> list[MergedBlock]:
    """Greedy re-tiling of the active (non-zero) cells of a [z, y, x]
    occupancy map, as :func:`_sweep` gives it.  The map is not modified.
    ``token_life`` must be positive or None, as in :class:`MergeParams`."""
    if token_life is not None and token_life < 1:
        raise ValidationError("token life span must be positive")
    kz, ky, kx = np.shape(theta)
    layers = _layers(theta)
    remaining = sum(layer.bit_count() for layer in layers)
    blocks = _sweep(layers, remaining, (kx, ky, kz), max_dims, token_life)
    return [MergedBlock(n, s, label) for n, s in blocks]


def _sweep(layers: list[int], remaining: int, counts: IntTriple, max_dims, token_life) -> list[tuple]:
    """Greedy re-tiling of the ``remaining`` active cells of ``layers``, as
    :func:`_layers` packs them; emptied in place.  Returns ``(cell_min,
    cell_dims)`` pairs.

    A growing block is always solid, so it carries ``solid``, the AND of
    its layers, ``rows``, bit 0 of each of its rows, and ``span``, its bits
    in row 0, whose product is its footprint; every growth check is then
    one AND against a mask: the column beyond +x and the row segment beyond
    +y against ``solid``, the footprint against the layer beyond +z.  An
    emitted block is cleared with one AND-NOT per layer.

    Each axis has an open flag, and an axis closes when its check fails or
    its room runs out.  A closed axis stays closed while the block grows,
    so it is never checked again: the +x column and the +y segment only
    gain bits as the block grows, and ``solid`` only loses them; the +z
    footprint only gains bits, against a layer that does not change.  The
    block is emitted when every axis is closed, its token expires, or it
    holds every remaining cell.
    """
    kx, ky, kz = counts
    mx, my, mz = counts if max_dims is None else max_dims
    if min(mx, my, mz) < 1:
        mx = my = mz = 1  # like a cap of 1, a cap below 1 blocks all growth
    out = []
    nz = 0
    while remaining > 0:
        while not layers[nz]:
            nz += 1
        first = (layers[nz] & -layers[nz]).bit_length() - 1
        ny, nx = divmod(first, kx)
        if remaining == 1:
            out.append(((nx, ny, nz), (1, 1, 1)))
            break
        rx, ry, rz = kx - nx, ky - ny, kz - nz
        rx, ry, rz = mx if mx < rx else rx, my if my < ry else ry, mz if mz < rz else rz
        ox, oy, oz = rx > 1, ry > 1, rz > 1
        sx = sy = sz = 1
        solid = layers[nz]
        rows = 1 << (ny * kx)
        span = 1 << nx  # the block's bits in row 0
        beyond = (ny + 1) * kx  # the shift of the row beyond +y
        i = -1 if token_life is None else token_life  # from -1, never reaches 0
        while ox or oy or oz:
            if ox:
                column = rows << (nx + sx)
                if solid & column == column:
                    span |= 1 << (nx + sx)
                    sx += 1
                    ox = sx < rx
                else:
                    ox = False
            if oy:
                segment = span << beyond
                if solid & segment == segment:
                    rows |= 1 << beyond
                    beyond += kx
                    sy += 1
                    oy = sy < ry
                else:
                    oy = False
            if oz:
                footprint = rows * span
                layer = layers[nz + sz]
                if layer & footprint == footprint:
                    solid &= layer
                    sz += 1
                    oz = sz < rz
                else:
                    oz = False
            i -= 1
            if i == 0 or sx * sy * sz == remaining:
                break
        out.append(((nx, ny, nz), (sx, sy, sz)))
        # +z may have closed before the last +x or +y step
        clear = ~(rows * span)
        for z in range(nz, nz + sz):
            layers[z] &= clear
        remaining -= sx * sy * sz
    return out


# ---------------------------------------------------------------------------
# persistent convention
# ---------------------------------------------------------------------------

def class_contacts(
    classes: np.ndarray, owner: np.ndarray, sizes: Sequence[int]
) -> list[list[tuple[int, int, int, int]]]:
    """Face-contact tables of many classes, one list per class.

    A row ``(a, c, axis, area)`` says block ``a``'s +axis face touches
    block ``c``'s -axis face over ``area`` cells.  ``classes`` and ``owner``
    are grids of one shape, [z, y, x] last, any leading axes: each cell's
    class, -1 where no block is, and its block's ordinal within the class;
    class ``i`` holds ``sizes[i]`` blocks.  Only blocks of one class touch.
    Each table is sorted by axis, then ``a``, then ``c``: one ``np.unique``
    over every class's keys, class ``i``'s offset past those of the classes
    before it.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    span = 3 * sizes * sizes
    base = np.cumsum(span) - span
    keys = []
    for axis in range(3):
        k, o = (np.moveaxis(grid, -1 - axis, 0) for grid in (classes, owner))
        touch = (k[:-1] == k[1:]) & (k[:-1] >= 0) & (o[:-1] != o[1:])
        cls, n = k[:-1][touch], sizes[k[:-1][touch]]
        keys.append(base[cls] + (axis * n + o[:-1][touch]) * n + o[1:][touch])
    keys, area = np.unique(np.concatenate(keys), return_counts=True)
    cls = np.searchsorted(base, keys, side="right") - 1
    pair, c = np.divmod(keys - base[cls], sizes[cls])
    axis, a = np.divmod(pair, sizes[cls])
    rows = list(zip(a.tolist(), c.tolist(), axis.tolist(), area.tolist()))
    bounds = np.searchsorted(cls, np.arange(len(sizes) + 1)).tolist()
    return [rows[i:j] for i, j in zip(bounds, bounds[1:])]


def coalesce_persistent(
    boxes: Sequence[tuple[IntTriple, IntTriple]],
    contacts: Sequence[tuple[int, int, int, int]],
    counts: IntTriple,
    flips: tuple[bool, bool, bool],
    max_dims: IntTriple | None = None,
    token_life: int | None = None,
) -> list[tuple[IntTriple, IntTriple]]:
    """Merge whole input blocks without ever splitting one.

    Runs on the parent mirrored along ``flips``.  ``boxes`` must be
    pairwise disjoint and inside the parent, and ``contacts`` their
    :func:`class_contacts` table, as :func:`class_inputs` builds them; neither
    is modified.  Blocks take turns absorbing the blocks behind their
    +x/+y/+z faces.  Smaller blocks move first ("priority gives smaller
    blocks the earliest opportunity to grow"); passes repeat until one
    passes without an absorption.  Output is ``(cell_min, cell_dims)``
    pairs in input order, in mirrored coordinates.

    Each record keeps ``room``, the cells from its min corner to the
    parent's far faces, and ``cover``, the sum of the contact areas on each
    of its six faces.  A turn tests each axis inline, no call made, in
    order: the face lies inside the parent; no foreign cell lies beyond
    it (``cover * length == size``); the blocks behind it share one length
    along the axis; the grown block keeps within the caps; their cells
    tile the extension box.  A block already past a cap on any axis gets
    no room: growing along any axis would keep it past that cap.  An
    absorbing block takes over the outward contacts, and their areas, of
    the blocks it absorbs; a neighbour's back face only renames them, so
    the neighbour's cover is unchanged.
    """
    kx, ky, kz = counts
    m = mx, my, mz = counts if max_dims is None else max_dims
    fx, fy, fz = flips
    lo, room, dims, size, starts = [], [], [], [], []
    for (x, y, z), (sx, sy, sz) in boxes:
        x, y, z = kx - x - sx if fx else x, ky - y - sy if fy else y, kz - z - sz if fz else z
        lo.append((x, y, z))
        dims.append([sx, sy, sz])
        size.append(sx * sy * sz)
        starts.append(x + kx * (y + ky * z))
        # past a cap already, whatever axis it would grow along: no room
        room.append([sx, sy, sz] if sx > mx or sy > my or sz > mz else [kx - x, ky - y, kz - z])
    # face 2*axis + 1 is the -axis face; a mirror swaps + and - on its axes
    faces: list[list[dict[int, int]]] = [[{}, {}, {}, {}, {}, {}] for _ in boxes]
    cover = [[0] * 6 for _ in boxes]
    for a, c, axis, area in contacts:
        up = 2 * axis + flips[axis]
        faces[a][up][c] = area
        faces[c][up ^ 1][a] = area
        cover[a][up] += area
        cover[c][up ^ 1] += area
    live = [True] * len(boxes)

    while True:
        # disjoint live blocks have distinct min corners, so the key is total
        order = sorted([(size[b], starts[b], b) for b in range(len(boxes)) if live[b]])
        if len(order) <= 1:
            break
        grew = False
        for at_turn_start, _, b in order:
            if not live[b]:
                continue
            i = token_life
            s, r, cov, own, volume = dims[b], room[b], cover[b], faces[b], size[b]
            while True:
                barriers = 0
                for axis, up in ((0, 0), (1, 2), (2, 4)):
                    if s[axis] == r[axis] or cov[up] * s[axis] != volume:
                        barriers += 1  # no room, or a foreign cell lies beyond the face
                        continue
                    face = own[up]
                    n = total = 0
                    for c in face:
                        if n and dims[c][axis] != n:
                            total = -1  # failed uniform length requirement
                            break
                        n = dims[c][axis]
                        total += size[c]
                    # lengths differ, past the caps, or not a full rectangle
                    if total < 0 or s[axis] + n > m[axis] or total != n * cov[up]:
                        barriers += 1
                        continue
                    # the absorbed blocks tile the extension box, so each outward
                    # contact of theirs lies on one of b's new faces; contacts
                    # among them vanish
                    own[up] = {}
                    cov[up] = 0
                    for c in face:
                        live[c] = False
                        for d, touching in enumerate(faces[c]):
                            if d == up + 1:
                                continue  # touches only b
                            for t, area in touching.items():
                                if t in face:
                                    continue
                                own[d][t] = own[d].get(t, 0) + area
                                cov[d] += area
                                back = faces[t][d ^ 1]
                                del back[c]
                                back[b] = back.get(b, 0) + area
                    size[b] = volume = volume + total
                    s[axis] += n
                if i is not None:
                    i -= 1
                if s == r or barriers == 3 or i == 0:
                    break
            if volume != at_turn_start:
                grew = True
        # a pass without a single absorption is the fixed point; comparing
        # cell counts over *all* records would deadlock on blocks that grew
        # and were then subsumed inside one pass
        if not grew:
            break

    return [(lo[b], tuple(dims[b])) for b in range(len(boxes)) if live[b]]


# ---------------------------------------------------------------------------
# objectives and the multi-scan driver
# ---------------------------------------------------------------------------

def scan_flips(pattern: int) -> tuple[bool, bool, bool]:
    """Which axes pattern 0..7 mirrors (bit 0 = x, bit 1 = y, bit 2 = z)."""
    return bool(pattern & 1), bool(pattern & 2), bool(pattern & 4)


def aspect_ratio_objective(
    blocks: Sequence[tuple],
    min_dims: Sequence[float],
    scores: dict[IntTriple, tuple[float, float]] | None = None,
) -> float:
    """Volume-weighted mean of max/min real block dimension, over merged
    blocks or ``(cell_min, cell_dims)`` pairs, ``cell_dims`` a tuple.

    ``scores`` maps a ``cell_dims`` to its block's terms, the volume ``v``
    and ``v * max / min``; missing shapes are added.  One table serves
    every call on the same ``min_dims``, and the terms are summed in block
    order, so a score is the same float with or without one.
    """
    if not blocks:
        raise EmptyInput("aspect-ratio objective over an empty block list")
    mx, my, mz = (float(m) for m in min_dims)
    if scores is None:
        scores = {}
    total_v = 0.0
    acc = 0.0
    for b in blocks:
        terms = scores.get(b[1])
        if terms is None:
            sx, sy, sz = b[1]
            d = (sx * mx, sy * my, sz * mz)
            v = d[0] * d[1] * d[2]
            terms = scores[b[1]] = (v, v * (max(d) / min(d)))
        total_v += terms[0]
        acc += terms[1]
    return acc / total_v


def merge_class(
    boxes: Sequence[tuple[IntTriple, IntTriple]],
    counts: IntTriple,
    min_dims: Sequence[float],
    params: MergeParams,
    label: int,
) -> list[MergedBlock]:
    """Best merge of one class's blocks, as :func:`merge_prepared` gives it.

    The boxes, ``(cell_min, cell_dims)`` pairs or an (N, 2, 3) array, must
    be pairwise disjoint and inside the parent; they are checked, then
    handed to :func:`class_inputs` as one class.
    """
    if len(boxes) == 0:
        return []
    _check_caps(params.max_dims, counts)
    box = np.array(boxes, dtype=np.int64)
    lo, dims = box[:, 0], box[:, 1]
    inside = (lo >= 0).all() and (dims >= 1).all() and (lo + dims <= counts).all()
    # the volume check bounds the runs that the overlap check sorts
    if (
        not inside
        or dims.prod(axis=1).sum() > np.prod(counts)
        or not runs_disjoint(*cell_runs(lo, dims, counts)[1:])
    ):
        raise ValidationError("input blocks overlap or leave the parent")
    zero = np.zeros_like(lo)
    [(_, [(_, inputs)])] = class_inputs(zero, zero[:, 0], lo, dims, counts, params.convention)
    return [MergedBlock(n, s, label) for n, s in merge_prepared(inputs, counts, min_dims, params)]


def _check_caps(caps: IntTriple | None, counts: IntTriple) -> None:
    if caps is not None and any(m > k for m, k in zip(caps, counts)):
        raise ValidationError("max merge dims cannot exceed the parent cell dimensions")


# class_inputs builds the classes of a run of whole parents at a time, those
# whose first class starts within one window of this many class-grid cells;
# restructure classifies this many cells, or one parent's, at a time
_CLASS_CELLS = 1 << 15


def class_inputs(
    parent: np.ndarray,
    label: np.ndarray,
    cell_min: np.ndarray,
    cell_dims: np.ndarray,
    counts: IntTriple,
    convention: Convention,
) -> list[tuple]:
    """One task per parent, parents in raster order: the parent and, per
    label ascending, the label and its class's input to
    :func:`merge_prepared`, boxes in row order.

    The rows are integer columns of a valid model: (N, 3) ``parent``,
    ``cell_min`` and ``cell_dims`` and (N,) ``label``, blocks of one
    parent disjoint and inside it.  Each window of parents is painted with
    one ``expand_cells`` call: under dissolved, onto one occupancy map per
    class, packed with one :func:`mirror_layers`; under persistent, onto
    (parents, z, y, x) grids of class and ordinal within the class, read
    by one :func:`class_contacts`.
    """
    k = int(np.prod(counts))
    order = np.lexsort((label, *parent.T))
    parent, label = parent[order], label[order]
    lo, dims = cell_min[order], cell_dims[order]
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
    if convention == "persistent":
        boxes = np.stack([lo, dims], axis=1)
    for p0, p1 in zip([0, *window], [*window, len(parent_start) - 1]):
        c0, c1 = parent_start[p0], parent_start[p1]
        r0, r1 = class_start[c0], class_start[c1]
        ordinal, cell = expand_cells(lo[r0:r1], dims[r0:r1], counts)
        row = ordinal + r0
        if convention == "dissolved":
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


def merge_prepared(
    inputs, counts: IntTriple, min_dims: Sequence[float], params: MergeParams
) -> list[tuple]:
    """Best merge of one class over the configured scan patterns.

    ``inputs`` is the class's kernel input, trusted: under dissolved its
    :func:`mirror_layers` ints, under persistent a pair of its boxes, an
    (N, 2, 3) array of ``cell_min`` and ``cell_dims`` rows, and their
    :func:`class_contacts` table.  Every pattern runs the convention with
    the standard raster scan on a mirrored view of the parent and scores
    the result; ties keep the first configured pattern.  After a first
    pattern that returns one block, when that can no longer change, the
    rest are skipped.  The scored runs share one
    :func:`aspect_ratio_objective` table.  A z mirror reverses the
    dissolved layers, and the class's cells are counted once for every
    pattern's sweep.  Returns the winner's ``(cell_min, cell_dims)``
    pairs, mirrored back.
    """
    kz, caps, life = counts[2], params.max_dims, params.token_life
    if params.convention == "persistent":
        boxes, contacts = inputs[0].tolist(), inputs[1]
    else:
        cells = sum(layer.bit_count() for layer in inputs[:kz])  # every mirror holds as many
    runs = []
    for pattern in params.scan_patterns:
        flips = scan_flips(pattern)
        if params.convention == "dissolved":
            layers = inputs[(pattern & 3) * kz : (pattern & 3) * kz + kz]
            merged = _sweep(layers[::-1] if flips[2] else layers, cells, counts, caps, life)
        else:
            merged = coalesce_persistent(boxes, contacts, counts, flips, caps, life)
        runs.append((flips, merged))
        # one block is the fewest possible, and a dissolved class that one
        # pattern tiles with one box every pattern tiles with that box; ties
        # keep the first run.  Under persistent "aspect" another pattern may
        # still win with several blocks of lower aspect ratio.
        if len(merged) == 1 and (
            params.convention == "dissolved" or params.objective == "count"
        ):
            break
    # best by the objective, first of equal scores: under "aspect" the lowest
    # aspect ratio; under "count" the fewest blocks, with the aspect ratio
    # scored only to break their ties, each block shape once
    if params.objective == "count":
        fewest = min(len(merged) for _, merged in runs)
        runs = [run for run in runs if len(run[1]) == fewest]
    scores: dict = {}
    best_flips, best = runs[0] if len(runs) == 1 else min(
        runs, key=lambda run: aspect_ratio_objective(run[1], min_dims, scores)
    )
    return [
        (tuple(k - a - d if f else a for k, a, d, f in zip(counts, n, s, best_flips)), s)
        for n, s in best
    ]
