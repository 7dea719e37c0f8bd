"""Side-of-surface classification.

The workhorse is parity ray casting: count ray-surface crossings from a
query point; an even count (including zero) puts the point above/outside,
an odd count below/inside.  One batched kernel serves every cast.

Each (ray, candidate triangle) pair is decided by four signs.  Three edge
signs say on which side of each triangle edge the ray's line passes: the
line crosses the triangle when they agree.  The plane sign says on which
side of the triangle's plane the point lies: the crossing is beyond the
point when it agrees with them too.  The signs are evaluated in floats
under the static error bounds of Shewchuk (1997, "Adaptive precision
floating-point arithmetic and fast robust geometric predicates"), and
the few pairs inside a bound are recomputed exactly in Python integers.
A zero sign is broken by simulation of simplicity (Edelsbrunner & Mücke
1990): the query point, and its ray with it, moves to p + (ε, ε², ε³)
for an infinitesimal ε > 0, one perturbation shared by every test of the
point.  So a ray through a shared edge or vertex counts once where the
surface crosses and zero or two times where it only touches, a ray in a
triangle's plane meets nothing, and a point on the surface gets the side
its perturbation puts it on.

Cell pre-classification assigns every cell of a surface-crossed parent a
per-surface side (above/below) plus a separate intersect flag, and leaves
cells of un-crossed surfaces untested.  It classifies a window of crossed
parents, a slice of the overlap map, at a time: one cast per surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .intersection import OverlapMap, sat_batch
from .lattice import LatticeSpec, cell_lut
from .mesh import MeshIndex, TriangleMesh, query_candidates

SIDE_ABOVE = 1
SIDE_BELOW = -1

# 3-bit sidedness codes (bit 2 / bit 1 / bit 0 within a surface's field)
CODE_ABOVE = 4
CODE_BELOW = 2
CODE_UNTESTED = 1

# Shewchuk's static error bounds: a float orient2d or orient3d determinant
# larger in magnitude than the bound times its permanent has the sign of
# the exact determinant (unit roundoff 2^-53, barring overflow and underflow)
_U = 2.0**-53
_ORIENT2D_BOUND = (3.0 + 16.0 * _U) * _U
_ORIENT3D_BOUND = (7.0 + 56.0 * _U) * _U


# ---------------------------------------------------------------------------
# sign predicates
# ---------------------------------------------------------------------------

def _orient2d(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per row of (n, 2) arrays, the sign of det[a - c; b - c] where the
    float evaluation proves it, else 0."""
    left = (a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
    right = (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0])
    det = left - right
    sure = np.abs(det) > _ORIENT2D_BOUND * (np.abs(left) + np.abs(right))
    return np.where(sure, np.sign(det), 0.0).astype(np.int8)


def _orient3d(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per row of (n, 3) arrays, the sign of det[a - d; b - d; c - d] where
    the float evaluation proves it, else 0."""
    (adx, ady, adz), (bdx, bdy, bdz), (cdx, cdy, cdz) = ((v - d).T for v in (a, b, c))
    bc, cb = bdx * cdy, cdx * bdy
    ca, ac = cdx * ady, adx * cdy
    ab, ba = adx * bdy, bdx * ady
    det = adz * (bc - cb) + bdz * (ca - ac) + cdz * (ab - ba)
    permanent = (
        (np.abs(bc) + np.abs(cb)) * np.abs(adz)
        + (np.abs(ca) + np.abs(ac)) * np.abs(bdz)
        + (np.abs(ab) + np.abs(ba)) * np.abs(cdz)
    )
    sure = np.abs(det) > _ORIENT3D_BOUND * permanent
    return np.where(sure, np.sign(det), 0.0).astype(np.int8)


def _exact_points(points: np.ndarray) -> list[list[int]]:
    """The rows of ``points`` as integer triples, all scaled by one power
    of two, which keeps the sign of every determinant below."""
    ratios = [v.as_integer_ratio() for v in points.ravel().tolist()]
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    return [ints[i : i + 3] for i in range(0, len(ints), 3)]


def _sub(a: list[int], b: list[int]) -> list[int]:
    return [a[0] - b[0], a[1] - b[1], a[2] - b[2]]


def _cross(a: list[int], b: list[int]) -> list[int]:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _dot(a: list[int], b: list[int]) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _perturbed_sign(value: int, slope: list[int]) -> int:
    """The sign of ``value + slope . (ε, ε², ε³)`` for an infinitesimal ε > 0."""
    for v in (value, *slope):
        if v:
            return 1 if v > 0 else -1
    return 0


def _exact_edges(
    tri: np.ndarray, p: np.ndarray, q: np.ndarray | None, d: np.ndarray
) -> list[int]:
    """Exact edge signs of one (line, triangle) pair.

    The line runs from ``p`` along e = q - p, or along ``d`` when ``q`` is
    None.  Edge (u, v)'s sign is that of e . ((u - p) x (v - p)), which
    moving the line by s changes by s . (e x (v - u)).
    """
    a, b, c, p, *end = _exact_points(np.vstack([tri, p] if q is None else [tri, p, q]))
    e = _sub(end[0], p) if end else [int(v) for v in d]
    return [
        _perturbed_sign(_dot(e, _cross(_sub(u, p), _sub(v, p))), _cross(e, _sub(v, u)))
        for u, v in ((a, b), (b, c), (c, a))
    ]


def _exact_plane(tri: np.ndarray, p: np.ndarray) -> int:
    """Exact sign of det[a - p; b - p; c - p] = -n . (p - a), where n is the
    normal (b - a) x (c - a): moving p by s changes it by -n . s."""
    a, b, c, p = _exact_points(np.vstack([tri, p]))
    n = _cross(_sub(b, a), _sub(c, a))
    return _perturbed_sign(_dot(_sub(a, p), _cross(_sub(b, p), _sub(c, p))), [-v for v in n])


def _line_crossings(
    tv: np.ndarray, p: np.ndarray, q: np.ndarray | None, axis: int | None, d: np.ndarray
) -> np.ndarray:
    """Per (line, triangle) pair, the edge signs' common value where the
    line crosses the triangle, else 0.

    A line runs from ``p`` through ``q``, or along lattice ``axis`` in
    direction ``d`` when ``q`` is None; its edge signs are then orient2d
    in the plane off the axis.  A pair whose float signs leave the answer
    open (none disagree, and some are unproven) is recomputed exactly.
    """
    # edge k of a triangle runs from its vertex k to its vertex k + 1
    u, v = tv.reshape(-1, 3), tv[:, [1, 2, 0]].reshape(-1, 3)
    if q is None:
        off = [(axis + 1) % 3, (axis + 2) % 3]
        signs = _orient2d(u[:, off], v[:, off], np.repeat(p[:, off], 3, axis=0))
        if d[axis] < 0:
            signs = -signs
    else:
        signs = _orient3d(u, v, np.repeat(q, 3, axis=0), np.repeat(p, 3, axis=0))
    signs = signs.reshape(-1, 3)
    a, b, c = signs.T  # views: the exact signs below are written through them
    split = ((a > 0) | (b > 0) | (c > 0)) & ((a < 0) | (b < 0) | (c < 0))
    for i in np.flatnonzero(~split & ((a == 0) | (b == 0) | (c == 0))):
        signs[i] = _exact_edges(tv[i], p[i], None if q is None else q[i], d)
    return np.where((b == a) & (c == a), a, 0).astype(np.int8)


# ---------------------------------------------------------------------------
# parity casting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityResult:
    count: int
    side: int  # SIDE_ABOVE (even crossings) or SIDE_BELOW (odd)
    outside_support: bool


@dataclass
class ParityBatch:
    sides: np.ndarray  # (N,) int8
    counts: np.ndarray  # (N,) int64
    outside_support: np.ndarray  # (N,) bool


def _normalize_direction(direction: Sequence[float]) -> np.ndarray:
    d = np.asarray(direction, dtype=np.float64)
    n = float(np.linalg.norm(d))
    if n == 0.0 or not np.isfinite(n):
        raise ValidationError("cast direction must be non-zero and finite")
    return d / n


def _ray_lines(pts: np.ndarray, axis: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Group points by the line their rays run along.

    Returns ``(line_of, heads)``: each point's line, and one point of each
    line.  Only a cast along a lattice axis puts several points on one
    line: the line is then keyed by the two coordinates off that axis.
    """
    n = len(pts)
    if axis is None:
        every = np.arange(n)
        return every, every
    a, b = (pts[:, c] for c in range(3) if c != axis)
    order = np.lexsort((b, a))
    new_line = np.ones(n, dtype=bool)
    new_line[1:] = (a[order][1:] != a[order][:-1]) | (b[order][1:] != b[order][:-1])
    line_of = np.empty(n, dtype=np.int64)
    line_of[order] = np.cumsum(new_line) - 1
    return line_of, order[new_line]


def _column_boxes(
    p: np.ndarray, e: np.ndarray, index: MeshIndex
) -> tuple[np.ndarray, np.ndarray]:
    """Per line p + t e, the bounds ``(lo, hi)`` of a query box holding its
    part inside the extent of the mesh's triangle boxes; lo = +inf and
    hi = -inf, which no triangle box meets, where the line misses that
    extent.

    On an axis along which the line does not move the box is the point's
    coordinate; on the others it is the line's segment through the
    extent, widened by a bound on the rounding that computed it.  So a cast
    along a lattice axis queries the point's off-axis coordinates and the
    whole extent along the axis.
    """
    lo, hi = index.keys[:, 0], index.hi_max[:, -1]
    moving = e != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo, t_hi = (lo - p) / e, (hi - p) / e
    enter = np.where(moving, np.minimum(t_lo, t_hi), -np.inf).T
    leave = np.where(moving, np.maximum(t_lo, t_hi), np.inf).T
    t0 = np.maximum(np.maximum(enter[0], enter[1]), enter[2])[:, None]
    t1 = np.minimum(np.minimum(leave[0], leave[1]), leave[2])[:, None]
    x0, x1 = p + e * t0, p + e * t1
    reach = np.abs(p) + np.abs(e) * np.maximum(np.abs(t0), np.abs(t1))
    slack = np.where(moving, 16.0 * _U * reach, 0.0)
    box_lo = np.maximum(np.minimum(x0, x1) - slack, lo)
    box_hi = np.minimum(np.maximum(x0, x1) + slack, hi)
    # rounded outwards, so that center -/+ half still encloses the box
    center = 0.5 * (box_lo + box_hi)
    half = np.nextafter(np.maximum(box_hi - center, center - box_lo), np.inf)
    ok = (box_lo <= box_hi).T
    meets = (ok[0] & ok[1] & ok[2])[:, None]
    return np.where(meets, center - half, np.inf), np.where(meets, center + half, -np.inf)


def _ramp(sizes: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(k)`` for each k in ``sizes``."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def cast_parity_many(
    points: np.ndarray,
    mesh: TriangleMesh,
    index: MeshIndex,
    direction: Sequence[float] = (0.0, 0.0, 1.0),
) -> ParityBatch:
    """Parity-classify many points at once.

    A cast along a lattice axis groups the points whose rays run along one
    line (those sharing their off-axis coordinates): a line has one query
    box and one set of edge signs per candidate, and each of its points
    counts the crossings whose plane sign puts them beyond it.  A cast
    along any other direction d runs each point p's ray on its own line,
    through fl(p + d).  The boxes of all lines go to the index in one
    call.  A point whose line meets no candidate is outside the surface's
    support.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    d = _normalize_direction(direction)
    moving = np.flatnonzero(d)
    axis = int(moving[0]) if len(moving) == 1 else None
    line_of, heads = _ray_lines(pts, axis)
    p = pts[heads]
    q = None if axis is not None else p + d
    e = np.broadcast_to(d, p.shape) if q is None else q - p

    pair_line, tri = query_candidates(index, *_column_boxes(p, e, index)).T
    n_cand = np.bincount(pair_line, minlength=len(heads))
    tv = mesh.tri_vertices()[tri]
    sign = _line_crossings(tv, p[pair_line], None if q is None else q[pair_line], axis, d)

    # every crossing of a line against every point on it: the crossing is
    # beyond the point where the plane sign agrees with the edge signs
    hit = np.flatnonzero(sign)
    members = np.bincount(line_of, minlength=len(heads))
    n_mem = members[pair_line[hit]]
    by_line = np.argsort(line_of, kind="stable")
    who = by_line[np.repeat((np.cumsum(members) - members)[pair_line[hit]], n_mem) + _ramp(n_mem)]
    tv_who = np.repeat(tv[hit], n_mem, axis=0)
    plane = _orient3d(tv_who[:, 0], tv_who[:, 1], tv_who[:, 2], pts[who])
    for i in np.flatnonzero(plane == 0):
        plane[i] = _exact_plane(tv_who[i], pts[who[i]])
    beyond = plane == np.repeat(sign[hit], n_mem)
    counts = np.bincount(who[beyond], minlength=len(pts))
    sides = np.where(counts % 2 == 1, SIDE_BELOW, SIDE_ABOVE).astype(np.int8)
    return ParityBatch(sides, counts, n_cand[line_of] == 0)


def cast_parity(
    point: Sequence[float],
    mesh: TriangleMesh,
    index: MeshIndex,
    direction: Sequence[float] = (0.0, 0.0, 1.0),
) -> ParityResult:
    """Classify one point against a surface: a one-point :func:`cast_parity_many`."""
    b = cast_parity_many(np.asarray(point, dtype=np.float64)[None], mesh, index, direction)
    return ParityResult(int(b.counts[0]), int(b.sides[0]), bool(b.outside_support[0]))


# ---------------------------------------------------------------------------
# cell pre-classification
# ---------------------------------------------------------------------------

def classify_cells(
    spec: LatticeSpec,
    overlap: OverlapMap,
    surfaces: Sequence[tuple[TriangleMesh, MeshIndex]],
    directions: Sequence[Sequence[float]] | None = None,
    window: slice = slice(None),
) -> tuple[np.ndarray, np.ndarray]:
    """Classify every cell of a window of crossed parents, a slice of
    ``overlap.parents`` (all of them by default), against every surface.

    Returns ``(intersects, sides)``, (S, W, K) arrays over surfaces, the
    window's parents and cells in raster order.  Where a surface crosses a
    parent, each cell's intersect flag comes from exact SAT against the
    surface's triangles recorded for that parent, one :func:`sat_batch`
    per (parent, surface), and its side from a parity cast at its centre,
    one cast per surface over every cell of the window's parents it
    crosses.  Elsewhere the flag is False and the side 0.  A window with a
    step other than 1 is refused.
    """
    if window.step not in (None, 1):
        raise ValidationError(f"a window of crossed parents takes no step, got {window.step}")
    first, stop, _ = window.indices(len(overlap.parents))
    parents, offsets = overlap.parents[first:stop], overlap.offsets[first : stop + 1]
    owner = np.repeat(np.arange(len(parents)), np.diff(offsets))
    surface, triangle = (c[offsets[0] : offsets[-1]] for c in (overlap.surface, overlap.triangle))
    k_total = spec.cells_per_parent
    base = np.asarray(spec.origin) + parents * np.asarray(spec.parent_dims)
    centers = base[:, None, :] + cell_lut(spec)
    halves = np.asarray(spec.min_dims, dtype=np.float64) * 0.5

    intersects = np.zeros((len(surfaces), len(parents), k_total), dtype=bool)
    sides = np.zeros((len(surfaces), len(parents), k_total), dtype=np.int8)
    for sid, (mesh, index) in enumerate(surfaces):
        crossed, at = np.unique(owner[surface == sid], return_index=True)
        if not len(crossed):
            continue
        for w, tris in zip(crossed.tolist(), np.split(triangle[surface == sid], at[1:])):
            intersects[sid, w] = sat_batch(mesh.tri_vertices()[tris], centers[w], halves).any(axis=1)
        direction = (0.0, 0.0, 1.0) if directions is None else directions[sid]
        cast = cast_parity_many(centers[crossed].reshape(-1, 3), mesh, index, direction)
        sides[sid, crossed] = cast.sides.reshape(len(crossed), k_total)
    return intersects, sides


def write_sidedness_csv(
    path: str | Path, spec: LatticeSpec, parents: np.ndarray, sides: np.ndarray
) -> int:
    """Diagnostic dump: one row per (parent, cell, surface), parents in the
    order of the (P, 3) ``parents``, cells in raster order (x fastest),
    surfaces innermost.

    ``sides`` is (S, P, K), as :func:`classify_cells` gives it: each cell's
    side of each surface, 0 where the surface does not cross the parent.
    ``code`` is the 3-bit sidedness state (above=4, below=2, untested=1);
    intersect flags are a separate channel (see the overlap CSV).
    """
    kx, ky, kz = spec.cell_counts
    cells = np.indices((kz, ky, kx)).reshape(3, -1)[::-1].T
    codes = np.select([sides == SIDE_ABOVE, sides == SIDE_BELOW], [CODE_ABOVE, CODE_BELOW], CODE_UNTESTED)
    p, c, s = np.indices((len(parents), len(cells), len(sides))).reshape(3, -1)
    table = np.column_stack([parents[p], cells[c], s, codes[s, p, c]])
    with Path(path).open("w", newline="") as handle:
        handle.write("parent,cell_ix,cell_iy,cell_iz,surface_id,code\n")
        for rows in np.split(table, range(4096, len(table), 4096)):  # formatted 4,096 rows at a time
            handle.write("%d:%d:%d,%d,%d,%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist()))
    return len(table)
