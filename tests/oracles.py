"""Independent reference predicates the library must agree with.

Nothing in here calls into :mod:`reblock`, apart from raising its
exception classes, the class-by-class model merge, which runs the
box-list ``merge_class`` on each class, the parent-by-parent
restructure, which runs the library's stages on one crossed parent at a
time, the chunked model writer, which takes the model's canonical order
and centroids, the overlap-map readers and builder, which read or fill
its columns, and the merge objective, which scores by the library's
aspect-ratio objective — these are deliberately separate
implementations (polygon clipping in floats and in exact rationals,
closed-form containment, winding numbers, heightfield interpolation, ray
crossings in exact rationals, a brute-force bounding-box filter, the
triangle bounds, normals, index and SAT plane test as NumPy reductions
over rows of three, grid-slab dissolved and persistent merges, a
per-class model merge, a per-parent painter and restructure, a
block-by-block tagger, a dict grouping of blocks by parent, a row-by-row
model reader, a chunk-by-chunk ``%r`` model writer, a row-by-row overlap
CSV writer, a block-by-block disjointness check, line-by-line OBJ and
OFF readers and a recursive octree, which takes only the candidate
tables and the dyadic check from the library) used as ground truth by
the unit and acceptance tests.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from reblock.errors import EmptyMesh, InconsistentSidedness, MisalignedBlock, ValidationError


# ---------------------------------------------------------------------------
# triangle/box overlap via Sutherland-Hodgman clipping
# ---------------------------------------------------------------------------

def _clip_halfspace(poly: list[np.ndarray], dist) -> list[np.ndarray]:
    """Clip a polygon against one halfspace; dist >= 0 means kept."""
    out: list[np.ndarray] = []
    n = len(poly)
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        da = dist(a)
        db = dist(b)
        if da >= 0.0:
            out.append(a)
        if (da >= 0.0) != (db >= 0.0):
            t = da / (da - db)
            out.append(a + t * (b - a))
    return out


def clip_overlap(tri_verts, lo, hi) -> bool:
    """Closed triangle/box contact test by clipping the triangle to the box.

    The box is the product of closed intervals [lo, hi]; any surviving
    polygon (even a single touch point) counts as contact, matching the
    separating-axis convention.

    Blind spot: in floats a cut point can round off a box face, so a
    contact made at a single point can be missed (triangle (1,5,4)
    (5,1,-1) (0,5,5) touches the box [2,3]^3 only at (2.5, 3, 2) and this
    answers False).  Use :func:`clip_overlap_exact` as ground truth on
    touching geometry.
    """
    poly = [np.asarray(v, dtype=np.float64) for v in tri_verts]
    return _clip_box(poly, np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64))


def clip_overlap_exact(tri_verts, center, half) -> bool:
    """:func:`clip_overlap` in exact rational arithmetic.

    Each float converts to a :class:`~fractions.Fraction` without rounding,
    and the box bounds are ``center - half`` and ``center + half`` formed
    exactly, so every cut point is exact and a single touch point survives.
    """
    exact = np.vectorize(lambda x: Fraction(float(x)), otypes=[object])
    c, h = exact(center), exact(half)
    return _clip_box(list(exact(tri_verts)), c - h, c + h)


def _clip_box(poly: list[np.ndarray], lo: np.ndarray, hi: np.ndarray) -> bool:
    """Clip a polygon to the closed box [lo, hi]; True iff anything is left."""
    for axis in range(3):
        poly = _clip_halfspace(poly, lambda p, a=axis: p[a] - lo[a])
        if not poly:
            return False
        poly = _clip_halfspace(poly, lambda p, a=axis: hi[a] - p[a])
        if not poly:
            return False
    return True


# width bound: a convex polygon gains at most 2 vertices per clip plane
_CLIP_W = 16


def clip_overlap_pairs(tri_verts: np.ndarray, centers: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """Vectorized :func:`clip_overlap`, pair i = triangle i vs box i.

    Same emptiness answer as the scalar version, computed for all pairs
    at once with a fixed-width polygon buffer, and the same blind spot:
    it can miss a single-point contact whose clipped position rounds off
    a box face.
    """
    tv = np.asarray(tri_verts, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    halves = np.asarray(halves, dtype=np.float64)
    n = len(tv)
    lo = centers - halves
    hi = centers + halves

    poly = np.zeros((n, _CLIP_W, 3), dtype=np.float64)
    poly[:, :3] = tv
    count = np.full(n, 3, dtype=np.int64)
    slots = np.arange(_CLIP_W)

    for axis in range(3):
        for kind in (0, 1):
            coord = poly[:, :, axis]
            if kind == 0:
                dist = coord - lo[:, axis][:, None]
            else:
                dist = hi[:, axis][:, None] - coord
            valid = slots[None, :] < count[:, None]
            inside = (dist >= 0.0) & valid
            succ = np.where(slots[None, :] + 1 < count[:, None], slots[None, :] + 1, 0)
            succ_inside = np.take_along_axis(inside, succ, axis=1)
            crossing = (inside != succ_inside) & valid

            emit = inside.astype(np.int64) + crossing.astype(np.int64)
            start = np.cumsum(emit, axis=1) - emit
            new_count = emit.sum(axis=1)
            assert new_count.max(initial=0) <= _CLIP_W
            new_poly = np.zeros_like(poly)

            rows, cols = np.nonzero(inside)
            new_poly[rows, start[rows, cols]] = poly[rows, cols]

            rows, cols = np.nonzero(crossing)
            nxt = succ[rows, cols]
            d0 = dist[rows, cols]
            d1 = dist[rows, nxt]
            t = d0 / (d0 - d1)
            cut = poly[rows, cols] + t[:, None] * (poly[rows, nxt] - poly[rows, cols])
            new_poly[rows, start[rows, cols] + inside[rows, cols]] = cut

            poly = new_poly
            count = new_count
    return count > 0


# ---------------------------------------------------------------------------
# closed-form containment
# ---------------------------------------------------------------------------

def inside_sphere(points: np.ndarray, center, radius: float) -> np.ndarray:
    p = np.asarray(points, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    return np.einsum("ij,ij->i", p, p) < radius * radius


def inside_box(points: np.ndarray, lo, hi) -> np.ndarray:
    p = np.asarray(points, dtype=np.float64)
    return ((p > np.asarray(lo)) & (p < np.asarray(hi))).all(axis=1)


def distance_to_sphere(points: np.ndarray, center, radius: float) -> np.ndarray:
    p = np.asarray(points, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    return np.abs(np.linalg.norm(p, axis=1) - radius)


def distance_to_box(points: np.ndarray, lo, hi) -> np.ndarray:
    """Unsigned distance to the box *surface* (not the solid)."""
    p = np.asarray(points, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    gap = np.maximum(lo - p, p - hi)  # per-axis signed exterior excess
    outside = np.maximum(gap, 0.0)
    d_out = np.linalg.norm(outside, axis=1)
    d_in = -gap.max(axis=1)  # depth inside; negative when outside
    return np.where(d_out > 0.0, d_out, d_in)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    t = np.clip(_dot(p - a, ab) / _dot(ab, ab), 0.0, 1.0)
    return np.linalg.norm(p - a - t[..., None] * ab, axis=-1)


def distance_to_mesh(points: np.ndarray, vertices, triangles) -> np.ndarray:
    """Unsigned distance from each point to the nearest triangle.

    The nearest point of a triangle is the foot of the perpendicular on
    its plane when that falls inside it, else the nearest point of an edge.
    """
    p = np.asarray(points, dtype=np.float64)[:, None, :]
    tv = np.asarray(vertices, dtype=np.float64)[np.asarray(triangles)]
    a, b, c = (tv[None, :, k] for k in range(3))
    n = np.cross(b - a, c - a)
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    h = _dot(p - a, n)
    foot = p - h[..., None] * n
    edges = ((a, b), (b, c), (c, a))
    inside = np.logical_and.reduce([_dot(np.cross(v - u, foot - u), n) >= 0.0 for u, v in edges])
    to_edge = np.minimum.reduce([_segment_distance(p, u, v) for u, v in edges])
    return np.where(inside, np.abs(h), to_edge).min(axis=1)


# ---------------------------------------------------------------------------
# surface containment: winding numbers and heightfields
# ---------------------------------------------------------------------------

def winding_number(points: np.ndarray, vertices, triangles) -> np.ndarray:
    """Generalized winding number of a triangle mesh at each point.

    The sum of the triangles' signed solid angles (Van Oosterom & Strackee
    1983) over 4π (Jacobson, Kavan & Sorkine-Hornung 2013): ±1 inside a
    closed consistently oriented mesh and 0 outside it, so a point is
    inside when |w| > 1/2.  Only points on the surface are ambiguous (a
    point on a box edge gets 1/4).
    """
    p = np.asarray(points, dtype=np.float64)[:, None, :]
    tv = np.asarray(vertices, dtype=np.float64)[np.asarray(triangles)]
    a, b, c = (tv[None, :, k] - p for k in range(3))
    la, lb, lc = (np.linalg.norm(v, axis=-1) for v in (a, b, c))
    det = _dot(a, np.cross(b, c))
    den = la * lb * lc + _dot(a, b) * lc + _dot(b, c) * la + _dot(c, a) * lb
    return np.arctan2(det, den).sum(axis=1) / (2.0 * np.pi)


def sheet_height(xs, ys, height, x: float, y: float) -> float | None:
    """Height at (x, y) of the sheet ``grid_surface(xs, ys, height)`` builds,
    or None off its footprint.

    Each grid cell is split along its diagonal from (xs[i], ys[j]) to
    (xs[i+1], ys[j+1]), and the height is linear on each half.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if not (xs[0] <= x <= xs[-1] and ys[0] <= y <= ys[-1]):
        return None
    i = min(int(np.searchsorted(xs, x, side="right")) - 1, len(xs) - 2)
    j = min(int(np.searchsorted(ys, y, side="right")) - 1, len(ys) - 2)
    u = (x - xs[i]) / (xs[i + 1] - xs[i])
    v = (y - ys[j]) / (ys[j + 1] - ys[j])

    def z(di: int, dj: int) -> float:
        return float(height(xs[i + di], ys[j + dj]) if callable(height) else height)

    if u >= v:  # the (i, j), (i+1, j), (i+1, j+1) half
        return z(0, 0) + u * (z(1, 0) - z(0, 0)) + v * (z(1, 1) - z(1, 0))
    return z(0, 0) + v * (z(0, 1) - z(0, 0)) + u * (z(1, 1) - z(0, 1))


def _perturbed_sign(value: Fraction, slope: list[Fraction]) -> int:
    """Sign of ``value + slope . (ε, ε², ε³)`` for an infinitesimal ε > 0."""
    for v in [value, *slope]:
        if v != 0:
            return 1 if v > 0 else -1
    return 0


def exact_crossings(point, direction, vertices, triangles) -> int:
    """Crossings of the ray from ``point`` with a triangle mesh, counted
    over every triangle in exact rationals.

    The ray runs along ``direction`` when that is a lattice axis, and else
    from ``point`` through ``point + direction / |direction|`` rounded to
    floats.  A tie is broken by moving the point, and its ray with it, to
    point + (ε, ε², ε³) for an infinitesimal ε > 0.  A triangle counts
    when the ray's line passes strictly inside its three edges and the
    moved point lies strictly behind its plane along the ray.
    """
    d = np.asarray(direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    p = [Fraction(float(v)) for v in point]
    if np.count_nonzero(d) == 1:
        ray = [Fraction(float(v)) for v in d]
    else:
        end = np.asarray(point, dtype=np.float64) + d
        ray = [Fraction(float(v)) - w for v, w in zip(end, p)]

    def minus(u, v):
        return [u[0] - v[0], u[1] - v[1], u[2] - v[2]]

    def cross(u, v):
        return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    count = 0
    for tri in triangles:
        a, b, c = ([Fraction(float(x)) for x in vertices[i]] for i in tri)
        sides = set()
        for u, v in ((a, b), (b, c), (c, a)):
            # the moved line's side of edge (u, v): ray . ((u - p) x (v - p))
            # grows by ray . ((v - u) x s) when p moves by s
            slope = cross(ray, minus(v, u))
            sides.add(_perturbed_sign(dot(ray, cross(minus(u, p), minus(v, p))), slope))
        n = cross(minus(b, a), minus(c, a))
        # behind the plane along the ray: n . (p - a) and n . ray differ in sign
        behind = _perturbed_sign(dot(n, minus(p, a)), n) * _perturbed_sign(dot(n, ray), [])
        if len(sides) == 1 and 0 not in sides and behind == -1:
            count += 1
    return count


# ---------------------------------------------------------------------------
# triangle index: brute-force bounding-box filter
# ---------------------------------------------------------------------------

def _inflate_flat(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Widen every axis of a box thinner than 1e-9 × max(1, its widest
    extent) by that much on both sides."""
    eps = 1e-9 * np.maximum((hi - lo).max(axis=-1, keepdims=True), 1.0)
    flat = (hi - lo) < eps
    return np.where(flat, lo - eps, lo), np.where(flat, hi + eps, hi)


def index_rows(vertices, triangles) -> tuple[np.ndarray, ...]:
    """The five ``MeshIndex`` arrays (tri_lo, tri_hi, order, keys, hi_max)
    with the triangle bounds and widest extent taken by reductions over
    rows of three."""
    tv = np.asarray(vertices, dtype=np.float64)[np.asarray(triangles)]
    lo, hi = _inflate_flat(*tri_bounds_rows(tv))
    order = np.argsort(lo.T, axis=1, kind="stable").astype(np.int32)
    keys = np.take_along_axis(lo.T, order, axis=1)
    hi_max = np.maximum.accumulate(np.take_along_axis(hi.T, order, axis=1), axis=1)
    return lo, hi, order, keys, hi_max


def tri_bounds_rows(tv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle bounds of a (..., 3, 3) array, reduced over its vertices."""
    return tv.min(axis=-2), tv.max(axis=-2)


def zero_normals_rows(tv: np.ndarray) -> np.ndarray:
    """Which triangles of a (T, 3, 3) array have an exactly zero normal."""
    return (np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]) == 0.0).all(axis=1)


def sat_core_rows(vp: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The nine edge axes and the plane axis of the separating-axis test,
    as the library computed them with ``np.cross``, ``sum(axis=-1)`` and
    ``np.einsum``: ``vp`` is (N, 3, 3) vertices relative to each box's
    centre, ``h`` a (3,) or (N, 3) half extent.  True where no axis
    separates."""
    v = np.ascontiguousarray(vp.transpose(1, 2, 0))  # (vertex, coord, N)
    ht = h.T.reshape(3, -1)
    i1, i2 = [1, 2, 0], [2, 0, 1]
    f = v[[1, 2, 0]] - v
    fa, fb = f[:, i1], f[:, i2]
    p = v[:, None, i2] * fa - v[:, None, i1] * fb
    r = np.abs(fb) * ht[i1] + np.abs(fa) * ht[i2]
    separated = ((p.min(axis=0) > r) | (p.max(axis=0) < -r)).any(axis=(0, 1))
    n = np.cross(f[0].T, f[1].T)
    r = (np.abs(n) * h).sum(axis=-1)
    s = np.einsum("...c,...c->...", n, vp[:, 0, :])
    return ~(separated | (s > r) | (s < -r))


def index_candidates(vertices, triangles, lo, hi) -> np.ndarray:
    """Ids of the triangles whose bounding boxes meet the closed box [lo, hi].

    Flat axes of each triangle's bounds are inflated first, so an
    axis-parallel triangle still has a volume to meet.  Sorted, int32.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    tv = np.asarray(vertices, dtype=np.float64)[np.asarray(triangles)]
    tri_lo, tri_hi = _inflate_flat(tv.min(axis=1), tv.max(axis=1))
    meet = ((tri_lo <= hi) & (tri_hi >= lo)).all(axis=1)
    return np.flatnonzero(meet).astype(np.int32)


# ---------------------------------------------------------------------------
# dissolved merge on the occupancy grid
# ---------------------------------------------------------------------------

def coalesce_binary_grid(theta, max_dims=None, token_life=None) -> list[tuple]:
    """Dissolved merge that tests each growth step by slicing the grid.

    ``theta`` is a [z, y, x] map of active (1) and empty (0) cells; it is
    not modified.  A block seeds at the first active cell in raster order
    and grows by one cell layer along +x, +y, +z in turn while the layer
    is inside the parent, within ``max_dims`` and wholly active; three
    blocked axes in one cycle, token expiry or consuming every active cell
    emit it.  Blocks come out in emission order as (cell_min, dims).
    """
    theta = np.array(theta, dtype=np.uint8)
    kz, ky, kx = theta.shape
    mx, my, mz = (kx, ky, kz) if max_dims is None else max_dims
    flat = theta.ravel()
    n_occupant = int(flat.sum())
    out: list[tuple] = []
    count = 0
    while True:
        remaining = n_occupant - count
        if remaining == 0:
            break
        first = int(flat.argmax())
        nx, ny, nz = first % kx, first // kx % ky, first // (kx * ky)
        if remaining == 1:
            out.append(((nx, ny, nz), (1, 1, 1)))
            break
        sx = sy = sz = 1
        i = token_life
        while True:
            barriers = 0
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
        out.append(((nx, ny, nz), (sx, sy, sz)))
        theta[nz : nz + sz, ny : ny + sy, nx : nx + sx] = 0
        count += sx * sy * sz
    return out


# ---------------------------------------------------------------------------
# persistent merge on the ordinal grid
# ---------------------------------------------------------------------------

@dataclass
class MergeRecord:
    """Mutable bookkeeping for one input block during persistent merging."""

    cell_min: tuple[int, int, int]
    dims: list[int]
    n_curr: int
    subsumed: bool = False


def _box_slices(n, s) -> tuple[slice, slice, slice]:
    """Grid slices for the cell box [n, n+s); arrays are indexed [z, y, x]."""
    return slice(n[2], n[2] + s[2]), slice(n[1], n[1] + s[1]), slice(n[0], n[0] + s[0])


def feasible_cell_expansion(theta, records, b, corner_lo, corner_hi, axis, max_dims) -> bool:
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


def coalesce_persistent_grid(owner, max_dims=None, token_life=None) -> list[tuple]:
    """Persistent merge that tests each face by slicing the grid beyond it.

    ``owner`` is a [z, y, x] ordinal grid: each cell holds the index of
    the input block covering it, or -1; the ordinals run 0..n-1 and each
    covers one solid box.  The input grid is not modified.  Smaller blocks
    move first, passes repeat until one passes without an absorption, and
    the surviving blocks come out in ordinal order as (cell_min, dims).
    """
    theta = np.array(owner, dtype=np.int64)
    kz, ky, kx = theta.shape
    m = (kx, ky, kz) if max_dims is None else max_dims
    flat = theta.ravel()
    cells = np.flatnonzero(flat >= 0)
    ordinals = flat[cells]
    # a box's first and last raster cells are its min and max corners
    _, first = np.unique(ordinals, return_index=True)
    _, last = np.unique(ordinals[::-1], return_index=True)
    starts = cells[first].tolist()
    records: list[MergeRecord] = []
    for start, end in zip(starts, cells[cells.size - 1 - last].tolist()):
        n = (start % kx, start // kx % ky, start // (kx * ky))
        t = (end % kx, end // kx % ky, end // (kx * ky))
        dims = [t[0] - n[0] + 1, t[1] - n[1] + 1, t[2] - n[2] + 1]
        records.append(MergeRecord(n, dims, dims[0] * dims[1] * dims[2]))

    while True:
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
                    theta, records, b, (nx + sx, ny, nz), (nx + dx, ny + sy, nz + sz), 0, m
                ):
                    sx = rec.dims[0]
                else:
                    barriers += 1
                dy = min(sy + 1, ky - ny)
                if dy > sy and feasible_cell_expansion(
                    theta, records, b, (nx, ny + sy, nz), (nx + sx, ny + dy, nz + sz), 1, m
                ):
                    sy = rec.dims[1]
                else:
                    barriers += 1
                dz = min(sz + 1, kz - nz)
                if dz > sz and feasible_cell_expansion(
                    theta, records, b, (nx, ny, nz + sz), (nx + sx, ny + sy, nz + dz), 2, m
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
        if not grew:
            break

    return [(r.cell_min, tuple(r.dims)) for r in records if not r.subsumed]


def objective_value(blocks, min_dims, objective) -> float | tuple[int, float]:
    """A merge's score under ``objective``, lower is better: the library's
    aspect-ratio objective, after the block count under "count"."""
    from reblock.merge import aspect_ratio_objective

    ar = aspect_ratio_objective(blocks, min_dims)
    if objective == "aspect":
        return ar
    return (len(blocks), ar)


# ---------------------------------------------------------------------------
# whole-model merge, one class at a time
# ---------------------------------------------------------------------------

def merge_by_class(model, params) -> list[tuple]:
    """Merge of a valid model as ``(parent, cell_min, cell_dims, label)``
    rows: ``merge_class`` on each (parent, label) class's boxes in input
    order, parents in raster order (z, then y, then x), labels ascending,
    each class's blocks as it returns them."""
    from reblock.merge import merge_class

    spec, classes = model.spec, {}
    for p, n, s, label in zip(
        model.parent.tolist(), model.cell_min.tolist(), model.cell_dims.tolist(), model.label.tolist()
    ):
        classes.setdefault((p[2], p[1], p[0], label), []).append((tuple(n), tuple(s)))
    rows = []
    for (pz, py, px, label), boxes in sorted(classes.items()):
        for b in merge_class(boxes, spec.cell_counts, spec.min_dims, params, label):
            rows.append(((px, py, pz), b.cell_min, b.cell_dims, label))
    return rows


# ---------------------------------------------------------------------------
# octree baseline by recursion, one node and one octant at a time
# ---------------------------------------------------------------------------

def _child_offset(node_min, half, i: int) -> tuple[int, int, int]:
    return (
        node_min[0] + (i & 1) * half[0],
        node_min[1] + ((i >> 1) & 1) * half[1],
        node_min[2] + ((i >> 2) & 1) * half[2],
    )


def merge_octant_leaves(child_labels, node_min, half):
    """Coalesce same-label full-child leaves of one octant.

    ``child_labels[i]`` is the label of sibling position i when that
    child ended as a single leaf, else None.  Returns the merged blocks
    and a used-mask over positions; unused leaf positions remain the
    caller's to emit individually.
    """
    from reblock.merge import MergedBlock
    from reblock.octree import EDGE_CANDIDATES, QUAD_CANDIDATES

    labels = list(child_labels)
    if all(lab is not None for lab in labels) and len(set(labels)) == 1:
        raise ValidationError(
            "octant with 8 identically labelled leaves reached the merge "
            "stage; it should have been a homogeneous node"
        )
    used = [False] * 8
    merged = []
    for group in QUAD_CANDIDATES + EDGE_CANDIDATES:
        first = labels[group[0]]
        if first is None or used[group[0]]:
            continue
        if any(labels[i] is None or used[i] or labels[i] != first for i in group[1:]):
            continue
        offsets = [_child_offset(node_min, half, i) for i in group]
        lo = tuple(min(o[c] for o in offsets) for c in range(3))
        hi = tuple(max(o[c] for o in offsets) + half[c] for c in range(3))
        dims = (hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2])
        merged.append(MergedBlock(lo, dims, int(first)))
        for i in group:
            used[i] = True
    return merged, used


def octree_decompose(labels, max_depth: int, intra_scale_merge: bool = False) -> list:
    """One parent's labelled (Kz, Ky, Kx) cell grid as octree leaf blocks
    (min, dims, label), emitted in recursion order (children by sibling
    index): a node is tested by slicing its window of the grid."""
    from reblock.merge import MergedBlock
    from reblock.octree import validate_dyadic

    labels = np.asarray(labels)
    kz, ky, kx = labels.shape
    validate_dyadic((kx, ky, kz), max_depth)
    out = []

    def rec(n, size, depth):
        """Emit this node's blocks; return its label when it is one leaf."""
        window = labels[n[2] : n[2] + size[2], n[1] : n[1] + size[1], n[0] : n[0] + size[0]]
        first = int(window.flat[0])
        if (window == first).all():
            out.append(MergedBlock(n, size, first))
            return first
        if depth >= max_depth:
            # resolution floor: fall apart into cells, each with its own label
            for cz in range(size[2]):
                for cy in range(size[1]):
                    for cx in range(size[0]):
                        cell = (n[0] + cx, n[1] + cy, n[2] + cz)
                        out.append(MergedBlock(cell, (1, 1, 1), int(window[cz, cy, cx])))
            return None
        half = (size[0] // 2, size[1] // 2, size[2] // 2)
        if not intra_scale_merge:
            for i in range(8):
                rec(_child_offset(n, half, i), half, depth + 1)
            return None
        child_labels, children_blocks = [], []
        for i in range(8):
            mark = len(out)
            lab = rec(_child_offset(n, half, i), half, depth + 1)
            children_blocks.append(out[mark:])
            del out[mark:]
            child_labels.append(lab)
        merged, used = merge_octant_leaves(child_labels, n, half)
        out.extend(merged)
        for i in range(8):
            if not used[i]:
                out.extend(children_blocks[i])
        return None

    rec((0, 0, 0), (kx, ky, kz), 0)
    return out


# ---------------------------------------------------------------------------
# block tagging, one block and one instruction at a time
# ---------------------------------------------------------------------------

def _affiliated_surface(sigmas: list[int]) -> tuple[int, int]:
    """(surface ordinal, sigma) a block affiliates with in a layered stack:
    surfaces listed top-down, so a valid sign row is some -1s (surfaces
    above the block), at most one 0 (the surface it straddles), then +1s
    (surfaces below it)."""
    prev, zeros = -1, 0
    for v in sigmas:
        if v < prev:
            raise InconsistentSidedness(f"sidedness vector {tuple(sigmas)} is not layered")
        prev, zeros = v, zeros + (v == 0)
    if zeros > 1:
        raise InconsistentSidedness(f"sidedness vector {tuple(sigmas)} straddles multiple surfaces")
    leading = sigmas.count(-1)
    if zeros:
        return leading, 0
    return (0, 1) if leading == 0 else (leading - 1, -1)


def apply_tagging_by_block(positions, majority_sides, input_labels, instructions) -> list[int]:
    """Labels of (B, S) positions in {-1, 0, +1} and majority sides in
    {-1, +1}, block by block: ``forced`` sends an across position to its
    majority side; a block that selects a negative label anywhere keeps
    its input label; otherwise each instruction in turn assigns its
    positive label, or for a zero the abstract label 2(n+1) - sigma of the
    surface n the block affiliates with and its side sigma of it."""
    out = []
    for row, majority, label in zip(
        np.asarray(positions).tolist(), np.asarray(majority_sides).tolist(), np.asarray(input_labels).tolist()
    ):
        effective = [m if i.forced and p == 0 else p for p, m, i in zip(row, majority, instructions)]
        selected = [
            {1: i.label_above, 0: i.label_across, -1: i.label_below}[e]
            for e, i in zip(effective, instructions)
        ]
        if any(lam < 0 for lam in selected):
            out.append(int(label))
            continue
        if 0 in selected:
            n, sigma = _affiliated_surface(effective)
        for lam in selected:
            label = lam if lam > 0 else 2 * (n + 1) - sigma
        out.append(int(label))
    return out


# ---------------------------------------------------------------------------
# restructuring, one crossed parent at a time
# ---------------------------------------------------------------------------

def paint_parent(spec, blocks) -> tuple[np.ndarray, np.ndarray]:
    """``(labels, owner)`` [z, y, x] grids of one parent's blocks (a list of
    ``Block`` or a ``BlockModel``): each cell's block label and ordinal, -1
    where no block is.  A cell two blocks cover raises ValidationError."""
    kx, ky, kz = spec.cell_counts
    owner = np.full((kz, ky, kx), -1, dtype=np.int64)
    labels = np.full_like(owner, -1)
    for i, b in enumerate(getattr(blocks, "blocks", blocks)):
        (x, y, z), (sx, sy, sz) = b.cell_min, b.cell_dims
        box = (slice(z, z + sz), slice(y, y + sy), slice(x, x + sx))
        if (owner[box] >= 0).any():
            raise ValidationError(f"overlapping blocks in parent {tuple(b.parent)}")
        owner[box], labels[box] = i, b.label
    return labels, owner


def overlap_records(overlap) -> dict:
    """An ``OverlapMap``'s records read row by row, as ``{parent: {surface:
    [triangle, ...]}}``."""
    out: dict = {}
    for p, parent in enumerate(overlap.parents.tolist()):
        for r in range(int(overlap.offsets[p]), int(overlap.offsets[p + 1])):
            per = out.setdefault(tuple(parent), {})
            per.setdefault(int(overlap.surface[r]), []).append(int(overlap.triangle[r]))
    return out


def overlap_columns(records: dict, model=None):
    """The ``OverlapMap`` of ``{parent: {surface: triangles}}``, ordered by
    Python sorts: parents in raster order (z, then y, then x), then
    surfaces, then triangles.  A parent with no triangles is left out.
    Each parent's group is its place among ``model``'s distinct parents in
    raster order, or among the records' own parents without a model."""
    from reblock.intersection import OverlapMap

    raster = lambda p: (p[2], p[1], p[0])
    owners = records if model is None else {tuple(p) for p in model.parent.tolist()}
    place = {p: g for g, p in enumerate(sorted(owners, key=raster))}
    parents, offsets, rows = [], [0], []
    for parent in sorted(records, key=raster):
        found = [(s, t) for s in sorted(records[parent]) for t in sorted(records[parent][s])]
        if found:
            parents.append(parent)
            rows += found
            offsets.append(len(rows))
    surface, triangle = np.array(rows, dtype=np.int32).reshape(-1, 2).T
    group = np.array([place[p] for p in parents], dtype=np.int64)
    return OverlapMap(np.array(parents, dtype=np.int64).reshape(-1, 3), np.array(offsets), surface, triangle, group)


def write_overlap_rows(path, records: dict) -> int:
    """The overlap diagnostics CSV of ``{parent: {surface: triangles}}``,
    one row at a time: parents in raster order, surfaces ascending, each
    surface's triangles in the order given."""
    rows = 0
    with Path(path).open("w", newline="") as handle:
        handle.write("parent_px,parent_py,parent_pz,surface_id,triangle_id\n")
        for parent in sorted(records, key=lambda p: (p[2], p[1], p[0])):
            for sid in sorted(records[parent]):
                for tid in records[parent][sid]:
                    handle.write(f"{parent[0]},{parent[1]},{parent[2]},{sid},{int(tid)}\n")
                    rows += 1
    return rows


def parent_runs(model) -> list[tuple]:
    """A model's blocks grouped by parent in a dict, as ``(parent,
    [ordinal, ...])`` pairs: parents in raster order (z, then y, then x),
    ordinals ascending."""
    groups: dict = {}
    for ordinal, parent in enumerate(model.parent.tolist()):
        groups.setdefault(tuple(parent), []).append(ordinal)
    return sorted(groups.items(), key=lambda g: g[0][::-1])


def restructure_by_parent(model, config, surfaces) -> tuple[list[tuple], np.ndarray]:
    """Restructure of a valid model as ``(parent, cell_min, cell_dims,
    label)`` rows, and the crossed parents' cell sides: (S, P, K), 0 where
    a surface does not cross the parent, parents in raster order.

    Pass-through blocks come first, in input order; then the crossed
    parents in raster order, each painted and classified on its own: SAT
    against the triangles recorded for it and a parity cast of its cell
    centres, per surface that crosses it.  Its cells' classes, keyed by
    label and per crossing surface the intersect flag and (preclassified)
    the side, go to ``merge_class`` as unit boxes in raster order, keys
    ascending.  A block's majority side counts its cells; a position left
    open is cast from the block's centroid; the labels come from
    :func:`apply_tagging_by_block`.
    """
    from reblock.intersection import detect_overlaps, sat_batch
    from reblock.lattice import BlockModel
    from reblock.merge import merge_class
    from reblock.sidedness import cast_parity_many

    spec, n_surfaces = model.spec, len(surfaces)
    kx, ky, kz = spec.cell_counts
    overlap = detect_overlaps(model, surfaces)
    directions = [i.positive_direction for i in config.instructions]
    cells = [(x, y, z) for z in range(kz) for y in range(ky) for x in range(kx)]
    halves = np.asarray(spec.min_dims) * 0.5
    stride = 2 if config.mode == "preclassified" else 1
    records = overlap_records(overlap)
    rows, positions, majorities, by_parent = [], [], [], {}
    for b in model.blocks:
        if b.parent in records:
            by_parent.setdefault(b.parent, []).append(b)
        else:
            rows.append((b.parent, b.cell_min, b.cell_dims, b.label))
            positions.append([None] * n_surfaces)
            majorities.append([1] * n_surfaces)
    crossed = sorted(by_parent, key=lambda p: (p[2], p[1], p[0]))
    parent_sides = np.zeros((n_surfaces, len(crossed), len(cells)), dtype=np.int8)
    for w, parent in enumerate(crossed):
        labels, owner = paint_parent(spec, by_parent[parent])
        base = [o + p * d for o, p, d in zip(spec.origin, parent, spec.parent_dims)]
        centers = np.array([[b + (n + 0.5) * m for b, n, m in zip(base, c, spec.min_dims)] for c in cells])
        ids = sorted(records[parent])
        intersects = np.array([
            sat_batch(surfaces[s][0].tri_vertices()[records[parent][s]], centers, halves).any(axis=1)
            for s in ids
        ])
        sides = np.array([cast_parity_many(centers, *surfaces[s], directions[s]).sides for s in ids])
        parent_sides[ids, w] = sides
        classes = {}
        for i in np.flatnonzero(owner.ravel() >= 0).tolist():
            key = [int(labels.flat[i])]
            for row in range(len(ids)):
                key += [int(intersects[row, i])]
                key += [int(sides[row, i])] if config.mode == "preclassified" else []
            classes.setdefault(tuple(key), []).append((cells[i], (1, 1, 1)))
        grids = sides.reshape(len(ids), kz, ky, kx)
        for key, boxes in sorted(classes.items()):
            for b in merge_class(boxes, spec.cell_counts, spec.min_dims, config.merge_params, key[0]):
                rows.append((parent, b.cell_min, b.cell_dims, key[0]))
                (x, y, z), (sx, sy, sz) = b.cell_min, b.cell_dims
                above = (grids[:, z : z + sz, y : y + sy, x : x + sx] == 1).sum(axis=(1, 2, 3))
                position, majority = [None] * n_surfaces, [1] * n_surfaces
                for row, s in enumerate(ids):
                    if key[1 + stride * row]:
                        position[s] = 0
                    elif config.mode == "preclassified":
                        position[s] = key[2 + stride * row]
                    majority[s] = 1 if 2 * above[row] >= sx * sy * sz else -1
                positions.append(position)
                majorities.append(majority)
    staged = BlockModel.from_columns(spec, *([r[k] for r in rows] for k in range(4)))
    centroids = staged.centroids()
    for s, (mesh, index) in enumerate(surfaces):
        missing = [i for i, p in enumerate(positions) if p[s] is None]
        if missing:
            cast = cast_parity_many(centroids[missing], mesh, index, directions[s])
            for i, side in zip(missing, cast.sides.tolist()):
                positions[i][s] = side
    tagged = apply_tagging_by_block(positions, majorities, staged.label, config.instructions)
    return [(*r[:3], label) for r, label in zip(rows, tagged)], parent_sides


# ---------------------------------------------------------------------------
# model CSV: one row at a time, one block at a time
# ---------------------------------------------------------------------------

_PARENT_SNAP = 1e-9
_INGEST_SNAP = 1e-6
_HEADER = ("x", "y", "z", "dx", "dy", "dz", "label")


def _snap_count(value: float, what: str, context: str) -> int:
    if not math.isfinite(value):
        raise ValidationError(f"{context}: non-finite {what} {value}")
    snapped = round(value)
    if abs(value - snapped) > _INGEST_SNAP:
        raise MisalignedBlock(f"{context}: {what} {value} is off-grid")
    return int(snapped)


def snap_row(spec, centroid, dims, label: int, context: str) -> tuple:
    """One (centroid, dims) row onto the cell grid, scalar operations only:
    ``(parent, cell_min, cell_dims, label)``."""
    cell_dims = []
    for axis in range(3):
        if dims[axis] <= 0:
            raise ValidationError(f"{context}: non-positive dimension {dims[axis]}")
        s = _snap_count(dims[axis] / spec.min_dims[axis], "block size", context)
        if s < 1:
            raise MisalignedBlock(f"{context}: dimension below the minimum block size")
        cell_dims.append(s)
    parent = []
    for axis in range(3):
        q = (centroid[axis] - spec.origin[axis]) / spec.parent_dims[axis]
        if not math.isfinite(q):
            raise ValidationError(f"{context}: non-finite parent index {q}")
        if abs(q) >= 2**62:
            raise ValidationError(f"{context}: parent index {q} is out of range")
        r = round(q)
        parent.append(int(r) if abs(q - r) <= _PARENT_SNAP * max(1.0, abs(q)) else math.floor(q))
    cell_min = []
    for axis in range(3):
        lo = centroid[axis] - dims[axis] * 0.5
        base = spec.origin[axis] + parent[axis] * spec.parent_dims[axis]  # inf past float range
        n = _snap_count((lo - base) / spec.min_dims[axis], "block corner", context)
        if n < 0 or n + cell_dims[axis] > spec.cell_counts[axis]:
            raise MisalignedBlock(
                f"{context}: block straddles a parent boundary on axis {axis}"
            )
        cell_min.append(n)
    return tuple(parent), tuple(cell_min), tuple(cell_dims), label


def validate_rows(spec, rows) -> None:
    """Disjointness check, block by block, painting one grid per parent."""
    counts = spec.cell_counts
    kx, ky, kz = counts
    grids: dict = {}
    for ordinal, (parent, cell_min, cell_dims, _) in enumerate(rows):
        for axis in range(3):
            if cell_dims[axis] < 1:
                raise ValidationError(f"block {ordinal} has empty extent")
            if cell_min[axis] < 0 or cell_min[axis] + cell_dims[axis] > counts[axis]:
                raise MisalignedBlock(f"block {ordinal} leaves its parent {parent}")
        grid = grids.setdefault(parent, np.zeros((kz, ky, kx), dtype=bool))
        nx, ny, nz = cell_min
        sx, sy, sz = cell_dims
        window = grid[nz : nz + sz, ny : ny + sy, nx : nx + sx]
        if window.any():
            raise ValidationError(
                f"block {ordinal} overlaps another block in parent {parent}"
            )
        window[:] = True


def _model_field(text: str, kind: type):
    """``kind(text)``, for the spellings NumPy's C reader takes: no
    digit-group underscores, ASCII digits, and labels within int64.  Past
    ``kind`` itself, a refused spelling fails in ``kind``'s words."""
    value = kind(text)
    if "_" in text or not text.strip().isascii():
        if kind is float:
            raise ValueError(f"could not convert string to float: {text!r}")
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    if kind is int and not -(2**63) <= value < 2**63:
        raise ValueError(f"label {value} is outside int64")
    return value


def read_model_rows(path, spec) -> list[tuple]:
    """A model CSV read and snapped one row at a time, then validated:
    ``(parent, cell_min, cell_dims, label)`` rows in file order.  The file
    is UTF-8 with an optional byte-order mark, and each line is a CSV
    record of its own: a quote left open ends with its line."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"model file not found: {path}")
    rows = []
    header = None
    for lineno, line in enumerate(path.read_text(encoding="utf-8-sig").split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        row = next(csv.reader([line]))
        if header is None:
            header = [c.strip().lower() for c in row]
            if tuple(header) != _HEADER:
                raise ValidationError(
                    f"{path}:{lineno}: expected header "
                    f"'{','.join(_HEADER)}', got '{','.join(header)}'"
                )
            continue
        if len(row) != 7:
            raise ValidationError(f"{path}:{lineno}: expected 7 fields, got {len(row)}")
        try:
            *values, label = (_model_field(f, kind) for f, kind in zip(row, (float,) * 6 + (int,)))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        rows.append(snap_row(spec, values[:3], values[3:], label, f"{path}:{lineno}"))
    if header is None:
        raise ValidationError(f"{path}: empty model file")
    validate_rows(spec, rows)
    return rows


def write_model_chunks(path, model) -> int:
    """A model CSV written in canonical order, 4,096 rows at a time, each
    chunk one ``%r`` format of every float and ``%d`` of every label:
    what ``write_model_csv`` must write byte for byte."""
    ordered = model.canonical()
    floats = np.hstack([ordered.centroids(), ordered.cell_dims * np.asarray(model.spec.min_dims)])
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(_HEADER) + "\n")
        for at in range(0, len(ordered), 4096):
            chunk = [floats[at : at + 4096], ordered.label[at : at + 4096, None]]
            chunk = np.concatenate(chunk, axis=1, dtype=object).ravel().tolist()
            handle.write("%r,%r,%r,%r,%r,%r,%d\n" * (len(chunk) // 7) % tuple(chunk))
    return len(ordered)


# ---------------------------------------------------------------------------
# surface meshes: one line at a time
# ---------------------------------------------------------------------------

def _number(text: str, kind: type):
    """``kind(text)``, for the spellings NumPy's C reader takes: ASCII, no
    digit-group underscores, and integers within int64."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"unsupported spelling {text!r}")
    value = kind(text)
    if kind is int and not -(2**63) <= value < 2**63:
        raise ValueError(f"{text} is outside int64")
    return value


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _mesh_arrays(verts: list, tris: list) -> tuple[np.ndarray, np.ndarray]:
    vertices = np.asarray(verts, dtype=np.float64).reshape(-1, 3)
    return vertices, np.asarray(tris, dtype=np.int32).reshape(-1, 3)


def _vertex(path: Path, lineno: int, fields: list[str]) -> list[float]:
    try:
        if len(fields) < 3:
            raise ValueError("short")
        xyz = [_number(f, float) for f in fields[:3]]
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: bad vertex line") from None
    if not all(math.isfinite(c) for c in xyz):
        raise ValidationError(f"{path}:{lineno}: non-finite vertex")
    return xyz


def load_off_lines(path) -> tuple[np.ndarray, np.ndarray]:
    """An OFF file read one line at a time: ``(vertices, triangles)``."""
    path = Path(path)
    lines = list(_meaningful_lines(path.read_text()))
    if not lines:
        raise ValidationError(f"{path}: empty OFF file")
    header = lines[0][1]
    if not header.upper().startswith("OFF"):
        raise ValidationError(f"{path}:{lines[0][0]}: missing OFF header")
    rest, pos = header[3:].strip(), 1
    if rest:
        counts_lineno, counts_line = lines[0][0], rest
    else:
        if pos >= len(lines):
            raise ValidationError(f"{path}: truncated OFF file")
        counts_lineno, counts_line = lines[pos]
        pos += 1
    parts = counts_line.split()
    try:
        nv, nf = _number(parts[0], int), _number(parts[1], int)
        if nv < 0 or nf < 0:
            raise ValueError("negative")
    except (IndexError, ValueError):
        raise ValidationError(f"{path}:{counts_lineno}: expected 'nv nf ne' counts") from None
    if pos + nv + nf > len(lines):
        raise ValidationError(f"{path}: fewer data lines than the header promises")
    verts = [_vertex(path, lineno, line.split()) for lineno, line in lines[pos : pos + nv]]
    pos += nv
    tris = []
    for lineno, line in lines[pos : pos + nf]:
        fields = line.split()
        try:
            k = _number(fields[0], int)
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: bad face line") from None
        if k != 3:
            raise ValidationError(
                f"{path}:{lineno}: face with {k} vertices; only triangles are supported"
            )
        if len(fields) < 4:
            raise ValidationError(f"{path}:{lineno}: truncated face line")
        try:
            tris.append([_number(f, int) for f in fields[1:4]])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: bad face line") from None
        if not all(0 <= i < nv for i in tris[-1]):
            raise ValidationError(f"{path}:{lineno}: vertex index out of range")
    if nf == 0:
        raise EmptyMesh(f"{path}: OFF file declares no faces")
    return _mesh_arrays(verts, tris)


def load_obj_lines(path) -> tuple[np.ndarray, np.ndarray]:
    """An OBJ file read one line at a time: ``(vertices, triangles)``.
    A negative reference counts back from the vertices read so far; a
    positive one may name any vertex of the file."""
    path = Path(path)
    lines = list(_meaningful_lines(path.read_text()))
    nv = sum(line.split()[0] == "v" for _, line in lines)
    verts: list[list[float]] = []
    tris: list[list[int]] = []
    for lineno, line in lines:
        fields = line.split()
        tag = fields[0]
        if tag == "v":
            verts.append(_vertex(path, lineno, fields[1:]))
        elif tag == "f":
            refs = fields[1:]
            if len(refs) != 3:
                raise ValidationError(
                    f"{path}:{lineno}: face with {len(refs)} vertices; "
                    "only triangulated OBJ files are supported"
                )
            try:
                values = [_number(ref.split("/", 1)[0], int) for ref in refs]
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: bad face line") from None
            values = [len(verts) + 1 + v if v < 0 else v for v in values]
            if not all(1 <= v <= nv for v in values):
                raise ValidationError(f"{path}:{lineno}: vertex reference out of range")
            tris.append([v - 1 for v in values])
        # every other record type (vn, vt, usemtl, o, g, s, ...) is ignored
    if not tris:
        raise EmptyMesh(f"{path}: no faces found")
    return _mesh_arrays(verts, tris)


def load_mesh_lines(path) -> tuple[np.ndarray, np.ndarray]:
    """``load_off_lines`` or ``load_obj_lines``, by file extension."""
    return (load_off_lines if Path(path).suffix.lower() == ".off" else load_obj_lines)(path)
