"""Independent reference predicates the library must agree with.

Nothing in here calls into :mod:`reblock`, apart from raising its
exception classes — these are deliberately separate implementations
(polygon clipping in floats and in exact rationals, closed-form
containment, winding numbers, heightfield interpolation, ray crossings in
exact rationals, a brute-force bounding-box filter, grid-slab dissolved
and persistent merges, a row-by-row model reader, a block-by-block
disjointness check and line-by-line OBJ and OFF readers) used as ground
truth by the unit and acceptance tests.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from reblock.errors import EmptyMesh, MisalignedBlock, ValidationError


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


def _base(spec, parent) -> tuple[float, float, float]:
    out = tuple(float(spec.origin[a] + parent[a] * spec.parent_dims[a]) for a in range(3))
    if not all(math.isfinite(v) for v in out):
        x, y, z = out
        raise ValueError(f"non-finite vector component: Vec3(x={x!r}, y={y!r}, z={z!r})")
    return out


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
    base = _base(spec, parent)
    cell_min = []
    for axis in range(3):
        lo = centroid[axis] - dims[axis] * 0.5
        n = _snap_count((lo - base[axis]) / spec.min_dims[axis], "block corner", context)
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


def read_model_rows(path, spec) -> list[tuple]:
    """A model CSV read and snapped one row at a time, then validated:
    ``(parent, cell_min, cell_dims, label)`` rows in file order."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"model file not found: {path}")
    rows = []
    with path.open(newline="") as handle:
        header = None
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
                continue
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
                centroid = (float(row[0]), float(row[1]), float(row[2]))
                dims = (float(row[3]), float(row[4]), float(row[5]))
                label = int(row[6])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            if not -(2**63) <= label < 2**63:
                raise ValidationError(f"{path}:{lineno}: label {label} is outside int64")
            rows.append(snap_row(spec, centroid, dims, label, f"{path}:{lineno}"))
    if header is None:
        raise ValidationError(f"{path}: empty model file")
    validate_rows(spec, rows)
    return rows


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


def _mesh_arrays(path: Path, verts: list, tris: list) -> tuple[np.ndarray, np.ndarray]:
    """The checks a triangle mesh makes on construction, in its order."""
    vertices = np.asarray(verts, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(vertices).all():
        raise ValidationError(f"mesh '{path.stem}' has non-finite vertices")
    if any(not 0 <= i < len(vertices) for tri in tris for i in tri):
        raise ValidationError(f"mesh '{path.stem}' has out-of-range vertex indices")
    return vertices, np.asarray(tris, dtype=np.int32).reshape(-1, 3)


def _vertex(path: Path, lineno: int, fields: list[str]) -> list[float]:
    try:
        if len(fields) < 3:
            raise ValueError("short")
        return [_number(f, float) for f in fields[:3]]
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: bad vertex line") from None


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
    if nf == 0:
        raise EmptyMesh(f"{path}: OFF file declares no faces")
    return _mesh_arrays(path, verts, tris)


def load_obj_lines(path) -> tuple[np.ndarray, np.ndarray]:
    """An OBJ file read one line at a time: ``(vertices, triangles)``.
    A negative reference counts back from the vertices read so far."""
    path = Path(path)
    verts: list[list[float]] = []
    tris: list[list[int]] = []
    for lineno, line in _meaningful_lines(path.read_text()):
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
            idx = []
            for ref in refs:
                try:
                    value = _number(ref.split("/", 1)[0], int)
                except ValueError:
                    raise ValidationError(f"{path}:{lineno}: bad face line") from None
                if value < 0:
                    value = len(verts) + 1 + value
                idx.append(value - 1)
            tris.append(idx)
        # every other record type (vn, vt, usemtl, o, g, s, ...) is ignored
    if not tris:
        raise EmptyMesh(f"{path}: no faces found")
    return _mesh_arrays(path, verts, tris)


def load_mesh_lines(path) -> tuple[np.ndarray, np.ndarray]:
    """``load_off_lines`` or ``load_obj_lines``, by file extension."""
    return (load_off_lines if Path(path).suffix.lower() == ".off" else load_obj_lines)(path)
