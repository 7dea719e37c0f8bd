"""Side-of-surface classification.

The workhorse is parity ray casting: count ray-surface crossings from a
query point; an even count (including zero) puts the point above/outside,
an odd count below/inside.  One batched kernel serves every cast.  Rays
that graze triangle edges or lie in a triangle's plane are recast in
batched rounds, each with a small deterministic tilt, so the count never
depends on luck.

Cell pre-classification assigns every cell of a surface-crossed parent a
per-surface side (above/below) plus a separate intersect flag, and leaves
cells of un-crossed surfaces untested.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import UnresolvableRay, ValidationError
from .geometry import Aabb, aabb_from_bounds, aabb_overlaps, vec3
from .intersection import OverlapMap, sat_batch
from .lattice import IntTriple, LatticeSpec, cell_lut, parent_min_corner
from .mesh import MeshIndex, TriangleMesh, mesh_diagonal, query_candidates

SIDE_ABOVE = 1
SIDE_BELOW = -1

# 3-bit sidedness codes (bit 2 / bit 1 / bit 0 within a surface's field)
CODE_ABOVE = 4
CODE_BELOW = 2
CODE_UNTESTED = 1

# Barycentric coordinates this close to the valid-region boundary make a
# hit untrustworthy: the ray may be slipping through a shared edge.
BARY_EPS = 1e-9
# Relative tolerance deciding that a ray direction lies in a triangle's plane.
PARALLEL_EPS = 1e-12
# Retry policy for grazing rays.
MAX_RECASTS = 8
TILT_RADIANS = 1e-4


# ---------------------------------------------------------------------------
# parity casting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityResult:
    count: int
    side: int  # SIDE_ABOVE (even crossings) or SIDE_BELOW (odd)
    outside_support: bool
    recasts: int


def _normalize_direction(direction: Sequence[float]) -> np.ndarray:
    d = np.asarray(direction, dtype=np.float64)
    n = float(np.linalg.norm(d))
    if n == 0.0 or not np.isfinite(n):
        raise ValidationError("cast direction must be non-zero and finite")
    return d / n


def point_seed(point: Sequence[float]) -> int:
    """Deterministic jitter seed from a point's bit pattern."""
    return zlib.crc32(np.asarray(point, dtype=np.float64).tobytes())


def _tilted(direction: np.ndarray, rng: random.Random) -> np.ndarray:
    """A unit vector at most TILT_RADIANS away from ``direction``."""
    k = int(np.argmin(np.abs(direction)))
    e = np.zeros(3)
    e[k] = 1.0
    a = np.cross(direction, e)
    a /= np.linalg.norm(a)
    b = np.cross(direction, a)
    theta = rng.uniform(0.25, 1.0) * TILT_RADIANS
    phi = rng.uniform(0.0, 2.0 * math.pi)
    out = (
        direction * math.cos(theta)
        + (a * math.cos(phi) + b * math.sin(phi)) * math.sin(theta)
    )
    return out / np.linalg.norm(out)


def _column_box(
    point: np.ndarray,
    direction: np.ndarray,
    index: MeshIndex,
    dedup_tol: float,
) -> Aabb | None:
    """Query box around the ray's line inside the mesh bounds.

    The box covers the full line (both directions), so a triangle it does
    not overlap cannot be crossed; None means the line misses the bounds.
    The box is inflated enough to stay valid for every tilted recast
    direction; the inflation grows with the point's distance from the
    farther mesh bound.
    """
    lo = np.asarray(index.bounds.lo, dtype=np.float64)
    hi = np.asarray(index.bounds.hi, dtype=np.float64)
    t0, t1 = -np.inf, np.inf
    for c in range(3):
        if direction[c] == 0.0:
            if point[c] < lo[c] or point[c] > hi[c]:
                return None
            continue
        a = (lo[c] - point[c]) / direction[c]
        b = (hi[c] - point[c]) / direction[c]
        t0 = max(t0, min(a, b))
        t1 = min(t1, max(a, b))
    if t0 > t1:
        return None
    p_in = point + direction * t0
    p_out = point + direction * t1
    pad = 2.0 * TILT_RADIANS * max(abs(t0), abs(t1)) + dedup_tol
    box_lo = np.minimum(p_in, p_out) - pad
    box_hi = np.maximum(p_in, p_out) + pad
    return aabb_from_bounds(vec3(*box_lo), vec3(*box_hi))


def _column_candidates(
    point: np.ndarray,
    direction: np.ndarray,
    index: MeshIndex,
    dedup_tol: float,
) -> np.ndarray:
    """Triangles whose boxes the ray's line may cross inside the mesh bounds.

    An empty result means the point is outside the surface's support as
    seen along the cast direction.
    """
    box = _column_box(point, direction, index, dedup_tol)
    if box is None:
        return np.empty(0, dtype=np.int32)
    return query_candidates(index, box)


def _box_meets(index: MeshIndex, ids: np.ndarray, box: Aabb | None) -> bool:
    """Whether a query with ``box`` would return any of triangles ``ids``."""
    if box is None or not aabb_overlaps(index.bounds, box):
        return False
    qlo = np.asarray(box.lo, dtype=np.float64)
    qhi = np.asarray(box.hi, dtype=np.float64)
    keep = (index.tri_lo[ids] <= qhi).all(axis=1) & (index.tri_hi[ids] >= qlo).all(axis=1)
    return bool(keep.any())


def _count_unique(params: list[float], tol: float) -> int:
    """Crossings after merging hits closer than ``tol`` along the ray."""
    if not params:
        return 0
    params = sorted(params)
    count = 1
    last = params[0]
    for lam in params[1:]:
        if lam - last > tol:
            count += 1
            last = lam
    return count


def _lam_tol(reach: np.ndarray | float) -> np.ndarray | float:
    """Near-origin tolerance of a ray whose candidate planes lie within ``reach``."""
    return BARY_EPS * np.maximum(1.0, reach)


def _bary_flags(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(in_band, near_edge): hit within BARY_EPS of the triangle, and of its boundary."""
    band = (s >= -BARY_EPS) & (t >= -BARY_EPS) & (s + t <= 1.0 + BARY_EPS)
    edge = band & (
        (np.abs(s) <= BARY_EPS)
        | (np.abs(t) <= BARY_EPS)
        | (np.abs(s + t - 1.0) <= BARY_EPS)
    )
    return band, edge


def _mt_batch(
    origins: np.ndarray, dirs: np.ndarray, tv: np.ndarray, ray_of: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched ray-triangle solve.

    ``origins`` and ``dirs`` are (R, 3); ``tv`` is (P, 3, 3) with pair i
    belonging to ray ``ray_of[i]``.  Returns per-pair (lam, s, t, on_plane);
    misses and parallel-off-plane pairs come back with lam = -inf.
    """
    o = origins[ray_of]
    d = dirs[ray_of]
    v0 = tv[:, 0]
    u = tv[:, 1] - v0
    w_edge = tv[:, 2] - v0
    n = np.cross(u, w_edge)
    n_norm = np.linalg.norm(n, axis=1)
    denom = np.einsum("ij,ij->i", n, d)
    numer = np.einsum("ij,ij->i", n, v0 - o)
    parallel = np.abs(denom) <= PARALLEL_EPS * n_norm
    scale = np.maximum(1.0, np.linalg.norm(v0 - o, axis=1))
    on_plane = parallel & (np.abs(numer) <= PARALLEL_EPS * n_norm * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(parallel, -np.inf, numer / np.where(denom == 0.0, 1.0, denom))
    lam_safe = np.where(np.isfinite(lam), lam, 0.0)
    w = o + lam_safe[:, None] * d - v0
    uu = np.einsum("ij,ij->i", u, u)
    vv = np.einsum("ij,ij->i", w_edge, w_edge)
    uv = np.einsum("ij,ij->i", u, w_edge)
    wu = np.einsum("ij,ij->i", w, u)
    wv = np.einsum("ij,ij->i", w, w_edge)
    delta = uv * uv - uu * vv
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (uv * wv - vv * wu) / delta
        t = (uv * wu - uu * wv) / delta
    bad = ~np.isfinite(lam)
    s = np.where(bad, -np.inf, s)
    t = np.where(bad, -np.inf, t)
    return lam, s, t, on_plane


@dataclass
class ParityBatch:
    sides: np.ndarray  # (N,) int8
    counts: np.ndarray  # (N,) int64
    outside_support: np.ndarray  # (N,) bool
    recasts: np.ndarray  # (N,) int64: the attempt that resolved each point


def _ray_lines(
    pts: np.ndarray, d: np.ndarray, index: MeshIndex
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group points by the line their rays run along.

    Returns ``(line_of, order, starts)``: ``order`` lists the points line
    by line, and within a line by increasing distance from the farther
    mesh bound (so by increasing tilt pad of their query boxes);
    ``starts`` is where each line begins in ``order``.  Only a cast along
    a lattice axis puts several points on one line: the line is then keyed
    by the two coordinates off that axis.
    """
    n = len(pts)
    axis = np.flatnonzero(d)
    if len(axis) != 1:
        every = np.arange(n)
        return every, every, every
    k = int(axis[0])
    a, b = (pts[:, c] for c in range(3) if c != k)
    reach = np.maximum(
        np.abs(pts[:, k] - index.bounds.lo[k]), np.abs(pts[:, k] - index.bounds.hi[k])
    )
    order = np.lexsort((reach, b, a))
    new_line = np.ones(n, dtype=bool)
    new_line[1:] = (a[order][1:] != a[order][:-1]) | (b[order][1:] != b[order][:-1])
    line_of = np.empty(n, dtype=np.int64)
    line_of[order] = np.cumsum(new_line) - 1
    return line_of, order, np.flatnonzero(new_line)


def _hits_before(
    hit_line: np.ndarray, hit_lam: np.ndarray, line: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """Per query, the index of its first hit at or beyond ``at`` on its line.

    Hits are sorted by (line, lam); a query's index is the number of hits
    that sort before it, so a line's hits beyond ``at`` run from there to
    the line's end.
    """
    n = len(line)
    is_hit = np.arange(n + len(hit_line)) >= n
    order = np.lexsort(
        (is_hit, np.concatenate([at, hit_lam]), np.concatenate([line, hit_line]))
    )
    before = np.empty(len(order), dtype=np.int64)
    before[order] = np.cumsum(is_hit[order]) - is_hit[order]
    return before[:n]


def _ramp(sizes: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(k)`` for each k in ``sizes``."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _solve_lines(
    pts: np.ndarray,
    lines: tuple[np.ndarray, np.ndarray, np.ndarray],
    dirs: np.ndarray,
    cands: Sequence[np.ndarray],
    outside: np.ndarray,
    mesh: TriangleMesh,
    dedup_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per point, (crossings beyond it, whether its ray grazes).

    ``lines`` groups the points as :func:`_ray_lines` does; line j runs
    along ``dirs[j]`` and may cross only triangles ``cands[j]``.  One solve
    per (line, candidate) from the line's first point; each point then
    counts the sorted crossings beyond it.  Points ``outside`` the support
    count none and never graze.
    """
    line_of, order, starts = lines
    n_lines = len(starts)
    sizes = np.diff(np.append(starts, len(pts)))
    tris = np.concatenate([np.empty(0, dtype=np.int64), *cands])
    pair_line = np.repeat(np.arange(n_lines), [len(c) for c in cands])

    # one solve per (line, triangle) from the line's narrowest point;
    # ``off`` is each point's position along its line from there, so the
    # point's hit parameters are lam - off
    origins = pts[order[starts]]
    lam, s, t, _ = _mt_batch(origins, dirs, mesh.tri_vertices()[tris], pair_line)
    off = np.einsum("ij,ij->i", pts - origins[line_of], dirs[line_of])
    finite = np.isfinite(lam)
    band, edge = _bary_flags(s, t)
    valid = band & (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)

    lam_top = np.full(n_lines, -np.inf)
    lam_bottom = np.full(n_lines, np.inf)
    np.maximum.at(lam_top, pair_line[finite], lam[finite])
    np.minimum.at(lam_bottom, pair_line[finite], lam[finite])
    reach = np.maximum(np.abs(lam_top[line_of] - off), np.abs(lam_bottom[line_of] - off))
    lam_tol = _lam_tol(np.where(np.isfinite(lam_top[line_of]), reach, 0.0))

    # near an edge: an edge-grazing hit at or beyond the point
    edge_top = np.full(n_lines, -np.inf)
    np.maximum.at(edge_top, pair_line[edge], lam[edge])
    dirty = edge_top[line_of] - off >= -lam_tol
    # near the origin: the closest in-band hit on either side of the point
    b_order = np.lexsort((lam[band], pair_line[band]))
    b_line = pair_line[band][b_order]
    b_lam = lam[band][b_order]
    if len(b_lam):
        first = _hits_before(b_line, b_lam, line_of, off)
        for k in (np.maximum(first - 1, 0), np.minimum(first, len(b_lam) - 1)):
            dirty |= (b_line[k] == line_of) & (np.abs(b_lam[k] - off) <= lam_tol)
    # a ray in a triangle's plane: the plane test depends on the origin,
    # so each point of the line is tested against its parallel candidates
    par = np.flatnonzero(~finite)
    if len(par):
        n_mem = sizes[pair_line[par]]
        who = order[np.repeat(starts[pair_line[par]], n_mem) + _ramp(n_mem)]
        tv_par = mesh.tri_vertices()[np.repeat(tris[par], n_mem)]
        on_plane = _mt_batch(pts, dirs[line_of], tv_par, who)[3]
        dirty[who[on_plane]] = True
    dirty &= ~outside

    v_order = np.lexsort((lam[valid], pair_line[valid]))
    v_line = pair_line[valid][v_order]
    v_lam = lam[valid][v_order]
    first = _hits_before(v_line, v_lam, line_of, off)
    last = np.searchsorted(v_line, line_of, side="right")
    counts = np.where(outside, 0, last - first)
    # hits closer than dedup_tol merge greedily from the point outwards,
    # so on such lines each point merges its own hits
    close = (v_line[1:] == v_line[:-1]) & (np.diff(v_lam) <= dedup_tol)
    close_line = np.zeros(n_lines, dtype=bool)
    close_line[v_line[1:][close]] = True
    for i in np.flatnonzero(close_line[line_of] & ~outside & ~dirty):
        beyond = v_lam[first[i] : last[i]] - off[i]
        counts[i] = _count_unique([float(v) for v in beyond], dedup_tol)
    return counts, dirty


def cast_parity_many(
    points: np.ndarray,
    mesh: TriangleMesh,
    index: MeshIndex,
    direction: Sequence[float] = (0.0, 0.0, 1.0),
    seeds: Sequence[int] | None = None,
) -> ParityBatch:
    """Parity-classify many points at once.

    Points whose rays run along one line (a cast along a lattice axis
    through cells that share their off-axis coordinates) share one
    candidate query and one ray-triangle solve per candidate; each point
    then counts the sorted crossings beyond it.

    Grazing geometry (a ray in a triangle's plane, or a hit within
    BARY_EPS of a triangle's edge — either side of it — or of the point)
    sends a point to batched recast rounds, where each point is its own
    line with its own candidates: first along ``direction`` (skipped by a
    point that was already alone on its line), then up to MAX_RECASTS
    times along a tilt of at most TILT_RADIANS drawn from
    ``random.Random(seed)`` (``seeds[i]``, else the point's
    :func:`point_seed`).  A point still grazing raises UnresolvableRay.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    d = _normalize_direction(direction)
    n_pts = len(pts)
    dedup_tol = 1e-7 * max(1.0, mesh_diagonal(mesh))
    outside = np.ones(n_pts, dtype=bool)
    recasts = np.zeros(n_pts, dtype=np.int64)

    lines = line_of, order, starts = _ray_lines(pts, d, index)
    sizes = np.diff(np.append(starts, n_pts))
    # the point farthest from the mesh bounds has the widest query box,
    # which holds every other box on its line; its candidates are the union
    widest = order[starts + sizes - 1]
    narrowest = order[starts]
    cands = [_column_candidates(pts[i], d, index, dedup_tol) for i in widest]
    for line, cand in enumerate(cands):
        if len(cand) == 0:
            continue
        members = order[starts[line] : starts[line] + sizes[line]]
        # boxes on a line differ only in their pad: if the narrowest meets a
        # candidate every box does, else each point is checked on its own
        if len(members) == 1 or _box_meets(
            index, cand, _column_box(pts[narrowest[line]], d, index, dedup_tol)
        ):
            outside[members] = False
        else:
            for i in members:
                box = _column_box(pts[i], d, index, dedup_tol)
                outside[i] = not _box_meets(index, cand, box)
    counts, dirty = _solve_lines(
        pts, lines, np.broadcast_to(d, (len(starts), 3)), cands, outside, mesh, dedup_tol
    )

    # recast rounds: each grazing point is a line of its own, with its own
    # candidates and its own seeded sequence of tilts; a point that was
    # alone on its line keeps its candidates and skips round 0, which would
    # repeat its main-pass solve
    lone = sizes[line_of] == 1
    who = np.flatnonzero(dirty)
    own = {
        i: cands[line_of[i]] if lone[i] else _column_candidates(pts[i], d, index, dedup_tol)
        for i in who
    }
    rngs = {i: random.Random(point_seed(pts[i]) if seeds is None else int(seeds[i])) for i in who}
    for attempt in range(MAX_RECASTS + 1):
        who = np.flatnonzero(dirty if attempt else dirty & ~lone)
        if len(who) == 0:
            continue
        dirs = [_tilted(d, rngs[i]) if attempt else d for i in who]
        alone = np.arange(len(who))
        counts[who], dirty[who] = _solve_lines(
            pts[who], (alone, alone, alone), np.array(dirs), [own[i] for i in who],
            outside[who], mesh, dedup_tol,
        )
        recasts[who] = attempt
    if dirty.any():
        raise UnresolvableRay(
            f"parity cast from {tuple(pts[np.argmax(dirty)])} still grazing "
            f"after {MAX_RECASTS} recasts"
        )
    sides = np.where(counts % 2 == 1, SIDE_BELOW, SIDE_ABOVE).astype(np.int8)
    return ParityBatch(sides, counts, outside, recasts)


def cast_parity(
    point: Sequence[float],
    mesh: TriangleMesh,
    index: MeshIndex,
    direction: Sequence[float] = (0.0, 0.0, 1.0),
    seed: int | None = None,
) -> ParityResult:
    """Classify one point against a surface: a one-point :func:`cast_parity_many`."""
    b = cast_parity_many(
        np.asarray(point, dtype=np.float64)[None], mesh, index, direction,
        seeds=None if seed is None else [seed],
    )
    return ParityResult(
        int(b.counts[0]), int(b.sides[0]), bool(b.outside_support[0]), int(b.recasts[0])
    )


# ---------------------------------------------------------------------------
# cell pre-classification
# ---------------------------------------------------------------------------

@dataclass
class CellClassification:
    """Per-surface cell states for one parent, raster-ordered.

    ``sides`` carries a definite above/below for every cell (intersected
    cells included — their centroid parity is what class-based merging
    and forced tagging consume).  ``intersects`` is the separate overlap
    flag.  Surfaces absent from ``surface_ids`` are untested here.
    """

    parent: IntTriple
    surface_ids: list[int]
    intersects: np.ndarray  # (S, K) bool
    sides: np.ndarray  # (S, K) int8
    outside_support: np.ndarray  # (S, K) bool


def classify_cells(
    spec: LatticeSpec,
    parent: IntTriple,
    surfaces: Sequence[tuple[TriangleMesh, MeshIndex]],
    overlap: OverlapMap,
    directions: Sequence[Sequence[float]] | None = None,
) -> CellClassification:
    """Classify every cell of one parent against each crossing surface.

    Intersect flags come from exact SAT against the surface's triangles
    recorded for this parent; sidedness comes from parity casts at cell
    centroids (seeded by cell raster index, so recast jitter is
    reproducible run to run and thread to thread).
    """
    per_surface = overlap.surfaces_of(parent)
    surface_ids = sorted(per_surface)
    k_total = spec.cells_per_parent
    base = parent_min_corner(spec, parent)
    centers = cell_lut(spec) + np.asarray(base, dtype=np.float64)
    halves = np.asarray(spec.min_dims, dtype=np.float64) * 0.5
    seeds = np.arange(k_total, dtype=np.int64)

    intersects = np.zeros((len(surface_ids), k_total), dtype=bool)
    sides = np.zeros((len(surface_ids), k_total), dtype=np.int8)
    outside = np.zeros((len(surface_ids), k_total), dtype=bool)
    for row, sid in enumerate(surface_ids):
        mesh, index = surfaces[sid]
        tris = per_surface[sid]
        tv = mesh.tri_vertices()[tris]
        intersects[row] = sat_batch(tv, centers, halves).any(axis=1)
        direction = (0.0, 0.0, 1.0) if directions is None else directions[sid]
        batch = cast_parity_many(centers, mesh, index, direction, seeds=seeds)
        sides[row] = batch.sides
        outside[row] = batch.outside_support
    return CellClassification(
        parent=parent,
        surface_ids=surface_ids,
        intersects=intersects,
        sides=sides,
        outside_support=outside,
    )


def write_sidedness_csv(
    path: str | Path,
    spec: LatticeSpec,
    classifications: Sequence[CellClassification],
    n_surfaces: int,
) -> int:
    """Diagnostic dump: one row per (parent, cell, surface).

    ``code`` is the 3-bit sidedness state (above=4, below=2, untested=1);
    intersect flags are a separate channel (see the overlap CSV).
    """
    kx, ky, kz = spec.cell_counts
    # (cell_ix, cell_iy, cell_iz, surface_id) rows: cells in raster order
    # (x fastest), surfaces innermost
    cells = np.indices((kz, ky, kx)).reshape(3, -1)[::-1].T
    cell_sid = np.column_stack(
        [np.repeat(cells, n_surfaces, axis=0), np.tile(np.arange(n_surfaces), len(cells))]
    )
    line = "%d:%d:%d,%d,%d,%d,%d,%d\n"
    with Path(path).open("w", newline="") as handle:
        handle.write("parent,cell_ix,cell_iy,cell_iz,surface_id,code\n")
        for cls in sorted(
            classifications, key=lambda c: (c.parent[2], c.parent[1], c.parent[0])
        ):
            codes = np.full((len(cells), n_surfaces), CODE_UNTESTED)
            codes[:, cls.surface_ids] = np.where(
                cls.sides.T == SIDE_ABOVE, CODE_ABOVE, CODE_BELOW
            )
            parent = np.broadcast_to(cls.parent, (len(cell_sid), 3))
            table = np.column_stack([parent, cell_sid, codes.ravel()])
            handle.write(line * len(table) % tuple(table.ravel().tolist()))
    return len(cell_sid) * len(classifications)
