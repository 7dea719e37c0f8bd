"""Triangle-box overlap via the separating axis theorem, and the model-wide
block-surface overlap pass, whose records are columns sorted by parent.

A triangle and an axis-aligned box are disjoint iff one of 13 candidate
axes separates them: the 3 box axes, the triangle's plane normal, and the
9 cross products of box axes with triangle edges.  Contact counts as
intersection (closed sets); a grazing triangle merely causes harmless
extra decomposition downstream.

One batched kernel makes every test.  It runs the three box axes first, on
every (box, triangle) pair at once from per-triangle bounds; most pairs end
there.  Only the pairs whose bounds meet go on to the other ten axes.
:func:`sat_batch` runs it over a (boxes x triangles) grid and
:func:`sat_pairs` over a list of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .lattice import BlockModel
from .mesh import MeshIndex, TriangleMesh, cross_columns, query_candidates, tri_bounds


def sat_batch(
    tri_verts: np.ndarray,
    centers: np.ndarray,
    halves: np.ndarray,
) -> np.ndarray:
    """Vectorized SAT over a (boxes x triangles) grid.

    ``tri_verts`` is (T, 3, 3); ``centers`` is (B, 3); ``halves`` is a
    shared (3,) half-extent or per-box (B, 3).  Returns a (B, T) boolean
    intersection matrix.

    The three box axes run on the whole grid first, from per-triangle
    bounds; the other ten axes run only on the pairs whose bounds meet.
    """
    tv, centers, halves = _as_f64(tri_verts, centers, halves)
    h = halves if halves.ndim == 1 else halves[:, None, :]
    meet = _bounds_meet(tv, centers[:, None, :], h)
    return _sat_survivors(meet, tv, centers, halves)


def sat_pairs(
    tri_verts: np.ndarray, centers: np.ndarray, halves: np.ndarray
) -> np.ndarray:
    """Elementwise SAT: pair i = triangle i vs box i.  Returns (N,) bools."""
    tv, centers, halves = _as_f64(tri_verts, centers, halves)
    return _sat_survivors(_bounds_meet(tv, centers, halves), tv, centers, halves)


def _as_f64(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    return tuple(np.asarray(a, dtype=np.float64) for a in arrays)


def _bounds_meet(tv: np.ndarray, centers: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The three box axes: do each triangle's bounds meet each box?

    The bounds come from :func:`~reblock.mesh.tri_bounds`.  Rounding is
    monotone, so ``min_k(v_k) - c`` equals ``min_k(v_k - c)`` bit for bit:
    this is exactly the box-axis test on translated vertices.  ``centers``
    and ``h`` broadcast against the (T, 3) triangle bounds.
    """
    lo, hi = tri_bounds(tv)
    separated = np.zeros(np.broadcast_shapes(lo.shape, centers.shape)[:-1], dtype=bool)
    for c in range(3):
        separated |= lo[..., c] - centers[..., c] > h[..., c]
        separated |= hi[..., c] - centers[..., c] < -h[..., c]
    return ~separated


def _sat_survivors(
    meet: np.ndarray, tv: np.ndarray, centers: np.ndarray, halves: np.ndarray
) -> np.ndarray:
    """Overwrite each True entry of ``meet`` with the ten remaining axes.

    The first index of ``meet`` picks the box and the last the triangle,
    so a (B, T) grid and an (N,) pair list take the same path.
    """
    idx = np.unravel_index(np.flatnonzero(meet), meet.shape)
    box, tri = idx[0], idx[-1]
    h = halves if halves.ndim == 1 else halves[box]
    meet[idx] = _sat_core(tv[tri] - centers[box, None, :], h)
    return meet


# The axis e_i x f of box axis i and edge f has f[_I2[i]] and -f[_I1[i]]
# as its only nonzero coordinates, at _I1[i] and _I2[i].
_I1 = [1, 2, 0]
_I2 = [2, 0, 1]


def _sat_core(vp: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The nine edge cross-product axes and the triangle plane.

    ``vp`` is (N, 3 vertices, 3 coordinates), translated by the box
    centre; ``h`` is (3,) or (N, 3).  Returns (N,) bools.

    The plane's normal n, radius r and offset s are computed on coordinate
    columns with the products and order of summation of ``np.cross``,
    ``(abs(n) * h).sum(axis=-1)`` and ``np.einsum`` over rows of three.
    """
    # coordinate-major, so every NumPy loop below runs over all N pairs
    v = np.ascontiguousarray(vp.transpose(1, 2, 0))  # (vertex, coord, N)
    ht = h.T.reshape(3, -1)  # (coord, 1 or N)
    f = v[[1, 2, 0]] - v  # edges v1-v0, v2-v1, v0-v2
    fa = f[:, _I1]  # (edge j, box axis i, N)
    fb = f[:, _I2]
    p = v[:, None, _I2] * fa - v[:, None, _I1] * fb  # (vertex, j, i, N)
    r = np.abs(fb) * ht[_I1] + np.abs(fa) * ht[_I2]
    # an edge parallel to box axis i gives a null axis, where p = r = 0 and
    # the strict tests below cannot separate; a short but nonzero axis is
    # as valid as any other
    sep = (p.min(axis=0) > r) | (p.max(axis=0) < -r)
    separated = sep.any(axis=(0, 1))

    n0, n1, n2 = cross_columns(f[0], f[1])
    r = np.abs(n0) * ht[0] + np.abs(n1) * ht[1] + np.abs(n2) * ht[2]
    # (x + z) + y: the order in which NumPy's two-lane einsum kernel sums
    s = n0 * v[0, 0] + n2 * v[0, 2] + n1 * v[0, 1]
    separated |= (s > r) | (s < -r)
    return ~separated


@dataclass
class OverlapMap:
    """Which surface triangles touch each parent's blocks, as columns.

    ``parents`` is (P, 3): the crossed parents in raster order (z, then y,
    then x).  Parent p's records are rows ``offsets[p]:offsets[p + 1]`` of
    the int32 columns ``surface`` and ``triangle``, sorted by surface, then
    triangle.  It is group ``group[p]`` of the model's
    :attr:`~reblock.lattice.BlockModel.parent_groups`.
    """

    parents: np.ndarray  # (P, 3) int64
    offsets: np.ndarray  # (P + 1,) int64
    surface: np.ndarray  # (R,) int32
    triangle: np.ndarray  # (R,) int32
    group: np.ndarray  # (P,) int64


# detect_overlaps queries and tests this many blocks at a time, which bounds
# its candidate pairs and their gathered triangles
_OVERLAP_BLOCKS = 1 << 12


def detect_overlaps(
    model: BlockModel,
    surfaces: Sequence[tuple[TriangleMesh, MeshIndex]],
) -> OverlapMap:
    """Exact block-surface overlap pass over the whole model.

    The blocks go a chunk of ``_OVERLAP_BLOCKS`` at a time, which bounds
    the candidates held at once.  Per chunk and surface, the block boxes go
    to the surface index in one query, and the candidate (block, triangle)
    pairs to one SAT call.  Per surface, one ``np.unique`` over the hits'
    keys records the union of intersecting triangle ids over each parent's
    blocks, and one ``lexsort`` puts all records in parent, then surface
    order.  Parents are numbered by the model's grouping by parent, so the
    blocks are not sorted here.
    """
    spec = model.spec
    origin, parent_dims, min_dims = map(np.asarray, (spec.origin, spec.parent_dims, spec.min_dims))
    parent_of = model.parent_of()
    keys = [[np.empty(0, dtype=np.int64)] for _ in surfaces]
    for first in range(0, len(model), _OVERLAP_BLOCKS):
        chunk = slice(first, first + _OVERLAP_BLOCKS)
        # a block's min corner (its parent's corner as BlockModel.centroids
        # forms it, plus its cells), extent, centre and half extent
        lo = origin + model.parent[chunk] * parent_dims + model.cell_min[chunk] * min_dims
        hi = lo + model.cell_dims[chunk] * min_dims
        center, half = (lo + hi) * 0.5, (hi - lo) * 0.5
        for sid, (mesh, index) in enumerate(surfaces):
            box, tri = query_candidates(index, center - half, center + half).T
            hit = sat_pairs(mesh.tri_vertices()[tri], center[box], half[box])
            # one key per (parent, triangle) hit
            keys[sid].append(parent_of[first + box[hit]] * len(mesh) + tri[hit])
    records = [np.empty((0, 3), dtype=np.int64)]
    for sid, (mesh, _) in enumerate(surfaces):
        # in parent then triangle order, each recorded once
        pid, tid = np.divmod(np.unique(np.concatenate(keys[sid])), len(mesh))
        records.append(np.column_stack([pid, np.full_like(pid, sid), tid]))
    table = np.concatenate(records)
    pid, sid, tid = table[np.lexsort(table.T[1::-1])].T  # stable: triangles stay ascending
    starts = np.flatnonzero(np.diff(pid, prepend=-1))
    group, offsets = pid[starts], np.append(starts, len(pid))
    parents = model.parent_groups[1][group]
    return OverlapMap(parents, offsets, sid.astype(np.int32), tid.astype(np.int32), group)


def write_overlap_csv(path: str | Path, overlap: OverlapMap) -> int:
    """Diagnostic dump, one row per record, in the map's order."""
    parent = np.repeat(overlap.parents, np.diff(overlap.offsets), axis=0)
    table = np.column_stack([parent, overlap.surface, overlap.triangle])
    with Path(path).open("w", newline="") as handle:
        handle.write("parent_px,parent_py,parent_pz,surface_id,triangle_id\n")
        handle.write("%d,%d,%d,%d,%d\n" * len(table) % tuple(table.ravel().tolist()))
    return len(table)
