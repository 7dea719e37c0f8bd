"""Octree baseline: dyadic decomposition of labelled cell grids, with
optional intra-scale merging, one level at a time over a stack of parents.

A node splits while its cells disagree on a label, halving each axis,
until it is homogeneous or the depth cap is reached (heterogeneous nodes
at the cap fall apart into cells).  Intra-scale merging then coalesces
same-label sibling leaves inside each octant — four-cell face quads
first, then two-cell edge pairs, in a fixed candidate order — never
across octants and never across scales.  This keeps the baseline honest:
it is the classic structure the coordinate-ascent merger is compared
against.

There is no recursion: as in a linear octree (Gargantini 1982), every
node of every parent is tested at once, one array test per level.
Going up from the cap, a node is uniform when its eight children are
uniform and share one label; going down, a level's leaves are its
uniform nodes under a node that is not.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NonDyadicDims, ValidationError

# Sibling positions within an octant are indexed by x + 2y + 4z bit flags.
# Quads are tried before pairs; first available match wins.
QUAD_CANDIDATES: tuple[tuple[int, int, int, int], ...] = (
    (0, 1, 2, 3),
    (4, 5, 6, 7),
    (0, 1, 4, 5),
    (2, 3, 6, 7),
    (0, 2, 4, 6),
    (1, 3, 5, 7),
)
EDGE_CANDIDATES: tuple[tuple[int, int], ...] = (
    (0, 1),
    (0, 2),
    (1, 3),
    (2, 3),
    (4, 5),
    (4, 6),
    (5, 7),
    (6, 7),
    (2, 6),
    (3, 7),
    (0, 4),
    (1, 5),
)
# (x, y, z) offset of each sibling position, in halves of its octant
_SIBLING = np.array([(i & 1, (i >> 1) & 1, i >> 2) for i in range(8)])
# the candidates in order as rows of four positions (a pair repeats its
# second), with their position bits and their boxes' corners and spans
_GROUPS = np.array([g + g[-1:] * (4 - len(g)) for g in QUAD_CANDIDATES + EDGE_CANDIDATES])
_GROUP_BITS = np.bitwise_or.reduce(1 << _GROUPS, axis=1)
_GROUP_LO = _SIBLING[_GROUPS].min(1)
_GROUP_SPAN = _SIBLING[_GROUPS].max(1) + 1 - _GROUP_LO


def validate_dyadic(counts: Sequence[int], max_depth: int) -> None:
    """Cell counts must be powers of two, each divisible by 2**max_depth."""
    if max_depth < 1:
        raise ValidationError("octree depth must be at least 1")
    for k in counts:
        if k < 1 or (k & (k - 1)) != 0 or k % (1 << max_depth) != 0:
            raise NonDyadicDims(
                f"cell counts {tuple(counts)} are not dyadic for depth "
                f"{max_depth}: each must be a power of two divisible by "
                f"{1 << max_depth}"
            )


def _boxes(a: np.ndarray, n: int) -> np.ndarray:
    """(P, Z, Y, X) values as (P, n, n, n, Z·Y·X / n³): each of the n³
    equal boxes of a grid, (z, y, x) indexed, with its values in raster
    order.  At Z = Y = X = 2n, those are a node's children by sibling index."""
    p, z, y, x = a.shape
    a = a.reshape(p, n, z // n, n, y // n, n, x // n)
    return a.transpose(0, 1, 3, 5, 2, 4, 6).reshape(p, n, n, n, -1)


def _rows(p, lo, dims, label) -> np.ndarray:
    """(M, 8) rows of parent ordinal, cell_min, cell_dims and label."""
    return np.column_stack([p, lo, np.broadcast_to(dims, lo.shape), label])


def decompose_parents(labels: np.ndarray, max_depth: int, intra: bool) -> np.ndarray:
    """Decompose a stack of parents' labelled cell grids into octree leaves.

    ``labels`` is (P, Kz, Ky, Kx) integers.  Returns (M, 8) int64 rows of
    parent ordinal, cell_min and cell_dims (x, y, z) and label, covering
    every grid exactly, in level order: the coarsest leaves first and the
    cells of the nodes the cap leaves heterogeneous last.  A level
    whose level above is all uniform is not visited.
    """
    labels = np.asarray(labels, dtype=np.int64)
    validate_dyadic(labels.shape[:0:-1], max_depth)
    size = np.array(labels.shape[:0:-1])  # a level-0 node's cells, (x, y, z)
    cells = _boxes(labels, 1 << max_depth)
    uniform, label = [(cells == cells[..., :1]).all(-1)], [cells[..., 0]]
    for d in range(max_depth - 1, -1, -1):
        u, lab = _boxes(uniform[0], 1 << d), _boxes(label[0], 1 << d)
        uniform.insert(0, u.all(-1) & (lab == lab[..., :1]).all(-1))
        label.insert(0, lab[..., 0])

    (p,) = np.nonzero(uniform[0].ravel())
    rows = [_rows(p, np.zeros((len(p), 3), dtype=np.int64), size, label[0].ravel()[p])]
    for d in range(1, max_depth + 1):
        split = ~uniform[d - 1]
        if not split.any():
            break
        p, z, y, x = np.nonzero(split)
        half = size >> d
        corner = np.column_stack([x, y, z]) * 2 * half
        free = _boxes(uniform[d], 1 << (d - 1))[split]  # (octants, 8): leaves not yet merged
        lab = _boxes(label[d], 1 << (d - 1))[split]
        if intra:  # each candidate as one mask over the octants; the first match wins
            ok = free[:, _GROUPS].all(-1) & (lab[:, _GROUPS] == lab[:, _GROUPS[:, :1]]).all(-1)
            used = np.zeros(len(ok), dtype=np.int64)
            for j in np.flatnonzero(ok.any(0)):
                ok[:, j] &= (used & _GROUP_BITS[j]) == 0
                used |= ok[:, j] * _GROUP_BITS[j]
            o, j = np.nonzero(ok)
            lo, span = _GROUP_LO[j] * half, _GROUP_SPAN[j] * half
            rows.append(_rows(p[o], corner[o] + lo, span, lab[o, _GROUPS[j, 0]]))
            free &= (used[:, None] >> np.arange(8) & 1) == 0
        o, s = np.nonzero(free)
        rows.append(_rows(p[o], corner[o] + _SIBLING[s] * half, half, lab[o, s]))
    else:  # the cap's heterogeneous nodes fall apart into cells
        node = np.ones((size >> max_depth)[::-1], dtype=bool)  # a cap node's cells
        p, z, y, x = np.nonzero(np.kron(~uniform[-1], node))
        rows.append(_rows(p, np.column_stack([x, y, z]), 1, labels[p, z, y, x]))
    return np.concatenate(rows)

