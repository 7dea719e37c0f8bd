"""Octree baseline: recursive dyadic decomposition of a labelled cell grid,
with optional intra-scale merging.

A node splits while its cells disagree on a label, halving each axis,
until it is homogeneous or the depth cap is reached (heterogeneous nodes
at the cap fall apart into cells).  Intra-scale merging then coalesces
same-label sibling leaves inside each octant — four-cell face quads
first, then two-cell edge pairs, in a fixed candidate order — never
across octants and never across scales.  This keeps the baseline honest:
it is the classic structure the coordinate-ascent merger is compared
against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NonDyadicDims, ValidationError
from .merge import MergedBlock

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


def _child_offset(node_min: Sequence[int], half: Sequence[int], i: int) -> tuple[int, int, int]:
    return (
        node_min[0] + (i & 1) * half[0],
        node_min[1] + ((i >> 1) & 1) * half[1],
        node_min[2] + ((i >> 2) & 1) * half[2],
    )


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


def merge_octant_leaves(
    child_labels: Sequence[int | None],
    node_min: Sequence[int],
    half: Sequence[int],
) -> tuple[list[MergedBlock], list[bool]]:
    """Coalesce same-label full-child leaves of one octant.

    ``child_labels[i]`` is the label of sibling position i when that
    child ended as a single leaf, else None.  Returns the merged blocks
    and a used-mask over positions; unused leaf positions remain the
    caller's to emit individually.
    """
    labels = list(child_labels)
    if all(lab is not None for lab in labels) and len(set(labels)) == 1:
        raise ValidationError(
            "octant with 8 identically labelled leaves reached the merge "
            "stage; it should have been a homogeneous node"
        )
    used = [False] * 8
    merged: list[MergedBlock] = []
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


def octree_decompose(
    labels: np.ndarray,
    max_depth: int,
    intra_scale_merge: bool = False,
) -> list[MergedBlock]:
    """Decompose one parent's labelled cell grid into octree leaf blocks.

    ``labels`` is (Kz, Ky, Kx) integers.  Output blocks are cell boxes
    (min, dims, label) covering the grid exactly, emitted in recursion
    order (children by sibling index).
    """
    labels = np.asarray(labels)
    kz, ky, kx = labels.shape
    validate_dyadic((kx, ky, kz), max_depth)
    out: list[MergedBlock] = []

    def rec(n: tuple[int, int, int], size: tuple[int, int, int], depth: int) -> int | None:
        """Emit this node's blocks; return its label when it is one leaf."""
        window = labels[
            n[2] : n[2] + size[2], n[1] : n[1] + size[1], n[0] : n[0] + size[0]
        ]
        first = int(window.flat[0])
        if (window == first).all():
            out.append(MergedBlock(n, size, first))
            return first
        if depth >= max_depth:
            # resolution floor: fall apart into cells, each with its own label
            for cz in range(size[2]):
                for cy in range(size[1]):
                    for cx in range(size[0]):
                        out.append(
                            MergedBlock(
                                (n[0] + cx, n[1] + cy, n[2] + cz),
                                (1, 1, 1),
                                int(window[cz, cy, cx]),
                            )
                        )
            return None
        half = (size[0] // 2, size[1] // 2, size[2] // 2)
        if not intra_scale_merge:
            for i in range(8):
                rec(_child_offset(n, half, i), half, depth + 1)
            return None
        child_labels: list[int | None] = []
        children_blocks: list[list[MergedBlock]] = []
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
