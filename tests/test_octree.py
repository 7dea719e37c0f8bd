from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reblock.errors import NonDyadicDims, ValidationError
from reblock.merge import MergedBlock
from reblock.octree import decompose_parents, validate_dyadic

from oracles import merge_octant_leaves
from oracles import octree_decompose as recursive_decompose


def one_parent(labels, max_depth: int, intra: bool = False) -> list[MergedBlock]:
    """One parent's (Kz, Ky, Kx) label grid through :func:`decompose_parents`."""
    rows = decompose_parents(np.asarray(labels)[None], max_depth, intra)
    return [MergedBlock(tuple(r[1:4]), tuple(r[4:7]), r[7]) for r in rows.tolist()]


def cover_exactly(blocks, labels) -> None:
    """Assert the blocks tile the grid once and carry the right labels."""
    seen = np.full(labels.shape, -10, dtype=np.int64)
    hits = np.zeros(labels.shape, dtype=np.int64)
    for b in blocks:
        n, s = b.cell_min, b.cell_dims
        seen[n[2] : n[2] + s[2], n[1] : n[1] + s[1], n[0] : n[0] + s[0]] = b.label
        hits[n[2] : n[2] + s[2], n[1] : n[1] + s[1], n[0] : n[0] + s[0]] += 1
    assert (hits == 1).all()
    assert np.array_equal(seen, labels)


def test_validate_dyadic():
    validate_dyadic((8, 8, 8), 3)
    validate_dyadic((16, 8, 8), 3)
    with pytest.raises(NonDyadicDims, match=r"\(8, 8, 8\)"):
        validate_dyadic((8, 8, 8), 4)  # depth exceeds the grid
    with pytest.raises(NonDyadicDims):
        validate_dyadic((6, 8, 8), 1)  # not a power of two
    with pytest.raises(ValidationError, match="at least 1"):
        validate_dyadic((8, 8, 8), 0)


def test_uniform_grid_is_one_leaf():
    labels = np.full((8, 8, 8), 3, dtype=np.int64)
    blocks = one_parent(labels, max_depth=3)
    assert blocks == [MergedBlock((0, 0, 0), (8, 8, 8), 3)]


def test_checkerboard_splits_to_cells():
    labels = np.indices((2, 2, 2)).sum(axis=0) % 2
    blocks = one_parent(labels, max_depth=1)
    assert len(blocks) == 8
    cover_exactly(blocks, labels)


def test_depth_cap_falls_apart_into_cells():
    labels = np.zeros((4, 4, 4), dtype=np.int64)
    labels[0, 0, 0] = 9  # one odd cell
    blocks = one_parent(labels, max_depth=1)
    # 7 clean half-size octants plus 8 loose cells in the dirty one
    assert len(blocks) == 15
    cover_exactly(blocks, labels)
    dims = sorted(set(b.cell_dims for b in blocks))
    assert dims == [(1, 1, 1), (2, 2, 2)]


def test_deeper_budget_keeps_splitting():
    labels = np.zeros((4, 4, 4), dtype=np.int64)
    labels[0, 0, 0] = 9
    blocks = one_parent(labels, max_depth=2)
    assert len(blocks) == 15  # same here: depth 2 reaches single cells cleanly
    cover_exactly(blocks, labels)


def test_random_grids_cover_exactly(rng):
    for _ in range(20):
        k = int(rng.choice([2, 4, 8]))
        depth = {2: 1, 4: 2, 8: 3}[k]
        labels = rng.integers(0, 3, size=(k, k, k))
        blocks = one_parent(labels, max_depth=depth)
        cover_exactly(blocks, labels)


def test_intra_scale_merge_quad():
    # one octant's bottom 4 children share a label; top 4 are distinct
    labels = np.zeros((2, 2, 2), dtype=np.int64)
    labels[1] = np.array([[1, 2], [3, 4]])
    plain = one_parent(labels, max_depth=1)
    merged = one_parent(labels, max_depth=1, intra=True)
    assert len(plain) == 8
    cover_exactly(merged, labels)
    assert MergedBlock((0, 0, 0), (2, 2, 1), 0) in merged
    assert len(merged) == 5


def test_intra_scale_merge_edge_pair():
    labels = np.array(
        [
            [[5, 5], [1, 2]],
            [[3, 4], [6, 7]],
        ]
    )  # [z, y, x]: only cells (0,0,0) and (1,0,0) share a label
    merged = one_parent(labels, max_depth=1, intra=True)
    cover_exactly(merged, labels)
    assert MergedBlock((0, 0, 0), (2, 1, 1), 5) in merged
    assert len(merged) == 7


def test_intra_scale_merge_never_leaves_octant(rng):
    """Merged blocks always nest inside one octant of some node."""
    for _ in range(10):
        labels = rng.integers(0, 2, size=(8, 8, 8))
        plain = one_parent(labels, max_depth=3)
        merged = one_parent(labels, max_depth=3, intra=True)
        cover_exactly(merged, labels)
        assert len(merged) <= len(plain)
        for b in merged:
            # any emitted box is dyadically aligned to its own size scale
            for axis in range(3):
                size = b.cell_dims[axis]
                grain = max(1, min(b.cell_dims))
                assert b.cell_min[axis] % grain == 0
                assert size in (grain, 2 * grain)


def test_merge_octant_leaves_guards_homogeneous():
    with pytest.raises(ValidationError):
        merge_octant_leaves([3] * 8, (0, 0, 0), (1, 1, 1))


def test_merge_octant_leaves_quad_before_edge():
    # bottom quad of one label plus one matching top pair
    child_labels = [1, 1, 1, 1, 2, 2, 3, 4]
    merged, used = merge_octant_leaves(child_labels, (0, 0, 0), (2, 2, 2))
    got = {(b.cell_min, b.cell_dims, b.label) for b in merged}
    assert ((0, 0, 0), (4, 4, 2), 1) in got
    assert ((0, 0, 2), (4, 2, 2), 2) in got
    assert used == [True, True, True, True, True, True, False, False]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 3),
    st.tuples(*[st.integers(0, 1)] * 3),
    st.integers(1, 4),
    st.sampled_from(["blocky", "noisy", "speckled"]),
    st.booleans(),
)
def test_decompose_parents_matches_recursive_oracle(
    seed, n_parents, depth, extra, n_labels, kind, intra
):
    """A stack of parents decomposed level by level gives, parent by
    parent, the block set of the recursive decomposition: on anisotropic
    dyadic grids of blocky labels (constant on dyadic boxes of a random
    size), of noise, and of blocky labels with a few cells changed."""
    rng = np.random.default_rng(seed)
    shape = tuple(2 ** (depth + e) for e in extra[::-1])  # (Kz, Ky, Kx)
    grids = []
    for _ in range(n_parents):
        if kind == "noisy":
            grid = rng.integers(0, n_labels, size=shape)
        else:
            coarse = [s >> int(rng.integers(0, depth + 2)) or 1 for s in shape]
            grid = rng.integers(0, n_labels, size=coarse)
            for axis, s in enumerate(shape):
                grid = grid.repeat(s // coarse[axis], axis)
            if kind == "speckled":
                grid.flat[rng.integers(0, grid.size, size=3)] = rng.integers(0, n_labels, size=3)
        grids.append(grid)
    got = sorted(map(tuple, decompose_parents(np.stack(grids), depth, intra).tolist()))
    want = sorted(
        (p, *b.cell_min, *b.cell_dims, b.label)
        for p, grid in enumerate(grids)
        for b in recursive_decompose(grid, depth, intra)
    )
    assert got == want
