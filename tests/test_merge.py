from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import coalesce_binary_grid, coalesce_persistent_grid, objective_value
from reblock import merge
from reblock.errors import EmptyInput, ValidationError
from reblock.merge import (
    ALL_SCAN_PATTERNS,
    MergedBlock,
    MergeParams,
    aspect_ratio_objective,
    class_contacts,
    coalesce_binary,
    coalesce_persistent,
    merge_class,
    merge_prepared,
    mirror_layers,
    scan_flips,
)

# Hand-verified 5x3x3 pattern: 31 occupied cells that the standard scan
# re-tiles into exactly three prisms.  The expected relative centroids are
# (4/10, 2/6, 3/6), (9/10, 1/6, 3/6) and (6/10, 5/6, 4/6).
REFERENCE_BOXES = [
    ((0, 0, 0), (4, 2, 3)),
    ((4, 0, 0), (1, 1, 3)),
    ((2, 2, 1), (2, 1, 2)),
]
REFERENCE_COUNTS = (5, 3, 3)


def paint(boxes, counts) -> np.ndarray:
    return (paint_owner(boxes, counts) >= 0).astype(np.uint8)


def paint_owner(boxes, counts) -> np.ndarray:
    """Ordinal grid: each cell holds the index of its box, or -1."""
    kx, ky, kz = counts
    owner = np.full((kz, ky, kx), -1, dtype=np.int64)
    for i, (n, s) in enumerate(boxes):
        owner[n[2] : n[2] + s[2], n[1] : n[1] + s[1], n[0] : n[0] + s[0]] = i
    return owner


def contact_table(owner) -> list[tuple[int, int, int, int]]:
    """The ``class_contacts`` table of one class's ordinal grid."""
    return class_contacts(np.where(owner >= 0, 0, -1), owner, [int(owner.max()) + 1])[0]


def persistent(boxes, counts, max_dims=None):
    """The persistent kernel's (cell_min, cell_dims) tuples on scan pattern
    0, fed the boxes and their contact table; they must equal the
    grid-slab reference's."""
    owner = paint_owner(boxes, counts)
    got = coalesce_persistent(boxes, contact_table(owner), counts, (False,) * 3, max_dims)
    assert got == coalesce_persistent_grid(owner, max_dims)
    return got


def grid_kernel(boxes, contacts, counts, flips, max_dims=None, token_life=None):
    """``coalesce_persistent``'s signature over the grid-slab reference."""
    view = np.flip(paint_owner(boxes, counts), tuple(2 - a for a in range(3) if flips[a]))
    return coalesce_persistent_grid(view, max_dims, token_life)


def mirror(blocks, counts, pattern):
    """Boxes as (cell_min, cell_dims), mirrored along the pattern's axes."""
    flips = scan_flips(pattern)
    return [
        (tuple(counts[a] - n[a] - s[a] if flips[a] else n[a] for a in range(3)), s)
        for n, s in blocks
    ]


def cover_map(blocks, counts) -> np.ndarray:
    """Paint merged blocks; raises through numpy if anything overlaps."""
    kx, ky, kz = counts
    grid = np.zeros((kz, ky, kx), dtype=np.int64)
    for b in blocks:
        n, s = b.cell_min, b.cell_dims
        grid[n[2] : n[2] + s[2], n[1] : n[1] + s[1], n[0] : n[0] + s[0]] += 1
    return grid


def test_reference_pattern_reproduced_exactly():
    theta = paint(REFERENCE_BOXES, REFERENCE_COUNTS)
    assert int(theta.sum()) == 31
    merged = coalesce_binary(theta, label=1)
    got = [(b.cell_min, b.cell_dims) for b in merged]
    assert got == REFERENCE_BOXES
    kx, ky, kz = REFERENCE_COUNTS
    rel = [
        tuple((b.cell_min[a] + b.cell_dims[a] / 2) / REFERENCE_COUNTS[a] for a in range(3))
        for b in merged
    ]
    assert rel == [
        (4 / 10, 2 / 6, 3 / 6),
        (9 / 10, 1 / 6, 3 / 6),
        (6 / 10, 5 / 6, 4 / 6),
    ]


def test_full_grid_merges_to_one_block():
    theta = np.ones((4, 5, 6), dtype=np.uint8)
    merged = coalesce_binary(theta, label=3)
    assert merged == [MergedBlock((0, 0, 0), (6, 5, 4), 3)]


def test_empty_grid_merges_to_nothing():
    assert coalesce_binary(np.zeros((2, 2, 2), dtype=np.uint8), label=0) == []


def test_single_cell():
    theta = np.zeros((3, 3, 3), dtype=np.uint8)
    theta[1, 2, 0] = 1
    assert coalesce_binary(theta, label=5) == [MergedBlock((0, 2, 1), (1, 1, 1), 5)]


def test_max_dims_respected():
    theta = np.ones((4, 4, 4), dtype=np.uint8)
    merged = coalesce_binary(theta, label=0, max_dims=(2, 4, 4))
    assert len(merged) == 2
    assert all(b.cell_dims == (2, 4, 4) for b in merged)


def test_cap_below_one_blocks_all_growth():
    """A cap below 1 on any axis leaves unit cells, as in the grid reference."""
    theta = np.ones((2, 2, 3), dtype=np.uint8)
    for caps in [(0, 2, 2), (3, 0, 2), (3, 2, -1)]:
        merged = coalesce_binary(theta, label=0, max_dims=caps)
        assert [(b.cell_min, b.cell_dims) for b in merged] == coalesce_binary_grid(theta, caps)
        assert len(merged) == 12


def test_token_life_limits_growth_cycles():
    theta = np.ones((1, 1, 6), dtype=np.uint8)
    # two cycles grow a seed by two cells at most
    merged = coalesce_binary(theta, label=0, token_life=2)
    assert [b.cell_dims for b in merged] == [(3, 1, 1), (3, 1, 1)]
    # unlimited possession sweeps the whole row in one block
    assert coalesce_binary(theta, label=0) == [MergedBlock((0, 0, 0), (6, 1, 1), 0)]


@pytest.mark.parametrize("token_life", [0, -1])
def test_token_life_below_one_is_rejected(token_life):
    """As in ``MergeParams``: a life of 0 or less is an error, not an
    unlimited turn."""
    with pytest.raises(ValidationError, match="^token life span must be positive$"):
        coalesce_binary(np.ones((1, 1, 6), dtype=np.uint8), label=0, token_life=token_life)


def test_input_grid_not_modified():
    theta = paint(REFERENCE_BOXES, REFERENCE_COUNTS)
    snapshot = theta.copy()
    coalesce_binary(theta, label=1)
    assert np.array_equal(theta, snapshot)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(np.uint8, st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
               elements=st.integers(0, 1))
)
def test_dissolved_partition_invariants(theta):
    """Disjoint prisms, exact union, confinement — for any occupancy."""
    counts = (theta.shape[2], theta.shape[1], theta.shape[0])
    merged = coalesce_binary(theta, label=2)
    cover = cover_map(merged, counts)
    assert cover.max(initial=0) <= 1  # pairwise disjoint
    assert np.array_equal(cover > 0, theta > 0)  # union equality
    for b in merged:
        assert b.label == 2
        # every emitted block is a solid prism of originally-occupied cells
        n, s = b.cell_min, b.cell_dims
        assert min(n) >= 0 and all(n[a] + s[a] <= counts[a] for a in range(3))
        assert theta[n[2] : n[2] + s[2], n[1] : n[1] + s[1], n[0] : n[0] + s[0]].all()


# [z, y, x] maps on which pattern 0's first block closes its axes in a
# given order.  +x closes in the second round, on the empty cells at x = 2,
# while +y and +z grow on: an L-shaped class.
X_FIRST = np.ones((3, 3, 3), dtype=bool)
X_FIRST[:, 1:, 2] = False
# +z closes in the first round, on a top layer of one cell; +x and +y grow on,
# so the block's last +z footprint is smaller than the block
Z_FIRST = np.zeros((2, 3, 3), dtype=bool)
Z_FIRST[0] = Z_FIRST[1, 0, 0] = True
# +y closes in the first round; +x reaches its room in the second, the round
# in which a token life of 2 expires
EXPIRES = np.array([[[1, 1, 1], [1, 0, 0]]], dtype=bool)
SIZES = st.integers(1, 12)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.tuples(SIZES, SIZES, SIZES),
    st.sampled_from([0.05, 0.3, 0.6, 0.9, 0.97, 1.0]),
    st.none() | st.tuples(SIZES, SIZES, SIZES),
    st.none() | st.integers(1, 12),
    st.permutations(ALL_SCAN_PATTERNS),
)
@example(0, (3, 3, 3), X_FIRST, None, None, ALL_SCAN_PATTERNS)
@example(0, (3, 3, 2), Z_FIRST, None, None, ALL_SCAN_PATTERNS)
@example(0, (3, 2, 1), EXPIRES, None, 2, ALL_SCAN_PATTERNS)
# a cap of 1 closes +x before any mask is checked
@example(0, (2, 2, 2), 1.0, (1, 2, 2), None, ALL_SCAN_PATTERNS)
def test_dissolved_matches_grid_reference(seed, counts, density, caps, token_life, patterns):
    """``merge_class`` on a class's unit cells, in shuffled order, packs
    the class once, and each pattern's bit-plane sweep emits the grid-slab
    reference's blocks, in order, on the view mirrored along that
    pattern's axes; so does ``coalesce_binary``.  ``merge_prepared`` on
    the grid's ``mirror_layers`` gives ``merge_class``'s blocks.
    ``density`` is the chance that a cell is active, or an example's map."""
    rng = np.random.default_rng(seed)
    if isinstance(density, np.ndarray):
        owner = np.where(density, 0, -1)
    else:
        owner = np.where(rng.random((counts[2], counts[1], counts[0])) < density, 0, -1)
        owner.flat[rng.integers(owner.size)] = 0  # a class holds a cell
    cells = np.argwhere(owner >= 0)[:, ::-1]
    boxes = [(tuple(n), (1, 1, 1)) for n in cells[rng.permutation(len(cells))].tolist()]
    # merge_class rejects caps past the parent; the kernels take them as no cap
    fit = None if caps is None else tuple(min(c, k) for c, k in zip(caps, counts))
    params = MergeParams(max_dims=fit, token_life=token_life, scan_patterns=patterns)
    packings, runs = [], []
    layers, sweep = merge._layers, merge._sweep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merge, "_layers", lambda views: packings.append(views) or layers(views))
        mp.setattr(merge, "_sweep", lambda *args: runs.append(sweep(*args)) or runs[-1])
        got = merge_class(boxes, counts, (1, 1, 1), params, label=4)
    assert [(b.cell_min, b.cell_dims) for b in got] == merge_prepared(
        mirror_layers(owner >= 0), counts, (1, 1, 1), params
    )
    assert len(packings) == 1
    assert len(runs) == 8 or len(runs[-1]) == 1  # a one-block run ends the scans
    for pattern, got in zip(patterns, runs):
        view = np.flip(owner, tuple(2 - a for a in range(3) if scan_flips(pattern)[a])) >= 0
        want = coalesce_binary_grid(view, fit, token_life)
        assert got == want
    assert coalesce_binary(view, 4, max_dims=caps, token_life=token_life) == [
        MergedBlock(n, s, 4) for n, s in want
    ]


def test_persistent_quad_join():
    boxes = [((0, 0, 0), (1, 1, 1)), ((1, 0, 0), (1, 1, 1)),
             ((0, 1, 0), (1, 1, 1)), ((1, 1, 0), (1, 1, 1))]
    assert persistent(boxes, (2, 2, 1)) == [((0, 0, 0), (2, 2, 1))]


def test_persistent_absorbs_whole_blocks_only():
    # B is 2 cells tall; absorbing it into A's 1-cell face would split it
    boxes = [((0, 0, 0), (1, 1, 1)), ((1, 0, 0), (1, 2, 1))]
    assert persistent(boxes, (2, 2, 1)) == boxes


def test_persistent_needs_uniform_length():
    """Behind A's face lie B (length 1, sticking out past the face) and C
    (length 8).  Their contacts cover the face and their cells number
    8 x the face area, but the lengths differ, so nothing may merge."""
    boxes = [((0, 0, 0), (1, 2, 1)), ((1, 1, 0), (1, 8, 1)), ((1, 0, 0), (8, 1, 1))]
    assert persistent(boxes, (9, 9, 1)) == boxes


def test_persistent_chain_absorption():
    boxes = [((0, 0, 0), (1, 1, 1)), ((1, 0, 0), (1, 1, 1)), ((2, 0, 0), (2, 1, 1))]
    assert persistent(boxes, (4, 1, 1)) == [((0, 0, 0), (4, 1, 1))]


def test_persistent_smallest_blocks_move_first():
    """A big block and two small ones: the small pair joins even though
    the big block appears first in the input."""
    boxes = [((0, 0, 0), (2, 2, 1)), ((2, 0, 0), (1, 1, 1)), ((2, 1, 0), (1, 1, 1))]
    merged = persistent(boxes, (3, 2, 1))
    assert ((2, 0, 0), (1, 2, 1)) in merged or len(merged) == 1
    # in fact the column join makes the final sweep possible
    assert merged == [((0, 0, 0), (3, 2, 1))]


def test_persistent_block_past_a_cap_never_grows():
    """Block 0 is 3 cells along y, past the cap of 2, and the two blocks
    behind its +x face cover it, are 1 long along x and tile the
    extension box.  Growing along x keeps its y length past the cap, so
    the caps bind on every axis, not only the one a block grows along;
    and block 1 may not take block 2 either."""
    boxes = [((0, 0, 0), (1, 3, 1)), ((1, 0, 0), (1, 2, 1)), ((1, 2, 0), (1, 1, 1))]
    counts = (3, 3, 1)
    assert persistent(boxes, counts, max_dims=(3, 2, 1)) == boxes
    assert persistent(boxes, counts) == [((0, 0, 0), (2, 3, 1))]


# boxes in a (4, 1, 1) parent that no convention may merge
BAD_BOXES = [
    [((0, 0, 0), (2, 1, 1)), ((1, 0, 0), (2, 1, 1))],  # overlap
    [((0, 0, 0), (2, 1, 1)), ((1, 0, 0), (1, 1, 1))],  # overlap
    [((3, 0, 0), (2, 1, 1))],  # leaves the parent at +x
    [((0, 0, 0), (5, 1, 1))],  # larger than the parent
    [((-1, 0, 0), (2, 1, 1))],  # leaves the parent at -x
    [((0, 0, 0), (0, 1, 1))],  # empty box
    [((2, 0, 0), (2, 1, 1)), ((1, 0, 0), (2, 1, 1))],  # overlap, 4 cells in all
    [((0, 0, 0), (3, 1, 1)), ((1, 0, 0), (3, 1, 1))],  # 6 cells, inside the parent
]


def assert_rejects_bad_boxes(convention):
    for patterns in [(0,), ALL_SCAN_PATTERNS]:
        params = MergeParams(convention=convention, scan_patterns=patterns)
        for boxes in BAD_BOXES:
            with pytest.raises(ValidationError, match="overlap or leave"):
                merge_class(boxes, (4, 1, 1), (1, 1, 1), params, label=0)


def test_persistent_input_not_modified():
    """One contact table serves every pattern, so the kernel must not edit it."""
    boxes = [((0, 0, 0), (1, 1, 1)), ((1, 0, 0), (1, 1, 1)), ((2, 0, 0), (2, 1, 1))]
    contacts = contact_table(paint_owner(boxes, (4, 1, 1)))
    snapshot = (list(boxes), list(contacts))
    for pattern in ALL_SCAN_PATTERNS:
        merged = coalesce_persistent(boxes, contacts, (4, 1, 1), scan_flips(pattern))
        assert merged == [((0, 0, 0), (4, 1, 1))]
    assert (boxes, contacts) == snapshot


def test_face_contacts_rows():
    """Rows (a, c, axis, area): a's +axis face meets c's -axis face."""
    boxes = [((0, 0, 0), (1, 2, 1)), ((1, 0, 0), (1, 2, 1)), ((0, 2, 0), (2, 1, 1))]
    contacts = contact_table(paint_owner(boxes, (3, 3, 1)))
    assert sorted(contacts) == [(0, 1, 0, 2), (0, 2, 1, 1), (1, 2, 1, 1)]


def test_persistent_rejects_overlapping_inputs():
    assert_rejects_bad_boxes("persistent")


def test_dissolved_rejects_overlapping_inputs():
    assert_rejects_bad_boxes("dissolved")


def random_partition_boxes(rng, counts, keep=0.7):
    """Random grid partition of the parent, then a random subset of it."""
    breaks = []
    for k in counts:
        cuts = sorted(set([0, k] + list(rng.integers(1, max(k, 2), size=rng.integers(0, 3)))))
        breaks.append(cuts)
    boxes = []
    for ix in range(len(breaks[0]) - 1):
        for iy in range(len(breaks[1]) - 1):
            for iz in range(len(breaks[2]) - 1):
                if rng.random() > keep:
                    continue
                n = (breaks[0][ix], breaks[1][iy], breaks[2][iz])
                s = (
                    breaks[0][ix + 1] - n[0],
                    breaks[1][iy + 1] - n[1],
                    breaks[2][iz + 1] - n[2],
                )
                boxes.append((n, s))
    return boxes


def test_persistent_containment_invariant(rng):
    """Every input block survives whole inside exactly one output block."""
    for _ in range(40):
        counts = tuple(int(v) for v in rng.integers(2, 9, size=3))
        boxes = random_partition_boxes(rng, counts)
        if not boxes:
            continue
        merged = [MergedBlock(n, s, 1) for n, s in persistent(boxes, counts)]
        cover = cover_map(merged, counts)
        assert cover.max(initial=0) <= 1
        assert int(cover.sum()) == sum(s[0] * s[1] * s[2] for _, s in boxes)
        for n, s in boxes:
            homes = [
                m
                for m in merged
                if all(
                    m.cell_min[a] <= n[a] and n[a] + s[a] <= m.cell_min[a] + m.cell_dims[a]
                    for a in range(3)
                )
            ]
            assert len(homes) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)),
    st.sampled_from(["dissolved", "persistent"]),
    st.sampled_from(["count", "aspect"]),
)
def test_each_pattern_is_pattern_zero_on_mirrored_boxes(
    seed, counts, convention, objective
):
    """Scan pattern p is the standard scan of the mirrored boxes, mirrored back."""
    rng = np.random.default_rng(seed)
    boxes = random_partition_boxes(rng, counts)
    if not boxes:
        return
    for pattern in ALL_SCAN_PATTERNS:
        one = MergeParams(convention, objective, scan_patterns=(pattern,))
        zero = MergeParams(convention, objective, scan_patterns=(0,))
        got = merge_class(boxes, counts, (1, 2, 3), one, label=5)
        flipped = mirror(boxes, counts, pattern)
        mirrored = merge_class(flipped, counts, (1, 2, 3), zero, label=5)
        back = mirror([(b.cell_min, b.cell_dims) for b in mirrored], counts, pattern)
        assert [(b.cell_min, b.cell_dims) for b in got] == back
        assert all(b.label == 5 for b in got)


def test_scan_flips_bit_layout():
    assert scan_flips(0) == (False, False, False)
    assert scan_flips(1) == (True, False, False)
    assert scan_flips(2) == (False, True, False)
    assert scan_flips(4) == (False, False, True)
    assert scan_flips(7) == (True, True, True)


def test_aspect_ratio_objective_hand_case():
    blocks = [MergedBlock((0, 0, 0), (2, 1, 1), 0), MergedBlock((2, 0, 0), (1, 1, 1), 0)]
    # real dims (2,2,3) v=12 ar=1.5 and (1,2,3) v=6 ar=3 -> (12*1.5 + 6*3)/18
    assert aspect_ratio_objective(blocks, (1, 2, 3)) == 2.0
    with pytest.raises(EmptyInput):
        aspect_ratio_objective([], (1, 1, 1))


def test_objective_value_orders_count_then_ar():
    small = [MergedBlock((0, 0, 0), (2, 2, 2), 0)]
    many = [MergedBlock((0, 0, 0), (2, 2, 1), 0), MergedBlock((0, 0, 1), (2, 2, 1), 0)]
    v_small = objective_value(small, (1, 1, 1), "count")
    v_many = objective_value(many, (1, 1, 1), "count")
    assert v_small < v_many  # fewer blocks wins regardless of shape
    assert objective_value(small, (1, 1, 1), "aspect") == 1.0


def test_merge_params_validation():
    with pytest.raises(ValidationError):
        MergeParams(convention="magic")
    with pytest.raises(ValidationError):
        MergeParams(objective="fewest")
    with pytest.raises(ValidationError):
        MergeParams(token_life=0)
    with pytest.raises(ValidationError):
        MergeParams(scan_patterns=())
    with pytest.raises(ValidationError):
        MergeParams(scan_patterns=(0, 9))
    with pytest.raises(ValidationError):
        MergeParams(max_dims=(0, 1, 1))


def test_merge_class_rejects_oversized_cap():
    """The caps are checked before the boxes."""
    message = "^max merge dims cannot exceed the parent cell dimensions$"
    for convention in ["dissolved", "persistent"]:
        params = MergeParams(convention=convention, max_dims=(5, 1, 1))
        for boxes in [[((0, 0, 0), (1, 1, 1))], BAD_BOXES[0]]:
            with pytest.raises(ValidationError, match=message):
                merge_class(boxes, (4, 4, 4), (1, 1, 1), params, label=0)


def test_merge_class_empty_class():
    assert merge_class([], (4, 4, 4), (1, 1, 1), MergeParams(), label=0) == []


def test_merge_class_multiscan_never_worse(rng):
    """All eight mirrored scans can only improve on the standard one."""
    for _ in range(30):
        counts = tuple(int(v) for v in rng.integers(2, 7, size=3))
        theta = (rng.random((counts[2], counts[1], counts[0])) < 0.6).astype(np.uint8)
        boxes = [
            (tuple(int(v) for v in n[::-1]), (1, 1, 1))
            for n in np.argwhere(theta)
        ]
        if not boxes:
            continue
        single = MergeParams(scan_patterns=(0,))
        multi = MergeParams(scan_patterns=ALL_SCAN_PATTERNS)
        got_single = merge_class(boxes, counts, (1, 1, 1), single, label=0)
        got_multi = merge_class(boxes, counts, (1, 1, 1), multi, label=0)
        s = objective_value(got_single, (1, 1, 1), "count")
        m = objective_value(got_multi, (1, 1, 1), "count")
        assert m <= s


def test_merge_class_is_deterministic(rng):
    counts = (6, 6, 6)
    theta = (rng.random((6, 6, 6)) < 0.5).astype(np.uint8)
    boxes = [(tuple(int(v) for v in n[::-1]), (1, 1, 1)) for n in np.argwhere(theta)]
    params = MergeParams(scan_patterns=ALL_SCAN_PATTERNS)
    first = merge_class(boxes, counts, (1, 1, 1), params, label=9)
    second = merge_class(boxes, counts, (1, 1, 1), params, label=9)
    assert first == second


def test_merge_class_persistent_multiscan_partition(rng):
    for _ in range(10):
        counts = tuple(int(v) for v in rng.integers(3, 7, size=3))
        boxes = random_partition_boxes(rng, counts)
        if not boxes:
            continue
        params = MergeParams(convention="persistent", scan_patterns=ALL_SCAN_PATTERNS)
        merged = merge_class(boxes, counts, (2, 2, 1), params, label=3)
        cover = cover_map(merged, counts)
        assert cover.max(initial=0) <= 1
        assert int(cover.sum()) == sum(s[0] * s[1] * s[2] for _, s in boxes)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    st.sampled_from(["partition", "holey", "unit cells"]),
    st.sampled_from(["count", "aspect"]),
    st.none() | st.integers(1, 3),
    st.none() | st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
)
def test_persistent_matches_grid_reference(
    seed, counts, shape, objective, token_life, caps, patterns
):
    """``merge_class`` gives the same blocks on the contact-table kernel as
    on the grid-slab reference, pattern set, caps and token life alike."""
    rng = np.random.default_rng(seed)
    if shape == "unit cells":
        theta = rng.random((counts[2], counts[1], counts[0])) < 0.6
        boxes = [(tuple(int(v) for v in n[::-1]), (1, 1, 1)) for n in np.argwhere(theta)]
    else:
        boxes = random_partition_boxes(rng, counts, keep=1.0 if shape == "partition" else 0.7)
    boxes = [boxes[i] for i in rng.permutation(len(boxes))]
    max_dims = None if caps is None else tuple(min(c, k) for c, k in zip(caps, counts))
    params = MergeParams("persistent", objective, token_life, max_dims, tuple(patterns))
    got = merge_class(boxes, counts, (1, 2, 3), params, label=7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merge, "coalesce_persistent", grid_kernel)
        want = merge_class(boxes, counts, (1, 2, 3), params, label=7)
    assert got == want
    if boxes:
        contacts = contact_table(paint_owner(boxes, counts))
        for pattern in patterns:
            flips = scan_flips(pattern)
            assert coalesce_persistent(
                boxes, contacts, counts, flips, max_dims, token_life
            ) == grid_kernel(boxes, contacts, counts, flips, max_dims, token_life)


# a 1x3x3 class that pattern 0 merges into one box of aspect 3, while
# patterns 6 and 7 keep a five-block pinwheel of lower aspect
PINWHEEL = [
    ((0, 0, 0), (1, 2, 1)),
    ((0, 0, 2), (1, 1, 1)),
    ((0, 1, 2), (1, 2, 1)),
    ((0, 2, 0), (1, 1, 2)),
    ((0, 0, 1), (1, 1, 1)),
    ((0, 1, 1), (1, 1, 1)),
]


def test_persistent_aspect_scans_on_after_one_block():
    """One block from the first pattern ends the scans only where no other
    pattern can beat it; persistent + aspect is not such a case."""
    counts = (1, 3, 3)
    first = merge_class(
        PINWHEEL, counts, (1, 1, 1), MergeParams("persistent", "aspect", scan_patterns=(0,)), 0
    )
    assert first == [MergedBlock((0, 0, 0), (1, 3, 3), 0)]
    best = merge_class(PINWHEEL, counts, (1, 1, 1), MergeParams("persistent", "aspect"), 0)
    assert len(best) == 5
    assert objective_value(best, (1, 1, 1), "aspect") < 3.0
    counted = merge_class(PINWHEEL, counts, (1, 1, 1), MergeParams("persistent", "count"), 0)
    assert counted == first


@pytest.mark.parametrize(
    "convention, objective, boxes, runs",
    [
        ("dissolved", "count", [((0, 0, 0), (1, 1, 1)), ((2, 0, 0), (1, 1, 1))], 8),
        ("persistent", "count", [((0, 0, 0), (1, 1, 1)), ((2, 0, 0), (1, 1, 1))], 8),
        ("dissolved", "count", [((0, 0, 0), (1, 1, 1)), ((1, 0, 0), (2, 1, 1))], 1),
        ("dissolved", "aspect", [((0, 0, 0), (1, 1, 1)), ((1, 0, 0), (2, 1, 1))], 1),
        ("persistent", "count", [((0, 0, 0), (1, 1, 1)), ((1, 0, 0), (2, 1, 1))], 1),
        ("persistent", "aspect", [((0, 0, 0), (1, 1, 1)), ((1, 0, 0), (2, 1, 1))], 8),
    ],
)
def test_one_kernel_call_per_scan_pattern(monkeypatch, convention, objective, boxes, runs):
    """Each scan pattern run is one call of the kernel, looked up on the
    module; a class that the first pattern merges into one box stops
    there, except under persistent + aspect."""
    calls = []

    def counted(name):
        kernel = getattr(merge, name)

        def call(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)

        return call

    for name in ("_sweep", "coalesce_persistent"):
        monkeypatch.setattr(merge, name, counted(name))
    params = MergeParams(convention, objective)
    merge_class(boxes, (4, 1, 1), (1, 1, 1), params, label=0)
    kernel = "_sweep" if convention == "dissolved" else "coalesce_persistent"
    assert calls == [kernel] * runs


def test_aspect_ratio_scores_only_runs_tying_fewest_blocks(monkeypatch):
    """Under objective "count" the aspect ratio only breaks ties of block
    count: on a class whose scan patterns give 3 or 4 blocks, it is scored
    for the four patterns that give 3, and the winner is unchanged."""
    rows = [[1, 1, 1], [0, 1, 0], [1, 1, 0]]  # occupancy by y, then x
    boxes = [((x, y, 0), (1, 1, 1)) for y, row in enumerate(rows) for x, v in enumerate(row) if v]
    counts = (3, 3, 1)
    per_pattern = [
        len(merge_class(boxes, counts, (1, 1, 1), MergeParams(scan_patterns=(p,)), 0))
        for p in ALL_SCAN_PATTERNS
    ]
    assert per_pattern == [3, 3, 4, 4, 3, 3, 4, 4]
    want = min(
        (
            merge_class(boxes, counts, (1, 1, 1), MergeParams(scan_patterns=(p,)), 0)
            for p in ALL_SCAN_PATTERNS
        ),
        key=lambda blocks: objective_value(blocks, (1, 1, 1), "count"),
    )
    calls = []
    scored = merge.aspect_ratio_objective
    monkeypatch.setattr(
        merge, "aspect_ratio_objective", lambda *args: calls.append(args) or scored(*args)
    )
    best = merge_class(boxes, counts, (1, 1, 1), MergeParams(), 0)
    assert len(calls) == 4
    assert best == want


def _aspect_terms_by_block(blocks, min_dims) -> float:
    """The aspect-ratio objective with every block's terms computed anew."""
    mx, my, mz = (float(m) for m in min_dims)
    total_v = acc = 0.0
    for _, (sx, sy, sz) in blocks:
        d = (sx * mx, sy * my, sz * mz)
        v = d[0] * d[1] * d[2]
        total_v += v
        acc += v * (max(d) / min(d))
    return acc / total_v


MIN_DIMS = st.sampled_from([(0.1, 0.3, 0.7), (2, 2, 1), (1, 2, 3), (1 / 3, 0.7, 0.05)]) | st.tuples(
    *[st.floats(1e-3, 1e3)] * 3
)


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(
        st.lists(st.tuples(*[st.integers(1, 6)] * 3), min_size=1, max_size=12), min_size=1, max_size=8
    ),
    min_dims=MIN_DIMS,
)
def test_score_table_gives_the_table_less_score(runs, min_dims):
    """Scored one after another through one shared table, every run of
    block shapes gets the very float it gets without a table."""
    scores = {}
    for shapes in runs:
        blocks = [((0, 0, 0), s) for s in shapes]
        shared = aspect_ratio_objective(blocks, min_dims, scores)
        assert shared == aspect_ratio_objective(blocks, min_dims) == _aspect_terms_by_block(blocks, min_dims)
    assert set(scores) == {s for shapes in runs for s in shapes}


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    st.sampled_from(["dissolved", "persistent"]),
    st.sampled_from(["count", "aspect"]),
    MIN_DIMS,
)
def test_merge_prepared_picks_the_table_less_winner(seed, counts, convention, objective, min_dims):
    """The best of the eight scan patterns is the first of the lowest
    scores, each pattern's blocks scored without a table."""
    boxes = random_partition_boxes(np.random.default_rng(seed), counts, keep=0.8)
    if not boxes:
        return
    per_pattern = [
        merge_class(boxes, counts, min_dims, MergeParams(convention, objective, scan_patterns=(p,)), 0)
        for p in ALL_SCAN_PATTERNS
    ]

    def score(blocks):
        ar = _aspect_terms_by_block([(b.cell_min, b.cell_dims) for b in blocks], min_dims)
        return ar if objective == "aspect" else (len(blocks), ar)

    assert merge_class(boxes, counts, min_dims, MergeParams(convention, objective), 0) == min(
        per_pattern, key=score
    )
