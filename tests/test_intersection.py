from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reblock import intersection
from reblock.geometry import vec3
from reblock.intersection import (
    _sat_core,
    detect_overlaps,
    sat_batch,
    sat_pairs,
    write_overlap_csv,
)
from reblock.lattice import Block, BlockModel, LatticeSpec
from reblock.mesh import build_index

from conftest import grid_surface, icosphere
from oracles import (
    clip_overlap,
    clip_overlap_exact,
    clip_overlap_pairs,
    index_candidates,
    overlap_columns,
    overlap_records,
    sat_core_rows,
    tri_bounds_rows,
    write_overlap_rows,
)

UNIT_CENTER, UNIT_HALF = np.zeros(3), np.ones(3)  # [-1,1]^3


def tri(*pts) -> np.ndarray:
    return np.asarray(pts, dtype=np.float64)


def sat_one(tv: np.ndarray, center, half) -> bool:
    """One triangle against one box, as a one-pair :func:`sat_pairs`."""
    return bool(sat_pairs(tv[None], np.asarray(center)[None], np.asarray(half)[None])[0])


# --- hand-verified contact cases; dyadic coordinates, so all arithmetic is exact

FACE_TOUCH = tri((1.0, -0.5, -0.5), (1.0, 0.5, -0.5), (1.0, 0.0, 0.5))  # on x=+1 face
EDGE_TOUCH = tri((1.0, 1.0, -2.0), (1.0, 1.0, 2.0), (3.0, 1.0, 0.0))  # along x=y=1 edge
CORNER_TOUCH = tri((1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 2.0, 1.0))  # single point
THROUGH = tri((-2.0, 0.0, 0.0), (2.0, 0.25, 0.0), (0.0, 0.0, 2.0))
OUTSIDE = tri((1.5, -0.5, -0.5), (2.5, 0.5, -0.5), (1.5, 0.0, 0.5))
SLICING_PLANE = tri((-8.0, -8.0, 0.5), (8.0, -8.0, 0.5), (0.0, 16.0, 0.5))  # box inside
COPLANAR_BESIDE = tri((1.5, 1.5, 1.0), (2.5, 1.5, 1.0), (1.5, 2.5, 1.0))  # z=top plane

CASES = [
    (FACE_TOUCH, True),
    (EDGE_TOUCH, True),
    (CORNER_TOUCH, True),
    (THROUGH, True),
    (OUTSIDE, False),
    (SLICING_PLANE, True),
    (COPLANAR_BESIDE, False),
]


@pytest.mark.parametrize("tv,expected", CASES)
def test_sat_hand_cases(tv, expected):
    assert sat_one(tv, UNIT_CENTER, UNIT_HALF) is expected


@pytest.mark.parametrize("tv,expected", CASES)
def test_clip_oracle_agrees_on_hand_cases(tv, expected):
    assert clip_overlap(tv, -UNIT_HALF, UNIT_HALF) is expected


def test_sat_separated_by_hair():
    shifted = FACE_TOUCH + np.array([1e-9, 0.0, 0.0])
    assert not sat_one(shifted, UNIT_CENTER, UNIT_HALF)
    assert not clip_overlap(shifted, -UNIT_HALF, UNIT_HALF)


def test_single_point_contact_the_float_clipper_misses():
    # they meet only at (2.5, 3, 2); clip_overlap's cut point rounds off
    # the box face there, so only the exact clipper is ground truth here
    tv = tri((1.0, 5.0, 4.0), (5.0, 1.0, -1.0), (0.0, 5.0, 5.0))
    center, half = np.full(3, 2.5), np.full(3, 0.5)
    assert sat_one(tv, center, half)
    assert clip_overlap_exact(tv, center, half)


DRIFT = 2.0**-33


def nearly_parallel_edge(offset: float, axis: int) -> np.ndarray:
    """A triangle whose edge 0-1 runs along box axis ``axis`` of
    the unit box, drifting by ``DRIFT`` in both other coordinates, and
    lying ``offset`` beyond the box edge where those coordinates are
    (-1, 1); vertex 2 points away from the box.

    For 0 < offset <= DRIFT / 2 the only separating axis is the cross
    product of that box axis with edge 0-1, whose squared norm is
    2 * DRIFT**2 = 2**-65.
    """
    a, d = offset, DRIFT
    local = tri(
        (-0.5, -1 - a - d / 2, 1 + a - d / 2),
        (0.5, -1 - a + d / 2, 1 + a + d / 2),
        (0.0, -2.0, 2.0),
    )
    return np.roll(local, axis, axis=1)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("offset", [-(2.0**-36), 0.0, 2.0**-36, 2.0**-35, DRIFT / 2, DRIFT / 2 + 2.0**-40])
def test_sat_nearly_null_edge_axis(offset, axis):
    tv = nearly_parallel_edge(offset, axis)
    edge = np.delete(tv[1] - tv[0], axis)
    assert 0.0 < (edge**2).sum() < 1e-18
    center, half = np.zeros(3), np.ones(3)
    got = sat_pairs(tv[None], center[None], half[None])[0]
    assert got == clip_overlap_exact(tv, center, half) == (offset <= 0.0)


def near_contact_pairs(seed: int, family: str, origin: float, exact: bool, shared: bool):
    """64 triangle/box pairs of one near-contact family, as ROADMAP item 8
    places them: a vertex on a box corner, an edge across a box edge, or
    the triangle's plane through a box corner.

    The triangle of a corner family lies in a plane that supports the box
    at that corner, so the plane axis ties up to rounding.  Boxes sit near
    ``origin``.  Inexact pairs have non-dyadic halves (0.025-0.15) and
    vertices nudged by up to 2 ulp.  Exact pairs have integer centres and
    halves on a 2**-30 grid, so a corner vertex is the corner itself: its
    plane offset and radius are then sums of the same three products, and
    only their order of summation decides.  ``shared`` gives every box
    the same half extent.
    """
    rng = np.random.default_rng(seed)
    n = 64
    half = rng.uniform(0.025, 0.15, size=(1 if shared else n, 3)).repeat(n if shared else 1, axis=0)
    center = origin + rng.uniform(-50.0, 50.0, size=(n, 3))
    if exact:
        half, center = np.round(half * 2.0**30) / 2.0**30, np.round(center)
    sign = rng.choice([-1.0, 1.0], size=(n, 3))
    corner = center + sign * half
    # two directions in the plane through the corner with an outward normal
    normal = sign * np.abs(rng.normal(size=(n, 3)))
    u = rng.normal(size=(n, 3))
    a = np.cross(normal, u)
    b = np.cross(normal, a)
    a /= np.linalg.norm(a, axis=1, keepdims=True) * 10.0
    b /= np.linalg.norm(b, axis=1, keepdims=True) * 10.0
    if family == "vertex":
        t = rng.uniform(0.2, 1.0, size=(2, n, 1))
        tv = np.stack([corner, corner + t[0] * a, corner + t[1] * (a + b)], axis=1)
    elif family == "edge":
        rows, axis = np.arange(n), rng.integers(0, 3, n)
        point = corner.copy()
        point[rows, axis] = center[rows, axis] + rng.uniform(-1, 1, n) * half[rows, axis]
        d = rng.normal(size=(n, 3)) * 0.1
        t = rng.uniform(0.1, 1.0, size=(2, n, 1))
        out = sign * np.abs(rng.normal(size=(n, 3))) * 0.1
        tv = np.stack([point + t[0] * d, point - t[1] * d, point + out], axis=1)
    else:
        coef = rng.uniform(-1.0, 1.0, size=(3, 2, n, 1))
        tv = np.stack([corner + k[0] * a + k[1] * b for k in coef], axis=1)
    if not exact:
        tv = tv + rng.integers(-2, 3, size=tv.shape) * np.spacing(tv)
    return tv, center, half


# ROADMAP item 8's pair: SAT reports contact where exact clipping finds none
ITEM8_PAIR = (
    tri((34.0098409931538, 7.1307764800494144, 47.82191871523643),
        (34.0098409931538, 5.4604302399364695, 46.28610450898174),
        (34.305813203510866, 5.916039495241462, 48.20585710466743))[None],
    np.array([[34.05, 6.45, 47.125]]),
    np.array([[0.05, 0.05, 0.025]]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.builds(
        near_contact_pairs,
        st.integers(0, 2**32 - 1),
        st.sampled_from(["vertex", "edge", "plane"]),
        st.sampled_from([0.0, 1e6]),
        st.booleans(),
        st.booleans(),
    )
)
@example(ITEM8_PAIR)
def test_sat_core_matches_row_form_near_contact(pairs):
    """The column-form kernel gives the verdicts of the row form (np.cross,
    sum(axis=-1), np.einsum) pair by pair, with per-pair and shared half
    extents; so does the whole pair test after the box axes."""
    tv, centers, halves = pairs
    vp = tv - centers[:, None, :]
    assert np.array_equal(_sat_core(vp, halves), sat_core_rows(vp, halves))
    assert np.array_equal(_sat_core(vp, halves[0]), sat_core_rows(vp, halves[0]))
    lo, hi = tri_bounds_rows(tv)
    meet = ~((lo - centers > halves) | (hi - centers < -halves)).any(axis=1)
    assert np.array_equal(sat_pairs(tv, centers, halves), meet & sat_core_rows(vp, halves))


def random_pairs(rng: np.random.Generator, n: int):
    """Triangle/box pairs across mixed scales, nudged toward near-contact."""
    scale = rng.uniform(0.01, 100.0, size=(n, 1, 1))
    tv = rng.uniform(-2.0, 2.0, size=(n, 3, 3)) * scale
    centers = rng.uniform(-2.0, 2.0, size=(n, 3)) * scale[:, :, 0]
    halves = rng.uniform(0.05, 2.0, size=(n, 3)) * scale[:, 0, :]
    return tv, centers, halves


def test_vector_oracle_matches_scalar_oracle(rng):
    tv, centers, halves = random_pairs(rng, 400)
    fast = clip_overlap_pairs(tv, centers, halves)
    for i in range(400):
        slow = clip_overlap(tv[i], centers[i] - halves[i], centers[i] + halves[i])
        assert fast[i] == slow


def exact_pairs(tv, centers, halves) -> np.ndarray:
    """:func:`clip_overlap_exact` on each pair i = triangle i vs box i."""
    pairs = zip(tv, centers, np.broadcast_to(halves, centers.shape))
    return np.array([clip_overlap_exact(*pair) for pair in pairs], dtype=bool)


def test_sat_pairs_matches_float_and_exact_oracles(rng):
    tv, centers, halves = random_pairs(rng, 500)
    got = sat_pairs(tv, centers, halves)
    assert np.array_equal(got, clip_overlap_pairs(tv, centers, halves))
    some = slice(0, 500, 7)
    assert np.array_equal(got[some], exact_pairs(tv[some], centers[some], halves[some]))


def check_grid(tv, centers, halves, oracle=clip_overlap_pairs) -> np.ndarray:
    """``sat_batch`` equals ``oracle`` on every entry, and ``sat_pairs``
    gives the same verdicts on the grid's pairs listed one by one."""
    grid = sat_batch(tv, centers, halves)
    assert grid.shape == (len(centers), len(tv))
    b, t = np.indices(grid.shape).reshape(2, -1)
    per_box = np.broadcast_to(halves, centers.shape)
    assert np.array_equal(oracle(tv[t], centers[b], per_box[b]), grid.ravel())
    pair_halves = halves if halves.ndim == 1 else halves[b]
    assert np.array_equal(sat_pairs(tv[t], centers[b], pair_halves), grid.ravel())
    return grid


def test_sat_batch_grid_consistency(rng):
    tv, _, _ = random_pairs(rng, 40)
    centers = rng.uniform(-50, 50, size=(25, 3))
    for halves in (np.array([3.0, 2.0, 5.0]), rng.uniform(1.0, 8.0, size=(25, 3))):
        grid = check_grid(tv, centers, halves)
        assert grid.any() and (~grid).any()


def dyadic_triangles(rng, n: int) -> np.ndarray:
    """Triangles on the unit lattice: vertices on lattice points, half of them
    flattened into a lattice plane, so vertices, edges and faces lie on cell
    faces.  Degenerate draws are dropped."""
    tv = rng.integers(-1, 6, size=(n, 3, 3)).astype(np.float64)
    flat = rng.random(n) < 0.5
    axis = rng.integers(0, 3, size=n)
    tv[flat, :, axis[flat]] = tv[flat, :1, axis[flat]]
    normal = np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0])
    return tv[normal.any(axis=1)]


def test_sat_batch_dyadic_contact_grid(rng):
    tv = dyadic_triangles(rng, 60)
    cells = np.indices((4, 4, 4)).reshape(3, -1).T.astype(np.float64)
    unit = np.full(3, 0.5)
    # unit cells, and per-box halves of 1 or 2 cells along each axis
    sized = rng.integers(1, 3, size=cells.shape) * 0.5
    for centers, halves in ((cells + 0.5, unit), (cells + sized, sized)):
        grid = check_grid(tv, centers, halves, oracle=exact_pairs)
        # pairs that meet only where the box's boundary is: shrunk boxes miss
        touching = grid & ~sat_batch(tv, centers, halves * 0.75)
        assert touching.sum() > 100 and (~grid).any()


def test_sat_batch_empty_and_pruned_grids(rng):
    tv, _, _ = random_pairs(rng, 8)
    centers = rng.uniform(-5, 5, size=(6, 3))
    for halves in (np.ones(3), np.ones((6, 3))):
        assert check_grid(tv[:0], centers, halves).shape == (6, 0)
        no_halves = halves[:0] if halves.ndim == 2 else halves
        assert check_grid(tv, centers[:0], no_halves).shape == (0, 8)
        # every triangle lies beyond x = 1000: the box axes reject all pairs
        far = tv.copy()
        far[:, :, 0] = np.abs(far[:, :, 0]) + 1000.0
        assert not check_grid(far, centers, halves).any()


def test_grazing_cells_along_shared_face():
    """A triangle lying in the plane between two cell rows touches both."""
    shared = tri((0.0, 0.0, 1.0), (2.0, 0.0, 1.0), (0.0, 2.0, 1.0))
    half = np.full(3, 0.5)
    for center in (np.array([1.0, 1.0, 0.5]), np.array([1.0, 1.0, 1.5])):  # below, above
        assert sat_one(shared, center, half)
        assert clip_overlap(shared, center - half, center + half)


def test_detect_overlaps_flat_surface():
    spec = LatticeSpec(vec3(0, 0, 0), vec3(4, 4, 4), vec3(1, 1, 1))
    blocks = [
        Block(parent=(px, 0, 0), cell_min=(0, 0, 0), cell_dims=(4, 4, 4), label=0)
        for px in range(3)
    ]
    model = BlockModel(spec, blocks)
    # plane z = 2 ending inside parent 1 (x in [0, 7.5]); contact is closed,
    # so running it to x = 8 exactly would also touch parent 2's face
    surface = grid_surface([0.0, 7.5], [0.0, 4.0], 2.0)
    overlap = detect_overlaps(model, [(surface, build_index(surface))])
    assert overlap.parents.tolist() == [[0, 0, 0], [1, 0, 0]]
    records = overlap_records(overlap)
    assert len(records[(0, 0, 0)][0]) > 0
    assert (2, 0, 0) not in records


def test_detect_overlaps_sphere_parent_subset():
    spec = LatticeSpec(vec3(0, 0, 0), vec3(4, 4, 4), vec3(1, 1, 1))
    blocks = [
        Block(parent=(px, py, 0), cell_min=(0, 0, 0), cell_dims=(4, 4, 4), label=0)
        for px in range(4)
        for py in range(4)
    ]
    model = BlockModel(spec, blocks)
    sphere = icosphere(subdiv=3, radius=3.0, center=(8.0, 8.0, 2.0))
    overlap = detect_overlaps(model, [(sphere, build_index(sphere))])
    records = overlap_records(overlap)
    assert (1, 1, 0) in records
    assert (0, 0, 0) not in records  # sphere stays well clear of that corner
    # recorded triangles really do touch the parent box
    half = np.asarray(spec.parent_dims) * 0.5
    for parent, per_surface in records.items():
        tv = sphere.tri_vertices()[per_surface[0]]
        center = np.asarray(spec.origin) + np.asarray(parent) * spec.parent_dims + half
        for v in tv[:: max(1, len(tv) // 8)]:
            assert clip_overlap_exact(v, center, half)


def _random_scene(seed: int):
    """A model of 2-3 x 2-3 x 1-2 parents, each cut into blocks of several
    sizes by random guillotine splits, and four surfaces across it, in a
    random order: an icosphere; a sheet that is either wavy or flat on a
    lattice plane, so that some blocks only touch it; a small icosphere in
    one parent; and one far off the model, which crosses nothing.  The
    parent indices start at 0, -5 or +-2^40 on each axis."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(2, 5, size=3)
    min_dims = rng.choice([0.3, 0.5, 1.0, 2.5], size=3)
    origin = rng.choice([0.0, 0.7, 1e5]) + np.zeros(3)
    spec = LatticeSpec(vec3(*origin), vec3(*(counts * min_dims)), vec3(*min_dims))
    n_parents = (rng.integers(2, 4), rng.integers(2, 4), rng.integers(1, 3))
    first = rng.choice([0, -5, 2**40, -(2**40)], size=3)
    blocks = []
    for index in np.ndindex(*n_parents):
        parent = tuple(int(f + i) for f, i in zip(first, index))
        pieces = [((0, 0, 0), tuple(int(c) for c in counts))]
        for _ in range(rng.integers(0, 6)):
            lo, dims = pieces.pop(rng.integers(len(pieces)))
            axis = int(rng.integers(3))
            if dims[axis] < 2:
                pieces.append((lo, dims))
                continue
            cut = int(rng.integers(1, dims[axis]))
            upper_lo = list(lo)
            upper_lo[axis] += cut
            lower, upper = list(dims), list(dims)
            lower[axis], upper[axis] = cut, dims[axis] - cut
            pieces += [(lo, tuple(lower)), (tuple(upper_lo), tuple(upper))]
        blocks += [Block(parent, lo, dims, 0) for lo, dims in pieces]
    corner = origin + first * np.asarray(spec.parent_dims)
    size = np.asarray(spec.parent_dims) * n_parents
    center = corner + size * rng.uniform(0.2, 0.8, size=3)
    sphere = icosphere(subdiv=2, radius=float(size.min() * rng.uniform(0.2, 0.6)), center=center)
    xs = corner[0] + np.linspace(-0.1, 1.1, 7) * size[0]
    ys = corner[1] + np.linspace(-0.1, 1.1, 7) * size[1]
    if rng.integers(2):
        level = corner[2] + min_dims[2] * rng.integers(1, counts[2] * n_parents[2])
        sheet = grid_surface(xs, ys, float(level))
    else:
        mid, amp = corner[2] + 0.5 * size[2], 0.3 * size[2]
        sheet = grid_surface(xs, ys, lambda x, y: mid + amp * np.sin(x - corner[0] + 0.7 * (y - corner[1])))
    inner = np.asarray(spec.parent_dims) * (rng.integers(0, n_parents) + 0.5)
    small = icosphere(subdiv=1, radius=0.2 * min(spec.parent_dims), center=corner + inner)
    far = icosphere(subdiv=1, radius=1.0, center=corner + 3 * size)
    meshes = [sphere, sheet, small, far]
    return BlockModel(spec, blocks), [(meshes[i], build_index(meshes[i])) for i in rng.permutation(4)]


def _overlaps_block_by_block(model, surfaces) -> dict:
    """Per block and surface, the oracle's candidates of the block's box,
    then one SAT call on them; per (parent, surface), the union of hits."""
    spec = model.spec
    out: dict = {}
    for block in model.blocks:
        lo = np.asarray(spec.origin) + np.asarray(block.parent) * spec.parent_dims
        lo = lo + np.asarray(block.cell_min) * spec.min_dims
        hi = lo + np.asarray(block.cell_dims) * spec.min_dims
        center, half = (lo + hi) * 0.5, (hi - lo) * 0.5
        for sid, (mesh, _) in enumerate(surfaces):
            cand = index_candidates(mesh.vertices, mesh.triangles, center - half, center + half)
            boxes = np.tile(center, (len(cand), 1)), np.tile(half, (len(cand), 1))
            hits = cand[sat_pairs(mesh.tri_vertices()[cand], *boxes)]
            if len(hits):
                out.setdefault(block.parent, {}).setdefault(sid, set()).update(hits.tolist())
    return {p: {sid: sorted(ids) for sid, ids in per.items()} for p, per in out.items()}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_detect_overlaps_matches_block_by_block_reference(seed):
    """The columns hold the reference's records: parents in raster order,
    each with its offsets, and its (surface, triangle) rows sorted.  So do
    they when the blocks go three at a time, a chunk's blocks spanning
    parents and a parent's blocks spanning chunks."""
    model, surfaces = _random_scene(seed)
    want = overlap_columns(_overlaps_block_by_block(model, surfaces), model)
    for chunk in (intersection._OVERLAP_BLOCKS, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intersection, "_OVERLAP_BLOCKS", chunk)
            overlap = detect_overlaps(model, surfaces)
        assert overlap.parents.tolist() == want.parents.tolist()
        assert overlap.group.tolist() == want.group.tolist()
        assert overlap.offsets.tolist() == want.offsets.tolist()
        assert overlap.surface.tolist() == want.surface.tolist()
        assert overlap.triangle.tolist() == want.triangle.tolist()
        assert overlap.surface.dtype == overlap.triangle.dtype == np.int32


def test_parents_are_the_distinct_crossed_parents():
    """A surface that crosses several blocks of a parent records the parent
    once; ``len(parents)`` is the count of distinct crossed parents."""
    spec = LatticeSpec(vec3(0, 0, 0), vec3(4, 4, 4), vec3(1, 1, 1))
    blocks = [
        Block(parent=(px, py, 0), cell_min=(0, 0, z), cell_dims=(4, 4, 1), label=z)
        for px in range(3)
        for py in range(2)
        for z in range(4)
    ]
    model = BlockModel(spec, blocks)
    # a sheet on the face between two blocks of each of the parents x = 0
    # and 1, and a steep one through all four blocks of parent (0, 1, 0)
    sheet = grid_surface([0.5, 7.5], [0.5, 3.5], 2.0)
    steep = grid_surface([0.5, 3.5], [4.5, 7.5], lambda x, y: 0.5 + x)
    overlap = detect_overlaps(model, [(m, build_index(m)) for m in (sheet, steep)])
    assert len(overlap.parents) == 3
    assert overlap.parents.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert np.diff(overlap.offsets).tolist() == [len(sheet), len(sheet), len(steep)]
    assert overlap.surface.tolist() == [0] * (2 * len(sheet)) + [1] * len(steep)


def _random_records(rng) -> dict:
    """Up to five parents, each with up to three surfaces of up to four
    triangles, in no particular order; indices reach past 2^40."""
    coords = [-(2**40), -3, 0, 1, 2**40]
    records: dict = {}
    for _ in range(rng.integers(0, 6)):
        parent = tuple(int(c) for c in rng.choice(coords, size=3))
        for sid in rng.permutation(5)[: rng.integers(1, 4)]:
            tris = rng.choice(1000, size=rng.integers(1, 5), replace=False)
            records.setdefault(parent, {})[int(sid)] = sorted(tris.tolist())
    return records


@pytest.mark.parametrize("seed", range(20))
def test_write_overlap_csv_matches_row_by_row_writer(tmp_path, seed):
    """The one-write CSV is byte-equal to the row-by-row reference writer,
    the empty map (header only) included."""
    records = _random_records(np.random.default_rng(seed)) if seed else {}
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert write_overlap_csv(got, overlap_columns(records)) == write_overlap_rows(want, records)
    assert got.read_bytes() == want.read_bytes()
    if not seed:
        assert got.read_text() == "parent_px,parent_py,parent_pz,surface_id,triangle_id\n"


def test_write_overlap_csv(tmp_path):
    overlap = overlap_columns({(1, 0, 0): {0: [3, 5]}, (0, 0, 0): {1: [2]}})
    path = tmp_path / "overlap.csv"
    rows = write_overlap_csv(path, overlap)
    lines = path.read_text().strip().splitlines()
    assert rows == 3
    assert lines[0] == "parent_px,parent_py,parent_pz,surface_id,triangle_id"
    # parents in raster order
    assert lines[1] == "0,0,0,1,2"
    assert lines[2] == "1,0,0,0,3"
