from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reblock import sidedness
from reblock.errors import ValidationError
from reblock.geometry import vec3
from reblock.intersection import detect_overlaps
from reblock.lattice import Block, BlockModel, LatticeSpec, cell_lut
from reblock.mesh import TriangleMesh, build_index
from reblock.sidedness import (
    SIDE_ABOVE,
    SIDE_BELOW,
    ParityResult,
    cast_parity,
    cast_parity_many,
    classify_cells,
    write_sidedness_csv,
)

from conftest import box_mesh, grid_surface, icosphere
from oracles import (
    clip_overlap_pairs,
    distance_to_mesh,
    exact_crossings,
    inside_box,
    inside_sphere,
    overlap_records,
    sheet_height,
    winding_number,
)


@pytest.fixture(scope="module")
def plane():
    mesh = grid_surface([0.0, 2.0, 4.0], [0.0, 2.0, 4.0], 2.0)
    return mesh, build_index(mesh)


@pytest.fixture(scope="module")
def sphere():
    mesh = icosphere(subdiv=3, radius=5.0, center=(0.0, 0.0, 0.0))
    return mesh, build_index(mesh)


@pytest.fixture(scope="module")
def closed_box():
    mesh = box_mesh((0.0, 0.0, 0.0), (4.0, 4.0, 4.0))
    return mesh, build_index(mesh)


def test_parity_against_flat_plane(plane):
    mesh, index = plane
    below = cast_parity((1.3, 1.1, 0.5), mesh, index)
    above = cast_parity((1.3, 1.1, 3.5), mesh, index)
    assert below == ParityResult(1, SIDE_BELOW, False)
    assert above == ParityResult(0, SIDE_ABOVE, False)


def test_parity_outside_support(plane):
    mesh, index = plane
    res = cast_parity((9.0, 9.0, 0.5), mesh, index)  # column misses the patch
    assert res.outside_support
    assert res.side == SIDE_ABOVE
    assert res.count == 0


def test_parity_counts_box_crossings(closed_box):
    mesh, index = closed_box
    inside = cast_parity((2.2, 1.7, 1.9), mesh, index)
    under = cast_parity((2.2, 1.7, -3.0), mesh, index)
    over = cast_parity((2.2, 1.7, 9.0), mesh, index)
    assert (inside.count, inside.side) == (1, SIDE_BELOW)
    assert (under.count, under.side) == (2, SIDE_ABOVE)
    assert (over.count, over.side) == (0, SIDE_ABOVE)


def test_ray_through_shared_vertex_counts_once(plane):
    """The cast column passes exactly through a grid vertex shared by
    several triangles, or along a cell diagonal or a cell edge shared by
    two: the sheet crosses there, so each ray reports a single hit."""
    mesh, index = plane
    for point in [(2.0, 2.0, 0.25), (1.0, 1.0, 0.5), (2.0, 1.0, 0.5)]:
        res = cast_parity(point, mesh, index)
        assert (res.count, res.side) == (1, SIDE_BELOW)


def test_custom_direction(sphere):
    mesh, index = sphere
    res_up = cast_parity((0.0, 0.1, 0.2), mesh, index, direction=(0, 0, 1))
    res_x = cast_parity((0.0, 0.1, 0.2), mesh, index, direction=(1, 0, 0))
    assert res_up.side == SIDE_BELOW == res_x.side
    outside = cast_parity((8.0, 0.1, 0.2), mesh, index, direction=(1, 0, 0))
    assert outside.side == SIDE_ABOVE


def test_batch_matches_scalar_on_sphere(sphere, rng):
    mesh, index = sphere
    pts = rng.uniform(-7.0, 7.0, size=(300, 3))
    batch = cast_parity_many(pts, mesh, index)
    for i in range(0, 300, 11):
        solo = cast_parity(pts[i], mesh, index)
        assert batch.sides[i] == solo.side
        assert batch.counts[i] == solo.count
        assert batch.outside_support[i] == solo.outside_support


def test_batch_matches_analytic_sphere(sphere, rng):
    mesh, index = sphere
    pts = rng.uniform(-7.0, 7.0, size=(2000, 3))
    # keep points clearly away from the faceted shell
    dist = np.abs(np.linalg.norm(pts, axis=1) - 5.0)
    pts = pts[dist > 0.5]
    batch = cast_parity_many(pts, mesh, index)
    want = inside_sphere(pts, (0, 0, 0), 5.0)
    assert np.array_equal(batch.sides == SIDE_BELOW, want)


def test_batch_matches_analytic_box(closed_box, rng):
    mesh, index = closed_box
    pts = rng.uniform(-2.0, 6.0, size=(2000, 3))
    from oracles import distance_to_box

    pts = pts[distance_to_box(pts, (0, 0, 0), (4, 4, 4)) > 0.05]
    batch = cast_parity_many(pts, mesh, index)
    want = inside_box(pts, (0, 0, 0), (4, 4, 4))
    assert np.array_equal(batch.sides == SIDE_BELOW, want)


def _assert_batch_matches_loop(pts, mesh, direction):
    """Casting the points together, grouped into shared ray lines, gives
    each point what casting it alone gives."""
    index = build_index(mesh)
    want = [
        (res.side, res.count, res.outside_support)
        for res in (cast_parity(p, mesh, index, direction) for p in pts)
    ]
    batch = cast_parity_many(pts, mesh, index, direction)
    got = list(zip(batch.sides.tolist(), batch.counts.tolist(), batch.outside_support.tolist()))
    assert got == want


LINE_DIRECTIONS = [
    (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
    (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
]
TILTED = (0.3, -0.2, 1.0)


@st.composite
def _lattice_scenes(draw):
    """A surface plus lattice points, many of them sharing each ray line.

    Off the cast axis the points sit on a dyadic grid, so lines pass
    through the shared vertices and edges of the sheet (dyadic too) and
    along the diagonals of the box's square x faces, where exact ties are
    broken.  Box faces stay off the grid, and along the axis the points
    are shifted off it, so that no point lies on a surface.
    """
    kind = draw(st.sampled_from(["sphere", "box", "sheet"]))
    jitter = draw(st.floats(0.0, 0.1))
    if kind == "sphere":
        mesh = icosphere(subdiv=2, radius=1.6 + jitter, center=(2.0, 2.0 - jitter, 2.0))
    elif kind == "box":
        mesh = box_mesh((0.3 + jitter, 0.3, 0.3), (3.6 + jitter, 3.7, 3.7))
    else:
        mesh = grid_surface(
            [0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 2.0, 4.0],
            lambda x, y: 1.7 + (0.3 + jitter) * x - 0.2 * y,
        )
    direction = draw(st.sampled_from(LINE_DIRECTIONS + [TILTED]))
    axis = int(np.argmax(np.abs(direction)))
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    axes = []
    for c in range(3):
        n = draw(st.integers(1, 8 if c == axis else 5))
        start = draw(st.integers(-1, int(4.0 / step) - 1))
        values = step * np.arange(start, start + n)
        if c == axis:
            values = values + draw(st.floats(0.01, 0.24))
        axes.append(values)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return mesh, pts, direction


@settings(max_examples=80, deadline=None)
@given(_lattice_scenes())
def test_batch_matches_scalar_loop_on_lattices(scene):
    """Points sharing a ray line share one candidate query and one set of
    edge signs per triangle; sides, counts and support flags still equal
    one-point casts."""
    mesh, pts, direction = scene
    _assert_batch_matches_loop(pts, mesh, direction)


@pytest.mark.parametrize("direction", [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), TILTED])
def test_close_crossings_count_separately(direction):
    """Two sheets 1e-8 × the mesh diagonal apart, with points below,
    between and above them, on shared lines for a cast along z: every
    point counts each sheet beyond it along the cast, however close."""
    gap = 1e-8 * float(np.hypot(4.0, 4.0))
    sheets = [grid_surface([0.0, 2.0, 4.0], [0.0, 2.0, 4.0], 1.0 + k * gap) for k in range(2)]
    n_v = len(sheets[0].vertices)
    mesh = TriangleMesh(
        np.concatenate([m.vertices for m in sheets]),
        np.concatenate([m.triangles + k * n_v for k, m in enumerate(sheets)]),
    )
    zs = [0.5, 1.0 + 0.5 * gap, 1.5]
    pts = np.array([(x, y, z) for x in (1.3, 2.7) for y in (0.6, 3.1) for z in zs])
    batch = cast_parity_many(pts, mesh, build_index(mesh), direction)
    beyond = [2, 1, 0] if direction[2] > 0 else [0, 1, 2]
    assert batch.counts.tolist() == beyond * 4
    assert batch.sides.tolist() == [SIDE_BELOW if n % 2 else SIDE_ABOVE for n in beyond] * 4
    _assert_batch_matches_loop(pts, mesh, direction)


def test_batch_support_is_shared_along_a_line():
    """A line inside the sphere's bounding box but clear of every
    triangle's box: every point of a line has the same query box, so near
    and far points alike see no candidates and are outside the support."""
    mesh = icosphere(subdiv=1, radius=1.0)
    pts = np.array([(0.8125, 0.8125, z) for z in (-400.0, -3.0, 0.0, 3.0, 400.0)])
    _assert_batch_matches_loop(pts, mesh, (0.0, 0.0, 1.0))
    batch = cast_parity_many(pts, mesh, build_index(mesh))
    assert batch.outside_support.all()


@pytest.mark.parametrize("direction", [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0)])
def test_batch_lines_in_face_planes_match_scalar(direction, closed_box):
    """Lines lying in the box's face planes, with points beyond the box
    along them: every ray lies in a face's plane, which it never crosses,
    and the exact tie-break decides the faces it meets."""
    mesh, _ = closed_box
    axis = int(np.argmax(np.abs(direction)))
    pts = []
    for face in (0.0, 4.0):
        for along in (-3.0, -1.0, 5.0, 7.0):
            p = [face, 1.5, 2.5] if axis != 0 else [2.5, face, 1.5]
            p[axis] = along
            pts.append(p)
    _assert_batch_matches_loop(np.array(pts), mesh, direction)


def test_tilted_cast_queries_one_box_per_point(plane, monkeypatch):
    """A cast off the lattice axes puts every point on a line of its own:
    one query call holding one box per point, whether its ray runs through
    a shared vertex, a cell diagonal or a cell edge, or clear of them."""
    mesh, index = plane
    d = np.array([0.3, 0.2, 1.0])
    # rays through a shared vertex, a cell diagonal and a cell edge graze
    grazing = np.array([[2.0, 2.0, 2.0], [1.0, 1.0, 2.0], [2.0, 1.0, 2.0]]) - 1.5 * d
    clear = np.array([[0.7, 1.3, 0.5], [3.1, 0.6, 1.0]])
    calls = []
    query = sidedness.query_candidates
    monkeypatch.setattr(
        sidedness, "query_candidates", lambda *args: calls.append(args) or query(*args)
    )
    batch = cast_parity_many(np.concatenate([grazing, clear]), mesh, index, d)
    assert len(calls) == 1
    _, lo, hi = calls[0]
    assert lo.shape == hi.shape == (5, 3)
    assert (batch.sides == SIDE_BELOW).all()


def test_cast_along_the_mesh_bounds_meets_the_sheet():
    """A ray along the x bound of a flat sheet crosses it by the
    perturbation rule, however the bound's centre and half extent round;
    a ray an ulp past the other bound is outside the sheet's support."""
    mesh = grid_surface([0.1, 1.1], [0.0, 1.0], 1.0)
    index = build_index(mesh)
    on_bound = cast_parity((0.1, 0.5, 0.0), mesh, index)
    assert on_bound == ParityResult(count=1, side=SIDE_BELOW, outside_support=False)
    past = cast_parity((np.nextafter(1.1, 2.0), 0.5, 0.0), mesh, index)
    assert past == ParityResult(count=0, side=SIDE_ABOVE, outside_support=True)


@pytest.mark.parametrize("on_surface", ["sheet", "in_plane"])
def test_point_on_the_surface_gets_one_side_batched_or_alone(on_surface):
    """A point on the surface gets the side its perturbation puts it on,
    the same in a batch with clean points on its line as alone: on a
    sheet, the side above it, and in the plane of a triangle containing
    the cast direction, which no ray crosses, the side of no crossing."""
    if on_surface == "sheet":
        mesh = grid_surface([0.0, 4.0], [0.0, 4.0], 2.0)
    else:
        mesh = TriangleMesh(
            np.array([[0.0, 1.0, 0.0], [4.0, 1.0, 0.0], [2.0, 1.0, 4.0]]),
            np.array([[0, 1, 2]]),
        )
    pts = np.array([(2.0, 1.0, z) for z in (-1.0, 2.0, 6.0)])
    _assert_batch_matches_loop(pts, mesh, (0.0, 0.0, 1.0))
    batch = cast_parity_many(pts, mesh, build_index(mesh))
    assert batch.counts.tolist() == ([1, 0, 0] if on_surface == "sheet" else [0, 0, 0])


def _oracle_below(mesh, pts, direction, sheet=None):
    """Odd parity per point: inside by the winding number of a closed mesh,
    or beyond ``grid_surface(*sheet)`` along a cast up or down z."""
    if sheet is None:
        return np.abs(winding_number(pts, mesh.vertices, mesh.triangles)) > 0.5
    heights = [sheet_height(*sheet, x, y) for x, y in pts[:, :2]]
    return np.array(
        [h is not None and (z - h) * direction[2] < 0 for z, h in zip(pts[:, 2], heights)],
        dtype=bool,
    )


def _lattice_clear_of(mesh, axes, step):
    """The points of a lattice farther than 0.05 step from the surface."""
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return pts[distance_to_mesh(pts, mesh.vertices, mesh.triangles) > 0.05 * step]


def _dyadic_sheet(edge, slope_x, slope_y):
    """Sheet arguments with dyadic inner breakpoints, ending ``edge`` off
    the lattice so that no vertical ray grazes its border."""
    xs = [-edge, 1.0, 2.0, 3.0, 4.0 + edge]
    ys = [-edge, 2.0, 4.0 + edge]
    return xs, ys, lambda x, y: 1.5 + slope_x * x + slope_y * y


@st.composite
def _oracle_scenes(draw):
    """A closed mesh or a heightfield sheet, and the points of a dyadic
    lattice clear of it.

    Every coordinate is on the lattice, so rays run through the shared
    vertices and edges of the sheets, and along and through the coplanar
    face triangles of boxes whose faces lie on lattice planes.
    """
    kind = draw(st.sampled_from(["sphere", "box", "sheet"]))
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    sheet = None
    if kind == "sphere":
        center = [2.0 + draw(st.floats(-0.2, 0.2)) for _ in range(3)]
        radius = draw(st.floats(1.0, 1.8))
        mesh = icosphere(subdiv=draw(st.integers(1, 2)), radius=radius, center=center)
    elif kind == "box":
        lo = [0.5 * draw(st.integers(0, 3)) for _ in range(3)]
        mesh = box_mesh(lo, [a + 0.5 * draw(st.integers(1, 5)) for a in lo])
    else:
        slopes = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5])
        sheet = _dyadic_sheet(draw(st.floats(0.06, 0.2)), draw(slopes), draw(slopes))
        mesh = grid_surface(*sheet)
    directions = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)] if sheet else LINE_DIRECTIONS + [TILTED]
    axes = []
    for _ in range(3):
        start = draw(st.integers(-1, int(4.0 / step) - 1))
        axes.append(step * np.arange(start, start + draw(st.integers(1, 8))))
    pts = _lattice_clear_of(mesh, axes, step)
    return mesh, pts, draw(st.sampled_from(directions)), sheet


@settings(max_examples=80, deadline=None)
@given(_oracle_scenes())
def test_parity_matches_oracles_on_dyadic_lattices(scene):
    """Odd parity exactly where the generalized winding number puts a
    point inside a closed mesh, or the interpolated height puts it beyond
    a sheet along the cast."""
    mesh, pts, direction, sheet = scene
    batch = cast_parity_many(pts, mesh, build_index(mesh), direction)
    assert np.array_equal(batch.sides == SIDE_BELOW, _oracle_below(mesh, pts, direction, sheet))


@pytest.mark.parametrize(
    "kind,direction",
    [("box", d) for d in LINE_DIRECTIONS] + [("sheet", d) for d in LINE_DIRECTIONS[:2]],
)
def test_parity_matches_oracles_through_shared_edges(kind, direction):
    """A 0.5-step lattice around a box whose faces lie on lattice planes,
    or under and over a dyadic sheet: rays in face planes and through
    shared vertices and edges get exact ties, and every point still gets
    the oracle's answer."""
    sheet = _dyadic_sheet(0.1, 0.25, -0.5) if kind == "sheet" else None
    mesh = grid_surface(*sheet) if sheet else box_mesh((0.5, 0.5, 1.0), (3.5, 3.0, 3.5))
    axis = np.arange(-0.5, 4.6, 0.5)
    pts = _lattice_clear_of(mesh, [axis] * 3, 0.5)
    batch = cast_parity_many(pts, mesh, build_index(mesh), direction)
    assert np.array_equal(batch.sides == SIDE_BELOW, _oracle_below(mesh, pts, direction, sheet))


def _soup(*meshes: TriangleMesh) -> TriangleMesh:
    """The triangles of several meshes as one mesh."""
    offsets = np.cumsum([0] + [len(m.vertices) for m in meshes[:-1]])
    triangles = [m.triangles + k for m, k in zip(meshes, offsets)]
    return TriangleMesh(np.vstack([m.vertices for m in meshes]), np.vstack(triangles))


@st.composite
def _exact_scenes(draw):
    """A dyadic surface, the points of a dyadic lattice around it, one of
    the seven test directions, and an offset of 0 or 1e6 m.

    The surface is a box, a sheet, or one of three that break the closed
    or sheet precondition: a box with one triangle missing, a box with one
    triangle twice, and a sheet folded back over itself along x = 4.
    Every coordinate is on the lattice, so rays run through shared
    vertices and edges, along the sheet's border and in the box's face
    planes, and some points lie on the surface.
    """
    kind = draw(st.sampled_from(["box", "sheet", "holed box", "doubled box", "fold"]))
    xs, ys = [0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 2.0, 4.0]
    if kind.endswith("box"):
        lo = [0.5 * draw(st.integers(0, 3)) for _ in range(3)]
        mesh = box_mesh(lo, [a + 0.5 * draw(st.integers(1, 5)) for a in lo])
        tri = draw(st.integers(0, 11))
        if kind == "holed box":
            mesh = TriangleMesh(mesh.vertices, np.delete(mesh.triangles, tri, axis=0))
        elif kind == "doubled box":
            mesh = TriangleMesh(mesh.vertices, np.vstack([mesh.triangles, mesh.triangles[tri]]))
    elif kind == "sheet":
        slopes = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5])
        sx, sy = draw(slopes), draw(slopes)
        mesh = grid_surface(xs, ys, lambda x, y: 1.5 + sx * x + sy * y)
    else:
        low = draw(st.sampled_from([1.0, 1.5]))
        high = low + draw(st.sampled_from([0.25, 1.0, 2.0]))
        bend = grid_surface([low, high], ys, 4.0)  # in the plane z = 4, then turned to x = 4
        bend = TriangleMesh(bend.vertices[:, ::-1], bend.triangles)
        mesh = _soup(grid_surface(xs, ys, low), bend, grid_surface(xs, ys, high))
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    axes = []
    for _ in range(3):
        start = draw(st.integers(-1, int(4.0 / step) - 1))
        axes.append(step * np.arange(start, start + draw(st.integers(1, 4))))
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    offset = draw(st.sampled_from([0.0, 1e6]))
    mesh = TriangleMesh(mesh.vertices + offset, mesh.triangles)
    return mesh, pts + offset, draw(st.sampled_from(LINE_DIRECTIONS + [TILTED]))


@settings(max_examples=100, deadline=None)
@given(_exact_scenes())
def test_parity_matches_exact_oracle_point_by_point(scene):
    """Counts and sides equal a brute-force count over every triangle in
    exact rationals, with the same tie-breaking perturbation."""
    mesh, pts, direction = scene
    batch = cast_parity_many(pts, mesh, build_index(mesh), direction)
    want = [exact_crossings(p, direction, mesh.vertices, mesh.triangles) for p in pts]
    assert batch.counts.tolist() == want
    assert batch.sides.tolist() == [SIDE_BELOW if n % 2 else SIDE_ABOVE for n in want]


def test_exact_path_decides_ties_on_a_dyadic_sheet(plane, monkeypatch):
    """Rays through a shared vertex and along a shared edge of a dyadic
    sheet, and a point on it, give exact zero signs that no float
    evaluation can settle: the integer path decides them."""
    mesh, index = plane
    calls = []
    for name in ("_exact_edges", "_exact_plane"):
        exact = getattr(sidedness, name)
        monkeypatch.setattr(
            sidedness, name, lambda *args, f=exact, n=name: calls.append(n) or f(*args)
        )
    pts = np.array([(2.0, 2.0, 0.25), (1.0, 1.0, 0.5), (1.3, 1.1, 2.0), (1.3, 1.1, 0.5)])
    batch = cast_parity_many(pts, mesh, index)
    assert batch.counts.tolist() == [1, 1, 0, 1]
    assert {"_exact_edges", "_exact_plane"} <= set(calls)


@pytest.mark.parametrize("direction", [(0, 0, 0), (0, 0, np.nan), (np.inf, 0, 1)])
def test_cast_direction_must_be_non_zero_and_finite(direction):
    mesh = grid_surface([-1.0, 1.0], [-1.0, 1.0], 0.0)
    with pytest.raises(ValidationError, match="^cast direction must be non-zero and finite$"):
        cast_parity_many(np.zeros((1, 3)), mesh, build_index(mesh), direction)


def _classified_parent():
    spec = LatticeSpec(vec3(0, 0, 0), vec3(4, 4, 4), vec3(1, 1, 1))
    blocks = [Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(4, 4, 4), label=0)]
    model = BlockModel(spec, blocks)
    mesh = grid_surface([-1.0, 5.0], [-1.0, 5.0], 2.0)
    surfaces = [(mesh, build_index(mesh))]
    overlap = detect_overlaps(model, surfaces)
    return spec, surfaces, overlap


def test_classify_cells_mid_plane_partition():
    """Plane through the parent's waist: 16 clean above, 16 clean below,
    32 touching cells, and every cell still carries a definite side."""
    spec, surfaces, overlap = _classified_parent()
    intersects, sides = classify_cells(spec, overlap, surfaces)
    assert intersects.shape == sides.shape == (1, 1, 64)
    sides = sides[0].reshape(4, 4, 4)  # [z, y, x]
    assert (sides[:2] == SIDE_BELOW).all()
    assert (sides[2:] == SIDE_ABOVE).all()
    inter = intersects[0].reshape(4, 4, 4)
    assert (inter[1:3] == True).all()  # noqa: E712
    assert not inter[0].any() and not inter[3].any()


def test_classify_cells_direction_override():
    spec, surfaces, overlap = _classified_parent()
    _, sides = classify_cells(spec, overlap, surfaces, directions=[(0, 0, -1)])
    sides = sides[0].reshape(4, 4, 4)
    # casting downward flips which half sees an odd crossing count
    assert (sides[:2] == SIDE_ABOVE).all()
    assert (sides[2:] == SIDE_BELOW).all()


def test_classify_cells_window_matches_parent_by_parent():
    """A window of crossed parents is classified as each of them alone; a
    surface that does not cross a parent gives its cells no flag and side
    0 there."""
    spec = LatticeSpec(vec3(0, 0, 0), vec3(4, 4, 4), vec3(1, 1, 1))
    parents = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]
    model = BlockModel(spec, [Block(p, (0, 0, 0), (4, 4, 4), 0) for p in parents])
    sheet = grid_surface([-1.0, 2.5, 6.5], [-1.0, 3.5], lambda x, y: 1.25 + x / 4)
    ball = icosphere(subdiv=1, radius=1.0, center=(2.0, 6.0, 2.0))
    surfaces = [(mesh, build_index(mesh)) for mesh in (sheet, ball)]
    overlap = detect_overlaps(model, surfaces)
    assert overlap.parents.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert set(overlap_records(overlap)[(0, 1, 0)]) == {1}
    intersects, sides = classify_cells(spec, overlap, surfaces)
    assert intersects.shape == sides.shape == (2, 3, 64)
    for w in range(3):
        alone = classify_cells(spec, overlap, surfaces, window=slice(w, w + 1))
        assert intersects[:, w].tolist() == alone[0][:, 0].tolist()
        assert sides[:, w].tolist() == alone[1][:, 0].tolist()
    crossing = [(0, 0), (0, 1), (1, 2)]  # (surface, parent) pairs
    for sid, w in np.ndindex(2, 3):
        if (sid, w) in crossing:
            assert intersects[sid, w].any() and (sides[sid, w] != 0).all()
        else:
            assert not intersects[sid, w].any() and not sides[sid, w].any()


@pytest.mark.parametrize("window", [slice(0, 4, 2), slice(None, None, -1)])
def test_classify_cells_refuses_a_stepped_window(window):
    """A window is a run of crossed parents: a step of 2 would classify
    all four parents of a sheet scene, and a reversed window fail on an
    index, so both are refused."""
    spec = LatticeSpec(vec3(0, 0, 0), vec3(4, 4, 4), vec3(1, 1, 1))
    model = BlockModel(spec, [Block((x, 0, 0), (0, 0, 0), (4, 4, 4), 0) for x in range(4)])
    sheet = grid_surface([-1.0, 17.0], [-1.0, 5.0], lambda x, y: 1.5 + x / 8)
    surfaces = [(sheet, build_index(sheet))]
    overlap = detect_overlaps(model, surfaces)
    assert len(overlap.parents) == 4
    with pytest.raises(ValidationError, match=f"^a window of crossed parents takes no step, got {window.step}$"):
        classify_cells(spec, overlap, surfaces, window=window)


def _stepped_sheet():
    """Dyadic sheet: flat on the z = 4 cell faces up to x = 4, then rising
    0.5 per unit x, with every vertex on a lattice point or half-point."""
    mesh = grid_surface(
        [-1.0, 1.0, 3.0, 4.0, 6.0, 9.0],
        [-1.0, 2.0, 5.0, 9.0],
        lambda x, y: 4.0 + max(0.0, x - 4.0) * 0.5,
    )
    return LatticeSpec(vec3(0, 0, 0), vec3(8, 8, 8), vec3(1, 1, 1)), (0, 0, 0), mesh


def _c05_sphere():
    mesh = icosphere(subdiv=3, radius=35.0, center=(250.0, 250.0, 40.0))
    return LatticeSpec(vec3(0, 0, 0), vec3(50, 50, 20), vec3(6.25, 6.25, 2.5)), (4, 4, 1), mesh


@pytest.mark.parametrize("scene", [_stepped_sheet, _c05_sphere])
def test_classify_cells_intersects_match_clip_oracle(scene):
    """Every cell against every triangle recorded for the parent, through
    the polygon-clipping oracle."""
    spec, parent, mesh = scene()
    kx, ky, kz = spec.cell_counts
    model = BlockModel(spec, [Block(parent, (0, 0, 0), (kx, ky, kz), 0)])
    surfaces = [(mesh, build_index(mesh))]
    overlap = detect_overlaps(model, surfaces)
    intersects, _ = classify_cells(spec, overlap, surfaces)

    tv = mesh.tri_vertices()[overlap_records(overlap)[parent][0]]
    centers = cell_lut(spec) + (np.asarray(spec.origin) + np.asarray(parent) * spec.parent_dims)
    c, t = np.indices((len(centers), len(tv))).reshape(2, -1)
    half = np.asarray(spec.min_dims) * 0.5
    hits = clip_overlap_pairs(tv[t], centers[c], half).reshape(len(centers), len(tv))
    expected = hits.any(axis=1).tolist()
    assert intersects[0, 0].tolist() == expected
    assert 0 < sum(expected) < len(expected)


def test_write_sidedness_csv(tmp_path):
    spec, surfaces, overlap = _classified_parent()
    _, sides = classify_cells(spec, overlap, surfaces)
    path = tmp_path / "sides.csv"
    rows = write_sidedness_csv(path, spec, overlap.parents, np.concatenate([sides, 0 * sides]))
    lines = path.read_text().strip().splitlines()
    assert rows == 64 * 2
    assert lines[0] == "parent,cell_ix,cell_iy,cell_iz,surface_id,code"
    # cell (0,0,0): below the tested surface, untested against surface 1
    assert lines[1] == "0:0:0,0,0,0,0,2"
    assert lines[2] == "0:0:0,0,0,0,1,1"
