from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reblock.errors import EmptyMesh, RefinementOverflow, ValidationError
from reblock.mesh import (
    RefineParams,
    TriangleMesh,
    build_index,
    integrity_check,
    load_mesh,
    query_candidates,
    refine_mesh,
)

from conftest import box_mesh, grid_surface, icosphere, write_obj
from oracles import index_candidates


def test_load_obj_round_trip(tmp_path):
    mesh = box_mesh((0, 0, 0), (2, 3, 4))
    path = write_obj(tmp_path / "box.obj", mesh)
    loaded = load_mesh(path)
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert np.array_equal(loaded.triangles, mesh.triangles)


def test_load_obj_slash_refs_and_comments(tmp_path):
    path = tmp_path / "t.obj"
    path.write_text(
        "# a comment\n"
        "v 0 0 0\n"
        "v 1 0 0\n"
        "v 0 1 0\n"
        "vn 0 0 1\n"
        "f 1/1/1 2/2/1 3/3/1\n"
    )
    mesh = load_mesh(path)
    assert len(mesh.triangles) == 1
    assert list(mesh.triangles[0]) == [0, 1, 2]


def test_load_obj_rejects_quads(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ValidationError, match="triangulated"):
        load_mesh(path)


def test_load_obj_negative_indices(tmp_path):
    path = tmp_path / "neg.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    mesh = load_mesh(path)
    assert list(mesh.triangles[0]) == [0, 1, 2]


def test_load_off(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    mesh = load_mesh(path)
    assert len(mesh.vertices) == 3
    assert len(mesh.triangles) == 1


def test_load_mesh_missing_and_unknown(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_mesh(tmp_path / "ghost.obj")
    stray = tmp_path / "mesh.stl"
    stray.write_text("solid\n")
    with pytest.raises(ValidationError, match="unsupported"):
        load_mesh(stray)


def test_integrity_drops_degenerates():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], dtype=float)
    tris = np.array(
        [
            [0, 1, 2],  # fine
            [0, 1, 1],  # repeated index
            [0, 1, 3],  # collinear
        ]
    )
    clean, removed = integrity_check(TriangleMesh(verts, tris))
    assert removed == [1, 2]
    assert len(clean.triangles) == 1


def test_integrity_all_degenerate():
    verts = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
    tris = np.array([[0, 0, 1]])
    with pytest.raises(EmptyMesh):
        integrity_check(TriangleMesh(verts, tris))


def test_mesh_measures():
    """The extent of the triangle boxes is the first key and the last
    running maximum of each axis: the mesh bounds, overhung by the
    inflation of the faces flat on each axis."""
    index = build_index(box_mesh((0, 0, 0), (3, 4, 12)))
    lo, hi = index.keys[:, 0], index.hi_max[:, -1]
    assert np.array_equal(lo, index.tri_lo.min(axis=0))
    assert np.array_equal(hi, index.tri_hi.max(axis=0))
    assert (lo < 0).all() and (hi > [3, 4, 12]).all()
    assert np.allclose(lo, 0, atol=2e-8) and np.allclose(hi, [3, 4, 12], atol=2e-8)


def test_refine_params_validation():
    with pytest.raises(ValidationError):
        RefineParams(max_triangle_area=0, max_edge_length=1)
    with pytest.raises(ValidationError):
        RefineParams(max_triangle_area=1, max_edge_length=-2)


def test_refine_preserves_area_and_meets_thresholds():
    surface = grid_surface([0.0, 8.0], [0.0, 8.0], 1.0)  # two big triangles
    params = RefineParams(max_triangle_area=2.0, max_edge_length=2.5)
    fine = refine_mesh(surface, params)
    tv = fine.tri_vertices()
    areas = 0.5 * np.linalg.norm(
        np.cross(tv[:, 1] - tv[:, 0], tv[:, 2] - tv[:, 0]), axis=1
    )
    assert np.all(areas <= 2.0 + 1e-9)
    edges = np.concatenate(
        [
            np.linalg.norm(tv[:, 1] - tv[:, 0], axis=1),
            np.linalg.norm(tv[:, 2] - tv[:, 1], axis=1),
            np.linalg.norm(tv[:, 0] - tv[:, 2], axis=1),
        ]
    )
    assert np.all(edges <= 2.5 + 1e-9)
    assert abs(areas.sum() - 64.0) < 1e-9  # refinement never changes the surface
    assert np.allclose(fine.vertices[:, 2], 1.0)


def test_refine_overflow_at_the_cap(monkeypatch):
    """The cap is read at call time: a refinement that ends exactly at the
    cap succeeds, and one triangle more raises."""
    surface = grid_surface([0.0, 8.0], [0.0, 8.0], 1.0)
    params = RefineParams(max_triangle_area=2.0, max_edge_length=2.5)
    n = len(refine_mesh(surface, params))
    monkeypatch.setattr("reblock.mesh.REFINE_CAP", n)
    assert len(refine_mesh(surface, params)) == n
    monkeypatch.setattr("reblock.mesh.REFINE_CAP", n - 1)
    with pytest.raises(RefinementOverflow, match=f"exceeded {n - 1} triangles"):
        refine_mesh(surface, params)


def test_refine_is_conforming():
    """Shared edges are split consistently: every interior edge is used twice."""
    surface = grid_surface([0.0, 4.0, 8.0], [0.0, 4.0], 0.0)
    fine = refine_mesh(surface, RefineParams(max_triangle_area=3.0, max_edge_length=100.0))
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in fine.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + 1
    assert all(n in (1, 2) for n in counts.values())


# dyadic coordinates keep box bounds exact, so boxes built to touch a
# triangle box touch it exactly
_GRID = st.integers(-16, 16).map(lambda k: k / 4)


@st.composite
def _index_scenes(draw):
    """A small triangle soup and a batch of query boxes drawn from its own
    coordinates.

    Triangles may be flat on one axis, the whole soup may be flat, one
    triangle may dwarf the rest, and everything may sit 1e6 from the
    origin.  Query bounds touch triangle boxes (inflated or not), fall
    just past them or far outside the soup, or come from the grid, and
    may have zero thickness on any axis.  The batch may be empty.
    """
    n = draw(st.integers(1, 8))
    verts = np.array(draw(st.lists(_GRID, min_size=9 * n, max_size=9 * n))).reshape(n, 3, 3)
    for t in range(n):
        axis = draw(st.sampled_from([None, 0, 1, 2]))
        if axis is not None:
            verts[t, :, axis] = verts[t, 0, axis]
    flat_axis = draw(st.sampled_from([None, 0, 1, 2]))
    if flat_axis is not None:
        verts[:, :, flat_axis] = verts[0, 0, flat_axis]
    if draw(st.booleans()):
        verts[0] *= 64.0
    offset = draw(st.sampled_from([0.0, 1e6]))
    verts += offset
    mesh = TriangleMesh(verts.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))
    index = build_index(mesh)

    # per axis: vertex coordinates and the inflated triangle box bounds; the
    # same nudged by less than a flat axis's inflation or moved far off;
    # grid values.  Built once per scene, drawn from for every box.
    pools = []
    for k in range(3):
        values = set(verts[:, :, k].ravel()) | set(index.tri_lo[:, k]) | set(index.tri_hi[:, k])
        coords = st.sampled_from(sorted(values))
        nudged = st.builds(lambda c, s: c + s * 2.0**-31, coords, st.sampled_from([-1, 1]))
        far = st.builds(lambda c, s: c + s * 1e3, coords, st.sampled_from([-1, 1]))
        pools.append(st.one_of(coords, nudged, far, _GRID.map(lambda g: g + offset)))
    lo, hi = [], []
    for _ in range(draw(st.integers(0, 12))):
        bounds = []
        for pool in pools:
            a, b = sorted((draw(pool), draw(pool)))
            bounds.append((a, a if draw(st.integers(0, 3)) == 0 else b))
        lo.append([b[0] for b in bounds])
        hi.append([b[1] for b in bounds])
    return mesh, np.array(lo).reshape(-1, 3), np.array(hi).reshape(-1, 3)


@settings(max_examples=200, deadline=None)
@given(_index_scenes())
@example((icosphere(subdiv=2, radius=5.0),
          np.array([[-0.5, -0.5, 4.5]]), np.array([[0.5, 0.5, 5.5]])))
@example((grid_surface([0.0, 1.0], [0.0, 1.0], 0.0), np.empty((0, 3)), np.empty((0, 3))))
def test_query_candidates_match_oracle(scene):
    """Box by box, the batched query returns the oracle's triangles, with
    the pairs grouped by box in input order and triangles ascending."""
    mesh, lo, hi = scene
    pairs = query_candidates(build_index(mesh), lo, hi)
    assert pairs.shape[1:] == (2,) and pairs.dtype.kind == "i"
    wants = [index_candidates(mesh.vertices, mesh.triangles, a, b) for a, b in zip(lo, hi)]
    assert np.array_equal(pairs[:, 0], np.repeat(np.arange(len(lo)), [len(w) for w in wants]))
    assert np.array_equal(pairs[:, 1], np.concatenate([np.empty(0, dtype=np.int32), *wants]))


def test_index_empty_query():
    sphere = icosphere(subdiv=1, radius=1.0)
    index = build_index(sphere)
    pairs = query_candidates(index, [[49, 49, 49], [-2, -2, -2]], [[51, 51, 51], [2, 2, 2]])
    assert set(pairs[:, 0]) == {1}
    assert query_candidates(index, np.empty((0, 3)), np.empty((0, 3))).shape == (0, 2)


def test_query_boxes_are_closed():
    """A box that shares only a face with a triangle's box gets it; one a
    hair away does not."""
    tri = np.array([[0, 0, 0], [1, 0, 1], [0, 1, 1]])
    index = build_index(TriangleMesh(tri, np.array([[0, 1, 2]])))
    lo = [[1.0, 0.0, 0.0], [1.001, 0.0, 0.0]]
    hi = [[2.0, 1.0, 1.0], [2.0, 1.0, 1.0]]
    assert query_candidates(index, lo, hi).tolist() == [[0, 0]]


def test_index_inflates_flat_triangle_boxes():
    # triangle 0 lies in the plane z = 5; triangle 1 gives the mesh depth
    verts = np.array(
        [[0, 0, 5], [1, 0, 5], [0, 1, 5], [3, 3, 0], [4, 3, 9], [3, 4, 9]], dtype=float
    )
    index = build_index(TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]])))
    assert (index.tri_hi[0] - index.tri_lo[0])[2] > 0
    below = ([0.2, 0.2, 4.0], [0.4, 0.4, 5.0])
    above = ([0.2, 0.2, 5.0], [0.4, 0.4, 6.0])
    pairs = query_candidates(index, *np.stack([below, above], axis=1))
    assert pairs.tolist() == [[0, 0], [1, 0]]


def test_boxes_on_a_flat_triangles_x_bounds_meet_it():
    """A box of zero width placed on either x bound of a one-triangle
    mesh flat in z meets the triangle, whatever the rounding of the
    bounds' centre and half extent."""
    misses = []
    for x0 in np.linspace(0.1, 0.9, 27):
        for x1 in np.linspace(1.1, 2.5, 69):
            tri = np.array([[x0, 0, 0], [x1, 0, 0], [x0, 1, 0]])
            mesh = TriangleMesh(tri, np.array([[0, 1, 2]]))
            lo = np.array([[x0, 0.0, -1.0], [x1, 0.0, -1.0]])
            hi = np.array([[x0, 0.5, 1.0], [x1, 0.5, 1.0]])
            pairs = query_candidates(build_index(mesh), lo, hi)
            if len(pairs) != 2:
                misses.append((x0, x1))
    assert not misses, f"{len(misses)} of {27 * 69} meshes lose a candidate"
