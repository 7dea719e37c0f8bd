from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reblock.errors import EmptyMesh, RefinementOverflow, ValidationError
from reblock.geometry import Aabb, aabb_from_bounds, vec3
from reblock.mesh import (
    RefineParams,
    TriangleMesh,
    build_index,
    integrity_check,
    load_mesh,
    mesh_aabb,
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
    mesh = box_mesh((0, 0, 0), (3, 4, 12))
    box = mesh_aabb(mesh)
    assert box.lo == vec3(0, 0, 0)
    assert box.hi == vec3(3, 4, 12)


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


# dyadic coordinates keep box centres and halves exact, so boxes built to
# touch a triangle box or the mesh bounds touch them exactly
_GRID = st.integers(-16, 16).map(lambda k: k / 4)


@st.composite
def _index_scenes(draw):
    """A small triangle soup and query boxes drawn from its own coordinates.

    Triangles may be flat on one axis, the whole soup may be flat, one
    triangle may dwarf the rest, and everything may sit 1e6 from the
    origin.  Query bounds touch triangle boxes and the mesh bounds, fall
    just past them, or come from the grid, and may have zero thickness
    on any axis.
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

    boxes = []
    for _ in range(draw(st.integers(1, 12))):
        bounds = []
        for k in range(3):
            coords = st.sampled_from(sorted(set(verts[:, :, k].ravel())))
            # vertex coordinates, so the mesh and triangle bounds too; the
            # same nudged by less than a flat axis's inflation; grid values
            nudged = st.builds(lambda c, s: c + s * 2.0**-31, coords, st.sampled_from([-1, 1]))
            pool = st.one_of(coords, nudged, _GRID.map(lambda g: g + offset))
            a, b = sorted((draw(pool), draw(pool)))
            bounds.append((a, a if draw(st.integers(0, 3)) == 0 else b))
        lo, hi = zip(*bounds)
        boxes.append(aabb_from_bounds(vec3(*lo), vec3(*hi)))
    return mesh, boxes


@settings(max_examples=200, deadline=None)
@given(_index_scenes())
@example((icosphere(subdiv=2, radius=5.0), [Aabb(vec3(0, 0, 5.0), vec3(0.5, 0.5, 0.5))]))
def test_query_candidates_match_oracle(scene):
    mesh, boxes = scene
    index = build_index(mesh)
    for box in boxes:
        got = query_candidates(index, box)
        want = index_candidates(mesh.vertices, mesh.triangles, box.lo, box.hi)
        assert got.dtype == np.int32
        assert np.array_equal(got, want), (box, got, want)


def test_index_empty_query():
    sphere = icosphere(subdiv=1, radius=1.0)
    index = build_index(sphere)
    far = Aabb(vec3(50, 50, 50), vec3(1, 1, 1))
    assert len(query_candidates(index, far)) == 0


def test_index_inflates_flat_triangle_boxes():
    # triangle 0 lies in the plane z = 5; triangle 1 gives the mesh depth
    verts = np.array(
        [[0, 0, 5], [1, 0, 5], [0, 1, 5], [3, 3, 0], [4, 3, 9], [3, 4, 9]], dtype=float
    )
    index = build_index(TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]])))
    assert (index.tri_hi[0] - index.tri_lo[0])[2] > 0
    below = aabb_from_bounds(vec3(0.2, 0.2, 4.0), vec3(0.4, 0.4, 5.0))
    above = aabb_from_bounds(vec3(0.2, 0.2, 5.0), vec3(0.4, 0.4, 6.0))
    assert list(query_candidates(index, below)) == [0]
    assert list(query_candidates(index, above)) == [0]
