from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reblock.errors import EmptyMesh, ValidationError
from reblock.mesh import (
    TriangleMesh,
    build_index,
    integrity_check,
    load_mesh,
    query_candidates,
    tri_bounds,
)

from conftest import box_mesh, grid_surface, icosphere, write_obj
from oracles import (
    index_candidates,
    index_rows,
    load_mesh_lines,
    tri_bounds_rows,
    zero_normals_rows,
)


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


def _error(load, path):
    with pytest.raises((ValidationError, EmptyMesh)) as info:
        load(path)
    return type(info.value), str(info.value).replace(str(path.parent) + "/", "")


# name -> (text, error class, message); the path shows as the file name
LOADER_FAULTS = {
    "x.obj": ("v 0 0 0\nv 1 0 x\nf 1 2 3\n", ValidationError, "x.obj:2: bad vertex line"),
    "bare.obj": (
        "v 0 0 0\n  v # no fields\nf 1 2 3\n",
        ValidationError,
        "bare.obj:2: bad vertex line",
    ),
    "short.obj": ("\n\nv 0 0\n", ValidationError, "short.obj:3: bad vertex line"),
    "under.obj": ("v 1_0 0 0\n", ValidationError, "under.obj:1: bad vertex line"),
    "arabic.obj": ("v \u0661 0 0\n", ValidationError, "arabic.obj:1: bad vertex line"),
    "order.obj": (
        "v 0 0 0\nf 1 2 3 4\nv 1 x 1\n",
        ValidationError,
        "order.obj:2: face with 4 vertices; only triangulated OBJ files are supported",
    ),
    "float.obj": (
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3.0\n",
        ValidationError,
        "float.obj:4: bad face line",
    ),
    "slash.obj": (
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf /1 2 3\n",
        ValidationError,
        "slash.obj:4: bad face line",
    ),
    "zero.obj": (
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n",
        ValidationError,
        "zero.obj:4: vertex reference out of range",
    ),
    "back.obj": (
        "v 0 0 0\nv 1 0 0\nf 1 2 -3\nv 0 1 0\nf 1 2 3\n",
        ValidationError,
        "back.obj:3: vertex reference out of range",
    ),
    "nan.obj": (
        "v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n",
        ValidationError,
        "nan.obj:2: non-finite vertex",
    ),
    "first.obj": (
        "v 0 0 0\nv 1 0 0\nf 1 2 4\nv 0 inf 0\n",
        ValidationError,
        "first.obj:3: vertex reference out of range",
    ),
    "inf.obj": (
        "v 0 0 0\nv 1 0 0\nv 0 -inf 0\nf 1 2 3\nf 1 2 9\n",
        ValidationError,
        "inf.obj:3: non-finite vertex",
    ),
    "none.obj": ("v 0 0 0\n# f 1 2 3\n", EmptyMesh, "none.obj: no faces found"),
    "q.off": (
        "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 q\n",
        ValidationError,
        "q.off:6: bad face line",
    ),
    "count.off": ("OFF\nx 1 0\n", ValidationError, "count.off:2: expected 'nv nf ne' counts"),
    "negative.off": (
        "OFF -1 2 0\n0 0 0\n3 0 1 2\n3 0 1 2\n",
        ValidationError,
        "negative.off:1: expected 'nv nf ne' counts",
    ),
    "vertex.off": (
        "OFF\n3 1\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n",
        ValidationError,
        "vertex.off:4: bad vertex line",
    ),
    "quad.off": (
        "OFF\n3 1\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 3\n",
        ValidationError,
        "quad.off:6: face with 4 vertices; only triangles are supported",
    ),
    "cut.off": (
        "OFF\n3 1\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n",
        ValidationError,
        "cut.off:6: truncated face line",
    ),
    "header.off": ("# c\n\nCOFF\n3 1\n", ValidationError, "header.off:3: missing OFF header"),
    "lines.off": (
        "OFF\n3 2\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
        ValidationError,
        "lines.off: fewer data lines than the header promises",
    ),
    "past.off": (
        "OFF\n3 2\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1 3\n",
        ValidationError,
        "past.off:7: vertex index out of range",
    ),
    "nan.off": (
        "OFF\n3 1\n0 0 0\n1 NaN 0\n0 1 0\n3 0 1 5\n",
        ValidationError,
        "nan.off:4: non-finite vertex",
    ),
    "empty.off": ("# only a comment\n\n", ValidationError, "empty.off: empty OFF file"),
    "truncated.off": ("OFF\n", ValidationError, "truncated.off: truncated OFF file"),
    "faceless.off": (
        "OFF\n3 0\n0 0 0\n1 0 0\n0 1 0\n",
        EmptyMesh,
        "faceless.off: OFF file declares no faces",
    ),
}


@pytest.mark.parametrize("name", LOADER_FAULTS)
def test_loader_messages(tmp_path, name):
    """A malformed surface fails at its first faulty line, in the loader and
    in the line-by-line oracle alike."""
    text, kind, message = LOADER_FAULTS[name]
    path = tmp_path / name
    path.write_text(text)
    assert _error(load_mesh, path) == (kind, message)
    assert _error(load_mesh_lines, path) == (kind, message)


@pytest.mark.parametrize(
    "name, data, line",
    [
        ("bad.obj", b"# caf\xc3\xa9\nv 0 0 0\nv 1 0 0 # \xff\nv 0 1 0\nf 1 2 3\n", 3),
        ("bad.off", b"OFF\n3 1 0\n0 0 0\n1 0 0 # \xc3\n0 1 0\n3 0 1 2\n", 4),
    ],
)
def test_loaders_reject_invalid_utf8(tmp_path, name, data, line):
    """UTF-8 comments are fine; a byte that is not UTF-8 fails at its line."""
    path = tmp_path / name
    path.write_bytes(data)
    assert _error(load_mesh, path) == (ValidationError, f"{name}:{line}: not valid UTF-8")
    path.write_bytes(data.replace(b"\xff", b"").replace(b"\xc3\n", b"\n"))
    assert len(load_mesh(path)) == 1


@pytest.mark.parametrize("sep", ["\f", "\u2028"])
def test_obj_lines_break_where_splitlines_breaks(tmp_path, sep):
    """A form feed or a Unicode line separator ends a line as it does for
    ``str.splitlines``: such an OBJ loads as its newline twin, and a bad
    line is named by its number among the lines ``splitlines`` gives."""
    lines = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 1 2 3"]
    (tmp_path / "newline.obj").write_text("\n".join(lines) + "\n")
    (tmp_path / "sep.obj").write_text(sep.join(lines) + "\n", encoding="utf-8")
    want, got = load_mesh(tmp_path / "newline.obj"), load_mesh(tmp_path / "sep.obj")
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.triangles, want.triangles)
    path = tmp_path / "bad.obj"
    path.write_text(f"v 0 0 0\nv 1 0 0{sep}v 0 x 0{sep}f 1 2 3\n", encoding="utf-8")
    for load in (load_mesh, load_mesh_lines):
        assert _error(load, path) == (ValidationError, "bad.obj:3: bad vertex line")


@pytest.mark.parametrize(
    "vertices, triangles, message",
    [
        (np.zeros((3, 2)), [[0, 1, 2]], "vertices must be an (N, 3) array"),
        (np.zeros(9), [[0, 1, 2]], "vertices must be an (N, 3) array"),
        (np.eye(3), [[0, 1]], "triangles must be an (M, 3) array"),
        (np.eye(3), [0, 1, 2], "triangles must be an (M, 3) array"),
        ([[0, 0, 0], [1, 0, 0], [0, np.inf, 0]], [[0, 1, 2]], "mesh 'surface' has non-finite vertices"),
        ([[0, 0, 0], [1, 0, 0], [0, np.nan, 0]], [[0, 1, 2]], "mesh 'surface' has non-finite vertices"),
    ],
)
def test_triangle_mesh_checks_shapes_and_finite_vertices(vertices, triangles, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        TriangleMesh(np.asarray(vertices, dtype=float), np.asarray(triangles))


def test_mesh_without_triangles_is_refused():
    mesh = TriangleMesh(np.eye(3), np.empty((0, 3), dtype=np.int64), name="bare")
    with pytest.raises(EmptyMesh, match="^mesh 'bare' has no triangles$"):
        integrity_check(mesh)
    with pytest.raises(EmptyMesh, match="^mesh 'bare' has no triangles to index$"):
        build_index(mesh)


def test_triangle_indices_checked_before_narrowing(tmp_path):
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    with pytest.raises(ValidationError, match="out-of-range vertex indices"):
        TriangleMesh(verts, np.array([[0, 1, 2**32 + 2]]))
    path = tmp_path / "wide.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4294967299\n")
    with pytest.raises(ValidationError, match="wide.obj:4: vertex reference out of range"):
        load_mesh(path)


# ---------------------------------------------------------------------------
# the bulk loaders against the line-by-line oracles
# ---------------------------------------------------------------------------

COORDS = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-307, 1e-307)
SPELLINGS = ("%r", "%.17g", "%.6e")
GAPS = (" ", "\t", "  ", " \t ", "\xa0")  # the last is a no-break space
COMMENTS = ("", "", " # note", "#4", " # f 1 2 3")
OBJ_OTHERS = (
    "vn 0 0 1", "vt 0.5 0.25", "o part", "g two words", "s off", "usemtl stone",
    "v1 2 3", "fo 1 2 3", "# v 1 2 3", "",
)
OBJ_BAD = (
    "v", "v 1 2", "v 1 0 x", "v 1_0 0 0", "v nan 0 0", "f", "f 1 2", "f 1 1 2 1", "f 1 2 x",
    "f 1.0 1 1", "f /1 1 1", "f 0 1 1", "f 1 1 4294967299", "f 1 1 99999999999999999999", "f 1 1 -99",
)
OFF_BAD = ("1 0", "1 0 x", "3 0 1", "4 0 1 2 3", "3 0 1 q", "x", "3 0 1 2.5", "3 0 0 9")


def _finish(draw, lines):
    """Indent lines, add comments and blank lines, and join with one line end."""
    out = []
    for line in lines:
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", "   ", "# a comment", "\t# f 9 9 9"])))
        indent = draw(st.sampled_from(["", "", " ", "\t"]))
        out.append(indent + line + draw(st.sampled_from(COMMENTS)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + draw(st.sampled_from([end, ""]))


@st.composite
def obj_texts(draw):
    """``("obj", text)``: vertex, face and other records in random order, in
    the spellings the format allows; half the texts also get malformed
    records."""
    gap = lambda: draw(st.sampled_from(GAPS))
    spell = lambda x: draw(st.sampled_from(SPELLINGS)) % x
    malformed, lines, nv = draw(st.booleans()), [], 0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["v", "v", "f", "f", "other", "bad"]))
        if kind == "v" or (kind == "f" and not nv):
            coords = draw(st.lists(COORDS, min_size=3, max_size=4))  # a fourth is w
            lines.append("v" + gap() + gap().join(spell(c) for c in coords))
            nv += 1
        elif kind == "f":
            refs = []
            for _ in range(3):
                k = draw(st.integers(1, max(nv, 1)))
                k = k - nv - 1 if draw(st.booleans()) else k  # -1 is the last vertex
                refs.append(str(k) + draw(st.sampled_from(["", "/1", "/2/3", "//3", "/"])))
            lines.append("f" + gap() + gap().join(refs))
        elif kind == "other" or not malformed:
            lines.append(draw(st.sampled_from(OBJ_OTHERS)))
        else:
            lines.append(draw(st.sampled_from(OBJ_BAD)))
    return "obj", _finish(draw, lines)


@st.composite
def off_texts(draw):
    """``("off", text)``: a vertex block and a face block, with colour
    fields, counts on the header line or the next; half the texts get a
    malformed line or count."""
    gap = lambda: draw(st.sampled_from(GAPS))
    colour = lambda: draw(st.sampled_from(["", " 255 0 0", " 0.5 0.5 0.5 1.0"]))
    nv, nf = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    spell = lambda x: draw(st.sampled_from(SPELLINGS)) % x
    data = [gap().join(spell(draw(COORDS)) for _ in range(3)) + colour() for _ in range(nv)]
    for _ in range(nf):
        refs = [str(draw(st.integers(0, max(nv - 1, 0)))) for _ in range(3)]
        data.append("3" + gap() + gap().join(refs) + colour())
    counts = [str(nv), str(nf), "0"][: draw(st.integers(2, 3))]
    if draw(st.booleans()):
        if draw(st.booleans()) and data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.sampled_from(OFF_BAD))
        else:
            bad = draw(st.sampled_from(["x", "-1", "1.0", str(nv + nf + 1)]))
            counts[draw(st.integers(0, 1))] = bad
    data += draw(st.lists(st.sampled_from(["0 0 0", "extra text"]), max_size=2))
    header = draw(st.sampled_from(["OFF", "off"]))
    if draw(st.booleans()):
        return "off", _finish(draw, [header + " " + gap().join(counts), *data])
    return "off", _finish(draw, [header, gap().join(counts), *data])


@pytest.fixture(scope="module")
def mesh_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("meshes")


def _loaded(load, path):
    try:
        vertices, triangles = load(path)
    except (ValidationError, EmptyMesh) as exc:  # compared by class and message
        return type(exc), str(exc)
    return vertices.dtype, vertices.tobytes(), triangles.dtype, triangles.tobytes(), triangles.shape


@settings(max_examples=300, deadline=None)
@given(case=obj_texts() | off_texts())
def test_bulk_loader_matches_line_by_line_oracle(mesh_dir, case):
    suffix, text = case
    path = mesh_dir / f"surface.{suffix}"
    path.write_bytes(text.encode())

    def bulk(path):
        mesh = load_mesh(path)
        return mesh.vertices, mesh.triangles

    assert _loaded(bulk, path) == _loaded(load_mesh_lines, path)


@settings(max_examples=200, deadline=None)
@given(st.lists(COORDS, min_size=3, max_size=30), st.sampled_from(SPELLINGS))
@example([5e-324, -2.2250738585072014e-308, -0.0], "%r")
@example([4.9406564584124654e-324, 1.7976931348623157e308, 0.1], "%.17g")
def test_loaded_floats_equal_python_float(mesh_dir, xs, spelling):
    words = [spelling % x for x in xs[: len(xs) // 3 * 3]]
    rows = [" ".join(words[i : i + 3]) for i in range(0, len(words), 3)]
    (mesh_dir / "f.obj").write_text("".join(f"v {row}\n" for row in rows) + "f 1 1 1\n")
    (mesh_dir / "f.off").write_text(f"OFF\n{len(rows)} 1 0\n" + "\n".join(rows) + "\n3 0 0 0\n")
    want = np.array([float(w) for w in words]).view(np.uint64)
    for name in ("f.obj", "f.off"):
        assert np.array_equal(load_mesh(mesh_dir / name).vertices.ravel().view(np.uint64), want)


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


# signed zeros, ties, subnormals and wide magnitudes: the values on which
# a column form that reordered a reduction would show
_ROW_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 2.0**-40, 5e-324]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def _triangle_arrays(draw):
    """A (T, 3, 3) vertex array whose triangles are free, flat on one axis,
    have two coincident vertices, or are exactly collinear (small integer
    points on a line), moved by 0 or +-1e6 (only when nonzero, so that a
    signed zero stays)."""
    n = draw(st.integers(1, 10))
    tv = np.array(draw(st.lists(_ROW_COORDS, min_size=9 * n, max_size=9 * n))).reshape(n, 3, 3)
    for t in range(n):
        kind = draw(st.sampled_from(["free", "flat", "coincident", "collinear"]))
        if kind == "flat":
            axis = draw(st.integers(0, 2))
            tv[t, :, axis] = tv[t, 0, axis]
        elif kind == "coincident":
            i, j, _ = draw(st.permutations([0, 1, 2]))
            tv[t, j] = tv[t, i]
        elif kind == "collinear":
            small = st.lists(st.integers(-4, 4), min_size=3, max_size=3)
            base, step = np.array(draw(small)), np.array(draw(small))
            steps = np.array(draw(st.permutations([0, 1, -3])))
            tv[t] = base + steps[:, None] * step
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    return tv + offset if offset else tv


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(_triangle_arrays(), st.data())
def test_tri_bounds_match_row_reductions(tv, data):
    """Bit for bit, signed zeros included: on the (T, 3, 3) array, on
    (P, 3, 3) pairs gathered from it, on a reversed view and on a stack."""
    picks = data.draw(st.lists(st.integers(0, len(tv) - 1), max_size=16))
    for arr in (tv, tv[picks], tv[::-1], np.stack([tv, tv[::-1]])):
        for got, want in zip(tri_bounds(arr), tri_bounds_rows(arr)):
            assert got.shape == want.shape == arr.shape[:-2] + (3,)
            assert np.array_equal(_bits(got), _bits(want))


def _soup(tv: np.ndarray) -> TriangleMesh:
    return TriangleMesh(tv.reshape(-1, 3), np.arange(tv.size // 3).reshape(-1, 3))


_PLANE = grid_surface(np.linspace(-3.1, 203.3, 9), np.linspace(-2.9, 203.1, 10),
                      lambda x, y: 19.3 + 0.011 * x + 0.007 * y)


@settings(max_examples=300, deadline=None)
@given(_triangle_arrays())
@example(_PLANE.tri_vertices() + 1e6)
@example(icosphere(subdiv=2, radius=9.5, center=(15.7, 16.3, 15.9)).tri_vertices())
@example(np.array([[[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [0.0, 1.0, 5.0]],
                   [[-0.0, 3.0, 0.0], [0.0, 3.0, 9.0], [-0.0, 4.0, 9.0]]]))
def test_build_index_matches_row_reductions(tv):
    """The five index arrays equal, bit for bit, those built with the
    bounds and widest extent reduced over rows of three."""
    mesh = _soup(tv)
    index = build_index(mesh)
    got = (index.tri_lo, index.tri_hi, index.order, index.keys, index.hi_max)
    for name, g, w in zip(("tri_lo", "tri_hi", "order", "keys", "hi_max"), got,
                          index_rows(mesh.vertices, mesh.triangles)):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert np.array_equal(np.ascontiguousarray(g).view(np.uint8),
                              np.ascontiguousarray(w).view(np.uint8)), name


@settings(max_examples=300, deadline=None)
@given(_triangle_arrays(), st.lists(st.sampled_from([(0, 0, 1), (0, 1, 1), (2, 1, 2)]), max_size=3))
def test_integrity_removals_match_row_normals(tv, repeats):
    """Collinear, coincident-vertex and repeated-index triangles are
    removed exactly where the row form of the normal is zero or an index
    repeats; a mesh of nothing else is refused."""
    mesh = _soup(tv)
    tris = np.vstack([mesh.triangles, np.array(repeats, dtype=np.int32).reshape(-1, 3)])
    mesh = TriangleMesh(mesh.vertices, tris)
    repeated = (tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2]) | (tris[:, 2] == tris[:, 0])
    want = np.flatnonzero(zero_normals_rows(mesh.tri_vertices()) | repeated).tolist()
    if len(want) == len(tris):
        with pytest.raises(EmptyMesh):
            integrity_check(mesh)
        return
    clean, removed = integrity_check(mesh)
    assert removed == want
    assert np.array_equal(clean.triangles, np.delete(tris, want, axis=0))


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
