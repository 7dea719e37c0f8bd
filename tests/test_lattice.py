from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import read_model_rows, validate_rows
from reblock.errors import MisalignedBlock, ValidationError
from reblock.geometry import vec3
from reblock.lattice import (
    Block,
    BlockModel,
    LatticeSpec,
    block_from_floats,
    cell_lut,
    cells_of,
    paint_parent,
    parent_index_of,
    parent_min_corner,
    raster_index,
    read_model_csv,
    subscript_of,
    write_model_csv,
)


def make_spec(origin=(0, 0, 0), parent=(10, 10, 10), cell=(2, 2, 2)):
    return LatticeSpec(vec3(*origin), vec3(*parent), vec3(*cell))


def test_cell_counts_derived():
    spec = make_spec(parent=(50, 50, 20), cell=(6.25, 6.25, 2.5))
    assert spec.cell_counts == (8, 8, 8)
    assert spec.cells_per_parent == 512


def test_spec_rejects_non_multiple():
    with pytest.raises(ValidationError, match="integer multiples"):
        make_spec(parent=(10, 10, 10), cell=(3, 2, 2))
    with pytest.raises(ValidationError, match="positive"):
        make_spec(parent=(0, 10, 10))


def test_parent_index_floor_and_snap():
    spec = make_spec(origin=(-5, -5, -5))
    assert parent_index_of(spec, (0, 0, 0)) == (0, 0, 0)
    assert parent_index_of(spec, (-5.0, -5.0, -5.0)) == (0, 0, 0)
    assert parent_index_of(spec, (-5.1, 0, 0)) == (-1, 0, 0)
    # float noise just below a boundary still snaps onto it
    assert parent_index_of(spec, (5.0 - 1e-12, 0, 0)) == (1, 0, 0)


def test_parent_geometry():
    spec = make_spec(origin=(1, 2, 3))
    assert parent_min_corner(spec, (1, 0, -1)) == vec3(11, 2, -7)


@given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 6))
def test_raster_subscript_round_trip(nx, ny, nz):
    counts = (5, 6, 7)
    assert subscript_of(raster_index((nx, ny, nz), counts), counts) == (nx, ny, nz)


def test_raster_order_is_x_fastest():
    counts = (3, 2, 2)
    seen = [subscript_of(i, counts) for i in range(12)]
    assert seen[:4] == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]


def test_block_geometry():
    spec = make_spec()
    b = Block(parent=(1, 0, 0), cell_min=(1, 2, 3), cell_dims=(2, 1, 1), label=9)
    assert b.min_corner(spec) == vec3(12, 4, 6)
    assert b.dims(spec) == vec3(4, 2, 2)
    assert BlockModel(spec, [b]).centroids().tolist() == [[14, 5, 7]]


def test_cells_of_enumerates_whole_prism():
    spec = make_spec()
    b = Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(2, 2, 1), label=0)
    assert cells_of(spec, b) == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]


def test_cell_lut_matches_block_centroids():
    spec = make_spec()
    lut = cell_lut(spec)
    base = np.asarray(parent_min_corner(spec, (0, 0, 0)))
    for i in (0, 7, 63, 124):
        n = subscript_of(i, spec.cell_counts)
        b = Block(parent=(0, 0, 0), cell_min=n, cell_dims=(1, 1, 1))
        assert np.allclose(lut[i] + base, BlockModel(spec, [b]).centroids()[0])


def test_paint_parent_and_overlap_guard():
    spec = make_spec(parent=(4, 4, 4), cell=(1, 1, 1))
    a = Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(2, 4, 4), label=1)
    b = Block(parent=(0, 0, 0), cell_min=(2, 0, 0), cell_dims=(2, 4, 4), label=2)
    labels, owner = paint_parent(spec, [a, b])
    assert labels.shape == (4, 4, 4)
    assert (labels[:, :, :2] == 1).all() and (labels[:, :, 2:] == 2).all()
    assert (owner[:, :, :2] == 0).all() and (owner[:, :, 2:] == 1).all()
    clash = Block(parent=(0, 0, 0), cell_min=(1, 0, 0), cell_dims=(1, 1, 1), label=3)
    with pytest.raises(ValidationError, match="overlapping"):
        paint_parent(spec, [a, clash])


def test_model_validate_catches_escapes_and_overlaps():
    spec = make_spec(parent=(4, 4, 4), cell=(1, 1, 1))
    escape = Block(parent=(0, 0, 0), cell_min=(3, 0, 0), cell_dims=(2, 1, 1))
    with pytest.raises(MisalignedBlock):
        BlockModel(spec, [escape]).validate()
    a = Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(2, 2, 2))
    b = Block(parent=(0, 0, 0), cell_min=(1, 1, 1), cell_dims=(1, 1, 1))
    with pytest.raises(ValidationError, match="overlaps"):
        BlockModel(spec, [a, b]).validate()


def test_block_from_floats_snaps():
    spec = make_spec()
    b = block_from_floats(spec, centroid=(3.0 + 1e-8, 3.0, 1.0), dims=(2, 2, 2), label=5)
    assert b.parent == (0, 0, 0)
    assert b.cell_min == (1, 1, 0)
    assert b.cell_dims == (1, 1, 1)


def test_block_from_floats_rejects_off_grid():
    spec = make_spec()
    with pytest.raises(MisalignedBlock, match="off-grid"):
        block_from_floats(spec, centroid=(3.7, 3.0, 1.0), dims=(2, 2, 2), label=5)
    with pytest.raises(MisalignedBlock, match="straddles"):
        block_from_floats(spec, centroid=(10.0, 3.0, 1.0), dims=(4, 2, 2), label=5)


def test_csv_round_trip(tmp_path):
    spec = make_spec()
    blocks = [
        Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(5, 5, 5), label=1),
        Block(parent=(1, 0, 0), cell_min=(0, 0, 0), cell_dims=(5, 5, 2), label=2),
        Block(parent=(1, 0, 0), cell_min=(0, 0, 2), cell_dims=(5, 5, 3), label=3),
    ]
    model = BlockModel(spec, blocks)
    path = tmp_path / "model.csv"
    assert write_model_csv(path, model) == 3
    back = read_model_csv(path, spec)
    assert [(b.parent, b.cell_min, b.cell_dims, b.label) for b in back.blocks] == [
        (b.parent, b.cell_min, b.cell_dims, b.label) for b in model.canonical().blocks
    ]


def test_csv_write_is_canonically_sorted(tmp_path):
    spec = make_spec()
    shuffled = [
        Block(parent=(1, 0, 0), cell_min=(0, 0, 0), cell_dims=(5, 5, 5), label=2),
        Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(5, 5, 5), label=1),
    ]
    path = tmp_path / "m.csv"
    write_model_csv(path, BlockModel(spec, shuffled))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,y,z,dx,dy,dz,label"
    assert rows[1].endswith(",1")  # parent (0,0,0) first
    assert rows[2].endswith(",2")


def test_csv_errors(tmp_path):
    spec = make_spec()
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n")
    with pytest.raises(ValidationError, match="header"):
        read_model_csv(bad_header, spec)
    bad_row = tmp_path / "r.csv"
    bad_row.write_text("x,y,z,dx,dy,dz,label\n1,2,3\n")
    with pytest.raises(ValidationError, match="7 fields"):
        read_model_csv(bad_row, spec)
    with pytest.raises(ValidationError, match="not found"):
        read_model_csv(tmp_path / "nope.csv", spec)


def test_by_parent_preserves_input_order():
    spec = make_spec(parent=(4, 4, 4), cell=(1, 1, 1))
    blocks = [
        Block(parent=(0, 0, 0), cell_min=(3, 0, 0), cell_dims=(1, 1, 1), label=0),
        Block(parent=(1, 1, 1), cell_min=(0, 0, 0), cell_dims=(1, 1, 1), label=1),
        Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(1, 1, 1), label=2),
    ]
    groups = BlockModel(spec, blocks).by_parent()
    assert groups[(0, 0, 0)] == [0, 2]
    assert groups[(1, 1, 1)] == [1]


# ---------------------------------------------------------------------------
# error messages, pinned word for word
# ---------------------------------------------------------------------------

HEADER = "x,y,z,dx,dy,dz,label\n"


def _read_error(tmp_path, text, spec=None):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as info:
        read_model_csv(path, spec or make_spec())
    return type(info.value), str(info.value).replace(str(path), "m.csv")


def test_read_messages_header_fields_and_parse(tmp_path):
    assert _read_error(tmp_path, "a,b,c\n") == (
        ValidationError,
        "m.csv:1: expected header 'x,y,z,dx,dy,dz,label', got 'a,b,c'",
    )
    assert _read_error(tmp_path, "# note\n\n X, Y,z,DX,dy,dz\n") == (
        ValidationError,
        "m.csv:3: expected header 'x,y,z,dx,dy,dz,label', got 'x,y,z,dx,dy,dz'",
    )
    assert _read_error(tmp_path, HEADER + "1,1,1,2,2,2,0\n1,2,3\n") == (
        ValidationError,
        "m.csv:3: expected 7 fields, got 3",
    )
    assert _read_error(tmp_path, HEADER + "1,abc,1,2,2,2,0\n") == (
        ValidationError,
        "m.csv:2: could not convert string to float: 'abc'",
    )
    assert _read_error(tmp_path, HEADER + "1,1,1,2,2,2,1.5\n") == (
        ValidationError,
        "m.csv:2: invalid literal for int() with base 10: '1.5'",
    )
    assert _read_error(tmp_path, "# only a comment\n\n") == (
        ValidationError,
        "m.csv: empty model file",
    )


@pytest.mark.parametrize(
    "row, kind, message",
    [
        ("1,1,1,2,-2,2,0", ValidationError, "non-positive dimension -2.0"),
        ("1,1,1,0,2,2,0", ValidationError, "non-positive dimension 0.0"),
        ("1,1,1,2,2,3,0", MisalignedBlock, "block size 1.5 is off-grid"),
        ("1,1,1,2,1e-07,2,0", MisalignedBlock, "dimension below the minimum block size"),
        ("1,1.5,1,2,2,2,0", MisalignedBlock, "block corner 0.25 is off-grid"),
        ("10,1,1,4,2,2,0", MisalignedBlock, "block straddles a parent boundary on axis 0"),
        ("1,1,10,2,2,4,0", MisalignedBlock, "block straddles a parent boundary on axis 2"),
    ],
)
def test_read_messages_snap(tmp_path, row, kind, message):
    # two comments and a blank line sit before the bad row, on line 6
    text = "# model\n" + HEADER + "\n# rows\n1,1,1,2,2,2,0\n" + row + "\n"
    assert _read_error(tmp_path, text) == (kind, f"m.csv:6: {message}")


def test_read_messages_first_faulty_row_wins(tmp_path):
    # a row that fails to snap comes before one that fails to parse
    text = HEADER + "1,1,1,2,2,2,0\n1,1,1,2,2,3,0\n1,2,3\n"
    assert _read_error(tmp_path, text) == (MisalignedBlock, "m.csv:3: block size 1.5 is off-grid")
    text = HEADER + "1,1,1,2,2,2,0\n1,2,3\n1,1,1,2,2,3,0\n"
    assert _read_error(tmp_path, text) == (ValidationError, "m.csv:3: expected 7 fields, got 3")


@pytest.mark.parametrize(
    "row, message",
    [
        ("nan,1,1,1,1,1,0", "non-finite parent index nan"),
        ("1,-inf,1,1,1,1,0", "non-finite parent index -inf"),
        ("1,1,1,inf,1,1,0", "non-finite block size inf"),
        ("nan,1,1,1,nan,1,0", "non-finite block size nan"),
        ("1,1,1,1e308,2,2,0", "non-finite block size inf"),
    ],
)
def test_read_messages_non_finite(tmp_path, row, message):
    """A field that is not finite, or whose quotient by the lattice is not,
    names its line, in the reader and in the row-by-row oracle alike."""
    text = HEADER + "1,1,1,2,2,2,0\n" + row + "\n"
    want = (ValidationError, f"m.csv:3: {message}")
    assert _read_error(tmp_path, text, make_spec(cell=(0.25, 1, 1))) == want
    with pytest.raises(ValidationError) as info:
        read_model_rows(tmp_path / "m.csv", make_spec(cell=(0.25, 1, 1)))
    assert (type(info.value), str(info.value).replace(str(tmp_path / "m.csv"), "m.csv")) == want


@pytest.mark.parametrize(
    "row, message",
    [
        ("4e19,2,2,4,4,4,0", "parent index 1e+19 is out of range"),
        ("-1.9e19,2,2,4,4,4,0", "parent index -4.75e+18 is out of range"),
        ("2,2,2,4,4,4,99999999999999999999999", "label 99999999999999999999999 is outside int64"),
        ("2,2,2,4,4,4,-9223372036854775809", "label -9223372036854775809 is outside int64"),
    ],
)
def test_read_messages_outside_int64(tmp_path, row, message):
    """A parent index of 2**62 or more, or a label outside int64, names its
    line in the reader and in the row-by-row oracle alike."""
    spec = make_spec(parent=(4, 4, 4), cell=(1, 1, 1))
    text = HEADER + "2,2,2,4,4,4,0\n" + row + "\n"
    want = (ValidationError, f"m.csv:3: {message}")
    assert _read_error(tmp_path, text, spec) == want
    with pytest.raises(ValidationError) as info:
        read_model_rows(tmp_path / "m.csv", spec)
    assert (type(info.value), str(info.value).replace(str(tmp_path / "m.csv"), "m.csv")) == want


def test_parent_index_limit():
    spec = make_spec(parent=(1, 1, 1), cell=(1, 1, 1))
    assert parent_index_of(spec, (2.0**62 - 1024, 0, 0)) == (2**62 - 1024, 0, 0)
    with pytest.raises(ValidationError) as info:
        parent_index_of(spec, (-(2.0**62), 0, 0))
    assert str(info.value) == "point: parent index -4.611686018427388e+18 is out of range"


def test_read_messages_validate(tmp_path):
    text = HEADER + "1,1,1,2,2,2,0\n5,5,5,2,2,2,0\n2,2,2,4,4,4,0\n"
    assert _read_error(tmp_path, text) == (
        ValidationError,
        "block 2 overlaps another block in parent (0, 0, 0)",
    )


def _validate_error(blocks, spec=None):
    with pytest.raises(ValidationError) as info:
        BlockModel(spec or make_spec(parent=(4, 4, 4), cell=(1, 1, 1)), blocks).validate()
    return type(info.value), str(info.value)


def test_validate_messages():
    p = (0, -1, 2)
    whole = Block(p, (0, 0, 0), (4, 4, 4), 1)
    other = Block((1, -1, 2), (0, 0, 0), (4, 4, 4), 1)
    late = Block(p, (3, 3, 3), (1, 1, 1), 2)
    assert _validate_error([other, whole, late, other]) == (
        ValidationError,
        "block 2 overlaps another block in parent (0, -1, 2)",
    )
    assert _validate_error([late, Block(p, (3, 0, 0), (2, 1, 1), 0)]) == (
        MisalignedBlock,
        "block 1 leaves its parent (0, -1, 2)",
    )
    assert _validate_error([Block(p, (-1, 0, 0), (1, 1, 1), 0)]) == (
        MisalignedBlock,
        "block 0 leaves its parent (0, -1, 2)",
    )
    assert _validate_error([late, Block(p, (0, 0, 0), (1, 0, 1), 0)]) == (
        ValidationError,
        "block 1 has empty extent",
    )
    # within one block the axes go in order, and on each axis an empty
    # extent comes before leaving the parent
    assert _validate_error([Block(p, (4, 0, 0), (1, 0, 1), 0)])[1] == (
        "block 0 leaves its parent (0, -1, 2)"
    )
    assert _validate_error([Block(p, (4, 0, 0), (0, 1, 1), 0)])[1] == "block 0 has empty extent"
    # the smallest faulty ordinal wins, whatever its fault
    assert _validate_error([whole, late, Block(p, (0, 0, 0), (0, 1, 1), 0)])[1] == (
        "block 1 overlaps another block in parent (0, -1, 2)"
    )
    assert _validate_error([late, Block(p, (0, 0, 0), (0, 1, 1), 0), whole])[1] == (
        "block 1 has empty extent"
    )


def test_paint_parent_message():
    spec = make_spec(parent=(4, 4, 4), cell=(1, 1, 1))
    a = Block((2, 0, -3), (0, 0, 0), (2, 2, 2), 1)
    with pytest.raises(ValidationError) as info:
        paint_parent(spec, [a, Block((2, 0, -3), (1, 1, 1), (1, 1, 1), 2)])
    assert str(info.value) == "overlapping blocks in parent (2, 0, -3)"


# ---------------------------------------------------------------------------
# the bulk reader and the painted validate against the row-by-row oracles
# ---------------------------------------------------------------------------

MIN_DIMS = (0.1, 2.5, 1.0, 0.3, 0.25, 7.0)
ORIGINS = (0.0, 0.37, 1e6, -1e6, 1e6 + 0.1, -1e6 - 2.5)
# in cells: inside and outside INGEST_SNAP, and far off the grid
CELL_JITTER = (0.7e-6, -0.9e-6, 1.1e-6, -2e-6, 0.3)
# in parents, scaled by max(1, |parent index|): inside and outside PARENT_SNAP
PARENT_JITTER = (0.0, 0.5e-9, -0.9e-9, 1.1e-9, -3e-9)
BAD_ROWS = (
    "1,2,3",
    "1,2,3,4,5,6,7,8",
    "1,x,3,1,1,1,0",
    "1,2,3,1,1,1,1.5",
    "nan,1,1,1,1,1,0",
    "1,1,1,inf,1,1,0",
    "-1e200,1,1,1,1,1,0",
    "1,1,1,1,1,1,99999999999999999999999",
)


def _outcome(read):
    try:
        return [(b.parent, b.cell_min, b.cell_dims, b.label) for b in read().blocks]
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


@st.composite
def lattice_csvs(draw):
    """A random lattice and the text of a model CSV on it: whole parents
    tiled by slabs, shuffled, then a few rows jittered, duplicated, added
    across a parent boundary or replaced by broken ones."""
    md = [draw(st.sampled_from(MIN_DIMS)) for _ in range(3)]
    k = [draw(st.integers(1, 4)) for _ in range(3)]
    origin = [draw(st.sampled_from(ORIGINS)) for _ in range(3)]
    spec = LatticeSpec(origin, [ki * d for ki, d in zip(k, md)], md)
    index = st.integers(-3, 2) | st.sampled_from([-40000, 12345])
    parents = draw(st.lists(st.tuples(index, index, index), min_size=1, max_size=3, unique=True))
    blocks = []
    for p in parents:
        axis = draw(st.integers(0, 2))
        cuts = draw(st.lists(st.integers(1, k[axis] - 1), unique=True)) if k[axis] > 1 else []
        edges = [0, *sorted(cuts), k[axis]]
        for lo, hi in zip(edges, edges[1:]):
            n, s = [0, 0, 0], list(k)
            n[axis], s[axis] = lo, hi - lo
            blocks.append([p, n, s, draw(st.integers(-2, 5))])
    blocks = draw(st.permutations(blocks))

    def floats(p, n, s):
        base = [spec.origin[a] + p[a] * spec.parent_dims[a] for a in range(3)]
        centroid = [base[a] + (n[a] + s[a] * 0.5) * md[a] for a in range(3)]
        return centroid, [s[a] * md[a] for a in range(3)]

    rows = [(*floats(p, n, s), label) for p, n, s, label in blocks]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["jitter", "dims", "dup", "long", "straddle", "bad"]))
        j = draw(st.integers(0, len(blocks) - 1))  # the block a new row is made from
        p, n, s, _ = blocks[j]
        a = draw(st.integers(0, 2))
        if kind == "long":  # centred inside the parent, reaching past its far face
            n, s = list(n), list(s)
            n[a], s[a] = k[a] - 2, 3
        centroid, dims = floats(p, n, s)
        if kind == "jitter":
            jitter = draw(st.sampled_from(CELL_JITTER)) * md[a]
            (centroid if draw(st.booleans()) else dims)[a] += jitter
        elif kind == "dims":
            dims[a] = draw(st.sampled_from([0.0, -md[a], 0.4e-6 * md[a]]))
        elif kind == "straddle":  # a two-cell block centred on a parent boundary
            jitter = draw(st.sampled_from(PARENT_JITTER)) * max(1, abs(p[a]))
            centroid[a] = spec.origin[a] + (p[a] + jitter) * spec.parent_dims[a]
            dims[a] = 2 * md[a]
        row = draw(st.sampled_from(BAD_ROWS)) if kind == "bad" else (centroid, dims, 0)
        rows.insert(draw(st.integers(0, len(rows))), row)
    lines = [draw(st.sampled_from(["x,y,z,dx,dy,dz,label", " X, Y,Z,dx,DY,dz,Label "]))]
    for row in rows:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "# a comment", "  # indented, with, commas"])))
        if isinstance(row, str):
            lines.append(row)
        else:
            centroid, dims, label = row
            lines.append(",".join(repr(float(v)) for v in (*centroid, *dims)) + f",{label}")
    return spec, "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bulk") / "model.csv"


@settings(max_examples=300, deadline=None)
@given(case=lattice_csvs())
def test_bulk_reader_matches_row_by_row_oracle(model_path, case):
    spec, text = case
    model_path.write_text(text)
    assert _outcome(lambda: read_model_csv(model_path, spec)) == _outcome(
        lambda: BlockModel(spec, [Block(*row) for row in read_model_rows(model_path, spec)])
    )


@st.composite
def block_lists(draw):
    k = [draw(st.integers(1, 4)) for _ in range(3)]
    spec = LatticeSpec((0, 0, 0), k, (1, 1, 1))
    parent = st.sampled_from([(0, 0, 0), (1, 0, 0), (0, -1, 2), (-7, 3, 0)])
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        n = tuple(draw(st.integers(-1, c)) for c in k)
        s = tuple(draw(st.integers(0, c + 1)) for c in k)
        rows.append((draw(parent), n, s, draw(st.integers(0, 3))))
    return spec, rows


@settings(max_examples=400, deadline=None)
@given(case=block_lists())
def test_painted_validate_matches_block_by_block_oracle(case):
    spec, rows = case
    model = BlockModel(spec, [Block(*row) for row in rows])

    def outcome(check):
        try:
            check()
        except ValidationError as exc:
            return type(exc), str(exc)

    assert outcome(model.validate) == outcome(lambda: validate_rows(spec, rows))
    groups: dict = {}
    for ordinal, row in enumerate(rows):
        groups.setdefault(row[0], []).append(ordinal)
    assert model.by_parent() == groups
    key = lambda r: (r[0][2], r[0][1], r[0][0], raster_index(r[1], spec.cell_counts))
    got = [(b.parent, b.cell_min, b.cell_dims, b.label) for b in model.canonical().blocks]
    assert got == sorted(rows, key=key)


def test_validate_paints_no_more_than_two_parents_of_overlap():
    """Two thousand copies of one whole 32^3 parent: the overlap is reported
    for block 1, and the paint stops there instead of expanding 65 M cells."""
    spec = LatticeSpec((0, 0, 0), (32, 32, 32), (1, 1, 1))
    model = BlockModel(spec, [Block((0, 0, 0), (0, 0, 0), (32, 32, 32), 1)] * 2000)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as info:
            model.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "block 1 overlaps another block in parent (0, 0, 0)"
    # a naive paint holds 8 bytes for each of 2,000 x 32,768 cells: 524 MB
    assert peak < 20 * 2**20
