from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import paint_parent, parent_runs, read_model_rows, validate_rows, write_model_chunks
from reblock import lattice
from reblock.errors import MisalignedBlock, ValidationError
from reblock.geometry import vec3
from reblock.lattice import (
    Block,
    BlockModel,
    LatticeSpec,
    cell_lut,
    cell_runs,
    expand_cells,
    raster_index,
    read_model_csv,
    runs_disjoint,
    unique_rows,
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


@pytest.mark.parametrize(
    "field, value",
    [("origin", (math.nan, 0, 0)), ("parent_dims", (4, 4, math.inf)), ("min_dims", (1, -math.inf, 1))],
)
def test_spec_rejects_non_finite_fields(field, value):
    fields = {"origin": (0, 0, 0), "parent_dims": (4, 4, 4), "min_dims": (1, 1, 1), field: value}
    want = tuple(float(v) for v in value)
    with pytest.raises(ValidationError, match=re.escape(f"lattice {field} must be finite, got {want}")):
        LatticeSpec(**fields)


def test_parent_geometry():
    """Parent (1, 0, -1) spans (11, 2, -7) to (21, 12, 3)."""
    spec = make_spec(origin=(1, 2, 3))
    whole = Block(parent=(1, 0, -1), cell_min=(0, 0, 0), cell_dims=(5, 5, 5))
    assert BlockModel(spec, [whole]).centroids().tolist() == [[16, 7, -2]]


@given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 6))
def test_raster_subscript_round_trip(nx, ny, nz):
    counts = (5, 6, 7)
    assert np.unravel_index(raster_index((nx, ny, nz), counts), counts[::-1]) == (nz, ny, nx)


def test_raster_order_is_x_fastest():
    counts = (3, 2, 2)
    seen = [raster_index(n, counts) for n in [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]]
    assert seen == [0, 1, 2, 3]


def test_block_geometry():
    spec = make_spec()
    b = Block(parent=(1, 0, 0), cell_min=(1, 2, 3), cell_dims=(2, 1, 1), label=9)
    # the min corner (12, 4, 6) plus half the (4, 2, 2) extent
    assert BlockModel(spec, [b]).centroids().tolist() == [[14, 5, 7]]


def test_expand_cells_enumerates_whole_prism():
    counts = make_spec().cell_counts
    ordinal, cell = expand_cells(np.array([[0, 0, 0]]), np.array([[2, 2, 1]]), counts)
    assert ordinal.tolist() == [0] * 4
    assert cell.tolist() == [raster_index(n, counts) for n in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]]


def test_cell_lut_matches_block_centroids():
    spec = make_spec()
    lut = cell_lut(spec)
    base = np.asarray(spec.origin)
    for i in (0, 7, 63, 124):
        n = tuple(int(v) for v in np.unravel_index(i, spec.cell_counts[::-1])[::-1])
        b = Block(parent=(0, 0, 0), cell_min=n, cell_dims=(1, 1, 1))
        assert np.allclose(lut[i] + base, BlockModel(spec, [b]).centroids()[0])


def test_paint_parent_and_overlap_guard():
    """The test oracles' one-parent painter, which the restructure and CLI
    tests read output grids with."""
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


def test_unique_rows_match_numpy():
    rng = np.random.default_rng(3)
    for n, c in [(0, 3), (1, 1), (40, 3), (300, 6)]:
        table = rng.integers(-3, 3, size=(n, c)) * rng.choice([1, 2**61], size=(n, c))
        rows, inverse = unique_rows(table)
        want_rows, want_inverse = np.unique(table, axis=0, return_inverse=True)
        assert rows.tolist() == want_rows.tolist()
        assert inverse.tolist() == want_inverse.ravel().tolist()


def test_model_validate_catches_escapes_and_overlaps():
    spec = make_spec(parent=(4, 4, 4), cell=(1, 1, 1))
    escape = Block(parent=(0, 0, 0), cell_min=(3, 0, 0), cell_dims=(2, 1, 1))
    with pytest.raises(MisalignedBlock):
        BlockModel(spec, [escape]).validate()
    a = Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(2, 2, 2))
    b = Block(parent=(0, 0, 0), cell_min=(1, 1, 1), cell_dims=(1, 1, 1))
    with pytest.raises(ValidationError, match="overlaps"):
        BlockModel(spec, [a, b]).validate()


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


def _writer_model(spec, n, seed, labels):
    """``n`` blocks inside random parents of ``spec``; the writer does not
    ask that they be disjoint."""
    rng = np.random.default_rng(seed)
    counts = np.asarray(spec.cell_counts)
    lo = rng.integers(0, counts, size=(n, 3))
    dims = rng.integers(1, counts - lo + 1)
    return BlockModel.from_columns(spec, rng.integers(-3, 4, size=(n, 3)), lo, dims, labels)


@st.composite
def writer_models(draw):
    """Small models on non-dyadic and dyadic lattices, near the origin or
    at +-1e6, with labels at the int64 bounds among others."""
    min_dims = draw(st.sampled_from([(0.1, 0.3, 0.7), (2, 2, 1), (1 / 3, 0.7, 0.05), (6.25, 6.25, 2.5)]))
    counts = draw(st.tuples(*[st.integers(1, 5)] * 3))
    origin = draw(st.sampled_from([(0, 0, 0), (1e6, -1e6, 1e6), (-1e6, 1e6, -1e6), (0.1, -0.3, 2.7)]))
    spec = LatticeSpec(origin, [k * m for k, m in zip(counts, min_dims)], min_dims)
    label = st.sampled_from([-(2**63), 2**63 - 1, 0, -1]) | st.integers(-(2**63), 2**63 - 1)
    labels = draw(st.lists(label, max_size=40))
    return _writer_model(spec, len(labels), draw(st.integers(0, 2**32 - 1)), labels)


@settings(max_examples=100, deadline=None)
@given(model=writer_models())
@example(model=_writer_model(  # two chunks
    LatticeSpec((1e6, -1e6, 1e6), (0.4, 1.2, 2.8), (0.1, 0.3, 0.7)), 5000, 1,
    np.random.default_rng(2).integers(-(2**63), 2**63 - 1, size=5000, endpoint=True),
))
def test_write_matches_the_chunked_repr_writer(model, tmp_path_factory):
    """``write_model_csv`` takes each distinct float's ``repr`` once, and
    writes the same bytes as a ``%r`` format of every float."""
    folder = tmp_path_factory.mktemp("writer")
    assert write_model_csv(folder / "got.csv", model) == len(model)
    assert write_model_chunks(folder / "want.csv", model) == len(model)
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()


def test_model_columns_are_read_only_and_a_model_is_validated_once(monkeypatch):
    """The model's columns refuse writes, while the arrays it was built
    from stay writable and are not copied; a model that passed
    ``validate`` is not checked again."""
    spec = make_spec()
    columns = [np.zeros((2, 3), dtype=np.int64), np.array([[0, 0, 0], [1, 0, 0]]),
               np.ones((2, 3), dtype=np.int64), np.array([1, 2])]
    model = BlockModel.from_columns(spec, *columns)
    built = BlockModel(spec, model.blocks)
    names = ("parent", "cell_min", "cell_dims", "label")
    for array, name in zip(columns, names):
        assert array.flags.writeable and np.shares_memory(array, getattr(model, name))
        for view in (getattr(model, name), getattr(built, name)):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 7
    calls = []
    sort_runs = lattice.runs_disjoint
    monkeypatch.setattr(lattice, "runs_disjoint", lambda *args: calls.append(1) or sort_runs(*args))
    model.validate()
    model.validate()
    model.take([1, 0]).validate()
    assert len(calls) == 2


def test_parent_runs_preserve_input_order():
    spec = make_spec(parent=(4, 4, 4), cell=(1, 1, 1))
    blocks = [
        Block(parent=(0, 0, 0), cell_min=(3, 0, 0), cell_dims=(1, 1, 1), label=0),
        Block(parent=(1, 1, 1), cell_min=(0, 0, 0), cell_dims=(1, 1, 1), label=1),
        Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(1, 1, 1), label=2),
        Block(parent=(-1, 1, 1), cell_min=(0, 0, 0), cell_dims=(1, 1, 1), label=3),
    ]
    model = BlockModel(spec, blocks)
    assert grouping(model) == [((0, 0, 0), [0, 2]), ((-1, 1, 1), [3]), ((1, 1, 1), [1])]
    assert model.parent_of().tolist() == [0, 2, 0, 1]


def grouping(model) -> list[tuple]:
    """``BlockModel.parent_groups`` as ``(parent, [ordinal, ...])`` pairs,
    group by group."""
    order, parents, offsets = model.parent_groups
    return [(tuple(p), order[a:b].tolist()) for p, a, b in zip(parents.tolist(), offsets[:-1], offsets[1:])]


# a few small indices, so that parents repeat, and some of magnitude 2**40
PARENT_INDEX = st.one_of(st.integers(-2, 2), st.sampled_from([-(2**40), -(2**40) + 1, 2**40 - 1, 2**40]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(PARENT_INDEX, PARENT_INDEX, PARENT_INDEX), max_size=24))
def test_parent_groups_match_dict_grouping(parents):
    """The grouping by parent is a dict grouping's, in raster order: on
    negative parent indices and on indices of magnitude 2**40.  It is
    built once per model, read-only."""
    n = len(parents)
    spec = LatticeSpec((0, 0, 0), (1, 1, 1), (1, 1, 1))
    model = BlockModel.from_columns(spec, parents, np.zeros((n, 3)), np.ones((n, 3)), np.zeros(n))
    runs = parent_runs(model)
    assert grouping(model) == runs
    assert model.parent_of().tolist() == [g for o in range(n) for g, (_, ords) in enumerate(runs) if o in ords]
    assert model.parent_groups is model.parent_groups
    assert not any(column.flags.writeable for column in model.parent_groups)


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


def _read_both(tmp_path, text, spec=None):
    """The blocks a model CSV reads as, or its error's class and message,
    from the reader and the row-by-row oracle alike."""
    path, spec = tmp_path / "m.csv", spec or make_spec()
    path.write_text(text)
    got = _outcome(lambda: read_model_csv(path, spec))
    oracle = lambda: BlockModel(spec, [Block(*r) for r in read_model_rows(path, spec)])
    assert got == _outcome(oracle)
    return got if isinstance(got, list) else (got[0], got[1].replace(str(path), "m.csv"))


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
        ("3.7,3,1,2,2,2,0", MisalignedBlock, "block corner 1.35 is off-grid"),
        ("10,1,1,4,2,2,0", MisalignedBlock, "block straddles a parent boundary on axis 0"),
        ("1,1,10,2,2,4,0", MisalignedBlock, "block straddles a parent boundary on axis 2"),
        # two faults in one group: the lower axis reports first
        ("1,1,1,3,-2,2,0", MisalignedBlock, "block size 1.5 is off-grid"),
        ("10,1.5,1,4,2,2,0", MisalignedBlock, "block straddles a parent boundary on axis 0"),
    ],
)
def test_read_messages_snap(tmp_path, row, kind, message):
    # two comments and a blank line sit before the bad row, on line 6
    text = "# model\n" + HEADER + "\n# rows\n1,1,1,2,2,2,0\n" + row + "\n"
    assert _read_both(tmp_path, text) == (kind, f"m.csv:6: {message}")


def test_read_messages_first_faulty_row_wins(tmp_path):
    # a row that fails to snap comes before one that fails to parse
    text = HEADER + "1,1,1,2,2,2,0\n1,1,1,2,2,3,0\n1,2,3\n"
    assert _read_error(tmp_path, text) == (MisalignedBlock, "m.csv:3: block size 1.5 is off-grid")
    text = HEADER + "1,1,1,2,2,2,0\n1,2,3\n1,1,1,2,2,3,0\n"
    assert _read_error(tmp_path, text) == (ValidationError, "m.csv:3: expected 7 fields, got 3")


def test_read_finds_the_first_bad_line_past_the_first_block(tmp_path):
    """In a file longer than one block of the reread, a quote left open ends
    with its line, the first bad line is named, and a snap fault in an
    earlier row still wins."""
    rows = [f"{10 * i + 1},1,1,2,2,2,{i}" for i in range(3000)]
    rows[1500] = '15001,1,1,2,2,2,"1500'
    assert len(_read_both(tmp_path, HEADER + "\n".join(rows) + "\n")) == 3000
    rows[2500] += ",9"
    assert _read_both(tmp_path, HEADER + "\n".join(rows) + "\n") == (
        ValidationError,
        "m.csv:2502: expected 7 fields, got 8",
    )
    rows[2100] = "21001,1,1,2,2,3,0"
    assert _read_both(tmp_path, HEADER + "\n".join(rows) + "\n") == (
        MisalignedBlock,
        "m.csv:2102: block size 1.5 is off-grid",
    )


@pytest.mark.parametrize(
    "text, want",
    [
        # a byte-order mark, CRLF, padded and quoted fields, no last newline
        (
            '\ufeffx,y,z,dx,dy,dz,"label"\r\n"1.0" ,1, 1 ,2,2,2, 7\r\n"3",1,1,2,2,2,"-0"',
            [((0, 0, 0), (0, 0, 0), (1, 1, 1), 7), ((0, 0, 0), (1, 0, 0), (1, 1, 1), 0)],
        ),
        (HEADER + "1,1,1,2,2,2,007\n", [((0, 0, 0), (0, 0, 0), (1, 1, 1), 7)]),
        # float() and int() take these, NumPy's C reader does not
        (HEADER + "1_0,1,1,2,2,2,0\n", "2: could not convert string to float: '1_0'"),
        (HEADER + "1,1,1,2,2,2,1_0\n", "2: invalid literal for int() with base 10: '1_0'"),
        (HEADER + "1,1,\u0661,2,2,2,0\n", "2: could not convert string to float: '\u0661'"),
        (HEADER + "1,1,1,2,2,2,\u0662\n", "2: invalid literal for int() with base 10: '\u0662'"),
        # a quote left open ends with its line: the next line stays a row
        (
            HEADER + '1,1,1,2,2,2,"4\n3,1,1,2,2,2,x\n',
            "3: invalid literal for int() with base 10: 'x'",
        ),
        (HEADER + '""\n', "2: expected 7 fields, got 1"),
    ],
    ids=["bom-crlf-quotes", "leading-zeros", "float-underscore", "int-underscore",
         "float-arabic-indic", "int-arabic-indic", "open-quote", "empty-quotes"],
)
def test_read_spellings(tmp_path, text, want):
    if isinstance(want, str):
        want = (ValidationError, f"m.csv:{want}")
    assert _read_both(tmp_path, text) == want


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
    assert _read_both(tmp_path, text, make_spec(cell=(0.25, 1, 1))) == want


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
    assert _read_both(tmp_path, text, spec) == want


def test_read_messages_non_finite_corner(tmp_path):
    """A corner past the float range: the block's low face overflows, or,
    for a centroid at the float limit, its parent's low face does too."""
    spec = make_spec(parent=(1e300, 1e300, 1e300), cell=(1e299, 1e299, 1e299))
    for row, value in [
        ("-1.7e308,5e299,5e299,1e308,1e299,1e299,0", "-inf"),
        ("-1.7976931348623157e308,5e299,5e299,1e299,1e299,1e299,0", "nan"),
    ]:
        assert _read_both(tmp_path, HEADER + row + "\n", spec) == (
            ValidationError,
            f"m.csv:2: non-finite block corner {value}",
        )


SHIFTED = make_spec(origin=(-5, -5, -5))  # parent 0 spans [-5, 5) on each axis
UNIT = make_spec(parent=(1, 1, 1), cell=(1, 1, 1))


@pytest.mark.parametrize(
    "spec, row, want",
    [
        (SHIFTED, "0,0,0,2,2,2,1", [((0, 0, 0), (2, 2, 2), (1, 1, 1), 1)]),
        # a centroid on parent 0's lower face lies in parent 0 (parent -1: corner 4.5)
        (SHIFTED, "-5,-5,-5,2,2,2,0", (MisalignedBlock, "block corner -0.5 is off-grid")),
        # just below that face: parent -1 (parent 0: corner -0.55)
        (SHIFTED, "-5.1,0,0,2,2,2,0", (MisalignedBlock, "block corner 4.45 is off-grid")),
        # float noise just below a boundary snaps onto it: parent 1 (parent 0: corner 4.5)
        (
            SHIFTED,
            "4.999999999999,0,0,2,2,2,0",
            (MisalignedBlock, "block corner -0.5000000000005 is off-grid"),
        ),
        # noise within INGEST_SNAP cells on a corner snaps onto the grid
        (make_spec(), "3.00000001,3,1,2,2,2,5", [((0, 0, 0), (1, 1, 0), (1, 1, 1), 5)]),
        # parent indices are int64 with room for the arithmetic on them
        (
            UNIT,
            "4.611686018427387e+18,0.5,0.5,1,1,1,0",
            [((2**62 - 1024, 0, 0), (0, 0, 0), (1, 1, 1), 0)],
        ),
        (
            UNIT,
            "-4.611686018427388e+18,0.5,0.5,1,1,1,0",
            (ValidationError, "parent index -4.611686018427388e+18 is out of range"),
        ),
    ],
    ids=["inside", "lower-face", "floor", "boundary-noise", "cell-noise", "int64-in", "int64-out"],
)
def test_read_snaps_onto_parents_and_cells(tmp_path, spec, row, want):
    if isinstance(want, tuple):
        want = (want[0], f"m.csv:2: {want[1]}")
    assert _read_both(tmp_path, HEADER + row + "\n", spec) == want


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
    "1,1,1,1,1,1,9223372036854775808",
    "1,1,1,1,1,1,-9223372036854775809",
    # float() and int() take digit groups and non-ASCII digits; the reader does not
    "1_0,1,1,1,1,1,0",
    "1,1,1,1,1,1,1_0",
    "\u0661,1,1,1,1,1,0",
    "1,1,1,1,1,1,\u0661",
    # quotes: a quoted comma, a quote after a space (a plain character), and
    # quotes left open, which end with their line
    '"1,1",1,1,1,1,1,0',
    ' "1",1,1,1,1,1,0',
    '"1,1,1,1,1,1,0',
    '1,1,1,1,1,1,"0',
)
# lines the reader skips: blank, or a comment
SKIPPED = ("", " \t ", "# a comment", "  # indented, with, commas")
# how a row writes each field: bare, padded, double-quoted
SPELLINGS = ("{}", " {} ", '"{}"', '"{}" ', "\t{}\u3000")
LABELS = (-2, -1, 0, 1, 2, 5, 2**63 - 1, -(2**63))


def _outcome(read):
    try:
        return [(b.parent, b.cell_min, b.cell_dims, b.label) for b in read().blocks]
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


@st.composite
def lattice_csvs(draw):
    """A random lattice and the text of a model CSV on it: whole parents
    tiled by slabs, shuffled, then a few rows jittered, duplicated, added
    across a parent boundary or replaced by broken ones.  Fields may be
    padded or quoted; lines end in LF or CRLF, the last maybe in neither;
    a byte-order mark may lead."""
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
            blocks.append([p, n, s, draw(st.sampled_from(LABELS))])
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
            lines.append(draw(st.sampled_from(SKIPPED)))
        if isinstance(row, str):
            lines.append(row)
        else:
            centroid, dims, label = row
            spell = draw(st.sampled_from(SPELLINGS)).format
            fields = [repr(float(v)) for v in (*centroid, *dims)] + [str(label)]
            lines.append(",".join(spell(f) for f in fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return spec, bom + newline.join(lines) + draw(st.sampled_from([newline, ""]))


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bulk") / "model.csv"


@settings(max_examples=300, deadline=None)
@given(case=lattice_csvs())
# a byte-order mark, CRLF, padded and quoted fields, no newline at the end
@example(case=(
    make_spec(), '\ufeff x , y,z,dx,"dy",dz,label\r\n"1", 1 ,1,2,2,2, 3 \r\n1,1,3,2,2,2,"4"'
))
@example(case=(make_spec(), HEADER + "1,1,1,2,2,2,0\n1_0,1,1,2,2,2,0\n"))  # digit groups
@example(case=(make_spec(), HEADER + "1,1,1,2,2,2,0\n1,1,3,2,2,2,1_0\n"))
@example(case=(make_spec(), HEADER + "\u0661,1,1,2,2,2,0\n"))  # non-ASCII digits
@example(case=(make_spec(), HEADER + "1,1,1,2,2,2,\u0661\n"))
@example(case=(make_spec(), HEADER + f"1,1,1,2,2,2,{2**63 - 1}\n1,1,3,2,2,2,{-(2**63)}"))
@example(case=(make_spec(), HEADER + f"1,1,1,2,2,2,{2**63}\n"))  # past int64
@example(case=(make_spec(), HEADER + f"1,1,1,2,2,2,{-(2**63) - 1}\n"))
def test_bulk_reader_matches_row_by_row_oracle(model_path, case):
    spec, text = case
    model_path.write_text(text, encoding="utf-8")
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
    assert grouping(model) == parent_runs(model)
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


def test_cell_runs_list_each_box_row_by_row_and_abutting_runs_are_disjoint():
    counts = (4, 3, 2)
    lo, dims = np.array([[1, 1, 0], [0, 0, 1]]), np.array([[2, 2, 2], [4, 1, 1]])
    ordinal, first, length = cell_runs(lo, dims, counts)
    assert ordinal.tolist() == [0, 0, 0, 0, 1]
    assert first.tolist() == [5, 9, 17, 21, 12]
    assert length.tolist() == [2, 2, 2, 2, 4]
    assert runs_disjoint(first, length)
    assert runs_disjoint(np.array([2, 0]), np.array([2, 2]))  # the first ends where the second starts
    assert not runs_disjoint(np.array([1, 0]), np.array([2, 2]))  # one shared cell
    ordinal, cell = expand_cells(lo, dims, counts)
    cells = [
        (x, y, z)
        for (x0, y0, z0), (sx, sy, sz) in zip(lo.tolist(), dims.tolist())
        for z in range(z0, z0 + sz)
        for y in range(y0, y0 + sy)
        for x in range(x0, x0 + sx)
    ]
    assert cell.tolist() == [raster_index(c, counts) for c in cells]
    assert ordinal.tolist() == [0] * 8 + [1] * 4


@st.composite
def perturbed_tilings(draw):
    """Guillotine tilings of a few parents of an anisotropic cell grid, their
    blocks shuffled together, and at most one block perturbed: shifted by
    one cell, grown by one cell, or duplicated."""
    k = [draw(st.integers(1, 5)) for _ in range(3)]
    spec = LatticeSpec((0, 0, 0), k, (1, 1, 1))
    index = st.tuples(*[st.integers(-3, 2)] * 3)
    rows = []
    for parent in draw(st.lists(index, min_size=1, max_size=4, unique=True)):
        boxes = [([0, 0, 0], list(k))]
        for _ in range(draw(st.integers(0, 7))):
            at, axis = draw(st.integers(0, len(boxes) - 1)), draw(st.integers(0, 2))
            lo, dims = boxes[at]
            if dims[axis] > 1:
                cut = draw(st.integers(1, dims[axis] - 1))
                upper = (lo.copy(), dims.copy())
                upper[0][axis] += cut
                upper[1][axis] -= cut
                dims[axis] = cut
                boxes.append(upper)
        rows += [[parent, lo, dims, draw(st.integers(0, 2))] for lo, dims in boxes]
    rows = draw(st.permutations(rows))
    at, axis = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
    parent, lo, dims, label = rows[at]
    kind = draw(st.sampled_from(["none", "shift", "grow", "duplicate"]))
    if kind == "shift":
        lo = lo.copy()
        lo[axis] += draw(st.sampled_from([-1, 1]))
    elif kind == "grow":
        lo, dims = lo.copy(), dims.copy()
        dims[axis] += 1
        lo[axis] -= draw(st.integers(0, 1))
    rows[at] = [parent, lo, dims, label]
    if kind == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), rows[at])
    return spec, [(p, tuple(lo), tuple(dims), label) for p, lo, dims, label in rows]


@settings(max_examples=400, deadline=None)
@given(case=perturbed_tilings())
@example(case=(  # two x-runs that abut: the first ends where the second starts
    LatticeSpec((0, 0, 0), (4, 1, 1), (1, 1, 1)),
    [((0, -1, 0), (2, 0, 0), (2, 1, 1), 0), ((0, -1, 0), (0, 0, 0), (2, 1, 1), 0)],
))
@example(case=(  # two x-runs that share one cell
    LatticeSpec((0, 0, 0), (4, 1, 1), (1, 1, 1)),
    [((0, -1, 0), (1, 0, 0), (3, 1, 1), 0), ((0, -1, 0), (0, 0, 0), (2, 1, 1), 0)],
))
def test_run_validate_matches_block_by_block_oracle_on_tilings(case):
    spec, rows = case
    model = BlockModel(spec, [Block(*row) for row in rows])

    def outcome(check):
        try:
            check()
        except ValidationError as exc:
            return type(exc), str(exc)

    assert outcome(model.validate) == outcome(lambda: validate_rows(spec, rows))


def test_validate_paints_no_cell_of_a_valid_model():
    """Two thousand distinct whole 32^3 parents pass from their x-runs: a
    paint of their 65 M cells would hold hundreds of megabytes."""
    spec = LatticeSpec((0, 0, 0), (32, 32, 32), (1, 1, 1))
    parent = np.indices((20, 10, 10)).reshape(3, -1).T[:, ::-1]
    corner = np.zeros_like(parent)
    model = BlockModel.from_columns(spec, parent, corner, corner + 32, np.ones(len(parent)))
    tracemalloc.start()
    try:
        model.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
