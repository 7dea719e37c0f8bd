from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reblock.errors import InconsistentSidedness, MissingSidedness, ValidationError
from reblock.geometry import vec3
from reblock.tagging import (
    ABOVE,
    ACROSS,
    BELOW,
    TaggingInstruction,
    apply_tagging,
    parse_instruction_file,
)

from oracles import apply_tagging_by_block


def instr(above, across, below, forced=False):
    return TaggingInstruction(
        surface_path="s.obj",
        positive_direction=vec3(0, 0, 1),
        label_above=above,
        label_across=across,
        label_below=below,
        forced=forced,
    )


def abstract_labels(rows):
    """``apply_tagging`` labels of sign rows under all-zero instructions,
    one per surface: the layered abstract labels."""
    positions = np.array(rows)
    rules = [instr(0, 0, 0)] * positions.shape[1]
    return apply_tagging(positions, np.ones_like(positions), np.zeros(len(rows)), rules).tolist()


# --- parsing ---------------------------------------------------------------

GOOD_LINE = "surface=top.obj positive=0,0,1 above=1 across=0 below=-1 forced=0\n"


def test_parse_good_file(tmp_path):
    f = tmp_path / "tags.txt"
    f.write_text(
        "# tagging rules\n"
        "\n"
        + GOOD_LINE
        + "surface=/abs/base.obj positive=0,0,2 above=-1 across=7 below=2 forced=1\n"
    )
    rules = parse_instruction_file(f)
    assert len(rules) == 2
    first, second = rules
    assert first.surface_path == str(tmp_path / "top.obj")  # relative to the file
    assert first.positive_direction == vec3(0, 0, 1)
    assert (first.label_above, first.label_across, first.label_below) == (1, 0, -1)
    assert not first.forced
    assert second.surface_path == "/abs/base.obj"
    assert second.positive_direction == vec3(0, 0, 1)  # normalized
    assert second.forced


@pytest.mark.parametrize(
    "line,msg",
    [
        ("surface=a.obj positive=0,0,1 above=1 across=0 below=1", "missing keys: forced"),
        ("surface=a.obj positive=0,0,1 above=1 across=0 below=1 forced=0 junk", "key=value"),
        ("surface=a.obj positive=0,0,1 above=1 across=0 below=1 forced=2", "forced must be 0 or 1"),
        ("surface=a.obj positive=0,0,0 above=1 across=0 below=1 forced=0", "non-zero and finite"),
        ("surface=a.obj positive=nan,0,1 above=1 across=0 below=1 forced=0", "non-zero and finite"),
        ("surface=a.obj positive=0,inf,1 above=1 across=0 below=1 forced=0", "non-zero and finite"),
        ("surface=a.obj positive=0,0 above=1 across=0 below=1 forced=0", "ux,uy,uz"),
        ("surface=a.obj positive=0,0,1 above=x across=0 below=1 forced=0", "integers"),
        (
            "surface=a.obj positive=0,0,1 above=99999999999999999999999 across=0 below=1 forced=0",
            "labels must be integers within int64",
        ),
        (
            "surface=a.obj positive=0,0,1 above=1 across=0 below=-9223372036854775809 forced=0",
            "labels must be integers within int64",
        ),
        ("surface=a.obj positive=0,0,1 above=1 across=0 below=1 forced=0 above=2", "duplicate"),
        ("surface=a.obj positive=0,0,1 above=1 across=0 below=1 forced=0 tilt=3", "unknown key"),
    ],
)
def test_parse_errors_cite_line(tmp_path, line, msg):
    f = tmp_path / "bad.txt"
    f.write_text("# leading comment\n" + line + "\n")
    with pytest.raises(ValidationError, match=msg) as err:
        parse_instruction_file(f)
    assert ":2:" in str(err.value)  # the offending line number


@pytest.mark.parametrize(
    "positive, unit",
    [("1e200,1e200,0", vec3(1 / 2**0.5, 1 / 2**0.5, 0)), ("1e-200,0,0", vec3(1, 0, 0))],
)
def test_parse_direction_at_the_float_limits(tmp_path, positive, unit):
    """A direction whose squared norm overflows or underflows is still valid."""
    f = tmp_path / "tags.txt"
    f.write_text(GOOD_LINE.replace("positive=0,0,1", f"positive={positive}"))
    assert parse_instruction_file(f)[0].positive_direction == unit


def test_parse_labels_at_the_int64_limits(tmp_path):
    f = tmp_path / "tags.txt"
    line = GOOD_LINE.replace("above=1", f"above={2**63 - 1}")
    f.write_text(line.replace("below=-1", f"below={-(2**63)}"))
    rule = parse_instruction_file(f)[0]
    assert (rule.label_above, rule.label_below) == (2**63 - 1, -(2**63))


def test_parse_rejects_invalid_utf8(tmp_path):
    f = tmp_path / "tags.txt"
    f.write_bytes(b"# r\xc3\xa8gle\n" + GOOD_LINE.encode().replace(b"top", b"t\xe8p"))
    with pytest.raises(ValidationError) as err:
        parse_instruction_file(f)
    assert str(err.value) == f"{f}:2: not valid UTF-8"


def test_parse_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        parse_instruction_file(tmp_path / "none.txt")


# --- abstract labels and affiliation ----------------------------------------

def test_abstract_label_all_nine():
    """A block on side sigma of surface n of a three-surface stack gets
    2(n+1) - sigma.  Side +1 of surface n > 0 is side -1 of surface n-1,
    and both give 2n+1."""
    rows = {}
    for n in (0, 1, 2):
        rows[n, 1] = [-1] * n + [1] * (3 - n)
        rows[n, 0] = [-1] * n + [0] + [1] * (2 - n)
        rows[n, -1] = [-1] * (n + 1) + [1] * (2 - n)
    assert abstract_labels(list(rows.values())) == [2 * (n + 1) - s for n, s in rows]
    assert abstract_labels(list(rows.values())) == [1, 2, 3, 3, 4, 5, 5, 6, 7]


def test_abstract_label_validation():
    """A stray value, such as restructure's unfilled sentinel 2, fails
    naming its block and surface instead of selecting the across label."""
    good = np.array([[ABOVE, BELOW], [ACROSS, ABOVE]])
    rules = [instr(0, 0, 0), instr(0, 0, 0)]
    with pytest.raises(ValidationError) as err:
        apply_tagging(np.array([[ABOVE, BELOW], [ACROSS, 2]]), np.ones_like(good), np.zeros(2), rules)
    assert str(err.value) == "block 1, surface 1: position 2 not in (-1, 0, 1)"
    majority = np.ones_like(good)
    majority[1, 0] = 0
    with pytest.raises(ValidationError) as err:
        apply_tagging(good, majority, np.zeros(2), rules)
    assert str(err.value) == "block 1, surface 0: majority side 0 not in (-1, 1)"
    # a majority that is never consulted must still be a side
    with pytest.raises(ValidationError, match="block 0, surface 0: majority side"):
        apply_tagging(good[:1], np.array([[3, 1]]), np.zeros(1), [instr(1, 2, 3)] * 2)


def test_affiliation_layers_top_down():
    # above everything -> layer 0, side +1; below the first surface only
    # -> between surfaces 0 and 1; below all three -> bottom layer, owned
    # by the last surface
    rows = [[1, 1, 1], [-1, 1, 1], [-1, -1, 1], [-1, -1, -1]]
    assert abstract_labels(rows) == [2 * 1 - 1, 2 * 1 + 1, 2 * 2 + 1, 2 * 3 + 1]


def test_affiliation_boundary_block():
    rows = [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
    assert abstract_labels(rows) == [2 * 1, 2 * 2, 2 * 3]


def test_affiliation_rejects_crossings():
    with pytest.raises(InconsistentSidedness) as err:
        abstract_labels([[1, -1]])
    assert str(err.value) == "sidedness vector (1, -1) is not layered"
    with pytest.raises(InconsistentSidedness) as err:
        abstract_labels([[0, 0]])
    assert str(err.value) == "sidedness vector (0, 0) straddles multiple surfaces"
    with pytest.raises(ValidationError, match="position 2"):
        abstract_labels([[2, 1]])
    # with no surface there is nothing to affiliate with: labels are kept
    assert apply_tagging(np.zeros((2, 0)), np.zeros((2, 0)), np.array([4, 5]), []).tolist() == [4, 5]


def test_layer_label_matches_between_surfaces():
    """A block sandwiched between surfaces k and k+1 gets label 2k+3."""
    rows = [[-1] * (k + 1) + [1] * (3 - k) for k in range(3)]
    assert abstract_labels(rows) == [2 * (k + 1) + 1 for k in range(3)]


def test_layering_is_checked_only_where_a_zero_is_selected():
    """An unlayered row is fine under positive labels or a veto, and the
    first offending block in block order is the one reported."""
    rows = np.array([[ABOVE, BELOW], [BELOW, BELOW], [ACROSS, ACROSS], [ABOVE, BELOW]])
    rules = [instr(0, 4, 0), instr(-1, 0, 6)]
    majority = np.ones_like(rows)
    assert apply_tagging(rows[:1], majority[:1], [9], [instr(1, 2, 3), instr(4, 5, 6)]).tolist() == [6]
    assert apply_tagging(rows[:1], majority[:1], [9], [instr(0, 2, 3), instr(4, 5, -1)]).tolist() == [9]
    with pytest.raises(InconsistentSidedness) as err:
        apply_tagging(rows[1:], majority[1:], np.zeros(3), rules)
    assert str(err.value) == "sidedness vector (0, 0) straddles multiple surfaces"


# --- applying instructions ---------------------------------------------------

def test_positive_labels_assign_in_order():
    positions = np.array([[ABOVE, ABOVE], [BELOW, ABOVE], [BELOW, BELOW]])
    majority = np.ones_like(positions)
    labels = np.array([9, 9, 9])
    out = apply_tagging(
        positions, majority, labels, [instr(10, 11, 12), instr(20, 21, 22)]
    )
    # later instructions overwrite earlier ones
    assert out.tolist() == [20, 20, 22]


def test_negative_selection_vetoes_block():
    positions = np.array([[ABOVE], [BELOW]])
    majority = np.ones_like(positions)
    out = apply_tagging(positions, majority, np.array([7, 8]), [instr(-1, 0, 5)])
    assert out.tolist() == [7, 5]  # above-block keeps its input label


def test_zero_label_requests_abstract():
    # two surfaces, a block between them, across labels irrelevant here
    positions = np.array([[BELOW, ABOVE]])
    majority = np.ones_like(positions)
    out = apply_tagging(
        positions, majority, np.array([0]), [instr(1, 2, 0), instr(0, 2, 9)]
    )
    # surface 0 selects 0 -> abstract label of (-1, +1) = layer between = 3...
    # surface 1 selects 0 as well? no: position above -> label 0 from instr 1
    # both request the same abstract label for this row
    assert out.tolist() == [3]


def test_forced_resolves_across_by_majority():
    positions = np.array([[ACROSS], [ACROSS]])
    majority = np.array([[1], [-1]])
    rules = [instr(5, 6, 7, forced=True)]
    out = apply_tagging(positions, majority, np.array([0, 0]), rules)
    assert out.tolist() == [5, 7]  # across never consulted


def test_forced_resolution_can_veto():
    positions = np.array([[ACROSS]])
    majority = np.array([[1]])
    out = apply_tagging(positions, majority, np.array([42]), [instr(-1, 6, 7, forced=True)])
    assert out.tolist() == [42]  # resolved above, above says keep


def test_unforced_across_uses_across_label():
    positions = np.array([[ACROSS]])
    majority = np.array([[1]])
    out = apply_tagging(positions, majority, np.array([0]), [instr(5, 6, 7)])
    assert out.tolist() == [6]


def test_instruction_count_mismatch():
    positions = np.zeros((2, 2), dtype=np.int8)
    with pytest.raises(MissingSidedness, match="instructions"):
        apply_tagging(positions, positions, np.zeros(2), [instr(1, 2, 3)])
    with pytest.raises(MissingSidedness, match="shape"):
        apply_tagging(
            positions,
            np.zeros((1, 2), dtype=np.int8),
            np.zeros(2),
            [instr(1, 2, 3), instr(1, 2, 3)],
        )
    # one input label is not broadcast over two blocks
    with pytest.raises(MissingSidedness, match="shape"):
        apply_tagging(positions, np.ones_like(positions), np.zeros(1), [instr(1, 2, 3)] * 2)


def test_embedded_layer_scenario():
    """Two surfaces bounding an intrusion: between them relabel to 5,
    everywhere else the model keeps its original labels."""
    rules = [instr(-1, 0, 5, forced=True), instr(5, 0, -1, forced=True)]
    # rows: above both, between, below both
    positions = np.array(
        [[ABOVE, ABOVE], [BELOW, ABOVE], [BELOW, BELOW]]
    )
    majority = np.sign(positions + 0)  # irrelevant, nothing is across
    majority[majority == 0] = 1
    inputs = np.array([100, 101, 102])
    out = apply_tagging(positions, majority, inputs, rules)
    assert out.tolist() == [100, 5, 102]


def _sign_row(n_surfaces):
    """A random sign row, or a layered one: some -1s, at most one 0, +1s."""
    layered = st.builds(
        lambda below, zero: ([BELOW] * below + [ACROSS] * zero + [ABOVE] * n_surfaces)[:n_surfaces],
        st.integers(0, n_surfaces),
        st.integers(0, 1),
    )
    signs = st.sampled_from([BELOW, ACROSS, ABOVE])
    return layered | st.lists(signs, min_size=n_surfaces, max_size=n_surfaces)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_apply_tagging_matches_block_by_block_oracle(data):
    """On random positions (layered rows and any others), majorities,
    forced flags and veto, abstract or positive labels, the array pass
    gives the block-by-block oracle's labels, or raises its exception with
    its message."""
    n_surfaces, n_blocks = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 8))
    rows = st.lists(_sign_row(n_surfaces), min_size=n_blocks, max_size=n_blocks)
    positions = np.array(data.draw(rows), dtype=np.int64).reshape(n_blocks, n_surfaces)
    sides = st.lists(st.sampled_from([BELOW, ABOVE]), min_size=positions.size, max_size=positions.size)
    majority = np.array(data.draw(sides), dtype=np.int64).reshape(positions.shape)
    label = st.sampled_from([-1, 0, 0]) | st.integers(1, 9)
    rules = [
        instr(*data.draw(st.tuples(label, label, label)), forced=data.draw(st.booleans()))
        for _ in range(n_surfaces)
    ]
    inputs = np.array(data.draw(st.lists(st.integers(-3, 50), min_size=n_blocks, max_size=n_blocks)))
    try:
        want = apply_tagging_by_block(positions, majority, inputs, rules)
    except InconsistentSidedness as exc:
        with pytest.raises(InconsistentSidedness) as err:
            apply_tagging(positions, majority, inputs, rules)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
    else:
        assert apply_tagging(positions, majority, inputs, rules).tolist() == want
