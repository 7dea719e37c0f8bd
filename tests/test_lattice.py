from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    assert b.centroid(spec) == vec3(14, 5, 7)


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
        assert np.allclose(lut[i] + base, np.asarray(b.centroid(spec)))


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
        (b.parent, b.cell_min, b.cell_dims, b.label) for b in model.sorted_blocks()
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
