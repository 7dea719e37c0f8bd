"""End-to-end restructuring: scene goldens, mode contrast, healing, errors."""

import hashlib
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reblock import lattice, merge, parallel, pipeline, sidedness
from reblock.errors import ValidationError
from reblock.intersection import detect_overlaps, write_overlap_csv
from reblock.lattice import (
    Block,
    BlockModel,
    LatticeSpec,
    cell_lut,
    expand_cells,
    read_model_csv,
    write_model_csv,
)
from reblock.merge import MergeParams
from reblock.mesh import build_index, load_mesh
from reblock.octree import decompose_parents
from reblock.pipeline import (
    PipelineConfig,
    load_surface,
    load_surfaces,
    merge_model,
    octree_model,
    restructure,
)
from reblock.sidedness import CODE_UNTESTED, SIDE_BELOW, cast_parity_many, write_sidedness_csv
from reblock.tagging import TaggingInstruction

from conftest import box_mesh, grid_surface, icosphere, write_obj
from oracles import merge_by_class, paint_parent, restructure_by_parent
from test_merge import random_partition_boxes

SPEC = LatticeSpec(origin=(0, 0, 0), parent_dims=(4, 4, 4), min_dims=(1, 1, 1))


def full_parent_model(*parents):
    blocks = [
        Block(parent=p, cell_min=(0, 0, 0), cell_dims=(4, 4, 4), label=1)
        for p in parents
    ]
    return BlockModel(spec=SPEC, blocks=blocks)


def instruction(path, above=10, across=20, below=30, forced=False):
    return TaggingInstruction(
        surface_path=str(path),
        positive_direction=(0.0, 0.0, 1.0),
        label_above=above,
        label_across=across,
        label_below=below,
        forced=forced,
    )


@pytest.fixture()
def flat_scene(tmp_path):
    # horizontal plane along the z=2 cell boundary, ending at x=7.9 so it
    # crosses parents 0 and 1 but stops short of parent 2 at x=8
    path = tmp_path / "flat.obj"
    write_obj(path, grid_surface((-1.0, 7.9), (-1.0, 5.0), 2.0))
    model = full_parent_model((0, 0, 0), (1, 0, 0), (2, 0, 0))
    return model, instruction(path)


@pytest.fixture()
def patch_scene(tmp_path):
    # small ledge ending mid-parent at x=2.25, z=2.25: the class that does
    # not intersect it is connected around the ledge's edge
    path = tmp_path / "patch.obj"
    write_obj(path, grid_surface((-1.0, 2.25), (-1.0, 5.0), 2.25))
    return full_parent_model((0, 0, 0)), instruction(path)


def blocks_as_tuples(model):
    return [(b.parent, b.cell_min, b.cell_dims, b.label) for b in model.canonical().blocks]


def total_cells(model):
    return sum(int(np.prod(b.cell_dims)) for b in model.blocks)


class TestRestructureScenes:
    def test_no_instructions_returns_input(self, flat_scene):
        model, _ = flat_scene
        assert restructure(model, PipelineConfig(instructions=())) is model

    def test_flat_preclassified_golden(self, flat_scene):
        model, instr = flat_scene
        out = restructure(model, PipelineConfig(instructions=(instr,)))
        # each crossed parent splits into four full slabs: below, the two
        # cut layers either side of z=2, above; the far parent passes through
        expected = []
        for px in (0, 1):
            expected += [
                ((px, 0, 0), (0, 0, 0), (4, 4, 1), 30),
                ((px, 0, 0), (0, 0, 1), (4, 4, 1), 20),
                ((px, 0, 0), (0, 0, 2), (4, 4, 1), 20),
                ((px, 0, 0), (0, 0, 3), (4, 4, 1), 10),
            ]
        expected.append(((2, 0, 0), (0, 0, 0), (4, 4, 4), 10))
        assert blocks_as_tuples(out) == sorted(
            expected, key=lambda t: (t[0][2], t[0][1], t[0][0], t[1][2], t[1][1], t[1][0])
        )

    def test_flat_legacy_merges_across_layers(self, flat_scene):
        model, instr = flat_scene
        out = restructure(
            model, PipelineConfig(instructions=(instr,), mode="legacy-two-set")
        )
        # the two cut layers share one merge class here, so each crossed
        # parent yields three blocks instead of four
        assert len(out.blocks) == 7
        crossed = [b for b in out.blocks if b.parent == (0, 0, 0)]
        assert sorted((b.cell_min, b.cell_dims, b.label) for b in crossed) == [
            ((0, 0, 0), (4, 4, 1), 30),
            ((0, 0, 1), (4, 4, 2), 20),
            ((0, 0, 3), (4, 4, 1), 10),
        ]

    def test_forced_tagging_gives_a_tie_to_above(self, flat_scene):
        """The legacy merge joins the two cut layers either side of z=2
        into one block with exactly half of its cells above the plane;
        forced tagging resolves that tie to the above side."""
        model, instr = flat_scene
        forced = replace(instr, forced=True)
        out = restructure(
            model, PipelineConfig(instructions=(forced,), mode="legacy-two-set")
        )
        crossed = [b for b in out.blocks if b.parent == (0, 0, 0)]
        assert sorted((b.cell_min, b.cell_dims, b.label) for b in crossed) == [
            ((0, 0, 0), (4, 4, 1), 30),
            ((0, 0, 1), (4, 4, 2), 10),
            ((0, 0, 3), (4, 4, 1), 10),
        ]

    def test_modes_agree_per_cell_on_clean_scene(self, flat_scene):
        model, instr = flat_scene
        fine = restructure(model, PipelineConfig(instructions=(instr,)))
        coarse = restructure(
            model, PipelineConfig(instructions=(instr,), mode="legacy-two-set")
        )
        for parent in ((0, 0, 0), (1, 0, 0), (2, 0, 0)):
            grids = []
            for out in (fine, coarse):
                labels, _ = paint_parent(SPEC, [b for b in out.blocks if b.parent == parent])
                grids.append(labels)
            np.testing.assert_array_equal(grids[0], grids[1])

    def test_pass_through_parent_keeps_geometry(self, flat_scene):
        model, instr = flat_scene
        out = restructure(model, PipelineConfig(instructions=(instr,)))
        far = [b for b in out.blocks if b.parent == (2, 0, 0)]
        assert len(far) == 1
        # geometry intact, label re-derived from a centroid ray (which
        # leaves the surface's footprint, hence "above")
        assert far[0].cell_min == (0, 0, 0)
        assert far[0].cell_dims == (4, 4, 4)
        assert far[0].label == 10

    def test_volume_conserved(self, flat_scene):
        model, instr = flat_scene
        for mode in ("preclassified", "legacy-two-set"):
            out = restructure(model, PipelineConfig(instructions=(instr,), mode=mode))
            assert total_cells(out) == total_cells(model)

    def test_threads_do_not_change_output(self, flat_scene):
        model, instr = flat_scene
        cfg = PipelineConfig(instructions=(instr,))
        assert blocks_as_tuples(restructure(model, cfg, threads=2)) == blocks_as_tuples(
            restructure(model, cfg, threads=1)
        )


class TestModeContrast:
    def cell_sides(self, instr):
        mesh, _ = load_mesh(instr.surface_path), None
        index = build_index(mesh)
        centers = np.array(
            [(x + 0.5, y + 0.5, z + 0.5) for z in range(4) for y in range(4) for x in range(4)]
        )
        return mesh, index, cast_parity_many(centers, mesh, index).sides.reshape(4, 4, 4)

    def mixed_blocks(self, model, sides):
        ordinal, cell = expand_cells(model.cell_min, model.cell_dims, SPEC.cell_counts)
        side = sides.ravel()[cell]  # raster order: x fastest, as sides[z, y, x]
        return [b for i, b in enumerate(model.blocks) if len(set(side[ordinal == i].tolist())) > 1]

    def test_legacy_mixes_sides_preclassified_does_not(self, patch_scene):
        model, instr = patch_scene
        _, _, sides = self.cell_sides(instr)
        fine = restructure(model, PipelineConfig(instructions=(instr,)))
        coarse = restructure(
            model, PipelineConfig(instructions=(instr,), mode="legacy-two-set")
        )
        assert self.mixed_blocks(fine, sides) == []
        assert len(self.mixed_blocks(coarse, sides)) >= 1

    def test_per_cell_labels_differ_at_the_ledge(self, patch_scene):
        model, instr = patch_scene
        fine = restructure(model, PipelineConfig(instructions=(instr,)))
        coarse = restructure(
            model, PipelineConfig(instructions=(instr,), mode="legacy-two-set")
        )
        fine_grid, _ = paint_parent(SPEC, fine.blocks)
        coarse_grid, _ = paint_parent(SPEC, coarse.blocks)
        assert (fine_grid != coarse_grid).any()


def test_restructure_sorts_the_input_blocks_by_parent_once(flat_scene, tmp_path, monkeypatch):
    """Reading a model validates it, and restructure finds overlaps and the
    crossed parents' blocks, all from one sort of its blocks by parent."""
    model, instr = flat_scene
    path = tmp_path / "model.csv"
    write_model_csv(path, model.take([2, 0, 1]))
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys, *args: sorts.append(keys) or lexsort(keys, *args))
    model = read_model_csv(path, SPEC)
    out = restructure(model, PipelineConfig(instructions=(instr,)))
    assert len(out) > len(model)
    assert sum(any(np.shares_memory(k, model.parent) for k in keys) for keys in sorts) == 1


class TestConfigAndErrors:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="mode"):
            PipelineConfig(instructions=(), mode="fastest")

    def test_missing_surface_file(self, tmp_path):
        instr = instruction(tmp_path / "nope.obj")
        with pytest.raises(ValidationError, match="not found"):
            load_surfaces([instr])

    def test_surface_count_mismatch(self, flat_scene):
        model, instr = flat_scene
        with pytest.raises(ValidationError, match="0 surfaces for 1 instructions"):
            restructure(model, PipelineConfig(instructions=(instr,)), surfaces=[])

    def test_worker_errors_name_the_parent(self, monkeypatch):
        def fail(*args):
            raise ValidationError("cannot merge")

        monkeypatch.setattr(pipeline, "merge_prepared", fail)
        with pytest.raises(ValidationError, match=r"^parent \(0, 0, 0\): cannot merge$"):
            merge_model(full_parent_model((0, 0, 0)), MergeParams())

    def test_merge_caps_checked_before_the_workers(self, flat_scene):
        model, instr = flat_scene
        params = MergeParams(max_dims=(8, 8, 8))
        with pytest.raises(ValidationError, match="^max merge dims cannot exceed"):
            merge_model(model, params)
        with pytest.raises(ValidationError, match="^max merge dims cannot exceed"):
            restructure(model, PipelineConfig(instructions=(), merge_params=params))

    def test_diagnostics_artifacts(self, flat_scene, tmp_path):
        model, instr = flat_scene
        diag = tmp_path / "diag"
        cfg = PipelineConfig(instructions=(instr,), diagnostics_dir=str(diag))
        restructure(model, cfg)
        overlap = (diag / "overlap.csv").read_text().splitlines()
        sided = (diag / "sidedness.csv").read_text().splitlines()
        assert overlap[0] == "parent_px,parent_py,parent_pz,surface_id,triangle_id"
        assert len(overlap) > 1
        assert sided[0] == "parent,cell_ix,cell_iy,cell_iz,surface_id,code"
        # one row per cell per crossed parent for the single surface
        assert len(sided) == 1 + 2 * 64


class TestHealing:
    def test_rejoins_fragments(self):
        blocks = [
            Block(parent=(0, 0, 0), cell_min=(0, 0, k), cell_dims=(4, 4, 1), label=7)
            for k in range(4)
        ]
        healed = merge_model(BlockModel(spec=SPEC, blocks=blocks), MergeParams(convention="dissolved"))
        assert blocks_as_tuples(healed) == [((0, 0, 0), (0, 0, 0), (4, 4, 4), 7)]

    def test_merge_model_never_grows(self):
        blocks = []
        for parent in ((0, 0, 0), (0, 1, 0)):
            for z in range(4):
                for y in range(4):
                    label = 1 if (y + z) % 2 else 2
                    blocks.append(
                        Block(parent=parent, cell_min=(0, y, z), cell_dims=(4, 1, 1), label=label)
                    )
        model = BlockModel(spec=SPEC, blocks=blocks)
        merged = merge_model(model, MergeParams())
        assert len(merged.blocks) <= len(model.blocks)
        assert total_cells(merged) == total_cells(model)
        for block in merged.blocks:
            assert block.label in (1, 2)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    st.sampled_from([(1, 1, 1), (1, 0.5, 2)]),
    st.sampled_from(["dissolved", "persistent"]),
    st.sampled_from(["count", "aspect"]),
    st.none() | st.integers(1, 3),
    st.booleans(),
    st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
    st.sampled_from([1, 40, 1 << 16]),
)
def test_merge_model_matches_class_by_class_merge(
    seed, counts, min_dims, convention, objective, token_life, capped, patterns, window
):
    """On random models of several parents and labels, rows shuffled
    across parents, ``merge_model``'s classes, built before the workers
    run, give the blocks, in order, that ``merge_class`` gives class by
    class; also when they are built in windows of a few parents."""
    rng = np.random.default_rng(seed)
    spec = LatticeSpec((0.5, -2, 3), np.multiply(counts, min_dims), min_dims)
    blocks = []
    for parent in {tuple(int(v) for v in p) for p in rng.integers(-2, 3, size=(rng.integers(1, 6), 3))}:
        labels = rng.integers(1, 9, size=rng.integers(1, 4))  # one label, or several
        blocks += [
            Block(parent, n, s, int(rng.choice(labels)))
            for n, s in random_partition_boxes(rng, counts, keep=float(rng.choice([0.6, 1.0])))
        ]
    if not blocks:
        blocks = [Block((0, 0, 0), (0, 0, 0), counts, 1)]
    model = BlockModel(spec, [blocks[i] for i in rng.permutation(len(blocks))])
    caps = tuple(int(v) for v in rng.integers(1, np.add(counts, 1))) if capped else None
    params = MergeParams(convention, objective, token_life, caps, tuple(patterns))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merge, "_CLASS_CELLS", window)
        got = merge_model(model, params)
    assert [(b.parent, b.cell_min, b.cell_dims, b.label) for b in got.blocks] == merge_by_class(
        model, params
    )


def crossed_scene(seed, min_dims, n_sheets=None):
    """Six parents of random blocks, rows shuffled, and one to three
    random sheets, each over its own x and y range and forced or not: a
    sheet may cross some parents and miss others.  Some of a sheet's
    labels are vetoes (-1), or, when there is one sheet, automatic (0)."""
    rng = np.random.default_rng(seed)
    spec = LatticeSpec(origin=(0, 0, 0), parent_dims=(4, 4, 4), min_dims=min_dims)
    keep = float(rng.choice([0.7, 1.0]))
    blocks = [
        Block((px, py, 0), n, s, int(rng.integers(1, 3)))
        for py in range(2)
        for px in range(3)
        for n, s in random_partition_boxes(rng, spec.cell_counts, keep)
    ]
    model = BlockModel(spec, [blocks[i] for i in rng.permutation(len(blocks))])
    instructions, surfaces = [], []
    n_sheets = n_sheets or int(rng.integers(1, 4))
    codes = (-1, 0) if n_sheets == 1 else (-1,)
    for i in range(n_sheets):
        x0, x1 = sorted(rng.choice([-1.0, 3.25, 5.5, 6.75, 13.0], 2, replace=False))
        y0, y1 = sorted(rng.choice([-1.0, 2.5, 5.25, 9.0], 2, replace=False))
        xs, ys = np.linspace(x0, x1, 5), np.linspace(y0, y1, 4)
        heights = dict(zip(((x, y) for y in ys for x in xs), rng.integers(2, 31, size=20) / 8))
        mesh = grid_surface(xs, ys, lambda x, y: heights[x, y])
        forced = bool(rng.integers(2))
        labels = [v if rng.random() < 0.7 else int(rng.choice(codes)) for v in (10 + i, 20 + i, 30 + i)]
        instructions.append(instruction(f"sheet{i}.obj", *labels, forced))
        surfaces.append((mesh, build_index(mesh)))
    return model, tuple(instructions), surfaces


def rows_of(model):
    return [(b.parent, b.cell_min, b.cell_dims, b.label) for b in model.blocks]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1, 1, 1), (1, 0.5, 2), (0.5, 2, 1)]),
    st.sampled_from(["dissolved", "persistent"]),
    st.sampled_from(["count", "aspect"]),
    st.none() | st.integers(1, 3),
    st.booleans(),
    st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
    st.sampled_from(["preclassified", "legacy-two-set"]),
)
def test_restructure_matches_unit_box_merge(
    seed, min_dims, convention, objective, token_life, capped, patterns, mode
):
    """On random crossed scenes, where a sheet may cross only some
    parents, restructuring on windows of parents gives the blocks, in
    order, that the parent-by-parent oracle gives: one classification per
    parent and the box-list ``merge_class`` on each class's unit boxes."""
    model, instructions, surfaces = crossed_scene(seed, min_dims)
    counts = model.spec.cell_counts
    rng = np.random.default_rng(seed)
    caps = tuple(int(v) for v in rng.integers(1, np.add(counts, 1))) if capped else None
    params = MergeParams(convention, objective, token_life, caps, tuple(patterns))
    cfg = PipelineConfig(instructions=instructions, merge_params=params, mode=mode)
    want, _ = restructure_by_parent(model, cfg, surfaces)
    assert rows_of(restructure(model, cfg, surfaces=surfaces)) == want


@pytest.mark.parametrize("mode", ["preclassified", "legacy-two-set"])
@pytest.mark.parametrize("convention", ["dissolved", "persistent"])
def test_restructure_does_not_depend_on_window_or_threads(convention, mode):
    """Windows of one parent, of three and of all six, each at one and two
    threads, give the oracle's blocks, block for block, and so do casts
    that decide their lines five points at a time: the cells' casts and
    those of the pass-through blocks, which this scene has."""
    model, instructions, surfaces = crossed_scene(5, (1, 0.5, 2), n_sheets=2)
    cfg = PipelineConfig(instructions, MergeParams(convention=convention), mode)
    want, _ = restructure_by_parent(model, cfg, surfaces)
    k = model.spec.cells_per_parent
    for window in (k, 3 * k, 6 * k):
        for threads in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(merge, "_CLASS_CELLS", window)
                got = restructure(model, cfg, surfaces=surfaces, threads=threads)
            assert rows_of(got) == want, (window, threads)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sidedness, "_CAST_POINTS", 5)
        assert rows_of(restructure(model, cfg, surfaces=surfaces)) == want


@pytest.fixture(scope="module")
def fine_surfaces():
    """The sheet and the sphere of ROADMAP's ``fine`` scene."""
    xs, ys = np.linspace(-1.3, 33.1, 31), np.linspace(-1.1, 33.3, 30)
    sheet = grid_surface(xs, ys, lambda x, y: 16.1 + 3 * np.sin(x / 5) * np.cos(y / 7))
    sphere = icosphere(3, 9.5, (15.7, 16.3, 15.9))
    assert (len(sheet.triangles), len(sphere.triangles)) == (1740, 1280)
    return [(mesh, build_index(mesh)) for mesh in (sheet, sphere)]


@pytest.mark.parametrize("convention", ["dissolved", "persistent"])
@pytest.mark.parametrize("cell, digest", [(4, "d1c73477a88d11f1"), (2, "6dc38f91a597973c")])
def test_fine_scene_digests(tmp_path, fine_surfaces, cell, digest, convention):
    """One whole 32 m parent restructured on cells of 4 m and 2 m (8 and 16
    cells a side) against a wavy sheet and a sphere writes the CSV whose
    SHA-256 prefix ROADMAP records, under either convention."""
    spec = LatticeSpec(origin=(0, 0, 0), parent_dims=(32, 32, 32), min_dims=(cell,) * 3)
    model = BlockModel(spec, [Block((0, 0, 0), (0, 0, 0), spec.cell_counts, 1)])
    labels = [(10, 20, 30), (11, 21, 31)]
    cfg = PipelineConfig(
        tuple(instruction(f"{name}.obj", *labels[i]) for i, name in enumerate(["sheet", "sphere"])),
        MergeParams(convention=convention),
    )
    path = tmp_path / "fine.csv"
    write_model_csv(path, restructure(model, cfg, surfaces=fine_surfaces, threads=1))
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("convention", ["dissolved", "persistent"])
def test_spawned_workers_match_one_thread(monkeypatch, convention):
    """Spawned children unpickle the mapped function with its bound lattice
    and merge parameters: ``merge_model`` and ``restructure`` at two
    threads under the spawn start method give the one-thread blocks."""
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("no spawn start method on this platform")
    model, instructions, surfaces = crossed_scene(5, (1, 0.5, 2), n_sheets=2)
    params = MergeParams(convention=convention)
    cfg = PipelineConfig(instructions, params)

    def run(threads):
        merged = merge_model(model, params, threads=threads)
        return rows_of(merged), rows_of(restructure(model, cfg, surfaces, threads))

    want = run(1)
    monkeypatch.setattr(parallel, "_START_METHOD", "spawn")
    assert run(2) == want


def test_diagnostics_match_the_parent_by_parent_oracle(tmp_path, monkeypatch):
    """On two sheets, one of which misses a crossed parent, the overlap and
    sidedness CSVs written from windows of three parents equal, byte for
    byte, the ones the parent-by-parent classifications give, under either
    consolidation regime."""
    spec = LatticeSpec(origin=(0, 0, 0), parent_dims=(4, 4, 4), min_dims=(1, 1, 1))
    model = full_parent_model(*((px, py, 0) for py in range(2) for px in range(3)))
    wide = grid_surface((-1.0, 5.5, 13.0), (-1.0, 9.0), lambda x, y: 1.25 + x / 8)
    narrow = grid_surface((-1.0, 3.5, 6.75), (-1.0, 3.25), 2.625)
    surfaces = [(mesh, build_index(mesh)) for mesh in (wide, narrow)]
    instructions = (instruction("wide.obj"), instruction("narrow.obj"))
    monkeypatch.setattr(merge, "_CLASS_CELLS", 3 * spec.cells_per_parent)
    for mode in ("preclassified", "legacy-two-set"):
        cfg = PipelineConfig(instructions, mode=mode, diagnostics_dir=str(tmp_path / mode))
        restructure(model, cfg, surfaces=surfaces)
    _, sides = restructure_by_parent(model, cfg, surfaces)
    assert (sides[:, :, 0] != 0).tolist() == [[True] * 6, [True, True] + [False] * 4]
    want = tmp_path / "want"
    want.mkdir()
    overlap = detect_overlaps(model, surfaces)
    write_overlap_csv(want / "overlap.csv", overlap)
    write_sidedness_csv(want / "sidedness.csv", spec, overlap.parents, sides)
    for mode in ("preclassified", "legacy-two-set"):
        for name in ("overlap.csv", "sidedness.csv"):
            assert (tmp_path / mode / name).read_bytes() == (want / name).read_bytes(), (mode, name)
    codes = [line.rsplit(",", 1)[1] for line in (want / "sidedness.csv").read_text().splitlines()]
    assert codes.count(str(CODE_UNTESTED)) == 4 * 64


@pytest.mark.parametrize("intra", [False, True])
def test_octree_model_matches_parent_by_parent_decomposition(tmp_path, intra):
    """Over a sheet and a sphere, on twelve parents of shuffled blocks,
    windows of one parent, of five (the last one short) and the default
    window give, block set for block set, the one-parent decomposition of
    each parent's cell labels, cast parent by parent."""
    spec = LatticeSpec(origin=(0.5, -2, 3), parent_dims=(4, 4, 8), min_dims=(1, 0.5, 2))
    rng = np.random.default_rng(3)
    parents = [(px, py, pz) for pz in range(2) for py in (-1, 0, 1) for px in range(2)]
    boxes = [(p, box) for p in parents for box in random_partition_boxes(rng, spec.cell_counts, keep=1.0)]
    model = BlockModel(spec, [Block(boxes[i][0], *boxes[i][1], 1) for i in rng.permutation(len(boxes))])
    sheet = grid_surface((-1.0, 3.0, 9.5), (-7.0, 1.0, 6.5), lambda x, y: 7 + x / 3 - y / 5)
    sphere = icosphere(2, 3.5, (4.4, -1.6, 11.2))
    paths = [write_obj(tmp_path / "sheet.obj", sheet), write_obj(tmp_path / "sphere.obj", sphere)]
    surfaces = [load_surface(path) for path in paths]
    want = []
    for p in parents:
        centers = cell_lut(spec) + (np.asarray(spec.origin) + np.asarray(p) * spec.parent_dims)
        labels = np.zeros(spec.cells_per_parent, dtype=np.int64)
        for sid, (mesh, index) in enumerate(surfaces):
            below = cast_parity_many(centers, mesh, index).sides == SIDE_BELOW
            labels |= below.astype(np.int64) << sid
        grid = labels.reshape(spec.cell_counts[::-1])
        want += [(p, tuple(r[1:4]), tuple(r[4:7]), r[7]) for r in decompose_parents(grid[None], 2, intra).tolist()]
    assert {w[3] for w in want} == {0, 1, 2, 3} and ((1, 1, 1) in {w[2] for w in want})
    k = spec.cells_per_parent
    for window in (k, 5 * k, merge._CLASS_CELLS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(merge, "_CLASS_CELLS", window)
            got = octree_model(model, paths, 2, intra)
        assert sorted(rows_of(got)) == sorted(want), window


def test_octree_labels_hold_63_surfaces_and_no_more(tmp_path):
    """Cells below 63 copies of one surface are labelled 2**63 - 1.  A
    64th surface would shift its bit out of the int64 label, so 64 are
    refused before any surface file is read."""
    path = write_obj(tmp_path / "half.obj", box_mesh((-1, -1, -1), (5, 5, 2)))
    got = octree_model(full_parent_model((0, 0, 0)), [path] * 63, 1, intra=True)
    assert sorted(rows_of(got)) == [
        ((0, 0, 0), (0, 0, 0), (4, 4, 2), 2**63 - 1),
        ((0, 0, 0), (0, 0, 2), (4, 4, 2), 0),
    ]
    with pytest.raises(ValidationError, match="at most 63 surfaces, one bit each; got 64$"):
        octree_model(full_parent_model((0, 0, 0)), [tmp_path / "missing.obj"] * 64, 1, False)


def _drivers(path):
    """Each driver that takes a model, as a call on one."""
    config = PipelineConfig(instructions=(instruction(path),))
    return {
        "merge_model": lambda model: merge_model(model, MergeParams("persistent"), threads=1),
        "restructure": lambda model: restructure(model, config, threads=1),
        "octree_model": lambda model: octree_model(model, [path], 1, intra=True),
    }


def test_drivers_validate_only_their_output_on_a_model_read_from_csv(tmp_path, monkeypatch):
    """A model from ``read_model_csv`` passed its validation there: the
    drivers sort x-runs only to validate what they return, and the octree
    baseline, whose decomposition tiles each parent, not at all."""
    path = write_obj(tmp_path / "flat.obj", grid_surface((-1.0, 7.9), (-1.0, 5.0), 2.0))
    write_model_csv(tmp_path / "in.csv", full_parent_model((0, 0, 0), (1, 0, 0), (2, 0, 0)))
    model = read_model_csv(tmp_path / "in.csv", SPEC)
    calls = []
    sort_runs = lattice.runs_disjoint
    monkeypatch.setattr(lattice, "runs_disjoint", lambda *args: calls.append(1) or sort_runs(*args))
    for name, run in _drivers(path).items():
        calls.clear()
        out = run(model)
        during = len(calls)
        calls.clear()
        BlockModel.from_columns(SPEC, out.parent, out.cell_min, out.cell_dims, out.label).validate()
        assert len(calls) > 0 and during == (0 if name == "octree_model" else len(calls)), name


def test_drivers_still_refuse_an_overlapping_model(tmp_path):
    path = write_obj(tmp_path / "flat.obj", grid_surface((-1.0, 7.9), (-1.0, 5.0), 2.0))
    parent = np.zeros((2, 3), dtype=np.int64)
    model = BlockModel.from_columns(SPEC, parent, [[0, 0, 0], [2, 0, 0]], [[4, 4, 4], [2, 4, 4]], [1, 1])
    for run in _drivers(path).values():
        with pytest.raises(ValidationError, match=r"^block 1 overlaps another block in parent \(0, 0, 0\)$"):
            run(model)
