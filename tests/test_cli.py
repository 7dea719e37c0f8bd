"""Command-line frontend: round trips, exit codes, manifests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reblock
from reblock.cli import main
from reblock.lattice import Block, BlockModel, LatticeSpec, read_model_csv, write_model_csv
from reblock.merge import MergeParams
from reblock.pipeline import PipelineConfig, restructure
from reblock.tagging import TaggingInstruction

from conftest import box_mesh, grid_surface, write_obj
from oracles import paint_parent

SPEC = LatticeSpec(origin=(0, 0, 0), parent_dims=(4, 4, 4), min_dims=(1, 1, 1))
LATTICE_FLAGS = ["--parent-dims", "4,4,4", "--min-dims", "1,1,1"]


def write_full_parents(path, *parents):
    blocks = [
        Block(parent=p, cell_min=(0, 0, 0), cell_dims=(4, 4, 4), label=1)
        for p in parents
    ]
    write_model_csv(path, BlockModel(spec=SPEC, blocks=blocks))
    return path


@pytest.fixture()
def scene(tmp_path):
    model_csv = write_full_parents(tmp_path / "in.csv", (0, 0, 0), (1, 0, 0), (2, 0, 0))
    write_obj(tmp_path / "flat.obj", grid_surface((-1.0, 7.9), (-1.0, 5.0), 2.0))
    config = tmp_path / "tags.cfg"
    config.write_text(
        "surface=flat.obj positive=0,0,1 above=10 across=20 below=30 forced=0\n"
    )
    return tmp_path, model_csv, config


def run_module(*args):
    """Run ``python -m reblock.cli`` on the reblock this process imported."""
    src = str(Path(reblock.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "reblock.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def manifest_lines(path):
    return path.read_text().splitlines()


class TestRestructureCommand:
    @pytest.mark.parametrize("convention", ["dissolved", "persistent"])
    def test_pooled_restructure_is_byte_identical(self, scene, convention):
        # the console entry point at --threads 2 starts a process pool
        tmp, model_csv, config = scene
        outputs = []
        for threads in ("2", "1"):
            out = tmp / f"out-{threads}.csv"
            proc = run_module(
                "restructure",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--config", str(config),
                "--out", str(out),
                "--convention", convention,
                "--threads", threads,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_round_trip_matches_library(self, scene):
        tmp, model_csv, config = scene
        out = tmp / "out.csv"
        code = main(
            [
                "restructure",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--config", str(config),
                "--out", str(out),
                "--threads", "1",
            ]
        )
        assert code == 0
        got = read_model_csv(out, SPEC)

        instr = TaggingInstruction(
            surface_path=str(tmp / "flat.obj"),
            positive_direction=(0.0, 0.0, 1.0),
            label_above=10,
            label_across=20,
            label_below=30,
        )
        want = restructure(
            read_model_csv(model_csv, SPEC), PipelineConfig(instructions=(instr,))
        )
        as_tuples = lambda m: [
            (b.parent, b.cell_min, b.cell_dims, b.label) for b in m.canonical().blocks
        ]
        assert as_tuples(got) == as_tuples(want)
        assert len(got.blocks) == 9

    def test_manifest_contents_and_rerun(self, scene):
        tmp, model_csv, config = scene
        out = tmp / "out.csv"
        argv = [
            "restructure",
            *LATTICE_FLAGS,
            "--model", str(model_csv),
            "--config", str(config),
            "--out", str(out),
            "--threads", "1",
        ]
        assert main(argv) == 0
        manifest = out.parent / "out.csv.manifest.txt"
        first = manifest_lines(manifest)
        assert first[0] == f"tool=reblock {reblock.__version__}"
        assert sum(1 for l in first if l.startswith("input=")) == 3
        assert "config mode=preclassified" in first
        assert "threads=1" in first
        assert "output blocks=9" in first
        assert first[-1].startswith("wall_time_s=")

        assert main(argv) == 0
        second = manifest_lines(manifest)
        # reruns on identical inputs agree on everything but the clock
        assert second[:-1] == first[:-1]

    def test_missing_model_exits_1(self, scene, capsys):
        tmp, _, config = scene
        code = main(
            [
                "restructure",
                *LATTICE_FLAGS,
                "--model", str(tmp / "absent.csv"),
                "--config", str(config),
                "--out", str(tmp / "out.csv"),
            ]
        )
        assert code == 1
        assert "absent.csv" in capsys.readouterr().err

    def test_missing_surface_exits_1(self, scene, capsys):
        tmp, model_csv, _ = scene
        config = tmp / "bad.cfg"
        config.write_text(
            "surface=gone.obj positive=0,0,1 above=1 across=2 below=3 forced=0\n"
        )
        code = main(
            [
                "restructure",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--config", str(config),
                "--out", str(tmp / "out.csv"),
            ]
        )
        assert code == 1
        # one existence check, in the mesh loader: one message, one line
        err = capsys.readouterr().err.splitlines()
        assert err == [f"reblock: mesh file not found: {tmp / 'gone.obj'}"]

    @pytest.mark.parametrize(
        "name, text",
        [
            ("sliver.obj", "v 0 0 1\nv 1 0 1\nv 2 0 1\nf 1 2 3\nf 1 1 2\n"),
            ("bare.off", "OFF\n3 0 0\n0 0 1\n1 0 1\n0 1 1\n"),
        ],
        ids=["all-degenerate", "no-faces"],
    )
    def test_surface_without_usable_triangles_exits_1(self, scene, capsys, name, text):
        # all-degenerate and face-less surfaces are bad input (EmptyMesh),
        # not a geometry failure
        tmp, model_csv, _ = scene
        (tmp / name).write_text(text)
        config = tmp / "empty.cfg"
        config.write_text(
            f"surface={name} positive=0,0,1 above=1 across=2 below=3 forced=0\n"
        )
        code = main(
            [
                "restructure",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--config", str(config),
                "--out", str(tmp / "out.csv"),
            ]
        )
        assert code == 1
        assert name.split(".")[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("bent.obj", "v 0 0 1\nv 1 0 x\nv 0 1 1\nf 1 2 3\n", "2: bad vertex line"),
            ("bent.off", "OFF\n3 1 0\n0 0 1\n1 0 1\n0 1 1\n3 0 1 q\n", "6: bad face line"),
            ("bent.off", "OFF\n3 one 0\n", "2: expected 'nv nf ne' counts"),
        ],
        ids=["obj-vertex", "off-face", "off-counts"],
    )
    def test_malformed_surface_exits_1(self, scene, capsys, name, text, where):
        tmp, model_csv, _ = scene
        (tmp / name).write_text(text)
        config = tmp / "bent.cfg"
        config.write_text(f"surface={name} positive=0,0,1 above=1 across=2 below=3 forced=0\n")
        code = main(
            [
                "restructure",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--config", str(config),
                "--out", str(tmp / "out.csv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"reblock: {tmp / name}:{where}\n"

    @pytest.mark.parametrize(
        "labels",
        [
            "above=99999999999999999999999 across=2 below=3",
            "above=1 across=2 below=-99999999999999999999",
        ],
    )
    def test_label_outside_int64_exits_1(self, scene, capsys, labels):
        tmp, model_csv, _ = scene
        config = tmp / "huge.cfg"
        config.write_text(f"surface=flat.obj positive=0,0,1 {labels} forced=0\n")
        code = main(
            [
                "restructure",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--config", str(config),
                "--out", str(tmp / "out.csv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"reblock: {config}:1: labels must be integers within int64\n"
        )
        assert not (tmp / "out.csv").exists()

    def test_unlayered_abstract_stack_exits_2(self, tmp_path, capsys):
        # two horizontal planes listed bottom-up: blocks between them read
        # "+1 then -1", which no layered stack can produce, and abstract
        # labels have nothing sensible to assign
        model_csv = write_full_parents(tmp_path / "in.csv", (0, 0, 0))
        write_obj(tmp_path / "lo.obj", grid_surface((-1.0, 5.0), (-1.0, 5.0), 0.75))
        write_obj(tmp_path / "hi.obj", grid_surface((-1.0, 5.0), (-1.0, 5.0), 3.25))
        config = tmp_path / "tags.cfg"
        config.write_text(
            "surface=lo.obj positive=0,0,1 above=0 across=0 below=0 forced=0\n"
            "surface=hi.obj positive=0,0,1 above=0 across=0 below=0 forced=0\n"
        )
        code = main(
            [
                "restructure",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--config", str(config),
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 2
        assert "layered" in capsys.readouterr().err


class TestMergeCommand:
    def test_defragments_and_writes_stats(self, tmp_path):
        blocks = [
            Block(parent=(0, 0, 0), cell_min=(0, 0, k), cell_dims=(4, 4, 1), label=7)
            for k in range(4)
        ]
        src = tmp_path / "frag.csv"
        write_model_csv(src, BlockModel(spec=SPEC, blocks=blocks))
        out = tmp_path / "merged.csv"
        code = main(
            [
                "merge",
                *LATTICE_FLAGS,
                "--model", str(src),
                "--out", str(out),
                "--convention", "dissolved",
                "--threads", "1",
            ]
        )
        assert code == 0
        merged = read_model_csv(out, SPEC)
        assert [(b.cell_dims, b.label) for b in merged.blocks] == [((4, 4, 4), 7)]
        stats = (tmp_path / "merged.stats.csv").read_text().splitlines()
        assert stats[0].startswith("label,")
        assert stats[-1].startswith("all,1,64.000000")

    @pytest.mark.parametrize("convention", ["dissolved", "persistent"])
    def test_pooled_merge_is_byte_identical(self, tmp_path, convention):
        # the console entry point at --threads 2 starts a process pool
        labels = np.random.default_rng(7).integers(1, 3, size=(4, 4, 4, 4))
        blocks = [
            Block(parent=(p, 0, 0), cell_min=(i, j, k), cell_dims=(1, 1, 1), label=int(labels[p, i, j, k]))
            for p in range(4)
            for i in range(4)
            for j in range(4)
            for k in range(4)
        ]
        src = tmp_path / "frag.csv"
        write_model_csv(src, BlockModel(spec=SPEC, blocks=blocks))
        outputs = []
        for threads in ("2", "1"):
            out = tmp_path / f"merged-{threads}.csv"
            proc = run_module(
                "merge",
                *LATTICE_FLAGS,
                "--model", str(src),
                "--out", str(out),
                "--convention", convention,
                "--threads", threads,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(read_model_csv(tmp_path / "merged-1.csv", SPEC).blocks) < len(blocks)

    def test_convention_flag_is_required(self, tmp_path, capsys):
        code = main(
            [
                "merge",
                *LATTICE_FLAGS,
                "--model", str(tmp_path / "x.csv"),
                "--out", str(tmp_path / "y.csv"),
            ]
        )
        assert code == 1
        assert "--convention" in capsys.readouterr().err


class TestOctreeCommand:
    def halfspace_scene(self, tmp_path):
        model_csv = write_full_parents(tmp_path / "in.csv", (0, 0, 0))
        # closed box swallowing the lower half of the parent: cells below
        # z=2 sit inside (one upward crossing), the rest outside
        write_obj(tmp_path / "halfbox.obj", box_mesh((-1, -1, -1), (5, 5, 2)))
        return model_csv, tmp_path / "halfbox.obj"

    def run(self, model_csv, surface, out, depth, merge):
        return main(
            [
                "octree",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--surfaces", str(surface),
                "--depth", str(depth),
                "--merge", merge,
                "--out", str(out),
            ]
        )

    def test_halfspace_decomposition(self, tmp_path):
        model_csv, surface = self.halfspace_scene(tmp_path)
        out = tmp_path / "oct.csv"
        assert self.run(model_csv, surface, out, depth=2, merge="none") == 0
        got = read_model_csv(out, SPEC)
        assert len(got.blocks) == 8
        assert all(b.cell_dims == (2, 2, 2) for b in got.blocks)
        labels, _ = paint_parent(SPEC, got.blocks)
        np.testing.assert_array_equal(np.unique(labels[:2]), [1])
        np.testing.assert_array_equal(np.unique(labels[2:]), [0])

    def test_intra_merge_reduces_count(self, tmp_path):
        model_csv, surface = self.halfspace_scene(tmp_path)
        out = tmp_path / "oct.csv"
        assert self.run(model_csv, surface, out, depth=2, merge="intra") == 0
        got = read_model_csv(out, SPEC)
        assert sorted((b.cell_min, b.cell_dims, b.label) for b in got.blocks) == [
            ((0, 0, 0), (4, 4, 2), 1),
            ((0, 0, 2), (4, 4, 2), 0),
        ]

    def test_missing_surface_exits_1(self, tmp_path, capsys):
        model_csv, _ = self.halfspace_scene(tmp_path)
        code = self.run(model_csv, tmp_path / "gone.obj", tmp_path / "oct.csv", 1, "none")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"reblock: mesh file not found: {tmp_path / 'gone.obj'}"]

    def test_non_dyadic_depth_exits_1(self, tmp_path, capsys):
        spec = LatticeSpec(origin=(0, 0, 0), parent_dims=(3, 3, 3), min_dims=(1, 1, 1))
        src = tmp_path / "odd.csv"
        write_model_csv(
            src,
            BlockModel(
                spec=spec,
                blocks=[Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(3, 3, 3), label=1)],
            ),
        )
        write_obj(tmp_path / "s.obj", box_mesh((-1, -1, -1), (4, 4, 1)))
        code = main(
            [
                "octree",
                "--parent-dims", "3,3,3",
                "--min-dims", "1,1,1",
                "--model", str(src),
                "--surfaces", str(tmp_path / "s.obj"),
                "--depth", "1",
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 1
        assert "(3, 3, 3)" in capsys.readouterr().err

    def test_more_than_63_surfaces_exits_1(self, tmp_path, capsys):
        # one label bit per surface: a 64th would shift out of the int64 label
        model_csv, surface = self.halfspace_scene(tmp_path)
        out = tmp_path / "oct.csv"
        code = main(
            [
                "octree",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--surfaces", *[str(surface)] * 64,
                "--depth", "1",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "reblock: octree labels hold at most 63 surfaces, one bit each; got 64\n"
        )
        assert not out.exists()

    def test_partial_parent_exits_1(self, tmp_path, capsys):
        # the first partial parent in (z, y, x) order is named
        src = tmp_path / "partial.csv"
        blocks = [
            Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(4, 4, 4), label=1),
            Block(parent=(0, 0, 1), cell_min=(0, 0, 0), cell_dims=(4, 4, 2), label=1),
            Block(parent=(1, 0, 0), cell_min=(0, 0, 2), cell_dims=(4, 4, 2), label=1),
            Block(parent=(1, 0, 0), cell_min=(0, 0, 0), cell_dims=(4, 4, 1), label=1),
        ]
        write_model_csv(src, BlockModel(spec=SPEC, blocks=blocks))
        write_obj(tmp_path / "s.obj", box_mesh((-1, -1, -1), (5, 5, 2)))
        code = self.run(src, tmp_path / "s.obj", tmp_path / "out.csv", depth=2, merge="none")
        assert code == 1
        assert capsys.readouterr().err == (
            "reblock: parent (1, 0, 0) is not fully covered; the octree baseline "
            "needs complete parents\n"
        )


class TestStatsCommand:
    def test_writes_all_artifacts(self, scene):
        tmp, model_csv, _ = scene
        out_dir = tmp / "metrics"
        code = main(
            [
                "stats",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "stats.csv").is_file()
        assert (out_dir / "icdf.csv").is_file()
        assert (out_dir / "cdf.csv").is_file()
        # growth needs several depths; a single model gets the header only
        assert (out_dir / "growth.csv").read_text() == "depth_hi,depth_lo,ratio\n"
        assert (out_dir / "manifest.txt").is_file()

    @pytest.mark.parametrize(
        "row, message",
        [("nan,1,1,1,1,1,0", "parent index nan"), ("1,1,1,inf,1,1,0", "block size inf")],
    )
    def test_non_finite_field_exits_1(self, tmp_path, capsys, row, message):
        model_csv = tmp_path / "m.csv"
        model_csv.write_text("x,y,z,dx,dy,dz,label\n" + row + "\n")
        code = main(
            [
                "stats",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--out-dir", str(tmp_path / "metrics"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"reblock: {model_csv}:2: non-finite {message}\n"


    @pytest.mark.parametrize(
        "row, message",
        [
            ("4e19,2,2,4,4,4,0", "parent index 1e+19 is out of range"),
            (
                "2,2,2,4,4,4,99999999999999999999999",
                "label 99999999999999999999999 is outside int64",
            ),
        ],
    )
    def test_field_outside_int64_exits_1(self, tmp_path, capsys, row, message):
        model_csv = tmp_path / "m.csv"
        model_csv.write_text("x,y,z,dx,dy,dz,label\n" + row + "\n")
        code = main(
            [
                "stats",
                *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--out-dir", str(tmp_path / "metrics"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"reblock: {model_csv}:2: {message}\n"

    def test_model_not_utf8_exits_1(self, tmp_path, capsys):
        model_csv = tmp_path / "m.csv"
        model_csv.write_bytes(b"x,y,z,dx,dy,dz,label\n2,2,2,4,4,4,1\n6,2,2,4,4,4,\xff\n")
        code = main(
            ["stats", *LATTICE_FLAGS, "--model", str(model_csv), "--out-dir", str(tmp_path / "m")]
        )
        assert code == 1
        assert capsys.readouterr().err == f"reblock: {model_csv}:3: not valid UTF-8\n"
        assert not (tmp_path / "m").exists()


CONFIG_KEYS = {
    "restructure": [
        "convention", "max_merge", "min_dims", "mode", "objective", "origin", "parent_dims",
        "scans", "token",
    ],
    "merge": [
        "convention", "max_merge", "min_dims", "objective", "origin", "parent_dims", "scans",
        "token",
    ],
    "octree": ["depth", "merge", "min_dims", "origin", "parent_dims"],
    "stats": ["min_dims", "origin", "parent_dims"],
}


class TestSharedSkeleton:
    @pytest.mark.parametrize("command", CONFIG_KEYS)
    def test_manifest_echoes_every_flag_but_paths_and_threads(self, scene, command):
        tmp, model_csv, config = scene
        out = tmp / "out.csv"
        flags = {
            "restructure": ["--config", str(config), "--out", str(out), "--threads", "1"],
            "merge": ["--convention", "persistent", "--out", str(out), "--threads", "1"],
            "octree": ["--surfaces", str(tmp / "flat.obj"), "--depth", "2", "--out", str(out)],
            "stats": ["--out-dir", str(tmp / "metrics")],
        }[command]
        assert main([command, *LATTICE_FLAGS, "--model", str(model_csv), *flags]) == 0
        manifest = tmp / ("metrics/manifest.txt" if command == "stats" else "out.csv.manifest.txt")
        keys = [l[7:].split("=")[0] for l in manifest_lines(manifest) if l.startswith("config ")]
        assert keys == CONFIG_KEYS[command]

    def test_token_changes_the_config_hash(self, scene):
        tmp, model_csv, config = scene
        hashes = []
        for token in ("1", "2"):
            out = tmp / f"out-{token}.csv"
            argv = [
                "restructure", *LATTICE_FLAGS,
                "--model", str(model_csv),
                "--config", str(config),
                "--out", str(out),
                "--threads", "1",
                "--token", token,
            ]
            assert main(argv) == 0
            lines = manifest_lines(tmp / f"out-{token}.csv.manifest.txt")
            assert f"config token={token}" in lines
            hashes += [l for l in lines if l.startswith("config_hash=")]
        assert len(hashes) == 2 and hashes[0] != hashes[1]

    @pytest.mark.parametrize("command", ["restructure", "merge"])
    def test_merge_cap_past_the_parent_exits_1(self, scene, capsys, command):
        # checked before any parent is merged, so also when no surface
        # crosses a parent
        tmp, model_csv, _ = scene
        write_obj(tmp / "far.obj", grid_surface((-1.0, 7.9), (-1.0, 5.0), 50.0))
        config = tmp / "far.cfg"
        config.write_text("surface=far.obj positive=0,0,1 above=10 across=20 below=30 forced=0\n")
        argv = [
            command, *LATTICE_FLAGS,
            "--model", str(model_csv),
            "--out", str(tmp / "out.csv"),
            "--max-merge", "9,9,9",
            "--threads", "1",
        ]
        restructure = command == "restructure"
        argv += ["--config", str(config)] if restructure else ["--convention", "dissolved"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "reblock: max merge dims cannot exceed the parent cell dimensions\n"
        )
        assert not (tmp / "out.csv").exists()

    @pytest.mark.parametrize("command", ["merge", "octree"])
    def test_empty_model_exits_1_and_writes_nothing(self, scene, capsys, command):
        tmp, _, _ = scene
        model_csv = tmp / "empty.csv"
        model_csv.write_text("x,y,z,dx,dy,dz,label\n")
        flags = {
            "merge": ["--convention", "dissolved", "--threads", "1"],
            "octree": ["--surfaces", str(tmp / "flat.obj"), "--depth", "2"],
        }[command]
        out = tmp / "out.csv"
        argv = [command, *LATTICE_FLAGS, "--model", str(model_csv), "--out", str(out), *flags]
        assert main(argv) == 1
        assert capsys.readouterr().err == "reblock: cannot compute statistics of an empty model\n"
        assert sorted(p.name for p in tmp.iterdir()) == ["empty.csv", "flat.obj", "in.csv", "tags.cfg"]


class TestParserBehaviour:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert f"reblock {reblock.__version__}" in capsys.readouterr().out

    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["stats", "--bogus"]) == 1
        capsys.readouterr()

    def test_bad_triple_exits_1(self, capsys):
        code = main(
            ["stats", "--parent-dims", "4,4", "--min-dims", "1,1,1",
             "--model", "m.csv", "--out-dir", "d"]
        )
        assert code == 1
        assert "expected 'x,y,z'" in capsys.readouterr().err

    def test_non_numeric_origin_exits_1(self, capsys):
        code = main(
            ["stats", "--origin", "a,b,c", *LATTICE_FLAGS, "--model", "m.csv", "--out-dir", "d"]
        )
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "reblock stats: error: argument --origin: non-numeric triple 'a,b,c'\n"
        )

    @pytest.mark.parametrize(
        "threads, message",
        [
            ("0", "process count must be at least 1, got 0"),
            ("-3", "process count must be at least 1, got -3"),
            ("two", "non-integer process count 'two'"),
        ],
    )
    @pytest.mark.parametrize("command", ["restructure", "merge"])
    def test_bad_thread_count_exits_1_with_usage(self, scene, capsys, command, threads, message):
        """A process count below 1, or not an integer, is refused with the
        flags, before the model is read: even a restructure with no
        instructions, which would return its input unchanged, writes
        nothing."""
        tmp, model_csv, _ = scene
        comments = tmp / "comments.cfg"
        comments.write_text("# no surfaces\n")
        flags = {"restructure": ["--config", str(comments)], "merge": ["--convention", "dissolved"]}
        out = tmp / "out.csv"
        argv = [command, *LATTICE_FLAGS, "--model", str(model_csv), "--out", str(out), "--threads", threads]
        assert main(argv + flags[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: reblock {command} ")
        assert err.endswith(f"reblock {command}: error: argument --threads: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--refine-area", "--refine-edge"])
    def test_removed_refinement_flags_exit_1_with_usage(self, scene, capsys, flag):
        """Restructure has no surface refinement: ``--refine-area`` and
        ``--refine-edge`` are refused like any unknown flag, before the
        model is read."""
        tmp, model_csv, config = scene
        out = tmp / "out.csv"
        argv = ["restructure", *LATTICE_FLAGS, "--model", str(model_csv), "--config", str(config)]
        assert main(argv + ["--out", str(out), flag, "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: reblock ")
        assert err.endswith(f"reblock: error: unrecognized arguments: {flag} 1\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--origin", "nan,0,0", *LATTICE_FLAGS], "origin must be finite, got (nan, 0.0, 0.0)"),
            (
                ["--parent-dims", "4,4,inf", "--min-dims", "1,1,1"],
                "parent_dims must be finite, got (4.0, 4.0, inf)",
            ),
            (
                ["--parent-dims", "4,4,4", "--min-dims", "1,-inf,1"],
                "min_dims must be finite, got (1.0, -inf, 1.0)",
            ),
        ],
    )
    def test_non_finite_lattice_flag_exits_1(self, scene, capsys, flags, message):
        tmp, model_csv, _ = scene
        argv = ["stats", *flags, "--model", str(model_csv), "--out-dir", str(tmp / "metrics")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"reblock: lattice {message}\n"
        assert not (tmp / "metrics").exists()

    def test_module_entry_point(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"reblock {reblock.__version__}"
