"""Batch command-line frontend.

Four subcommands — ``restructure``, ``merge``, ``octree``, ``stats`` —
wire model CSVs, surface meshes, and the tagging config to the library.
Exit codes: 0 success, 1 validation problem (bad inputs, bad flags),
2 geometry failure.  Every successful run writes a manifest next to its
output recording input hashes, the effective configuration, and counts;
reruns on identical inputs differ only in the timing line.

There is deliberately no ``--seed`` flag: the library makes no random
choice, so runs are reproducible by construction.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .errors import GeometryError, ValidationError
from .lattice import (
    BlockModel,
    Block,
    LatticeSpec,
    cell_lut,
    paint_parent,
    parent_min_corner,
    read_model_csv,
    write_model_csv,
)
from .merge import ALL_SCAN_PATTERNS, MergeParams
from .mesh import RefineParams, build_index, integrity_check, load_mesh
from .metrics import (
    block_dimension_cdf,
    compute_stats,
    aspect_ratio_icdf,
    write_cdf_csv,
    write_growth_csv,
    write_icdf_csv,
    write_stats_csv,
)
from .octree import octree_decompose, validate_dyadic
from .parallel import default_threads
from .pipeline import PipelineConfig, merge_model, restructure
from .sidedness import SIDE_BELOW, cast_parity_many
from .tagging import parse_instruction_file


def _float_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'x,y,z', got '{text}'")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"non-numeric triple '{text}'") from exc
    return x, y, z


def _int_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'nx,ny,nz', got '{text}'")
    try:
        x, y, z = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"non-integer triple '{text}'") from exc
    return x, y, z


def _add_lattice_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--origin",
        type=_float_triple,
        default=(0.0, 0.0, 0.0),
        help="lattice origin 'x,y,z' (default 0,0,0)",
    )
    sub.add_argument(
        "--parent-dims",
        type=_float_triple,
        required=True,
        help="parent block size 'dx,dy,dz'",
    )
    sub.add_argument(
        "--min-dims",
        type=_float_triple,
        required=True,
        help="minimum block (cell) size 'dx,dy,dz'",
    )


def _spec_from(args: argparse.Namespace) -> LatticeSpec:
    return LatticeSpec(
        origin=args.origin, parent_dims=args.parent_dims, min_dims=args.min_dims
    )


def _merge_params(args: argparse.Namespace) -> MergeParams:
    return MergeParams(
        convention=args.convention,
        objective=args.objective,
        token_life=args.token,
        max_dims=args.max_merge,
        scan_patterns=ALL_SCAN_PATTERNS if args.scans == 8 else (0,),
    )


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    path: str | Path,
    inputs: Sequence[str | Path],
    config_echo: Mapping[str, object],
    threads: int | None,
    outputs: Mapping[str, int],
    wall_time_s: float,
) -> None:
    """Structured-text run record; the timing line is last and is the
    only line allowed to differ between reruns on identical inputs."""
    lines = [f"tool=reblock {__version__}"]
    hashes = []
    for p in inputs:
        h = _sha256(p)
        hashes.append(h)
        lines.append(f"input={p} sha256={h}")
    for key in sorted(config_echo):
        lines.append(f"config {key}={config_echo[key]}")
    blob = "\n".join(hashes + [f"{k}={config_echo[k]}" for k in sorted(config_echo)])
    lines.append(f"config_hash={hashlib.sha256(blob.encode()).hexdigest()}")
    if threads is not None:
        lines.append(f"threads={threads}")
    for key in sorted(outputs):
        lines.append(f"output {key}={outputs[key]}")
    lines.append(f"wall_time_s={wall_time_s:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


def _stats_path(out: str) -> Path:
    p = Path(out)
    return p.parent / (p.stem + ".stats.csv")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_restructure(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = _spec_from(args)
    model = read_model_csv(args.model, spec)
    instructions = parse_instruction_file(args.config)
    refine = None
    if args.refine_area is not None or args.refine_edge is not None:
        refine = RefineParams(
            max_triangle_area=(
                args.refine_area if args.refine_area is not None else float("inf")
            ),
            max_edge_length=(
                args.refine_edge if args.refine_edge is not None else float("inf")
            ),
        )
    config = PipelineConfig(
        instructions=tuple(instructions),
        merge_params=_merge_params(args),
        mode=args.mode,
        refine_params=refine,
        diagnostics_dir=args.diagnostics_dir,
    )
    result = restructure(model, config, threads=args.threads)
    n_rows = write_model_csv(args.out, result)
    write_manifest(
        args.manifest or f"{args.out}.manifest.txt",
        inputs=[args.model, args.config] + [i.surface_path for i in instructions],
        config_echo={
            "mode": args.mode,
            "convention": args.convention,
            "objective": args.objective,
            "scans": args.scans,
            "token": args.token,
            "max_merge": args.max_merge,
            "origin": args.origin,
            "parent_dims": args.parent_dims,
            "min_dims": args.min_dims,
        },
        threads=args.threads,
        outputs={"blocks": n_rows},
        wall_time_s=time.perf_counter() - t0,
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = _spec_from(args)
    model = read_model_csv(args.model, spec)
    merged = merge_model(model, _merge_params(args), threads=args.threads)
    n_rows = write_model_csv(args.out, merged)
    write_stats_csv(_stats_path(args.out), compute_stats(merged))
    write_manifest(
        args.manifest or f"{args.out}.manifest.txt",
        inputs=[args.model],
        config_echo={
            "convention": args.convention,
            "objective": args.objective,
            "scans": args.scans,
            "token": args.token,
            "max_merge": args.max_merge,
            "origin": args.origin,
            "parent_dims": args.parent_dims,
            "min_dims": args.min_dims,
        },
        threads=args.threads,
        outputs={"blocks": n_rows},
        wall_time_s=time.perf_counter() - t0,
    )
    return 0


def _cmd_octree(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = _spec_from(args)
    model = read_model_csv(args.model, spec)
    validate_dyadic(spec.cell_counts, args.depth)
    surfaces = []
    for path in args.surfaces:
        if not Path(path).is_file():
            raise ValidationError(f"surface file not found: {path}")
        mesh, _ = integrity_check(load_mesh(path))
        surfaces.append((mesh, build_index(mesh)))

    by_parent = model.by_parent()
    lut = cell_lut(spec)
    kx, ky, kz = spec.cell_counts
    out_blocks: list[Block] = []
    for parent in sorted(by_parent, key=lambda p: (p[2], p[1], p[0])):
        _, owner = paint_parent(spec, model.take(by_parent[parent]))
        if (owner < 0).any():
            raise ValidationError(
                f"parent {parent} is not fully covered; the octree baseline "
                "needs complete parents"
            )
        centers = lut + np.asarray(parent_min_corner(spec, parent))
        labels = np.zeros(spec.cells_per_parent, dtype=np.int64)
        for sid, (mesh, index) in enumerate(surfaces):
            batch = cast_parity_many(centers, mesh, index)
            labels |= (batch.sides == SIDE_BELOW).astype(np.int64) << sid
        grid = labels.reshape(kz, ky, kx)
        for blk in octree_decompose(grid, args.depth, args.merge == "intra"):
            out_blocks.append(Block(parent, blk.cell_min, blk.cell_dims, blk.label))

    result = BlockModel(spec, out_blocks)
    n_rows = write_model_csv(args.out, result)
    write_stats_csv(_stats_path(args.out), compute_stats(result))
    write_manifest(
        args.manifest or f"{args.out}.manifest.txt",
        inputs=[args.model] + list(args.surfaces),
        config_echo={
            "depth": args.depth,
            "merge": args.merge,
            "origin": args.origin,
            "parent_dims": args.parent_dims,
            "min_dims": args.min_dims,
        },
        threads=None,
        outputs={"blocks": n_rows},
        wall_time_s=time.perf_counter() - t0,
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    spec = _spec_from(args)
    model = read_model_csv(args.model, spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_stats_csv(out / "stats.csv", compute_stats(model))
    write_icdf_csv(out / "icdf.csv", aspect_ratio_icdf(model))
    write_cdf_csv(out / "cdf.csv", block_dimension_cdf(model))
    # Growth ratios need runs at several depths; a single model has none.
    write_growth_csv(out / "growth.csv", ())
    write_manifest(
        out / "manifest.txt",
        inputs=[args.model],
        config_echo={
            "origin": args.origin,
            "parent_dims": args.parent_dims,
            "min_dims": args.min_dims,
        },
        threads=None,
        outputs={"blocks": len(model)},
        wall_time_s=time.perf_counter() - t0,
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage problems are validation problems: exit 1, not argparse's 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reblock",
        description="Restructure block models against triangle-mesh surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"reblock {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "restructure", help="full pipeline: overlap, classify, merge, tag"
    )
    _add_lattice_flags(p)
    p.add_argument("--model", required=True, help="input block-model CSV")
    p.add_argument("--config", required=True, help="tagging-instruction file")
    p.add_argument("--out", required=True, help="output block-model CSV")
    p.add_argument(
        "--mode",
        choices=("preclassified", "legacy-two-set"),
        default="preclassified",
        help="consolidation regime (default preclassified)",
    )
    p.add_argument(
        "--convention",
        choices=("dissolved", "persistent"),
        default="dissolved",
        help="merging convention (default dissolved)",
    )
    p.add_argument(
        "--objective",
        choices=("count", "aspect"),
        default="count",
        help="scan-pattern selection objective (default count)",
    )
    p.add_argument(
        "--scans", type=int, choices=(1, 8), default=8,
        help="1 = standard scan only, 8 = all mirrored scans (default 8)",
    )
    p.add_argument("--token", type=int, default=None, help="token life span")
    p.add_argument(
        "--max-merge", type=_int_triple, default=None,
        help="cap on merged cell dims 'nx,ny,nz'",
    )
    p.add_argument(
        "--refine-area", type=float, default=None,
        help="refine surfaces until triangle areas are below this",
    )
    p.add_argument(
        "--refine-edge", type=float, default=None,
        help="refine surfaces until edge lengths are below this",
    )
    p.add_argument(
        "--threads", type=int, default=default_threads(),
        help="worker processes for per-parent stages",
    )
    p.add_argument("--manifest", default=None, help="manifest path override")
    p.add_argument(
        "--diagnostics-dir", default=None,
        help="also write overlap.csv and sidedness.csv here",
    )
    p.set_defaults(func=_cmd_restructure)

    p = subs.add_parser("merge", help="standalone class-by-class merging")
    _add_lattice_flags(p)
    p.add_argument("--model", required=True, help="input block-model CSV")
    p.add_argument("--out", required=True, help="output block-model CSV")
    p.add_argument(
        "--convention", choices=("dissolved", "persistent"), required=True
    )
    p.add_argument(
        "--objective", choices=("count", "aspect"), default="count"
    )
    p.add_argument("--scans", type=int, choices=(1, 8), default=8)
    p.add_argument("--token", type=int, default=None, help="token life span")
    p.add_argument("--max-merge", type=_int_triple, default=None)
    p.add_argument("--threads", type=int, default=default_threads())
    p.add_argument("--manifest", default=None, help="manifest path override")
    p.set_defaults(func=_cmd_merge)

    p = subs.add_parser("octree", help="octree baseline decomposition")
    _add_lattice_flags(p)
    p.add_argument("--model", required=True, help="input block-model CSV")
    p.add_argument(
        "--surfaces", nargs="+", required=True, help="surface mesh files"
    )
    p.add_argument("--depth", type=int, required=True, help="maximum depth")
    p.add_argument(
        "--merge", choices=("none", "intra"), default="none",
        help="intra-scale octant merging (default none)",
    )
    p.add_argument("--out", required=True, help="output block-model CSV")
    p.add_argument("--manifest", default=None, help="manifest path override")
    p.set_defaults(func=_cmd_octree)

    p = subs.add_parser("stats", help="emit metric CSVs for a model")
    _add_lattice_flags(p)
    p.add_argument("--model", required=True, help="input block-model CSV")
    p.add_argument("--out-dir", required=True, help="directory for the CSVs")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"reblock: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"reblock: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"reblock: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
