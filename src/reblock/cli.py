"""Batch command-line frontend.

Four subcommands — ``restructure``, ``merge``, ``octree``, ``stats`` —
wire model CSVs, surface meshes, and the tagging config to the library;
the first three are each one call of a library driver (``restructure``,
``merge_model``, ``octree_model``).  They share one skeleton: :func:`main`
reads the input model on the lattice the flags give, the subcommand
computes its result, and :func:`_finish` writes the output model (with
its ``<stem>.stats.csv`` for ``merge`` and ``octree``) and a manifest
next to it.  The manifest records input hashes, the configuration —
every flag but file paths and ``--threads`` — and its hash, the thread
count and the block count; reruns on identical inputs differ only in the
timing line.

Exit codes: 0 success, 1 validation problem (bad inputs, bad flags),
2 geometry failure.

There is deliberately no ``--seed`` flag: the library makes no random
choice, so runs are reproducible by construction.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__
from .errors import GeometryError, ValidationError
from .lattice import BlockModel, LatticeSpec, read_model_csv, write_model_csv
from .merge import ALL_SCAN_PATTERNS, MergeParams
from .metrics import (
    block_dimension_cdf,
    compute_stats,
    aspect_ratio_icdf,
    write_cdf_csv,
    write_growth_csv,
    write_icdf_csv,
    write_stats_csv,
)
from .parallel import default_threads
from .pipeline import PipelineConfig, merge_model, octree_model, restructure
from .tagging import parse_instruction_file

# parsed entries the manifest does not echo: file paths, --threads, and
# argparse's own
_NOT_CONFIG = frozenset(
    ("command", "func", "threads", "model", "config", "surfaces", "out", "out_dir",
     "manifest", "diagnostics_dir")
)


def _triple(kind: type, form: str, noun: str) -> Callable[[str], tuple]:
    """An argparse type reading ``form``, three comma-separated ``kind``s."""

    def parse(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected '{form}', got '{text}'")
        try:
            return tuple(kind(p) for p in parts)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"non-{noun} triple '{text}'") from exc

    return parse


def _process_count(text: str) -> int:
    """An argparse type reading ``--threads``: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer process count '{text}'") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"process count must be at least 1, got {count}")
    return count


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


def _finish(
    args: argparse.Namespace, t0: float, result: BlockModel, inputs: Sequence[str | Path]
) -> int:
    """Write ``result`` to ``--out``, with its ``<stem>.stats.csv`` for
    ``merge`` and ``octree``, then the manifest (into ``--out-dir`` for
    ``stats``, which writes its own CSVs).  The stats are computed first,
    so a model they reject leaves no output behind."""
    if "out" in args:
        stats = compute_stats(result) if args.command in ("merge", "octree") else None
        blocks = write_model_csv(args.out, result)
        if stats is not None:
            out = Path(args.out)
            write_stats_csv(out.parent / (out.stem + ".stats.csv"), stats)
        manifest = args.manifest or f"{args.out}.manifest.txt"
    else:
        blocks, manifest = len(result), Path(args.out_dir) / "manifest.txt"
    write_manifest(
        manifest,
        inputs=[args.model, *inputs],
        config_echo={k: v for k, v in vars(args).items() if k not in _NOT_CONFIG},
        threads=getattr(args, "threads", None),
        outputs={"blocks": blocks},
        wall_time_s=time.perf_counter() - t0,
    )
    return 0


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed flags and the input model, and returns
# its result and the inputs it read besides the model
# ---------------------------------------------------------------------------

def _cmd_restructure(args: argparse.Namespace, model: BlockModel) -> tuple[BlockModel, list]:
    instructions = parse_instruction_file(args.config)
    config = PipelineConfig(
        instructions=tuple(instructions),
        merge_params=_merge_params(args),
        mode=args.mode,
        diagnostics_dir=args.diagnostics_dir,
    )
    result = restructure(model, config, threads=args.threads)
    return result, [args.config, *(i.surface_path for i in instructions)]


def _cmd_merge(args: argparse.Namespace, model: BlockModel) -> tuple[BlockModel, list]:
    return merge_model(model, _merge_params(args), threads=args.threads), []


def _cmd_octree(args: argparse.Namespace, model: BlockModel) -> tuple[BlockModel, list]:
    result = octree_model(model, args.surfaces, args.depth, args.merge == "intra")
    return result, list(args.surfaces)


def _cmd_stats(args: argparse.Namespace, model: BlockModel) -> tuple[BlockModel, list]:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_stats_csv(out / "stats.csv", compute_stats(model))
    write_icdf_csv(out / "icdf.csv", aspect_ratio_icdf(model))
    write_cdf_csv(out / "cdf.csv", block_dimension_cdf(model))
    # Growth ratios need runs at several depths; a single model has none.
    write_growth_csv(out / "growth.csv", ())
    return model, []


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage problems are validation problems: exit 1, not argparse's 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_command(subs, name: str, help: str, func, writes_model: bool = True):
    """A subcommand with the lattice flags and ``--model``, plus ``--out``
    and ``--manifest`` when it writes a model."""
    p = subs.add_parser(name, help=help)
    coords = _triple(float, "x,y,z", "numeric")
    p.add_argument(
        "--origin", type=coords, default=(0.0, 0.0, 0.0),
        help="lattice origin 'x,y,z' (default 0,0,0)",
    )
    p.add_argument("--parent-dims", type=coords, required=True, help="parent block size 'dx,dy,dz'")
    p.add_argument(
        "--min-dims", type=coords, required=True, help="minimum block (cell) size 'dx,dy,dz'"
    )
    p.add_argument("--model", required=True, help="input block-model CSV")
    if writes_model:
        p.add_argument("--out", required=True, help="output block-model CSV")
        p.add_argument("--manifest", default=None, help="manifest path override")
    p.set_defaults(func=func)
    return p


def _add_merge_flags(p: argparse.ArgumentParser, convention_required: bool) -> None:
    p.add_argument(
        "--convention",
        choices=("dissolved", "persistent"),
        default="dissolved",
        required=convention_required,
        help="merging convention" + ("" if convention_required else " (default dissolved)"),
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
        "--max-merge", type=_triple(int, "nx,ny,nz", "integer"), default=None,
        help="cap on merged cell dims 'nx,ny,nz'",
    )
    p.add_argument(
        "--threads", type=_process_count, default=default_threads(),
        help="processes, this one included, for per-parent stages (default: the CPUs it may use)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reblock",
        description="Restructure block models against triangle-mesh surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"reblock {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_command(
        subs, "restructure", "full pipeline: overlap, classify, merge, tag", _cmd_restructure
    )
    p.add_argument("--config", required=True, help="tagging-instruction file")
    p.add_argument(
        "--mode",
        choices=("preclassified", "legacy-two-set"),
        default="preclassified",
        help="consolidation regime (default preclassified)",
    )
    _add_merge_flags(p, convention_required=False)
    p.add_argument(
        "--diagnostics-dir", default=None,
        help="also write overlap.csv and sidedness.csv here",
    )

    p = _add_command(subs, "merge", "standalone class-by-class merging", _cmd_merge)
    _add_merge_flags(p, convention_required=True)

    p = _add_command(subs, "octree", "octree baseline decomposition", _cmd_octree)
    p.add_argument("--surfaces", nargs="+", required=True, help="surface mesh files")
    p.add_argument("--depth", type=int, required=True, help="maximum depth")
    p.add_argument(
        "--merge", choices=("none", "intra"), default="none",
        help="intra-scale octant merging (default none)",
    )

    p = _add_command(
        subs, "stats", "emit metric CSVs for a model", _cmd_stats, writes_model=False
    )
    p.add_argument("--out-dir", required=True, help="directory for the CSVs")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        t0 = time.perf_counter()
        spec = LatticeSpec(
            origin=args.origin, parent_dims=args.parent_dims, min_dims=args.min_dims
        )
        result, inputs = args.func(args, read_model_csv(args.model, spec))
        return _finish(args, t0, result, inputs)
    except (ValidationError, GeometryError, OSError) as exc:
        print(f"reblock: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, GeometryError) else 1


if __name__ == "__main__":
    sys.exit(main())
