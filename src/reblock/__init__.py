"""Restructure 3D block models against triangle-mesh surfaces.

The package splits into small, separately usable layers:

- :mod:`reblock.lattice` — the two-tier block lattice and model CSV I/O
- :mod:`reblock.mesh` — OFF/OBJ loading, integrity checks, refinement,
  and a sort-and-sweep index for triangle bounding-box queries
- :mod:`reblock.intersection` — exact triangle/box overlap (SAT)
- :mod:`reblock.sidedness` — ray-parity above/below classification
- :mod:`reblock.merge` — coordinate-ascent cell merging, two conventions
- :mod:`reblock.octree` — the octree baseline with intra-scale merging
- :mod:`reblock.tagging` — instruction-driven domain labelling
- :mod:`reblock.pipeline` — the drivers: restructure, merge, octree baseline
- :mod:`reblock.metrics` — block-count / volume / aspect-ratio reports
"""

from .errors import (
    GeometryError,
    ReblockError,
    ValidationError,
)
from .lattice import (
    Block,
    BlockModel,
    LatticeSpec,
    UNLABELLED,
    read_model_csv,
    write_model_csv,
)
from .merge import MergedBlock, MergeParams, merge_class
from .mesh import RefineParams, TriangleMesh, build_index, load_mesh, refine_mesh
from .intersection import OverlapMap, detect_overlaps
from .sidedness import cast_parity, cast_parity_many, classify_cells
from .tagging import TaggingInstruction, apply_tagging, parse_instruction_file
from .pipeline import (
    PipelineConfig,
    load_surfaces,
    merge_model,
    octree_model,
    restructure,
)
from .metrics import compute_stats, growth_factors

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockModel",
    "GeometryError",
    "LatticeSpec",
    "MergeParams",
    "MergedBlock",
    "OverlapMap",
    "PipelineConfig",
    "ReblockError",
    "RefineParams",
    "TaggingInstruction",
    "TriangleMesh",
    "UNLABELLED",
    "ValidationError",
    "apply_tagging",
    "build_index",
    "cast_parity",
    "cast_parity_many",
    "classify_cells",
    "compute_stats",
    "detect_overlaps",
    "growth_factors",
    "load_mesh",
    "load_surfaces",
    "merge_class",
    "merge_model",
    "octree_model",
    "parse_instruction_file",
    "read_model_csv",
    "refine_mesh",
    "restructure",
    "write_model_csv",
]
