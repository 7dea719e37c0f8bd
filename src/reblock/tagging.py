"""Domain tagging: turning per-surface sidedness into block labels.

Each surface carries an instruction with three candidate labels (above /
across / below).  A positive label assigns it, zero requests the layered
abstract label, and a negative value means "this position is not mine to
touch".  A block for which *any* instruction selects a negative label
keeps its input label outright — that is what lets one instruction pair
carve an embedded layer out of a pre-labelled model while everything
outside the layer survives untouched.  ``forced`` resolves blocks
straddling a surface to strictly above/below (by cell majority) before
the label lookup, so boundary-hugging blocks can be pushed into a side
domain instead of keeping a boundary identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InconsistentSidedness, MissingSidedness, ValidationError
from .geometry import Vec3, vec3
from .tables import read_text

ACROSS = 0
ABOVE = 1
BELOW = -1

_INSTRUCTION_KEYS = ("surface", "positive", "above", "across", "below", "forced")


@dataclass(frozen=True)
class TaggingInstruction:
    """One surface's labelling rule.

    Labels: > 0 assigns the value, == 0 assigns the layered abstract
    label, < 0 keeps existing labels intact.
    """

    surface_path: str
    positive_direction: Vec3
    label_above: int
    label_across: int
    label_below: int
    forced: bool = False


def parse_instruction_file(path: str | Path) -> list[TaggingInstruction]:
    """Read `surface= positive= above= across= below= forced=` records.

    One record per line; ``#`` starts a comment; surface paths are
    resolved relative to the file's directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"instruction file not found: {path}")
    base = path.parent
    out: list[TaggingInstruction] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields: dict[str, str] = {}
        for token in line.split():
            if "=" not in token:
                raise ValidationError(
                    f"{path}:{lineno}: expected key=value tokens, got '{token}'"
                )
            key, value = token.split("=", 1)
            if key not in _INSTRUCTION_KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown key '{key}'")
            if key in fields:
                raise ValidationError(f"{path}:{lineno}: duplicate key '{key}'")
            fields[key] = value
        missing = [k for k in _INSTRUCTION_KEYS if k not in fields]
        if missing:
            raise ValidationError(
                f"{path}:{lineno}: missing keys: {', '.join(missing)}"
            )
        try:
            ux, uy, uz = (float(v) for v in fields["positive"].split(","))
        except ValueError as exc:
            raise ValidationError(
                f"{path}:{lineno}: positive direction must be 'ux,uy,uz'"
            ) from exc
        norm = math.hypot(ux, uy, uz)  # no overflow or underflow in the squares
        if norm == 0.0 or not math.isfinite(norm):
            raise ValidationError(
                f"{path}:{lineno}: positive direction must be non-zero and finite"
            )
        try:
            above = int(fields["above"])
            across = int(fields["across"])
            below = int(fields["below"])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: labels must be integers") from exc
        if not all(-(2**63) <= label < 2**63 for label in (above, across, below)):
            raise ValidationError(f"{path}:{lineno}: labels must be integers within int64")
        if fields["forced"] not in ("0", "1"):
            raise ValidationError(f"{path}:{lineno}: forced must be 0 or 1")
        surface = Path(fields["surface"])
        if not surface.is_absolute():
            surface = base / surface
        out.append(
            TaggingInstruction(
                surface_path=str(surface),
                positive_direction=vec3(ux / norm, uy / norm, uz / norm),
                label_above=above,
                label_across=across,
                label_below=below,
                forced=fields["forced"] == "1",
            )
        )
    return out


# ---------------------------------------------------------------------------
# layered abstract labels
# ---------------------------------------------------------------------------

def abstract_label(n: int, sigma: int) -> int:
    """Layer/boundary label for affiliated surface ``n``: 2(n+1) - sigma.

    Layers (sigma = ±1) get odd labels, boundaries (sigma = 0) even ones.
    """
    if n < 0:
        raise ValidationError("surface ordinal must be non-negative")
    if sigma not in (-1, 0, 1):
        raise ValidationError(f"sigma must be -1, 0 or +1, got {sigma}")
    return 2 * (n + 1) - sigma


def affiliated_surface(sigmas: Sequence[int]) -> tuple[int, int]:
    """(surface ordinal, sigma) a block affiliates with in a layered stack.

    Surfaces are ordered top-down, so a valid sign vector is monotone:
    some leading -1s (surfaces above the block), at most one 0 (the
    surface it straddles), then +1s (surfaces below it).  Anything else
    means the surfaces cross and the stack is not layered.
    """
    if len(sigmas) == 0:
        raise ValidationError("affiliation requires at least one surface")
    prev = -1
    zeros = 0
    for v in sigmas:
        if v not in (-1, 0, 1):
            raise ValidationError(f"sigma must be -1, 0 or +1, got {v}")
        if v < prev:
            raise InconsistentSidedness(
                f"sidedness vector {tuple(sigmas)} is not layered"
            )
        prev = v
        if v == 0:
            zeros += 1
    if zeros > 1:
        raise InconsistentSidedness(
            f"sidedness vector {tuple(sigmas)} straddles multiple surfaces"
        )
    leading = 0
    for v in sigmas:
        if v != -1:
            break
        leading += 1
    if zeros:
        return leading, 0
    if leading == 0:
        return 0, 1
    return leading - 1, -1


# ---------------------------------------------------------------------------
# instruction application
# ---------------------------------------------------------------------------

def apply_tagging(
    positions: np.ndarray,
    majority_sides: np.ndarray,
    input_labels: np.ndarray,
    instructions: Sequence[TaggingInstruction],
) -> np.ndarray:
    """Label blocks from their per-surface positions.

    ``positions`` is (B, S) in {+1 above, 0 across, -1 below} with
    surface s = instruction s; ``majority_sides`` (B, S) in {+1, -1} is
    the cell-majority side used when ``forced`` must resolve an across
    position.  Returns new labels; blocks vetoed by any negative selected
    label keep ``input_labels``.
    """
    positions = np.asarray(positions)
    majority_sides = np.asarray(majority_sides)
    input_labels = np.asarray(input_labels)
    n_blocks, n_surfaces = positions.shape
    if len(instructions) != n_surfaces:
        raise MissingSidedness(
            f"{len(instructions)} instructions but positions for "
            f"{n_surfaces} surfaces"
        )
    if majority_sides.shape != positions.shape:
        raise MissingSidedness("majority sides shape does not match positions")

    effective = positions.copy()
    for s, instr in enumerate(instructions):
        if instr.forced:
            across = effective[:, s] == ACROSS
            effective[across, s] = majority_sides[across, s]

    selected = np.empty((n_blocks, n_surfaces), dtype=np.int64)
    for s, instr in enumerate(instructions):
        col = effective[:, s]
        selected[:, s] = np.where(
            col == ABOVE,
            instr.label_above,
            np.where(col == BELOW, instr.label_below, instr.label_across),
        )

    veto = (selected < 0).any(axis=1)
    out = input_labels.astype(np.int64).copy()
    needs_abstract = ~veto & (selected == 0).any(axis=1)
    abstract = np.zeros(n_blocks, dtype=np.int64)
    for i in np.flatnonzero(needs_abstract):
        n, sigma = affiliated_surface([int(v) for v in effective[i]])
        abstract[i] = abstract_label(n, sigma)
    for s in range(n_surfaces):
        lam = selected[:, s]
        assign = ~veto & (lam > 0)
        out[assign] = lam[assign]
        assign_abs = ~veto & (lam == 0)
        out[assign_abs] = abstract[assign_abs]
    return out
