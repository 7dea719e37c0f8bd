"""Domain tagging: turning per-surface sidedness into block labels.

Each surface carries an instruction with three candidate labels (above /
across / below).  A positive label assigns it, zero requests the layered
abstract label, and a negative value means "this position is not mine to
touch".  A block for which *any* instruction selects a negative label
keeps its input label outright — that is what lets one instruction pair
carve an embedded layer out of a pre-labelled model while everything
outside the layer survives untouched; otherwise the last instruction
decides.  ``forced`` resolves blocks straddling a surface to strictly
above/below (by cell majority) before the label lookup, so
boundary-hugging blocks can be pushed into a side domain instead of
keeping a boundary identity.  The abstract label 2(n+1) - σ, for the
surface n a block affiliates with in a layered stack (surfaces listed
top-down) and its side σ of it, equals S + 1 - Σσ over all S surfaces:
a layered sign row is some -1s, at most one 0, then +1s.
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
    label keep ``input_labels``.  A block that selects a zero label
    anywhere must have a layered row.
    """
    positions = np.asarray(positions)
    majority_sides = np.asarray(majority_sides)
    input_labels = np.asarray(input_labels).astype(np.int64)
    n_surfaces = positions.shape[1]
    if len(instructions) != n_surfaces:
        raise MissingSidedness(
            f"{len(instructions)} instructions but positions for {n_surfaces} surfaces"
        )
    if majority_sides.shape != positions.shape or input_labels.shape != positions.shape[:1]:
        raise MissingSidedness("majority sides or input labels shape does not match positions")
    for values, allowed, what in (
        (positions, (BELOW, ACROSS, ABOVE), "position"),
        (majority_sides, (BELOW, ABOVE), "majority side"),
    ):
        bad = np.argwhere(~np.isin(values, allowed))
        if len(bad):
            b, s = bad[0].tolist()
            raise ValidationError(f"block {b}, surface {s}: {what} {values[b, s]} not in {allowed}")
    if n_surfaces == 0:
        return input_labels

    forced = np.array([i.forced for i in instructions])
    effective = np.where(forced & (positions == ACROSS), majority_sides, positions).astype(np.int64)
    table = np.array([(i.label_below, i.label_across, i.label_above) for i in instructions])
    selected = table[np.arange(n_surfaces), effective + 1]
    veto = (selected < 0).any(axis=1)

    # surfaces listed top-down: a layered row never decreases and
    # straddles at most one surface
    abstract = ~veto & (selected == 0).any(axis=1)
    crossing = (np.diff(effective, axis=1) < 0).any(axis=1)
    unlayered = abstract & (crossing | ((effective == ACROSS).sum(axis=1) > 1))
    if unlayered.any():
        i = int(np.argmax(unlayered))
        row = tuple(effective[i].tolist())
        if crossing[i]:
            raise InconsistentSidedness(f"sidedness vector {row} is not layered")
        raise InconsistentSidedness(f"sidedness vector {row} straddles multiple surfaces")

    last = selected[:, -1]
    labels = np.where(last > 0, last, n_surfaces + 1 - effective.sum(axis=1))
    return np.where(veto, input_labels, labels)
