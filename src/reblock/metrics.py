"""Model quality instruments: counts, volumes, aspect-ratio summaries.

Everything here is read-only over a block model and emits plot-ready,
deterministically sorted series.  CSV artifacts use fixed 6-decimal
formatting so goldens diff cleanly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyInput, ValidationError
from .lattice import BlockModel

STATS_HEADER = (
    "label",
    "block_count",
    "volume",
    "pct_volume",
    "vw_aspect_ratio",
    "cw_aspect_ratio",
)
ICDF_HEADER = ("cumulative_fraction", "vw_aspect_ratio")
CDF_HEADER = ("volume", "aspect_ratio", "cumulative_fraction")
GROWTH_HEADER = ("depth_hi", "depth_lo", "ratio")


@dataclass(frozen=True)
class LabelRow:
    """One stats-table row (a single label, or the aggregate)."""

    label: int | None
    block_count: int
    volume: float
    pct_volume: float
    vw_aspect_ratio: float
    cw_aspect_ratio: float


@dataclass(frozen=True)
class ModelStats:
    per_label: tuple[LabelRow, ...]
    aggregate: LabelRow


def _block_metrics(model: BlockModel) -> tuple[np.ndarray, ...]:
    """Per-block (label, volume, aspect ratio) arrays in model order."""
    d = np.asarray(model.spec.min_dims, dtype=np.float64)
    if not len(model):
        raise EmptyInput("cannot compute statistics of an empty model")
    labels = model.label
    dims = model.cell_dims * d
    volumes = dims.prod(axis=1)
    ars = dims.max(axis=1) / dims.min(axis=1)
    return labels, volumes, ars


def compute_stats(model: BlockModel) -> ModelStats:
    """Per-label and aggregate block count, volume share, weighted ARs.

    Volume-weighted AR is sum(v * ar) / sum(v); count-weighted AR is the
    plain mean.  Volumes are exact multiples of the minimum-cell volume.
    """
    labels, volumes, ars = _block_metrics(model)
    total_volume = float(volumes.sum())
    rows = []
    for label in np.unique(labels):
        pick = labels == label
        v = volumes[pick]
        a = ars[pick]
        rows.append(
            LabelRow(
                label=int(label),
                block_count=int(pick.sum()),
                volume=float(v.sum()),
                pct_volume=100.0 * float(v.sum()) / total_volume,
                vw_aspect_ratio=float((v * a).sum() / v.sum()),
                cw_aspect_ratio=float(a.mean()),
            )
        )
    aggregate = LabelRow(
        label=None,
        block_count=len(model),
        volume=total_volume,
        pct_volume=100.0,
        vw_aspect_ratio=float((volumes * ars).sum() / total_volume),
        cw_aspect_ratio=float(ars.mean()),
    )
    return ModelStats(per_label=tuple(rows), aggregate=aggregate)


def aspect_ratio_icdf(model: BlockModel) -> np.ndarray:
    """Per-parent volume-weighted aspect ratio, ascending.

    One value per parent; plotted against cumulative fraction this is
    the inverse CDF ("the lower the curve, the better").
    """
    _, volumes, ars = _block_metrics(model)
    group = model.parent_of()
    series = np.bincount(group, volumes * ars) / np.bincount(group, volumes)
    series.sort()
    return series


def block_dimension_cdf(model: BlockModel) -> list[tuple[float, float, float]]:
    """Cumulative count fraction over blocks ordered by (volume, AR).

    One row per distinct (volume, aspect ratio) pair; the last row's
    fraction is exactly 1.
    """
    _, volumes, ars = _block_metrics(model)
    order = np.lexsort((ars, volumes))
    v, a = volumes[order], ars[order]
    # the last block of each run of equal (volume, aspect ratio) pairs
    last = np.flatnonzero(np.append((v[1:] != v[:-1]) | (a[1:] != a[:-1]), True))
    return list(zip(v[last].tolist(), a[last].tolist(), ((last + 1) / len(v)).tolist()))


@dataclass(frozen=True)
class GrowthRow:
    depth_hi: int
    depth_lo: int
    ratio: float


def growth_factors(counts_by_depth: Mapping[int, "ModelStats | int"]) -> tuple[GrowthRow, ...]:
    """Block-count ratios between consecutive depths, plus the extremes.

    With fewer than two depths growth is undefined and the table is
    empty.  When three or more depths are present the deepest/shallowest
    ratio is appended after the consecutive pairs.
    """
    counts: dict[int, int] = {}
    for depth, value in counts_by_depth.items():
        if isinstance(value, ModelStats):
            counts[int(depth)] = value.aggregate.block_count
        else:
            counts[int(depth)] = int(value)
    if any(c <= 0 for c in counts.values()):
        raise ValidationError("block counts must be positive for growth ratios")
    depths = sorted(counts)
    if len(depths) < 2:
        return ()
    rows = [
        GrowthRow(hi, lo, counts[hi] / counts[lo])
        for lo, hi in zip(depths, depths[1:])
    ]
    if len(depths) > 2:
        lo, hi = depths[0], depths[-1]
        rows.append(GrowthRow(hi, lo, counts[hi] / counts[lo]))
    return tuple(rows)


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def _write_rows(path: str | Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_stats_csv(path: str | Path, stats: ModelStats) -> None:
    """`label,block_count,volume,pct_volume,vw_aspect_ratio,cw_aspect_ratio`."""
    rows = []
    for row in (*stats.per_label, stats.aggregate):
        rows.append(
            (
                "all" if row.label is None else str(row.label),
                str(row.block_count),
                f"{row.volume:.6f}",
                f"{row.pct_volume:.6f}",
                f"{row.vw_aspect_ratio:.6f}",
                f"{row.cw_aspect_ratio:.6f}",
            )
        )
    _write_rows(path, STATS_HEADER, rows)


def write_icdf_csv(path: str | Path, series: np.ndarray) -> None:
    """`cumulative_fraction,vw_aspect_ratio`, fractions ending at 1."""
    n = len(series)
    rows = [
        (f"{(i + 1) / n:.6f}", f"{value:.6f}")
        for i, value in enumerate(series)
    ]
    _write_rows(path, ICDF_HEADER, rows)


def write_cdf_csv(path: str | Path, series: Sequence[tuple[float, float, float]]) -> None:
    """`volume,aspect_ratio,cumulative_fraction` ascending by (volume, AR)."""
    rows = [
        (f"{vol:.6f}", f"{ar:.6f}", f"{frac:.6f}")
        for vol, ar, frac in series
    ]
    _write_rows(path, CDF_HEADER, rows)


def write_growth_csv(path: str | Path, rows: Sequence[GrowthRow]) -> None:
    """`depth_hi,depth_lo,ratio` — consecutive depth pairs then extremes."""
    _write_rows(
        path,
        GROWTH_HEADER,
        [(str(r.depth_hi), str(r.depth_lo), f"{r.ratio:.6f}") for r in rows],
    )
