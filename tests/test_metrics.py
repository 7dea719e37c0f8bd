"""Statistics layer: per-label tables, AR curves, growth ratios, CSV output."""

import csv

import numpy as np
import pytest

from reblock.errors import EmptyInput, ValidationError
from reblock.lattice import Block, BlockModel, LatticeSpec
from reblock.metrics import (
    CDF_HEADER,
    GROWTH_HEADER,
    ICDF_HEADER,
    STATS_HEADER,
    aspect_ratio_icdf,
    block_dimension_cdf,
    compute_stats,
    growth_factors,
    write_cdf_csv,
    write_growth_csv,
    write_icdf_csv,
    write_stats_csv,
)


@pytest.fixture()
def model():
    # parent 0 is one cube (AR 1); parent 1 splits into two 4x4x2 slabs
    # (AR 2) with different labels, so every figure below is hand-checkable
    spec = LatticeSpec(origin=(0, 0, 0), parent_dims=(4, 4, 4), min_dims=(1, 1, 1))
    blocks = [
        Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(4, 4, 4), label=1),
        Block(parent=(1, 0, 0), cell_min=(0, 0, 0), cell_dims=(4, 4, 2), label=1),
        Block(parent=(1, 0, 0), cell_min=(0, 0, 2), cell_dims=(4, 4, 2), label=2),
    ]
    return BlockModel(spec=spec, blocks=blocks)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestComputeStats:
    def test_per_label_rows(self, model):
        stats = compute_stats(model)
        assert [r.label for r in stats.per_label] == [1, 2]
        one, two = stats.per_label
        # label 1: 64 @ AR 1 plus 32 @ AR 2
        assert one.block_count == 2
        assert one.volume == 96.0
        assert one.pct_volume == 75.0
        assert one.vw_aspect_ratio == pytest.approx(128.0 / 96.0)
        assert one.cw_aspect_ratio == 1.5
        assert two.block_count == 1
        assert two.volume == 32.0
        assert two.pct_volume == 25.0
        assert two.vw_aspect_ratio == 2.0
        assert two.cw_aspect_ratio == 2.0

    def test_aggregate_row(self, model):
        agg = compute_stats(model).aggregate
        assert agg.label is None
        assert agg.block_count == 3
        assert agg.volume == 128.0
        assert agg.pct_volume == 100.0
        assert agg.vw_aspect_ratio == 1.5
        assert agg.cw_aspect_ratio == pytest.approx(5.0 / 3.0)

    def test_volume_uses_physical_dims(self):
        # anisotropic cells: a 1x1x1-cell block is a 1x1x2 box, AR 2
        spec = LatticeSpec(origin=(0, 0, 0), parent_dims=(2, 2, 4), min_dims=(1, 1, 2))
        m = BlockModel(
            spec=spec,
            blocks=[Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(1, 1, 1), label=7)],
        )
        agg = compute_stats(m).aggregate
        assert agg.volume == 2.0
        assert agg.vw_aspect_ratio == 2.0

    def test_empty_model_rejected(self, model):
        with pytest.raises(EmptyInput):
            compute_stats(BlockModel(spec=model.spec, blocks=[]))


class TestCurves:
    def test_icdf_one_value_per_parent_ascending(self, model):
        series = aspect_ratio_icdf(model)
        # parent 0 is all AR 1; parent 1 is two equal-volume AR-2 slabs
        np.testing.assert_allclose(series, [1.0, 2.0])

    def test_icdf_sorts_not_parent_order(self):
        spec = LatticeSpec(origin=(0, 0, 0), parent_dims=(4, 4, 4), min_dims=(1, 1, 1))
        m = BlockModel(
            spec=spec,
            blocks=[
                Block(parent=(0, 0, 0), cell_min=(0, 0, 0), cell_dims=(4, 4, 1), label=1),
                Block(parent=(0, 0, 0), cell_min=(0, 0, 1), cell_dims=(4, 4, 3), label=1),
                Block(parent=(5, 0, 0), cell_min=(0, 0, 0), cell_dims=(4, 4, 4), label=1),
            ],
        )
        series = aspect_ratio_icdf(m)
        # parent (5,0,0) contributes 1.0, parent (0,0,0) (16*4 + 48*4/3)/64
        np.testing.assert_allclose(series, [1.0, 2.0])

    def test_cdf_distinct_pairs_and_final_fraction(self, model):
        rows = block_dimension_cdf(model)
        assert rows == [
            (32.0, 2.0, pytest.approx(2.0 / 3.0)),
            (64.0, 1.0, 1.0),
        ]

    def test_cdf_matches_a_block_by_block_walk(self, rng):
        """On tie-heavy random models, one row per run of equal (volume,
        aspect ratio) pairs, as a walk over the sorted blocks gives it."""
        spec = LatticeSpec(origin=(0, 0, 0), parent_dims=(4, 2, 8), min_dims=(1, 0.5, 2))
        for _ in range(50):
            n = int(rng.integers(1, 40))
            dims = rng.choice([1, 2, 4], size=(n, 3))
            m = BlockModel.from_columns(spec, np.zeros((n, 3)), np.zeros((n, 3)), dims, np.ones(n))
            real = dims * [1, 0.5, 2]
            pairs = sorted(zip(real.prod(axis=1).tolist(), (real.max(1) / real.min(1)).tolist()))
            want = []
            for i, pair in enumerate(pairs):
                if i + 1 == n or pairs[i + 1] != pair:
                    want.append((*pair, (i + 1) / n))
            assert block_dimension_cdf(m) == want


class TestGrowthFactors:
    def test_consecutive_pair(self):
        rows = growth_factors({3: 100, 4: 400})
        assert len(rows) == 1
        assert (rows[0].depth_hi, rows[0].depth_lo, rows[0].ratio) == (4, 3, 4.0)

    def test_three_depths_append_extremes(self):
        rows = growth_factors({1: 10, 2: 30, 3: 90})
        assert [(r.depth_hi, r.depth_lo) for r in rows] == [(2, 1), (3, 2), (3, 1)]
        assert [r.ratio for r in rows] == [3.0, 3.0, 9.0]

    def test_accepts_stats_objects(self, model):
        rows = growth_factors({0: compute_stats(model), 1: 12})
        assert rows[0].ratio == 4.0

    def test_single_depth_is_empty(self):
        assert growth_factors({5: 10}) == ()

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValidationError):
            growth_factors({1: 0, 2: 4})


class TestCsvArtifacts:
    def test_stats_layout(self, tmp_path, model):
        path = tmp_path / "stats.csv"
        write_stats_csv(path, compute_stats(model))
        rows = read_csv(path)
        assert rows[0] == list(STATS_HEADER)
        assert rows[1] == ["1", "2", "96.000000", "75.000000", "1.333333", "1.500000"]
        assert rows[-1][0] == "all"
        assert rows[-1][3] == "100.000000"

    def test_icdf_fractions_end_at_one(self, tmp_path, model):
        path = tmp_path / "icdf.csv"
        write_icdf_csv(path, aspect_ratio_icdf(model))
        rows = read_csv(path)
        assert rows[0] == list(ICDF_HEADER)
        assert rows[1] == ["0.500000", "1.000000"]
        assert rows[2] == ["1.000000", "2.000000"]

    def test_cdf_layout(self, tmp_path, model):
        path = tmp_path / "cdf.csv"
        write_cdf_csv(path, block_dimension_cdf(model))
        rows = read_csv(path)
        assert rows[0] == list(CDF_HEADER)
        assert rows[1] == ["32.000000", "2.000000", "0.666667"]
        assert rows[2] == ["64.000000", "1.000000", "1.000000"]

    def test_growth_header_only_when_empty(self, tmp_path):
        path = tmp_path / "growth.csv"
        write_growth_csv(path, ())
        assert read_csv(path) == [list(GROWTH_HEADER)]

    def test_growth_rows(self, tmp_path):
        path = tmp_path / "growth.csv"
        write_growth_csv(path, growth_factors({2: 7, 3: 21}))
        assert read_csv(path)[1] == ["3", "2", "3.000000"]
