"""Sweeps, feature comparison, subgroup summaries, and evolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv.experiments import (
    _quartiles,
    compare_features,
    evolution,
    subgroup_distributions,
    sweep_q,
    sweep_width,
)
from tiediv.features import Observation, temporal_diversity

from helpers import encounter_set_from_counts, make_encounter_set


def obs(es, closeness: int, rater="x", ratee="y") -> Observation:
    return Observation(rater_id=rater, ratee_id=ratee, closeness=closeness, encounters=es)


def uniform_bins_set(n_bins: int, pair, n_common_days=12, n_cells=1):
    """12 encounters uniform over n_bins hourly bins: diversity exactly n_bins."""
    assert 12 % n_bins == 0
    per_bin = 12 // n_bins
    events = []
    for b in range(n_bins):
        for i in range(per_bin):
            cell = f"cell000{len(events) % n_cells}"
            events.append((0, b * 12 + i, cell))
    return make_encounter_set(events, n_common_days=n_common_days, pair=pair)


def diversity_labelled_sample():
    """Closeness assigned by thresholding temporal diversity itself."""
    bins_to_label = {1: 0, 2: 1, 3: 2, 4: 2, 6: 3, 12: 4}
    observations = []
    i = 0
    for repeat in range(4):
        for n_bins, label in bins_to_label.items():
            pair = (f"u{i:02d}a", f"u{i:02d}b")
            es = uniform_bins_set(
                n_bins, pair, n_common_days=10 + i % 3, n_cells=1 + i % 2
            )
            observations.append(obs(es, label, *pair))
            i += 1
    return observations


class TestSweepWidth:
    def test_rows_sorted_by_parameter(self):
        observations = diversity_labelled_sample()
        rows = sweep_width(observations, widths=(120, 5, 60))
        assert [r.width_t for r in rows] == [5, 60, 120]
        assert all(r.error is None for r in rows)

    def test_singleton_sweep(self):
        rows = sweep_width(diversity_labelled_sample(), widths=(60,))
        assert len(rows) == 1
        assert rows[0].f_value > 0

    def test_degenerate_rows_carry_error(self):
        observations = [
            obs(make_encounter_set([], n_common_days=8, pair=(f"e{i}a", f"e{i}b")),
                closeness=i % 3, rater=f"e{i}a", ratee=f"e{i}b")
            for i in range(6)
        ]
        rows = sweep_width(observations, widths=(60, 120))
        assert all(r.f_value is None and r.error for r in rows)


class TestSweepQ:
    def test_q_one_matches_width_sweep_at_same_width(self):
        observations = diversity_labelled_sample()
        q_row = sweep_q(observations, orders=(1.0,), width_t=60)[0]
        t_row = [r for r in sweep_width(observations, widths=(60,))][0]
        assert q_row.f_value == pytest.approx(t_row.f_value, rel=1e-9)
        assert q_row.p_value == pytest.approx(t_row.p_value, rel=1e-9)

    def test_rows_sorted(self):
        rows = sweep_q(diversity_labelled_sample(), orders=(2.0, 0.1, 0.5))
        assert [r.q for r in rows] == [0.1, 0.5, 2.0]


class TestCompareFeatures:
    def test_temporal_diversity_ranks_first_by_construction(self):
        results = {r.feature: r for r in compare_features(diversity_labelled_sample())}
        td = results["temporal_diversity"]
        assert td.f_value is not None
        for other in ("location_diversity", "mean_encounters"):
            res = results[other]
            assert res.f_value is None or res.f_value < td.f_value

    def test_three_rows_in_fixed_order(self):
        rows = compare_features(diversity_labelled_sample())
        assert [r.feature for r in rows] == [
            "location_diversity",
            "mean_encounters",
            "temporal_diversity",
        ]

    def test_all_zero_column_yields_error_row_and_run_continues(self):
        observations = [
            obs(make_encounter_set([], n_common_days=8, pair=(f"z{i}a", f"z{i}b")),
                closeness=i % 3, rater=f"z{i}a", ratee=f"z{i}b")
            for i in range(6)
        ]
        rows = compare_features(observations)
        assert len(rows) == 3
        assert all((r.n, r.f_value, r.p_value, r.r) == (None,) * 4 for r in rows)
        assert all("constant" in r.error for r in rows)


class TestSubgroupDistributions:
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 2.5, 3.0]),
                st.floats(min_value=0.0, max_value=1e6, allow_subnormal=True),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_quartiles_are_numpys_percentiles_bit_for_bit(self, values):
        # ties, singletons and even and odd lengths; diversities and rates are never -0.0 or nan
        expected = [float(v).hex() for v in np.percentile(np.asarray(values, dtype=float), [25.0, 50.0, 75.0])]
        assert [v.hex() for v in _quartiles(values)] == expected

    def test_singleton_subgroup_collapses_summary(self):
        es = encounter_set_from_counts((0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0), width_t=120)
        summaries = subgroup_distributions([obs(es, 3)])
        row = next(s for s in summaries if s.feature == "temporal_diversity" and s.closeness == 3)
        assert row.count == 1
        assert row.min == row.q1 == row.median == row.q3 == row.max

    def test_iqr_outlier_flagged(self):
        observations = []
        for i, n_enc in enumerate((1, 2, 3, 4, 100)):
            events = [(0, s) for s in range(n_enc)]
            es = make_encounter_set(events, n_common_days=1, pair=(f"o{i}a", f"o{i}b"))
            observations.append(obs(es, 2, f"o{i}a", f"o{i}b"))
        summaries = subgroup_distributions(observations)
        row = next(s for s in summaries if s.feature == "mean_encounters" and s.closeness == 2)
        # fences: q1=2, q3=4, iqr=2 -> anything past 7 is an outlier
        assert row.outliers == (100.0,)
        assert row.min == 1.0 and row.max == 100.0

    def test_empty_subgroup_has_count_zero(self):
        es = make_encounter_set([(0, 10)])
        summaries = subgroup_distributions([obs(es, 0)])
        row = next(s for s in summaries if s.feature == "temporal_diversity" and s.closeness == 4)
        assert row.count == 0
        assert row.mean is None and row.median is None

    def test_all_label_feature_combinations_present(self):
        summaries = subgroup_distributions(diversity_labelled_sample())
        assert len(summaries) == 3 * 5
        quartiled = [s for s in summaries if s.count > 0]
        for s in quartiled:
            assert s.min <= s.q1 <= s.median <= s.q3 <= s.max


class TestEvolution:
    def test_pair_with_too_few_days_excluded(self):
        short = make_encounter_set([(0, 10), (1, 20)], n_common_days=2, pair=("s1a", "s1b"))
        long = make_encounter_set([(d, 10 + d) for d in range(5)], n_common_days=5, pair=("l1a", "l1b"))
        observations = [obs(short, 1, "s1a", "s1b"), obs(long, 1, "l1a", "l1b")]
        rows = {(r.closeness, r.d): r for r in evolution(observations, horizons=range(1, 6))}
        assert rows[(1, 2)].n == 2
        assert rows[(1, 3)].n == 1  # the 2-day pair drops out at d = 3
        assert rows[(1, 5)].n == 1

    def test_single_day_horizon(self):
        es = make_encounter_set([(0, 10), (0, 50), (1, 100)], n_common_days=4)
        rows = evolution([obs(es, 2)], horizons=(1,))
        row = next(r for r in rows if r.closeness == 2 and r.d == 1)
        # only day 0's two encounters count: two distinct hourly bins
        assert row.mean_temporal_diversity == pytest.approx(2.0, rel=1e-9)

    def test_max_horizon_equals_full_data_diversity(self):
        es = make_encounter_set([(d, 10 + 12 * d) for d in range(6)], n_common_days=6)
        rows = evolution([obs(es, 4)], horizons=(6,))
        row = next(r for r in rows if r.closeness == 4 and r.d == 6)
        assert row.mean_temporal_diversity == pytest.approx(
            temporal_diversity(es, 60), rel=1e-12
        )

    def test_zero_encounter_prefix_counts_as_zero_diversity(self):
        es = make_encounter_set([(3, 10)], n_common_days=5)
        rows = evolution([obs(es, 1)], horizons=(2,))
        row = next(r for r in rows if r.closeness == 1 and r.d == 2)
        assert row.mean_temporal_diversity == 0.0

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            evolution([], horizons=(0,))
