"""Interval counts (the temporal encounter vector) and the diversity features.

Known-value checks freeze the worked example vectors
(0,0,0,2,10,3,0,0,0,2,0,0) and (3,0,4,0,3,0,2,2,0,0,0,3); random-vector
checks compare against a 50-digit mpmath evaluation of the same
formulas, which is independent of the float implementation under test.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv.encounter import Encounter, EncounterSet
from tiediv.features import (
    MINUTES_PER_DAY,
    Observation,
    ObservationTable,
    build_observations,
    compute_pair_features,
    hill_diversity,
    interval_counts,
    location_diversity,
    mean_encounters,
    shannon_entropy,
    temporal_diversity,
)
from tiediv.ingest import SurveyRecord

from helpers import day, encounter_set_from_counts, first_days, make_encounter_set

T_AB = (0, 0, 0, 2, 10, 3, 0, 0, 0, 2, 0, 0)
T_AC = (3, 0, 4, 0, 3, 0, 2, 2, 0, 0, 0, 3)

count_vectors = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=48).filter(
    lambda counts: sum(counts) > 0
)


def mp_hill(counts, q) -> float:
    """High-precision oracle for the effective-number computation."""
    with mpmath.workdps(50):
        total = mpmath.mpf(sum(counts))
        ps = [mpmath.mpf(c) / total for c in counts if c > 0]
        if q == 0:
            return float(len(ps))
        if q == 1:
            return float(mpmath.exp(-mpmath.fsum(p * mpmath.log(p) for p in ps)))
        s = mpmath.fsum(p**q for p in ps)
        return float(s ** (1 / (mpmath.mpf(1) - q)))


def td(counts, q=None, width_t: int = 120) -> float:
    """Temporal diversity of a pair whose interval counts at width_t are `counts`."""
    es = encounter_set_from_counts(counts, width_t, n_common_days=max(14, *counts))
    assert interval_counts(es, width_t) == tuple(counts)
    return temporal_diversity(es, width_t, q)


class TestBuildTev:
    """`interval_counts` builds the temporal encounter vector (TEV)."""

    def test_two_encounters_same_hour(self):
        # 08:05 is slot 97, 08:40 is slot 104
        es = make_encounter_set([(0, 97), (1, 104)])
        assert interval_counts(es, 60)[8] == 2
        assert sum(interval_counts(es, 60)) == 2

    def test_empty_set_is_zero_vector(self):
        es = make_encounter_set([], n_common_days=7)
        counts = interval_counts(es, 60)
        assert counts == (0,) * 24
        assert sum(counts) == 0

    def test_reproduces_reference_vector_at_120(self):
        es = encounter_set_from_counts(T_AB, width_t=120)
        assert interval_counts(es, 120) == T_AB

    def test_vector_length_and_total(self):
        es = encounter_set_from_counts(T_AC, width_t=120)
        counts = interval_counts(es, 120)
        assert len(counts) == 1440 // 120
        assert sum(counts) == es.n_encounters == 17

    def test_width_must_divide_day(self):
        es = make_encounter_set([(0, 10)])
        with pytest.raises(ValueError):
            interval_counts(es, 7)

    def test_slot_start_minute_binning(self):
        # slot 23 starts at minute 115: bin 1 at t=60, not bin 2
        es = make_encounter_set([(0, 23)])
        assert interval_counts(es, 60)[1] == 1


class TestShannonDiversity:
    """`temporal_diversity` with q = None."""

    def test_reference_vector_ab(self):
        assert shannon_entropy(T_AB) == pytest.approx(1.1218, abs=5e-4)
        d = td(T_AB)
        assert round(d, 1) == 3.1
        assert d == pytest.approx(3.0703, abs=1e-3)

    def test_reference_vector_ac(self):
        assert shannon_entropy(T_AC) == pytest.approx(1.7623, abs=5e-4)
        d = td(T_AC)
        assert round(d, 1) == 5.8
        assert d == pytest.approx(5.8259, abs=1e-3)

    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_single_nonzero_bin(self, k):
        counts = [0] * 11 + [k]
        assert shannon_entropy(counts) == 0.0
        assert td(counts) == 1.0

    def test_uniform_vector_gives_bin_count(self):
        assert td((1, 1, 1, 1), width_t=360) == pytest.approx(4.0, rel=1e-12)

    def test_empty_vector_is_zero(self):
        assert td((0,) * 12) == 0.0


class TestRenyiDiversity:
    """`temporal_diversity` at order q, and `hill_diversity` behind it."""

    def test_order_zero_counts_support(self):
        assert td(T_AB, 0.0) == 4.0

    def test_order_two_reference_value(self):
        # sum p^2 = (4 + 100 + 9 + 4) / 17^2 = 117/289, D = 289/117
        assert td(T_AB, 2.0) == pytest.approx(289 / 117, rel=1e-12)

    def test_order_one_matches_shannon(self):
        assert td(T_AB, 1.0) == pytest.approx(td(T_AB), rel=1e-9)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            td(T_AB, -0.5)

    def test_empty_vector_is_zero(self):
        assert td((0,) * 12, 2.0) == 0.0

    @pytest.mark.parametrize("q", [0.0, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 3.0])
    def test_against_high_precision_oracle(self, q):
        rng = np.random.default_rng(2016)
        for _ in range(25):
            counts = rng.integers(0, 40, size=int(rng.integers(2, 30)))
            if counts.sum() == 0:
                counts[0] = 1
            counts = [int(c) for c in counts]
            assert hill_diversity(counts, q) == pytest.approx(mp_hill(counts, q), rel=1e-9)


class TestDiversityInvariants:
    @given(count_vectors, st.integers(min_value=2, max_value=9))
    @settings(max_examples=150)
    def test_scale_invariance(self, counts, k):
        scaled = [c * k for c in counts]
        for q in (None, 0.0, 0.5, 2.0):
            if q is None:
                a, b = (
                    math.exp(shannon_entropy(counts)),
                    math.exp(shannon_entropy(scaled)),
                )
            else:
                a, b = hill_diversity(counts, q), hill_diversity(scaled, q)
            assert b == pytest.approx(a, rel=1e-12)

    @given(count_vectors, st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_permutation_invariance(self, counts, rand):
        shuffled = list(counts)
        rand.shuffle(shuffled)
        assert shannon_entropy(shuffled) == pytest.approx(shannon_entropy(counts), rel=1e-12)
        for q in (0.0, 0.7, 2.5):
            assert hill_diversity(shuffled, q) == pytest.approx(
                hill_diversity(counts, q), rel=1e-12
            )

    @given(count_vectors)
    @settings(max_examples=150)
    def test_bounds(self, counts):
        support = sum(1 for c in counts if c > 0)
        d = math.exp(shannon_entropy(counts))
        assert 1.0 - 1e-12 <= d <= support * (1.0 + 1e-12)
        if support == 1:
            assert d == pytest.approx(1.0, rel=1e-12)
        nonzero = [c for c in counts if c > 0]
        if len(set(nonzero)) == 1:
            assert d == pytest.approx(float(support), rel=1e-12)

    @given(count_vectors)
    @settings(max_examples=100)
    def test_hill_monotone_in_order(self, counts):
        qs = [i / 10 for i in range(0, 31)]
        values = [hill_diversity(counts, q) for q in qs]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1.0 + 1e-9)

    @given(count_vectors)
    @settings(max_examples=100)
    def test_renyi_at_one_equals_shannon(self, counts):
        assert hill_diversity(counts, 1.0) == pytest.approx(
            math.exp(shannon_entropy(counts)), rel=1e-9
        )


class TestWholeOrderRange:
    """Orders next to 1, and so large that p^q underflows to 0 everywhere."""

    @pytest.mark.parametrize("q", [200.0, 1e4, 1.7e308, sys.float_info.max])
    @pytest.mark.parametrize("k", [1, 7])
    def test_uniform_288_slots(self, k, q):
        assert hill_diversity([k] * 288, q) == pytest.approx(288.0, rel=1e-9)

    @pytest.mark.parametrize("q", [1.7e308, sys.float_info.max])
    def test_huge_finite_order_is_the_limit(self, q):
        # q * log(p_max) overflows to -inf for p_max below ~0.35; at such q the
        # value is 1 / p_max, the q -> inf limit, to far below a double's precision
        assert hill_diversity([1, 1, 1], q) == pytest.approx(3.0, rel=1e-12)
        rng = np.random.default_rng(308)
        for _ in range(25):
            counts = [int(c) for c in rng.integers(0, 40, size=int(rng.integers(1, 300)))] + [1]
            assert hill_diversity(counts, q) == pytest.approx(sum(counts) / max(counts), rel=1e-12)

    @pytest.mark.parametrize("q", [1.0 - 1e-4, 1.0 + 2e-9, 1.0 + 1e-7, 1.0 + 1e-4, 50.0, 200.0, 1e4])
    def test_against_high_precision_oracle(self, q):
        rng = np.random.default_rng(200)
        for _ in range(25):
            counts = [int(c) for c in rng.integers(1, 40, size=int(rng.integers(2, 300)))]
            assert hill_diversity(counts, q) == pytest.approx(mp_hill(counts, q), rel=1e-9)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=300).filter(
            lambda counts: sum(counts) > 0
        ),
        st.lists(
            st.one_of(st.floats(min_value=0.0, max_value=1e4), st.floats(min_value=0.99999, max_value=1.00001)),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=2, max_value=9),
    )
    @settings(max_examples=200, deadline=None)
    def test_finite_bounded_monotone_scale_invariant(self, counts, qs, k):
        support = sum(1 for c in counts if c > 0)
        previous = math.inf
        for q in sorted(qs):
            d = hill_diversity(counts, q)
            assert math.isfinite(d)
            assert 1.0 - 1e-12 <= d <= support * (1.0 + 1e-12)
            assert d <= previous * (1.0 + 1e-9)
            assert hill_diversity([c * k for c in counts], q) == pytest.approx(d, rel=1e-9)
            previous = d


class TestLocationDiversity:
    def test_single_cell(self):
        es = make_encounter_set([(0, 10, "cellaaaa"), (1, 20, "cellaaaa")])
        assert location_diversity(es) == pytest.approx(1.0, rel=1e-12)

    def test_four_distinct_cells(self):
        es = make_encounter_set(
            [(0, 10, "cell000a"), (1, 20, "cell000b"), (2, 30, "cell000c"), (3, 40, "cell000d")]
        )
        assert location_diversity(es) == pytest.approx(4.0, rel=1e-12)

    def test_skewed_cell_counts(self):
        # counts (2, 10, 3, 2) over four cells: same arithmetic as the
        # temporal reference vector, so D = exp(1.12179) ~ 3.07
        events = []
        slot = 0
        for cell, count in [("aaaa0000", 2), ("bbbb0000", 10), ("cccc0000", 3), ("dddd0000", 2)]:
            for _ in range(count):
                events.append((0, slot, cell))
                slot += 1
        es = make_encounter_set(events)
        assert location_diversity(es) == pytest.approx(3.0703, abs=1e-3)

    def test_empty_is_zero(self):
        assert location_diversity(make_encounter_set([])) == 0.0


class TestMeanEncounters:
    def test_reference_rate(self):
        es = encounter_set_from_counts(T_AB, width_t=120, n_common_days=14)
        assert mean_encounters(es, 14) == pytest.approx(17 / 14, rel=1e-12)

    def test_zero_encounters(self):
        assert mean_encounters(make_encounter_set([], n_common_days=7), 7) == 0.0

    def test_constant_rate(self):
        es = make_encounter_set([(d, s) for d in range(10) for s in range(8)], n_common_days=10)
        assert mean_encounters(es, 10) == 8.0

    def test_zero_days_rejected(self):
        with pytest.raises(ValueError):
            mean_encounters(make_encounter_set([], n_common_days=7), 0)


class TestObservations:
    def test_join_and_regroup(self):
        es = make_encounter_set([(0, 10)], pair=("alice", "bob"))
        sets = {("alice", "bob"): es}
        survey = [
            SurveyRecord("alice", "bob", 3, 2),
            SurveyRecord("bob", "alice", 5, 4),
            SurveyRecord("alice", "carol", 4, 2),  # pair not eligible
        ]
        obs = build_observations(survey, sets)
        assert [(o.rater_id, o.ratee_id, o.closeness) for o in obs] == [
            ("alice", "bob", 2),
            ("bob", "alice", 4),
        ]
        assert all(o.encounters is es for o in obs)

    def test_pair_features_bundle(self):
        es = encounter_set_from_counts(T_AB, width_t=120, n_common_days=14)
        [pf] = compute_pair_features([Observation("alice", "bob", 2, es)], width_t=120)
        assert (pf.rater, pf.ratee) == ("alice", "bob")
        assert pf.n_encounters == 17
        assert pf.n_common_days == 14
        assert pf.temporal_diversity == pytest.approx(3.0703, abs=1e-3)
        assert pf.mean_encounters == pytest.approx(17 / 14)

    def test_empty_pair_keeps_zero_features(self):
        es = make_encounter_set([], n_common_days=9)
        [pf] = compute_pair_features([Observation("bob", "alice", 0, es)])
        assert pf.temporal_diversity == 0.0
        assert pf.location_diversity == 0.0
        assert pf.mean_encounters == 0.0


# every width that tiles the day, 1, 3 and 9 among them, whose intervals do not align with 5-minute slots
WIDTHS = [w for w in range(1, MINUTES_PER_DAY + 1) if MINUTES_PER_DAY % w == 0]
ORDERS = [None, 0.0, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-4, 1.0 + 1e-4, 2.0, 200.0, 1e300]
CELLS = ("tsz0000g", "tsz0000h", "tsz0000j")


@st.composite
def encounter_sets(draw, pair):
    """An EncounterSet of 1-6 common days with gaps; some encounters fall on a day that is not one."""
    offsets = sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=6)))
    days = tuple(day(i) for i in offsets)
    events = draw(st.lists(st.tuples(st.sampled_from([*offsets, 10]), st.integers(0, 287)), max_size=25, unique=True))
    encounters = tuple(
        Encounter(*pair, day(offset), slot, draw(st.sampled_from(CELLS))) for offset, slot in sorted(events)
    )
    return EncounterSet(days, encounters)


@st.composite
def observation_samples(draw):
    """Observations of 1-5 pairs in drawn order; a mutual rating's two share one set."""
    observations = []
    for i in range(draw(st.integers(1, 5))):
        pair = (f"u{i}a", f"u{i}b")
        es = draw(encounter_sets(pair))
        for rater, ratee in [pair, pair[::-1]][: draw(st.integers(1, 2))]:
            observations.append(Observation(rater, ratee, draw(st.integers(0, 4)), es))
    return draw(st.permutations(observations))


class TestObservationTable:
    """Each column of the table equals the scalar oracles' values, bit for bit."""

    @given(observation_samples(), st.sampled_from(WIDTHS), st.sampled_from(ORDERS), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_columns_equal_the_scalar_oracles(self, observations, width_t, q, horizon):
        table = ObservationTable(observations)
        assert list(table) == observations
        assert table.temporal_diversity(width_t, q) == [
            temporal_diversity(o.encounters, width_t, q) for o in observations
        ]
        assert table.location_diversity() == [location_diversity(o.encounters) for o in observations]
        assert table.mean_encounters() == [o.encounters.n_encounters / o.encounters.n_common_days for o in observations]
        column = table.temporal_diversity(width_t, q, horizon)
        for o, value in zip(observations, column):
            restricted = first_days(o.encounters, horizon)
            if restricted is not None:
                assert value == temporal_diversity(restricted, width_t, q)

    @given(observation_samples())
    @settings(max_examples=50, deadline=None)
    def test_pair_features_equal_the_scalar_features(self, observations):
        rows = compute_pair_features(observations, 60, 2.0)
        assert [(r.rater, r.ratee) for r in rows] == [(o.rater_id, o.ratee_id) for o in observations]
        for row, o in zip(rows, observations):
            es = o.encounters
            assert row.temporal_diversity == temporal_diversity(es, 60, 2.0)
            assert row.location_diversity == location_diversity(es)
            assert row.mean_encounters == mean_encounters(es, es.n_common_days)
            assert (row.n_encounters, row.n_common_days) == (es.n_encounters, es.n_common_days)

    def test_mutual_ratings_share_one_pair_and_columns_are_cached(self):
        es = make_encounter_set([(0, 10), (1, 100)], pair=("a", "b"))
        table = ObservationTable([Observation("a", "b", 1, es), Observation("b", "a", 3, es)])
        assert table.pairs == [es] and table.pair_of == [0, 0]
        assert table.temporal_diversity(60) is table.temporal_diversity(60, None) is table.temporal_diversity(60, 1.0)
        assert ObservationTable.of(table) is table

    def test_bad_width_or_order_rejected_on_an_empty_table(self):
        table = ObservationTable([])
        assert table.temporal_diversity(60, 2.0, 3) == []
        with pytest.raises(ValueError, match="width_t must divide 1440"):
            table.temporal_diversity(7)
        with pytest.raises(ValueError, match="diversity order must be >= 0"):
            table.temporal_diversity(60, -1.0)
