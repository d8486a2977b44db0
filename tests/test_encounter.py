"""Co-location detection on the day-slot grid."""

from datetime import date, timedelta
from math import asin, atan2, cos, degrees, log10, pi, radians, sin

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiediv import encounter
from tiediv.encounter import Encounter, EncounterSet, canonical_pair, detect_encounters
from tiediv.geo import EARTH_RADIUS_M, geohash_encode, haversine_m, within_m

from helpers import CleanRow, brute_force_encounters, clean_table, first_days

BASE_LAT, BASE_LON = 23.19, 72.63
START = date(2016, 4, 1)

# longitude offsets straddling a 50 m threshold at the test latitude,
# verified against the distance function inside the tests
OFF_10M = 10.0 / (111_194.9 * 0.9192)  # ~10 m east at lat 23.19
OFF_80M = 80.0 / (111_194.9 * 0.9192)


def day(i: int) -> date:
    return START + timedelta(days=i)


def days(n_days: int = 8) -> tuple[date, ...]:
    return tuple(day(i) for i in range(n_days))


def fix(user: str, d: int, slot: int, dlat: float = 0.0, dlon: float = 0.0) -> CleanRow:
    return CleanRow(user_id=user, day=day(d), slot=slot, lat=BASE_LAT + dlat, lon=BASE_LON + dlon)


def detect(fixes, users=("a", "b"), threshold=50.0, min_common=7, **kwargs):
    valid = dict.fromkeys(users, days())
    return detect_encounters(clean_table(fixes), valid, threshold_m=threshold, min_common_days=min_common, **kwargs)


class TestDetectEncounters:
    def test_identical_coordinates_one_encounter(self):
        result = detect([fix("a", 0, 100), fix("b", 0, 100)])
        es = result[("a", "b")]
        assert es.n_encounters == 1
        enc = es.encounters[0]
        assert (enc.user_lo, enc.user_hi, enc.day, enc.slot) == ("a", "b", day(0), 100)

    def test_threshold_straddle(self):
        near = detect([fix("a", 0, 100), fix("b", 0, 100, dlon=OFF_10M)])
        far = detect([fix("a", 0, 100), fix("b", 0, 100, dlon=OFF_80M)])
        assert haversine_m(BASE_LAT, BASE_LON, BASE_LAT, BASE_LON + OFF_10M) < 50.0
        assert haversine_m(BASE_LAT, BASE_LON, BASE_LAT, BASE_LON + OFF_80M) > 50.0
        assert near[("a", "b")].n_encounters == 1
        assert far[("a", "b")].n_encounters == 0

    def test_missing_partner_slot_no_encounter(self):
        result = detect([fix("a", 0, 100), fix("b", 0, 101)])
        assert result[("a", "b")].n_encounters == 0

    def test_cell_is_geohash8_of_midpoint(self):
        result = detect([fix("a", 0, 100), fix("b", 0, 100, dlon=OFF_10M)])
        enc = result[("a", "b")].encounters[0]
        assert enc.cell == geohash_encode(BASE_LAT, BASE_LON + OFF_10M / 2, 8)
        assert len(enc.cell) == 8

    def test_canonical_ordering_regardless_of_input(self):
        fixes = [fix("zed", 0, 100), fix("abe", 0, 100)]
        result = detect(fixes, users=("zed", "abe"))
        assert list(result) == [("abe", "zed")]

    def test_input_order_invariance(self):
        fixes = [fix("a", d, s) for d in range(8) for s in (10, 50)] + [
            fix("b", d, s) for d in range(8) for s in (10, 70)
        ]
        forward = detect(fixes)
        backward = detect(list(reversed(fixes)))
        assert forward == backward

    def test_threshold_monotonicity(self):
        fixes = [fix("a", 0, 100), fix("b", 0, 100, dlon=OFF_10M),
                 fix("a", 1, 30), fix("b", 1, 30, dlon=OFF_80M)]
        small = detect(fixes, threshold=20.0)[("a", "b")].encounters
        large = detect(fixes, threshold=100.0)[("a", "b")].encounters
        assert set(small) <= set(large)
        assert len(small) == 1 and len(large) == 2

    def test_encounters_only_on_common_days(self):
        valid = {
            "a": tuple(day(i) for i in range(8)),
            "b": tuple(day(i) for i in range(1, 9)),
        }
        # co-located on day 0, but day 0 is not common
        fixes = [fix("a", d, 100) for d in range(8)] + [fix("b", d, 100) for d in range(8)]
        result = detect_encounters(clean_table(fixes), valid, threshold_m=50.0, min_common_days=7)
        es = result[("a", "b")]
        assert es.common_days == tuple(day(i) for i in range(1, 8))
        assert all(e.day != day(0) for e in es.encounters)
        assert es.n_encounters == 7

    def test_pair_below_min_common_days_excluded(self):
        valid = {
            "a": tuple(day(i) for i in range(6)),
            "b": tuple(day(i) for i in range(6)),
        }
        result = detect_encounters(clean_table([fix("a", 0, 100), fix("b", 0, 100)]), valid, min_common_days=7)
        assert result == {}

    def test_min_common_days_below_one_rejected(self):
        # with 0, two users who share no valid day would make an eligible pair
        valid = {"a": (day(0),), "b": (day(1),)}
        fixes = clean_table([fix("a", 0, 100), fix("b", 1, 100)])
        with pytest.raises(ValueError, match="min_common_days must be at least 1, got 0"):
            detect_encounters(fixes, valid, min_common_days=0, pairs=[("a", "b")])

    def test_eligible_pair_without_encounters_gets_empty_set(self):
        fixes = [fix("a", d, 10) for d in range(8)] + [fix("b", d, 200) for d in range(8)]
        result = detect(fixes)
        es = result[("a", "b")]
        assert es.n_encounters == 0
        assert es.n_common_days == 8

    def test_restricting_to_given_pairs(self):
        fixes = [fix(u, d, 100) for u in ("a", "b", "c") for d in range(8)]
        result = detect(fixes, users=("a", "b", "c"), pairs=[("b", "a")])
        assert list(result) == [("a", "b")]

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError):
            detect([], threshold=0.0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_non_finite_or_negative_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="distance threshold must be positive and finite"):
            detect([fix("a", 0, 100), fix("b", 0, 100)], threshold=threshold)

    def test_fixes_across_the_antimeridian_meet(self):
        # ~22 m apart at the equator, on either side of longitude +-180
        fixes = [CleanRow("a", day(0), 100, 0.0, 179.9999), CleanRow("b", day(0), 100, 0.0, -179.9999)]
        assert detect(fixes)[("a", "b")].n_encounters == 1

    def test_fixes_across_the_pole_meet(self):
        # ~22 m apart, on opposite meridians next to the north pole
        fixes = [CleanRow("a", day(0), 100, 89.9999, 10.0), CleanRow("b", day(0), 100, 89.9999, -170.0)]
        assert detect(fixes)[("a", "b")].n_encounters == 1

    def test_huge_threshold_keeps_every_co_occurrence(self):
        fixes = [CleanRow("a", day(0), 100, 89.0, 0.0), CleanRow("b", day(0), 100, -89.0, 179.0)]
        assert detect(fixes, threshold=1e300)[("a", "b")].n_encounters == 1
        assert detect(fixes, threshold=1e7)[("a", "b")].n_encounters == 0

    @pytest.mark.parametrize(
        "column,value,reason",
        [("slot", 288, "slot"), ("slot", -1, "slot"), ("lat", float("nan"), "lat"), ("lon", 180.0, "lon")],
    )
    def test_fix_out_of_range_rejected(self, column, value, reason):
        row = fix("a", 0, 100)._replace(**{column: value})
        with pytest.raises(ValueError, match=f"clean fix 1: {reason} out of range"):
            detect([fix("b", 0, 100), row])

    def test_one_encounter_per_slot_maximum(self):
        # both users present in one slot only once per (day, slot) by grid
        fixes = [fix("a", 0, 100), fix("b", 0, 100)]
        result = detect(fixes)
        keys = [(e.day, e.slot) for e in result[("a", "b")].encounters]
        assert len(keys) == len(set(keys))


class TestFirstDays:
    def test_restriction_and_exclusion(self):
        fixes = [fix("a", d, 100) for d in range(8)] + [fix("b", d, 100) for d in range(8)]
        es = detect(fixes)[("a", "b")]
        first3 = first_days(es, 3)
        assert first3.common_days == tuple(day(i) for i in range(3))
        assert first3.n_encounters == 3
        assert first_days(es, 9) is None

    def test_full_horizon_is_identity(self):
        fixes = [fix("a", d, 100) for d in range(8)] + [fix("b", d, 100) for d in range(8)]
        es = detect(fixes)[("a", "b")]
        assert first_days(es, es.n_common_days) == es


class TestCanonicalPair:
    def test_orders_lexicographically(self):
        assert canonical_pair("zed", "abe") == ("abe", "zed")

    def test_identical_users_rejected(self):
        with pytest.raises(ValueError):
            canonical_pair("a", "a")


def destination(lat: float, lon: float, distance_m: float, bearing: float) -> tuple[float, float]:
    """The point distance_m from (lat, lon) along a bearing (degrees), with |lat| <= 89.99."""
    angle, theta, phi = distance_m / EARTH_RADIUS_M, radians(bearing), radians(lat)
    phi2 = asin(max(-1.0, min(1.0, sin(phi) * cos(angle) + cos(phi) * sin(angle) * cos(theta))))
    lam2 = radians(lon) + atan2(sin(theta) * sin(angle) * cos(phi), cos(angle) - sin(phi) * sin(phi2))
    lon2 = (degrees(lam2) + 180.0) % 360.0 - 180.0
    return max(-89.99, min(89.99, degrees(phi2))), lon2 if lon2 < 180.0 else -180.0


ANCHORS = [(23.19, 72.63), (0.0, 0.0), (0.0, -180.0), (45.0, 179.9999), (-30.0, -179.9999),
           (89.99, 10.0), (-89.99, -170.0), (89.0, 180.0 - 1e-9)]
USERS = ("a", "b", "c", "d")


@st.composite
def scenes(draw):
    """Fixes near an anchor at distances around the threshold, and valid days.

    Fixes sit at 0-3 thresholds from the anchor in any direction, so
    pairs straddle the threshold and cell edges; users repeat (day, slot)
    keys, and user "x" has no valid days.
    """
    threshold = draw(st.one_of(
        st.sampled_from([1.0, 50.0, 2.0e7, pi * EARTH_RADIUS_M, 2.5e7]),
        st.floats(0.0, log10(2.5e7)).map(lambda e: 10.0**e),
    ))
    lat, lon = draw(st.one_of(
        st.sampled_from(ANCHORS),
        st.tuples(st.floats(-89.99, 89.99), st.floats(-180.0, 180.0, exclude_max=True)),
    ))
    n_days = draw(st.integers(1, 3))
    users = USERS[: draw(st.integers(2, len(USERS)))]
    valid = {
        u: tuple(day(i) for i in sorted(draw(st.sets(st.integers(0, n_days - 1)))))
        for u in users
    }
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        factor = draw(st.sampled_from([0.0, 0.25, 0.5, 0.999999, 1.0, 1.000001, 1.5, 2.0, 3.0]))
        position = destination(lat, lon, factor * threshold, draw(st.floats(0.0, 360.0)))
        user = draw(st.sampled_from(users + ("x",)))
        rows.append(CleanRow(user, day(draw(st.integers(0, n_days))), draw(st.integers(0, 2)), *position))
    anyone = st.sampled_from(USERS + ("x",))
    pairs = draw(st.none() | st.lists(st.tuples(anyone, anyone).filter(lambda p: p[0] != p[1]), max_size=6))
    return rows, valid, threshold, draw(st.integers(1, 2)), pairs


@given(scenes())
# no valid days at all, all pairs or named ones
@example(([fix("a", 0, 1), fix("b", 0, 1)], {}, 50.0, 1, None))
@example(([fix("a", 0, 1), fix("b", 0, 1)], {}, 50.0, 1, [("a", "b")]))
# an eligible pair, but no fix in play: one of a user with no valid day, two off the pair's days
@example(([fix("x", 0, 1), fix("a", 1, 1), fix("b", 1, 1)], {"a": days(1), "b": days(1)}, 50.0, 1, None))
@settings(max_examples=300, deadline=None)
def test_bucket_join_matches_brute_force(scene):
    rows, valid, threshold, min_common, pairs = scene
    result = detect_encounters(clean_table(rows), valid, threshold, min_common, pairs=pairs)
    # whole dicts in order: keys, common days, encounters and their order
    expected = brute_force_encounters(rows, valid, threshold, min_common, pairs)
    assert list(result.items()) == list(expected.items())
    # equality ignores the class: a plain tuple equals a NamedTuple of the same values
    assert all(type(es) is EncounterSet for es in result.values())
    assert all(type(e) is Encounter for es in result.values() for e in es.encounters)


@given(
    st.sampled_from([1.0, 50.0, 2.0e7, 2.5e7]) | st.floats(0.0, log10(2.5e7)).map(lambda e: 10.0**e),
    st.floats(-89.99, 89.99),
    st.floats(-180.0, 180.0, exclude_max=True),
    st.floats(0.0, 1.0),
    st.floats(0.0, 360.0),
)
@settings(max_examples=300, deadline=None)
def test_points_within_the_threshold_are_at_most_one_cell_apart(threshold, lat, lon, share, bearing):
    lat2, lon2 = destination(lat, lon, share * threshold, bearing)
    if haversine_m(lat, lon, lat2, lon2) > threshold:
        return
    grid = encounter._Grid.covering(threshold, max(abs(lat), abs(lat2)))
    assert grid.n_cols != 2  # two columns would be each other's neighbour twice
    (row, row2), (col, col2) = grid.cells(np.array([lat, lat2]), np.array([lon, lon2]))
    assert abs(row - row2) <= 1
    assert min((col - col2) % grid.n_cols, (col2 - col) % grid.n_cols) <= 1


@given(
    st.sampled_from([1, 3, 4, 7]),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 6)), max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_bucket_pairs_are_the_row_pairs_of_adjacent_cells(n_cols, cells):
    rank, row, col = np.array(cells, dtype=np.int64).reshape(-1, 3).T
    col = col % n_cols
    first, second = encounter._bucket_pairs(rank, row, col, encounter._Grid(1.0, n_cols))
    got = sorted(tuple(sorted(pair)) for pair in zip(first.tolist(), second.tolist()))

    def adjacent(i, j):
        steps = (col[i] - col[j]) % n_cols, (col[j] - col[i]) % n_cols
        return rank[i] == rank[j] and abs(row[i] - row[j]) <= 1 and min(steps) <= 1

    assert got == [(i, j) for i in range(len(cells)) for j in range(i + 1, len(cells)) if adjacent(i, j)]


def test_distance_checks_grow_linearly_with_pairs(monkeypatch):
    seen = []

    def counting_within_m(lat1, *rest):
        seen.append(len(lat1))
        return within_m(lat1, *rest)

    monkeypatch.setattr(encounter, "within_m", counting_within_m)
    for n_pairs in (10, 20, 40):
        # pair k meets at its own spot, 0.01 deg (~1.1 km) north of pair k-1's,
        # in the same 12 slots of 8 days as every other pair
        rows = [
            fix(f"{side}{k:03d}", d, slot, dlat=0.01 * k)
            for k in range(n_pairs) for side in "ab" for d in range(8) for slot in range(100, 112)
        ]
        users = sorted({row.user_id for row in rows})
        seen.clear()
        result = detect(rows, users=users)
        assert sum(seen) == n_pairs * 8 * 12  # only the planted pairs' co-occurrences
        assert len(result) == len(users) * (len(users) - 1) // 2
        assert sorted(key for key, es in result.items() if es.encounters) == [
            (f"a{k:03d}", f"b{k:03d}") for k in range(n_pairs)
        ]
