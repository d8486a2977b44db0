"""Co-location detection on the day-slot grid."""

from datetime import date, timedelta

import pytest

from tiediv.encounter import canonical_pair, detect_encounters
from tiediv.geo import geohash_encode, haversine_m
from tiediv.preprocess import ValidDaySet

from helpers import CleanRow, clean_table

BASE_LAT, BASE_LON = 23.19, 72.63
START = date(2016, 4, 1)

# longitude offsets straddling a 50 m threshold at the test latitude,
# verified against the distance function inside the tests
OFF_10M = 10.0 / (111_194.9 * 0.9192)  # ~10 m east at lat 23.19
OFF_80M = 80.0 / (111_194.9 * 0.9192)


def day(i: int) -> date:
    return START + timedelta(days=i)


def vds(user: str, n_days: int = 8) -> ValidDaySet:
    return ValidDaySet(user_id=user, days=tuple(day(i) for i in range(n_days)))


def fix(user: str, d: int, slot: int, dlat: float = 0.0, dlon: float = 0.0) -> CleanRow:
    return CleanRow(user_id=user, day=day(d), slot=slot, lat=BASE_LAT + dlat, lon=BASE_LON + dlon)


def detect(fixes, users=("a", "b"), threshold=50.0, min_common=7, **kwargs):
    valid = {u: vds(u) for u in users}
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
            "a": ValidDaySet("a", tuple(day(i) for i in range(8))),
            "b": ValidDaySet("b", tuple(day(i) for i in range(1, 9))),
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
            "a": ValidDaySet("a", tuple(day(i) for i in range(6))),
            "b": ValidDaySet("b", tuple(day(i) for i in range(6))),
        }
        result = detect_encounters(clean_table([fix("a", 0, 100), fix("b", 0, 100)]), valid, min_common_days=7)
        assert result == {}

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
        first3 = es.first_days(3)
        assert first3.common_days == tuple(day(i) for i in range(3))
        assert first3.n_encounters == 3
        assert es.first_days(9) is None

    def test_full_horizon_is_identity(self):
        fixes = [fix("a", d, 100) for d in range(8)] + [fix("b", d, 100) for d in range(8)]
        es = detect(fixes)[("a", "b")]
        assert es.first_days(es.n_common_days) == es


class TestCanonicalPair:
    def test_orders_lexicographically(self):
        assert canonical_pair("zed", "abe") == ("abe", "zed")

    def test_identical_users_rejected(self):
        with pytest.raises(ValueError):
            canonical_pair("a", "a")
