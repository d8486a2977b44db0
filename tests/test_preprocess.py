"""Cleaning pipeline: snapping, dedup, filters, regrouping, common days."""

from datetime import date, datetime, time, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv.artifacts import write_clean_fixes
from tiediv.config import RunConfig
from tiediv.ingest import RawFix, SurveyRecord
from tiediv.preprocess import (
    coverage_threshold,
    filter_pipeline,
    regroup_closeness,
    snap_to_slot,
)

from helpers import clean_rows, common_days, fix_table, read_table

IST = timezone(timedelta(minutes=330))
UTC = timezone.utc


def local(day: int, hh: int, mm: int, ss: int = 0, month: int = 4) -> datetime:
    """A 2016 instant given in study-site local time, returned as aware UTC."""
    return datetime(2016, month, day, hh, mm, ss, tzinfo=IST).astimezone(UTC)


def raw(user: str, ts: datetime, lat=23.19, lon=72.63, accuracy=10.0) -> RawFix:
    return RawFix(user_id=user, timestamp=ts, lat=lat, lon=lon, accuracy=accuracy)


class TestSnapToSlot:
    def test_rounds_up_past_midpoint(self):
        assert snap_to_slot(local(3, 12, 3, 10), 330) == (date(2016, 4, 3), 145)

    def test_rounds_down_before_midpoint(self):
        assert snap_to_slot(local(3, 12, 2, 29), 330) == (date(2016, 4, 3), 144)

    def test_exact_midpoint_rounds_up(self):
        assert snap_to_slot(local(3, 12, 2, 30), 330) == (date(2016, 4, 3), 145)

    def test_late_night_rolls_to_next_day(self):
        assert snap_to_slot(local(3, 23, 58, 40), 330) == (date(2016, 4, 4), 0)

    def test_slot_boundary_is_identity(self):
        assert snap_to_slot(local(3, 12, 5, 0), 330) == (date(2016, 4, 3), 145)

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValueError):
            snap_to_slot(datetime(2016, 4, 3, 12, 0, 0), 330)

    @given(st.integers(min_value=0, max_value=86399))
    @settings(max_examples=300)
    def test_slot_always_in_range(self, second_of_day):
        ts = datetime(2016, 4, 3, tzinfo=IST) + timedelta(seconds=second_of_day)
        day, slot = snap_to_slot(ts.astimezone(UTC), 330)
        assert 0 <= slot < 288
        assert day in (date(2016, 4, 3), date(2016, 4, 4))


def candidate(user="u1", slot=100, lat=23.19, lon=72.63, accuracy=10.0, offset_s=0) -> RawFix:
    """A raw fix `offset_s` after the local start of a slot on 2016-04-03."""
    start = datetime(2016, 4, 3, tzinfo=IST) + timedelta(seconds=slot * 300 + offset_s)
    return raw(user, start.astimezone(UTC), lat=lat, lon=lon, accuracy=accuracy)


def survivors(fixes):
    """The clean fixes of a pipeline run that keeps every user-day: dedup only."""
    config = RunConfig(coverage_fraction=0.0, min_days=1)
    return clean_rows(filter_pipeline(fix_table(fixes), [SurveyRecord("u1", "u2", 3, 3)], config).clean_fixes)


class TestDedupe:
    def test_smallest_accuracy_wins(self):
        kept = survivors(
            [candidate(accuracy=30.0, lat=1.0), candidate(accuracy=12.0, lat=2.0)]
        )
        assert len(kept) == 1
        assert kept[0].lat == 2.0

    def test_single_fix_unchanged(self):
        (fix,) = survivors([candidate()])
        assert (fix.user_id, fix.day, fix.slot, fix.lat, fix.lon) == (
            "u1",
            date(2016, 4, 3),
            100,
            23.19,
            72.63,
        )

    def test_equal_accuracy_earliest_timestamp_wins(self):
        # 08:22, 08:18 and 08:20 local all snap to slot 100 (08:20)
        kept = survivors(
            [
                candidate(offset_s=120, lat=3.0),
                candidate(offset_s=-120, lat=1.0),
                candidate(offset_s=0, lat=2.0),
            ]
        )
        assert kept[0].lat == 1.0

    def test_full_tie_smallest_lat_lon_wins(self):
        kept = survivors([candidate(lat=2.0, lon=5.0), candidate(lat=2.0, lon=4.0)])
        assert kept[0].lon == 4.0

    def test_full_tie_smaller_lat_beats_smaller_lon(self):
        kept = survivors([candidate(lat=2.0, lon=4.0), candidate(lat=1.0, lon=5.0)])
        assert (kept[0].lat, kept[0].lon) == (1.0, 5.0)

    def test_distinct_slots_all_kept(self):
        kept = survivors([candidate(slot=100), candidate(slot=101)])
        assert len(kept) == 2

    @pytest.mark.parametrize("lat", [-0.0, 0.0])
    def test_full_tie_keeps_the_earlier_row(self, tmp_path, lat):
        # 0.0 == -0.0, so the rows tie on every key; the sign shows which survived
        config = RunConfig(coverage_fraction=0.0, min_days=1)
        fixes = fix_table([candidate(lat=lat), candidate(lat=-lat)])
        clean = filter_pipeline(fixes, [SurveyRecord("u1", "u2", 3, 3)], config).clean_fixes
        write_clean_fixes(tmp_path / "clean_fixes.csv", clean, {})
        (row,) = read_table(tmp_path / "clean_fixes.csv")[2]
        assert row[3] == repr(lat)

    def test_widest_window_with_many_users(self):
        # the first and the last local day any window can hold, for 3,000
        # users; per (user, day, slot) the pipeline must keep the best fix
        config = RunConfig(
            window_start=date.min, window_end=date.max, coverage_fraction=0.0, min_days=1
        )
        users = [f"u{i:04d}" for i in range(3000)]
        first = datetime(1, 1, 1, 6, 1, tzinfo=IST)
        last = datetime(9999, 12, 30, 23, 50, tzinfo=IST)
        fixes, expected = [], []
        for i, user in enumerate(users):
            # a second fix one minute later, in the same slot, is more accurate
            # at i % 3 == 0, ties (the earlier fix wins) at 1 and is worse at 2
            accuracy = 10.0 * (1 + i % 3)
            for when in (first, last):
                later = when + timedelta(minutes=1)
                fixes.append(raw(user, when.astimezone(UTC), lat=1.0, accuracy=20.0))
                fixes.append(raw(user, later.astimezone(UTC), lat=2.0, accuracy=accuracy))
                slot = (when.hour * 60 + when.minute) // 5
                expected.append((user, when.date(), slot, 2.0 if i % 3 == 0 else 1.0, 72.63))
        survey = [SurveyRecord(a, b, 3, 3) for a, b in zip(users, users[1:])]
        result = filter_pipeline(fix_table(fixes), survey, config)
        assert result.counts["deduped"] == 2 * len(users)
        assert clean_rows(result.clean_fixes) == expected


class TestRegroupCloseness:
    @pytest.mark.parametrize("raw_value,expected", [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (5, 4)])
    def test_mapping(self, raw_value, expected):
        assert regroup_closeness(raw_value) == expected

    def test_total_order_preserving_surjective(self):
        images = [regroup_closeness(v) for v in range(6)]
        assert images == sorted(images)
        assert set(images) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("bad", [-1, 6, 100])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            regroup_closeness(bad)


class TestCommonDays:
    def days(self, day_offsets):
        return tuple(date(2016, 4, 1) + timedelta(days=i) for i in day_offsets)

    def test_overlapping_window(self):
        a = self.days(range(0, 10))
        b = self.days(range(4, 12))
        shared = common_days(a, b)
        assert len(shared) == 6
        assert shared == tuple(date(2016, 4, 1) + timedelta(days=i) for i in range(4, 10))

    def test_identical_sets(self):
        a = self.days(range(9))
        b = self.days(range(9))
        assert len(common_days(a, b)) == 9

    def test_disjoint_sets(self):
        assert common_days(self.days(range(5)), self.days(range(10, 15))) == ()

    def test_symmetric(self):
        a = self.days([0, 2, 4, 8])
        b = self.days([2, 3, 4, 9])
        assert common_days(a, b) == common_days(b, a)


def build_user_days(user: str, n_days: int, slots_per_day: int, lat=23.19, lon=72.63):
    """Raw fixes giving `user` exactly slots_per_day slots on each of n_days."""
    fixes = []
    for d in range(n_days):
        for s in range(slots_per_day):
            slot = s * (288 // max(slots_per_day, 1)) if slots_per_day <= 288 else s
            ts = datetime(2016, 4, 1 + d, tzinfo=IST) + timedelta(seconds=slot * 300)
            fixes.append(raw(user, ts.astimezone(UTC), lat=lat, lon=lon))
    return fixes


SURVEY = [SurveyRecord("u1", "u2", 4, 3), SurveyRecord("u2", "u1", 3, 3)]


class TestFilterPipeline:
    def test_coverage_threshold_arithmetic(self):
        assert coverage_threshold(0.2) == 58
        assert coverage_threshold(0.25) == 72

    def test_day_with_57_slots_discarded(self):
        fixes = build_user_days("u1", 6, 58) + build_user_days("u2", 6, 58)
        # strip one slot from u1's first day: 57 occupied slots
        first_day = date(2016, 4, 1)
        removed_one = [
            f
            for f in fixes
            if not (
                f.user_id == "u1"
                and f.timestamp.astimezone(IST).date() == first_day
                and f.timestamp.astimezone(IST).hour == 0
                and f.timestamp.astimezone(IST).minute == 0
            )
        ]
        assert len(fixes) - len(removed_one) == 1
        result = filter_pipeline(fix_table(removed_one), SURVEY)
        assert result.valid_days["u1"] == tuple(
            date(2016, 4, 2) + timedelta(days=i) for i in range(5)
        )

    def test_day_with_58_slots_kept(self):
        result = filter_pipeline(fix_table(build_user_days("u1", 6, 58) + build_user_days("u2", 6, 58)), SURVEY)
        assert len(result.valid_days["u1"]) == 6

    def test_user_with_four_days_dropped(self):
        fixes = build_user_days("u1", 4, 60) + build_user_days("u2", 6, 60)
        result = filter_pipeline(fix_table(fixes), SURVEY)
        assert "u1" not in result.valid_days
        # u2 keeps its days regardless
        assert len(result.valid_days["u2"]) == 6

    def test_user_missing_from_survey_dropped(self):
        fixes = build_user_days("u1", 6, 60) + build_user_days("u3", 6, 60)
        result = filter_pipeline(fix_table(fixes), SURVEY)
        assert result.valid_days.keys() == {"u1"}

    def test_accuracy_cutoff(self):
        good = build_user_days("u1", 6, 60)
        bad = [
            RawFix(f.user_id, f.timestamp, f.lat, f.lon, accuracy=60.0) for f in good
        ]
        result = filter_pipeline(fix_table(bad), SURVEY)
        assert len(result.clean_fixes) == 0
        assert result.warnings  # structured warning, not a crash

    def test_date_window(self):
        march = [
            raw("u1", datetime(2016, 3, 20, 10, 0, tzinfo=IST).astimezone(UTC))
        ]
        result = filter_pipeline(fix_table(march + build_user_days("u1", 6, 60) + build_user_days("u2", 6, 60)), SURVEY)
        assert result.counts["in_window"] == result.counts["input_fixes"] - 1

    def test_window_is_closed_at_both_ends(self):
        cfg = RunConfig(window_start=date(2016, 4, 2), window_end=date(2016, 4, 5))
        edges = [datetime(2016, 4, 2, tzinfo=IST), datetime(2016, 4, 5, tzinfo=IST)]
        one_us = timedelta(microseconds=1)
        inside = [raw("u1", t.astimezone(UTC)) for t in edges]
        outside = [raw("u1", (edges[0] - one_us).astimezone(UTC)), raw("u1", (edges[1] + one_us).astimezone(UTC))]
        assert filter_pipeline(fix_table(inside + outside), SURVEY, cfg).counts["in_window"] == 2

    def test_no_clean_fix_on_invalid_day(self):
        fixes = build_user_days("u1", 6, 60) + build_user_days("u2", 6, 60)
        # u1 gets a sparse extra day that must not survive
        sparse_day = datetime(2016, 4, 20, 10, 0, tzinfo=IST)
        fixes.append(raw("u1", sparse_day.astimezone(UTC)))
        result = filter_pipeline(fix_table(fixes), SURVEY)
        assert date(2016, 4, 20) not in result.valid_days["u1"]
        assert all(f.day != date(2016, 4, 20) for f in clean_rows(result.clean_fixes))

    def test_idempotent_on_own_output(self):
        fixes = build_user_days("u1", 6, 60) + build_user_days("u2", 8, 70)
        first = filter_pipeline(fix_table(fixes), SURVEY)
        assert len(first.clean_fixes)
        re_expressed = [
            RawFix(
                user_id=f.user_id,
                timestamp=(
                    datetime.combine(f.day, time(0, 0), tzinfo=IST)
                    + timedelta(seconds=f.slot * 300)
                ).astimezone(UTC),
                lat=f.lat,
                lon=f.lon,
                accuracy=0.0,
            )
            for f in clean_rows(first.clean_fixes)
        ]
        second = filter_pipeline(fix_table(re_expressed), SURVEY)
        assert clean_rows(second.clean_fixes) == clean_rows(first.clean_fixes)
        assert second.valid_days == first.valid_days
        assert second.valid_days.keys() == first.valid_days.keys()

    def test_cross_midnight_snap_attributes_next_day(self):
        late = raw("u1", local(3, 23, 58, 40))
        fixes = [late] + build_user_days("u1", 6, 60) + build_user_days("u2", 6, 60)
        result = filter_pipeline(fix_table(fixes), SURVEY)
        # the rolled fix lands on Apr 4 slot 0, which is occupied anyway
        assert date(2016, 4, 4) in result.valid_days["u1"]
