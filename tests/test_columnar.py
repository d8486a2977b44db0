"""Column kernels against their scalar definitions, and the column tables.

Each bulk kernel must give exactly what its scalar oracle gives on every
row: timestamps against `parse_timestamp`, snapping against
`snap_to_slot`, distance decisions against `haversine_m`, cells against
`geohash_encode`. The cleaning pipeline and the all-pairs scan must give
what straightforward row-by-row versions of them give.
"""

import io
import random
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv.artifacts import (
    iso_utc_texts,
    read_clean_fixes,
    read_fixes,
    write_clean_fixes,
    write_fixes,
)
from tiediv.encounter import Encounter, EncounterSet, detect_encounters
from tiediv.geo import geohash_decode_bounds, geohash_encode, geohash_encode_many, haversine_m, within_m
from tiediv.ingest import (
    FixTable,
    RawFix,
    SurveyRecord,
    TextColumn,
    bulk_timestamps_us,
    parse_gps_log,
    parse_timestamp,
    to_epoch_us,
)
from tiediv.preprocess import (
    CleanFix,
    CleanTable,
    PreprocessConfig,
    ValidDaySet,
    common_days,
    coverage_threshold,
    day_of,
    filter_pipeline,
    snap_to_slot,
    snap_to_slots,
)

UTC = timezone.utc
OFFSETS = (-240, 0, 330, 540)


def random_instants(rng: random.Random, n: int) -> list[datetime]:
    start = datetime(1990, 1, 1, tzinfo=UTC)
    return [
        start + timedelta(seconds=rng.randrange(60 * 365 * 86400), microseconds=rng.randrange(10**6))
        for _ in range(n)
    ]


def renderings(instant: datetime, rng: random.Random) -> list[str]:
    zone = timezone(timedelta(minutes=rng.choice(OFFSETS + (-720, 840, 59))))
    local = instant.astimezone(zone)
    whole = instant.replace(microsecond=0)
    return [
        str(int(whole.timestamp())),
        whole.strftime("%Y-%m-%dT%H:%M:%SZ"),
        whole.strftime("%Y-%m-%dT%H:%M:%Sz"),
        instant.isoformat(),
        instant.isoformat(timespec="milliseconds"),
        local.isoformat(),
        local.isoformat(timespec="seconds"),
        local.isoformat(timespec="milliseconds").replace("+00:00", "Z"),
        instant.strftime("%Y-%m-%d %H:%M:%S"),  # naive: not a bulk shape
        f"{instant.timestamp():.3f}",  # fractional epoch: not a bulk shape
    ]


class TestBulkTimestamps:
    def test_matches_parse_timestamp_on_every_accepted_cell(self):
        rng = random.Random(3)
        cells = [text for t in random_instants(rng, 400) for text in renderings(t, rng)]
        t_us, ok = bulk_timestamps_us(cells)
        for cell, value, accepted in zip(cells, t_us.tolist(), ok.tolist()):
            if accepted:
                assert value == to_epoch_us(parse_timestamp(cell)), cell
        # every zoned ISO shape and integer epoch goes the bulk way
        assert ok.sum() == 8 * 400

    @pytest.mark.parametrize(
        "cell",
        [
            "2016-02-30T10:00:00+05:30",  # no such day
            "2015-02-29T10:00:00Z",  # not a leap year
            "1900-02-29T10:00:00Z",
            "2016-04-03T24:00:00Z",
            "2016-04-03T10:60:00Z",
            "2016-04-03T10:00:60Z",
            "2016-04-03T10:00:00+24:00",
            "2016-04-03T10:00:00+05:60",
            "2016-13-03T10:00:00Z",
            "2016-00-03T10:00:00Z",
            "0001-01-01T00:00:00+05:30",  # instant before year 1 in UTC
            "9999-12-31T23:00:00-05:00",  # instant after year 9999 in UTC
            "2016-04-03 10:00:00+05:30",
            "2016-04-03T10:00:00.1234Z",
            "２０１６-04-03T10:00:00Z",  # non-ASCII digits
            "2016-04-03T10:00:00+0530",
            "१४५९६७७७३१",
            "99999999999999",
            "-1459677731",
        ],
    )
    def test_other_cells_are_left_to_the_scalar_parser(self, cell):
        _, ok = bulk_timestamps_us([cell])
        assert not ok[0]

    def test_leap_day_and_epoch_edges(self):
        cells = ["2000-02-29T00:00:00Z", "2016-02-29T23:59:59-00:00", "0", "1", "01459677731"]
        t_us, ok = bulk_timestamps_us(cells)
        assert ok.all()
        assert t_us.tolist() == [to_epoch_us(parse_timestamp(c)) for c in cells]

    def test_isoformat_texts(self):
        instants = random_instants(random.Random(5), 300) + [datetime(1969, 12, 31, 23, 59, 59, 500000, tzinfo=UTC)]
        t_us = np.array([to_epoch_us(t) for t in instants], dtype=np.int64)
        assert iso_utc_texts(t_us) == [t.isoformat() for t in instants]


class TestSnapToSlots:
    @pytest.mark.parametrize("offset", OFFSETS)
    def test_matches_snap_to_slot(self, offset):
        rng = random.Random(offset)
        zone = timezone(timedelta(minutes=offset))
        instants = random_instants(rng, 2000)
        # local 23:57:29.999999, 23:57:30, midpoints and slot boundaries
        for _ in range(200):
            day = datetime(2016, 4, rng.randint(1, 30), tzinfo=zone)
            slot_start = day + timedelta(seconds=300 * rng.randrange(288))
            instants += [
                day + timedelta(hours=23, minutes=57, seconds=29, microseconds=999999),
                day + timedelta(hours=23, minutes=57, seconds=30),
                slot_start + timedelta(seconds=150),
                slot_start + timedelta(seconds=149, microseconds=999999),
                slot_start + timedelta(seconds=150, microseconds=500000),
                slot_start,
                slot_start - timedelta(microseconds=1),
            ]
        t_us = np.array([to_epoch_us(t) for t in instants], dtype=np.int64)
        days, slots = snap_to_slots(t_us, offset)
        got = [(day_of(d), s) for d, s in zip(days.tolist(), slots.tolist())]
        assert got == [snap_to_slot(t.astimezone(UTC), offset) for t in instants]


class TestWithinThreshold:
    def test_decisions_match_scalar_haversine_at_the_threshold(self):
        rng = np.random.default_rng(11)
        n = 3000
        lat1 = rng.uniform(-80.0, 80.0, n)
        lon1 = rng.uniform(-179.0, 179.0, n)
        lat2 = lat1 + rng.uniform(-5e-4, 5e-4, n)
        lon2 = lon1 + rng.uniform(-5e-4, 5e-4, n)
        scalar = np.array([haversine_m(*p) for p in zip(lat1.tolist(), lon1.tolist(), lat2.tolist(), lon2.tolist())])
        # thresholds exactly at each distance and one ulp either side
        for threshold in (scalar, np.nextafter(scalar, np.inf), np.nextafter(scalar, 0.0)):
            for i in range(0, n, 7):
                t = float(threshold[i])
                if t <= 0.0:
                    continue
                got = within_m(lat1[i : i + 1], lon1[i : i + 1], lat2[i : i + 1], lon2[i : i + 1], t)
                assert bool(got[0]) == (scalar[i] <= t)

    def test_one_threshold_over_many_pairs(self):
        rng = np.random.default_rng(12)
        n = 20000
        lat1 = rng.uniform(-60.0, 60.0, n)
        lon1 = rng.uniform(-179.0, 179.0, n)
        lat2 = lat1 + rng.normal(0.0, 3e-4, n)
        lon2 = lon1 + rng.normal(0.0, 3e-4, n)
        expected = [
            haversine_m(*p) <= 50.0 for p in zip(lat1.tolist(), lon1.tolist(), lat2.tolist(), lon2.tolist())
        ]
        assert within_m(lat1, lon1, lat2, lon2, 50.0).tolist() == expected
        assert 0 < sum(expected) < n


class TestGeohashMany:
    def test_cell_edges_midpoints_and_poles(self):
        rng = random.Random(8)
        lats, lons = [], []
        for _ in range(300):
            code = geohash_encode(rng.uniform(-90, 90), rng.uniform(-180, 179.999), rng.randint(1, 9))
            lat_lo, lat_hi, lon_lo, lon_hi = geohash_decode_bounds(code)
            for lat in (lat_lo, lat_hi, (lat_lo + lat_hi) / 2.0):
                for lon in (lon_lo, (lon_lo + lon_hi) / 2.0):
                    lats.append(lat)
                    lons.append(lon)
            # the midpoint of two fixes sitting on opposite cell edges
            lats.append((lat_lo + lat_hi) / 2.0)
            lons.append((lon_lo + np.nextafter(lon_hi, -np.inf)) / 2.0)
        largest_lon = float(np.nextafter(180.0, 0.0))
        for lat in (90.0, -90.0, 0.0, np.nextafter(90.0, 0.0)):
            for lon in (-180.0, largest_lon, 0.0, -0.0):
                lats.append(float(lat))
                lons.append(lon)
        lat_arr, lon_arr = np.array(lats), np.array(lons)
        for length in (1, 8, 12):
            assert geohash_encode_many(lat_arr, lon_arr, length) == [
                geohash_encode(a, b, length) for a, b in zip(lats, lons)
            ]

    def test_out_of_range_raises_the_scalar_error(self):
        with pytest.raises(ValueError, match="longitude out of range"):
            geohash_encode_many(np.array([0.0]), np.array([180.0]))


class TestTables:
    def test_fix_table_round_trip_through_fixes_csv(self, tmp_path):
        text = (
            "user_id,timestamp,lat,lon,elevation,accuracy,satellites,provider\n"
            'u2,2016-04-03T10:02:11Z,23.188,72.628,4.0,36.0,7,gps\n'
            '"u,1",2016-04-03T10:02:11.250+05:30,-0.0,72.628,,12.5,,\n'
            "u1,1459677731.5,23.1,-180,nan,0,12,fused\n"
        )
        table, report = parse_gps_log(io.BytesIO(text.encode()))
        assert report.n_rejected == 0
        write_fixes(tmp_path / "fixes.csv", table, {})
        again = read_fixes(tmp_path / "fixes.csv")
        assert list(map(repr, again)) == list(map(repr, table))  # repr: nan == nan
        assert [f.user_id for f in table] == ["u2", "u,1", "u1"]
        assert table.user.values == ("u,1", "u1", "u2")  # sorted name table

    def test_fix_table_from_rows_is_the_parsed_table(self):
        text = "user_id,timestamp,lat,lon,accuracy\nb,2016-04-03T10:02:11Z,1.5,2.5,3.0\na,1459677731,1.0,2.0,0.5\n"
        table, _ = parse_gps_log(io.BytesIO(text.encode()))
        rows = list(table)
        assert isinstance(rows[0], RawFix)
        assert FixTable.from_rows(rows) == table
        assert table == rows and table[-1] == rows[-1]

    def test_clean_table_round_trip_through_clean_fixes_csv(self, tmp_path):
        rows = [
            CleanFix("b", date(2016, 4, 2), 5, 23.1, 72.5),
            CleanFix("a", date(2016, 4, 1), 287, -0.0, 1e-300),
        ]
        table = CleanTable.from_rows(rows)
        write_clean_fixes(tmp_path / "clean.csv", table, {})
        assert list(read_clean_fixes(tmp_path / "clean.csv")) == rows

    def test_text_column_codes_follow_string_order(self):
        column = TextColumn.of(["b", "a", "é", "B", "a"])
        assert column.values == ("B", "a", "b", "é")
        assert column.texts() == ["b", "a", "é", "B", "a"]
        assert column.codes.tolist() == [2, 1, 3, 0, 1]


@given(st.lists(st.integers(min_value=0, max_value=10**10), max_size=50))
@settings(max_examples=50, deadline=None)
def test_bulk_epoch_seconds(seconds):
    cells = [str(s) for s in seconds]
    t_us, ok = bulk_timestamps_us(cells)
    assert ok.all()
    assert t_us.tolist() == [to_epoch_us(parse_timestamp(c)) for c in cells]


# --- whole stages against row-by-row reference versions ----------------------


def reference_pipeline(fixes, survey, cfg):
    """The row-by-row cleaning: dict dedup, per-user-day slot counts."""
    zone = timezone(timedelta(minutes=cfg.zone_offset_minutes))
    start = datetime.combine(cfg.window_start, datetime.min.time(), tzinfo=zone)
    end = datetime.combine(cfg.window_end, datetime.min.time(), tzinfo=zone)
    kept = [f for f in fixes if start <= f.timestamp <= end and f.accuracy < cfg.accuracy_cutoff_m]
    best = {}
    for f in kept:
        day, slot = snap_to_slot(f.timestamp, cfg.zone_offset_minutes)
        key = (f.user_id, day, slot)
        rank = (f.accuracy, f.timestamp, f.lat, f.lon)
        if key not in best or rank < best[key][0]:
            best[key] = (rank, f)
    snapped = [(key, f) for key, (_, f) in sorted(best.items())]
    slots_per_day = {}
    for (user, day, _), _ in snapped:
        slots_per_day[(user, day)] = slots_per_day.get((user, day), 0) + 1
    good = {}
    for (user, day), n in sorted(slots_per_day.items()):
        if n >= coverage_threshold(cfg.coverage_fraction):
            good.setdefault(user, []).append(day)
    surveyed = {u for r in survey for u in (r.rater_id, r.ratee_id)}
    retained = {u for u, days in good.items() if len(days) >= cfg.min_days and u in surveyed}
    clean = [
        CleanFix(user, day, slot, f.lat, f.lon)
        for (user, day, slot), f in snapped
        if user in retained and day in good[user]
    ]
    return clean, {u: ValidDaySet(u, tuple(good[u])) for u in sorted(retained)}


def reference_detect(fixes, valid_days, threshold_m, min_common_days):
    """The row-by-row all-pairs scan: per user-day slot dicts, scalar kernels."""
    by_user_day = {}
    for f in fixes:
        by_user_day.setdefault((f.user_id, f.day), {})[f.slot] = f
    users = sorted(valid_days)
    result = {}
    for i, lo in enumerate(users):
        for hi in users[i + 1 :]:
            shared = common_days(valid_days[lo], valid_days[hi])
            if len(shared) < min_common_days:
                continue
            encounters = []
            for day in shared:
                a, b = by_user_day.get((lo, day), {}), by_user_day.get((hi, day), {})
                for slot in sorted(a.keys() & b.keys()):
                    p, q = a[slot], b[slot]
                    if haversine_m(p.lat, p.lon, q.lat, q.lon) <= threshold_m:
                        cell = geohash_encode((p.lat + q.lat) / 2.0, (p.lon + q.lon) / 2.0, 8)
                        encounters.append(Encounter(lo, hi, day, slot, cell))
            result[(lo, hi)] = EncounterSet(lo, hi, shared, tuple(encounters))
    return result


IST = timezone(timedelta(minutes=330))
SPOTS = [(23.19, 72.63), (23.1903, 72.6302), (23.19, 72.6305)]  # 0-60 m apart


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_pipeline_and_scan_match_row_by_row_reference(seed):
    rng = random.Random(seed)
    users = [f"u{i}" for i in range(rng.randint(2, 7))]
    fixes = []
    for user in users:
        for _ in range(rng.randint(0, 400)):
            # whole minutes, so timestamps tie and some fall exactly on the window's ends
            local = datetime(2016, 4, 1, tzinfo=IST) + timedelta(
                minutes=rng.randrange(-1440, 9 * 1440), microseconds=rng.choice((0, 0, 0, 500000))
            )
            lat, lon = rng.choice(SPOTS)
            fixes.append(
                RawFix(
                    user_id=user,
                    timestamp=local.astimezone(UTC),
                    lat=lat + rng.choice((0.0, 1e-6, -2e-6)),
                    lon=lon + rng.choice((0.0, 3e-6)),
                    accuracy=float(rng.choice((5, 10, 10, 59.5, 60, 75))),
                )
            )
    survey = [SurveyRecord(a, b, 3, 3) for a, b in zip(users, users[1:])]
    cfg = PreprocessConfig(
        window_end=date(2016, 4, rng.randint(3, 9)), coverage_fraction=rng.choice((0.0, 0.05, 0.1)),
        min_days=rng.randint(1, 3), zone_offset_minutes=330,
    )
    result = filter_pipeline(fixes, survey, cfg)
    clean, valid = reference_pipeline(fixes, survey, cfg)
    assert list(result.clean_fixes) == clean
    assert result.valid_days == valid

    threshold = rng.choice((10.0, 35.0, 50.0, 60.0))
    min_common = rng.randint(1, 4)
    # the rows again in shuffled order, with a few repeated (user, day, slot) keys
    rows = clean + [CleanFix(f.user_id, f.day, f.slot, f.lon % 90, f.lat) for f in rng.sample(clean, len(clean) // 20)]
    rng.shuffle(rows)
    assert detect_encounters(rows, valid, threshold, min_common) == reference_detect(rows, valid, threshold, min_common)
