"""Column kernels against their scalar definitions, and the column tables.

Each bulk kernel must give exactly what its scalar oracle gives on every
row: timestamps against `parse_timestamp`, snapping against
`snap_to_slot`, distance decisions against `haversine_m`, cells against
`geohash_encode`. The cleaning pipeline and the all-pairs scan must give
what straightforward row-by-row versions of them give.
"""

import csv
import io
import random
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv.artifacts import (
    CLEAN_FIX_COLUMNS,
    FIX_COLUMNS,
    iso_utc_texts,
    read_clean_fixes,
    read_fixes,
    write_clean_fixes,
    write_fixes,
)
from tiediv.encounter import Encounter, EncounterSet, detect_encounters
from tiediv.geo import geohash_decode_bounds, geohash_encode, geohash_encode_many, haversine_m, within_m
from tiediv.ingest import (
    CHUNK_ROWS,
    FixTable,
    RawFix,
    SurveyRecord,
    TextColumn,
    bulk_timestamps_us,
    from_epoch_us,
    parse_gps_log,
    parse_timestamp,
    to_epoch_us,
)
from tiediv.preprocess import (
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

from helpers import CleanRow, clean_rows, clean_table, fix_table

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
        instant.strftime("%Y-%m-%d %H:%M:%S"),  # naive
        instant.strftime("%Y-%m-%dT%H:%M:%S"),
        instant.replace(tzinfo=None).isoformat(sep=" ", timespec="milliseconds"),
        instant.replace(tzinfo=None).isoformat(timespec="microseconds"),
        f"{instant.timestamp():.3f}",  # fractional epoch
        f"{whole.timestamp():.{rng.randint(1, 6)}f}",
    ]


class TestBulkTimestamps:
    def test_matches_parse_timestamp_on_every_accepted_cell(self):
        rng = random.Random(3)
        cells = [text for t in random_instants(rng, 400) for text in renderings(t, rng)]
        for naive_offset in (0, 330, -240, 1439, -1439):
            t_us, ok = bulk_timestamps_us(cells, naive_offset)
            for cell, value, accepted in zip(cells, t_us.tolist(), ok.tolist()):
                if accepted:
                    assert value == to_epoch_us(parse_timestamp(cell, naive_offset)), cell
            # every rendering goes the bulk way: the instants lie below 2**32 s
            assert ok.sum() == 14 * 400

    def test_naive_cells_with_an_offset_outside_a_day_are_left_alone(self):
        # `parse_timestamp` rejects such an offset row by row
        cells = ["2016-04-03 10:00:00", "2016-04-03T10:00:00Z"]
        assert bulk_timestamps_us(cells, 1440)[1].tolist() == [False, True]

    @pytest.mark.parametrize(
        "cell",
        [
            "4294967295.999999",  # the largest bulk value, 1 us below 2**32 s
            "4294967295.5",
            "4294967294.000001",
            "0.000001",
            "0000000001.123456",
            "1459677731.9",
        ],
    )
    def test_fractional_epochs_inside_the_exact_range(self, cell):
        t_us, ok = bulk_timestamps_us([cell])
        assert ok[0]
        assert t_us[0] == to_epoch_us(parse_timestamp(cell))

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=6).flatmap(
            lambda k: st.integers(min_value=0, max_value=10**k - 1).map(lambda f: f"{f:0{k}d}")
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_fractional_epochs_match_fromtimestamp(self, seconds, fraction):
        cell = f"{seconds}.{fraction}"
        t_us, ok = bulk_timestamps_us([cell])
        assert ok[0]
        assert t_us[0] == to_epoch_us(parse_timestamp(cell))

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
            "4294967296.0",  # 2**32 s, the limit of the bulk range
            "4294967296.000001",
            "1459677731.1234567",  # 7 fraction digits
            "1.1234567",
            "0.0000005",
            "-1459677731.5",
            "1459677731.",
            ".5",
            "1e9",
            "2016-04-03x10:00:00",  # naive, but not 'T' or ' '
            "2016-04-03 10:00:00.1234",
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


def csv_writer_file(path, meta, columns, rows):
    """An artifact as `csv.writer` quotes it: the writers' byte-for-byte reference.

    Each row is written by a `csv.writer` told that rows end in "\r\n", so
    it quotes a cell holding either line-break character; the row then
    ends in "\n".
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for key, value in meta.items():
            handle.write(f"# {key}={value}\n")
        for row in [columns, *rows]:
            line = io.StringIO()
            csv.writer(line, lineterminator="\r\n").writerow(row)
            handle.write(line.getvalue()[:-2] + "\n")


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

    def test_fix_table_rows_are_the_parsed_rows(self):
        text = "user_id,timestamp,lat,lon,accuracy\nb,2016-04-03T10:02:11Z,1.5,2.5,3.0\na,1459677731,1.0,2.0,0.5\n"
        table, _ = parse_gps_log(io.BytesIO(text.encode()))
        rows = list(table)
        assert rows == [
            RawFix("b", datetime(2016, 4, 3, 10, 2, 11, tzinfo=UTC), 1.5, 2.5, 3.0),
            RawFix("a", datetime(2016, 4, 3, 10, 2, 11, tzinfo=UTC), 1.0, 2.0, 0.5),
        ]
        assert table[-1] == rows[-1] and table[0] == rows[0]

    def test_clean_table_round_trip_through_clean_fixes_csv(self, tmp_path):
        rows = [
            CleanRow("b", date(2016, 4, 2), 5, 23.1, 72.5),
            CleanRow("a", date(2016, 4, 1), 287, -0.0, 1e-300),
        ]
        write_clean_fixes(tmp_path / "clean.csv", clean_table(rows), {})
        assert clean_rows(read_clean_fixes(tmp_path / "clean.csv")) == rows

    @pytest.mark.parametrize("repeats", [True, False])
    def test_fix_writers_equal_a_csv_writer(self, tmp_path, repeats):
        # two chunks; with repeats every float column holds many 0.0 and -0.0,
        # without them every value of lat and lon is distinct and day and slot
        # are narrower ints
        n = CHUNK_ROWS + 1000
        rng = np.random.default_rng(4)

        def floats(pool):
            if repeats:
                return np.array(pool)[rng.integers(0, len(pool), n)]
            return np.where(rng.random(n) < 0.01, -0.0, rng.uniform(-90.0, 90.0, n))

        texts = ["a,b", 'say "hi"', "two\nlines", "cr\rlf", " lead", "trail ", "", "line\u2028sep", "\x85", "plain"]

        def text_column():
            return TextColumn(rng.integers(0, len(texts), n).astype(np.int32), tuple(sorted(texts)))

        lat, lon = floats([0.0, -0.0, 23.5]), floats([-0.0, 0.0, 72.5, 1e-300])
        accuracy = np.abs(floats([0.0, -0.0, 12.5])) * np.where(rng.random(n) < 0.5, -1.0, 1.0)
        fixes = FixTable(
            user=text_column(),
            t_us=rng.integers(0, 4 * 10**15, n),
            lat=lat,
            lon=lon,
            accuracy=accuracy,
            elevation=text_column(),
            satellites=text_column(),
            provider=text_column(),
        )
        clean = CleanTable(
            user=text_column(),
            day=rng.integers(16800, 16830, n, dtype=np.int64 if repeats else np.int32),
            slot=rng.integers(0, 288, n, dtype=np.int64 if repeats else np.int16),
            lat=lat,
            lon=lon,
        )
        meta = {"run": "writer test", "n": str(n)}
        write_fixes(tmp_path / "fixes.csv", fixes, meta)
        write_clean_fixes(tmp_path / "clean.csv", clean, meta)
        if repeats:
            assert (np.signbit(lat) & (lat == 0.0)).sum() > n // 4
        def cells(column):
            return [column.values[code] for code in column.codes.tolist()]

        fix_rows = zip(
            cells(fixes.user),
            [from_epoch_us(t).isoformat() for t in fixes.t_us.tolist()],
            map(repr, lat.tolist()),
            map(repr, lon.tolist()),
            cells(fixes.elevation),
            map(repr, accuracy.tolist()),
            cells(fixes.satellites),
            cells(fixes.provider),
        )
        clean_rows = zip(
            cells(clean.user),
            [day_of(day).isoformat() for day in clean.day.tolist()],
            map(str, clean.slot.tolist()),
            map(repr, lat.tolist()),
            map(repr, lon.tolist()),
        )
        csv_writer_file(tmp_path / "fixes_ref.csv", meta, FIX_COLUMNS, fix_rows)
        csv_writer_file(tmp_path / "clean_ref.csv", meta, CLEAN_FIX_COLUMNS, clean_rows)
        assert (tmp_path / "fixes.csv").read_bytes() == (tmp_path / "fixes_ref.csv").read_bytes()
        assert (tmp_path / "clean.csv").read_bytes() == (tmp_path / "clean_ref.csv").read_bytes()
        # every text, "cr\rlf" too, reads back as the cell it was
        assert cells(read_clean_fixes(tmp_path / "clean.csv").user) == cells(clean.user)

    def test_text_column_codes_follow_string_order(self):
        column = TextColumn.of(["b", "a", "é", "B", "a"])
        assert column.values == ("B", "a", "b", "é")
        assert [column.values[code] for code in column.codes] == ["b", "a", "é", "B", "a"]
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
        CleanRow(user, day, slot, f.lat, f.lon)
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
    result = filter_pipeline(fix_table(fixes), survey, cfg)
    clean, valid = reference_pipeline(fixes, survey, cfg)
    assert clean_rows(result.clean_fixes) == clean
    assert result.valid_days == valid

    threshold = rng.choice((10.0, 35.0, 50.0, 60.0))
    min_common = rng.randint(1, 4)
    # the rows again in shuffled order, with a few repeated (user, day, slot) keys
    rows = clean + [CleanRow(f.user_id, f.day, f.slot, f.lon % 90, f.lat) for f in rng.sample(clean, len(clean) // 20)]
    rng.shuffle(rows)
    assert detect_encounters(clean_table(rows), valid, threshold, min_common) == reference_detect(rows, valid, threshold, min_common)
