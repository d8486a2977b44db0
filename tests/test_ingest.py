"""Parsing of GPS logs and survey files."""

import io
from datetime import datetime, timezone

import pytest

from tiediv.ingest import (
    IngestOptions,
    SchemaError,
    parse_gps_log,
    parse_survey,
    parse_timestamp,
)

GPS_HEADER = "user_id,timestamp,lat,lon,elevation,accuracy,satellites,provider\n"


def gps_source(*rows: str) -> io.BytesIO:
    return io.BytesIO((GPS_HEADER + "".join(r + "\n" for r in rows)).encode())


def survey_source(*rows: str) -> io.BytesIO:
    header = "rater_id,ratee_id,closeness,proximity\n"
    return io.BytesIO((header + "".join(r + "\n" for r in rows)).encode())


class TestParseTimestamp:
    def test_iso_with_zone(self):
        ts = parse_timestamp("2016-04-03T10:02:11Z")
        assert ts == datetime(2016, 4, 3, 10, 2, 11, tzinfo=timezone.utc)

    def test_iso_with_offset(self):
        ts = parse_timestamp("2016-04-03T15:32:11+05:30")
        assert ts == datetime(2016, 4, 3, 10, 2, 11, tzinfo=timezone.utc)

    def test_epoch_seconds(self):
        assert parse_timestamp("1459677731") == datetime(
            2016, 4, 3, 10, 2, 11, tzinfo=timezone.utc
        )

    def test_naive_with_configured_offset(self):
        ts = parse_timestamp("2016-04-03T15:32:11", naive_utc_offset_minutes=330)
        assert ts == datetime(2016, 4, 3, 10, 2, 11, tzinfo=timezone.utc)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday-ish")


class TestParseGpsLog:
    def test_well_formed_row(self):
        fixes, report = parse_gps_log(
            gps_source("u1,2016-04-03T10:02:11Z,23.188,72.628,4.0,36.0,7,gps")
        )
        assert report.n_rejected == 0
        (fix,) = fixes
        assert fix.user_id == "u1"
        assert fix.timestamp == datetime(2016, 4, 3, 10, 2, 11, tzinfo=timezone.utc)
        assert fix.lat == 23.188
        assert fix.lon == 72.628
        assert fix.elevation == 4.0
        assert fix.accuracy == 36.0
        assert fix.satellites == 7
        assert fix.provider == "gps"

    def test_optional_fields_absent(self):
        fixes, report = parse_gps_log(
            gps_source("u1,2016-04-03T10:02:11Z,23.188,72.628,,36.0,,")
        )
        assert report.n_rejected == 0
        assert fixes[0].elevation is None
        assert fixes[0].satellites is None
        assert fixes[0].provider is None

    def test_lat_out_of_range_rejected(self):
        fixes, report = parse_gps_log(
            gps_source("u1,2016-04-03T10:02:11Z,91.2,72.628,,36.0,,gps")
        )
        assert fixes == []
        assert report.entries == [(2, "lat out of range")]

    def test_empty_file_with_header(self):
        fixes, report = parse_gps_log(gps_source())
        assert fixes == []
        assert report.n_rejected == 0
        assert report.n_accepted == 0

    def test_missing_mandatory_column_fatal(self):
        source = io.BytesIO(b"user_id,timestamp,lat,lon\nu1,2016-04-03T10:02:11Z,1,2\n")
        with pytest.raises(SchemaError):
            parse_gps_log(source)

    def test_header_names_case_insensitive_with_aliases(self):
        source = io.BytesIO(
            b"User,Time,Latitude,Longitude,Acc\nu1,2016-04-03T10:02:11Z,23.1,72.6,30\n"
        )
        fixes, report = parse_gps_log(source)
        assert len(fixes) == 1
        assert report.n_rejected == 0

    def test_duplicate_header_row_is_rejected_not_fatal(self):
        fixes, report = parse_gps_log(
            gps_source(
                "u1,2016-04-03T10:02:11Z,23.1,72.6,,30,,gps",
                GPS_HEADER.strip(),
                "u2,2016-04-03T10:04:11Z,23.1,72.6,,30,,gps",
            )
        )
        assert len(fixes) == 2
        assert report.entries == [(3, "duplicate header row")]

    def test_negative_accuracy_rejected(self):
        _, report = parse_gps_log(gps_source("u1,2016-04-03T10:02:11Z,23.1,72.6,,-5,,gps"))
        assert report.entries == [(2, "accuracy negative or non-finite")]

    def test_bad_timestamp_rejected(self):
        _, report = parse_gps_log(gps_source("u1,not-a-time,23.1,72.6,,30,,gps"))
        assert report.n_rejected == 1

    def test_comment_lines_skipped(self):
        source = io.BytesIO(
            b"# seed=7\n" + GPS_HEADER.encode() + b"u1,2016-04-03T10:02:11Z,23.1,72.6,,30,,gps\n"
        )
        fixes, report = parse_gps_log(source)
        assert len(fixes) == 1
        assert report.n_rejected == 0

    def test_configurable_delimiter(self):
        source = io.BytesIO(
            b"user_id;timestamp;lat;lon;accuracy\nu1;2016-04-03T10:02:11Z;23.1;72.6;30\n"
        )
        fixes, _ = parse_gps_log(source, IngestOptions(delimiter=";"))
        assert len(fixes) == 1

    def test_accounting_identity_and_determinism(self):
        rows = [
            "u1,2016-04-03T10:02:11Z,23.1,72.6,,30,,gps",
            "u1,bad,23.1,72.6,,30,,gps",
            "u2,2016-04-03T10:04:11Z,100,72.6,,30,,gps",
            "u2,2016-04-03T10:06:11Z,23.2,72.7,,12,,gps",
        ]
        fixes1, report1 = parse_gps_log(gps_source(*rows))
        fixes2, report2 = parse_gps_log(gps_source(*rows))
        assert report1.n_accepted + report1.n_rejected == len(rows)
        assert fixes1 == fixes2
        assert report1.entries == report2.entries


class TestParseSurvey:
    def test_direct_mapping(self):
        records, report = parse_survey(survey_source("A,B,5,4"))
        (rec,) = records
        assert (rec.rater_id, rec.ratee_id, rec.closeness_raw, rec.proximity_raw) == (
            "A",
            "B",
            5,
            4,
        )
        assert report.n_rejected == 0

    def test_self_rating_rejected(self):
        records, report = parse_survey(survey_source("A,A,3,2"))
        assert records == []
        assert report.entries == [(2, "self-rating")]

    def test_closeness_out_of_range_rejected(self):
        records, report = parse_survey(survey_source("A,B,7,1"))
        assert records == []
        assert report.entries == [(2, "closeness out of range")]

    def test_proximity_out_of_range_rejected(self):
        _, report = parse_survey(survey_source("A,B,3,0"))
        assert report.entries == [(2, "proximity out of range")]

    def test_accounting_identity(self):
        rows = ["A,B,5,4", "A,A,3,2", "B,A,0,1", "C,D,9,1"]
        records, report = parse_survey(survey_source(*rows))
        assert len(records) + report.n_rejected == len(rows)


class TestByteOrderMark:
    """Spreadsheet exports often begin with a UTF-8 byte-order mark."""

    def test_gps_log_with_bom(self):
        plain = gps_source("u1,2016-04-03T10:02:11Z,23.188,72.628,,36.0,,gps").getvalue()
        fixes, report = parse_gps_log(io.BytesIO(b"\xef\xbb\xbf" + plain))
        assert [f.user_id for f in fixes] == ["u1"]
        assert report.entries == []
        assert fixes == parse_gps_log(io.BytesIO(plain))[0]

    def test_survey_with_bom(self):
        plain = survey_source("A,B,5,4", "A,A,3,2").getvalue()
        records, report = parse_survey(io.BytesIO(b"\xef\xbb\xbf" + plain))
        assert [(r.rater_id, r.ratee_id) for r in records] == [("A", "B")]
        assert report.entries == [(3, "self-rating")]

    def test_text_source_with_bom(self):
        text = "\ufeffrater_id,ratee_id,closeness,proximity\nA,B,5,4\n"
        records, _ = parse_survey(io.StringIO(text))
        assert [r.rater_id for r in records] == ["A"]
