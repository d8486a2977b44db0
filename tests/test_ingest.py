"""Parsing of GPS logs and survey files."""

import codecs
import io
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest

from tiediv import ingest
from tiediv.artifacts import read_survey, write_survey
from tiediv.cli import main
from tiediv.config import RunConfig
from tiediv.ingest import (
    SchemaError,
    SurveyRecord,
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
        assert len(fixes) == 0
        assert report.entries == [(2, "lat out of range")]

    def test_empty_file_with_header(self):
        fixes, report = parse_gps_log(gps_source())
        assert len(fixes) == 0
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
        fixes, _ = parse_gps_log(source, RunConfig(delimiter=";"))
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
        assert list(fixes1) == list(fixes2)
        assert report1.entries == report2.entries


# Rows with more than one fault, and the reason each is rejected with:
# the checks run in a fixed order and the first one a row fails names it.
MULTI_FAULT_GPS = [
    ("u1,not-a-time,91,72.6,,30,,gps", "unparseable timestamp: 'not-a-time'"),
    ("u1,,north,200,x,-5,-2,gps", "empty timestamp"),
    (",2016-04-03T10:02:11Z,23.1,72.6,,30,-2,gps", "empty user id"),
    ("u1,2016-04-03T10:02:11Z,north,200,,-5,,gps", "non-numeric lat/lon/accuracy"),
    ("u1,2016-04-03T10:02:11Z,23.1,72.6,,acc,,gps", "non-numeric lat/lon/accuracy"),
    ("u1,2016-04-03T10:02:11Z,91,200,,-5,,gps", "lat out of range"),
    ("u1,2016-04-03T10:02:11Z,nan,72.6,,30,,gps", "lat out of range"),
    ("u1,2016-04-03T10:02:11Z,23.1,180,,inf,,gps", "lon out of range"),
    (",2016-04-03T10:02:11Z,23.1,72.6,,inf,x,gps", "accuracy negative or non-finite"),
    (" ,2016-04-03T10:02:11Z,23.1,72.6,high,30,-2,gps", "empty user id"),
    ("u1,2016-04-03T10:02:11Z,23.1,72.6,high,30,-2,gps", "non-numeric elevation/satellites"),
    ("u1,2016-04-03T10:02:11Z,23.1,72.6,,30,1.5,gps", "non-numeric elevation/satellites"),
    ("u1,2016-04-03T10:02:11Z,23.1,72.6,,30,-2,gps", "negative satellite count"),
    ("u1,nan,23.1,72.6,,30,,gps", "non-finite epoch timestamp: 'nan'"),
]


@pytest.mark.parametrize(("row", "reason"), MULTI_FAULT_GPS)
def test_first_failing_check_names_a_gps_row(row, reason):
    fixes, report = parse_gps_log(gps_source("u0,2016-04-03T10:00:00Z,23.1,72.6,,30,,gps", row))
    assert report.entries == [(3, reason)]
    assert [f.user_id for f in fixes] == ["u0"]


def test_multi_fault_gps_rows_together_keep_their_reasons():
    rows = [row for row, _ in MULTI_FAULT_GPS]
    _, report = parse_gps_log(gps_source(*rows))
    assert report.entries == [(i + 2, reason) for i, (_, reason) in enumerate(MULTI_FAULT_GPS)]


MULTI_FAULT_SURVEY = [
    (",B,x,1", "empty rater/ratee id"),
    ("A, ,9,0", "empty rater/ratee id"),
    (" , ,x,9", "empty rater/ratee id"),  # also a self-rating of ''
    ("A,A,x,9", "self-rating"),
    ("A, A ,3,2", "self-rating"),
    ("A,B,x,9", "non-integer closeness/proximity"),
    ("A,B,9,y", "non-integer closeness/proximity"),
    ("A,B,7,0", "closeness out of range"),
    ("A,B,-1,3", "closeness out of range"),
    ("A,B,5,6", "proximity out of range"),
]


@pytest.mark.parametrize(("row", "reason"), MULTI_FAULT_SURVEY)
def test_first_failing_check_names_a_survey_row(row, reason):
    records, report = parse_survey(survey_source("A,B,5,4", row))
    assert report.entries == [(3, reason)]
    assert [(r.rater_id, r.ratee_id) for r in records] == [("A", "B")]


class TestOutOfRangeTimestamps:
    """Instants `datetime` cannot hold are rejected rows, not a crash."""

    ROWS = (
        "u1,2016-04-03T10:02:11Z,23.1,72.6,,30,,gps",
        "u1,1e20,23.1,72.6,,30,,gps",
        "u1,0001-01-01T00:00:00+01:00,23.1,72.6,,30,,gps",
        "u1,9999-12-31T23:00:00-05:00,23.1,72.6,,30,,gps",
        "u2,2016-04-03T10:04:11Z,23.2,72.7,,12,,gps",
    )
    REASONS = [
        (3, "timestamp out of range: '1e20'"),
        (4, "timestamp out of range: '0001-01-01T00:00:00+01:00'"),
        (5, "timestamp out of range: '9999-12-31T23:00:00-05:00'"),
    ]

    @pytest.mark.parametrize("cell", ["1e20", "-1e20", "1e15", "-1e12", "0001-01-01T00:00:00+01:00"])
    def test_parse_timestamp_raises_value_error(self, cell):
        with pytest.raises(ValueError, match=re.escape(f"timestamp out of range: '{cell}'")):
            parse_timestamp(cell)

    def test_rows_rejected_and_others_kept(self):
        fixes, report = parse_gps_log(gps_source(*self.ROWS))
        assert report.entries == self.REASONS
        assert [f.user_id for f in fixes] == ["u1", "u2"]

    def test_ingest_exits_zero(self, tmp_path):
        gps = tmp_path / "gps.csv"
        gps.write_bytes(gps_source(*self.ROWS).getvalue())
        survey = Path(__file__).parent / "data" / "mini_survey.csv"
        out = tmp_path / "out"
        assert main(["ingest", "--gps", str(gps), "--survey", str(survey), "-o", str(out)]) == 0
        rejects = (out / "ingest_rejects.txt").read_text(encoding="utf-8")
        assert "".join(f"{line}\t{reason}\n" for line, reason in self.REASONS) in rejects
        assert "# accepted=2 rejected=3" in rejects


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

    def test_repeated_rating_rejected(self):
        rows = ["A,B,5,4", "B,A,3,2", "A,B,0,2", " A , B ,1,1", "A,C,2,2"]
        records, report = parse_survey(survey_source(*rows))
        assert [(r.rater_id, r.ratee_id, r.closeness_raw) for r in records] == [
            ("A", "B", 5), ("B", "A", 3), ("A", "C", 2)
        ]
        assert report.entries == [(4, "duplicate rating"), (5, "duplicate rating")]
        assert report.n_accepted == 3

    def test_only_accepted_ratings_count(self):
        """A rejected row of a pair does not make the pair's accepted row a repeat."""
        records, report = parse_survey(survey_source("A,B,9,2", "A,B,x,2", "A,B,5,4", "A,B,5,4"))
        assert [(r.rater_id, r.ratee_id, r.closeness_raw) for r in records] == [("A", "B", 5)]
        assert report.entries == [
            (2, "closeness out of range"),
            (3, "non-integer closeness/proximity"),
            (5, "duplicate rating"),
        ]

    def test_repeated_rating_found_across_chunks(self, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 1)  # a block per row
        records, report = parse_survey(survey_source("A,B,5,4", "B,A,3,2", "A,B,5,4"))
        assert len(records) == 2
        assert report.entries == [(4, "duplicate rating")]

    def test_ingest_rejects_a_repeated_rating(self, tmp_path):
        data = Path(__file__).parent / "data"
        survey = tmp_path / "survey.csv"
        survey.write_text((data / "mini_survey.csv").read_text(encoding="utf-8") + "sch000a,sch000b,0,2\n")
        out = tmp_path / "out"
        gps = data / "mini_gps.csv"
        assert main(["ingest", "--gps", str(gps), "--survey", str(survey), "-o", str(out)]) == 0
        rejects = (out / "ingest_rejects.txt").read_text(encoding="utf-8")
        assert rejects.endswith("== survey ==\n6\tduplicate rating\n# accepted=4 rejected=1\n")

    def test_staged_survey_with_a_repeated_rating_fails(self, tmp_path):
        path = tmp_path / "survey.csv"
        record = SurveyRecord("A", "B", 5, 4)
        write_survey(path, [record, SurveyRecord("B", "A", 3, 2)], {})
        assert read_survey(path) == [record, SurveyRecord("B", "A", 3, 2)]
        write_survey(path, [record, SurveyRecord("B", "A", 3, 2), record], {})
        with pytest.raises(ValueError, match=re.escape(f"{path}: data row 3: duplicate rating")):
            read_survey(path)


class TestByteOrderMark:
    """Spreadsheet exports often begin with a UTF-8 byte-order mark."""

    def test_gps_log_with_bom(self):
        plain = gps_source("u1,2016-04-03T10:02:11Z,23.188,72.628,,36.0,,gps").getvalue()
        fixes, report = parse_gps_log(io.BytesIO(b"\xef\xbb\xbf" + plain))
        assert [f.user_id for f in fixes] == ["u1"]
        assert report.entries == []
        assert list(fixes) == list(parse_gps_log(io.BytesIO(plain))[0])

    def test_survey_with_bom(self):
        plain = survey_source("A,B,5,4", "A,A,3,2").getvalue()
        records, report = parse_survey(io.BytesIO(b"\xef\xbb\xbf" + plain))
        assert [(r.rater_id, r.ratee_id) for r in records] == [("A", "B")]
        assert report.entries == [(3, "self-rating")]


class Pipe(io.BytesIO):
    """A handle that reads on, as a pipe does, but neither seeks nor reads the whole input at once."""

    def read(self, size=-1):
        if size is None or size < 0:
            raise AssertionError("read the whole input at once")
        return super().read(size)

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
@pytest.mark.parametrize("block_bytes", [1 << 21, 1 << 14])  # the first holds each file
def test_readers_stream_their_handle(monkeypatch, bom, block_bytes):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    data = Path(__file__).parent / "data"
    for parse, name in ((parse_gps_log, "mini_gps.csv"), (parse_survey, "mini_survey.csv")):
        text = bom + (data / name).read_bytes()
        rows, report = parse(Pipe(text))
        expected_rows, expected_report = parse(io.BytesIO(text))
        assert list(rows) == list(expected_rows) and len(rows) > 0
        assert report == expected_report


class TestOversizedField:
    """A cell over csv's field size limit is a rejected row, not a crash."""

    BIG = "x" * 200_000
    REASON = "field larger than field limit (131072)"
    GPS_ROWS = (
        "u1,2016-04-03T10:02:11Z,23.1,72.6,,30,,gps",
        f"{BIG},2016-04-03T10:02:11Z,23.1,72.6,,30,,gps",
        "u2,2016-04-03T10:04:11Z,23.2,72.7,,12,,gps",
        "u3,later,23.2,72.7,,12,,gps",
    )

    # a block of 32 KiB read on to the long row's end, then one of the rows after it;
    # blocks of 64 bytes: the header, the row before the long one with it, the rest
    @pytest.mark.parametrize("block_bytes", [1 << 15, 64])
    def test_gps_row_rejected_and_reading_goes_on(self, monkeypatch, block_bytes):
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
        fixes, report = parse_gps_log(gps_source(*self.GPS_ROWS))
        assert report.entries == [(3, self.REASON), (5, "unparseable timestamp: 'later'")]
        assert [f.user_id for f in fixes] == ["u1", "u2"]

    @pytest.mark.parametrize("block_bytes", [64, 1 << 21])  # the last holds the log
    def test_gps_row_rejected_after_the_switch_to_csv(self, monkeypatch, block_bytes):
        # a quoted first cell, and the long line blocks later
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
        rows = ['"u0",2016-04-03T10:02:11Z,23.1,72.6,,30,,gps', *self.GPS_ROWS]
        fixes, report = parse_gps_log(gps_source(*rows))
        assert report.entries == [(4, self.REASON), (6, "unparseable timestamp: 'later'")]
        assert [f.user_id for f in fixes] == ["u0", "u1", "u2"]

    def test_survey_row_rejected_and_reading_goes_on(self):
        records, report = parse_survey(survey_source("A,B,5,4", f"A,{self.BIG},3,2", "B,A,4,3"))
        assert report.entries == [(3, self.REASON)]
        assert [(r.rater_id, r.ratee_id) for r in records] == [("A", "B"), ("B", "A")]

    def test_oversized_header_is_a_schema_error(self):
        with pytest.raises(SchemaError, match=re.escape(f"line 2: {self.REASON}")):
            parse_survey(io.BytesIO(f"# export\nrater_id,{self.BIG}\nA,B,5,4\n".encode()))

    def test_ingest_exits_zero(self, tmp_path):
        gps = tmp_path / "gps.csv"
        gps.write_bytes(gps_source(*self.GPS_ROWS).getvalue())
        survey = Path(__file__).parent / "data" / "mini_survey.csv"
        out = tmp_path / "out"
        assert main(["ingest", "--gps", str(gps), "--survey", str(survey), "-o", str(out)]) == 0
        rejects = (out / "ingest_rejects.txt").read_text(encoding="utf-8")
        assert rejects.startswith(f"== gps ==\n3\t{self.REASON}\n5\t")

    # a cell over the limit on one long line, or on 1,400 short ones
    @pytest.mark.parametrize(
        "big,lines", [(BIG, 1), ("\n".join(["x" * 99] * 1400), 1400)], ids=["long line", "short lines"]
    )
    def test_oversized_cell_spanning_lines_is_one_rejected_row(self, big, lines):
        # the cell's lines may not be read as rows
        row = f'"{big}\nu9,2016-04-03T10:02:11Z,23.1,72.6,5\nend",2016-04-03T10:02:11Z,23.1,72.6,5'
        source = "user_id,timestamp,lat,lon,accuracy\n" + row + "\n"
        fixes, report = parse_gps_log(io.BytesIO(source.encode()))
        assert report.entries == [(2, self.REASON)]
        assert len(fixes) == 0
        later = "u2,2016-04-03T10:04:11Z,23.2,72.7,12\nu3,later,23.2,72.7,12\n"
        fixes, report = parse_gps_log(io.BytesIO((source + later).encode()))
        assert report.entries == [(2, self.REASON), (lines + 5, "unparseable timestamp: 'later'")]
        assert [f.user_id for f in fixes] == ["u2"]


class TestLineNumbers:
    """A rejected row is numbered by the line it starts on, quoted line breaks counted."""

    ROWS = (
        '"u\n1",2016-04-03T10:02:11Z,23.1,72.6,,5,,gps',
        "u2,bad,23.1,72.6,,5,,gps",
        '"u\r\n3","x\ny",23.1,72.6,,5,,gps',
        "u4,2016-04-03T10:02:11Z,23.1,72.6,,5,,gps",
        "u5,2016-04-03T10:02:11Z",
        GPS_HEADER.rstrip("\n"),
    )

    # a block that holds the log, a block per row, and blocks of a row or two
    @pytest.mark.parametrize("block_bytes", [1 << 15, 1, 64])
    def test_rows_after_quoted_line_breaks(self, monkeypatch, block_bytes):
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
        fixes, report = parse_gps_log(gps_source(*self.ROWS))
        assert report.entries == [
            (4, "unparseable timestamp: 'bad'"),
            (5, "unparseable timestamp: 'x\\ny'"),
            (9, "expected 8 fields, got 2"),
            (10, "duplicate header row"),
        ]
        assert [f.user_id for f in fixes] == ["u\n1", "u4"]

    def test_lone_carriage_return_after_a_quoted_line_break(self):
        # a carriage return inside an unquoted cell ends its line: two short rows
        fixes, report = parse_gps_log(gps_source(*self.ROWS[:1], "u2\rx,bad", "u4,bad,23.1,72.6,,5,,gps"))
        assert report.entries == [
            (4, "expected 8 fields, got 1"),
            (5, "expected 8 fields, got 2"),
            (6, "unparseable timestamp: 'bad'"),
        ]
        assert [f.user_id for f in fixes] == ["u\n1"]

    def test_survey(self):
        records, report = parse_survey(survey_source('"A\n\nx",B,5,4', "A,B,9,4"))
        assert report.entries == [(5, "closeness out of range")]
        assert [r.rater_id for r in records] == ["A\n\nx"]


class TestLineEnds:
    """A line ends at "\\r\\n", "\\r" or "\\n", as csv reads in newline='' mode."""

    def test_lone_carriage_return_before_a_quoted_cell(self):
        # the quote opened after the "\r" holds the next two lines: they are no rows
        log = (
            'user_id,timestamp,lat,lon,accuracy\nu1\rx,"y\n'
            'u9,2016-04-03T10:02:11Z,23.1,72.6,5\nend",2016-04-03T10:02:11Z,23.1,72.6,5\n'
        )
        fixes, report = parse_gps_log(io.BytesIO(log.encode()))
        assert len(fixes) == 0
        assert report.entries == [
            (2, "expected 5 fields, got 1"),
            (3, "unparseable timestamp: 'y\\nu9,2016-04-03T10:02:11Z,23.1,72.6,5\\nend'"),
        ]

    LINES = (
        "# exported by the logger",
        GPS_HEADER.rstrip("\n"),
        "u1,2016-04-03T10:02:11Z,23.188,72.628,,36.0,,gps",
        '"u{eol}2",bad,23.1,72.6,,5,,gps',
        "",
        '"u,3",2016-04-03T10:04:11Z,23.2,72.7,51.5,12,7,"a,b"',
        "u4,2016-04-03T10:06:11Z",
        GPS_HEADER.rstrip("\n"),
        "u5,1459677731,23.2,72.7,,12,,gps",
    )
    REJECTED = [
        (4, "unparseable timestamp: 'bad'"),
        (8, "expected 8 fields, got 2"),
        (9, "duplicate header row"),
    ]

    # a block that holds the log, and blocks of a row or two; a block is read on to a "\n",
    # so the "\r" log is one block either way
    @pytest.mark.parametrize("block_bytes", [1 << 15, 64])
    def test_lf_crlf_and_cr_logs_read_alike(self, monkeypatch, block_bytes):
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
        parsed = {}
        for eol in ("\n", "\r\n", "\r"):
            log = "".join(line.format(eol=eol) + eol for line in self.LINES)
            fixes, report = parse_gps_log(io.BytesIO(log.encode()))
            parsed[eol] = (list(fixes), report.entries)
        assert parsed["\r\n"] == parsed["\n"]
        assert parsed["\r"] == parsed["\n"]
        assert [f.user_id for f in parsed["\n"][0]] == ["u1", "u,3", "u5"]
        assert parsed["\n"][1] == self.REJECTED

    def test_cr_survey(self):
        survey = "rater_id,ratee_id,closeness,proximity\rA,B,5,4\rA,A,3,2\rB,A,0,1\r"
        records, report = parse_survey(io.BytesIO(survey.encode()))
        assert [(r.rater_id, r.ratee_id) for r in records] == [("A", "B"), ("B", "A")]
        assert report.entries == [(3, "self-rating")]


class TestIngestErrors:
    """A fatal error in an input file names the file."""

    GPS = Path(__file__).parent / "data" / "mini_gps.csv"
    SURVEY = Path(__file__).parent / "data" / "mini_survey.csv"

    def ingest_error(self, capsys, tmp_path, gps=GPS, survey=SURVEY) -> str:
        capsys.readouterr()
        assert main(["ingest", "--gps", str(gps), "--survey", str(survey), "-o", str(tmp_path / "out")]) == 1
        return capsys.readouterr().err

    def test_missing_columns(self, tmp_path, capsys):
        gps = tmp_path / "gps.csv"
        gps.write_bytes(b"user_id,timestamp,lat\nu1,2016-04-03T10:02:11Z,23.1\n")
        assert self.ingest_error(capsys, tmp_path, gps=gps) == (
            f"error: {gps}: missing mandatory column(s): lon, accuracy\n"
        )

    def test_undecodable_byte_gives_its_offset_in_the_file(self, tmp_path, capsys):
        # far past the first 8 KB block the decoder reads
        head = gps_source(*["u1,2016-04-03T10:02:11Z,23.188,72.628,,36.0,,gps"] * 1000).getvalue()
        gps = tmp_path / "gps.csv"
        gps.write_bytes(head + "caf\u00e9,2016-04-03T10:02:11Z,23.1,72.6,,5,,gps\n".encode("latin-1"))
        offset = len(head) + 3
        assert offset > 1 << 15
        assert self.ingest_error(capsys, tmp_path, gps=gps) == (
            f"error: {gps}: 'utf-8' codec can't decode byte 0xe9 in position {offset}: "
            "invalid continuation byte\n"
        )

    def test_survey_error_names_the_survey(self, tmp_path, capsys):
        survey = tmp_path / "survey.csv"
        survey.write_bytes(b"# no header\n")
        assert self.ingest_error(capsys, tmp_path, survey=survey) == (
            f"error: {survey}: empty input: no header line\n"
        )
