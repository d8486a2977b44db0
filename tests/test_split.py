"""The line splitter: plain text split as csv splits it, and the switch to csv."""

import csv
import io
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv import artifacts, ingest
from tiediv.cli import main
from tiediv.ingest import TextColumn, parse_gps_log, parse_survey, split_rows

DATA = Path(__file__).parent / "data"
GPS_HEADER = "user_id,timestamp,lat,lon,elevation,accuracy,satellites,provider"


def table_columns(table) -> list:
    """Every column of a column table, comparable with ==."""
    columns = []
    for f in fields(table):
        column = getattr(table, f.name)
        if isinstance(column, TextColumn):
            columns.append((column.codes.tolist(), column.values))
        else:
            columns.append((column.dtype.str, column.tobytes()))
    return columns


def split(text: bytes, delimiter: str = ",") -> list[tuple[int, list[str]]]:
    """(line, cells) of each row `split_rows` reads from `text`."""
    return [
        (int(rows.line_nos[i]), rows.row(i))
        for rows in split_rows(io.BytesIO(text), delimiter)
        for i in range(len(rows))
    ]


class CsvCalls:
    """`csv.reader`, counting its calls."""

    def __init__(self):
        self.calls = 0
        self.reader = csv.reader

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.reader(*args, **kwargs)


@contextmanager
def csv_calls() -> Iterator[CsvCalls]:
    """Count the csv readers made inside the block."""
    calls = CsvCalls()
    with mock.patch.object(csv, "reader", calls):
        yield calls


# --- plain text is split as csv splits it ------------------------------------

# cell characters of plain text: no '"', "\r", "\n" or NUL; other line breaks included
PLAIN_CHARS = st.sampled_from(
    list("abcxyz019 #.-_:") + ["\u00e9", "\u4e2d", "\u00a0", "\u2028", "\u0085", "\x0b", "\x0c", "\ufeff"]
)
DELIMITERS = st.sampled_from([",", ";", "\t", "|"])


@st.composite
def plain_tables(draw):
    delimiter = draw(DELIMITERS)
    cell = st.text(PLAIN_CHARS, max_size=6).map(lambda text: text.replace(delimiter, ""))
    width = draw(st.integers(1, 5))
    header = [f"col{j}" for j in range(width)]
    line = st.one_of(
        st.just(""),
        st.just("   "),
        cell.map(lambda text: "#" + text),
        st.just(delimiter.join(header)),
        st.lists(cell, min_size=width, max_size=width).map(delimiter.join),  # full rows, weighted up
        st.lists(cell, min_size=width, max_size=width).map(delimiter.join),
        st.lists(cell, min_size=1, max_size=width + 3).map(delimiter.join),  # short and long rows
    )
    lines = [delimiter.join(header)] + draw(st.lists(line, max_size=40))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return text, delimiter, width


@settings(max_examples=300, deadline=None)
@given(
    table=plain_tables(),
    chunk_rows=st.sampled_from([1, 2, 3, ingest.CHUNK_ROWS]),
    block_bytes=st.sampled_from([1, 7, 64, ingest.BLOCK_BYTES]),
)
def test_plain_text_splits_as_csv(table, chunk_rows, block_bytes):
    text, delimiter, width = table
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    expected = [(reader.line_num, row) for row in reader]
    with (
        mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows),
        mock.patch.object(ingest, "BLOCK_BYTES", block_bytes),
        csv_calls() as calls,
    ):
        chunks = list(split_rows(io.BytesIO(text.encode()), delimiter))
    assert calls.calls == 0  # plain text never reaches csv
    assert [(int(rows.line_nos[i]), rows.row(i)) for rows in chunks for i in range(len(rows))] == expected
    # the bulk columns of the rows with at least `width` cells hold their first `width` cells
    columns = [[] for _ in range(width)]
    for rows in chunks:
        wide = np.flatnonzero(rows.widths >= width)
        for column, cells in zip(columns, rows.columns(wide, width)):
            column += cells
    wide_rows = [row[:width] for _, row in expected if len(row) >= width]
    assert columns == [[row[j] for row in wide_rows] for j in range(width)]


# cells of any text: quotes, line ends and the characters str.splitlines breaks at, but csv does not
ANY_CHARS = st.sampled_from(list('ab, "#') + ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u00e9"])


@st.composite
def any_texts(draw):
    cell = st.text(ANY_CHARS, max_size=5)
    quoted_cell = cell.map(lambda text: '"' + text.replace('"', '""') + '"')
    row = st.lists(st.one_of(cell.map(lambda text: text.replace('"', "").replace("\n", "").replace("\r", "")),
                             quoted_cell), max_size=4)
    lines = draw(st.lists(st.tuples(row, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12))
    return "".join(",".join(cells) + end for cells, end in lines) + draw(st.sampled_from(["", "x", '"x']))


@settings(max_examples=300, deadline=None)
@given(
    text=any_texts(),
    chunk_rows=st.sampled_from([1, 2, ingest.CHUNK_ROWS]),
    block_bytes=st.sampled_from([1, 7, 64, ingest.BLOCK_BYTES]),
)
def test_any_text_splits_as_csv(text, chunk_rows, block_bytes):
    """Plain or not, each row is csv's, numbered by the line it starts on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    expected, line = [], 1
    for row in reader:
        expected.append((line, row))
        line = reader.line_num + 1
    with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows), mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
        assert split(text.encode()) == expected


def test_empty_text_has_no_rows():
    assert split(b"") == []


def test_non_ascii_delimiter_is_read_by_csv():
    with csv_calls() as calls:
        assert split("a§b\n\nc\n".encode(), "§") == [(1, ["a", "b"]), (2, []), (3, ["c"])]
    assert calls.calls == 1


# --- the switch to csv gives the same rows -----------------------------------

GPS_ROWS = [
    "# exported by a logger",
    GPS_HEADER,
    *(f"u{k % 4},2016-04-03T10:{k:02d}:11Z,23.1{k},72.6,,{k}.5,,gps" for k in range(12)),
    "",
    "u9,bad,23.1,72.6,,5,,gps",
    "u2,2016-04-03T11:00:11Z",
    GPS_HEADER.upper(),
    "u3,1459677731,23.2,72.7,,12,,gps,extra,cells",
    "   ,  ,",
    "#u1,2016-04-03T11:00:11Z,23.1,72.6,,5,,gps",
    *(f"u{k % 3},2016-04-04T10:{k:02d}:11Z,23.2,72.{k},50.0,{k},7,network" for k in range(12)),
]


def quoted(lines: list[str], k: int) -> str:
    """The lines as text with the first cell of line k quoted; csv reads the same cells."""
    cells = lines[k].split(",")
    cells[0] = f'"{cells[0]}"'
    return "".join(line + "\n" for line in lines[:k] + [",".join(cells)] + lines[k + 1 :])


def crlf(lines: list[str], k: int) -> str:
    """The lines as text with line k ended by "\\r\\n"; csv reads the same rows."""
    return "".join(line + ("\r\n" if i == k else "\n") for i, line in enumerate(lines))


def parsed_gps(text: str) -> tuple[list, list]:
    fixes, report = parse_gps_log(io.BytesIO(text.encode()))
    return table_columns(fixes), report.entries


@pytest.mark.parametrize("block_bytes", [1, 100, 700, ingest.BLOCK_BYTES])
@pytest.mark.parametrize("change", [quoted, crlf])
def test_gps_log_switching_to_csv_reads_alike(monkeypatch, block_bytes, change):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(ingest, "CHUNK_ROWS", 5)
    plain = parsed_gps("".join(line + "\n" for line in GPS_ROWS))
    assert len(plain[0][0][0]) == 25  # the long row keeps its first cells
    assert plain[1] == [
        (16, "unparseable timestamp: 'bad'"),
        (17, "expected 8 fields, got 2"),
        (18, "duplicate header row"),
    ]
    for k in range(len(GPS_ROWS)):
        with csv_calls() as calls:
            assert parsed_gps(change(GPS_ROWS, k)) == plain, k
        assert calls.calls == 1


def test_survey_switching_to_csv_reads_alike(monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 30)
    lines = ["rater_id,ratee_id,closeness,proximity", "A,B,5,4", "A,A,3,2", "B,A,0,1", "C,A,9,1", "A,C,2,2"]

    def parsed(text):
        records, report = parse_survey(io.BytesIO(text.encode()))
        return records, report.entries

    plain = parsed("".join(line + "\n" for line in lines))
    assert plain[1] == [(3, "self-rating"), (5, "closeness out of range")]
    for k in range(len(lines)):
        assert parsed(quoted(lines, k)) == parsed(crlf(lines, k)) == plain


def test_nul_takes_the_csv_path():
    line = "u\x001,2016-04-03T10:02:11Z,23.1,72.6,,5,,gps"
    text = "".join(row + "\n" for row in [GPS_HEADER, "u2,2016-04-03T10:02:11Z,23.1,72.6,,5,,gps", line])
    try:  # csv reads NUL from Python 3.11 on; before, it fails on the line
        next(csv.reader([line + "\n"]))
        rejected = []
    except csv.Error as exc:
        rejected = [(3, str(exc))]
    with csv_calls() as calls:
        fixes, report = parse_gps_log(io.BytesIO(text.encode()))
    assert calls.calls == 1
    assert report.entries == rejected
    assert fixes.user.values == (("u2",) if rejected else ("u\x001", "u2"))


# --- the same for the staged artifacts ---------------------------------------


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("mini") / "out"
    inputs = ["--gps", str(DATA / "mini_gps.csv"), "--survey", str(DATA / "mini_survey.csv")]
    assert main(["all", *inputs, "-o", str(out)]) == 0
    return out


@pytest.mark.parametrize(
    ("name", "read"), [("fixes.csv", artifacts.read_fixes), ("clean_fixes.csv", artifacts.read_clean_fixes)]
)
@pytest.mark.parametrize("block_bytes", [4096, ingest.BLOCK_BYTES])
@pytest.mark.parametrize("change", [quoted, crlf])
def test_artifact_switching_to_csv_reads_alike(mini_run, tmp_path, monkeypatch, name, read, block_bytes, change):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(ingest, "CHUNK_ROWS", 1000)
    lines = (mini_run / name).read_text(encoding="utf-8").rstrip("\n").split("\n")
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    plain = table_columns(read(mini_run / name))
    for k in (header, header + 1, len(lines) // 2, len(lines) - 1):
        path = tmp_path / f"{k}_{name}"
        path.write_text(change(lines, k), encoding="utf-8", newline="")
        with csv_calls() as calls:
            assert table_columns(read(path)) == plain, k
        assert calls.calls == 1
