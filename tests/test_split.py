"""The line splitter: every text split as csv splits it, without csv."""

import csv
import io
import sys
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
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    last = draw(st.sampled_from(["\n", "\r\n", ""]))
    text = "".join(map(str.__add__, lines, ends[:-1] + [last]))
    return text, delimiter, width


@settings(max_examples=300, deadline=None)
@given(
    table=plain_tables(),
    block_bytes=st.sampled_from([1, 7, 64, ingest.BLOCK_BYTES]),
)
def test_plain_text_splits_as_csv(table, block_bytes):
    text, delimiter, width = table
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    expected = [(reader.line_num, row) for row in reader]
    with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes), csv_calls() as calls:
        blocks = list(split_rows(io.BytesIO(text.encode()), delimiter))
    assert calls.calls == 0  # plain text, "\r\n" line ends and all, never reaches csv
    assert [(int(rows.line_nos[i]), rows.row(i)) for rows in blocks for i in range(len(rows))] == expected
    # the bulk columns of the rows with at least `width` cells hold their first `width` cells
    columns = [[] for _ in range(width)]
    for rows in blocks:
        wide = np.flatnonzero(rows.widths >= width)
        for j, column in enumerate(columns):
            column += rows.column(wide, j).texts()
    wide_rows = [row[:width] for _, row in expected if len(row) >= width]
    assert columns == [[row[j] for row in wide_rows] for j in range(width)]


# cells of any text: quotes, line ends, delimiters of one to three bytes, the characters str.splitlines
# breaks at but csv does not, and NUL, which csv reads from Python 3.11 on (before, it fails the line)
ANY_CHARS = st.sampled_from(
    list('ab, "#') + ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u00e9", "\u00a7", "\u4e2d"]
    + (["\0"] if sys.version_info >= (3, 11) else [])
)
# lines of "x" before the drawn rows, in some of the texts, so that a block of BLOCK_BYTES ends just
# after a line-end byte inside a cell: inside a quoted span, as only quoted cells hold line ends
PAD_LINE = "x" * 65535 + "\n"


@st.composite
def any_texts(draw):
    delimiter = draw(st.sampled_from([",", "\u00a7", "\u4e2d"]))
    cell = st.text(ANY_CHARS, max_size=5)
    one_line = cell.map(lambda text: text.replace("\n", "").replace("\r", ""))
    quoted_cell = cell.map(lambda text: '"' + text.replace('"', '""') + '"')
    row = st.lists(
        st.one_of(
            one_line.map(lambda text: text.replace('"', "")),
            quoted_cell,
            one_line.map(lambda text: "b" + text),  # a quote inside an unquoted cell is literal
            st.tuples(quoted_cell, one_line).map("".join),  # and so is text after a closing quote
        ),
        max_size=4,
    )
    lines = draw(st.lists(st.tuples(row, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12))
    text, breaks = "", []
    for cells, end in lines:
        row = delimiter.join(cells)
        breaks += [len(text.encode()) + len(row[:i].encode()) + 1 for i, char in enumerate(row) if char in "\r\n"]
        text += row + end
    text += draw(st.sampled_from(["", "x", '"x']))
    if breaks and draw(st.integers(0, 3)) == 0:
        pads, rest = divmod(ingest.BLOCK_BYTES - draw(st.sampled_from(breaks)), len(PAD_LINE))
        text = PAD_LINE * pads + PAD_LINE[-rest:] + text
    return text, delimiter


@settings(max_examples=300, deadline=None)
@given(
    drawn=any_texts(),
    block_bytes=st.sampled_from([1, 7, 64, ingest.BLOCK_BYTES]),
)
def test_any_text_splits_as_csv(drawn, block_bytes):
    """Plain or not, each row is csv's, numbered by the line it starts on."""
    text, delimiter = drawn
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    expected, line = [], 1
    for row in reader:
        expected.append((line, row))
        line = reader.line_num + 1
    with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
        assert split(text.encode(), delimiter) == expected


@pytest.mark.parametrize("short", [1, 4, 9])
def test_block_that_ends_in_a_quoted_cell_reads_on(short):
    """A block of BLOCK_BYTES whose last line ends inside a quoted cell is read on to the cell's end."""
    rows = 'u1,"a\nb\r\nc",x\nu2,"\n","\n\n"\n'  # the block's bytes end `short` bytes into them
    pads, rest = divmod(ingest.BLOCK_BYTES - short, len(PAD_LINE))
    text = PAD_LINE * pads + PAD_LINE[-rest:] + rows
    reader = csv.reader(io.StringIO(text, newline=""))
    expected, line = [], 1
    for row in reader:
        expected.append((line, row))
        line = reader.line_num + 1
    assert expected[-2:] == [(pads + 2, ["u1", "a\nb\r\nc", "x"]), (pads + 5, ["u2", "\n", "\n\n"])]
    assert split(text.encode()) == expected


def test_empty_text_has_no_rows():
    assert split(b"") == []


def test_a_block_is_one_rows(monkeypatch):
    """The reader's unit of work is the block: `split_rows` hands out each one whole."""
    text = b"a\n" * 40_000
    (rows,) = split_rows(io.BytesIO(text), ",")
    assert rows.line_nos.tolist() == list(range(1, 40_001))
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 64)  # 32 rows a read, each ending on a line end
    blocks = list(split_rows(io.BytesIO(text), ","))
    assert [len(rows) for rows in blocks] == [32] * 1250
    assert np.concatenate([rows.line_nos for rows in blocks]).tolist() == list(range(1, 40_001))


def test_non_ascii_delimiter_is_read_by_csv():
    with csv_calls() as calls:
        assert split("a§b\n\nc\n".encode(), "§") == [(1, ["a", "b"]), (2, []), (3, ["c"])]
    assert calls.calls == 0


@pytest.mark.parametrize("extra", [0, 1])
def test_field_limit_counts_characters(extra):
    """csv's field limit counts a cell's characters, not its bytes, and a doubled quote as one."""
    cell = "\u00e9" * (131072 - 1) + '""' + "x" * extra
    text = f'a,"{cell}"\nb\n'
    (rows,) = split_rows(io.BytesIO(text.encode()), ",")
    assert rows.failed == ({0: "field larger than field limit (131072)"} if extra else {})
    assert rows.row(0) == ([] if extra else next(csv.reader(io.StringIO(text, newline=""))))
    assert (rows.line_nos.tolist(), rows.row(1)) == ([1, 2], ["b"])


@pytest.mark.parametrize(
    ("text", "calls", "rows"),
    [
        (b"a,b\r\n\r\nc\r\n", 0, [(1, ["a", "b"]), (2, []), (3, ["c"])]),
        (b"a,b\r\nc", 0, [(1, ["a", "b"]), (2, ["c"])]),
        (b"a,b\r\nc\r", 0, [(1, ["a", "b"]), (2, ["c"])]),  # a lone "\r", at the end of the text
        (b"a,b\rc\r\n", 0, [(1, ["a", "b"]), (2, ["c"])]),
        (b"a,b\r\r\nc\n", 0, [(1, ["a", "b"]), (2, []), (3, ["c"])]),
    ],
)
def test_only_a_lone_cr_takes_the_csv_path(text, calls, rows):
    with csv_calls() as made:
        assert split(text) == rows
    assert made.calls == calls


# --- quoted and "\r" copies give the same rows -----------------------------

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


def lone_cr(lines: list[str], k: int) -> str:
    """The lines as text with line k ended by a lone "\\r"; csv reads the same rows."""
    return "".join(line + ("\r" if i == k else "\n") for i, line in enumerate(lines))


def parsed_gps(text: str) -> tuple[list, list]:
    fixes, report = parse_gps_log(io.BytesIO(text.encode()))
    return table_columns(fixes), report.entries


@pytest.mark.parametrize("block_bytes", [1, 100, 700, 1 << 21])  # the last holds the log
@pytest.mark.parametrize("change", [quoted, crlf])
def test_gps_log_switching_to_csv_reads_alike(monkeypatch, block_bytes, change):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
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
        assert calls.calls == 0


class Unseekable(io.BytesIO):
    """A handle that reads on but cannot seek, as a pipe."""

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


@pytest.mark.parametrize("block_bytes", [1, 100, 1 << 21])  # the last holds the log
@pytest.mark.parametrize("change", [quoted, lone_cr])
def test_switching_to_csv_never_seeks(monkeypatch, block_bytes, change):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    for k in range(len(GPS_ROWS)):
        text = change(GPS_ROWS, k)
        reader = csv.reader(io.StringIO(text, newline=""))
        expected = [(reader.line_num, row) for row in reader]  # no row spans lines
        with csv_calls() as calls:
            chunks = list(split_rows(Unseekable(text.encode()), ","))
        assert [(int(rows.line_nos[i]), rows.row(i)) for rows in chunks for i in range(len(rows))] == expected, k
        assert calls.calls == 0


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
    with csv_calls() as calls:  # NUL is text, as csv reads it from Python 3.11 on, on every Python
        fixes, report = parse_gps_log(io.BytesIO(text.encode()))
    assert calls.calls == 0
    assert report.entries == []
    assert fixes.user.values == ("u\x001", "u2")


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
@pytest.mark.parametrize("block_bytes", [4096, 1 << 21])  # the last holds the artifact
@pytest.mark.parametrize("change", [quoted, crlf])
def test_artifact_switching_to_csv_reads_alike(mini_run, tmp_path, monkeypatch, name, read, block_bytes, change):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
    lines = (mini_run / name).read_text(encoding="utf-8").rstrip("\n").split("\n")
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    plain = table_columns(read(mini_run / name))
    for k in (header, header + 1, len(lines) // 2, len(lines) - 1):
        path = tmp_path / f"{k}_{name}"
        path.write_text(change(lines, k), encoding="utf-8", newline="")
        with csv_calls() as calls:
            assert table_columns(read(path)) == plain, k
        assert calls.calls == 0


# --- every reader reads a "\r\n" twin and a quoted one alike, without csv ---


def parsed(parse, path: Path) -> tuple:
    with open(path, "rb") as handle:
        rows, report = parse(handle)
    return (table_columns(rows) if isinstance(rows, ingest.FixTable) else rows), report.entries


def quote_cells(line: bytes) -> bytes:
    """The line with every cell quoted, unless it is empty or a '#' line."""
    return line if not line or line.startswith(b"#") else b",".join(b'"' + cell + b'"' for cell in line.split(b","))


# reader: (the files it reads, lines that make the first file fail or reject rows, the reader)
TWIN_READERS = {
    "parse_gps_log": (
        ["mini_gps.csv"],
        [b"u9,bad,23.1,72.6,,5,,gps", b"u2,2016-04-03T11:00:11Z", b"", GPS_HEADER.upper().encode()],
        lambda path: parsed(parse_gps_log, path),
    ),
    "parse_survey": (
        ["mini_survey.csv"],
        [b"sch000a,sch000a,3,2", b"sch000a,sch000b,0,2"],
        lambda path: parsed(parse_survey, path),
    ),
    "read_fixes": (["fixes.csv"], [b"x"], lambda path: table_columns(artifacts.read_fixes(path))),
    "read_survey": (["survey.csv"], [b"sch000a,sch000b,0,2"], artifacts.read_survey),
    "read_clean_fixes": (
        ["clean_fixes.csv"], [b"x"], lambda path: table_columns(artifacts.read_clean_fixes(path))
    ),
    "read_valid_days": (["valid_days.csv"], [b"x"], artifacts.read_valid_days),
    "read_encounter_sets": (["encounters.csv", "pairs.csv"], [b"x"], artifacts.read_encounter_sets),
}


@pytest.mark.parametrize("reader", TWIN_READERS)
def test_crlf_twin_reads_alike_without_csv(mini_run, tmp_path, reader):
    """Rows, reasons and line numbers of "\r\n" copies, one with every cell quoted, are the original's."""
    names, bad_lines, read = TWIN_READERS[reader]
    sources = [(DATA if name.startswith("mini_") else mini_run) / name for name in names]

    def outcome(extra: list[bytes], line_end: bytes, quote: bool = False):
        """What `read` gives, or the error it raises, on the sources with `extra` after the first's lines."""
        folder = tmp_path / f"{len(extra)}{line_end.hex()}{quote:d}"
        folder.mkdir()
        paths = []
        for k, source in enumerate(sources):
            text = source.read_bytes()
            assert b"\r" not in text and b'"' not in text and text.endswith(b"\n")
            lines = text.split(b"\n")[:-1] + (extra if k == 0 else [])
            paths.append(folder / source.name)
            paths[-1].write_bytes(b"".join((quote_cells(line) if quote else line) + line_end for line in lines))
        try:
            return read(*paths)
        except ValueError as exc:
            return str(exc).replace(str(folder), "")

    plains = []
    for extra in ([], bad_lines):
        plains.append(outcome(extra, b"\n"))
        with csv_calls() as calls:
            assert outcome(extra, b"\r\n") == plains[-1]
            assert outcome(extra, b"\r\n", quote=True) == plains[-1]
        assert calls.calls == 0
    assert plains[0] != plains[1]  # the bad lines were read, and rejected or failed


# A first cell is built of these: '#'; space, no-break space, line separator and file
# separator, which `str.strip` removes; the Kelvin sign, whose `lower()` is 'k'; and the
# header's first cell, as it is and in capitals. '\u212aey' lowers to 'key', five bytes to
# three, and 'Key\u212aKey' to 'keykkey', so a cell's byte length alone does not tell
# whether it is the header's
FIRST_CELL_PIECES = ["#", " ", "\xa0", "\u2028", "\x1c", "\u212a"]
HEADER_CELLS = ["key", " Key ", "\u212aey", "Key\u212aKey"]


def header_and_rows(header_cell: str):
    pieces = st.sampled_from([*FIRST_CELL_PIECES, header_cell, header_cell.upper()])
    rows = st.tuples(st.lists(pieces, max_size=4).map("".join), st.sampled_from(["", "v", "value"]))
    return st.tuples(st.just(header_cell), st.lists(rows, max_size=40))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(HEADER_CELLS).flatmap(header_and_rows))
def test_kept_rows_are_those_the_text_rule_keeps(header_and_rows):
    """The rows the table reader keeps are those the text rule, row by row, keeps.

    The text rule decodes every first cell, and looks at each row whose first
    cell, stripped, is empty, starts with '#' or lowers to the header's first
    cell: it skips a blank or comment row there, and rejects a repeated header.
    """
    header_cell, rows = header_and_rows
    header = [header_cell.strip().lower(), "value"]
    text = "".join(f"{first},{second}\n" for first, second in [(header_cell, "value"), *rows])
    report = ingest.RejectionReport()
    kept = ingest._kept_rows(next(split_rows(io.BytesIO(text.encode("utf-8")), ",")), 1, header, report)
    expected, repeated = [], []
    for i, (first, second) in enumerate(rows, start=1):
        if not (head := first.strip()) or head[0] == "#" or head.lower() == header[0]:
            if [first.strip().lower(), second.strip().lower()] == header:
                repeated.append((i + 1, "duplicate header row"))
                continue
            if not (head or second.strip()) or head[:1] == "#":  # a blank or comment row
                continue
        expected.append(i)
    assert kept.tolist() == expected
    assert report.entries == repeated
