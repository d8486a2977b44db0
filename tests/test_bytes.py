"""The converters that read cells from their bytes, against Python's own.

`exact_floats` must give `float(cell)` bit for bit on every cell it
takes, and take exactly the short decimal cells; every other cell goes
to `float`. A byte-coded text column must equal `TextColumn.of` of the
texts, and a text written to an artifact must be quoted where csv's
writer quotes it and read back as it was. A typed numpy column must
write the bytes that its values, as Python objects in rows, write. A
GPS log and its quoted, CRLF-ended twin must give equal tables and
reject reports.
"""

import csv
import io
import operator
import re
import struct
import sys
import tempfile
from dataclasses import fields
from datetime import date, datetime, timezone
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv.artifacts import _column_chunks, _csv_cells, write_columns, write_table
from tiediv.ingest import (
    CHUNK_ROWS,
    Cells,
    TextColumn,
    _floats,
    column_values,
    exact_floats,
    exact_ints,
    iso_days,
    parse_gps_log,
    to_epoch_us,
)
from tiediv.preprocess import epoch_day

# cells a float reader meets: the fast path's edges, and what only `float` reads
EDGE_FLOATS = [
    "0", "-0", "0.0", "-0.0", ".5", "-.5", "5.", "-5.", "+1", "1e5", "1E-3", " 1.5", "1.5 ", "\t2",
    "nan", "-nan", "inf", "-inf", "Infinity", "٣", "١٢.٥", "1_000", "0x10", "",
    "-", ".", "-.", "+", "1..2", "--1", "1-", "1.2.3", "1:5", "9/", ":",
    "00000000000000001", "0000000000000000.5",
    "999999999999999", "9999999999999999", "99999999999999999", "123456789012345.",
    "-12345678.1234567", "0." + "1" * 22, "0." + "1" * 23, "1" * 22 + ".0", "2e308", "4.9e-324",
]


# every cell of up to 3 bytes over the bytes of a number, space included
SHORT_CELLS = ["".join(chars) for size in range(4) for chars in product("0123456789.-+e ", repeat=size)]


def float_bits(text: str) -> bytes | None:
    try:
        return struct.pack("<d", float(text))
    except ValueError:
        return None


def error_text(convert, text: str) -> str | None:
    """The text of the ValueError `convert(text)` raises, or None."""
    try:
        convert(text)
    except ValueError as exc:
        return str(exc)
    return None


float_error, int_error = partial(error_text, float), partial(error_text, int)


@st.composite
def decimal_texts(draw) -> str:
    """`[sign]digits[.digits]` with 0 to 25 digits, some with a suffix `float` may read."""
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    whole = draw(st.text("0123456789", max_size=18))
    point = draw(st.sampled_from(["", ".", "."]))
    fraction = draw(st.text("0123456789", max_size=24)) if point else ""
    # ':' and '/' are the bytes next to the digits
    suffix = draw(st.sampled_from(["", "", "", "", " ", "e5", "E-3", "x", "٣", ":", "/"]))
    return sign + whole + point + fraction + suffix


def digits_of(count: int) -> st.SearchStrategy[str]:
    """Decimals of exactly `count` digits, the point anywhere, leading zeros allowed."""
    return st.tuples(st.text("0123456789", min_size=count, max_size=count), st.integers(0, count)).map(
        lambda parts: parts[0][: parts[1]] + "." + parts[0][parts[1] :]
    )


FLOAT_TEXTS = st.one_of(
    decimal_texts(),
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False).map(repr),  # 16- and 17-digit reprs go to `float`
    st.floats(min_value=-180, max_value=180).map(lambda x: f"{x:.7f}"),
    st.integers(15, 17).flatmap(digits_of),
    st.integers(22, 23).map(lambda k: "0." + "7" * k),
)


def fast_path(text: str) -> bool:
    """The cells `exact_floats` must take: a short ASCII decimal of 1 to 15 digits."""
    digits = sum(c in "0123456789" for c in text)
    return bool(re.fullmatch(r"-?[0-9]*\.?[0-9]*", text)) and 1 <= digits <= 15 and len(text) <= 17


@settings(max_examples=400, deadline=None)
@given(st.lists(FLOAT_TEXTS, max_size=40))
def test_fast_floats_are_python_floats(texts):
    values, fast = exact_floats(Cells.of(texts))
    assert fast.tolist() == list(map(fast_path, texts))
    for text, value, taken in zip(texts, values.tolist(), fast.tolist()):
        if taken:
            assert struct.pack("<d", value) == float_bits(text), text


@settings(max_examples=400, deadline=None)
@given(st.lists(FLOAT_TEXTS, max_size=40))
def test_float_columns_read_as_python_float(texts):
    values, ok, reasons = _floats(Cells.of(texts))
    for text, value, good in zip(texts, values.tolist(), ok.tolist()):
        expected = float_bits(text)
        assert good == (expected is not None), text
        assert struct.pack("<d", value) == (expected or struct.pack("<d", float("nan"))), text
    assert reasons == {i: float_error(text) for i, text in enumerate(texts) if float_error(text)}


def test_edge_floats_one_by_one():
    # each edge alone in its buffer: its bytes lie next to the padding
    for text in EDGE_FLOATS:
        values, ok, reasons = _floats(Cells.of([text]))
        assert (struct.pack("<d", values[0]) if ok[0] else None) == float_bits(text), text
        assert reasons.get(0) == float_error(text), text
    # all of them and every cell of up to 3 bytes in one column: the short
    # cells stand right-aligned next to 17- and 24-byte ones in one matrix
    texts = EDGE_FLOATS + SHORT_CELLS
    values, ok, reasons = _floats(Cells.of(texts))
    for i, text in enumerate(texts):
        assert (struct.pack("<d", values[i]) if ok[i] else None) == float_bits(text), text
        assert reasons.get(i) == float_error(text), text
    values, ok, reasons = column_values(Cells.of(texts), exact_ints, int)
    for i, text in enumerate(texts):
        assert (values[i] if ok[i] else None) == (None if int_error(text) else int(text)), text
        assert reasons.get(i) == int_error(text), text


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(decimal_texts(), st.sampled_from(EDGE_FLOATS), st.integers().map(str)), max_size=30))
def test_fast_ints_are_python_ints(texts):
    values, fast = exact_ints(Cells.of(texts))
    for text, value, taken in zip(texts, values.tolist(), fast.tolist()):
        if taken:
            assert value == int(text), text
        if re.fullmatch(r"-?[0-9]{1,16}", text):
            assert taken, text


DAY_TEXTS = st.one_of(
    st.dates().map(date.isoformat),
    st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32)).map(
        lambda ymd: f"{ymd[0]:04d}-{ymd[1]:02d}-{ymd[2]:02d}"
    ),
    st.sampled_from(["2016-04-3", "2016/04/03", "20160403", "2016-04-03 ", "2016-0٤-03", "", "x" * 10]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(DAY_TEXTS, max_size=40))
def test_iso_days_are_fromisoformat(texts):
    days, ok = iso_days(Cells.of(texts))
    for text, day, taken in zip(texts, days.tolist(), ok.tolist()):
        try:
            expected = (date.fromisoformat(text) - date(1970, 1, 1)).days
        except ValueError:
            expected = None
        if taken:
            assert day == expected, text
        elif re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
            assert expected is None, text  # a real date in this shape is read from its bytes


# text cells: multi-byte characters, NUL, quotes and line ends; of 0 to 4 words of 8 bytes
# (more with multi-byte characters), many sharing their first 8, 14 or 16 bytes
TEXT_CHARS = st.sampled_from(list('ab z0.-,"') + ["\0", "\r", "\n", "é", "中", "\U0001d7ce", "\x7f"])
SHARED_PREFIXES = st.sampled_from(["", "particip", "participant000", "a" * 16])
TEXTS = st.lists(st.builds(operator.add, SHARED_PREFIXES, st.text(TEXT_CHARS, max_size=12)), max_size=40)


def same_column(column: TextColumn, expected: TextColumn) -> bool:
    return column.values == expected.values and column.codes.tolist() == expected.codes.tolist()


@settings(max_examples=400, deadline=None)
@given(TEXTS, st.data())
def test_byte_coded_text_columns_are_text_column_of(texts, data):
    cells = Cells.of(texts)
    assert cells.texts() == texts
    assert same_column(cells.text_column(), TextColumn.of(texts))
    # a column of some of the cells, in any order, as a chunk's column is
    rows = data.draw(st.lists(st.integers(0, max(len(texts) - 1, 0)), max_size=len(texts))) if texts else []
    part = cells.take(np.array(rows, dtype=np.int64))
    assert part.texts() == [texts[i] for i in rows]
    assert same_column(part.text_column(), TextColumn.of([texts[i] for i in rows]))


def test_a_nul_is_not_padding():
    texts = ["a", "a\0", "a\0\0", "\0", "", "a\0b", "a" * 8, "a" * 7 + "\0"]
    # cells that share their first 8 or 16 bytes, of 1 to 4 words
    texts += ["participant000", "participant000\0", "particip", "particip\0", "a" * 16, "a" * 16 + "\0"]
    texts += ["a" * 24, "a" * 24 + "\0", "a" * 25, "a" * 31 + "\0", "a" * 32]
    assert same_column(Cells.of(texts).text_column(), TextColumn.of(texts))


@settings(max_examples=100, deadline=None)
@given(TEXTS)
def test_text_cells_read_back_as_written(texts):
    # the writer quotes a text holding ',', '"' or a line-break character, and writes a NUL as it is
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "texts.csv"
        write_table(path, {}, ["text", "again"], [(text, text) for text in texts])
        chunks = list(_column_chunks(path, ["text", "again"]))
    for name in ("text", "again"):
        assert [text for _, cells in chunks for text in cells[name].texts()] == texts


@pytest.mark.skipif(sys.version_info < (3, 11), reason="csv.writer before 3.11 cannot write a NUL")
@settings(max_examples=200, deadline=None)
@given(TEXTS)
def test_text_cells_are_quoted_where_csv_quotes_them(texts):
    for text, cell in zip(texts, _csv_cells(texts).tolist(), strict=True):
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow([text, ""])
        assert line.getvalue() == cell + ",\r\n"


# --- typed columns and rows of Python values -------------------------------------

TYPED_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0e-308, 1e16, -1e16, 1e-5, float("nan"), float("inf")]),
)
INSTANTS = st.datetimes(min_value=datetime.min, max_value=datetime.max).flatmap(
    lambda t: st.sampled_from([t, t.replace(microsecond=0)])
).map(lambda t: t.replace(tzinfo=timezone.utc))
TYPED_ROWS = st.lists(st.tuples(TYPED_FLOATS, st.integers(-(2**63), 2**63 - 1), st.dates(), INSTANTS), max_size=30)


@settings(max_examples=200, deadline=None)
@given(TYPED_ROWS, st.permutations(["float", "int", "day", "instant"]))
def test_typed_columns_write_as_rows_of_python_values(rows, order):
    # each kind of column, in each place, the last one too, whose cells end in "\n"
    floats, ints, days, instants = map(list, zip(*rows)) if rows else ([], [], [], [])
    typed = {
        "float": np.array(floats, dtype=np.float64),
        "int": np.array(ints, dtype=np.int64),
        "day": np.array(list(map(epoch_day, days)), dtype=np.int64).astype("datetime64[D]"),
        "instant": np.array(list(map(to_epoch_us, instants)), dtype=np.int64).astype("datetime64[us]"),
    }
    python = {"float": floats, "int": ints, "day": days, "instant": instants}
    meta = {"rows": str(len(rows))}
    with tempfile.TemporaryDirectory() as tmp:
        columns_path, rows_path = Path(tmp) / "columns.csv", Path(tmp) / "rows.csv"
        # each writer checks the line ends of its file before it publishes it under its path
        assert write_columns(columns_path, meta, {name: typed[name] for name in order}) == columns_path
        assert write_table(rows_path, meta, order, list(zip(*(python[name] for name in order)))) == rows_path
        assert columns_path.read_bytes() == rows_path.read_bytes()


def test_typed_floats_refuse_a_negative_nan(tmp_path):
    path = tmp_path / "nan.csv"
    with pytest.raises(ValueError) as raised:
        write_columns(path, {}, {"x": np.array([1.5, np.copysign(np.nan, -1.0)])})
    assert str(raised.value) == f"{path}: 'nan' does not read back as nan"


def test_a_refused_chunk_leaves_no_file(tmp_path):
    # the first chunk is written before the second fails its read-back: neither it, a
    # temporary file nor the file an earlier call wrote to the path is left
    path = tmp_path / "chunks.csv"
    floats = np.arange(CHUNK_ROWS + 100, dtype=np.float64)
    write_columns(path, {}, {"x": floats})
    floats[CHUNK_ROWS + 1] = np.copysign(np.nan, -1.0)
    with pytest.raises(ValueError) as raised:
        write_columns(path, {}, {"x": floats})
    assert str(raised.value) == f"{path}: 'nan' does not read back as nan"
    assert list(tmp_path.iterdir()) == []


def test_numpy_floats_in_rows_write_as_python_floats(tmp_path):
    # numpy 2 gives np.float64 a repr of its own; a cell must not depend on it
    floats = [0.5, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, float("inf"), float("nan")]
    for name, kind in (("python", float), ("numpy", np.float64)):
        write_table(tmp_path / f"{name}.csv", {}, ["x", "pair"], [(kind(v), (kind(v), kind(-v))) for v in floats])
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()


# --- a plain log and its quoted twin ---------------------------------------------

GPS_HEADER = ["user_id", "timestamp", "lat", "lon", "elevation", "accuracy", "satellites", "provider"]
PLAIN_FLOATS = FLOAT_TEXTS.filter(lambda text: not set(text) & set(',"\r\n\0'))
TIMESTAMPS = st.one_of(
    st.datetimes(min_value=datetime(1971, 1, 1)).map(
        lambda t: t.isoformat(timespec="seconds") + "Z"
    ),
    st.integers(0, 4 * 10**9).map(str),
    st.tuples(st.integers(0, 4 * 10**9), st.integers(0, 999)).map(lambda p: f"{p[0]}.{p[1]:03d}"),
    st.sampled_from(["2016-04-03T10:02:11+05:30", "2016-04-03 10:02:11", "yesterday", "", "1e9", "-5"]),
)
USERS = st.text(st.sampled_from(list("uvw01 ") + ["é", "中"]), max_size=10)
SMALL_INTS = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(["", " 7", "x", "٣", "3.0"]))


@st.composite
def gps_logs(draw) -> list[list[str]]:
    rows = [GPS_HEADER]
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["fix"] * 6 + ["short", "blank", "comment", "header"]))
        if kind == "fix":
            rows.append([
                draw(USERS), draw(TIMESTAMPS), draw(PLAIN_FLOATS), draw(PLAIN_FLOATS), draw(PLAIN_FLOATS),
                draw(PLAIN_FLOATS), draw(SMALL_INTS), draw(st.sampled_from(["gps", "network", "", " gps"])),
            ])
        elif kind == "short":
            rows.append([draw(USERS), draw(TIMESTAMPS)])
        elif kind == "blank":
            rows.append([])
        elif kind == "comment":
            rows.append(["# " + draw(USERS)])
        else:
            rows.append([name.upper() for name in GPS_HEADER])
    return rows


def parsed(text: str) -> tuple[list, list]:
    table, report = parse_gps_log(io.BytesIO(text.encode()))
    columns = []
    for f in fields(table):
        column = getattr(table, f.name)
        if isinstance(column, TextColumn):
            columns.append((column.codes.tolist(), column.values))
        else:
            columns.append((column.dtype.str, column.tobytes()))
    return columns, report.entries


@settings(max_examples=150, deadline=None)
@given(gps_logs())
def test_plain_log_and_its_quoted_crlf_twin_read_alike(rows):
    plain = "".join(",".join(row) + "\n" for row in rows)
    quoted = "".join(",".join(f'"{cell}"' for cell in row) + "\r\n" for row in rows)
    assert parsed(plain) == parsed(quoted)
