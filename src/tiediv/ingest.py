"""Parsing of raw GPS log files and the ground-truth closeness survey.

Both inputs are delimited text with a header line. Column names are
matched case-insensitively and through a small alias table, because
field order and exact naming vary between log exports. Malformed rows
are never dropped silently: every parse returns the accepted records
plus a rejection report listing line number and reason for each bad
row, in line order. Both readers share one table reader, which handles
the header, blank, comment, duplicate-header and short rows, and differ
only in their column aliases and converters.

The readers take a binary handle to UTF-8 text; a leading byte-order
mark is ignored. Rows are what csv reads in `newline=''` mode: a line
ends at "\\r\\n", "\\r" or "\\n", whichever the export uses, and a row's
number is the line it starts on, line ends inside a quoted cell counted.
Text is plain when it holds no '"', "\\r" or NUL and no line longer than
csv's field limit, and the delimiter is ASCII. Each "\\n"-ended line of
plain text is one row, `line.split(delimiter)`, or [] if it is empty,
so `split_rows` splits plain text without csv: numpy counts the cells of
each line from the bytes, and each chunk of lines is decoded once and
split into one flat list of cells, whose strides are the columns. It
reads the text in blocks of whole lines; from the first block that is
not plain, csv reads the rest. A decode error gives the offset of the
bad byte in the file. The staged artifact readers split with it too.

The GPS log comes back as a `FixTable`: one numpy column per field, an
int32 user code into a sorted name table, epoch microseconds (UTC) for
time, and the optional elevation, satellite and provider cells kept as
canonical text so that `fixes.csv` can be written without rounding.
Columns are converted with Python's own `float` and `int`; the text
columns (user, elevation, satellites, provider) once per distinct cell.
Timestamps in these shapes are parsed in bulk:

- integer epoch seconds of up to 11 ASCII digits;
- fractional epoch seconds below 2**32 with 1 to 6 fraction digits,
  where `datetime.fromtimestamp` gives the cell's exact microsecond;
- `YYYY-MM-DDTHH:MM:SS`, with an optional 3- or 6-digit fraction, and
  with a `Z` or `+hh:mm` zone or none (naive, `naive_utc_offset_minutes`
  east of UTC); a naive time may have a space in place of the `T`.
  The cells of each such shape are parsed together from one `uint8`
  matrix of their UTF-8 bytes, a row per cell.

Cells in other shapes go to `parse_timestamp` one at a time, and so does
a cell holding a character outside ASCII, which is longer in bytes than
in characters.

Each table's rules are one ordered list of column checks (`convert_gps`,
`convert_survey`): a mask of the rows that fail the check, and the
reason. A rejected row gets the reason of the first check it fails; a
timestamp's reason is the text of the error `parse_timestamp` raised.
The staged artifact readers convert their columns with the same two
functions, so how a cell becomes a value is decided here only. The
table iterates as `RawFix` rows.
"""

from __future__ import annotations

import codecs
import csv
import gc
import io
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from functools import reduce
from itertools import chain, compress, islice
from math import isfinite
from operator import iadd
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# accepted header spellings, lowercased
_GPS_ALIASES = {
    "user_id": ("user_id", "user", "id", "uid", "subject", "subject_id"),
    "timestamp": ("timestamp", "time", "ts", "datetime", "date_time", "epoch"),
    "lat": ("lat", "latitude"),
    "lon": ("lon", "lng", "long", "longitude"),
    "elevation": ("elevation", "ele", "alt", "altitude"),
    "accuracy": ("accuracy", "acc", "hdop_m"),
    "satellites": ("satellites", "sats", "sat"),
    "provider": ("provider", "source", "network_provider"),
}
_GPS_REQUIRED = ("user_id", "timestamp", "lat", "lon", "accuracy")

_SURVEY_ALIASES = {
    "rater_id": ("rater_id", "rater", "from", "user_a", "source_id"),
    "ratee_id": ("ratee_id", "ratee", "to", "user_b", "target_id"),
    "closeness_raw": ("closeness_raw", "closeness", "friendship", "strength"),
    "proximity_raw": ("proximity_raw", "proximity"),
}
_SURVEY_REQUIRED = ("rater_id", "ratee_id", "closeness_raw", "proximity_raw")

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
US_PER_S = 1_000_000
_ONE_US = timedelta(microseconds=1)


def to_epoch_us(timestamp: datetime) -> int:
    """Microseconds since 1970-01-01 UTC of an aware instant."""
    return (timestamp - EPOCH) // _ONE_US


def from_epoch_us(t_us: int) -> datetime:
    return EPOCH + timedelta(microseconds=t_us)


class SchemaError(ValueError):
    """A mandatory column is missing from the input header."""


@dataclass(frozen=True)
class RawFix:
    """One GPS log row: who was where, when, and how accurately."""

    user_id: str
    timestamp: datetime  # timezone-aware, UTC
    lat: float
    lon: float
    accuracy: float
    elevation: float | None = None
    satellites: int | None = None
    provider: str | None = None


@dataclass(frozen=True, eq=False)
class TextColumn:
    """A column of strings as int32 codes into a sorted table of values.

    Codes order like the strings they stand for, so sorting by code
    sorts by Python `str` order.
    """

    codes: np.ndarray
    values: tuple[str, ...]

    @classmethod
    def of(cls, texts: Sequence[str]) -> "TextColumn":
        values = sorted(set(texts))
        index = {value: i for i, value in enumerate(values)}
        return cls(np.fromiter(map(index.__getitem__, texts), np.int32, len(texts)), tuple(values))

    @classmethod
    def concat(cls, columns: Sequence["TextColumn"]) -> "TextColumn":
        """The columns one after another, over the union of their value tables."""
        values = sorted(set().union(*(c.values for c in columns)))
        index = {value: i for i, value in enumerate(values)}
        codes = [
            np.array([index[v] for v in c.values], dtype=np.int32)[c.codes] for c in columns
        ]
        return cls(np.concatenate(codes) if codes else np.zeros(0, np.int32), tuple(values))

    def take(self, rows: np.ndarray) -> "TextColumn":
        """The rows a mask or index array selects, over the values they use."""
        codes = self.codes[rows]
        used = np.flatnonzero(np.bincount(codes, minlength=len(self.values)))
        index = np.zeros(len(self.values), dtype=np.int32)
        index[used] = np.arange(len(used), dtype=np.int32)
        return TextColumn(index[codes], tuple(self.values[i] for i in used.tolist()))

    def __len__(self) -> int:
        return len(self.codes)


class ColumnTable:
    """Base of the column tables.

    Each table is a frozen dataclass whose fields are equal-length
    columns (numpy arrays or `TextColumn`s).
    """

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    @classmethod
    def concat(cls, tables: Sequence["ColumnTable"]):
        """The rows of one or more tables one after another, in one table."""
        columns = {}
        for f in fields(cls):
            parts = [getattr(table, f.name) for table in tables]
            text = isinstance(parts[0], TextColumn)
            columns[f.name] = TextColumn.concat(parts) if text else np.concatenate(parts)
        return cls(**columns)


@dataclass(frozen=True, eq=False)
class FixTable(ColumnTable):
    """GPS fixes as columns; row i of every column is one fix.

    It iterates and indexes as read-only `RawFix` rows, built on demand.
    """

    user: TextColumn
    t_us: np.ndarray  # int64 microseconds since the epoch, UTC
    lat: np.ndarray  # float64 degrees
    lon: np.ndarray
    accuracy: np.ndarray  # float64 metres
    elevation: TextColumn  # repr of the float, '' when absent
    satellites: TextColumn  # str of the int, '' when absent
    provider: TextColumn  # '' when absent

    def row(self, i: int) -> RawFix:
        elevation = self.elevation.values[self.elevation.codes[i]]
        satellites = self.satellites.values[self.satellites.codes[i]]
        return RawFix(
            user_id=self.user.values[self.user.codes[i]],
            timestamp=from_epoch_us(int(self.t_us[i])),
            lat=float(self.lat[i]),
            lon=float(self.lon[i]),
            accuracy=float(self.accuracy[i]),
            elevation=float(elevation) if elevation else None,
            satellites=int(satellites) if satellites else None,
            provider=self.provider.values[self.provider.codes[i]] or None,
        )

    def __getitem__(self, i: int) -> RawFix:
        return self.row(range(len(self))[i])

    def __iter__(self) -> Iterator[RawFix]:
        return map(self.row, range(len(self)))


class SurveyRecord(NamedTuple):
    """One directed rater -> ratee closeness report.

    Its fields are the columns of `survey.csv`.
    """

    rater_id: str
    ratee_id: str
    closeness_raw: int  # 0..5
    proximity_raw: int  # 1..5


@dataclass
class RejectionReport:
    """Line-oriented record of rows that failed validation."""

    entries: list[tuple[int, str]] = field(default_factory=list)
    n_accepted: int = 0

    def reject(self, line_no: int, reason: str) -> None:
        self.entries.append((line_no, reason))

    @property
    def n_rejected(self) -> int:
        return len(self.entries)

    def as_text(self) -> str:
        lines = [f"{line_no}\t{reason}" for line_no, reason in self.entries]
        lines.append(f"# accepted={self.n_accepted} rejected={self.n_rejected}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class IngestOptions:
    """Knobs for absorbing format variation in the on-disk files."""

    delimiter: str = ","
    # offset (minutes east of UTC) attached to naive ISO timestamps;
    # 0 means naive timestamps are already UTC
    naive_utc_offset_minutes: int = 0


def parse_timestamp(raw: str, naive_utc_offset_minutes: int = 0) -> datetime:
    """Parse an epoch-seconds or ISO-8601 timestamp to an aware UTC instant."""
    text = raw.strip()
    if not text:
        raise ValueError("empty timestamp")
    try:
        epoch = float(text)
    except ValueError:
        pass
    else:
        if not isfinite(epoch):
            raise ValueError(f"non-finite epoch timestamp: {raw!r}")
        try:
            return datetime.fromtimestamp(epoch, tz=timezone.utc)
        except (OverflowError, OSError, ValueError):
            raise ValueError(f"timestamp out of range: {raw!r}") from None
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"unparseable timestamp: {raw!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone(timedelta(minutes=naive_utc_offset_minutes)))
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp out of range: {raw!r}") from None


# --- bulk timestamp parsing --------------------------------------------------

# epoch seconds of at most this many ASCII digits are parsed in bulk
_EPOCH_DIGITS = 11
# Fractional epoch seconds are parsed in bulk below 2**32 s with at most 6
# fraction digits. There half an ulp of the double is under 0.5 us, so
# `datetime.fromtimestamp(float(cell))` rounds to the cell's exact microsecond.
_FRACTIONAL_EPOCH = re.compile(r"[0-9]{1,10}\.[0-9]{1,6}")
_FRACTIONAL_EPOCH_LIMIT_S = 2**32
# (fraction digits, zone) of the ISO shapes parsed in bulk; zone 'Z' means
# a 'Z' or 'z' suffix, '+' a '+hh:mm' or '-hh:mm' offset, '' none (naive)
_ISO_SHAPES = tuple((frac, zone) for frac in (0, 3, 6) for zone in ("Z", "+", ""))
_DATE_TIME_DIGITS = (0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18)
_DATE_TIME_SEPARATORS = ((4, "-"), (7, "-"), (13, ":"), (16, ":"))
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _days_from_civil(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Days since 1970-01-01 of proleptic Gregorian dates (H. Hinnant's algorithm)."""
    year = year - (month <= 2)
    era = year // 400
    year_of_era = year - era * 400
    day_of_year = (153 * np.where(month > 2, month - 3, month + 9) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return era * 146097 + day_of_era - 719468


def civil_from_days(days: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(year, month, day) of days since 1970-01-01; the inverse of `_days_from_civil`."""
    days = days + 719468
    era = days // 146097
    day_of_era = days - era * 146097
    year_of_era = (day_of_era - day_of_era // 1460 + day_of_era // 36524 - day_of_era // 146096) // 365
    day_of_year = day_of_era - (365 * year_of_era + year_of_era // 4 - year_of_era // 100)
    month_from_march = (5 * day_of_year + 2) // 153
    day = day_of_year - (153 * month_from_march + 2) // 5 + 1
    month = np.where(month_from_march < 10, month_from_march + 3, month_from_march - 9)
    return year_of_era + era * 400 + (month <= 2), month, day


def _iso_us(
    chars: np.ndarray, frac: int, zone: str, naive_offset_s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds and validity of rows of one fixed ISO shape.

    `chars` holds one ASCII timestamp per row as a uint8 matrix. A row is
    valid only if it is a real date and time whose UTC instant lies well
    inside `datetime`'s range; others are left to `parse_timestamp`.
    Naive times are `naive_offset_s` seconds east of UTC.
    """
    chars = np.ascontiguousarray(chars.T)  # a row per character position
    digits = chars - np.uint8(ord("0"))  # wraps, so a byte below "0" is above 9 too

    def number(*cols: int) -> np.ndarray:
        # int32 holds any field of up to 6 digits, even of bytes that are not digits
        value = digits[cols[0]].astype(np.int32)
        for col in cols[1:]:
            value = value * 10 + digits[col]
        return value

    zone_at = 19 + (frac + 1 if frac else 0)
    digit_cols = list(_DATE_TIME_DIGITS) + list(range(20, 20 + frac))
    separators = list(_DATE_TIME_SEPARATORS)
    if frac:
        separators.append((19, "."))
    if zone == "+":
        digit_cols += [zone_at + 1, zone_at + 2, zone_at + 4, zone_at + 5]
        separators.append((zone_at + 3, ":"))
    ok = np.logical_and.reduce(digits[digit_cols] <= 9)
    for col, char in separators:
        ok &= chars[col] == ord(char)
    # a naive time may also have the space of `str(datetime)` before the time
    ok &= (chars[10] == ord("T")) | ((chars[10] == ord(" ")) & (zone == ""))

    if zone == "":
        offset_s = naive_offset_s
    elif zone == "Z":
        sign = chars[zone_at]
        ok &= (sign == ord("Z")) | (sign == ord("z"))
        offset_s = 0
    else:
        sign = chars[zone_at]
        ok &= (sign == ord("+")) | (sign == ord("-"))
        off_h, off_m = number(zone_at + 1, zone_at + 2), number(zone_at + 4, zone_at + 5)
        ok &= (off_h <= 23) & (off_m <= 59)
        offset_s = np.where(sign == ord("-"), -1, 1) * (off_h * 3600 + off_m * 60)

    year, month, day = number(0, 1, 2, 3), number(5, 6), number(8, 9)
    hour, minute, second = number(11, 12), number(14, 15), number(17, 18)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 12)] + (leap & (month == 2))
    ok &= (year >= 2) & (year <= 9998) & (month >= 1) & (month <= 12)
    ok &= (day >= 1) & (day <= month_days) & (hour <= 23) & (minute <= 59) & (second <= 59)
    year = np.where(ok, year, 1970)  # keep rejected rows' arithmetic in range

    days = _days_from_civil(year, month, day).astype(np.int64)
    t_us = (days * 86400 + (hour * 3600 + minute * 60 + second - offset_s)) * US_PER_S
    if frac:
        t_us += number(*range(20, 20 + frac)) * 10 ** (6 - frac)
    return np.where(ok, t_us, 0), ok


def bulk_timestamps_us(
    cells: Sequence[str], naive_utc_offset_minutes: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds of the cells in a bulk-parsed shape, and which those are.

    Where the mask is True the value equals
    `parse_timestamp(cell, naive_utc_offset_minutes)`; every other cell is
    left for `parse_timestamp` to accept or reject. The cells of each ISO
    shape are parsed from one byte matrix; a cell that is not ASCII is
    longer in UTF-8 than in characters, and is left to `parse_timestamp`.
    """
    n = len(cells)
    t_us = np.zeros(n, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)
    lengths = np.fromiter(map(len, cells), np.int64, n)

    rows = np.flatnonzero(lengths <= _EPOCH_DIGITS).tolist()
    digit_rows = [i for i in rows if cells[i].isascii() and cells[i].isdigit()]
    if digit_rows:
        seconds = np.array([int(cells[i]) for i in digit_rows], dtype=np.int64)
        t_us[digit_rows] = seconds * US_PER_S
        ok[digit_rows] = True

    # `_FRACTIONAL_EPOCH` matches cells of 3 to 17 characters
    rows = np.flatnonzero((lengths >= 3) & (lengths <= 17)).tolist()
    frac_rows = [i for i in rows if _FRACTIONAL_EPOCH.fullmatch(cells[i])]
    if frac_rows:
        whole, fraction = zip(*(cells[i].split(".") for i in frac_rows))
        seconds = np.array(list(map(int, whole)), dtype=np.int64)
        micros = np.array([int(f.ljust(6, "0")) for f in fraction], dtype=np.int64)
        exact = seconds < _FRACTIONAL_EPOCH_LIMIT_S
        exact_rows = np.array(frac_rows)[exact]
        t_us[exact_rows] = (seconds * US_PER_S + micros)[exact]
        ok[exact_rows] = True

    # `timezone` takes offsets strictly inside a day; others fail per row
    naive = abs(naive_utc_offset_minutes) < 24 * 60
    for frac, zone in _ISO_SHAPES:
        if zone == "" and not naive:
            continue
        width = 19 + (frac + 1 if frac else 0) + {"Z": 1, "+": 6, "": 0}[zone]
        shaped = lengths == width
        rows = np.flatnonzero(shaped)
        if not rows.size:
            continue
        texts = cells if rows.size == n else list(compress(cells, shaped.tolist()))
        raw = "".join(texts).encode("utf-8", "surrogatepass")
        if len(raw) != rows.size * width:
            ascii = np.fromiter(map(str.isascii, texts), bool, rows.size)
            rows = rows[ascii]
            raw = "".join(compress(texts, ascii.tolist())).encode()
        chars = np.frombuffer(raw, np.uint8).reshape(rows.size, width)
        t_us[rows], ok[rows] = _iso_us(chars, frac, zone, naive_utc_offset_minutes * 60)
    return t_us, ok


def timestamps_us(
    cells: Sequence[str], naive_utc_offset_minutes: int = 0
) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Epoch microseconds of timestamp cells, which cells parse, and why the others do not.

    Shapes `bulk_timestamps_us` knows are parsed in bulk, the others by
    `parse_timestamp` one at a time.
    """
    t_us, ok = bulk_timestamps_us(cells, naive_utc_offset_minutes)
    reasons = {}
    for i in np.flatnonzero(~ok).tolist():
        try:
            t_us[i] = to_epoch_us(parse_timestamp(cells[i], naive_utc_offset_minutes))
            ok[i] = True
        except ValueError as exc:
            reasons[i] = str(exc)
    return t_us, ok, reasons


# --- the line splitter -------------------------------------------------------


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection while a table is built.

    Reading a table allocates many lists: csv's rows, and the values the
    converters build. None of them forms a cycle, but each batch of
    allocations would trigger a collection that rescans every list
    allocated so far.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# rows converted at a time; bounds the memory a large input needs
CHUNK_ROWS = 1 << 15
# bytes read at a time, then on to the end of the line
BLOCK_BYTES = 1 << 21


@dataclass(frozen=True, eq=False)
class Rows:
    """A chunk of rows of delimited text, their cells in one flat list.

    Row i starts on line `line_nos[i]` and is
    `cells[starts[i]:starts[i] + widths[i]]`. A row csv could not read
    has no cells, and csv's reason in `failed`.
    """

    line_nos: np.ndarray
    widths: np.ndarray
    starts: np.ndarray
    cells: list[str]
    failed: dict[int, str]

    def __len__(self) -> int:
        return len(self.line_nos)

    def row(self, i: int) -> list[str]:
        return self.cells[self.starts[i] : self.starts[i] + self.widths[i]]

    def columns(self, rows: np.ndarray, width: int) -> list[list[str]]:
        """Column j is cell j of each of `rows`, ascending indices of rows with at least `width` cells."""
        if not len(rows):
            return [[] for _ in range(width)]
        starts = self.starts[rows]
        # rows whose first `width` cells follow one another in `cells` are one slice of it
        cut = np.flatnonzero(starts[1:] != starts[:-1] + width) + 1
        lo = starts[np.concatenate(([0], cut))].tolist()
        hi = (starts[np.concatenate((cut - 1, [len(rows) - 1]))] + width).tolist()
        if len(lo) == 1:
            cells, start, stop = self.cells, lo[0], hi[0]
        else:
            cells = list(chain.from_iterable(map(self.cells.__getitem__, map(slice, lo, hi))))
            start, stop = 0, len(cells)
        return [cells[start + j : stop : width] for j in range(width)]


def utf8_text(data: bytes, offset: int) -> str:
    """`data` as UTF-8 text; a decode error names the bad bytes' position as `offset` on."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start, end = offset + exc.start, offset + exc.end - 1
        what = f"byte 0x{exc.object[exc.start]:02x}" if start == end else "bytes"
        where = start if start == end else f"{start}-{end}"
        raise ValueError(f"'utf-8' codec can't decode {what} in position {where}: {exc.reason}") from None


def _line_blocks(handle: BinaryIO) -> Iterator[bytes]:
    """The rest of `handle` in blocks of whole lines; only the last may lack its "\\n"."""
    while block := handle.read(BLOCK_BYTES):
        yield block if block.endswith(b"\n") else block + handle.readline()


def split_rows(handle: BinaryIO, delimiter: str, line: int = 1) -> Iterator[Rows]:
    """The rows of UTF-8 delimited text, from `handle`'s position on, in chunks.

    `line` is the number of the first line. Text is plain when it holds
    no '"', "\\r" or NUL and no line longer than csv's field limit, and
    the delimiter is ASCII, not '"' or a line end. Each "\\n"-ended line
    of plain text is then one row, as csv reads it in `newline=''` mode:
    `line.split(delimiter)`, or [] if the line is empty. The text is read
    in blocks of whole lines, and each plain block is split so,
    CHUNK_ROWS lines at a time: numpy counts the cells of each line from
    the bytes, and each chunk is decoded once and split into one flat
    list of cells. From the first block that is not plain, csv reads the
    rest of the text (`_csv_chunks`). A decode error names the offset of
    the bad byte in the handle.
    """
    offset = handle.tell()
    if len(delimiter) == 1 and delimiter.isascii() and delimiter not in '"\r\n':
        for block in _line_blocks(handle):
            chars = np.frombuffer(block, np.uint8)
            ends = np.flatnonzero(chars == ord("\n"))
            if not block.endswith(b"\n"):
                ends = np.append(ends, len(block))
            lengths = np.diff(ends, prepend=-1) - 1
            if b'"' in block or b"\r" in block or b"\0" in block or lengths.max() > csv.field_size_limit():
                break
            # the cells of each line in a flat split, where an empty line holds one: ''
            counts = np.diff(np.searchsorted(np.flatnonzero(chars == ord(delimiter)), ends), prepend=0) + 1
            for a in range(0, len(ends), CHUNK_ROWS):
                b = min(a + CHUNK_ROWS, len(ends))
                lo = int(ends[a - 1]) + 1 if a else 0
                text = utf8_text(block[lo : ends[b - 1] + 1], offset + lo)
                n = counts[a:b]
                yield Rows(
                    np.arange(line + a, line + b),
                    np.where(lengths[a:b] > 0, n, 0),
                    np.cumsum(n) - n,
                    text.replace("\n", delimiter).split(delimiter),
                    {},
                )
            offset, line = offset + len(block), line + len(ends)
        else:
            return
        handle.seek(offset)  # back to the start of the block that is not plain
    yield from _csv_chunks(handle, delimiter, line)


def _csv_chunks(handle: BinaryIO, delimiter: str, line: int) -> Iterator[Rows]:
    """The rows of the rest of `handle`, as csv reads them, in chunks; `line` numbers the first line."""
    lines = _TextLines(handle)
    rows = csv.reader(lines, delimiter=delimiter)
    while chunk := _csv_rows(rows, line - 1, lines):
        cells, line_nos, failed = chunk
        flat = reduce(iadd, cells, [])
        widths = np.fromiter(map(len, cells), np.int64, len(cells))
        line_nos = np.fromiter(line_nos, np.int64, len(line_nos))
        yield Rows(line_nos, widths, np.cumsum(widths) - widths, flat, failed)
        if len(cells) < CHUNK_ROWS:
            return


class _TextLines:
    """The rest of a handle as lines of text for csv, as in `newline=''` mode.

    A line ends at "\\r\\n", "\\r" or "\\n". A block of whole lines ends
    after a "\\n", so no "\\r\\n" is split between blocks. A block is
    split by `str.splitlines` unless it holds a character splitlines also
    breaks at. A row on one line can hold a cell over csv's field limit
    only if the line is longer than the limit, and so covers a whole
    window of half the limit's bytes, counted from the block's start,
    with no "\\n". `long` turns true before the lines of the first block
    with such a window are read.
    """

    def __init__(self, handle: BinaryIO) -> None:
        self.handle, self.window, self.long = handle, max(csv.field_size_limit() // 2, 1), False

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(self._blocks())

    def _blocks(self) -> Iterator[Iterable[str]]:
        offset, w = self.handle.tell(), self.window
        for block in _line_blocks(self.handle):
            self.long = self.long or any(block.find(b"\n", i, i + w) < 0 for i in range(0, len(block), w))
            text = utf8_text(block, offset)
            if any(end in text for end in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"):
                yield io.StringIO(text, newline="")
            else:
                yield text.splitlines(True)
            offset += len(block)


def _line_ends(cell: str) -> int:
    """The line ends ("\\r\\n", "\\r" or "\\n") inside a cell."""
    return cell.count("\n") + cell.count("\r") - cell.count("\r\n")


def _csv_rows(
    rows: Iterator[list[str]], before: int, lines: _TextLines
) -> tuple[list[list[str]], list[int], dict[int, str]] | None:
    """The next CHUNK_ROWS rows of a csv reader, the line each starts on, and the rows it failed on.

    `before` is the number of the line before the reader's first, and
    None stands for no more rows. A row whose quoted cells hold k line
    ends spans k + 1 lines. csv's field limit is lifted while parsing,
    so an oversized quoted cell is read whole, line breaks and all; its
    row then fails with csv's reason. Only a row that spans lines, or
    any row once `lines` has read a line longer than the limit, can hold
    such a cell, so only then are the chunk's rows numbered and searched
    one at a time. A row that fails, or that csv cannot parse, stands in
    the chunk as [], and the third value maps its index to the reason.
    """
    chunk: list[list[str]] = []
    line_nos: list[int] = []
    failed: dict[int, str] = {}
    limit = csv.field_size_limit(sys.maxsize)
    try:
        while True:
            at, line = len(chunk), before + rows.line_num + 1
            try:
                chunk.extend(islice(rows, CHUNK_ROWS - len(chunk)))
                error = None
            except csv.Error as exc:
                error = str(exc)
            if error is None and not lines.long and before + rows.line_num - line + 1 == len(chunk) - at:
                line_nos.extend(range(line, before + rows.line_num + 1))
            else:
                for i in range(at, len(chunk)):
                    cells = chunk[i]
                    line_nos.append(line)
                    if any(len(cell) > limit for cell in cells):
                        failed[i] = f"field larger than field limit ({limit})"
                        chunk[i] = []
                    line += 1 + sum(map(_line_ends, cells))
            if error is None:
                return (chunk, line_nos, failed) if chunk else None
            failed[len(chunk)] = error
            chunk.append([])
            line_nos.append(line)
    finally:
        csv.field_size_limit(limit)


# --- the shared table reader -------------------------------------------------


def _is_comment(cells: list[str]) -> bool:
    return bool(cells) and cells[0].lstrip().startswith("#")


def _is_blank(cells: list[str]) -> bool:
    return not cells or all(not c.strip() for c in cells)


def _find_header(chunks: Iterator[Rows]) -> tuple[list[str], Rows, int]:
    """The cells of the first non-blank, non-comment row, its chunk, and the index after it."""
    for rows in chunks:
        for i in range(len(rows)):
            if i in rows.failed:
                raise SchemaError(f"line {rows.line_nos[i]}: {rows.failed[i]}")
            cells = rows.row(i)
            if not (_is_blank(cells) or _is_comment(cells)):
                return cells, rows, i + 1
    raise SchemaError("empty input: no header line")


def _resolve_header(
    header_cells: list[str],
    aliases: dict[str, tuple[str, ...]],
    required: tuple[str, ...],
) -> dict[str, int]:
    """Map canonical column names to cell indices; raise on missing columns."""
    positions: dict[str, int] = {}
    lowered = [cell.strip().lower() for cell in header_cells]
    for canonical, names in aliases.items():
        for name in names:
            if name in lowered:
                positions[canonical] = lowered.index(name)
                break
    missing = [c for c in required if c not in positions]
    if missing:
        raise SchemaError(f"missing mandatory column(s): {', '.join(missing)}")
    return positions


def _kept_rows(
    rows: Rows, first: int, header: list[str], report: RejectionReport
) -> tuple[list[int], list[list[str]]]:
    """The line numbers and columns of the data rows from index `first` on that a table keeps.

    `header` is the header's cells, stripped and lowercased. Blank and
    comment rows are skipped; duplicate-header, short and unreadable
    rows go to `report`. A row longer than the header keeps its first
    cells.
    """
    width = len(header)
    index = np.arange(first, len(rows))
    # Rows of another width and rows whose first cell is blank, a comment or
    # the header's first cell need a look. Those first cells are found among
    # the distinct first cells; other rows are kept as they are.
    look = rows.widths[index] != width
    firsts = list(map(rows.cells.__getitem__, rows.starts[index[~look]].tolist()))
    odd_firsts = {
        cell
        for cell in set(firsts)
        if not (head := cell.strip()) or head[0] == "#" or head.lower() == header[0]
    }
    if odd_firsts:
        look[~look] = np.fromiter(map(odd_firsts.__contains__, firsts), bool, len(firsts))
    keep = ~look
    for k in np.flatnonzero(look).tolist():
        i = first + k
        cells = rows.row(i)
        if i in rows.failed:
            report.reject(int(rows.line_nos[i]), rows.failed[i])
        elif _is_blank(cells) or _is_comment(cells):
            pass
        elif [c.strip().lower() for c in cells] == header:
            report.reject(int(rows.line_nos[i]), "duplicate header row")
        elif len(cells) < width:
            report.reject(int(rows.line_nos[i]), f"expected {width} fields, got {len(cells)}")
        else:
            keep[k] = True
    kept = index[keep]
    return rows.line_nos[kept].tolist(), rows.columns(kept, width)


def _read_table(
    source: BinaryIO,
    delimiter: str,
    aliases: dict[str, tuple[str, ...]],
    required: tuple[str, ...],
    report: RejectionReport,
) -> Iterator[tuple[list[int], dict[str, Sequence[str]]]]:
    """The well-formed data rows of one delimited table, in chunks of columns.

    The first non-blank, non-comment row is the header. Each chunk
    holds the kept rows of one chunk of `split_rows`: their line numbers
    and the cells of every resolved column (by canonical name). There is
    at least one chunk, which may hold no rows. Blank and comment rows
    are skipped; duplicate-header, short and unparseable rows go to
    `report`. A leading byte-order mark is ignored.
    """
    raw = source.read()
    handle = io.BytesIO(raw)
    handle.seek(len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0)
    chunks = split_rows(handle, delimiter)
    header, rows, first = _find_header(chunks)
    positions = _resolve_header(header, aliases, required)
    header_lowered = [c.strip().lower() for c in header]
    while rows is not None:
        line_nos, columns = _kept_rows(rows, first, header_lowered, report)
        yield line_nos, {name: columns[i] for name, i in positions.items()}
        rows, first = next(chunks, None), 0


# --- the column checks -------------------------------------------------------


def _passing(
    line_nos: Sequence[int],
    checks: Iterable[tuple[Sequence[bool], str | dict[int, str]]],
    report: RejectionReport,
) -> np.ndarray:
    """Which rows pass every check.

    A check is (mask of the rows that fail it, reason); the reason is one
    text for all of them or a text per row. A row that fails goes to
    `report` with the reason of the first check it fails.
    """
    ok = np.ones(len(line_nos), dtype=bool)
    for failing, reason in checks:
        failing = np.asarray(failing, dtype=bool)
        for i in np.flatnonzero(failing & ok).tolist():
            report.reject(line_nos[i], reason if isinstance(reason, str) else reason[i])
        ok &= ~failing
    return ok


def _bulk(convert: Callable[[str], object], cells: Sequence[str]) -> tuple[list, np.ndarray]:
    """`convert` of each cell, and which cells it accepts; a rejected cell gets None.

    One `map` converts the cells; after a cell it rejects, it goes on
    with the next.
    """
    values: list = []
    ok = np.ones(len(cells), dtype=bool)
    rest = iter(cells)
    while True:
        try:
            values.extend(map(convert, rest))  # keeps the values before a rejected cell
            return values, ok
        except ValueError:
            ok[len(values)] = False
            values.append(None)


def _floats(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    values, ok = _bulk(float, cells)
    return np.array(values, dtype=np.float64), ok  # numpy reads a None as NaN


def _text_column(cells: Sequence[str], convert: Callable[[str], str]) -> tuple[TextColumn, np.ndarray]:
    """`convert` of each cell as a `TextColumn`, and which cells it accepts.

    `convert` is called once per distinct cell. A rejected cell gets ''.
    """
    raw = TextColumn.of(cells)
    texts, ok = _bulk(convert, raw.values)
    converted = TextColumn.of([text if good else "" for text, good in zip(texts, ok.tolist())])
    return TextColumn(converted.codes[raw.codes], converted.values), ok[raw.codes]


def _canonical(kind: type) -> Callable[[str], str]:
    """A cell's canonical text: '' if blank, else `repr(kind(cell))`."""
    return lambda cell: repr(kind(s)) if (s := cell.strip()) else ""


def position_checks(lat: np.ndarray, lon: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """The range checks of a fix's position: (mask of the rows that fail, reason); NaN fails."""
    return [
        (~((lat >= -90.0) & (lat <= 90.0)), "lat out of range"),
        (~((lon >= -180.0) & (lon < 180.0)), "lon out of range"),
    ]


def convert_gps(
    line_nos: Sequence[int],
    columns: dict[str, Sequence[str]],
    report: RejectionReport,
    naive_utc_offset_minutes: int = 0,
) -> FixTable:
    """The rows of one chunk of GPS columns that pass the checks; the others go to `report`."""
    blank = [""] * len(line_nos)
    t_us, time_ok, time_reasons = timestamps_us(columns["timestamp"], naive_utc_offset_minutes)
    lat, lat_ok = _floats(columns["lat"])
    lon, lon_ok = _floats(columns["lon"])
    accuracy, accuracy_ok = _floats(columns["accuracy"])
    user, _ = _text_column(columns["user_id"], str.strip)
    elevation, elevation_ok = _text_column(columns.get("elevation", blank), _canonical(float))
    satellites, satellites_ok = _text_column(columns.get("satellites", blank), _canonical(int))
    provider, _ = _text_column(columns.get("provider", blank), str.strip)
    empty = np.array([not text for text in user.values], dtype=bool)
    negative = np.array([text.startswith("-") for text in satellites.values], dtype=bool)
    with np.errstate(invalid="ignore"):
        ok = _passing(line_nos, [
            (~time_ok, time_reasons),
            (~(lat_ok & lon_ok & accuracy_ok), "non-numeric lat/lon/accuracy"),
            *position_checks(lat, lon),
            (~(np.isfinite(accuracy) & (accuracy >= 0.0)), "accuracy negative or non-finite"),
            (empty[user.codes], "empty user id"),
            (~(elevation_ok & satellites_ok), "non-numeric elevation/satellites"),
            (negative[satellites.codes], "negative satellite count"),
        ], report)

    return FixTable(
        user=user.take(ok),
        t_us=t_us[ok],
        lat=lat[ok],
        lon=lon[ok],
        accuracy=accuracy[ok],
        elevation=elevation.take(ok),
        satellites=satellites.take(ok),
        provider=provider.take(ok),
    )


def convert_survey(
    line_nos: Sequence[int], columns: dict[str, Sequence[str]], report: RejectionReport
) -> list[SurveyRecord]:
    """The rows of one chunk of survey columns that pass the checks; the others go to `report`."""
    raters = [cell.strip() for cell in columns["rater_id"]]
    ratees = [cell.strip() for cell in columns["ratee_id"]]
    closeness, closeness_ok = _bulk(int, columns["closeness_raw"])
    proximity, proximity_ok = _bulk(int, columns["proximity_raw"])
    ok = _passing(line_nos, [
        ([not (a and b) for a, b in zip(raters, ratees)], "empty rater/ratee id"),
        (list(map(str.__eq__, raters, ratees)), "self-rating"),
        (~(closeness_ok & proximity_ok), "non-integer closeness/proximity"),
        ([c not in range(6) for c in closeness], "closeness out of range"),
        ([p not in range(1, 6) for p in proximity], "proximity out of range"),
    ], report)
    return [
        SurveyRecord(raters[i], ratees[i], closeness[i], proximity[i])
        for i in np.flatnonzero(ok).tolist()
    ]


def parse_gps_log(
    source: BinaryIO,
    options: IngestOptions | None = None,
) -> tuple[FixTable, RejectionReport]:
    """Parse a delimited GPS log into a FixTable plus a rejection report.

    The first line must be a header naming at least the user, timestamp,
    lat, lon and accuracy columns (any alias, any case). Repeated header
    lines further down the file count as rejected rows, not as errors.
    """
    opts = options or IngestOptions()
    report = RejectionReport()
    with gc_paused():
        chunks = [
            convert_gps(line_nos, columns, report, opts.naive_utc_offset_minutes)
            for line_nos, columns in _read_table(
                source, opts.delimiter, _GPS_ALIASES, _GPS_REQUIRED, report
            )
        ]
    report.entries.sort()
    table = FixTable.concat(chunks)
    report.n_accepted = len(table)
    return table, report


def parse_survey(
    source: BinaryIO,
    options: IngestOptions | None = None,
) -> tuple[list[SurveyRecord], RejectionReport]:
    """Parse the closeness survey into SurveyRecord rows.

    Self-ratings and out-of-range scores are rejected row by row.
    """
    opts = options or IngestOptions()
    report = RejectionReport()
    records = []
    for line_nos, columns in _read_table(
        source, opts.delimiter, _SURVEY_ALIASES, _SURVEY_REQUIRED, report
    ):
        records += convert_survey(line_nos, columns, report)
    report.entries.sort()
    report.n_accepted = len(records)
    return records, report
