"""Parsing of raw GPS log files and the ground-truth closeness survey.

Both inputs are delimited text with a header line. Column names are
matched case-insensitively and through a small alias table, because
field order and exact naming vary between log exports. Malformed rows
are never dropped silently: every parse returns the accepted records
plus a rejection report listing line number and reason for each bad
row, in line order. Both readers share one table reader, which handles
the header, blank, comment, duplicate-header and short rows, and differ
only in their column aliases and converters.

The readers take a binary handle to UTF-8 text, in which a leading
byte-order mark is ignored, and the run's `RunConfig`, whose
`delimiter` and `naive_utc_offset_minutes` they read. They never seek
the handle, so it may be a pipe. One splitter, `split_rows`, reads every
input, and the staged artifacts too, without csv and without decoding:
its rows are those csv's default dialect reads in `newline=''` mode,
quoted cells and "\\r" line ends included. It streams the text in blocks
of whole rows, its one unit of work: numpy finds each cell's byte range
in a block, whose rows hand out their cells as `Cells`, byte ranges of
one buffer; only a quoted cell that is more than one quoted text is
copied. A decode error gives the offset of the bad byte in the file.

The GPS log comes back as a `FixTable`: one numpy column per field, an
int32 user code into a sorted name table, epoch microseconds (UTC) for
time, and the optional elevation, satellite and provider cells kept as
canonical text so that `fixes.csv` can be written without rounding.
Columns are converted from their bytes where the bytes decide the value,
and by Python's own `float` and `int` otherwise:

- a float cell `[-]digits[.digits]` of at most 15 digits and 17 bytes
  is its digits as an int64 mantissa divided by an exact power of ten,
  which IEEE division rounds as `float` rounds the text (`exact_floats`);
  other cells (whitespace, '+', exponents, 'nan', 16- and 17-digit
  reprs, digits outside ASCII) are decoded, a column's at once, and go
  to `float`;
- a text column (user, elevation, satellites, provider) codes each cell
  as big-endian uint64 words of its bytes, one sort per word count, and
  decodes and converts each distinct cell once (`Cells.text_column`).

Timestamps in these shapes are parsed in bulk:

- integer epoch seconds of up to 11 ASCII digits;
- fractional epoch seconds below 2**32 with 1 to 6 fraction digits,
  where `datetime.fromtimestamp` gives the cell's exact microsecond;
- `YYYY-MM-DDTHH:MM:SS`, with an optional 3- or 6-digit fraction, and
  with a `Z` or `+hh:mm` zone or none (naive, `naive_utc_offset_minutes`
  east of UTC); a naive time may have a space in place of the `T`.

Every number is read from a `uint8` matrix of its column's cells of one
shape, a row per byte position (`_byte_rows`), by Horner steps (`_horner`).

Cells in other shapes, and cells holding a byte outside ASCII, are
decoded and go to `parse_timestamp` one at a time.

A column of numbers, days or timestamps is converted by `column_values`:
a byte reader takes the cells it can, and one `_bulk` map of a Python
parser the others, keeping each error's text. Each table's rules are one
ordered list of column checks (`_passing`): a mask of the rows that fail
the check, and the reason. A rejected row gets the reason of the first
check it fails; a timestamp's reason is the text of the error
`parse_timestamp` raised. The staged artifact readers convert and check
their cells the same way, so how a cell becomes a value is decided here
only. The table iterates as `RawFix` rows.
"""

from __future__ import annotations

import codecs
import gc
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from functools import partial
from math import isfinite
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .config import RunConfig

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


# zero bytes before and after the cells of a buffer, so that a window of up
# to this many bytes that starts at a cell's start or ends at its end stays
# inside the buffer
_PAD = 32
_PADDING = bytes(_PAD)
# the bytes of a text code's word, a uint64
_CODE_BYTES = 8
# the high n bytes of a uint64, for n = 0..8
_HIGH_BYTES = np.array([(1 << 64) - (1 << 8 * (8 - n)) for n in range(9)], dtype=np.uint64)


@dataclass(frozen=True, eq=False)
class Cells:
    """A column of cells as byte ranges of one UTF-8 buffer.

    Cell i is `data[starts[i]:ends[i]]`; `data` begins and ends with
    `_PAD` zero bytes. It iterates as the cells' texts, decoded on
    demand.
    """

    data: bytes
    starts: np.ndarray
    ends: np.ndarray

    @classmethod
    def of(cls, texts: Sequence[str]) -> "Cells":
        raw = "".join(texts).encode("utf-8", "surrogatepass")
        sizes = np.fromiter(map(len, texts), np.int64, len(texts))
        if len(raw) != sizes.sum():  # not ASCII: count each cell's bytes
            sizes = np.array([len(t.encode("utf-8", "surrogatepass")) for t in texts], dtype=np.int64)
        ends = _PAD + np.cumsum(sizes)
        return cls(_PADDING + raw + _PADDING, ends - sizes, ends)

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[str]:
        return iter(self.texts())

    def take(self, rows: np.ndarray) -> "Cells":
        return Cells(self.data, self.starts[rows], self.ends[rows])

    def chars(self) -> np.ndarray:
        return np.frombuffer(self.data, np.uint8)

    def texts(self, rows: np.ndarray | slice | None = None) -> list[str]:
        """The texts of the cells (of `rows`, an index array or slice, if given), each decoded alone."""
        cells = self if rows is None else self.take(rows)
        return [
            self.data[a:b].decode("utf-8", "surrogatepass")
            for a, b in zip(cells.starts.tolist(), cells.ends.tolist())
        ]

    def text_column(self) -> TextColumn:
        """The cells as a `TextColumn`, equal to `TextColumn.of(list(self))`.

        A cell is coded as big-endian uint64 words of its bytes, the last
        zero-padded; `_coded` codes the cells of each word count (an empty
        cell has one), and `TextColumn.concat` merges the counts.
        """
        sizes = self.ends - self.starts
        nul = self.data.find(b"\0", _PAD, len(self.data) - _PAD) >= 0
        if sizes.max(initial=0) <= _CODE_BYTES:  # one word each: no word counts to find
            return self._coded(1, sizes, nul)
        n_words = np.maximum(-(-sizes // _CODE_BYTES), 1)
        counts = np.flatnonzero(np.bincount(n_words)).tolist()
        if len(counts) == 1:
            return self._coded(counts[0], sizes, nul)
        groups = [np.flatnonzero(n_words == count) for count in counts]
        merged = TextColumn.concat([self.take(at)._coded(n, sizes[at], nul) for n, at in zip(counts, groups)])
        codes = np.empty(len(self), dtype=np.int32)
        codes[np.concatenate(groups)] = merged.codes
        return TextColumn(codes, merged.values)

    def _coded(self, n_words: int, sizes: np.ndarray, nul: bool) -> TextColumn:
        """The cells, of `n_words` words and `sizes` bytes each, as a `TextColumn`.

        UTF-8 orders like code points, so one sort of their words, less any
        word equal in every cell, orders the cells as their texts. If `nul`,
        the buffer holds a NUL, which reads as padding, and the sizes are a
        last key. Each distinct cell is decoded once.
        """
        words = np.ndarray((len(self.data) - 7,), ">u8", self.data, 0, (1,))  # the 8 bytes from each byte on
        last = sizes - _CODE_BYTES * (n_words - 1)  # the bytes of each cell's last word
        keys = [words[self.starts + _CODE_BYTES * k].astype(np.uint64) for k in range(n_words)] + [last] * nul
        keys[n_words - 1] &= _HIGH_BYTES[last]
        keys = [key for key in keys if (key != key[:1]).any()] or keys[:1]
        order = np.lexsort(keys[::-1]) if len(keys) > 1 else np.argsort(keys[0])
        first = np.ones(len(order), dtype=bool)  # whether each sorted cell is its text's first
        first[1:] = np.logical_or.reduce([np.diff(key[order]) != 0 for key in keys])
        codes = np.empty(len(order), dtype=np.int32)
        codes[order] = np.cumsum(first, dtype=np.int32) - 1
        return TextColumn(codes, tuple(self.texts(order[first])))


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
# Fractional epoch seconds (1 to 10 digits, a point, 1 to 6 digits) are parsed
# in bulk below 2**32 s. There half an ulp of the double is under 0.5 us, so
# `datetime.fromtimestamp(float(cell))` rounds to the cell's exact microsecond.
_FRACTIONAL_EPOCH_LIMIT_S = 2**32
_POW10 = 10 ** np.arange(7, dtype=np.int64)  # for 0 to 6 fraction digits
# (fraction digits, zone) of the ISO shapes parsed in bulk; zone 'Z' means
# a 'Z' or 'z' suffix, '+' a '+hh:mm' or '-hh:mm' offset, '' none (naive)
_ISO_SHAPES = tuple((frac, zone) for frac in (0, 3, 6) for zone in ("Z", "+", ""))
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# the first and last UTC instants `datetime` holds, in epoch microseconds
_MIN_US, _MAX_US = (to_epoch_us(t.replace(tzinfo=timezone.utc)) for t in (datetime.min, datetime.max))


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


def _real_date(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Which (year, month, day) are dates of the proleptic Gregorian calendar, years aside."""
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 12)] + (leap & (month == 2))
    return (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)


def _byte_rows(cells: Cells, width: int, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `width` bytes from each offset of `at` on, a row per position, and those bytes less "0"."""
    chars = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(cells.chars(), width)[at].T)
    return chars, chars - np.uint8(ord("0"))  # wraps, so a byte below "0" is above 9 too


def _horner(digits: np.ndarray, dtype: type = np.int32, scale: np.ndarray | int = 10) -> np.ndarray:
    """The number each column of `digits` spells, its first row the leading digit.

    Each next row multiplies by `scale`, or by its row of `scale`; int32
    holds any number of up to 6 rows, even of bytes that are not digits.
    """
    value = digits[0].astype(dtype)
    for k in range(1, len(digits)):
        value *= scale if isinstance(scale, int) else scale[k]
        value += digits[k]
    return value


def _iso_date(chars: np.ndarray, digits: np.ndarray) -> tuple[np.ndarray, ...]:
    """Which columns of a byte matrix begin with a real `YYYY-MM-DD` date, and its year, month and day."""
    year, month, day = _horner(digits[0:4]), _horner(digits[5:7]), _horner(digits[8:10])
    ok = np.logical_and.reduce(digits[[0, 1, 2, 3, 5, 6, 8, 9]] <= 9)
    ok &= (chars[4] == ord("-")) & (chars[7] == ord("-"))
    return ok & (year >= 1) & _real_date(year, month, day), year, month, day


def iso_days(cells: Cells) -> tuple[np.ndarray, np.ndarray]:
    """Days since 1970-01-01 of the `YYYY-MM-DD` cells in ASCII digits, and which those are.

    Where the mask is True the value is that of `date.fromisoformat(cell)`;
    other cells are left to it.
    """
    days = np.zeros(len(cells), dtype=np.int64)
    ok = np.zeros(len(cells), dtype=bool)
    rows = np.flatnonzero(cells.ends - cells.starts == 10)
    if rows.size:
        good, year, month, day = _iso_date(*_byte_rows(cells, 10, cells.starts[rows]))
        days[rows] = np.where(good, _days_from_civil(np.where(good, year, 1970), month, day), 0)
        ok[rows] = good
    return days, ok


def _iso_us(
    chars: np.ndarray, digits: np.ndarray, frac: int, zone: str, naive_offset_s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds and validity of the timestamps of one fixed ISO shape.

    `chars` holds one timestamp per column (`_byte_rows`), `digits` its
    bytes less "0". A timestamp is valid only if it is a real date and
    time whose UTC instant lies in `datetime`'s range; others are left to
    `parse_timestamp`. Naive times are `naive_offset_s` seconds east of UTC.
    """
    zone_at = 19 + (frac + 1 if frac else 0)
    digit_rows = [11, 12, 14, 15, 17, 18, *range(20, 20 + frac)]
    separators = [(13, ":"), (16, ":")]
    if frac:
        separators.append((19, "."))
    if zone == "+":
        digit_rows += [zone_at + 1, zone_at + 2, zone_at + 4, zone_at + 5]
        separators.append((zone_at + 3, ":"))
    ok, year, month, day = _iso_date(chars, digits)
    ok &= np.logical_and.reduce(digits[digit_rows] <= 9)
    for row, char in separators:
        ok &= chars[row] == ord(char)
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
        off_h, off_m = _horner(digits[zone_at + 1 : zone_at + 3]), _horner(digits[zone_at + 4 : zone_at + 6])
        ok &= (off_h <= 23) & (off_m <= 59)
        offset_s = np.where(sign == ord("-"), -1, 1) * (off_h * 3600 + off_m * 60)

    hour, minute, second = _horner(digits[11:13]), _horner(digits[14:16]), _horner(digits[17:19])
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    year = np.where(ok, year, 1970)  # keep rejected rows' arithmetic in range

    days = _days_from_civil(year, month, day).astype(np.int64)
    t_us = (days * 86400 + (hour * 3600 + minute * 60 + second - offset_s)) * US_PER_S
    if frac:
        t_us += _horner(digits[20 : 20 + frac]) * 10 ** (6 - frac)
    ok &= (t_us >= _MIN_US) & (t_us <= _MAX_US)
    return np.where(ok, t_us, 0), ok


def bulk_timestamps_us(cells: Cells, naive_utc_offset_minutes: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds of the cells in a bulk-parsed shape, and which those are.

    Where the mask is True the value equals
    `parse_timestamp(cell, naive_utc_offset_minutes)`; every other cell is
    left for `parse_timestamp` to accept or reject. Epoch seconds are read
    by `_decimals`, from their bytes right-aligned in one byte matrix, and
    the cells of each ISO shape by `_iso_us`, from one matrix of their
    bytes. Every byte of a bulk shape is ASCII, so a cell that is not is
    left to `parse_timestamp`.
    """
    n = len(cells)
    t_us = np.zeros(n, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)
    lengths = cells.ends - cells.starts

    number = _decimals(cells)
    unsigned = number.ok & ~number.negative
    whole = unsigned & (number.fraction < 0) & (lengths <= _EPOCH_DIGITS)
    t_us[whole] = number.mantissa[whole] * US_PER_S
    ok |= whole
    fraction = np.clip(number.fraction, 0, 6)
    seconds = number.mantissa // _POW10[fraction]
    exact = (
        unsigned
        & (number.fraction >= 1)
        & (number.fraction <= 6)
        & (number.digits - number.fraction >= 1)
        & (number.digits - number.fraction <= 10)
        & (seconds < _FRACTIONAL_EPOCH_LIMIT_S)
    )
    micros = number.mantissa % _POW10[fraction] * _POW10[6 - fraction]
    t_us[exact] = (seconds * US_PER_S + micros)[exact]
    ok |= exact

    # `timezone` takes offsets strictly inside a day; others fail per row
    naive = abs(naive_utc_offset_minutes) < 24 * 60
    for frac, zone in _ISO_SHAPES:
        if zone == "" and not naive:
            continue
        width = 19 + (frac + 1 if frac else 0) + {"Z": 1, "+": 6, "": 0}[zone]
        rows = np.flatnonzero(lengths == width)
        if rows.size:
            chars, digits = _byte_rows(cells, width, cells.starts[rows])
            t_us[rows], ok[rows] = _iso_us(chars, digits, frac, zone, naive_utc_offset_minutes * 60)
    return t_us, ok


# --- numbers from their bytes ------------------------------------------------

# a decimal cell of at most this many bytes is read by `_decimals`
_DECIMAL_BYTES = 17
# 10**k for k <= 22 is a double exactly
_FLOAT_POW10 = np.array([float(10**k) for k in range(23)])
# digits of a decimal cell that `exact_floats` reads as mantissa / 10**fraction:
# the mantissa is then below 2**53, so both it and 10**fraction are exact
# doubles, and one IEEE division rounds their quotient as `float` rounds the text
_EXACT_DIGITS = 15


class _Decimals(NamedTuple):
    """Cells that read `-?[0-9]*\\.?[0-9]*` with at least one digit, and their parts.

    `ok` marks those cells; in them `negative` is a leading '-',
    `fraction` the number of digits after the point (-1 with no point),
    `digits` the number of digits, and `mantissa` the digits as one
    integer. Other rows hold any values.
    """

    ok: np.ndarray
    negative: np.ndarray
    fraction: np.ndarray
    digits: np.ndarray
    mantissa: np.ndarray


def _decimals(cells: Cells) -> _Decimals:
    """The cells of at most 17 bytes that are decimal numbers, read from a byte matrix.

    The bytes after the sign are right-aligned in a matrix as wide as
    the longest (`_byte_rows`). Row sums count the points and the bytes
    that are not digits, a weighted row sum puts the point, and Horner
    steps that skip it spell the mantissa.
    """
    n = len(cells)
    lengths = cells.ends - cells.starts
    candidate = (lengths >= 1) & (lengths <= _DECIMAL_BYTES)
    part = cells if candidate.all() else cells.take(np.flatnonzero(candidate))
    sign = cells.chars()[part.starts] == ord("-")
    size = part.ends - part.starts - sign
    width = max(int(size.max(initial=0)), 1)
    chars, digits = _byte_rows(part, width, part.ends - width)
    inside = np.arange(width, dtype=np.uint8)[:, None] >= (width - size).astype(np.uint8)  # the cell's bytes
    point = (chars == ord(".")) & inside
    others = np.add.reduce((digits > 9) & inside, axis=0, dtype=np.uint8)
    points = np.add.reduce(point, axis=0, dtype=np.uint8)
    good = (others == points) & (points <= 1) & (size > points)  # a point and at least one digit
    after = np.arange(width - 1, -1, -1, dtype=np.int8)[:, None]  # the rows after each row
    fraction = np.where(points == 1, np.add.reduce(point * after, axis=0, dtype=np.int8), -1)
    # the bytes before the cell's read as leading zeros, and the point's row
    # as a step that multiplies by 1 and adds 0
    digits *= inside & ~point
    mantissa = _horner(digits, np.int64, np.uint8(10) - np.uint8(9) * point)
    number = _Decimals(good, sign, fraction, size - points, mantissa)
    if len(part) == n:
        return number
    full = _Decimals(*(np.zeros(n, dtype=values.dtype) for values in number))
    for whole, values in zip(full, number):
        whole[candidate] = values
    return full


def exact_floats(cells: Cells) -> tuple[np.ndarray, np.ndarray]:
    """The values of the decimal cells of at most `_EXACT_DIGITS` digits, and which those are.

    Each equals `float(cell)` bit for bit (the fast path of Clinger, *How
    to read floating point numbers accurately*, PLDI 1990).
    """
    number = _decimals(cells)
    values = number.mantissa / _FLOAT_POW10[np.maximum(number.fraction, 0)]
    return np.where(number.negative, -values, values), number.ok & (number.digits <= _EXACT_DIGITS)


def exact_ints(cells: Cells) -> tuple[np.ndarray, np.ndarray]:
    """The values of the cells of up to 17 bytes that read `[-]digits`, and which those are.

    Each equals `int(cell)`.
    """
    number = _decimals(cells)
    return np.where(number.negative, -number.mantissa, number.mantissa), number.ok & (number.fraction < 0)


def int64_cell(text: str) -> int:
    """`int(text)`, if it fits an int64 column; else ValueError."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{text!r} does not fit an int64")
    return value


# --- the line splitter -------------------------------------------------------


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection while a table is built.

    Reading a table allocates many objects: the texts of the cells that
    are decoded, and the values the converters build. None of them forms
    a cycle, but each batch of allocations would trigger a collection
    that rescans every container allocated so far.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# rows the artifact writer formats at a time, and the most fixes of a run of
# encounter's join; the reader works a block at a time, not a chunk of rows
CHUNK_ROWS = 1 << 15
# bytes read at a time, then on to the end of the line; the reader splits and
# converts a block at once, so this bounds the memory a large input needs
BLOCK_BYTES = 1 << 20
# csv's default field size limit: a row with a longer cell fails, with csv's reason
_FIELD_LIMIT = 131072


@dataclass(frozen=True, eq=False)
class Rows:
    """The rows of one block of delimited text; their cells are byte ranges of one buffer.

    Row i starts on line `line_nos[i]`, and its cells are `cells`
    `starts[i]` to `starts[i] + widths[i] - 1`. A row with a cell over
    csv's field limit has no cells, and csv's reason in `failed`.
    """

    line_nos: np.ndarray
    widths: np.ndarray
    starts: np.ndarray
    cells: Cells
    failed: dict[int, str]

    def __len__(self) -> int:
        return len(self.line_nos)

    def row(self, i: int) -> list[str]:
        return self.cells.texts(slice(self.starts[i], self.starts[i] + self.widths[i]))

    def column(self, rows: np.ndarray, j: int) -> Cells:
        """Cell j of each of `rows`, indices of rows with more than j cells."""
        return self.cells.take(self.starts[rows] + j)


def utf8_text(data: bytes, offset: int) -> str:
    """`data` as UTF-8 text; a decode error names the bad bytes' position as `offset` on."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start, end = offset + exc.start, offset + exc.end - 1
        what = f"byte 0x{exc.object[exc.start]:02x}" if start == end else "bytes"
        where = start if start == end else f"{start}-{end}"
        raise ValueError(f"'utf-8' codec can't decode {what} in position {where}: {exc.reason}") from None


class _Quotes(NamedTuple):
    """The runs of '"' in a block, read as csv's default dialect reads them (`_quotes`)."""

    starts: np.ndarray  # the byte each run starts at
    inside: np.ndarray  # whether a quoted span is open after it
    drops: np.ndarray  # the quotes csv drops: each span's first and last, one of each `""` in it


def _quotes(block: bytes, delimiter: bytes, inside: bool = False) -> _Quotes:
    """The runs of '"' in `block`, which starts inside a quoted span if `inside`.

    Outside a span, a run at a cell start (the block's start, or just
    after a line-end byte or the delimiter) opens one with its first
    quote; any other run is text. Inside, each `""` is one quote, and an
    odd quote left over closes the span. So a run of odd size at a cell
    start flips whether a span is open, one of odd size elsewhere leaves
    it closed, and one of even size changes nothing: a span is open
    after a run when the flips since the last run that closed it are odd.
    """
    chars = np.frombuffer(_PADDING + block, np.uint8)
    at = np.flatnonzero(chars == ord('"'))
    first = np.flatnonzero(np.diff(at, prepend=-2) != 1)  # each run's first quote among `at`
    starts, sizes = at[first], np.diff(first, append=len(at))
    cell_start = (starts == _PAD) | (chars[starts - 1] == ord("\n")) | (chars[starts - 1] == ord("\r"))
    cell_start |= np.logical_and.reduce([chars[starts - len(delimiter) + k] == b for k, b in enumerate(delimiter)])
    odd = sizes % 2 == 1
    flips = np.cumsum(odd & cell_start)
    closed = np.maximum.accumulate(np.where(odd & ~cell_start, np.arange(len(sizes)), -1))
    after = (flips - np.where(closed >= 0, flips[closed], -int(inside))) % 2 == 1
    before = np.concatenate(([inside], after[:-1]))
    dropped = np.where(before, (sizes + 1) // 2, np.where(cell_start, sizes - (sizes - 1) // 2, 0))  # the first ones
    total = np.cumsum(dropped)
    drops = np.repeat(starts - total + dropped, dropped) + np.arange(total[-1])
    return _Quotes(starts - _PAD, after, drops - _PAD)


def _row_blocks(handle: BinaryIO, head: bytes, delimiter: bytes) -> Iterator[tuple[bytes, _Quotes | None]]:
    """`head`, then the rest of `handle`, in blocks of whole rows, with their quotes (None if there are none).

    A block is BLOCK_BYTES read on to the end of the line, and on by as
    much again while a quoted span is open at its end.
    """
    while block := head + handle.read(BLOCK_BYTES):
        head, parts, quotes, inside = b"", [], None, False
        while block:
            parts.append(block if block.endswith(b"\n") else block + handle.readline())
            if b'"' in parts[-1]:
                quotes = _quotes(parts[-1], delimiter, inside)
                inside = bool(quotes.inside[-1])
            block = handle.read(BLOCK_BYTES) if inside else b""
        block = b"".join(parts)
        yield block, quotes if len(parts) == 1 else _quotes(block, delimiter)


def split_rows(
    handle: BinaryIO, delimiter: str, line: int = 1, offset: int = 0, head: bytes = b""
) -> Iterator[Rows]:
    """The rows of UTF-8 delimited text, `head` and then the rest of `handle`, a `Rows` per block.

    `head` holds bytes already read from the handle; the text starts on
    line `line`, at byte `offset` of the input. The rows are those csv's
    default dialect reads in `newline=''` mode: a line ends at "\\r\\n",
    "\\r" or "\\n", and a cell at a line end or at the delimiter's UTF-8
    bytes (which UTF-8 never holds inside another character) outside
    quoted spans (`_quotes`). A row's number is the line it starts on; a
    row with a cell over csv's field limit has no cells, and csv's
    reason. Each block of whole rows (`_row_blocks`), less the quotes csv
    drops, is the buffer of one `Rows`. A block that is not ASCII is
    decoded once, to check that it is UTF-8; a decode error names the
    offset of the bad byte.
    """
    separator = delimiter.encode("utf-8", "surrogatepass")
    for block, quotes in _row_blocks(handle, head, separator):
        if not block.isascii():
            utf8_text(block, offset)
        offset += len(block)
        data = _PADDING + block + _PADDING
        padded = np.frombuffer(data, np.uint8)
        chars = padded[_PAD:-_PAD]
        is_end = chars == ord("\n")
        if len(separator) == 1:
            is_end |= chars == separator[0]
        else:
            at = np.flatnonzero(chars == separator[0])
            is_end[at[np.logical_and.reduce([padded[at + _PAD + k] == b for k, b in enumerate(separator)])]] = True
        if b"\r" in block:  # a "\r" ends a line too, unless a "\n" follows
            cr = np.flatnonzero(chars == ord("\r"))
            is_end[cr[padded[cr + _PAD + 1] != ord("\n")]] = True
        bounds = np.flatnonzero(is_end)
        line_end = chars[bounds] != separator[0]
        breaks = bounds[:0]  # the line ends inside quoted cells
        if quotes is not None:  # spans open and close at the runs after which `inside` flips
            flips = np.searchsorted(bounds, quotes.starts[np.diff(quotes.inside, prepend=False)])
            inside = np.repeat(np.arange(len(flips) + 1) % 2 == 1, np.diff(flips, prepend=0, append=len(bounds)))
            breaks = bounds[inside & line_end]
            bounds, line_end = bounds[~inside], line_end[~inside]
        if not (len(bounds) and line_end[-1] and bounds[-1] == len(block) - 1):  # no line end at the end
            bounds, line_end = np.append(bounds, len(block)), np.append(line_end, True)
        last = np.flatnonzero(line_end)  # the last cell of each row
        ends = bounds[last]
        lengths = np.diff(ends, prepend=-1) - 1
        line_nos = np.arange(line, line + len(ends))
        if len(breaks):
            line_nos[1:] += np.searchsorted(breaks, ends[:-1])
        if b"\r" in block:  # the last cell of a row that ends in "\r\n" ends before the "\r"
            crlf = (padded[ends + _PAD] == ord("\n")) & (padded[ends + _PAD - 1] == ord("\r"))
            lengths -= crlf
        if quotes is not None:  # the block without the quotes csv drops: each cell is a byte range of it
            keep = np.ones(len(block), bool)
            keep[quotes.drops] = False
            data = b"".join((_PADDING, chars[keep], _PADDING))
            bounds -= np.searchsorted(quotes.drops, bounds)
            del keep, chars, padded  # only the copy is needed while the rows are converted
        cell_ends = bounds + _PAD
        cell_starts = np.concatenate(([_PAD], cell_ends[:-1] + 1))
        if len(separator) > 1:
            cell_starts[1:] += (len(separator) - 1) * ~line_end[:-1]
        if b"\r" in block:
            cell_ends[last] -= crlf
        first = np.concatenate(([0], last[:-1] + 1))
        widths = np.where(lengths > 0, last - first + 1, 0)
        failed = {}
        if lengths.max() > _FIELD_LIMIT:
            long = np.flatnonzero(cell_ends - cell_starts > _FIELD_LIMIT).tolist()
            over = [i for i in long if len(data[cell_starts[i] : cell_ends[i]].decode()) > _FIELD_LIMIT]
            reason = f"field larger than field limit ({_FIELD_LIMIT})"
            failed = dict.fromkeys(np.searchsorted(last, over).tolist(), reason)
            widths[list(failed)] = 0
        yield Rows(line_nos, widths, first, Cells(data, cell_starts, cell_ends), failed)
        line += len(ends) + len(breaks)


# --- the shared table reader -------------------------------------------------


def _is_comment(cells: list[str]) -> bool:
    return bool(cells) and cells[0].lstrip().startswith("#")


def _is_blank(cells: list[str]) -> bool:
    return not cells or all(not c.strip() for c in cells)


def _find_header(blocks: Iterator[Rows]) -> tuple[list[str], Rows, int]:
    """The cells of the first non-blank, non-comment row, its block's rows, and the index after it."""
    for rows in blocks:
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


def _kept_rows(rows: Rows, first: int, header: list[str], report: RejectionReport) -> np.ndarray:
    """The indices of the data rows from index `first` on that a table keeps.

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
    firsts = rows.column(index[~look], 0).text_column()
    odd = np.array(
        [not (head := cell.strip()) or head[0] == "#" or head.lower() == header[0] for cell in firsts.values],
        dtype=bool,
    )
    if odd.any():
        look[~look] = odd[firsts.codes]
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
    return index[keep]


def _read_table(
    source: BinaryIO,
    delimiter: str,
    aliases: dict[str, tuple[str, ...]],
    required: tuple[str, ...],
    report: RejectionReport,
) -> Iterator[tuple[list[int], dict[str, Cells]]]:
    """The well-formed data rows of one delimited table, in chunks of columns.

    The first non-blank, non-comment row is the header. Each chunk
    holds the kept rows of one block of `split_rows`: their line numbers
    and the cells of every resolved column (by canonical name). There is
    at least one chunk, which may hold no rows. Blank and comment rows
    are skipped; duplicate-header, short and unparseable rows go to
    `report`. `source` is streamed; a leading byte-order mark is skipped.
    """
    head = source.read(len(codecs.BOM_UTF8))
    skip = len(head) if head == codecs.BOM_UTF8 else 0
    blocks = split_rows(source, delimiter, offset=skip, head=head[skip:])
    header, rows, first = _find_header(blocks)
    positions = _resolve_header(header, aliases, required)
    header_lowered = [c.strip().lower() for c in header]
    while rows is not None:
        kept = _kept_rows(rows, first, header_lowered, report)
        yield rows.line_nos[kept].tolist(), {name: rows.column(kept, i) for name, i in positions.items()}
        rows, first = next(blocks, None), 0


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


def _bulk(
    convert: Callable[[str], object], cells: Sequence[str], missing: object = None
) -> tuple[list, np.ndarray, dict[int, str]]:
    """`convert` of each cell, which cells it accepts, and the error text of each it rejects.

    A rejected cell gets `missing`. One `map` converts the cells; after
    a cell it rejects, it goes on with the next.
    """
    values: list = []
    ok = np.ones(len(cells), dtype=bool)
    reasons: dict[int, str] = {}
    rest = iter(cells)
    while True:
        try:
            values.extend(map(convert, rest))  # keeps the values before a rejected cell
            return values, ok, reasons
        except ValueError as exc:
            ok[len(values)], reasons[len(values)] = False, str(exc)
            values.append(missing)


def column_values(
    cells: Cells,
    fast: Callable[[Cells], tuple[np.ndarray, np.ndarray]],
    parse: Callable[[str], object],
    missing: object = 0,
) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """The value of each cell, which cells parse, and the error text of each that does not.

    `fast` (`exact_floats`, `exact_ints`, `iso_days`, `bulk_timestamps_us`)
    reads the cells it marks from their bytes, as `parse` would; the others
    are decoded and go to `parse` through one `_bulk` map. A rejected cell
    gets `missing`.
    """
    values, ok = fast(cells)
    rest = np.flatnonzero(~ok)
    values[rest], ok[rest], reasons = _bulk(parse, cells.texts(rest), missing)
    return values, ok, {int(rest[i]): reason for i, reason in reasons.items()}


# `float` of each cell, which cells it accepts, and why not; a rejected cell gets NaN
_floats = partial(column_values, fast=exact_floats, parse=float, missing=np.nan)


def _text_column(cells: Cells, convert: Callable[[str], str]) -> tuple[TextColumn, np.ndarray]:
    """`convert` of each cell as a `TextColumn`, and which cells it accepts.

    `convert` is called once per distinct cell. A rejected cell gets ''.
    """
    raw = cells.text_column()
    texts, ok, _ = _bulk(convert, raw.values)
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
    columns: Mapping[str, Cells],
    report: RejectionReport,
    naive_utc_offset_minutes: int = 0,
) -> FixTable:
    """The rows of one chunk of GPS columns that pass the checks; the others go to `report`."""
    blank = Cells.of([""] * len(line_nos))
    t_us, time_ok, time_reasons = column_values(
        columns["timestamp"],
        lambda cells: bulk_timestamps_us(cells, naive_utc_offset_minutes),
        lambda text: to_epoch_us(parse_timestamp(text, naive_utc_offset_minutes)),
    )
    lat, lat_ok, _ = _floats(columns["lat"])
    lon, lon_ok, _ = _floats(columns["lon"])
    accuracy, accuracy_ok, _ = _floats(columns["accuracy"])
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
    line_nos: Sequence[int], columns: Mapping[str, Cells], report: RejectionReport, seen: set[tuple[str, str]]
) -> list[SurveyRecord]:
    """The rows of one chunk of survey columns that pass the checks; the others go to `report`.

    `seen` holds the (rater, ratee) of the rows accepted before the
    chunk, and gains the chunk's: a row that passes the other checks is
    rejected if an accepted row already rated its pair in that direction.
    """
    raters = [cell.strip() for cell in columns["rater_id"]]
    ratees = [cell.strip() for cell in columns["ratee_id"]]
    closeness, closeness_ok, _ = _bulk(int, columns["closeness_raw"].texts())
    proximity, proximity_ok, _ = _bulk(int, columns["proximity_raw"].texts())
    ok = _passing(line_nos, [
        ([not (a and b) for a, b in zip(raters, ratees)], "empty rater/ratee id"),
        (list(map(str.__eq__, raters, ratees)), "self-rating"),
        (~(closeness_ok & proximity_ok), "non-integer closeness/proximity"),
        ([c not in range(6) for c in closeness], "closeness out of range"),
        ([p not in range(1, 6) for p in proximity], "proximity out of range"),
    ], report)
    records = []
    for i in np.flatnonzero(ok).tolist():
        if (raters[i], ratees[i]) in seen:
            report.reject(line_nos[i], "duplicate rating")
        else:
            seen.add((raters[i], ratees[i]))
            records.append(SurveyRecord(raters[i], ratees[i], closeness[i], proximity[i]))
    return records


def run_config(config: RunConfig | None) -> RunConfig:
    """`config`, or `RunConfig()`: `tiediv.config` loads on first use, not on `import tiediv`."""
    if config is None:
        from .config import RunConfig

        config = RunConfig()
    return config


def parse_gps_log(
    source: BinaryIO, config: RunConfig | None = None
) -> tuple[FixTable, RejectionReport]:
    """Parse a delimited GPS log into a FixTable plus a rejection report.

    The first line must be a header naming at least the user, timestamp,
    lat, lon and accuracy columns (any alias, any case). Repeated header
    lines further down the file count as rejected rows, not as errors.
    """
    cfg = run_config(config)
    report = RejectionReport()
    with gc_paused():
        chunks = [
            convert_gps(line_nos, columns, report, cfg.naive_utc_offset_minutes)
            for line_nos, columns in _read_table(
                source, cfg.delimiter, _GPS_ALIASES, _GPS_REQUIRED, report
            )
        ]
    report.entries.sort()
    table = FixTable.concat(chunks)
    report.n_accepted = len(table)
    return table, report


def parse_survey(
    source: BinaryIO, config: RunConfig | None = None
) -> tuple[list[SurveyRecord], RejectionReport]:
    """Parse the closeness survey into SurveyRecord rows.

    Self-ratings, out-of-range scores and repeated ratings of a pair in
    one direction are rejected row by row.
    """
    cfg = run_config(config)
    report = RejectionReport()
    records: list[SurveyRecord] = []
    seen: set[tuple[str, str]] = set()
    for line_nos, columns in _read_table(
        source, cfg.delimiter, _SURVEY_ALIASES, _SURVEY_REQUIRED, report
    ):
        records += convert_survey(line_nos, columns, report, seen)
    report.entries.sort()
    report.n_accepted = len(records)
    return records, report
