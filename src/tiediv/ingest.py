"""Parsing of raw GPS log files and the ground-truth closeness survey.

Both inputs are delimited text with a header line. Column names are
matched case-insensitively and through a small alias table, because
field order and exact naming vary between log exports. Malformed rows
are never dropped silently: every parse returns the accepted records
plus a rejection report listing line number and reason for each bad
row, in line order. Both readers share one table reader, which handles
the header, blank, comment, duplicate-header and short rows, and differ
only in their column aliases and converters. A leading UTF-8 byte-order
mark is ignored.

The GPS log comes back as a `FixTable`: one numpy column per field, an
int32 user code into a sorted name table, epoch microseconds (UTC) for
time, and the optional elevation, satellite and provider cells kept as
canonical text so that `fixes.csv` can be written without rounding.
Columns are converted with Python's own `float` and `int`; the optional
elevation and satellite cells once per distinct cell. Timestamps in
these shapes are parsed in bulk:

- integer epoch seconds of up to 11 ASCII digits;
- fractional epoch seconds below 2**32 with 1 to 6 fraction digits,
  where `datetime.fromtimestamp` gives the cell's exact microsecond;
- `YYYY-MM-DDTHH:MM:SS`, with an optional 3- or 6-digit fraction, and
  with a `Z` or `+hh:mm` zone or none (naive, `naive_utc_offset_minutes`
  east of UTC); a naive time may have a space in place of the `T`.

Cells in other shapes go to `parse_timestamp` one at a time.

Each table's rules are one ordered list of column checks (`convert_gps`,
`convert_survey`): a mask of the rows that fail the check, and the
reason. A rejected row gets the reason of the first check it fails; a
timestamp's reason is the text of the error `parse_timestamp` raised.
The staged artifact readers convert their columns with the same two
functions, so how a cell becomes a value is decided here only. The
table iterates as `RawFix` rows.
"""

from __future__ import annotations

import csv
import gc
import io
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from itertools import islice
from math import isfinite
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

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


@dataclass(frozen=True)
class SurveyRecord:
    """One directed rater -> ratee closeness report."""

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


def _iso_us(
    chars: np.ndarray, frac: int, zone: str, naive_offset_s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds and validity of rows of one fixed ISO shape.

    `chars` holds one timestamp per row as Unicode code points. A row is
    valid only if it is a real date and time whose UTC instant lies well
    inside `datetime`'s range; others are left to `parse_timestamp`.
    Naive times are `naive_offset_s` seconds east of UTC.
    """
    digits = chars.astype(np.int64) - ord("0")

    def number(*cols: int) -> np.ndarray:
        value = np.zeros(len(chars), dtype=np.int64)
        for col in cols:
            value = value * 10 + digits[:, col]
        return value

    zone_at = 19 + (frac + 1 if frac else 0)
    digit_cols = list(_DATE_TIME_DIGITS) + list(range(20, 20 + frac))
    separators = list(_DATE_TIME_SEPARATORS)
    if frac:
        separators.append((19, "."))
    if zone == "+":
        digit_cols += [zone_at + 1, zone_at + 2, zone_at + 4, zone_at + 5]
        separators.append((zone_at + 3, ":"))
    picked = digits[:, digit_cols]
    ok = ((picked >= 0) & (picked <= 9)).all(axis=1)
    for col, char in separators:
        ok &= chars[:, col] == ord(char)
    # a naive time may also have the space of `str(datetime)` before the time
    ok &= (chars[:, 10] == ord("T")) | ((chars[:, 10] == ord(" ")) & (zone == ""))

    if zone == "":
        offset_s = naive_offset_s
    elif zone == "Z":
        sign = chars[:, zone_at]
        ok &= (sign == ord("Z")) | (sign == ord("z"))
        offset_s = 0
    else:
        sign = chars[:, zone_at]
        ok &= (sign == ord("+")) | (sign == ord("-"))
        off_h, off_m = number(zone_at + 1, zone_at + 2), number(zone_at + 4, zone_at + 5)
        ok &= (off_h <= 23) & (off_m <= 59)
        offset_s = np.where(sign == ord("-"), -1, 1) * (off_h * 3600 + off_m * 60)

    year, month, day = number(0, 1, 2, 3), number(5, 6), number(8, 9)
    hour, minute, second = number(11, 12), number(14, 15), number(17, 18)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    ok &= (year >= 2) & (year <= 9998) & (month >= 1) & (month <= 12)
    ok &= (day >= 1) & (day <= month_days) & (hour <= 23) & (minute <= 59) & (second <= 59)
    year = np.where(ok, year, 1970)  # keep rejected rows' arithmetic in range

    seconds = _days_from_civil(year, month, day) * 86400 + hour * 3600 + minute * 60 + second
    t_us = (seconds - offset_s) * US_PER_S
    if frac:
        t_us += number(*range(20, 20 + frac)) * 10 ** (6 - frac)
    return np.where(ok, t_us, 0), ok


def bulk_timestamps_us(
    cells: Sequence[str], naive_utc_offset_minutes: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds of the cells in a bulk-parsed shape, and which those are.

    Where the mask is True the value equals
    `parse_timestamp(cell, naive_utc_offset_minutes)`; every other cell is
    left for `parse_timestamp` to accept or reject.
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
        rows = np.flatnonzero(lengths == width)
        if not rows.size:
            continue
        text = np.array([cells[i] for i in rows.tolist()], dtype=f"U{width}")
        chars = text.view(np.uint32).reshape(len(rows), width)
        t_us[rows], ok[rows] = _iso_us(chars, frac, zone, naive_utc_offset_minutes * 60)
    return t_us, ok


# --- the shared table reader -------------------------------------------------


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection while a table is built.

    A parsed table holds one list per row. None of them forms a cycle,
    but each batch of allocations would trigger a collection that
    rescans every row allocated so far.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _split_lines(text: str) -> Iterator[str]:
    """The lines of `text`, each with its '\\n', as `io.StringIO(text)` yields them."""
    start = 0
    while end := text.find("\n", start) + 1:
        yield text[start:end]
        start = end
    if start < len(text):
        yield text[start:]


def _text_lines(source: BinaryIO | TextIO) -> Iterator[str]:
    """The file's lines, split lazily from one decoded string."""
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    # spreadsheet exports often start with a UTF-8 byte-order mark
    return _split_lines(data.removeprefix("\ufeff"))


def _is_comment(cells: list[str]) -> bool:
    return bool(cells) and cells[0].lstrip().startswith("#")


def _is_blank(cells: list[str]) -> bool:
    return not cells or all(not c.strip() for c in cells)


def _find_header(rows: Iterator[list[str]]) -> tuple[int, list[str]]:
    """Index and cells of the first non-blank, non-comment row; raises if none."""
    line = 0
    try:
        for line, cells in enumerate(rows, 1):
            if not (_is_blank(cells) or _is_comment(cells)):
                return line - 1, cells
    except csv.Error as exc:
        raise SchemaError(f"line {line + 1}: {exc}") from None
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


# rows converted at a time; bounds the memory a large input needs
CHUNK_ROWS = 1 << 15


def _csv_rows(rows: Iterator[list[str]], start: int, report: RejectionReport) -> list[list[str]]:
    """The next CHUNK_ROWS rows; `start` is the line number of the first.

    A row csv cannot parse (say, a field over csv's size limit) goes to
    `report` with csv's reason and stands in the chunk as a blank row;
    the reader goes on at the next line.
    """
    chunk: list[list[str]] = []
    while True:
        try:
            chunk.extend(islice(rows, CHUNK_ROWS - len(chunk)))
            return chunk
        except csv.Error as exc:
            report.reject(start + len(chunk), str(exc))
            chunk.append([])


def _read_table(
    source: BinaryIO | TextIO,
    delimiter: str,
    aliases: dict[str, tuple[str, ...]],
    required: tuple[str, ...],
    report: RejectionReport,
) -> Iterator[tuple[list[int], dict[str, Sequence[str]]]]:
    """The well-formed data rows of one delimited table, in chunks of columns.

    The first non-blank, non-comment line is the header. Each chunk
    holds up to CHUNK_ROWS kept rows: their line numbers and the cells
    of every resolved column (by canonical name). There is at least one
    chunk, which may hold no rows. Blank and comment lines are skipped;
    duplicate-header, short and unparseable rows go to `report`.
    """
    rows = csv.reader(_text_lines(source), delimiter=delimiter)
    header_idx, header = _find_header(rows)
    positions = _resolve_header(header, aliases, required)
    header_lowered = [c.strip().lower() for c in header]
    width, first = len(header), header_lowered[0]

    start = header_idx + 2  # line number of the chunk's first row
    while True:
        chunk = _csv_rows(rows, start, report)
        # A full-width row whose first cell is neither blank, a comment,
        # nor the header's first cell is kept as is; others need a look.
        odd = [
            i
            for i, cells in enumerate(chunk)
            if len(cells) < width
            or not (head := cells[0].strip())
            or head[0] == "#"
            or head.lower() == first
        ]
        dropped = set()
        for i in odd:
            cells = chunk[i]
            if _is_blank(cells) or _is_comment(cells):
                pass
            elif [c.strip().lower() for c in cells] == header_lowered:
                report.reject(start + i, "duplicate header row")
            elif len(cells) < width:
                report.reject(start + i, f"expected {width} fields, got {len(cells)}")
            else:
                continue
            dropped.add(i)
        kept = [i for i in range(len(chunk)) if i not in dropped] if dropped else range(len(chunk))
        transposed = list(zip(*(chunk[i] for i in kept))) or [()] * width
        yield [start + i for i in kept], {name: transposed[i] for name, i in positions.items()}
        if len(chunk) < CHUNK_ROWS:
            return
        start += len(chunk)


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
    convert: Callable[[Sequence[str]], list], cells: Sequence[str]
) -> tuple[list, np.ndarray]:
    """`convert(cells)`, and which cells it accepts.

    If it rejects any cell, each cell is converted alone; a rejected
    cell gets None.
    """
    try:
        return convert(cells), np.ones(len(cells), dtype=bool)
    except ValueError:
        pass
    values: list = []
    ok = np.ones(len(cells), dtype=bool)
    for i, cell in enumerate(cells):
        try:
            values += convert([cell])
        except ValueError:
            values.append(None)
            ok[i] = False
    return values, ok


def _floats(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    values, ok = _bulk(lambda cs: list(map(float, cs)), cells)
    return np.array(values, dtype=np.float64), ok  # numpy reads a None as NaN


def _canonical_texts(kind: type, cells: Sequence[str]) -> list[str]:
    """Each cell's canonical text: '' if blank, else `repr(kind(cell))`.

    `kind` is called once per distinct cell.
    """
    texts = {cell: repr(kind(s)) if (s := cell.strip()) else "" for cell in set(cells)}
    return list(map(texts.__getitem__, cells))


def convert_gps(
    line_nos: Sequence[int],
    columns: dict[str, Sequence[str]],
    report: RejectionReport,
    naive_utc_offset_minutes: int = 0,
) -> FixTable:
    """The rows of one chunk of GPS columns that pass the checks; the others go to `report`."""
    blank = [""] * len(line_nos)
    times = columns["timestamp"]
    t_us, time_ok = bulk_timestamps_us(times, naive_utc_offset_minutes)
    time_reasons = {}
    for i in np.flatnonzero(~time_ok).tolist():
        try:
            t_us[i] = to_epoch_us(parse_timestamp(times[i], naive_utc_offset_minutes))
            time_ok[i] = True
        except ValueError as exc:
            time_reasons[i] = str(exc)
    lat, lat_ok = _floats(columns["lat"])
    lon, lon_ok = _floats(columns["lon"])
    accuracy, accuracy_ok = _floats(columns["accuracy"])
    users = [cell.strip() for cell in columns["user_id"]]
    elevation, elevation_ok = _bulk(
        lambda cells: _canonical_texts(float, cells), columns.get("elevation", blank)
    )
    satellites, satellites_ok = _bulk(
        lambda cells: _canonical_texts(int, cells), columns.get("satellites", blank)
    )
    negative = {text for text in set(satellites) if text and text[0] == "-"}
    with np.errstate(invalid="ignore"):
        ok = _passing(line_nos, [
            (~time_ok, time_reasons),
            (~(lat_ok & lon_ok & accuracy_ok), "non-numeric lat/lon/accuracy"),
            (~((lat >= -90.0) & (lat <= 90.0)), "lat out of range"),
            (~((lon >= -180.0) & (lon < 180.0)), "lon out of range"),
            (~(np.isfinite(accuracy) & (accuracy >= 0.0)), "accuracy negative or non-finite"),
            (~np.fromiter(map(bool, users), bool, len(users)), "empty user id"),
            (~(elevation_ok & satellites_ok), "non-numeric elevation/satellites"),
            (list(map(negative.__contains__, satellites)), "negative satellite count"),
        ], report)

    rows = np.flatnonzero(ok).tolist()
    providers = columns.get("provider", blank)
    return FixTable(
        user=TextColumn.of([users[i] for i in rows]),
        t_us=t_us[ok],
        lat=lat[ok],
        lon=lon[ok],
        accuracy=accuracy[ok],
        elevation=TextColumn.of([elevation[i] for i in rows]),
        satellites=TextColumn.of([satellites[i] for i in rows]),
        provider=TextColumn.of([providers[i].strip() for i in rows]),
    )


def convert_survey(
    line_nos: Sequence[int], columns: dict[str, Sequence[str]], report: RejectionReport
) -> list[SurveyRecord]:
    """The rows of one chunk of survey columns that pass the checks; the others go to `report`."""
    raters = [cell.strip() for cell in columns["rater_id"]]
    ratees = [cell.strip() for cell in columns["ratee_id"]]
    closeness, closeness_ok = _bulk(lambda cells: list(map(int, cells)), columns["closeness_raw"])
    proximity, proximity_ok = _bulk(lambda cells: list(map(int, cells)), columns["proximity_raw"])
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
    source: BinaryIO | TextIO,
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
    source: BinaryIO | TextIO,
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
