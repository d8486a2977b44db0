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
Columns are converted with Python's own `float` and `int`. Timestamps in
the common shapes (integer epoch seconds, `YYYY-MM-DDTHH:MM:SS` with an
optional 3- or 6-digit fraction and a `Z` or `+hh:mm` zone) are parsed
in bulk. Every row the bulk checks do not accept goes through the
per-row converter `_gps_record`, which either accepts it or rejects it
with the same reason, from the same first failing check, as a row-by-row
parse would. The table iterates as `RawFix` rows.
"""

from __future__ import annotations

import csv
import gc
import io
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import islice
from math import isfinite
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

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

_T = TypeVar("_T")

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

    def __getitem__(self, rows) -> "TextColumn":
        return TextColumn(self.codes[rows], self.values)

    def __len__(self) -> int:
        return len(self.codes)

    def texts(self) -> list[str]:
        values = self.values
        return [values[code] for code in self.codes.tolist()]


class ColumnTable:
    """Sequence behaviour shared by the column tables.

    A table is a frozen dataclass whose fields are equal-length columns
    (numpy arrays or `TextColumn`s). It iterates, indexes and compares
    as the list of its row objects, which `row` builds on demand.
    """

    def row(self, i: int):
        raise NotImplementedError

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, i: int):
        return self.row(range(len(self))[i])

    def __iter__(self) -> Iterator:
        return map(self.row, range(len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (ColumnTable, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def concat(cls, tables: Sequence["ColumnTable"]):
        """The tables' rows one after another, in one table."""
        if not tables:
            return cls.from_rows([])
        columns = {}
        for f in fields(cls):
            parts = [getattr(table, f.name) for table in tables]
            text = isinstance(parts[0], TextColumn)
            columns[f.name] = TextColumn.concat(parts) if text else np.concatenate(parts)
        return cls(**columns)


@dataclass(frozen=True, eq=False)
class FixTable(ColumnTable):
    """GPS fixes as columns; row i of every column is one fix."""

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

    @classmethod
    def from_rows(cls, fixes: Iterable[RawFix]) -> "FixTable":
        fixes = list(fixes)
        return cls(
            user=TextColumn.of([f.user_id for f in fixes]),
            t_us=np.array([to_epoch_us(f.timestamp) for f in fixes], dtype=np.int64),
            lat=np.array([f.lat for f in fixes], dtype=np.float64),
            lon=np.array([f.lon for f in fixes], dtype=np.float64),
            accuracy=np.array([f.accuracy for f in fixes], dtype=np.float64),
            elevation=TextColumn.of([_optional_text(f.elevation, float) for f in fixes]),
            satellites=TextColumn.of([_optional_text(f.satellites, int) for f in fixes]),
            provider=TextColumn.of([f.provider or "" for f in fixes]),
        )


def _optional_text(value, kind: type) -> str:
    return "" if value is None else repr(kind(value))


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
        return datetime.fromtimestamp(epoch, tz=timezone.utc)
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"unparseable timestamp: {raw!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone(timedelta(minutes=naive_utc_offset_minutes)))
    return dt.astimezone(timezone.utc)


# --- bulk timestamp parsing --------------------------------------------------

# epoch seconds of at most this many ASCII digits are parsed in bulk
_EPOCH_DIGITS = 11
# (fraction digits, zone) of the ISO shapes parsed in bulk; zone 'Z' means
# a 'Z' or 'z' suffix, '+' a '+hh:mm' or '-hh:mm' offset
_ISO_SHAPES = tuple((frac, zone) for frac in (0, 3, 6) for zone in ("Z", "+"))
_DATE_TIME_DIGITS = (0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18)
_DATE_TIME_SEPARATORS = ((4, "-"), (7, "-"), (10, "T"), (13, ":"), (16, ":"))
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _days_from_civil(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Days since 1970-01-01 of proleptic Gregorian dates (H. Hinnant's algorithm)."""
    year = year - (month <= 2)
    era = year // 400
    year_of_era = year - era * 400
    day_of_year = (153 * np.where(month > 2, month - 3, month + 9) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return era * 146097 + day_of_era - 719468


def _iso_us(chars: np.ndarray, frac: int, zone: str) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds and validity of rows of one fixed ISO shape.

    `chars` holds one timestamp per row as Unicode code points. A row is
    valid only if it is a real date and time whose UTC instant lies well
    inside `datetime`'s range; others are left to `parse_timestamp`.
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

    sign = chars[:, zone_at]
    if zone == "Z":
        ok &= (sign == ord("Z")) | (sign == ord("z"))
        offset_s = 0
    else:
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


def bulk_timestamps_us(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds of the cells in a bulk-parsed shape, and which those are.

    Where the mask is True the value equals `parse_timestamp(cell)`;
    every other cell is left for `parse_timestamp` to accept or reject.
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

    for frac, zone in _ISO_SHAPES:
        width = 19 + (frac + 1 if frac else 0) + (1 if zone == "Z" else 6)
        rows = np.flatnonzero(lengths == width)
        if not rows.size:
            continue
        text = np.array([cells[i] for i in rows.tolist()], dtype=f"U{width}")
        chars = text.view(np.uint32).reshape(len(rows), width)
        t_us[rows], ok[rows] = _iso_us(chars, frac, zone)
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


def _text_lines(source: BinaryIO | TextIO | Iterable[str]) -> Iterable[str]:
    """The source's lines; a file's are split lazily from one decoded string."""
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        # spreadsheet exports often start with a UTF-8 byte-order mark
        return _split_lines(data.removeprefix("\ufeff"))
    lines = list(source)
    if lines:
        lines[0] = lines[0].removeprefix("\ufeff")
    return lines


def _is_comment(cells: list[str]) -> bool:
    return bool(cells) and cells[0].lstrip().startswith("#")


def _is_blank(cells: list[str]) -> bool:
    return not cells or all(not c.strip() for c in cells)


def _find_header(rows: Iterator[list[str]]) -> tuple[int, list[str]]:
    """Index and cells of the first non-blank, non-comment row; raises if none."""
    for i, cells in enumerate(rows):
        if not (_is_blank(cells) or _is_comment(cells)):
            return i, cells
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


def _read_table(
    source: BinaryIO | TextIO | Iterable[str],
    delimiter: str,
    aliases: dict[str, tuple[str, ...]],
    required: tuple[str, ...],
    report: RejectionReport,
) -> Iterator[tuple[list[int], dict[str, Sequence[str]]]]:
    """The well-formed data rows of one delimited table, in chunks of columns.

    The first non-blank, non-comment line is the header. Each chunk
    holds up to CHUNK_ROWS kept rows: their line numbers and the cells
    of every resolved column (by canonical name). Blank and comment
    lines are skipped; duplicate-header and short rows go to `report`.
    """
    rows = csv.reader(_text_lines(source), delimiter=delimiter)
    header_idx, header = _find_header(rows)
    positions = _resolve_header(header, aliases, required)
    header_lowered = [c.strip().lower() for c in header]
    width, first = len(header), header_lowered[0]

    start = header_idx + 2  # line number of the chunk's first row
    while chunk := list(islice(rows, CHUNK_ROWS)):
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
        if kept:
            transposed = list(zip(*(chunk[i] for i in kept)))
            yield [start + i for i in kept], {name: transposed[i] for name, i in positions.items()}
        start += len(chunk)


def _convert(
    line_nos: list[int],
    columns: dict[str, Sequence[str]],
    rows: Iterable[int],
    convert: Callable[[dict[str, str]], _T],
    report: RejectionReport,
) -> Iterator[tuple[int, _T]]:
    """(row, record) for each row `convert` accepts.

    Each row goes to `convert` as a canonical-name -> cell mapping; a
    ValueError rejects the row with the exception text as its reason.
    """
    for i in rows:
        try:
            yield i, convert({name: cells[i] for name, cells in columns.items()})
        except ValueError as exc:
            report.reject(line_nos[i], str(exc))


# --- per-row converters ------------------------------------------------------


def _optional_float(cell: str) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    return float(cell)


def _optional_int(cell: str) -> int | None:
    cell = cell.strip()
    if not cell:
        return None
    return int(cell)


def _gps_record(row: dict[str, str], naive_utc_offset_minutes: int) -> RawFix:
    ts = parse_timestamp(row["timestamp"], naive_utc_offset_minutes)
    try:
        lat, lon, accuracy = float(row["lat"]), float(row["lon"]), float(row["accuracy"])
    except ValueError:
        raise ValueError("non-numeric lat/lon/accuracy") from None
    if not -90.0 <= lat <= 90.0:
        raise ValueError("lat out of range")
    if not -180.0 <= lon < 180.0:
        raise ValueError("lon out of range")
    if not isfinite(accuracy) or accuracy < 0.0:
        raise ValueError("accuracy negative or non-finite")
    user_id = row["user_id"].strip()
    if not user_id:
        raise ValueError("empty user id")
    try:
        elevation = _optional_float(row.get("elevation", ""))
        satellites = _optional_int(row.get("satellites", ""))
    except ValueError:
        raise ValueError("non-numeric elevation/satellites") from None
    if satellites is not None and satellites < 0:
        raise ValueError("negative satellite count")
    return RawFix(
        user_id=user_id,
        timestamp=ts,
        lat=lat,
        lon=lon,
        accuracy=accuracy,
        elevation=elevation,
        satellites=satellites,
        provider=row.get("provider", "").strip() or None,
    )


def _survey_record(row: dict[str, str]) -> SurveyRecord:
    rater = row["rater_id"].strip()
    ratee = row["ratee_id"].strip()
    if not rater or not ratee:
        raise ValueError("empty rater/ratee id")
    if rater == ratee:
        raise ValueError("self-rating")
    try:
        closeness = int(row["closeness_raw"].strip())
        proximity = int(row["proximity_raw"].strip())
    except ValueError:
        raise ValueError("non-integer closeness/proximity") from None
    if closeness not in range(6):
        raise ValueError("closeness out of range")
    if proximity not in range(1, 6):
        raise ValueError("proximity out of range")
    return SurveyRecord(
        rater_id=rater, ratee_id=ratee, closeness_raw=closeness, proximity_raw=proximity
    )


# --- bulk column converters --------------------------------------------------


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
    if not ok.all():
        values = [np.nan if v is None else v for v in values]
    return np.array(values, dtype=np.float64), ok


# canonical text of optional cells: what _optional_text gives for the value
# that _optional_float (or _optional_int) reads from the cell
def elevation_texts(cells: Sequence[str]) -> list[str]:
    return [repr(float(s)) if (s := c.strip()) else "" for c in cells]


def satellite_texts(cells: Sequence[str]) -> list[str]:
    return [str(int(s)) if (s := c.strip()) else "" for c in cells]


def _gps_chunk(
    line_nos: list[int],
    columns: dict[str, Sequence[str]],
    naive_utc_offset_minutes: int,
    report: RejectionReport,
) -> FixTable:
    """The accepted rows of one chunk; the others go to `report`."""
    n = len(line_nos)
    blank = [""] * n
    t_us, ok = bulk_timestamps_us(columns["timestamp"])
    lat, lat_ok = _floats(columns["lat"])
    lon, lon_ok = _floats(columns["lon"])
    accuracy, accuracy_ok = _floats(columns["accuracy"])
    ok &= lat_ok & lon_ok & accuracy_ok
    with np.errstate(invalid="ignore"):
        ok &= (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon < 180.0)
        ok &= np.isfinite(accuracy) & (accuracy >= 0.0)
    users = [cell.strip() for cell in columns["user_id"]]
    ok &= np.fromiter(map(bool, users), bool, n)
    elevation, elevation_ok = _bulk(elevation_texts, columns.get("elevation", blank))
    satellites, satellites_ok = _bulk(satellite_texts, columns.get("satellites", blank))
    ok &= elevation_ok & satellites_ok
    ok &= np.fromiter((s is None or not s.startswith("-") for s in satellites), bool, n)
    providers = [cell.strip() for cell in columns.get("provider", blank)]

    # every row the bulk checks did not accept is parsed one by one
    recheck = np.flatnonzero(~ok).tolist()
    convert = partial(_gps_record, naive_utc_offset_minutes=naive_utc_offset_minutes)
    for i, fix in _convert(line_nos, columns, recheck, convert, report):
        ok[i] = True
        t_us[i] = to_epoch_us(fix.timestamp)
        lat[i], lon[i], accuracy[i] = fix.lat, fix.lon, fix.accuracy
        elevation[i] = _optional_text(fix.elevation, float)
        satellites[i] = _optional_text(fix.satellites, int)
        providers[i] = fix.provider or ""

    kept = np.flatnonzero(ok)
    rows = kept.tolist()
    return FixTable(
        user=TextColumn.of([users[i] for i in rows]),
        t_us=t_us[kept],
        lat=lat[kept],
        lon=lon[kept],
        accuracy=accuracy[kept],
        elevation=TextColumn.of([elevation[i] for i in rows]),
        satellites=TextColumn.of([satellites[i] for i in rows]),
        provider=TextColumn.of([providers[i] for i in rows]),
    )


def parse_gps_log(
    source: BinaryIO | TextIO | Iterable[str],
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
            _gps_chunk(line_nos, columns, opts.naive_utc_offset_minutes, report)
            for line_nos, columns in _read_table(
                source, opts.delimiter, _GPS_ALIASES, _GPS_REQUIRED, report
            )
        ]
    report.entries.sort()
    table = FixTable.concat(chunks)
    report.n_accepted = len(table)
    return table, report


def parse_survey(
    source: BinaryIO | TextIO | Iterable[str],
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
        converted = _convert(line_nos, columns, range(len(line_nos)), _survey_record, report)
        records += [record for _, record in converted]
    report.entries.sort()
    report.n_accepted = len(records)
    return records, report
