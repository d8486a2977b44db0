"""Parsing of raw GPS log files and the ground-truth closeness survey.

Both inputs are delimited text with a header line. Column names are
matched case-insensitively and through a small alias table, because
field order and exact naming vary between log exports. Malformed rows
are never dropped silently: every parse returns the accepted records
plus a rejection report listing line number and reason for each bad
row. Both readers share one table reader and differ only in their
column aliases and per-row converter. A leading UTF-8 byte-order mark
is ignored.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from math import isfinite
from typing import BinaryIO, Callable, Iterable, TextIO, TypeVar

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


def _as_text_lines(source: BinaryIO | TextIO | Iterable[str]) -> list[str]:
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        lines = io.StringIO(data).readlines()
    else:
        lines = list(source)
    if lines:  # spreadsheet exports often start with a UTF-8 byte-order mark
        lines[0] = lines[0].removeprefix("\ufeff")
    return lines


def _is_comment(cells: list[str]) -> bool:
    return bool(cells) and cells[0].lstrip().startswith("#")


def _is_blank(cells: list[str]) -> bool:
    return not cells or all(not c.strip() for c in cells)


def _find_header(rows: list[list[str]]) -> int:
    """Index of the first non-blank, non-comment row; raises if none."""
    for i, cells in enumerate(rows):
        if _is_blank(cells) or _is_comment(cells):
            continue
        return i
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


def _read_table(
    source: BinaryIO | TextIO | Iterable[str],
    delimiter: str,
    aliases: dict[str, tuple[str, ...]],
    required: tuple[str, ...],
    convert: Callable[[dict[str, str]], _T],
) -> tuple[list[_T], RejectionReport]:
    """Records from one delimited table plus a rejection report.

    The first non-blank, non-comment line is the header. Each data row
    goes to `convert` as a canonical-name -> cell mapping; a ValueError
    rejects the row with the exception text as its reason.
    """
    rows = list(csv.reader(_as_text_lines(source), delimiter=delimiter))
    header_idx = _find_header(rows)
    header = rows[header_idx]
    positions = _resolve_header(header, aliases, required)
    header_lowered = [c.strip().lower() for c in header]

    records: list[_T] = []
    report = RejectionReport()
    for line_no, cells in enumerate(rows[header_idx + 1 :], start=header_idx + 2):
        if _is_blank(cells) or _is_comment(cells):
            continue
        if [c.strip().lower() for c in cells] == header_lowered:
            report.reject(line_no, "duplicate header row")
            continue
        if len(cells) < len(header):
            report.reject(line_no, f"expected {len(header)} fields, got {len(cells)}")
            continue
        try:
            records.append(convert({name: cells[i] for name, i in positions.items()}))
        except ValueError as exc:
            report.reject(line_no, str(exc))
    report.n_accepted = len(records)
    return records, report


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


def parse_gps_log(
    source: BinaryIO | TextIO | Iterable[str],
    options: IngestOptions | None = None,
) -> tuple[list[RawFix], RejectionReport]:
    """Parse a delimited GPS log into RawFix records plus a rejection report.

    The first line must be a header naming at least the user, timestamp,
    lat, lon and accuracy columns (any alias, any case). Repeated header
    lines further down the file count as rejected rows, not as errors.
    """
    opts = options or IngestOptions()
    offset = opts.naive_utc_offset_minutes
    return _read_table(
        source, opts.delimiter, _GPS_ALIASES, _GPS_REQUIRED, lambda row: _gps_record(row, offset)
    )


def parse_survey(
    source: BinaryIO | TextIO | Iterable[str],
    options: IngestOptions | None = None,
) -> tuple[list[SurveyRecord], RejectionReport]:
    """Parse the closeness survey into SurveyRecord rows.

    Self-ratings and out-of-range scores are rejected row by row.
    """
    opts = options or IngestOptions()
    return _read_table(source, opts.delimiter, _SURVEY_ALIASES, _SURVEY_REQUIRED, _survey_record)
