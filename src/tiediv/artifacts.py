"""On-disk interchange between pipeline stages.

Every artifact is UTF-8 delimited text: '#'-prefixed key=value
provenance lines (config echo, input hashes), one header line, then
data rows. Writing the same records with the same config produces
byte-identical files, so re-runs are cheap to verify and artifacts can
be diffed.

The fix artifacts are written from and read back into column tables
(`FixTable` for `fixes.csv`, `CleanTable` for `clean_fixes.csv`): each
column is formatted or parsed as a whole (floats as their shortest
round-trip `repr`, times as `isoformat()` UTC), and `csv` handles the
quoting. Readers parse every row and raise ValueError on a malformed
cell.
"""

from __future__ import annotations

import csv
import hashlib
from datetime import date
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .encounter import Encounter, EncounterSet
from .ingest import (
    CHUNK_ROWS,
    US_PER_S,
    FixTable,
    SurveyRecord,
    TextColumn,
    bulk_timestamps_us,
    elevation_texts,
    gc_paused,
    parse_timestamp,
    satellite_texts,
    to_epoch_us,
)
from .preprocess import CleanTable, ValidDaySet, epoch_day

_DAY_SEP = "|"


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fmt(value) -> str:
    """Canonical cell text: shortest round-trip floats, '' for absent."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


def _write_text_rows(
    path: str | Path, meta: Mapping[str, str], columns: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for key, value in meta.items():
            handle.write(f"# {key}={value}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_table(
    path: str | Path,
    meta: Mapping[str, str],
    columns: Sequence[str],
    rows: Iterable[Sequence],
) -> None:
    _write_text_rows(path, meta, columns, ([fmt(cell) for cell in row] for row in rows))


def _parse(path: str | Path) -> tuple[dict[str, str], list[str], Iterator[list[str]]]:
    """(meta, columns, rows) of an artifact; rows are parsed as they are read."""
    meta: dict[str, str] = {}
    data_lines: list[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            stripped = line.lstrip("#").strip()
            if "=" in stripped:
                key, _, value = stripped.partition("=")
                meta[key.strip()] = value.strip()
            continue
        data_lines.append(line)
    if not data_lines:
        raise ValueError(f"{path}: no header line")
    rows = csv.reader(data_lines)
    return meta, next(rows), rows


def read_table(path: str | Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Parse an artifact back into (meta, columns, rows)."""
    meta, columns, rows = _parse(path)
    with gc_paused():
        return meta, columns, list(rows)


def count_rows(path: str | Path) -> int:
    """Parse every row of an artifact, holding one chunk at a time; the row count."""
    _, _, rows = _parse(path)
    return sum(len(chunk) for chunk in _chunks(rows))


def _chunks(rows: Iterator[list[str]]) -> Iterator[list[list[str]]]:
    with gc_paused():
        while chunk := list(islice(rows, CHUNK_ROWS)):
            yield chunk


def _column_chunks(path: str | Path, names: Sequence[str]) -> Iterator[dict[str, Sequence[str]]]:
    """The cells of the named columns of an artifact, CHUNK_ROWS rows at a time."""
    _, columns, rows = _parse(path)
    at = [columns.index(name) for name in names]
    for chunk in _chunks(rows):
        transposed = list(zip(*chunk))
        yield {name: transposed[i] for name, i in zip(names, at)}


def iso_utc_texts(t_us: np.ndarray) -> list[str]:
    """`datetime.isoformat()` of each UTC instant, as `fixes.csv` stores it."""
    seconds = t_us // US_PER_S
    micros = (t_us - seconds * US_PER_S).tolist()
    whole = np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s").tolist()
    return [
        f"{s}+00:00" if not us else f"{s}.{us:06d}+00:00" for s, us in zip(whole, micros)
    ]


def _reprs(values: np.ndarray) -> list[str]:
    return list(map(repr, values.tolist()))


def _floats(cells: Sequence[str]) -> np.ndarray:
    return np.array(list(map(float, cells)), dtype=np.float64)


def _row_chunks(n_rows: int, format_chunk) -> Iterator[Sequence[str]]:
    """Rows of text, formatted column-wise CHUNK_ROWS rows at a time."""
    for start in range(0, n_rows, CHUNK_ROWS):
        yield from zip(*format_chunk(slice(start, start + CHUNK_ROWS)))


# ---------------------------------------------------------------------------
# typed artifact round-trips
# ---------------------------------------------------------------------------

FIX_COLUMNS = ("user_id", "timestamp", "lat", "lon", "elevation", "accuracy", "satellites", "provider")


def write_fixes(path: str | Path, fixes: FixTable, meta: Mapping[str, str]) -> None:
    def columns(rows: slice) -> list[list[str]]:
        return [
            fixes.user[rows].texts(),
            iso_utc_texts(fixes.t_us[rows]),
            _reprs(fixes.lat[rows]),
            _reprs(fixes.lon[rows]),
            fixes.elevation[rows].texts(),
            _reprs(fixes.accuracy[rows]),
            fixes.satellites[rows].texts(),
            fixes.provider[rows].texts(),
        ]

    _write_text_rows(path, meta, FIX_COLUMNS, _row_chunks(len(fixes), columns))


def read_fixes(path: str | Path) -> FixTable:
    chunks = []
    for cells in _column_chunks(path, FIX_COLUMNS):
        times = cells["timestamp"]
        t_us, ok = bulk_timestamps_us(times)
        for i in np.flatnonzero(~ok).tolist():
            t_us[i] = to_epoch_us(parse_timestamp(times[i]))
        chunks.append(
            FixTable(
                user=TextColumn.of(cells["user_id"]),
                t_us=t_us,
                lat=_floats(cells["lat"]),
                lon=_floats(cells["lon"]),
                accuracy=_floats(cells["accuracy"]),
                elevation=TextColumn.of(elevation_texts(cells["elevation"])),
                satellites=TextColumn.of(satellite_texts(cells["satellites"])),
                provider=TextColumn.of(cells["provider"]),
            )
        )
    return FixTable.concat(chunks)


SURVEY_COLUMNS = ("rater_id", "ratee_id", "closeness_raw", "proximity_raw")


def write_survey(path: str | Path, records: Iterable[SurveyRecord], meta: Mapping[str, str]) -> None:
    rows = [(r.rater_id, r.ratee_id, r.closeness_raw, r.proximity_raw) for r in records]
    write_table(path, meta, SURVEY_COLUMNS, rows)


def read_survey(path: str | Path) -> list[SurveyRecord]:
    _, columns, rows = read_table(path)
    idx = {name: columns.index(name) for name in SURVEY_COLUMNS}
    return [
        SurveyRecord(
            rater_id=row[idx["rater_id"]],
            ratee_id=row[idx["ratee_id"]],
            closeness_raw=int(row[idx["closeness_raw"]]),
            proximity_raw=int(row[idx["proximity_raw"]]),
        )
        for row in rows
    ]


CLEAN_FIX_COLUMNS = ("user_id", "day", "slot", "lat", "lon")


def write_clean_fixes(path: str | Path, fixes: CleanTable, meta: Mapping[str, str]) -> None:
    def columns(rows: slice) -> list[list[str]]:
        return [
            fixes.user[rows].texts(),
            np.datetime_as_string(fixes.day[rows].astype("datetime64[D]")).tolist(),
            list(map(str, fixes.slot[rows].tolist())),
            _reprs(fixes.lat[rows]),
            _reprs(fixes.lon[rows]),
        ]

    _write_text_rows(path, meta, CLEAN_FIX_COLUMNS, _row_chunks(len(fixes), columns))


def read_clean_fixes(path: str | Path) -> CleanTable:
    chunks = []
    days: dict[str, int] = {}
    for cells in _column_chunks(path, CLEAN_FIX_COLUMNS):
        for text in set(cells["day"]).difference(days):
            days[text] = epoch_day(date.fromisoformat(text))
        chunks.append(
            CleanTable(
                user=TextColumn.of(cells["user_id"]),
                day=np.array([days[text] for text in cells["day"]], dtype=np.int64),
                slot=np.array(list(map(int, cells["slot"])), dtype=np.int64),
                lat=_floats(cells["lat"]),
                lon=_floats(cells["lon"]),
            )
        )
    return CleanTable.concat(chunks)


VALID_DAY_COLUMNS = ("user_id", "day")


def write_valid_days(
    path: str | Path, valid_days: Mapping[str, ValidDaySet], meta: Mapping[str, str]
) -> None:
    rows = [
        (user, day)
        for user in sorted(valid_days)
        for day in valid_days[user].days
    ]
    write_table(path, meta, VALID_DAY_COLUMNS, rows)


def read_valid_days(path: str | Path) -> dict[str, ValidDaySet]:
    _, columns, rows = read_table(path)
    idx = {name: columns.index(name) for name in VALID_DAY_COLUMNS}
    days_by_user: dict[str, list[date]] = {}
    for row in rows:
        days_by_user.setdefault(row[idx["user_id"]], []).append(
            date.fromisoformat(row[idx["day"]])
        )
    return {
        user: ValidDaySet(user_id=user, days=tuple(sorted(days)))
        for user, days in days_by_user.items()
    }


PAIR_COLUMNS = ("user_lo", "user_hi", "n_common_days", "common_days")


def write_pairs(
    path: str | Path,
    encounter_sets: Mapping[tuple[str, str], EncounterSet],
    meta: Mapping[str, str],
) -> None:
    rows = []
    for pair in sorted(encounter_sets):
        es = encounter_sets[pair]
        rows.append(
            (
                es.user_lo,
                es.user_hi,
                es.n_common_days,
                _DAY_SEP.join(d.isoformat() for d in es.common_days),
            )
        )
    write_table(path, meta, PAIR_COLUMNS, rows)


ENCOUNTER_COLUMNS = ("user_lo", "user_hi", "day", "slot", "cell")


def write_encounters(
    path: str | Path,
    encounter_sets: Mapping[tuple[str, str], EncounterSet],
    meta: Mapping[str, str],
) -> None:
    rows = []
    for pair in sorted(encounter_sets):
        for enc in encounter_sets[pair].encounters:
            rows.append((enc.user_lo, enc.user_hi, enc.day, enc.slot, enc.cell))
    write_table(path, meta, ENCOUNTER_COLUMNS, rows)


def read_encounter_sets(
    encounters_path: str | Path, pairs_path: str | Path
) -> dict[tuple[str, str], EncounterSet]:
    """Rebuild per-pair encounter sets from the two interchange files."""
    _, pair_cols, pair_rows = read_table(pairs_path)
    pidx = {name: pair_cols.index(name) for name in PAIR_COLUMNS}
    common: dict[tuple[str, str], tuple[date, ...]] = {}
    for row in pair_rows:
        pair = (row[pidx["user_lo"]], row[pidx["user_hi"]])
        days_text = row[pidx["common_days"]]
        days = tuple(
            date.fromisoformat(part) for part in days_text.split(_DAY_SEP) if part
        )
        common[pair] = days

    _, enc_cols, enc_rows = read_table(encounters_path)
    eidx = {name: enc_cols.index(name) for name in ENCOUNTER_COLUMNS}
    by_pair: dict[tuple[str, str], list[Encounter]] = {pair: [] for pair in common}
    for row in enc_rows:
        pair = (row[eidx["user_lo"]], row[eidx["user_hi"]])
        if pair not in by_pair:
            raise ValueError(f"encounter for unknown pair {pair}")
        by_pair[pair].append(
            Encounter(
                user_lo=pair[0],
                user_hi=pair[1],
                day=date.fromisoformat(row[eidx["day"]]),
                slot=int(row[eidx["slot"]]),
                cell=row[eidx["cell"]],
            )
        )
    return {
        pair: EncounterSet(
            user_lo=pair[0],
            user_hi=pair[1],
            common_days=common[pair],
            encounters=tuple(by_pair[pair]),
        )
        for pair in sorted(common)
    }
