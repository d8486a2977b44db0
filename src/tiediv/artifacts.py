"""On-disk interchange between pipeline stages.

Every artifact is UTF-8 delimited text: '#'-prefixed key=value
provenance lines (config echo, input hashes), one header line, then
data rows. Writing the same records with the same config produces
byte-identical files, so re-runs are cheap to verify and artifacts can
be diffed.

The fix artifacts are written from and read back into column tables
(`FixTable` for `fixes.csv`, `CleanTable` for `clean_fixes.csv`). The
writers format CHUNK_ROWS rows at a time, a column at a time, and join
each chunk's rows into one string. Floats are their shortest round-trip
`repr`, times `isoformat()` UTC. Each distinct value of a chunk's
column (told apart by its bits, so -0.0 is not 0.0) is formatted once.
Only text columns can need csv quoting; each distinct value of a text
column is quoted once per artifact, by the csv module itself. The bytes
are those `csv.writer` would write.

Readers stream the file: the '#' lines before the header are the meta,
and `csv.reader` parses the rest as it is read, so a row ends only where
csv ends it. They parse every row and raise ValueError on a malformed
cell. `read_fixes` and `read_survey` hand their columns to the
converters ingest uses (`convert_gps`, `convert_survey`), so a staged
run reads a cell into the same value by the same checks as ingest did;
the error for a row those reject names the artifact, the row and the
reason.
"""

from __future__ import annotations

import csv
import hashlib
from contextlib import contextmanager
from datetime import date
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .encounter import Encounter, EncounterSet
from .ingest import (
    CHUNK_ROWS,
    US_PER_S,
    FixTable,
    RejectionReport,
    SurveyRecord,
    TextColumn,
    convert_gps,
    convert_survey,
    gc_paused,
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


@contextmanager
def _artifact(path: str | Path, meta: Mapping[str, str], columns: Sequence[str]) -> Iterator[TextIO]:
    """An artifact open for its data rows, its meta and header lines written."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for key, value in meta.items():
            handle.write(f"# {key}={value}\n")
        csv.writer(handle, lineterminator="\n").writerow(columns)
        yield handle


def write_table(
    path: str | Path,
    meta: Mapping[str, str],
    columns: Sequence[str],
    rows: Iterable[Sequence],
) -> None:
    with _artifact(path, meta, columns) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerows([fmt(cell) for cell in row] for row in rows)


def _write_columns(
    path: str | Path,
    meta: Mapping[str, str],
    columns: Sequence[str],
    n_rows: int,
    format_chunk: Callable[[slice], Sequence[list[str]]],
) -> None:
    """Write rows whose cells `format_chunk` gives, column-wise, CHUNK_ROWS rows at a time.

    The cells must already be csv cells, quoted where csv would quote them.
    """
    with _artifact(path, meta, columns) as handle:
        for start in range(0, n_rows, CHUNK_ROWS):
            cells = format_chunk(slice(start, start + CHUNK_ROWS))
            handle.write("\n".join(map(",".join, zip(*cells, strict=True))) + "\n")


def _csv_cells(texts: Sequence[str]) -> np.ndarray:
    """Each text as a csv cell, quoted exactly where the csv module quotes it."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    # a second cell, because csv quotes an empty cell that is alone in its row
    writer.writerows((text, "") for text in texts)
    return np.array([line[:-2] for line in lines], dtype=object)


def _text_cells(column: TextColumn) -> Callable[[slice], list[str]]:
    """The csv cells of a slice of the column; each distinct value is quoted once."""
    cells = _csv_cells(column.values)
    return lambda rows: cells[column.codes[rows]].tolist()


def _distinct_texts(values: np.ndarray, texts: Callable[[np.ndarray], list[str]]) -> list[str]:
    """`texts(values)`, formatting each distinct value only once.

    Values are told apart by their bit pattern, not by `==`, so 0.0 and
    -0.0 keep their own texts.
    """
    distinct, inverse = np.unique(values.view(f"i{values.itemsize}"), return_inverse=True)
    return np.array(texts(distinct.view(values.dtype)), dtype=object)[inverse].tolist()


@contextmanager
def _rows(path: str | Path) -> Iterator[tuple[dict[str, str], list[str], Iterator[list[str]]]]:
    """(meta, columns, rows) of an artifact; rows are parsed as they are read.

    The '#' meta lines come before the header. The rest of the file is
    csv, so rows end only where csv ends them.
    """
    meta: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        for line in handle:
            if not line.startswith("#"):
                break
            stripped = line.lstrip("#").strip()
            if "=" in stripped:
                key, _, value = stripped.partition("=")
                meta[key.strip()] = value.strip()
        else:
            raise ValueError(f"{path}: no header line")
        rows = csv.reader(chain([line], handle))
        yield meta, next(rows), rows


def read_table(path: str | Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Parse an artifact back into (meta, columns, rows)."""
    with _rows(path) as (meta, columns, rows), gc_paused():
        return meta, columns, list(rows)


def count_rows(path: str | Path) -> int:
    """Parse every row of an artifact as it is read; the row count."""
    with _rows(path) as (_, _, rows):
        return sum(1 for _ in rows)


def _column_chunks(path: str | Path, names: Sequence[str]) -> Iterator[dict[str, Sequence[str]]]:
    """The cells of the named columns of an artifact, CHUNK_ROWS rows at a time."""
    with _rows(path) as (_, columns, rows), gc_paused():
        at = [columns.index(name) for name in names]
        while chunk := list(islice(rows, CHUNK_ROWS)):
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


def _float_cells(values: np.ndarray) -> list[str]:
    return _distinct_texts(values, lambda floats: list(map(repr, floats.tolist())))


def _converted(path: str | Path, names: Sequence[str], convert: Callable) -> list:
    """`convert(row_nos, cells, report)` of each chunk of the named columns.

    Rows are numbered from 1 after the header. Raises ValueError naming
    the artifact, the row and the reason if `convert` rejects a row.
    """
    chunks, report, start = [], RejectionReport(), 1
    for cells in _column_chunks(path, names):
        n = len(cells[names[0]])
        chunks.append(convert(range(start, start + n), cells, report))
        if report.entries:
            row, reason = min(report.entries)
            raise ValueError(f"{path}: data row {row}: {reason}")
        start += n
    return chunks


# ---------------------------------------------------------------------------
# typed artifact round-trips
# ---------------------------------------------------------------------------

FIX_COLUMNS = ("user_id", "timestamp", "lat", "lon", "elevation", "accuracy", "satellites", "provider")


def write_fixes(path: str | Path, fixes: FixTable, meta: Mapping[str, str]) -> None:
    user, elevation, satellites, provider = (
        _text_cells(column)
        for column in (fixes.user, fixes.elevation, fixes.satellites, fixes.provider)
    )

    def columns(rows: slice) -> list[list[str]]:
        return [
            user(rows),
            iso_utc_texts(fixes.t_us[rows]),
            _float_cells(fixes.lat[rows]),
            _float_cells(fixes.lon[rows]),
            elevation(rows),
            _float_cells(fixes.accuracy[rows]),
            satellites(rows),
            provider(rows),
        ]

    _write_columns(path, meta, FIX_COLUMNS, len(fixes), columns)


def read_fixes(path: str | Path) -> FixTable:
    """The fixes of `fixes.csv`, checked and converted as ingest converts a GPS log."""
    return FixTable.concat(_converted(path, FIX_COLUMNS, convert_gps))


SURVEY_COLUMNS = ("rater_id", "ratee_id", "closeness_raw", "proximity_raw")


def write_survey(path: str | Path, records: Iterable[SurveyRecord], meta: Mapping[str, str]) -> None:
    rows = [(r.rater_id, r.ratee_id, r.closeness_raw, r.proximity_raw) for r in records]
    write_table(path, meta, SURVEY_COLUMNS, rows)


def read_survey(path: str | Path) -> list[SurveyRecord]:
    """The records of `survey.csv`, checked and converted as ingest converts a survey."""
    chunks = _converted(path, SURVEY_COLUMNS, convert_survey)
    return [record for chunk in chunks for record in chunk]


CLEAN_FIX_COLUMNS = ("user_id", "day", "slot", "lat", "lon")


def write_clean_fixes(path: str | Path, fixes: CleanTable, meta: Mapping[str, str]) -> None:
    user = _text_cells(fixes.user)

    def columns(rows: slice) -> list[list[str]]:
        return [
            user(rows),
            _distinct_texts(fixes.day[rows], _day_texts),
            _distinct_texts(fixes.slot[rows], lambda slots: list(map(str, slots.tolist()))),
            _float_cells(fixes.lat[rows]),
            _float_cells(fixes.lon[rows]),
        ]

    _write_columns(path, meta, CLEAN_FIX_COLUMNS, len(fixes), columns)


def _day_texts(days: np.ndarray) -> list[str]:
    return np.datetime_as_string(days.astype("datetime64[D]")).tolist()


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
                lat=np.array(cells["lat"], dtype=np.float64),
                lon=np.array(cells["lon"], dtype=np.float64),
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
