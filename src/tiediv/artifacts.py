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
column is quoted once per artifact, by the csv module itself, which
quotes a cell holding a delimiter, a quote or either line-break
character. `write_table` writes rows of any values the same way: each
distinct cell text of a chunk is quoted once.

Every writer checks what it formats, once per distinct text: each quoted
cell must parse back through csv to its text, and each float, day and
slot text must read back, as the reader reads it, to its value's bits;
otherwise it raises ValueError naming the artifact. It returns a
`Receipt`: the path and the number of line ends ("\n") it wrote, one
per meta line, header and data row plus each one inside a cell, counted
once per distinct cell text. `check_written` counts the file's line
ends against it.

Readers stream the file: the '#' lines before the header are the meta,
and `csv.reader` parses the rest as it is read, so a row ends only where
csv ends it. They parse every row and raise ValueError naming the
artifact, the data row and the reason on a malformed cell, a row of the
wrong width or a row csv cannot parse. `read_fixes` and `read_survey`
hand their columns to the converters ingest uses (`convert_gps`,
`convert_survey`), so a staged run reads a cell into the same value by
the same checks as ingest did. The other readers convert whole columns and look for the bad cell
only when a conversion fails.
"""

from __future__ import annotations

import csv
import hashlib
import io
from contextlib import contextmanager
from datetime import date
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


class Receipt(NamedTuple):
    """What a writer wrote to `path`: `lines` line ends ("\n"), cells' own included."""

    path: Path
    lines: int


@contextmanager
def _naming(path: str | Path) -> Iterator[None]:
    """Re-raise a ValueError, OverflowError or csv.Error as a ValueError that names the artifact."""
    try:
        yield
    except (ValueError, OverflowError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write(
    path: str | Path,
    meta: Mapping[str, str],
    columns: Sequence[str],
    chunks: Iterable[tuple[str, int]],
) -> Receipt:
    """Write the meta lines, the header and each chunk's data lines.

    A chunk is (its lines, the line ends they are meant to hold: one per
    row plus the "\n"s inside its cells).
    """
    head = "".join(f"# {key}={value}\n" for key, value in meta.items())
    head += ",".join(_csv_cells(columns)) + "\n"
    lines = head.count("\n")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(head)
        for text, line_ends in chunks:
            handle.write(text)
            lines += line_ends
    return Receipt(Path(path), lines)


def _join_rows(rows: Iterable[Sequence[str]]) -> str:
    """Rows of csv cells as lines of text."""
    return "\n".join(map(",".join, rows)) + "\n"


def write_table(
    path: str | Path,
    meta: Mapping[str, str],
    columns: Sequence[str],
    rows: Sequence[Sequence],
) -> Receipt:
    """Write rows of values as `fmt` texts.

    Each distinct text of a chunk is quoted, checked and searched for
    line ends once.
    """

    def chunks() -> Iterator[tuple[str, int]]:
        for start in range(0, len(rows), CHUNK_ROWS):
            texts = [[fmt(cell) for cell in row] for row in rows[start : start + CHUNK_ROWS]]
            distinct = list(dict.fromkeys(chain.from_iterable(texts)))
            cells = _checked_cells(distinct)
            quoted = {text: cell for text, cell in zip(distinct, cells.tolist()) if cell != text}
            if len(columns) == 1:
                quoted[""] = '""'  # csv quotes an empty cell that is alone in its row
            breaks = {text: n for text in distinct if (n := text.count("\n"))}
            line_ends = len(texts)
            if breaks:
                line_ends += sum(breaks.get(text, 0) for row in texts for text in row)
            if quoted:
                texts = [[quoted.get(text, text) for text in row] for row in texts]
            yield _join_rows(texts), line_ends

    with _naming(path):
        return _write(path, meta, columns, chunks())


def _write_columns(
    path: str | Path,
    meta: Mapping[str, str],
    columns: Sequence[str],
    n_rows: int,
    format_chunk: Callable[[slice], Sequence[list[str]]],
    cell_line_ends: Callable[[slice], int],
) -> Receipt:
    """Write rows whose cells `format_chunk` gives, column-wise, CHUNK_ROWS rows at a time.

    The cells must already be checked csv cells; `cell_line_ends` counts
    the "\n"s inside the cells of a slice of rows.
    """

    def chunks() -> Iterator[tuple[str, int]]:
        for start in range(0, n_rows, CHUNK_ROWS):
            rows = slice(start, min(start + CHUNK_ROWS, n_rows))
            text = _join_rows(zip(*format_chunk(rows), strict=True))
            yield text, rows.stop - rows.start + cell_line_ends(rows)

    return _write(path, meta, columns, chunks())


def _csv_cells(texts: Sequence[str]) -> np.ndarray:
    """Each text as a csv cell, quoted exactly where the csv module quotes it.

    The csv writer is told that rows end in "\r\n", so it quotes a text
    holding either line-break character: the reader ends a row at both.
    """
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    # a second cell, because csv quotes an empty cell that is alone in its row
    writer.writerows((text, "") for text in texts)
    return np.array([line[:-3] for line in lines], dtype=object)


def _checked_cells(texts: Sequence[str]) -> np.ndarray:
    """`_csv_cells(texts)`, each checked.

    Each cell, followed by a delimiter, must parse back through csv to
    its text, or ValueError (or csv.Error, if csv cannot parse them).
    """
    cells = _csv_cells(texts)
    source = io.StringIO("".join(f"{cell},\n" for cell in cells.tolist()), newline="")
    back = list(csv.reader(source))
    if back != [[text, ""] for text in texts]:
        i = next(
            (i for i, text in enumerate(texts) if i >= len(back) or back[i] != [text, ""]),
            len(texts) - 1,
        )
        raise ValueError(f"csv cell {cells[i]!r} does not parse back to {texts[i]!r}")
    return cells


def _text_cells(
    *columns: TextColumn,
) -> tuple[list[Callable[[slice], list[str]]], Callable[[slice], int]]:
    """For each column, the csv cells of a slice of it; and the "\n"s inside a slice's cells.

    Each distinct value is quoted, checked and searched for line ends once.
    """
    cells, line_ends = [], []
    for column in columns:
        quoted = _checked_cells(column.values)
        cells.append(lambda rows, quoted=quoted, codes=column.codes: quoted[codes[rows]].tolist())
        breaks = np.array([value.count("\n") for value in column.values], dtype=np.int64)
        if breaks.any():
            line_ends.append(breaks[column.codes])
    return cells, lambda rows: sum(int(counts[rows].sum()) for counts in line_ends)


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(f"i{values.itemsize}")


def _distinct_texts(
    values: np.ndarray,
    texts: Callable[[np.ndarray], list[str]],
    parse: Callable[[list[str]], Sequence],
) -> list[str]:
    """`texts(values)`, formatting each distinct value only once.

    Values are told apart by their bit pattern, not by `==`, so 0.0 and
    -0.0 keep their own texts. `parse` reads texts back as the reader
    does; each distinct text must give its value's bits back, or
    ValueError.
    """
    bits, inverse = np.unique(_bits(values), return_inverse=True)
    distinct = bits.view(values.dtype)
    formatted = texts(distinct)
    wrong = _bits(np.asarray(parse(formatted), dtype=values.dtype)) != bits
    if wrong.any():
        i = int(np.flatnonzero(wrong)[0])
        raise ValueError(f"{formatted[i]!r} does not read back as {distinct[i].item()!r}")
    return np.array(formatted, dtype=object)[inverse].tolist()


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
        with _naming(path):
            columns = next(rows)
        yield meta, columns, rows


def _parsed(path: str | Path, rows: Iterable[list[str]], first: int) -> list[list[str]]:
    """`list(rows)`, where `first` is the data row number of the first.

    Raises ValueError naming the artifact and the data row if csv cannot
    parse a row.
    """
    parsed: list[list[str]] = []
    try:
        parsed.extend(rows)
    except csv.Error as exc:
        raise ValueError(f"{path}: data row {first + len(parsed)}: {exc}") from None
    return parsed


def read_table(path: str | Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Parse an artifact back into (meta, columns, rows)."""
    with _rows(path) as (meta, columns, rows), gc_paused():
        return meta, columns, _parsed(path, rows, 1)


def check_written(receipt: Receipt) -> None:
    """Raise ValueError unless the file holds the line ends its writer wrote, and ends with one."""
    path = receipt.path
    line_ends, last = 0, b""
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            line_ends += block.count(b"\n")
            last = block[-1:]
    if last != b"\n":
        raise ValueError(f"{path}: does not end with a line end")
    if line_ends != receipt.lines:
        raise ValueError(f"{path}: holds {line_ends} lines, but {receipt.lines} were written")


def _column_chunks(
    path: str | Path, names: Sequence[str]
) -> Iterator[tuple[int, dict[str, Sequence[str]]]]:
    """(first row, cells of the named columns) of an artifact, CHUNK_ROWS rows at a time.

    Rows are numbered from 1 after the header. There is at least one
    chunk, which may hold no rows. Raises ValueError naming the artifact
    and row if a row has more or fewer cells than the header, or if csv
    cannot parse it.
    """
    with _rows(path) as (_, columns, rows), gc_paused():
        at = [columns.index(name) for name in names]
        first = 1
        while True:
            # parsed while the last chunk is still held: rows parsed into its
            # just-freed memory measured ~15% slower to convert
            chunk = _parsed(path, islice(rows, CHUNK_ROWS), first)
            try:
                transposed = list(zip(*chunk, strict=True)) if chunk else [()] * len(columns)
            except ValueError:
                transposed = []
            if len(transposed) != len(columns):
                i = next(i for i, row in enumerate(chunk) if len(row) != len(columns))
                raise ValueError(
                    f"{path}: data row {first + i}: {len(chunk[i])} cells, {len(columns)} columns"
                )
            yield first, {name: transposed[i] for name, i in zip(names, at)}
            if len(chunk) < CHUNK_ROWS:
                return
            first += len(chunk)


@contextmanager
def _cells_named(
    path: str | Path,
    first: int,
    cells: Mapping[str, Sequence[str]],
    parsers: Mapping[str, Callable[[str], object]],
) -> Iterator[None]:
    """On a ValueError in the block, find the first cell its column's parser rejects.

    Raises ValueError naming the artifact, the row and the column. Only
    the failure path looks at single cells.
    """
    try:
        yield
    except ValueError:
        for i, row in enumerate(zip(*(cells[name] for name in parsers))):
            for name, parse, cell in zip(parsers, parsers.values(), row):
                try:
                    parse(cell)
                except ValueError as exc:
                    raise ValueError(f"{path}: data row {first + i}: {name}: {exc}") from None
        raise


def iso_utc_texts(t_us: np.ndarray) -> list[str]:
    """`datetime.isoformat()` of each UTC instant, as `fixes.csv` stores it."""
    seconds = t_us // US_PER_S
    micros = (t_us - seconds * US_PER_S).tolist()
    whole = np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s").tolist()
    return [
        f"{s}+00:00" if not us else f"{s}.{us:06d}+00:00" for s, us in zip(whole, micros)
    ]


def _float_texts(floats: np.ndarray) -> list[str]:
    return list(map(repr, floats.tolist()))


def _float_cells(values: np.ndarray) -> list[str]:
    return _distinct_texts(values, _float_texts, lambda texts: list(map(float, texts)))


def _converted(path: str | Path, names: Sequence[str], convert: Callable) -> list:
    """`convert(row_nos, cells, report)` of each chunk of the named columns.

    Raises ValueError naming the artifact, the row and the reason if
    `convert` rejects a row.
    """
    chunks, report = [], RejectionReport()
    for first, cells in _column_chunks(path, names):
        chunks.append(convert(range(first, first + len(cells[names[0]])), cells, report))
        if report.entries:
            row, reason = min(report.entries)
            raise ValueError(f"{path}: data row {row}: {reason}")
    return chunks


# ---------------------------------------------------------------------------
# typed artifact round-trips
# ---------------------------------------------------------------------------

FIX_COLUMNS = ("user_id", "timestamp", "lat", "lon", "elevation", "accuracy", "satellites", "provider")


def write_fixes(path: str | Path, fixes: FixTable, meta: Mapping[str, str]) -> Receipt:
    with _naming(path):
        (user, elevation, satellites, provider), line_ends = _text_cells(
            fixes.user, fixes.elevation, fixes.satellites, fixes.provider
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

        return _write_columns(path, meta, FIX_COLUMNS, len(fixes), columns, line_ends)


def read_fixes(path: str | Path) -> FixTable:
    """The fixes of `fixes.csv`, checked and converted as ingest converts a GPS log."""
    return FixTable.concat(_converted(path, FIX_COLUMNS, convert_gps))


SURVEY_COLUMNS = ("rater_id", "ratee_id", "closeness_raw", "proximity_raw")


def write_survey(
    path: str | Path, records: Iterable[SurveyRecord], meta: Mapping[str, str]
) -> Receipt:
    rows = [(r.rater_id, r.ratee_id, r.closeness_raw, r.proximity_raw) for r in records]
    return write_table(path, meta, SURVEY_COLUMNS, rows)


def read_survey(path: str | Path) -> list[SurveyRecord]:
    """The records of `survey.csv`, checked and converted as ingest converts a survey."""
    chunks = _converted(path, SURVEY_COLUMNS, convert_survey)
    return [record for chunk in chunks for record in chunk]


CLEAN_FIX_COLUMNS = ("user_id", "day", "slot", "lat", "lon")


def write_clean_fixes(path: str | Path, fixes: CleanTable, meta: Mapping[str, str]) -> Receipt:
    with _naming(path):
        (user,), line_ends = _text_cells(fixes.user)

        def columns(rows: slice) -> list[list[str]]:
            return [
                user(rows),
                _distinct_texts(fixes.day[rows], _day_texts, lambda days: list(map(_epoch_day, days))),
                _distinct_texts(fixes.slot[rows], _int_texts, lambda texts: list(map(int, texts))),
                _float_cells(fixes.lat[rows]),
                _float_cells(fixes.lon[rows]),
            ]

        return _write_columns(path, meta, CLEAN_FIX_COLUMNS, len(fixes), columns, line_ends)


def _day_texts(days: np.ndarray) -> list[str]:
    return np.datetime_as_string(days.astype("datetime64[D]")).tolist()


def _int_texts(values: np.ndarray) -> list[str]:
    return list(map(str, values.tolist()))


def _epoch_day(text: str) -> int:
    return epoch_day(date.fromisoformat(text))


def read_clean_fixes(path: str | Path) -> CleanTable:
    chunks = []
    days: dict[str, int] = {}
    parsers = {"day": _epoch_day, "slot": int, "lat": float, "lon": float}
    for first, cells in _column_chunks(path, CLEAN_FIX_COLUMNS):
        with _cells_named(path, first, cells, parsers):
            for text in set(cells["day"]).difference(days):
                days[text] = _epoch_day(text)
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
) -> Receipt:
    rows = [
        (user, day)
        for user in sorted(valid_days)
        for day in valid_days[user].days
    ]
    return write_table(path, meta, VALID_DAY_COLUMNS, rows)


def read_valid_days(path: str | Path) -> dict[str, ValidDaySet]:
    days_by_user: dict[str, list[date]] = {}
    for first, cells in _column_chunks(path, VALID_DAY_COLUMNS):
        with _cells_named(path, first, cells, {"day": date.fromisoformat}):
            days = list(map(date.fromisoformat, cells["day"]))
        for user, day in zip(cells["user_id"], days):
            days_by_user.setdefault(user, []).append(day)
    return {
        user: ValidDaySet(user_id=user, days=tuple(sorted(days)))
        for user, days in days_by_user.items()
    }


PAIR_COLUMNS = ("user_lo", "user_hi", "n_common_days", "common_days")


def write_pairs(
    path: str | Path,
    encounter_sets: Mapping[tuple[str, str], EncounterSet],
    meta: Mapping[str, str],
) -> Receipt:
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
    return write_table(path, meta, PAIR_COLUMNS, rows)


ENCOUNTER_COLUMNS = ("user_lo", "user_hi", "day", "slot", "cell")


def write_encounters(
    path: str | Path,
    encounter_sets: Mapping[tuple[str, str], EncounterSet],
    meta: Mapping[str, str],
) -> Receipt:
    rows = []
    for pair in sorted(encounter_sets):
        for enc in encounter_sets[pair].encounters:
            rows.append((enc.user_lo, enc.user_hi, enc.day, enc.slot, enc.cell))
    return write_table(path, meta, ENCOUNTER_COLUMNS, rows)


def _common_days(text: str) -> tuple[date, ...]:
    return tuple(date.fromisoformat(part) for part in text.split(_DAY_SEP) if part)


def read_encounter_sets(
    encounters_path: str | Path, pairs_path: str | Path
) -> dict[tuple[str, str], EncounterSet]:
    """Rebuild per-pair encounter sets from the two interchange files."""
    common: dict[tuple[str, str], tuple[date, ...]] = {}
    for first, cells in _column_chunks(pairs_path, PAIR_COLUMNS):
        with _cells_named(pairs_path, first, cells, {"common_days": _common_days}):
            days = list(map(_common_days, cells["common_days"]))
        common.update(zip(zip(cells["user_lo"], cells["user_hi"]), days))

    by_pair: dict[tuple[str, str], list[Encounter]] = {pair: [] for pair in common}
    parsers = {"day": date.fromisoformat, "slot": int}
    for first, cells in _column_chunks(encounters_path, ENCOUNTER_COLUMNS):
        with _cells_named(encounters_path, first, cells, parsers):
            days = list(map(date.fromisoformat, cells["day"]))
            slots = list(map(int, cells["slot"]))
        rows = zip(cells["user_lo"], cells["user_hi"], days, slots, cells["cell"])
        for row_no, (lo, hi, day, slot, cell) in enumerate(rows, first):
            if (lo, hi) not in by_pair:
                raise ValueError(
                    f"{encounters_path}: data row {row_no}: encounter for unknown pair {(lo, hi)}"
                )
            by_pair[lo, hi].append(Encounter(user_lo=lo, user_hi=hi, day=day, slot=slot, cell=cell))
    return {
        pair: EncounterSet(
            user_lo=pair[0],
            user_hi=pair[1],
            common_days=common[pair],
            encounters=tuple(by_pair[pair]),
        )
        for pair in sorted(common)
    }
