"""On-disk interchange between pipeline stages.

Every artifact is UTF-8 delimited text: '#'-prefixed key=value
provenance lines (config echo, input hashes), one header line, then
data rows. Writing the same records with the same config produces
byte-identical files, so re-runs are cheap to verify and artifacts can
be diffed.

One column writer writes every artifact, CHUNK_ROWS rows at a time. A
chunk comes as columns of cells that already end in their separator
("," or, in the last column, "\n"), and one `"".join` of the columns,
interleaved, is its text. The fix artifacts are written from and read
back into column tables (`FixTable`, `CleanTable`). Floats are their
shortest round-trip `repr`; each distinct float, day and slot of a
chunk (told apart by its bits, so -0.0 is not 0.0) is formatted,
checked and given its separator once. Times are `isoformat()` UTC,
built per row in one byte matrix. A text column is a `TextColumn`
(`write_table` makes them of its rows' `fmt` texts); the csv module
itself quotes each distinct text that holds a delimiter, a quote or a
line-break character, once per artifact.

Every writer checks what it formats: a quoted cell must parse back
through csv to its text, a float, day or slot text must read back as
the reader reads it to its value's bits, and a time to its instant, by
the reader's own `_iso_us` on the byte matrix; otherwise it raises
ValueError naming the artifact. It returns a `Receipt`: the path and
the line ends ("\n") it wrote, one per meta line, header and data row
plus each inside a cell. `check_written` counts the file's line ends
against it.

Readers stream the file in blocks of whole lines. They skip the '#'
meta lines before the header and read the rest with ingest's
`split_rows`: plain text (no '"', "\\r" or NUL) is split without csv,
and from the first block that is not plain (a cell the writer quoted,
or a file whose line ends were changed to "\\r\\n"), csv reads the rest,
so a row ends only where csv would end it. Each column comes as ingest's
`Cells`, the byte ranges of its cells. They parse every
row and raise ValueError naming the artifact, the data row and the
reason on a malformed cell, a row of the wrong width or a row csv
cannot parse, and the artifact and the byte's offset in the file on a
byte that is not UTF-8. `read_fixes` and `read_survey` hand their
columns to the converters ingest uses (`convert_gps`, `convert_survey`),
so a staged run reads a cell into the same value by the same checks as
ingest did. `read_clean_fixes` reads the cells in the layout its writer
writes from their bytes: a `repr` lat or lon of at most 15 digits by
ingest's `exact_floats`, a slot by `exact_ints`, a `YYYY-MM-DD` day by
`iso_days`; any other cell is decoded and parsed by numpy's float
parse, `int` or `date.fromisoformat`. The other readers decode their
columns and convert them whole. A reader looks for the bad cell only
when a conversion fails; `read_clean_fixes` then range-checks each slot
and position (`first_out_of_range`).
"""

from __future__ import annotations

import csv
import hashlib
import io
from contextlib import contextmanager
from datetime import date
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .encounter import Encounter, EncounterSet
from .ingest import (
    _GPS_ALIASES,
    CHUNK_ROWS,
    US_PER_S,
    Cells,
    FixTable,
    RejectionReport,
    SurveyRecord,
    TextColumn,
    _iso_us,
    civil_from_days,
    convert_gps,
    convert_survey,
    exact_floats,
    exact_ints,
    gc_paused,
    iso_days,
    split_rows,
    timestamps_us,
    utf8_text,
)
from .preprocess import CleanTable, epoch_day, first_out_of_range

# joins the items of a tuple cell: `pairs.csv` common_days, `subgroups.csv` outliers
_ITEM_SEP = "|"


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fmt(value) -> str:
    """Canonical cell text: shortest round-trip floats, '' for absent, a tuple's items joined by '|'."""
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, tuple):
        return _ITEM_SEP.join(map(fmt, value))
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


def _join_rows(columns: Sequence[list[str]]) -> str:
    """Columns of csv cells, each cell ending in its separator, as lines of text."""
    cells = [""] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        cells[i :: len(columns)] = column
    return "".join(cells)


def write_table(
    path: str | Path,
    meta: Mapping[str, str],
    columns: Sequence[str],
    rows: Sequence[Sequence],
) -> Receipt:
    """Write rows of values as their `fmt` texts, through the column writer."""
    with _naming(path):
        texts = [TextColumn.of(list(map(fmt, column))) for column in zip(*rows, strict=True)]
        cells, line_ends = _text_cells(texts, "," * (len(texts) - 1) + "\n" if texts else "")
        return _write_columns(
            path, meta, columns, len(rows), lambda chunk: [cell(chunk) for cell in cells], line_ends
        )


def _write_columns(
    path: str | Path,
    meta: Mapping[str, str],
    columns: Sequence[str],
    n_rows: int,
    format_chunk: Callable[[slice], Sequence[list[str]]],
    cell_line_ends: Callable[[slice], int],
) -> Receipt:
    """Write the meta lines, the header, and rows whose cells `format_chunk` gives.

    `format_chunk` gives the columns of a slice of rows, CHUNK_ROWS rows at
    a time. The cells must already be checked csv cells, each ending in
    its separator: "," or, in the last column, "\n". `cell_line_ends`
    counts the "\n"s inside the cells of a slice of rows.
    """
    head = "".join(f"# {key}={value}\n" for key, value in meta.items())
    head += ",".join(_csv_cells(columns)) + "\n"
    lines = head.count("\n")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(head)
        for start in range(0, n_rows, CHUNK_ROWS):
            rows = slice(start, min(start + CHUNK_ROWS, n_rows))
            handle.write(_join_rows(format_chunk(rows)))
            lines += rows.stop - rows.start + cell_line_ends(rows)
    return Receipt(Path(path), lines)


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
    columns: Sequence[TextColumn], ends: str
) -> tuple[list[Callable[[slice], list[str]]], Callable[[slice], int]]:
    """For each column, the csv cells of a slice of it; and the "\n"s inside a slice's cells.

    A column's cells end in its character of `ends`. Each distinct value
    is quoted, checked, given its separator and searched for line ends once.
    """
    cells, line_ends = [], []
    for column, end in zip(columns, ends, strict=True):
        quoted = _checked_cells(column.values) + end
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
    end: str,
) -> list[str]:
    """`texts(values)`, each followed by `end`, formatting each distinct value only once.

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
    return (np.array(formatted, dtype=object) + end)[inverse].tolist()


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


def _skip_meta(handle: BinaryIO) -> int:
    """Read past the '#' meta lines, checking that they decode; the number of the header's line."""
    line, offset = 1, 0
    for text in iter(handle.readline, b""):
        if not text.startswith(b"#"):
            handle.seek(offset)
            return line
        utf8_text(text, offset)
        line, offset = line + 1, offset + len(text)
    raise ValueError("no header line")


def _column_chunks(path: str | Path, names: Sequence[str]) -> Iterator[tuple[int, dict[str, Cells]]]:
    """(first row, cells of the named columns) of an artifact, a chunk of `split_rows` at a time.

    Rows are numbered from 1 after the header. There is at least one
    chunk, which may hold no rows. Raises ValueError naming the artifact
    and row if a row has more or fewer cells than the header, or if csv
    cannot parse it, and naming the artifact and the offset of a byte
    that is not UTF-8.
    """
    with open(path, "rb") as handle, gc_paused(), _naming(path):
        columns: list[str] | None = None
        first = 1
        for rows in split_rows(handle, ",", _skip_meta(handle)):
            head = int(columns is None)  # the first row is the header
            if head:
                if 0 in rows.failed:
                    raise ValueError(rows.failed[0])
                columns = rows.row(0)
                at = [columns.index(name) for name in names]
            data = np.arange(head, len(rows))
            wrong = data[rows.widths[data] != len(columns)]
            if len(wrong):
                i = int(wrong[0])
                reason = rows.failed.get(i, f"{rows.widths[i]} cells, {len(columns)} columns")
                raise ValueError(f"data row {first + i - head}: {reason}")
            yield first, {name: rows.column(data, i) for name, i in zip(names, at)}
            first += len(data)


@contextmanager
def _cells_named(
    path: str | Path,
    first: int,
    cells: Mapping[str, Iterable[str]],
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


# "00" to "99" as a (2, 100) byte matrix: column k holds the two digits of k
_DIGIT_PAIRS = np.array([list(f"{k:02d}".encode()) for k in range(100)], dtype=np.uint8).T.copy()
# `isoformat()` of a UTC instant with microseconds, then ",\n"; and the bytes
# of the fraction, and of the 25 that are left without it
_ISO_UTC = np.frombuffer(b"0000-00-00T00:00:00.000000+00:00,\n", np.uint8)
_ISO_FRACTION, _ISO_WHOLE = slice(19, 26), np.r_[0:19, 26:32]


def _iso_utc_bytes(t_us: np.ndarray) -> np.ndarray:
    """`isoformat()` of each UTC instant, then ",\n": a byte matrix, a column per instant.

    It is built two digits at a time, the civil date (`civil_from_days`),
    then the time of day. The fraction of a whole second is NUL bytes.
    """
    seconds, micros = np.divmod(t_us, US_PER_S)
    days, second = np.divmod(seconds, 86400)
    year, month, day = civil_from_days(days)
    hour, second = np.divmod(second, 3600)
    minute, second = np.divmod(second, 60)
    fields = (
        year // 100, year % 100, month, day, hour, minute, second,
        micros // 10_000, micros // 100 % 100, micros % 100,
    )
    chars = np.empty((len(_ISO_UTC), len(t_us)), dtype=np.uint8)
    chars[:] = _ISO_UTC[:, None]
    for at, value in zip((0, 2, 5, 8, 11, 14, 17, 20, 22, 24), fields):
        chars[at : at + 2] = np.take(_DIGIT_PAIRS, value, axis=1)
    chars[_ISO_FRACTION] *= micros != 0
    return chars


def _time_cells(t_us: np.ndarray) -> list[str]:
    """`fixes.csv`'s timestamp cells, `isoformat()` and ",", each checked as the reader reads it.

    `_iso_us` reads back the 25- and 32-byte shapes from the byte matrix,
    `timestamps_us` any other text; a cell that is not its instant raises ValueError.
    """
    chars = _iso_utc_bytes(t_us)
    whole = np.bitwise_or.reduce(chars[_ISO_FRACTION], axis=0) == 0
    back, ok = np.zeros_like(t_us), np.zeros(len(t_us), dtype=bool)
    for rows, at, frac in ((whole, _ISO_WHOLE, 0), (~whole, slice(0, 32), 6)):
        rows = np.flatnonzero(rows)
        back[rows], ok[rows] = _iso_us(chars[at].take(rows, axis=1).T, frac, "+", 0)
    cells = chars.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    rest = np.flatnonzero(~ok)
    back[rest], ok[rest], _ = timestamps_us([cells[i][:-1] for i in rest.tolist()])
    wrong = ~ok | (back != t_us)
    if wrong.any():
        i = int(np.flatnonzero(wrong)[0])
        raise ValueError(f"{cells[i][:-1]!r} does not read back as {t_us[i].item()!r}")
    return cells


def _float_texts(floats: np.ndarray) -> list[str]:
    return list(map(repr, floats.tolist()))


def _float_cells(values: np.ndarray, end: str = ",") -> list[str]:
    return _distinct_texts(values, _float_texts, lambda texts: list(map(float, texts)), end)


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

FIX_COLUMNS = tuple(_GPS_ALIASES)  # the canonical GPS log columns, in ingest's order


def write_fixes(path: str | Path, fixes: FixTable, meta: Mapping[str, str]) -> Receipt:
    with _naming(path):
        (user, elevation, satellites, provider), line_ends = _text_cells(
            (fixes.user, fixes.elevation, fixes.satellites, fixes.provider), ",,,\n"
        )

        def columns(rows: slice) -> list[list[str]]:
            return [
                user(rows),
                _time_cells(fixes.t_us[rows]),
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


SURVEY_COLUMNS = SurveyRecord._fields


def write_survey(
    path: str | Path, records: Sequence[SurveyRecord], meta: Mapping[str, str]
) -> Receipt:
    return write_table(path, meta, SURVEY_COLUMNS, records)


def read_survey(path: str | Path) -> list[SurveyRecord]:
    """The records of `survey.csv`, checked and converted as ingest converts a survey."""
    chunks = _converted(path, SURVEY_COLUMNS, convert_survey)
    return [record for chunk in chunks for record in chunk]


CLEAN_FIX_COLUMNS = ("user_id", "day", "slot", "lat", "lon")


def write_clean_fixes(path: str | Path, fixes: CleanTable, meta: Mapping[str, str]) -> Receipt:
    with _naming(path):
        (user,), line_ends = _text_cells((fixes.user,), ",")

        def columns(rows: slice) -> list[list[str]]:
            return [
                user(rows),
                _distinct_texts(fixes.day[rows], _day_texts, lambda days: list(map(_epoch_day, days)), ","),
                _distinct_texts(fixes.slot[rows], _int_texts, lambda texts: list(map(int, texts)), ","),
                _float_cells(fixes.lat[rows]),
                _float_cells(fixes.lon[rows], "\n"),
            ]

        return _write_columns(path, meta, CLEAN_FIX_COLUMNS, len(fixes), columns, line_ends)


def _day_texts(days: np.ndarray) -> list[str]:
    return np.datetime_as_string(days.astype("datetime64[D]")).tolist()


def _int_texts(values: np.ndarray) -> list[str]:
    return list(map(str, values.tolist()))


def _epoch_day(text: str) -> int:
    return epoch_day(date.fromisoformat(text))


def _fast_column(
    cells: Cells,
    fast: Callable[[Cells], tuple[np.ndarray, np.ndarray]],
    convert: Callable[[list[str]], Sequence],
) -> np.ndarray:
    """`fast`'s values of the cells on its fast path, and `convert` of the texts of the others."""
    values, ok = fast(cells)
    rest = np.flatnonzero(~ok)
    if rest.size:
        values[rest] = np.asarray(convert(cells.texts(rest)), dtype=values.dtype)
    return values


_numpy_floats = partial(np.array, dtype=np.float64)


def _epoch_days(texts: list[str]) -> list[int]:
    days = {text: _epoch_day(text) for text in set(texts)}
    return [days[text] for text in texts]


def read_clean_fixes(path: str | Path) -> CleanTable:
    """The fixes of `clean_fixes.csv`.

    Raises ValueError naming the artifact and the data row for a cell
    that does not parse, a slot outside 0..287, or a lat or lon that
    ingest would reject as out of range.
    """
    chunks = []
    parsers = {"day": _epoch_day, "slot": int, "lat": float, "lon": float}
    for first, cells in _column_chunks(path, CLEAN_FIX_COLUMNS):
        with _cells_named(path, first, cells, parsers):
            table = CleanTable(
                user=cells["user_id"].text_column(),
                day=_fast_column(cells["day"], iso_days, _epoch_days),
                slot=_fast_column(cells["slot"], exact_ints, lambda texts: list(map(int, texts))),
                lat=_fast_column(cells["lat"], exact_floats, _numpy_floats),
                lon=_fast_column(cells["lon"], exact_floats, _numpy_floats),
            )
        out_of_range = first_out_of_range(table.slot, table.lat, table.lon)
        if out_of_range:
            i, reason = out_of_range
            raise ValueError(f"{path}: data row {first + i}: {reason}")
        chunks.append(table)
    return CleanTable.concat(chunks)


VALID_DAY_COLUMNS = ("user_id", "day")


def write_valid_days(
    path: str | Path, valid_days: Mapping[str, tuple[date, ...]], meta: Mapping[str, str]
) -> Receipt:
    rows = [(user, day) for user in sorted(valid_days) for day in valid_days[user]]
    return write_table(path, meta, VALID_DAY_COLUMNS, rows)


def read_valid_days(path: str | Path) -> dict[str, tuple[date, ...]]:
    days_by_user: dict[str, list[date]] = {}
    for first, cells in _column_chunks(path, VALID_DAY_COLUMNS):
        with _cells_named(path, first, cells, {"day": date.fromisoformat}):
            days = list(map(date.fromisoformat, cells["day"]))
        for user, day in zip(cells["user_id"], days):
            days_by_user.setdefault(user, []).append(day)
    return {user: tuple(sorted(days)) for user, days in days_by_user.items()}


PAIR_COLUMNS = ("user_lo", "user_hi", "n_common_days", "common_days")


def write_pairs(
    path: str | Path,
    encounter_sets: Mapping[tuple[str, str], EncounterSet],
    meta: Mapping[str, str],
) -> Receipt:
    rows = [(*pair, es.n_common_days, es.common_days) for pair, es in sorted(encounter_sets.items())]
    return write_table(path, meta, PAIR_COLUMNS, rows)


ENCOUNTER_COLUMNS = Encounter._fields


def write_encounters(
    path: str | Path,
    encounter_sets: Mapping[tuple[str, str], EncounterSet],
    meta: Mapping[str, str],
) -> Receipt:
    rows = [enc for pair in sorted(encounter_sets) for enc in encounter_sets[pair].encounters]
    return write_table(path, meta, ENCOUNTER_COLUMNS, rows)


def _common_days(text: str) -> tuple[date, ...]:
    return tuple(date.fromisoformat(part) for part in text.split(_ITEM_SEP) if part)


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
    return {pair: EncounterSet(common[pair], tuple(by_pair[pair])) for pair in sorted(common)}
