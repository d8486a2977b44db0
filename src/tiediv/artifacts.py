"""On-disk interchange between pipeline stages.

Every artifact is UTF-8 delimited text: '#'-prefixed key=value
provenance lines (config echo, input hashes), one header line, then
data rows. Writing the same records with the same config produces
byte-identical files, so re-runs are cheap to verify and artifacts can
be diffed.

`write_columns` writes every artifact from a mapping of names to
columns, so its header, the keys, cannot come apart from its rows;
`write_table` zips rows into such a mapping strictly. The writer's chunk
of CHUNK_ROWS rows comes as columns of cells that already end in their
separator ("," or, in the last column, "\n"), and one `"".join` of the
columns, interleaved, is its text. A column's type picks its cells
(`_typed_cells`): a numpy float is its shortest round-trip `repr`, an int
its `str`, a `datetime64[D]` its ISO date, each distinct value of a chunk
(told apart by its bits, so -0.0 is not 0.0) formatted, checked and
given its separator once; a `datetime64[us]` is `isoformat()` UTC, built
per row in one byte matrix. Any other column is text, a `TextColumn` or
values written as their `fmt` texts; each distinct text that holds ',',
'"', "\r" or "\n" is quoted once per artifact, as csv's writer quotes it.

Every writer checks what it formats: a text cell must split back by
`split_rows` to its text, a float, day or slot text must read back as
the reader reads it to its value's bits, and a time to its instant, by
the reader's own `_iso_us` alone, on the byte matrix; otherwise it
raises ValueError naming the artifact. It publishes the artifact or
nothing (`_publish`): it writes a temporary file beside it, renames that
onto the artifact's name only once the file holds the line ends ("\n")
it formatted, and on any failure removes both it and any earlier file
of the artifact's name.

Readers skip the '#' meta lines before the header and read the rest
with ingest's `split_rows`, which streams the file in blocks of whole
rows and splits them as csv would, cells the writer quoted and "\\r\\n"
line ends included, without csv. Each column comes as ingest's `Cells`,
the byte ranges of its cells. A row of the wrong width or with a cell
over csv's field limit raises ValueError naming the artifact and the
data row, and a byte that is not UTF-8 one naming the artifact and the
byte's offset in the file.

Each reader hands each block's columns to its artifact's converter
(`_converted`), which converts the cells by ingest's `column_values` or
`_bulk` and checks the rows by one ordered list (`ingest._passing`); the
reader raises ValueError naming the artifact, the first data row that
fails a check, and the reason ('column: error' for a cell that does not
parse). `fixes.csv` and `survey.csv` use ingest's own `convert_gps` and
`convert_survey`. The other lists check that each cell parses, then
`clean_fixes.csv` the ranges `detect_encounters` checks
(`preprocess.clean_fix_checks`); `pairs.csv` that `n_common_days`
counts the `common_days`, which strictly increase, that `user_lo` comes
before `user_hi`, and that no pair is listed twice; and `encounters.csv`
the slot range, that its cell is a geohash-8 cell, that its pair is in
`pairs.csv` and its day one of the pair's common days, and that no
(pair, day, slot) is listed twice.
"""

from __future__ import annotations

import hashlib
import io
import os
from contextlib import contextmanager
from datetime import date
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .encounter import GEOHASH_LENGTH, Encounter, EncounterSet
from .geo import GEOHASH_BASE32
from .ingest import (
    _GPS_ALIASES,
    CHUNK_ROWS,
    US_PER_S,
    Cells,
    FixTable,
    RejectionReport,
    SurveyRecord,
    TextColumn,
    _bulk,
    _iso_us,
    _passing,
    civil_from_days,
    column_values,
    convert_gps,
    convert_survey,
    exact_floats,
    exact_ints,
    gc_paused,
    int64_cell,
    iso_days,
    split_rows,
    utf8_text,
)
from .preprocess import CleanTable, clean_fix_checks, day_of, epoch_day, slot_check

# joins the items of a tuple cell: `pairs.csv` common_days, `subgroups.csv` outliers
_ITEM_SEP = "|"
# a text cell that holds one of these is quoted
_QUOTED = frozenset(',"\r\n')


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
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, tuple):
        return _ITEM_SEP.join(map(fmt, value))
    return str(value)


@contextmanager
def _naming(path: str | Path) -> Iterator[None]:
    """Re-raise a ValueError or OverflowError as a ValueError that names the artifact."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _join_rows(columns: Sequence[list[str]]) -> str:
    """Columns of csv cells, each cell ending in its separator, as lines of text."""
    cells = [""] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        cells[i :: len(columns)] = column
    return "".join(cells)


def write_table(
    path: str | Path, meta: Mapping[str, str], columns: Sequence[str], rows: Sequence[Sequence]
) -> Path:
    """Write rows of values, each as its `fmt` text, under the names `columns`, as `write_columns` does.

    A row of another width than `columns` raises ValueError naming the artifact.
    """
    return _publish(
        path, lambda: _column_texts(meta, columns, list(zip(*rows, strict=True)) if rows else [()] * len(columns))
    )


def write_columns(
    path: str | Path, meta: Mapping[str, str], columns: Mapping[str, np.ndarray | TextColumn | Sequence]
) -> Path:
    """Write the meta lines, a header of the mapping's keys, and rows of its columns, all of one length.

    A numpy column of numbers or instants has `_typed_cells`. Any other
    column is text: a `TextColumn`, or a sequence written as its values'
    `fmt` texts (`_text_cells`). A cell that does not read back as its
    value raises ValueError naming the artifact.
    """
    return _publish(path, lambda: _column_texts(meta, list(columns), list(columns.values())))


def _column_texts(meta: Mapping[str, str], names: Sequence[str], values: Sequence) -> tuple[int, Iterator[str]]:
    """The line ends and the texts (the head, then each chunk's) of the artifact of columns `values`."""
    columns = dict(zip(names, values, strict=True))
    if len(columns) != len(names):
        raise ValueError(f"a column name is repeated in {list(names)}")
    lengths = {len(column) for column in values}
    if len(lengths) > 1:
        raise ValueError(f"columns of {sorted(lengths)} rows")
    n_rows, ends = max(lengths, default=0), "," * (len(columns) - 1) + "\n"
    texts = {
        i: column if isinstance(column, TextColumn) else TextColumn.of(list(map(fmt, column)))
        for i, column in enumerate(values)
        if not (isinstance(column, np.ndarray) and column.dtype.kind in "fiuM")
    }
    quoted, cell_line_ends = _text_cells(texts, ends)
    head = "".join(f"# {key}={value}\n" for key, value in meta.items())
    head += ",".join(_csv_cells(names)) + "\n"

    def chunks() -> Iterator[str]:
        yield head
        for start in range(0, n_rows, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            yield _join_rows([
                quoted[i][texts[i].codes[rows]].tolist() if i in texts else _typed_cells(column[rows], ends[i])
                for i, column in enumerate(values)
            ])

    return head.count("\n") + n_rows + cell_line_ends, chunks()


def publish_text(path: str | Path, text: str) -> Path:
    """Publish `text`, which ends with a line end, as the artifact at `path`, as `_publish` does."""
    return _publish(path, lambda: (text.count("\n"), [text]))


def _publish(path: str | Path, texts: Callable[[], tuple[int, Iterable[str]]]) -> Path:
    """Write the texts of `texts()` to a temporary file beside `path`, check it, and rename it to `path`.

    The file must end with a line end and hold just the line ends that
    `texts()` gives, so that no row is missing, cut short or split;
    otherwise ValueError. Any exception removes the temporary file and any
    earlier file at `path`; a ValueError or OverflowError names `path`.
    """
    path = Path(path)
    temp = path.with_name(f"{path.name}.tmp")  # a fixed name: a later write replaces one a killed run left
    try:
        with _naming(path):
            lines, chunks = texts()
            with open(temp, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
            line_ends, last = 0, b""
            with open(temp, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    line_ends += block.count(b"\n")
                    last = block[-1:]
            if last != b"\n":
                raise ValueError("does not end with a line end")
            if line_ends != lines:
                raise ValueError(f"holds {line_ends} lines, but {lines} were written")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        path.unlink(missing_ok=True)
        raise
    return path


def _csv_cells(texts: Sequence[str]) -> np.ndarray:
    """Each text as a cell: quoted, its quotes doubled, if it holds ',', '"', "\r" or "\n".

    csv's writer quotes a cell by that rule when rows end in "\r\n"; the
    reader ends a row at either line-break character.
    """
    cells = ['"' + text.replace('"', '""') + '"' if not _QUOTED.isdisjoint(text) else text for text in texts]
    return np.array(cells, dtype=object)


def _checked_cells(texts: Sequence[str]) -> np.ndarray:
    """`_csv_cells(texts)`, each checked by the reader that will read it.

    Each cell, followed by a delimiter, must split back to its text by
    `split_rows`, or ValueError.
    """
    cells = _csv_cells(texts)
    source = io.BytesIO("".join(f"{cell},\n" for cell in cells.tolist()).encode("utf-8"))
    back = []
    for rows in split_rows(source, ","):
        if rows.failed:
            raise ValueError(next(iter(rows.failed.values())))
        split = rows.cells.texts()
        back += [split[a : a + n] for a, n in zip(rows.starts.tolist(), rows.widths.tolist())]
    for text, cell, row in zip(texts, cells.tolist(), chain(back, repeat(None))):
        if row != [text, ""]:
            raise ValueError(f"csv cell {cell!r} does not parse back to {text!r}")
    return cells


def _text_cells(columns: Mapping[int, TextColumn], ends: str) -> tuple[dict[int, np.ndarray], int]:
    """The csv cells of each column i's distinct values, ending in `ends[i]`; and the "\n"s in all rows' cells.

    Each distinct value is quoted, checked, given its separator and searched for line ends once.
    """
    checked = iter(_checked_cells([value for column in columns.values() for value in column.values]).tolist())
    cells, line_ends = {}, 0
    for i, column in columns.items():
        cells[i] = np.array([next(checked) + ends[i] for _ in column.values], dtype=object)
        breaks = np.array([value.count("\n") for value in column.values], dtype=np.int64)
        if breaks.any():
            line_ends += int(breaks[column.codes].sum())
    return cells, line_ends


def _typed_cells(values: np.ndarray, end: str) -> list[str]:
    """The cells of a numpy column, each followed by `end`, in the text its dtype picks.

    Floats are shortest round-trip `repr`s, ints `str`s, `datetime64[D]`
    ISO dates and `datetime64[us]` the `isoformat()` of UTC instants; each
    must read back as the reader reads it, or ValueError.
    """
    if values.dtype.kind == "f":
        return _distinct_texts(values, _float_texts, float, end)
    if values.dtype.kind in "iu":
        return _distinct_texts(values, _int_texts, int, end)
    if values.dtype == np.dtype("datetime64[D]"):
        return _distinct_texts(values, _day_texts, _epoch_day, end)
    if values.dtype == np.dtype("datetime64[us]"):
        return _time_cells(values.view(np.int64), end)
    raise TypeError(f"no cells for a numpy column of {values.dtype}")


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(f"i{values.itemsize}")


def _distinct_texts(
    values: np.ndarray,
    texts: Callable[[np.ndarray], list[str]],
    parse: Callable[[str], object],
    end: str,
) -> list[str]:
    """`texts(values)`, each followed by `end`, formatting each distinct value only once.

    Values are told apart by their bit pattern, not by `==`, so 0.0 and
    -0.0 keep their own texts. `parse` reads a text back as the reader
    does; each distinct text must give its value's bits back, or
    ValueError.
    """
    bits, inverse = np.unique(_bits(values), return_inverse=True)
    distinct = bits.view(values.dtype)
    formatted = texts(distinct)
    wrong = _bits(np.asarray(list(map(parse, formatted)), dtype=values.dtype)) != bits
    if wrong.any():
        i = int(np.flatnonzero(wrong)[0])
        raise ValueError(f"{formatted[i]!r} does not read back as {distinct[i].item()!r}")
    return (np.array(formatted, dtype=object) + end)[inverse].tolist()


def _skip_meta(handle: BinaryIO) -> tuple[int, int, bytes]:
    """Read past the '#' meta lines, checking that they decode: the header's line number, offset and bytes."""
    line, offset = 1, 0
    for text in iter(handle.readline, b""):
        if not text.startswith(b"#"):
            return line, offset, text
        utf8_text(text, offset)
        line, offset = line + 1, offset + len(text)
    raise ValueError("no header line")


def _column_chunks(path: str | Path, names: Sequence[str]) -> Iterator[tuple[int, dict[str, Cells]]]:
    """(first row, cells of the named columns) of an artifact, a block of `split_rows` at a time.

    Rows are numbered from 1 after the header. There is at least one
    block, which may hold no rows. Raises ValueError naming the artifact
    and row if a row has more or fewer cells than the header, or a cell
    over csv's field limit, and naming the artifact and the offset of a
    byte that is not UTF-8.
    """
    with open(path, "rb") as handle, gc_paused(), _naming(path):
        columns: list[str] | None = None
        first = 1
        for rows in split_rows(handle, ",", *_skip_meta(handle)):
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


def _time_cells(t_us: np.ndarray, end: str) -> list[str]:
    """The `isoformat()` cell of each UTC instant, then `end`, each checked as the reader reads it.

    `_iso_us` reads each cell back from the byte matrix, in its 25- or
    32-byte shape; a cell that is not its instant raises ValueError.
    """
    chars = _iso_utc_bytes(t_us)
    whole = np.bitwise_or.reduce(chars[_ISO_FRACTION], axis=0) == 0
    back, ok = np.zeros_like(t_us), np.zeros(len(t_us), dtype=bool)
    for rows, at, frac in ((whole, _ISO_WHOLE, 0), (~whole, slice(0, 32), 6)):
        rows = np.flatnonzero(rows)
        matrix = chars[at].take(rows, axis=1)
        back[rows], ok[rows] = _iso_us(matrix, matrix - np.uint8(ord("0")), frac, "+", 0)
    cells = chars.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    wrong = ~ok | (back != t_us)
    if wrong.any():
        i = int(np.flatnonzero(wrong)[0])
        raise ValueError(f"{cells[i][:-1]!r} does not read back as {t_us[i].item()!r}")
    return cells if end == "," else [cell[:-1] + end for cell in cells]


def _float_texts(floats: np.ndarray) -> list[str]:
    return list(map(repr, floats.tolist()))


def _converted(path: str | Path, names: Sequence[str], convert: Callable) -> list:
    """`convert(row_nos, cells, report)` of each chunk of the named columns.

    Raises ValueError naming the artifact, the first row `convert`
    rejects and its reason.
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


def write_fixes(path: str | Path, fixes: FixTable, meta: Mapping[str, str]) -> Path:
    values = (fixes.user, fixes.t_us.view("datetime64[us]"), fixes.lat, fixes.lon, fixes.elevation)
    values += (fixes.accuracy, fixes.satellites, fixes.provider)
    return write_columns(path, meta, dict(zip(FIX_COLUMNS, values, strict=True)))


def read_fixes(path: str | Path) -> FixTable:
    """The fixes of `fixes.csv`, checked and converted as ingest converts a GPS log."""
    return FixTable.concat(_converted(path, FIX_COLUMNS, convert_gps))


SURVEY_COLUMNS = SurveyRecord._fields


def write_survey(path: str | Path, records: Sequence[SurveyRecord], meta: Mapping[str, str]) -> Path:
    return write_table(path, meta, SURVEY_COLUMNS, records)


def read_survey(path: str | Path) -> list[SurveyRecord]:
    """The records of `survey.csv`, checked and converted as ingest converts a survey."""
    return list(chain.from_iterable(_converted(path, SURVEY_COLUMNS, partial(convert_survey, seen=set()))))


CLEAN_FIX_COLUMNS = ("user_id", "day", "slot", "lat", "lon")


def write_clean_fixes(path: str | Path, fixes: CleanTable, meta: Mapping[str, str]) -> Path:
    day = fixes.day.astype(np.int64, copy=False).view("datetime64[D]")
    values = (fixes.user, day, fixes.slot, fixes.lat, fixes.lon)
    return write_columns(path, meta, dict(zip(CLEAN_FIX_COLUMNS, values, strict=True)))


def _day_texts(days: np.ndarray) -> list[str]:
    return np.datetime_as_string(days).tolist()


def _int_texts(values: np.ndarray) -> list[str]:
    return list(map(str, values.tolist()))


def _epoch_day(text: str) -> int:
    return epoch_day(date.fromisoformat(text))


def _column(
    cells: Mapping[str, Cells], name: str, fast: Callable, parse: Callable
) -> tuple[np.ndarray, tuple[np.ndarray, dict[int, str]]]:
    """`column_values` of the named column, and its check: the rows it rejects, as 'name: error'."""
    values, ok, reasons = column_values(cells[name], fast, parse)
    return values, (~ok, {i: f"{name}: {reason}" for i, reason in reasons.items()})


def _dates(days: np.ndarray) -> list[date]:
    """The date of each epoch day, one `date` per distinct day."""
    distinct, inverse = np.unique(days, return_inverse=True)
    return np.array(list(map(day_of, distinct.tolist())), dtype=object)[inverse.reshape(-1)].tolist()


def _convert_clean_fixes(
    row_nos: Sequence[int], cells: Mapping[str, Cells], report: RejectionReport
) -> CleanTable:
    """A chunk of `clean_fixes.csv`; a row that fails goes to `report`."""
    day, day_parse = _column(cells, "day", iso_days, _epoch_day)
    slot, slot_parse = _column(cells, "slot", exact_ints, int64_cell)
    lat, lat_parse = _column(cells, "lat", exact_floats, float)
    lon, lon_parse = _column(cells, "lon", exact_floats, float)
    _passing(row_nos, [day_parse, slot_parse, lat_parse, lon_parse, *clean_fix_checks(slot, lat, lon)], report)
    return CleanTable(user=cells["user_id"].text_column(), day=day, slot=slot, lat=lat, lon=lon)


def read_clean_fixes(path: str | Path) -> CleanTable:
    """The fixes of `clean_fixes.csv`.

    Raises ValueError naming the artifact and the first data row with a
    cell that does not parse, a slot outside 0..287, or a lat or lon
    that ingest would reject as out of range.
    """
    return CleanTable.concat(_converted(path, CLEAN_FIX_COLUMNS, _convert_clean_fixes))


VALID_DAY_COLUMNS = ("user_id", "day")


def write_valid_days(
    path: str | Path, valid_days: Mapping[str, tuple[date, ...]], meta: Mapping[str, str]
) -> Path:
    rows = [(user, day) for user in sorted(valid_days) for day in valid_days[user]]
    return write_table(path, meta, VALID_DAY_COLUMNS, rows)


def _convert_valid_days(
    row_nos: Sequence[int], cells: Mapping[str, Cells], report: RejectionReport
) -> Iterator[tuple]:
    """(user, day) of each row of a chunk of `valid_days.csv`; a row that fails goes to `report`."""
    day, day_parse = _column(cells, "day", iso_days, _epoch_day)
    _passing(row_nos, [day_parse], report)
    return zip(cells["user_id"].texts(), _dates(day))


def read_valid_days(path: str | Path) -> dict[str, tuple[date, ...]]:
    days_by_user: dict[str, list[date]] = {}
    for user, day in chain.from_iterable(_converted(path, VALID_DAY_COLUMNS, _convert_valid_days)):
        days_by_user.setdefault(user, []).append(day)
    return {user: tuple(sorted(days)) for user, days in days_by_user.items()}


PAIR_COLUMNS = ("user_lo", "user_hi", "n_common_days", "common_days")


def write_pairs(
    path: str | Path, encounter_sets: Mapping[tuple[str, str], EncounterSet], meta: Mapping[str, str]
) -> Path:
    rows = [(*pair, es.n_common_days, es.common_days) for pair, es in sorted(encounter_sets.items())]
    return write_table(path, meta, PAIR_COLUMNS, rows)


ENCOUNTER_COLUMNS = Encounter._fields


def write_encounters(
    path: str | Path, encounter_sets: Mapping[tuple[str, str], EncounterSet], meta: Mapping[str, str]
) -> Path:
    rows = [enc for pair in sorted(encounter_sets) for enc in encounter_sets[pair].encounters]
    return write_table(path, meta, ENCOUNTER_COLUMNS, rows)


def _common_days(text: str) -> tuple[date, ...]:
    return tuple(date.fromisoformat(part) for part in text.split(_ITEM_SEP) if part)


def _repeats(keys: Iterable, listed: set) -> list[bool]:
    """Whether each key is in `listed` or comes earlier in `keys`; `listed` gains every key."""
    repeated = []
    for key in keys:
        repeated.append(key in listed)
        listed.add(key)
    return repeated


def _convert_pairs(
    row_nos: Sequence[int], cells: Mapping[str, Cells], report: RejectionReport, listed: set
) -> Iterator[tuple]:
    """(pair, common days) of each row of a chunk of `pairs.csv`; a row that fails goes to `report`.

    `listed` holds the pairs of earlier rows. The writer's rows pass the
    checks across rows: common days strictly increase, as
    `detect_encounters` picks them from the sorted distinct days; no pair
    is listed twice, as `write_pairs` writes one row per key of a dict.
    They pass `user_lo` < `user_hi` too, as `detect_encounters` keys a
    pair by its sorted users; `build_observations` looks pairs up so, and
    would drop a pair listed the other way round.
    """
    count, count_parse = _column(cells, "n_common_days", exact_ints, int64_cell)
    days, days_ok, reasons = _bulk(_common_days, cells["common_days"].texts(), ())
    counted = np.fromiter(map(len, days), np.int64, len(days))
    pairs = list(zip(cells["user_lo"].texts(), cells["user_hi"].texts()))
    _passing(row_nos, [
        count_parse,
        (~days_ok, {i: f"common_days: {reason}" for i, reason in reasons.items()}),
        (count != counted, "n_common_days does not match common_days"),
        ([d != tuple(sorted(set(d))) for d in days], "common_days not strictly increasing"),
        ([lo >= hi for lo, hi in pairs], "user_lo not before user_hi"),
        (_repeats(pairs, listed), "pair listed twice"),
    ], report)
    return zip(pairs, days)


def _convert_encounters(
    row_nos: Sequence[int], cells: Mapping[str, Cells], report: RejectionReport, common: Mapping, listed: set
) -> list[Encounter]:
    """The encounters of a chunk of `encounters.csv`; a row that fails goes to `report`.

    `common` maps each pair of `pairs.csv` to its common days, and
    `listed` holds the (pair, day, slot) of earlier rows. A cell must be
    a geohash-8 cell; each distinct cell is checked once. The writer's
    rows pass the checks across rows: the day is a common day of the
    pair, as `detect_encounters` joins a user's fixes only on the user's
    valid days; no (pair, day, slot) is listed twice, as the join keeps
    one fix per user and (day, slot) and meets two fixes once.
    """
    day, day_parse = _column(cells, "day", iso_days, _epoch_day)
    slot, slot_parse = _column(cells, "slot", exact_ints, int64_cell)
    lo, hi = cells["user_lo"].texts(), cells["user_hi"].texts()
    pairs, days, slots = list(zip(lo, hi)), _dates(day), slot.tolist()
    cell = cells["cell"].text_column()
    geohash = set(GEOHASH_BASE32)
    not_cell = np.array([len(c) != GEOHASH_LENGTH or not set(c) <= geohash for c in cell.values], dtype=bool)
    unknown = [pair not in common for pair in pairs]
    named = {i: f"encounter for unknown pair {pairs[i]}" for i in np.flatnonzero(unknown).tolist()}
    _passing(row_nos, [
        day_parse, slot_parse, slot_check(slot),
        (not_cell[cell.codes], f"cell: not a geohash-{GEOHASH_LENGTH} cell"),
        (unknown, named),
        ([d not in common.get(pair, ()) for pair, d in zip(pairs, days)], "day not a common day of its pair"),
        (_repeats(zip(pairs, days, slots), listed), "encounter listed twice"),
    ], report)
    texts = np.array(cell.values, dtype=object)[cell.codes].tolist()
    return list(map(tuple.__new__, repeat(Encounter), zip(lo, hi, days, slots, texts)))


def read_encounter_sets(
    encounters_path: str | Path, pairs_path: str | Path
) -> dict[tuple[str, str], EncounterSet]:
    """Rebuild per-pair encounter sets from the two interchange files."""
    pairs = _converted(pairs_path, PAIR_COLUMNS, partial(_convert_pairs, listed=set()))
    common = dict(chain.from_iterable(pairs))
    by_pair: dict[tuple[str, str], list[Encounter]] = {pair: [] for pair in common}
    convert = partial(_convert_encounters, common=common, listed=set())
    for encounter in chain.from_iterable(_converted(encounters_path, ENCOUNTER_COLUMNS, convert)):
        by_pair[encounter[:2]].append(encounter)
    return {pair: EncounterSet(common[pair], tuple(by_pair[pair])) for pair in sorted(common)}
