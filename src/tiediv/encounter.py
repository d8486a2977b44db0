"""Encounter detection on the cleaned day-slot grid, by one spatiotemporal bucket join.

An encounter is a co-occurrence: both users of a pair have a fix in the
same 5-minute slot of a common day, within a distance threshold T. Each
encounter is labelled with the geohash-8 cell of the midpoint between
the two fixes, which feeds location diversity downstream.

Detection does not loop over user pairs. It joins fixes in buckets of
(day, slot, grid cell), after the co-occurrence cells of Crandall et
al., *Inferring social ties from geographic coincidences* (PNAS 2010):

- A row is a user's last fix in a (day, slot) of one of the user's
  valid days, found by a stable sort of the (day, slot, user) key; only
  users of eligible pairs have rows.
- Two points within T of each other (R the earth's radius) differ by at
  most T/R in latitude, and, if neither lies beyond latitude phi_max, by
  at most 2 asin(sin(T/2R) / cos phi_max) in longitude. Grid rows and
  columns at least that tall and wide, widened by `geo.within_m`'s
  recheck band, put any two such points in one cell or in two adjacent
  cells. Columns wrap around at the antimeridian; when fewer than three
  would fit, there is one column.
- Each row is paired with the later rows of its own bucket and with every
  row of its cell's four forward neighbours (0,+1), (+1,-1), (+1,0) and
  (+1,+1) in the same (day, slot), so each pair of rows is a candidate at
  most once. Only the candidates of eligible pairs get a distance
  (`geo.within_m`, the fix of the lexicographically smaller user first)
  and, within T, a midpoint cell (`geo.geohash_encode_many`).
- A bucket never spans two days, so the join takes the table (grouped
  by day with one stable sort) a run of whole days at a time: at most
  `CHUNK_ROWS` fixes, or one day. Its transient arrays are the size of
  one run, not of the table.

Eligibility (enough common valid days) comes from a users x days mask.

The result, one `EncounterSet` per eligible pair (users**2 / 2 in
all-pairs mode), is built by C-level calls: `.tolist()` of numpy
columns, `tuple.__new__` mapped over their zip, one slice per pair.
Cyclic GC is paused meanwhile (`ingest.gc_paused`): the result is
tuples of strings, dates and ints, with no cycle to collect.
"""

from __future__ import annotations

from datetime import date
from itertools import compress, repeat
from math import asin, cos, degrees, isfinite, pi, radians, sin
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .geo import _RECHECK_REL, EARTH_RADIUS_M, geohash_encode_many, within_m
from .ingest import CHUNK_ROWS, RejectionReport, _passing, gc_paused
from .preprocess import SLOTS_PER_DAY, CleanTable, clean_fix_checks, epoch_day

GEOHASH_LENGTH = 8
DEFAULT_THRESHOLD_M = 50.0
DEFAULT_MIN_COMMON_DAYS = 7

# No grid cell is narrower than this many radians (about 2.4 m), so a
# bucket key, (time rank * rows + row) * columns + column, stays below
# 2**63: a run holds at most CHUNK_ROWS = 2**15 fixes or one day's 288
# slots, so fewer than 2**15 distinct (day, slot) keys.
_MIN_CELL = 2.0 * pi / 2**24
# forward neighbours (row step, column step) of a cell; with one column, only the next row
_FORWARD = ((0, 1), (1, -1), (1, 0), (1, 1))


class Encounter(NamedTuple):
    """One co-occurrence of a user pair in a (day, slot) at a cell.

    Its fields are the columns of `encounters.csv`.
    """

    user_lo: str
    user_hi: str  # canonical order: user_lo < user_hi
    day: date
    slot: int
    cell: str


class EncounterSet(NamedTuple):
    """All encounters of one pair, with the pair's common-day context; its key names the pair."""

    common_days: tuple[date, ...]  # chronological
    encounters: tuple[Encounter, ...]

    @property
    def n_common_days(self) -> int:
        return len(self.common_days)

    @property
    def n_encounters(self) -> int:
        return len(self.encounters)


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    if a == b:
        raise ValueError(f"pair of identical users: {a!r}")
    return (a, b) if a < b else (b, a)


def check_threshold(threshold_m: float) -> None:
    """ValueError unless the distance threshold is positive and finite."""
    if not (isfinite(threshold_m) and threshold_m > 0):
        raise ValueError(f"distance threshold must be positive and finite, got {threshold_m}")


def check_min_common_days(min_common_days: int) -> None:
    """ValueError unless the minimum of common days is at least 1."""
    if min_common_days < 1:
        raise ValueError(f"min_common_days must be at least 1, got {min_common_days}")


def detect_encounters(
    fixes: CleanTable,
    valid_days: Mapping[str, tuple[date, ...]],
    threshold_m: float = DEFAULT_THRESHOLD_M,
    min_common_days: int = DEFAULT_MIN_COMMON_DAYS,
    pairs: Iterable[tuple[str, str]] | None = None,
) -> dict[tuple[str, str], EncounterSet]:
    """Detect encounters for every eligible pair, by one bucket join (see the module doc).

    A pair is eligible when both users appear in valid_days and they
    share at least min_common_days days. Pairs with enough common days
    but no co-occurrences still get an (empty) EncounterSet. When
    `pairs` is given, only those pairs are considered (e.g. the pairs
    actually rated in the survey); otherwise every pair of users in
    valid_days is. The result is keyed and ordered by (user_lo,
    user_hi), and each pair's encounters are in (day, slot) order.

    The join's cells are at least T/R rad tall and
    2 asin(sin(T/2R) / cos phi_max) rad wide, so no two fixes within
    threshold_m of each other are ever more than one cell apart. Raises
    ValueError for a threshold that is not positive and finite, for a
    min_common_days below 1, and for a fix in play that fails
    `preprocess.clean_fix_checks` (a slot outside 0..287, a position off
    the globe), naming the first such row of the table.
    """
    check_threshold(threshold_m)
    check_min_common_days(min_common_days)
    users = sorted(valid_days)
    days = sorted({d for user_days in valid_days.values() for d in user_days})
    at = {d: j for j, d in enumerate(days)}
    on_day = np.zeros((len(users), len(days)), dtype=bool)  # users x days
    for i, user in enumerate(users):
        on_day[i, [at[d] for d in valid_days[user]]] = True

    lo, hi = _eligible(users, on_day, min_common_days, pairs)
    pair, time, cells = _join(fixes, users, days, on_day, lo, hi, threshold_m)
    bounds = np.searchsorted(pair, np.arange(len(lo) + 1)).tolist()
    user_col, day_col = np.array(users, dtype=object), np.array(days, dtype=object)
    with gc_paused():
        columns = (
            user_col[lo[pair]].tolist(),
            user_col[hi[pair]].tolist(),
            day_col[time // SLOTS_PER_DAY].tolist(),
            (time % SLOTS_PER_DAY).tolist(),
            cells,
        )
        encounters = tuple(map(tuple.__new__, repeat(Encounter), zip(*columns)))
        runs = map(encounters.__getitem__, map(slice, bounds[:-1], bounds[1:]))
        sets = map(tuple.__new__, repeat(EncounterSet), zip(_common_days(on_day, lo, hi, days), runs))
        return dict(zip(zip(user_col[lo].tolist(), user_col[hi].tolist()), sets))


def _eligible(
    users: list[str],
    on_day: np.ndarray,
    min_common_days: int,
    pairs: Iterable[tuple[str, str]] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """User indices (lo, hi) of the eligible pairs, in (user_lo, user_hi) order."""
    if pairs is None:
        days = on_day.astype(np.float32)  # counts are exact below 2**24 days
        lo, hi = np.nonzero(np.triu(days @ days.T >= min_common_days, 1))
        return lo, hi
    index = {user: i for i, user in enumerate(users)}
    wanted = sorted({canonical_pair(a, b) for a, b in pairs})
    known = [(index[a], index[b]) for a, b in wanted if a in index and b in index]
    lo, hi = np.array(known, dtype=np.intp).reshape(-1, 2).T
    keep = np.count_nonzero(on_day[lo] & on_day[hi], axis=1) >= min_common_days
    return lo[keep], hi[keep]


def _common_days(
    on_day: np.ndarray, lo: np.ndarray, hi: np.ndarray, days: list[date]
) -> list[tuple[date, ...]]:
    """Each pair's chronological common days; pairs with the same days share one tuple."""
    if not days:
        return [()] * len(lo)
    shared = np.packbits(on_day[lo] & on_day[hi], axis=1)
    width = shared.shape[1]
    distinct, which = np.unique(shared.view(np.dtype((np.void, width))), return_inverse=True)
    distinct = np.frombuffer(distinct.tobytes(), dtype=np.uint8).reshape(-1, width)
    bits = np.unpackbits(distinct, axis=1, count=len(days)).tolist()
    tuples = [tuple(compress(days, row)) for row in bits]
    return list(map(tuples.__getitem__, which.reshape(-1).tolist()))


class _Grid(NamedTuple):
    """The join's cells: rows `height` degrees tall, `n_cols` columns round the globe."""

    height: float
    n_cols: int

    @classmethod
    def covering(cls, threshold_m: float, lat_max: float) -> "_Grid":
        """A grid where points within threshold_m, at |lat| <= lat_max, are at most one cell apart."""
        reach = (threshold_m + _RECHECK_REL * max(threshold_m, 1.0)) / EARTH_RADIUS_M
        half, cos_max = sin(min(reach, pi) / 2.0), cos(radians(lat_max))
        width = 2.0 * asin(half / cos_max) if half < cos_max else 2.0 * pi
        n_cols = int(2.0 * pi // max(width, _MIN_CELL))
        return cls(degrees(max(reach, _MIN_CELL)), n_cols if n_cols >= 3 else 1)

    @property
    def key_rows(self) -> int:
        """Rows of the bucket key: every cell row, and one more above the top."""
        return int(180.0 // self.height) + 2

    def cells(self, lat: np.ndarray, lon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        row = np.floor((lat + 90.0) / self.height).astype(np.int64)
        col = np.floor((lon + 180.0) / (360.0 / self.n_cols)).astype(np.int64) % self.n_cols
        return row, col


def _join(
    fixes: CleanTable,
    users: list[str],
    days: list[date],
    on_day: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    threshold_m: float,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(pair, day * 288 + slot, cell) of every encounter, in (pair, day, slot) order.

    A pair is its index in (lo, hi), a day its index in `days`.
    """
    n = len(users)
    pair_codes = lo * n + hi  # sorted
    in_pair = np.zeros(n, dtype=bool)
    in_pair[lo] = in_pair[hi] = True
    index = {user: i for i, user in enumerate(users)}
    user_of = np.array(
        [index[name] if name in index and in_pair[index[name]] else -1 for name in fixes.user.values],
        dtype=np.int64,
    )
    day_values = np.array([epoch_day(d) for d in days], dtype=np.int64)
    by_day = np.argsort(fixes.day, kind="stable")  # table order within a day

    found = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    for run in _day_runs(fixes.day[by_day]):
        rows, time, user = _in_play(fixes, by_day[run], user_of, day_values, on_day)
        if not len(rows):
            continue
        lat, lon = fixes.lat[rows], fixes.lon[rows]
        grid = _Grid.covering(threshold_m, float(np.abs(lat).max()))
        rank = np.zeros(len(time), dtype=np.int64)
        np.cumsum(time[1:] != time[:-1], out=rank[1:])
        a, b = _bucket_pairs(rank, *grid.cells(lat, lon), grid)
        # orient by user; rows of one (day, slot) never share a user
        swap = user[a] > user[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        code = user[a] * n + user[b]
        pair = np.searchsorted(pair_codes, code)
        eligible = pair < len(pair_codes)
        eligible[eligible] = pair_codes[pair[eligible]] == code[eligible]
        a, b, pair = a[eligible], b[eligible], pair[eligible]
        hit = within_m(lat[a], lon[a], lat[b], lon[b], threshold_m)
        a, b = a[hit], b[hit]
        found.append((pair[hit], time[a], (lat[a] + lat[b]) / 2.0, (lon[a] + lon[b]) / 2.0))
    pair, time, lat, lon = map(np.concatenate, zip(*found))
    order = np.lexsort((time, pair))
    return pair[order], time[order], geohash_encode_many(lat[order], lon[order], GEOHASH_LENGTH)


def _in_play(
    fixes: CleanTable,
    rows: np.ndarray,
    user_of: np.ndarray,
    day_values: np.ndarray,
    on_day: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The join's rows among `rows` (in table order within a day), sorted by (day, slot, user).

    A row is the last fix of a user in an eligible pair in a (day, slot)
    of one of the user's valid days. Returns the rows, their
    day * 288 + slot (the day an index in `day_values`) and their user
    indices.
    """
    user = user_of[fixes.user.codes[rows]]
    day = np.searchsorted(day_values, fixes.day[rows])
    known = (user >= 0) & (day < len(day_values))
    known[known] = day_values[day[known]] == fixes.day[rows[known]]
    known[known] = on_day[user[known], day[known]]
    rows, user, day = rows[known], user[known], day[known]
    report = RejectionReport()
    _passing(rows, clean_fix_checks(fixes.slot[rows], fixes.lat[rows], fixes.lon[rows]), report)
    if report.entries:
        raise ValueError("clean fix %d: %s" % min(report.entries))
    n = len(on_day)
    key = (day * SLOTS_PER_DAY + fixes.slot[rows]) * n + user
    order = np.argsort(key, kind="stable")
    key = key[order]
    last = np.ones(len(key), dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    key = key[last]
    return rows[order[last]], key // n, key % n


def _day_runs(day: np.ndarray) -> Iterator[slice]:
    """Slices of sorted `day` holding whole days, each at most CHUNK_ROWS rows or one day."""
    start = cut = 0
    for end in [*(np.flatnonzero(day[1:] != day[:-1]) + 1).tolist(), len(day)]:
        if end - start > CHUNK_ROWS and cut > start:
            yield slice(start, cut)
            start = cut
        cut = end
    if cut > start:
        yield slice(start, cut)


def _bucket_pairs(
    rank: np.ndarray, row: np.ndarray, col: np.ndarray, grid: _Grid
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of rows that share a time rank and lie in one cell or adjacent cells.

    Each unordered pair comes once: a row meets the later rows of its own
    bucket and every row of its cell's forward neighbours.
    """
    n_cols = grid.n_cols
    bucket = (rank * grid.key_rows + row) * n_cols + col
    order = np.argsort(bucket, kind="stable")
    bucket, col = bucket[order], col[order]
    new = np.ones(len(bucket), dtype=bool)
    new[1:] = bucket[1:] != bucket[:-1]
    group = np.cumsum(new) - 1  # each row's bucket
    first = np.flatnonzero(new)  # each bucket's first row
    end = np.append(first[1:], len(bucket))
    keys, key_cols = bucket[first], col[first]
    some = np.flatnonzero(end[group] > np.arange(1, len(bucket) + 1))  # rows with later rows in their bucket
    firsts, starts, stops = [some], [some + 1], [end[group[some]]]
    for step_row, step_col in _FORWARD if n_cols >= 3 else ((1, 0),):
        needle = keys + step_row * n_cols + (key_cols + step_col) % n_cols - key_cols
        found = np.minimum(np.searchsorted(keys, needle), len(keys) - 1)
        some = np.flatnonzero((keys[found] == needle)[group])  # rows whose bucket has the neighbour
        firsts.append(some)
        starts.append(first[found[group[some]]])
        stops.append(end[found[group[some]]])
    start = np.concatenate(starts)
    count = np.concatenate(stops) - start
    a = np.repeat(np.concatenate(firsts), count)
    b = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
    return order[a], order[b]
