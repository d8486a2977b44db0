"""Pairwise encounter detection on the cleaned day-slot grid.

An encounter is a co-occurrence: both users of a pair have a fix in the
same 5-minute slot of a common day, within a distance threshold. Each
encounter is labelled with the geohash-8 cell of the midpoint between
the two fixes, which feeds location diversity downstream.

Detection works on a `CleanTable`. Each user's fixes on the user's valid
days are sorted by their (day, slot) key once; a pair's co-occurrences
are the keys both users have, found by one `searchsorted` join. The
distances and midpoint cells of all pairs' co-occurrences are then
computed in bulk (`geo.within_m`, `geo.geohash_encode_many`), a batch
of pairs at a time, and the result is built as `Encounter` objects per
pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .geo import geohash_encode_many, within_m
from .ingest import CHUNK_ROWS
from .preprocess import SLOTS_PER_DAY, CleanTable, ValidDaySet, common_days, day_of, epoch_day

GEOHASH_LENGTH = 8
DEFAULT_THRESHOLD_M = 50.0


class Encounter(NamedTuple):
    """One co-occurrence of a user pair in a (day, slot) at a cell.

    Its fields are the columns of `encounters.csv`.
    """

    user_lo: str
    user_hi: str  # canonical order: user_lo < user_hi
    day: date
    slot: int
    cell: str


@dataclass(frozen=True)
class EncounterSet:
    """All encounters of one pair, with the pair's common-day context."""

    user_lo: str
    user_hi: str
    common_days: tuple[date, ...]  # chronological
    encounters: tuple[Encounter, ...]

    @property
    def n_common_days(self) -> int:
        return len(self.common_days)

    @property
    def n_encounters(self) -> int:
        return len(self.encounters)

    def first_days(self, d: int) -> "EncounterSet | None":
        """Restrict to the pair's first d common days; None if fewer exist."""
        if self.n_common_days < d:
            return None
        horizon = self.common_days[:d]
        kept = set(horizon)
        return EncounterSet(
            user_lo=self.user_lo,
            user_hi=self.user_hi,
            common_days=horizon,
            encounters=tuple(e for e in self.encounters if e.day in kept),
        )


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    if a == b:
        raise ValueError(f"pair of identical users: {a!r}")
    return (a, b) if a < b else (b, a)


def _slots_by_user(
    table: CleanTable, valid_days: Mapping[str, ValidDaySet], users: Iterable[str]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per user: sorted (day, slot) keys on the user's valid days, and their rows.

    When a user has several fixes with one key, the last one counts.
    """
    key = table.day * SLOTS_PER_DAY + table.slot
    order = np.lexsort((key, table.user.codes))
    code, key = table.user.codes[order], key[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (code[1:] != code[:-1]) | (key[1:] != key[:-1])
    order, code, key = order[last], code[last], key[last]
    code_of = {name: i for i, name in enumerate(table.user.values)}

    out = {}
    for user in users:
        c = code_of.get(user, -1)
        lo, hi = np.searchsorted(code, c, "left"), np.searchsorted(code, c, "right")
        days = [epoch_day(d) for d in valid_days[user].days]
        on_valid_day = np.isin(key[lo:hi] // SLOTS_PER_DAY, days)
        out[user] = (key[lo:hi][on_valid_day], order[lo:hi][on_valid_day])
    return out


def detect_encounters(
    fixes: CleanTable,
    valid_days: Mapping[str, ValidDaySet],
    threshold_m: float = DEFAULT_THRESHOLD_M,
    min_common_days: int = 7,
    pairs: Iterable[tuple[str, str]] | None = None,
) -> dict[tuple[str, str], EncounterSet]:
    """Detect encounters for every eligible pair.

    A pair is eligible when both users appear in valid_days and they
    share at least min_common_days days. Pairs with enough common days
    but no co-occurrences still get an (empty) EncounterSet. When
    `pairs` is given, only those pairs are considered (e.g. the pairs
    actually rated in the survey); otherwise all pairs of users in
    valid_days are scanned.
    """
    if threshold_m <= 0:
        raise ValueError(f"distance threshold must be positive, got {threshold_m}")

    if pairs is None:
        users = sorted(valid_days)
        candidates = [
            (users[i], users[j])
            for i in range(len(users))
            for j in range(i + 1, len(users))
        ]
    else:
        candidates = sorted({canonical_pair(a, b) for a, b in pairs})

    eligible = []
    for lo, hi in candidates:
        if lo in valid_days and hi in valid_days:
            shared = common_days(valid_days[lo], valid_days[hi])
            if len(shared) >= min_common_days:
                eligible.append((lo, hi, shared))

    # join each pair's sorted (day, slot) keys; resolve co-occurrences in batches
    slots = _slots_by_user(fixes, valid_days, {u for lo, hi, _ in eligible for u in (lo, hi)})
    result: dict[tuple[str, str], EncounterSet] = {}
    batch: list[tuple[str, str, tuple[date, ...]]] = []
    rows_lo: list[np.ndarray] = []
    rows_hi: list[np.ndarray] = []
    n_rows = 0
    for lo, hi, shared in eligible:
        keys_lo, at_lo = slots[lo]
        keys_hi, at_hi = slots[hi]
        pos = np.searchsorted(keys_hi, keys_lo)
        found = pos < len(keys_hi)
        found[found] = keys_hi[pos[found]] == keys_lo[found]
        batch.append((lo, hi, shared))
        rows_lo.append(at_lo[found])
        rows_hi.append(at_hi[pos[found]])
        n_rows += len(rows_lo[-1])
        if n_rows >= CHUNK_ROWS:
            _resolve(fixes, batch, rows_lo, rows_hi, threshold_m, result)
            batch, rows_lo, rows_hi, n_rows = [], [], [], 0
    if batch:
        _resolve(fixes, batch, rows_lo, rows_hi, threshold_m, result)
    return result


def _resolve(
    table: CleanTable,
    batch: list[tuple[str, str, tuple[date, ...]]],
    rows_lo: list[np.ndarray],
    rows_hi: list[np.ndarray],
    threshold_m: float,
    result: dict[tuple[str, str], EncounterSet],
) -> None:
    """Add each pair's EncounterSet: its co-occurring rows that lie within threshold_m."""
    pair_of = np.repeat(np.arange(len(batch)), [len(rows) for rows in rows_lo])
    lo_rows, hi_rows = np.concatenate(rows_lo), np.concatenate(rows_hi)
    lat_lo, lon_lo = table.lat[lo_rows], table.lon[lo_rows]
    lat_hi, lon_hi = table.lat[hi_rows], table.lon[hi_rows]
    hit = np.flatnonzero(within_m(lat_lo, lon_lo, lat_hi, lon_hi, threshold_m))
    n_hits = np.bincount(pair_of[hit], minlength=len(batch)).tolist()
    cells = geohash_encode_many(
        (lat_lo[hit] + lat_hi[hit]) / 2.0, (lon_lo[hit] + lon_hi[hit]) / 2.0, GEOHASH_LENGTH
    )
    day = table.day[lo_rows[hit]].tolist()
    slot = table.slot[lo_rows[hit]].tolist()
    dates = {d: day_of(d) for d in set(day)}
    i = 0
    for (lo, hi, shared), n in zip(batch, n_hits):
        encounters = tuple(
            Encounter(user_lo=lo, user_hi=hi, day=dates[day[j]], slot=slot[j], cell=cells[j])
            for j in range(i, i + n)
        )
        result[(lo, hi)] = EncounterSet(
            user_lo=lo, user_hi=hi, common_days=shared, encounters=encounters
        )
        i += n
