"""Shared builders for test fixtures, and oracles the pipeline does not use.

`read_table`, `geohash_decode_bounds`, `common_days`, `first_days`,
`iso_utc_texts` and `lexsort_winners` are row-at-a-time or sort-based
definitions that only tests need: an artifact parsed back whole, a
geohash cell's bounding box, two users' common valid days, a pair's
encounters on its first d common days, `fixes.csv`'s timestamp texts,
and the winners of the dedupe's tie-break.
"""

from __future__ import annotations

import csv
from datetime import date, timedelta
from itertools import chain, combinations
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from tiediv.encounter import Encounter, EncounterSet
from tiediv.geo import GEOHASH_BASE32, geohash_encode, haversine_m
from tiediv.ingest import FixTable, RawFix, TextColumn, from_epoch_us, to_epoch_us
from tiediv.preprocess import CleanTable, day_of, epoch_day, snap_to_slots

START = date(2016, 4, 1)


class CleanRow(NamedTuple):
    """One row of a CleanTable, as the tests write and read it."""

    user_id: str
    day: date
    slot: int
    lat: float
    lon: float


def fix_table(fixes: Sequence[RawFix]) -> FixTable:
    """The FixTable of the rows' user, time, position and accuracy; other cells blank."""
    blank = TextColumn(np.zeros(len(fixes), dtype=np.int32), ("",))
    return FixTable(
        user=TextColumn.of([f.user_id for f in fixes]),
        t_us=np.array([to_epoch_us(f.timestamp) for f in fixes], dtype=np.int64),
        lat=np.array([f.lat for f in fixes], dtype=np.float64),
        lon=np.array([f.lon for f in fixes], dtype=np.float64),
        accuracy=np.array([f.accuracy for f in fixes], dtype=np.float64),
        elevation=blank,
        satellites=blank,
        provider=blank,
    )


def clean_table(rows: Sequence[tuple[str, date, int, float, float]]) -> CleanTable:
    """The CleanTable of (user, day, slot, lat, lon) rows."""
    return CleanTable(
        user=TextColumn.of([row[0] for row in rows]),
        day=np.array([epoch_day(row[1]) for row in rows], dtype=np.int64),
        slot=np.array([row[2] for row in rows], dtype=np.int64),
        lat=np.array([row[3] for row in rows], dtype=np.float64),
        lon=np.array([row[4] for row in rows], dtype=np.float64),
    )


def clean_rows(table: CleanTable) -> list[CleanRow]:
    """The rows of a CleanTable, in table order."""
    users = [table.user.values[code] for code in table.user.codes.tolist()]
    days = [day_of(d) for d in table.day.tolist()]
    columns = (users, days, table.slot.tolist(), table.lat.tolist(), table.lon.tolist())
    return [CleanRow(*row) for row in zip(*columns)]


def day(offset: int) -> date:
    return START + timedelta(days=offset)


def make_encounter_set(
    events: list[tuple[int, int]] | list[tuple[int, int, str]],
    n_common_days: int = 14,
    pair: tuple[str, str] = ("alice", "bob"),
) -> EncounterSet:
    """EncounterSet from (day_offset, slot[, cell]) tuples."""
    lo, hi = min(pair), max(pair)
    encounters = []
    seen = set()
    for event in events:
        day_offset, slot = event[0], event[1]
        cell = event[2] if len(event) > 2 else "tsz0000g"
        key = (day_offset, slot)
        assert key not in seen, f"duplicate (day, slot) in test data: {key}"
        seen.add(key)
        assert day_offset < n_common_days
        encounters.append(
            Encounter(user_lo=lo, user_hi=hi, day=day(day_offset), slot=slot, cell=cell)
        )
    return EncounterSet(
        common_days=tuple(day(i) for i in range(n_common_days)),
        encounters=tuple(encounters),
    )


def encounter_set_from_counts(
    counts: list[int] | tuple[int, ...],
    width_t: int,
    n_common_days: int = 14,
    pair: tuple[str, str] = ("alice", "bob"),
) -> EncounterSet:
    """EncounterSet whose interval counts at width_t equal the given counts.

    Each bin's encounters go to the bin's first slot, spread over days.
    """
    events = []
    for bin_index, count in enumerate(counts):
        assert count <= n_common_days, "cannot spread bin over distinct days"
        slot = (bin_index * width_t) // 5
        for i in range(count):
            events.append((i, slot))
    # same slot may repeat across bins only if bins differ, and it cannot:
    # distinct bins have distinct start slots, so (day, slot) stays unique
    return make_encounter_set(events, n_common_days=n_common_days, pair=pair)


def brute_force_encounters(
    rows: Sequence[CleanRow],
    valid_days: Mapping[str, tuple[date, ...]],
    threshold_m: float,
    min_common_days: int,
    pairs: Iterable[tuple[str, str]] | None = None,
) -> dict[tuple[str, str], EncounterSet]:
    """What `detect_encounters` returns, by comparing every two rows of a (day, slot).

    The last row per (user, day, slot) counts; a hit is a scalar
    `haversine_m` within the threshold on a common day, labelled with
    the scalar `geohash_encode` of the midpoint.
    """
    last = {(row.user_id, row.day, row.slot): row for row in rows}
    by_time: dict[tuple[date, int], list[CleanRow]] = {}
    for (_, day_, slot), row in last.items():
        by_time.setdefault((day_, slot), []).append(row)
    if pairs is None:
        users = sorted(valid_days)
        wanted = [(a, b) for i, a in enumerate(users) for b in users[i + 1 :]]
    else:
        wanted = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    shared = {}
    for lo, hi in wanted:
        if lo in valid_days and hi in valid_days:
            days = common_days(valid_days[lo], valid_days[hi])
            if len(days) >= min_common_days:
                shared[(lo, hi)] = days
    found: dict[tuple[str, str], list[Encounter]] = {pair: [] for pair in shared}
    for (day_, slot), group in sorted(by_time.items()):
        for p, q in combinations(sorted(group), 2):
            pair = (p.user_id, q.user_id)
            if pair in shared and day_ in shared[pair] and haversine_m(p.lat, p.lon, q.lat, q.lon) <= threshold_m:
                cell = geohash_encode((p.lat + q.lat) / 2.0, (p.lon + q.lon) / 2.0, 8)
                found[pair].append(Encounter(*pair, day_, slot, cell))
    return {pair: EncounterSet(days, tuple(found[pair])) for pair, days in shared.items()}


def read_table(path: str | Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Parse an artifact back into (meta, columns, rows) with csv.

    The '#' key=value lines before the header are the meta.
    """
    meta: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        for line in handle:
            if not line.startswith("#"):
                break
            key, equals, value = line.lstrip("#").strip().partition("=")
            if equals:
                meta[key.strip()] = value.strip()
        columns, *rows = csv.reader(chain([line], handle))
    return meta, columns, rows


def geohash_decode_bounds(code: str) -> tuple[float, float, float, float]:
    """Return the (lat_lo, lat_hi, lon_lo, lon_hi) bounding box of a cell."""
    if not code:
        raise ValueError("empty geohash")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    even = True
    for ch in code:
        try:
            value = GEOHASH_BASE32.index(ch)
        except ValueError:
            raise ValueError(f"invalid geohash character: {ch!r}") from None
        for shift in range(4, -1, -1):
            bit = (value >> shift) & 1
            if even:
                mid = (lon_lo + lon_hi) / 2.0
                if bit:
                    lon_lo = mid
                else:
                    lon_hi = mid
            else:
                mid = (lat_lo + lat_hi) / 2.0
                if bit:
                    lat_lo = mid
                else:
                    lat_hi = mid
            even = not even
    return lat_lo, lat_hi, lon_lo, lon_hi


def common_days(a: tuple[date, ...], b: tuple[date, ...]) -> tuple[date, ...]:
    """Chronological intersection of two users' valid days."""
    return tuple(sorted(set(a) & set(b)))


def first_days(es: EncounterSet, d: int) -> EncounterSet | None:
    """The pair restricted to its first d common days; None if fewer exist.

    The oracle of `ObservationTable.temporal_diversity`'s horizon: the
    encounters it keeps are those on one of the first d common days.
    """
    if es.n_common_days < d:
        return None
    horizon = es.common_days[:d]
    kept = set(horizon)
    return EncounterSet(horizon, tuple(e for e in es.encounters if e.day in kept))


def iso_utc_texts(t_us: np.ndarray) -> list[str]:
    """`datetime.isoformat()` of each UTC instant, as `fixes.csv` stores it."""
    return [from_epoch_us(t).isoformat() for t in t_us.tolist()]


def lexsort_winners(fixes: FixTable, zone_offset_minutes: int) -> np.ndarray:
    """The row the dedupe keeps of each (user, day, slot) key, in key order, found by one sort.

    Rows are sorted by key, accuracy, time, lat, lon and position, in
    numpy's order (0.0 ties -0.0, NaN last); each key's first row wins.
    """
    day, slot = snap_to_slots(fixes.t_us, zone_offset_minutes)
    user = fixes.user.codes
    order = np.lexsort((fixes.lon, fixes.lat, fixes.t_us, fixes.accuracy, slot, day, user))
    key = np.stack((user[order], day[order], slot[order]))
    first = np.ones(len(order), dtype=bool)
    first[1:] = (key[:, 1:] != key[:, :-1]).any(axis=0)
    return order[first]
