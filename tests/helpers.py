"""Shared builders for test fixtures."""

from __future__ import annotations

from datetime import date, timedelta
from typing import NamedTuple, Sequence

import numpy as np

from tiediv.encounter import Encounter, EncounterSet
from tiediv.ingest import FixTable, RawFix, TextColumn, to_epoch_us
from tiediv.preprocess import CleanTable, day_of, epoch_day

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
        user_lo=lo,
        user_hi=hi,
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
