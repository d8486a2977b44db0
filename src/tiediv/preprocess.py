"""Cleaning pipeline from raw fixes to per-user day-slot grids.

Steps, in order: local-time date window, accuracy cutoff, snapping to
the 5-minute grid, per-slot dedup, day-coverage filter, minimum-days
filter, and restriction to surveyed users. Day attribution happens in
local time (schedules are local-time phenomena), with a configurable
fixed UTC offset.

Every step works on whole columns of a `FixTable`: the window and
accuracy filters are masks on epoch microseconds and accuracy, snapping
is integer arithmetic on local whole seconds, dedup is one `np.lexsort`
that keeps the first row of each (user, day, slot), and coverage is a
count per user-day. The survivors come back as a `CleanTable` of
columns. `snap_to_slot` is the scalar definition of the snapping that
`snap_to_slots` applies to a column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from math import ceil
from typing import Iterable

import numpy as np

from .ingest import US_PER_S, ColumnTable, FixTable, SurveyRecord, TextColumn

SLOT_SECONDS = 300
SLOTS_PER_DAY = 288  # 24h of 5-minute slots
SECONDS_PER_DAY = 86400
EPOCH_DAY = date(1970, 1, 1)


def epoch_day(day: date) -> int:
    return (day - EPOCH_DAY).days


def day_of(epoch_days: int) -> date:
    return EPOCH_DAY + timedelta(days=epoch_days)


@dataclass(frozen=True, eq=False)
class CleanTable(ColumnTable):
    """Deduplicated fixes, each snapped to one 5-minute slot of a local day.

    Row i of every column is one fix.
    """

    user: TextColumn
    day: np.ndarray  # int64 local days since 1970-01-01
    slot: np.ndarray  # int64 0..287
    lat: np.ndarray  # float64 degrees
    lon: np.ndarray


@dataclass(frozen=True)
class ValidDaySet:
    """The local days on which a user's coverage was good enough to keep."""

    user_id: str
    days: tuple[date, ...]  # chronological


@dataclass(frozen=True)
class PreprocessConfig:
    """Cleaning thresholds. Defaults mirror the study's April window."""

    window_start: date = date(2016, 4, 1)
    window_end: date = date(2016, 5, 1)  # closed interval: local midnight included
    zone_offset_minutes: int = 330  # +05:30
    accuracy_cutoff_m: float = 60.0
    coverage_fraction: float = 0.2
    min_days: int = 5
    min_common_days: int = 7


@dataclass
class PreprocessResult:
    clean_fixes: CleanTable
    valid_days: dict[str, ValidDaySet]
    retained_users: frozenset[str]
    counts: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def snap_to_slot(timestamp: datetime, zone_offset_minutes: int) -> tuple[date, int]:
    """Round a UTC instant to the nearest 5-minute slot of its local day.

    Exact midpoints (150 s past a boundary) round up; rounding up past
    23:57:30 rolls into slot 0 of the next day.
    """
    if timestamp.tzinfo is None:
        raise ValueError("timestamp must be timezone-aware")
    local = timestamp.astimezone(timezone(timedelta(minutes=zone_offset_minutes)))
    seconds = local.hour * 3600 + local.minute * 60 + local.second
    slot = (seconds + SLOT_SECONDS // 2) // SLOT_SECONDS
    day = local.date()
    if slot == SLOTS_PER_DAY:
        return day + timedelta(days=1), 0
    return day, slot


def snap_to_slots(t_us: np.ndarray, zone_offset_minutes: int) -> tuple[np.ndarray, np.ndarray]:
    """`snap_to_slot` of a column of epoch microseconds: (epoch days, slots).

    Like the scalar version it drops the microseconds (floor to whole
    local seconds) before rounding to the nearest slot.
    """
    local_s = (t_us + zone_offset_minutes * 60 * US_PER_S) // US_PER_S
    day = local_s // SECONDS_PER_DAY
    slot = (local_s - day * SECONDS_PER_DAY + SLOT_SECONDS // 2) // SLOT_SECONDS
    rolled = slot == SLOTS_PER_DAY
    return day + rolled, np.where(rolled, 0, slot)


def coverage_threshold(fraction: float) -> int:
    """Minimum occupied slots for a user-day to count as covered."""
    return ceil(fraction * SLOTS_PER_DAY)


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows of sorted keys that start a new group."""
    n = len(keys[0])
    start = np.zeros(n, dtype=bool)
    if n:
        start[0] = True
        for key in keys:
            start[1:] |= key[1:] != key[:-1]
    return start


def filter_pipeline(
    fixes: FixTable,
    survey: Iterable[SurveyRecord],
    config: PreprocessConfig | None = None,
) -> PreprocessResult:
    """Run the full cleaning pipeline.

    Returns the surviving fixes, each retained user's valid-day set, and
    the retained-user set. An empty survivor set is reported through the
    result's warnings list, never raised.
    """
    cfg = config or PreprocessConfig()
    offset_us = cfg.zone_offset_minutes * 60 * US_PER_S

    def local_midnight_us(day: date) -> int:
        return epoch_day(day) * SECONDS_PER_DAY * US_PER_S - offset_us

    counts: dict[str, int] = {"input_fixes": len(fixes)}
    t_us = fixes.t_us
    start_us, end_us = local_midnight_us(cfg.window_start), local_midnight_us(cfg.window_end)
    keep = (t_us >= start_us) & (t_us <= end_us)  # closed at both ends
    counts["in_window"] = int(keep.sum())
    keep &= fixes.accuracy < cfg.accuracy_cutoff_m
    counts["accurate"] = int(keep.sum())

    # dedup: per (user, day, slot) the smallest accuracy survives; ties go
    # to the earliest raw timestamp, then the smallest (lat, lon), then
    # the earlier row
    rows = np.flatnonzero(keep)
    user = fixes.user.codes[rows]
    day, slot = snap_to_slots(t_us[rows], cfg.zone_offset_minutes)
    lat, lon = fixes.lat[rows], fixes.lon[rows]
    order = np.lexsort((lon, lat, t_us[rows], fixes.accuracy[rows], slot, day, user))
    user, day, slot, lat, lon = (col[order] for col in (user, day, slot, lat, lon))
    first = _starts(user, day, slot)
    user, day, slot, lat, lon = (col[first] for col in (user, day, slot, lat, lon))
    counts["deduped"] = len(user)

    # day-coverage filter: a user-day survives with >= ceil(f * 288) slots
    user_day_start = np.flatnonzero(_starts(user, day))
    n_slots = np.diff(np.append(user_day_start, len(user)))
    good = n_slots >= coverage_threshold(cfg.coverage_fraction)
    good_user = user[user_day_start[good]]
    good_day = day[user_day_start[good]]
    days_per_user = np.bincount(good_user, minlength=len(fixes.user.values))

    surveyed = {u for rec in survey for u in (rec.rater_id, rec.ratee_id)}
    names = fixes.user.values
    retained_codes = [
        code
        for code in np.flatnonzero(days_per_user >= max(cfg.min_days, 1)).tolist()
        if names[code] in surveyed
    ]
    valid_days = {
        names[code]: ValidDaySet(
            user_id=names[code],
            days=tuple(day_of(d) for d in good_day[good_user == code].tolist()),
        )
        for code in retained_codes
    }
    kept_user_day = good & np.isin(user[user_day_start], retained_codes)
    clean_rows = np.repeat(kept_user_day, n_slots)
    clean = CleanTable(
        user=TextColumn(user[clean_rows], names),
        day=day[clean_rows],
        slot=slot[clean_rows],
        lat=lat[clean_rows],
        lon=lon[clean_rows],
    )
    counts["clean_fixes"] = len(clean)
    counts["users_with_good_days"] = int(np.count_nonzero(days_per_user))
    counts["retained_users"] = len(retained_codes)

    warnings: list[str] = []
    if not len(clean):
        warnings.append("empty survivor set: no fixes pass the cleaning pipeline")

    return PreprocessResult(
        clean_fixes=clean,
        valid_days=valid_days,
        retained_users=frozenset(valid_days),
        counts=counts,
        warnings=warnings,
    )


# raw 0..5 closeness -> regrouped 0..4 ("Friends" and "Sort of friends" merge)
_REGROUP = {0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 5: 4}


def regroup_closeness(closeness_raw: int) -> int:
    """Collapse the raw 0-5 closeness scale to the 5-level 0-4 scale."""
    try:
        return _REGROUP[closeness_raw]
    except KeyError:
        raise ValueError(f"closeness must be in 0..5, got {closeness_raw}") from None


def common_days(a: ValidDaySet, b: ValidDaySet) -> tuple[date, ...]:
    """Chronological intersection of two users' valid-day sets."""
    shared = set(a.days) & set(b.days)
    return tuple(sorted(shared))
