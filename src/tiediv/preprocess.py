"""Cleaning pipeline from raw fixes to per-user day-slot grids.

Steps, in order: local-time date window, accuracy cutoff, snapping to
the 5-minute grid, per-slot dedup, day-coverage filter, minimum-days
filter, and restriction to surveyed users. Day attribution happens in
local time (schedules are local-time phenomena), with a configurable
fixed UTC offset. `filter_pipeline` reads the window, the zone offset and
the thresholds from the run's `RunConfig`; its defaults are the study's
April window at +05:30.

Every step works on whole columns of a `FixTable`: the window and
accuracy filters are masks on epoch microseconds and accuracy, snapping
is integer arithmetic on local whole seconds, and coverage is a count
per user-day. Dedup packs each row's (user, day, slot) into one int64
and groups the rows by one stable argsort; among the rows whose key
repeats, segmented minima of the tie-break columns pick each key's row.
The survivors come back as a `CleanTable` of columns. `snap_to_slot` is
the scalar definition of the snapping that `snap_to_slots` applies to a
column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from math import ceil
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .ingest import US_PER_S, ColumnTable, FixTable, SurveyRecord, TextColumn, position_checks, run_config

if TYPE_CHECKING:
    from .config import RunConfig

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


def slot_check(slot: np.ndarray) -> tuple[np.ndarray, str]:
    """The range check of a slot: (mask of the rows outside 0..287, reason)."""
    return ~((slot >= 0) & (slot < SLOTS_PER_DAY)), "slot out of range"


def clean_fix_checks(slot: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """The range checks of a clean fix, in order: its slot, then its position as ingest checks it."""
    return [slot_check(slot), *position_checks(lat, lon)]


@dataclass
class PreprocessResult:
    clean_fixes: CleanTable
    # by retained user: the chronological local days whose coverage was good enough to keep
    valid_days: dict[str, tuple[date, ...]]
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


# local days since 0001-01-01 (`date.min`); every window's days lie within
# `_DAYS` of it, so (user code, day, slot) packs into an int64 below
# 2**31 * _DAYS * SLOTS_PER_DAY < 2**62
_FIRST_DAY = epoch_day(date.min)
_DAYS = (date.max - date.min).days + 1


def _packed_key(user: np.ndarray, day: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """One int64 per (user, day, slot) that sorts as the triple does."""
    return (user.astype(np.int64) * _DAYS + (day - _FIRST_DAY)) * SLOTS_PER_DAY + slot


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
    config: RunConfig | None = None,
) -> PreprocessResult:
    """Run the full cleaning pipeline.

    Returns the surviving fixes and each retained user's valid days.
    An empty survivor set is reported through the result's warnings list,
    never raised.
    """
    cfg = run_config(config)
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
    # the earlier row. Rows are sorted by their packed key; among the rows
    # whose key repeats, each tie-break column keeps the rows at their
    # group's minimum (`fmin`: 0.0 ties -0.0, NaN stays only if all are).
    rows = np.flatnonzero(keep)
    user = fixes.user.codes[rows]
    day, slot = snap_to_slots(t_us[rows], cfg.zone_offset_minutes)
    key = _packed_key(user, day, slot)
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = _starts(key)
    first = order[start]
    repeats = ~start
    repeats[:-1] |= ~start[1:]
    if repeats.any():
        tied = order[repeats]
        group = np.cumsum(start[repeats]) - 1
        for column in (fixes.accuracy, t_us, fixes.lat, fixes.lon):
            values = column[rows[tied]]
            least = np.fmin.reduceat(values, np.flatnonzero(_starts(group)))[group]
            kept = (values == least) | (least != least)
            tied, group = tied[kept], group[kept]
        first[repeats[start]] = tied[_starts(group)]
    user, day, slot = user[first], day[first], slot[first]
    lat, lon = fixes.lat[rows[first]], fixes.lon[rows[first]]
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
        for code in np.flatnonzero(days_per_user >= cfg.min_days).tolist()
        if names[code] in surveyed
    ]
    valid_days = {
        names[code]: tuple(day_of(d) for d in good_day[good_user == code].tolist())
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
