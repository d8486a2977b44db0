"""Cleaning pipeline from raw fixes to per-user day-slot grids.

Steps, in order: local-time date window, accuracy cutoff, snapping to
the 5-minute grid, per-slot dedup, day-coverage filter, minimum-days
filter, and restriction to surveyed users. Day attribution happens in
local time (schedules are local-time phenomena), with a configurable
fixed UTC offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from math import ceil
from typing import Iterable

from .ingest import RawFix, SurveyRecord

SLOT_SECONDS = 300
SLOTS_PER_DAY = 288  # 24h of 5-minute slots


@dataclass(frozen=True)
class CleanFix:
    """A deduplicated fix snapped to one 5-minute slot of a local day."""

    user_id: str
    day: date
    slot: int  # 0..287
    lat: float
    lon: float


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
    clean_fixes: list[CleanFix]
    valid_days: dict[str, ValidDaySet]
    retained_users: frozenset[str]
    counts: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


# internal carrier between snapping and dedup: keeps the quality fields
# that the dedup tie-break needs but CleanFix no longer carries
@dataclass(frozen=True)
class SlotCandidate:
    user_id: str
    day: date
    slot: int
    lat: float
    lon: float
    accuracy: float
    timestamp: datetime


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


def dedupe(candidates: Iterable[SlotCandidate]) -> list[CleanFix]:
    """Keep exactly one fix per (user, day, slot).

    The survivor is the candidate with the smallest accuracy; ties go to
    the earliest raw timestamp, then lexicographically smallest (lat, lon).
    """
    best: dict[tuple[str, date, int], SlotCandidate] = {}
    for cand in candidates:
        key = (cand.user_id, cand.day, cand.slot)
        cur = best.get(key)
        if cur is None or (
            (cand.accuracy, cand.timestamp, cand.lat, cand.lon)
            < (cur.accuracy, cur.timestamp, cur.lat, cur.lon)
        ):
            best[key] = cand
    return [
        CleanFix(user_id=c.user_id, day=c.day, slot=c.slot, lat=c.lat, lon=c.lon)
        for _, c in sorted(best.items(), key=lambda kv: kv[0])
    ]


def coverage_threshold(fraction: float) -> int:
    """Minimum occupied slots for a user-day to count as covered."""
    return ceil(fraction * SLOTS_PER_DAY)


def filter_pipeline(
    fixes: Iterable[RawFix],
    survey: Iterable[SurveyRecord],
    config: PreprocessConfig | None = None,
) -> PreprocessResult:
    """Run the full cleaning pipeline.

    Returns the surviving fixes, each retained user's valid-day set, and
    the retained-user set. An empty survivor set is reported through the
    result's warnings list, never raised.
    """
    cfg = config or PreprocessConfig()
    tz = timezone(timedelta(minutes=cfg.zone_offset_minutes))
    start_dt = datetime.combine(cfg.window_start, time(0, 0), tzinfo=tz)
    end_dt = datetime.combine(cfg.window_end, time(0, 0), tzinfo=tz)

    counts: dict[str, int] = {}
    fixes = list(fixes)
    counts["input_fixes"] = len(fixes)

    windowed = [f for f in fixes if start_dt <= f.timestamp.astimezone(tz) <= end_dt]
    counts["in_window"] = len(windowed)

    accurate = [f for f in windowed if f.accuracy < cfg.accuracy_cutoff_m]
    counts["accurate"] = len(accurate)

    candidates = []
    for f in accurate:
        day, slot = snap_to_slot(f.timestamp, cfg.zone_offset_minutes)
        candidates.append(
            SlotCandidate(
                user_id=f.user_id,
                day=day,
                slot=slot,
                lat=f.lat,
                lon=f.lon,
                accuracy=f.accuracy,
                timestamp=f.timestamp,
            )
        )
    snapped = dedupe(candidates)
    counts["deduped"] = len(snapped)

    # day-coverage filter: a user-day survives with >= ceil(f * 288) slots
    threshold = coverage_threshold(cfg.coverage_fraction)
    slots_per_user_day: dict[tuple[str, date], int] = {}
    for fix in snapped:
        key = (fix.user_id, fix.day)
        slots_per_user_day[key] = slots_per_user_day.get(key, 0) + 1
    good_days: dict[str, list[date]] = {}
    for (user, day), n_slots in sorted(slots_per_user_day.items()):
        if n_slots >= threshold:
            good_days.setdefault(user, []).append(day)

    surveyed = set()
    for rec in survey:
        surveyed.add(rec.rater_id)
        surveyed.add(rec.ratee_id)

    retained = frozenset(
        user
        for user, days in good_days.items()
        if len(days) >= cfg.min_days and user in surveyed
    )
    valid_days = {
        user: ValidDaySet(user_id=user, days=tuple(sorted(good_days[user])))
        for user in sorted(retained)
    }
    kept_user_days = {
        (user, day) for user in retained for day in valid_days[user].days
    }
    clean = [f for f in snapped if (f.user_id, f.day) in kept_user_days]
    counts["clean_fixes"] = len(clean)
    counts["users_with_good_days"] = len(good_days)
    counts["retained_users"] = len(retained)

    warnings: list[str] = []
    if not clean:
        warnings.append("empty survivor set: no fixes pass the cleaning pipeline")

    return PreprocessResult(
        clean_fixes=clean,
        valid_days=valid_days,
        retained_users=retained,
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
