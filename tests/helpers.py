"""Shared builders for test fixtures."""

from __future__ import annotations

from datetime import date, timedelta

from tiediv.encounter import Encounter, EncounterSet

START = date(2016, 4, 1)


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
