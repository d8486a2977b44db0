"""Synthetic mobility traces with known ground truth.

Two pair archetypes with identical expected encounter rates but
opposite temporal structure:

- "scheduled" pairs meet only inside fixed daily slots (plus a small
  jitter), the way lecture or mealtime routines work;
- "social" pairs meet at uniformly random slots of the day.

Each planned meeting actually happens with probability
``synth_meet_prob`` (the same for both archetypes), so per-day encounter
counts carry some archetype-independent noise instead of being a
degenerate constant. Pairs live on a coarse lattice far apart from each
other, so encounters only ever happen within a pair. The implied survey
labels the archetypes closeness 1 (scheduled) versus 5 (social), which
the regrouping maps to 1 versus 4.

`synth_generate` reads the `synth_*` fields, `window_start` (the first
day) and `seed` of the run's `RunConfig`. The fixes come back as a
`CleanTable`. The random draws are made per pair and per day, in that
order, and only decide each day's meeting slots and places; the columns
are then built in bulk from those slots.
`gps_log` turns the table into the raw GPS log that `tiediv synth`
writes, with each fix at the UTC instant its local slot starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .ingest import US_PER_S, FixTable, SurveyRecord, TextColumn, run_config
from .preprocess import SECONDS_PER_DAY, SLOT_SECONDS, SLOTS_PER_DAY, CleanTable, epoch_day

if TYPE_CHECKING:
    from .config import RunConfig

# pair areas sit on a 0.1 degree lattice (~11 km apart); within a pair,
# meeting places are ~200 m apart and solo spots ~450 m off to the side,
# so nothing but a planned meeting ever comes within a realistic
# co-location threshold
_BASE_LAT = 23.19
_BASE_LON = 72.63
_LATTICE_STEP_DEG = 0.1
_LATTICE_COLS = 20
_PLACE_STEP_DEG = 0.002
_SOLO_OFFSET_DEG = 0.004
_ACCURACY_M = 8.0

SCHEDULED = "scheduled"
SOCIAL = "social"
# the header of a survey input file, under which the survey's records are its rows
SURVEY_HEADER = ("rater_id", "ratee_id", "closeness", "proximity")


@dataclass(frozen=True)
class SynthResult:
    fixes: CleanTable  # per pair and day: the meetings, then the solo slots; user a before b
    survey: list[SurveyRecord]
    archetypes: dict[tuple[str, str], str]  # canonical pair -> archetype


def _pair_geometry(pair_index: int, n_places: int):
    row, col = divmod(pair_index, _LATTICE_COLS)
    base_lat = _BASE_LAT + row * _LATTICE_STEP_DEG
    base_lon = _BASE_LON + col * _LATTICE_STEP_DEG
    places = [(base_lat, base_lon + k * _PLACE_STEP_DEG) for k in range(n_places)]
    solo_a = (base_lat + _SOLO_OFFSET_DEG, base_lon)
    solo_b = (base_lat - _SOLO_OFFSET_DEG, base_lon)
    return places, solo_a, solo_b


def _solo_slots(meeting_slots: set[int], coverage_slots: int) -> list[int]:
    """Deterministic filler slots: evenly strided, then ascending scan."""
    occupied = set(meeting_slots)
    stride = max(1, SLOTS_PER_DAY // coverage_slots)
    for slot in list(range(0, SLOTS_PER_DAY, stride)) + list(range(SLOTS_PER_DAY)):
        if len(occupied) >= coverage_slots:
            break
        occupied.add(slot)
    return sorted(occupied - meeting_slots)


def synth_generate(config: RunConfig | None = None) -> SynthResult:
    """Generate clean fixes and an implied survey, deterministically per seed."""
    cfg = run_config(config)
    rng = np.random.default_rng(cfg.seed)

    users: list[str] = []  # user a and user b of each pair
    spots: list[list[tuple[float, float]]] = []  # per pair: its places, solo a, solo b
    slots: list[int] = []  # per pair-day: its meeting slots, then its solo slots
    places: list[int] = []  # each slot's place index, or -1 for a solo slot
    n_slots: list[int] = []  # slots per pair-day
    survey: list[SurveyRecord] = []
    archetypes: dict[tuple[str, str], str] = {}

    n = cfg.synth_pairs
    for pair_index in range(2 * n):
        archetype = SCHEDULED if pair_index < n else SOCIAL
        tag = "sch" if archetype == SCHEDULED else "soc"
        user_a = f"{tag}{pair_index % n:03d}a"
        user_b = f"{tag}{pair_index % n:03d}b"
        pair_places, solo_a, solo_b = _pair_geometry(pair_index, cfg.synth_places)
        users += [user_a, user_b]
        spots.append(pair_places + [solo_a, solo_b])
        archetypes[(user_a, user_b)] = archetype

        for _ in range(cfg.synth_days):
            meetings: dict[int, int] = {}  # slot -> place index
            if archetype == SCHEDULED:
                for idx in range(cfg.synth_encounters_per_day):
                    if rng.random() >= cfg.synth_meet_prob:
                        continue
                    slot = cfg.synth_schedule_slots[idx] + int(
                        rng.integers(-cfg.synth_jitter, cfg.synth_jitter + 1)
                    )
                    meetings[slot] = idx % cfg.synth_places
            else:
                n_meet = int(rng.binomial(cfg.synth_encounters_per_day, cfg.synth_meet_prob))
                if n_meet:
                    drawn = rng.choice(SLOTS_PER_DAY, size=n_meet, replace=False)
                    for slot in sorted(int(s) for s in drawn):
                        meetings[slot] = int(rng.integers(0, cfg.synth_places))

            meeting_slots = sorted(meetings)
            solo = _solo_slots(set(meetings), cfg.synth_coverage_slots)
            slots += meeting_slots + solo
            places += [meetings[slot] for slot in meeting_slots] + [-1] * len(solo)
            n_slots.append(len(meeting_slots) + len(solo))

        closeness = 1 if archetype == SCHEDULED else 5
        proximity = 2 if archetype == SCHEDULED else 4
        survey.append(SurveyRecord(user_a, user_b, closeness, proximity))
        survey.append(SurveyRecord(user_b, user_a, closeness, proximity))

    # two rows per slot: user a's, then user b's; a solo slot puts each at their own spot
    pair, day = np.divmod(np.repeat(np.arange(len(n_slots)), n_slots), cfg.synth_days)
    pair, day = np.repeat(pair, 2), np.repeat(day, 2)
    side = np.tile([0, 1], len(slots))
    place = np.repeat(np.array(places, dtype=np.int64), 2)
    place = np.where(place >= 0, place, cfg.synth_places + side)
    spot = np.array(spots, dtype=np.float64)  # (pair, place, lat/lon)
    user = TextColumn.of(users)
    fixes = CleanTable(
        user=TextColumn(user.codes[2 * pair + side], user.values),
        day=day + epoch_day(cfg.window_start),
        slot=np.repeat(np.array(slots, dtype=np.int64), 2),
        lat=spot[pair, place, 0],
        lon=spot[pair, place, 1],
    )
    return SynthResult(fixes=fixes, survey=survey, archetypes=archetypes)


def gps_log(fixes: CleanTable, zone_offset_minutes: int) -> FixTable:
    """The clean fixes as a raw GPS log: each at the UTC instant its local slot starts.

    Accuracy is 8 m, elevation and satellites are blank and the
    provider is `synthetic`. Snapping at the same zone offset maps each
    row back onto exactly its (day, slot).
    """
    n = len(fixes)
    local_s = fixes.day * SECONDS_PER_DAY + fixes.slot * SLOT_SECONDS
    blank = TextColumn(np.zeros(n, dtype=np.int32), ("",))
    return FixTable(
        user=fixes.user,
        t_us=(local_s - zone_offset_minutes * 60) * US_PER_S,
        lat=fixes.lat,
        lon=fixes.lon,
        accuracy=np.full(n, _ACCURACY_M),
        elevation=blank,
        satellites=blank,
        provider=TextColumn(np.zeros(n, dtype=np.int32), ("synthetic",)),
    )

