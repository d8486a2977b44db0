"""Synthetic mobility traces with known ground truth.

Two pair archetypes with identical expected encounter rates but
opposite temporal structure:

- "scheduled" pairs meet only inside fixed daily slots (plus a small
  jitter), the way lecture or mealtime routines work;
- "social" pairs meet at uniformly random slots of the day.

Each planned meeting actually happens with probability ``meet_prob``
(the same for both archetypes), so per-day encounter counts carry some
archetype-independent noise instead of being a degenerate constant.
Pairs live on a coarse lattice far apart from each other, so encounters
only ever happen within a pair. The implied survey labels the
archetypes closeness 1 (scheduled) versus 5 (social), which the
regrouping maps to 1 versus 4.

The fixes come back as a `CleanTable`. The random draws are made per
pair and per day, in that order, and only decide each day's meeting
slots and places; the columns are then built in bulk from those slots.
`gps_log` turns the table into the raw GPS log that `tiediv synth`
writes, with each fix at the UTC instant its local slot starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .ingest import US_PER_S, FixTable, SurveyRecord, TextColumn
from .preprocess import SECONDS_PER_DAY, SLOT_SECONDS, SLOTS_PER_DAY, CleanTable, epoch_day

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


@dataclass(frozen=True)
class SynthConfig:
    n_pairs_per_archetype: int = 100
    n_days: int = 14
    encounters_per_day: int = 3
    schedule_slots: tuple[int, ...] = (102, 150, 222)  # 08:30, 12:30, 18:30
    jitter_slots: int = 1
    meet_prob: float = 0.9
    n_places: int = 3
    coverage_slots: int = 60  # occupied slots per user-day
    start_day: date = date(2016, 4, 1)
    seed: int = 0


@dataclass(frozen=True)
class SynthResult:
    fixes: CleanTable  # per pair and day: the meetings, then the solo slots; user a before b
    survey: list[SurveyRecord]
    archetypes: dict[tuple[str, str], str]  # canonical pair -> archetype


def _validate(cfg: SynthConfig) -> None:
    if cfg.n_pairs_per_archetype < 1:
        raise ValueError("need at least one pair per archetype")
    if cfg.n_days < 1:
        raise ValueError("need at least one day")
    if not 1 <= cfg.encounters_per_day <= SLOTS_PER_DAY:
        raise ValueError(
            f"encounters_per_day must be in 1..{SLOTS_PER_DAY}, "
            f"got {cfg.encounters_per_day}"
        )
    if cfg.encounters_per_day > len(cfg.schedule_slots):
        raise ValueError(
            f"{cfg.encounters_per_day} encounters/day need at least that many "
            f"schedule slots, got {len(cfg.schedule_slots)}"
        )
    if cfg.jitter_slots < 0:
        raise ValueError("jitter must be non-negative")
    for slot in cfg.schedule_slots:
        if slot - cfg.jitter_slots < 0 or slot + cfg.jitter_slots >= SLOTS_PER_DAY:
            raise ValueError(f"schedule slot {slot} +- jitter leaves the day")
    ordered = sorted(cfg.schedule_slots)
    for a, b in zip(ordered, ordered[1:]):
        if b - a <= 2 * cfg.jitter_slots:
            raise ValueError(
                "schedule slots closer than 2*jitter could collide into one slot"
            )
    if not 0.0 <= cfg.meet_prob <= 1.0:
        raise ValueError("meet_prob must be in [0, 1]")
    if cfg.n_places < 1:
        raise ValueError("need at least one meeting place")
    if not cfg.encounters_per_day <= cfg.coverage_slots <= SLOTS_PER_DAY:
        raise ValueError(
            f"coverage_slots must be in {cfg.encounters_per_day}..{SLOTS_PER_DAY}"
        )


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


def synth_generate(cfg: SynthConfig | None = None) -> SynthResult:
    """Generate clean fixes and an implied survey, deterministically per seed."""
    cfg = cfg or SynthConfig()
    _validate(cfg)
    rng = np.random.default_rng(cfg.seed)

    users: list[str] = []  # user a and user b of each pair
    spots: list[list[tuple[float, float]]] = []  # per pair: its places, solo a, solo b
    slots: list[int] = []  # per pair-day: its meeting slots, then its solo slots
    places: list[int] = []  # each slot's place index, or -1 for a solo slot
    n_slots: list[int] = []  # slots per pair-day
    survey: list[SurveyRecord] = []
    archetypes: dict[tuple[str, str], str] = {}

    n = cfg.n_pairs_per_archetype
    for pair_index in range(2 * n):
        archetype = SCHEDULED if pair_index < n else SOCIAL
        tag = "sch" if archetype == SCHEDULED else "soc"
        user_a = f"{tag}{pair_index % n:03d}a"
        user_b = f"{tag}{pair_index % n:03d}b"
        pair_places, solo_a, solo_b = _pair_geometry(pair_index, cfg.n_places)
        users += [user_a, user_b]
        spots.append(pair_places + [solo_a, solo_b])
        archetypes[(user_a, user_b)] = archetype

        for _ in range(cfg.n_days):
            meetings: dict[int, int] = {}  # slot -> place index
            if archetype == SCHEDULED:
                for idx in range(cfg.encounters_per_day):
                    if rng.random() >= cfg.meet_prob:
                        continue
                    slot = cfg.schedule_slots[idx] + int(
                        rng.integers(-cfg.jitter_slots, cfg.jitter_slots + 1)
                    )
                    meetings[slot] = idx % cfg.n_places
            else:
                n_meet = int(rng.binomial(cfg.encounters_per_day, cfg.meet_prob))
                if n_meet:
                    drawn = rng.choice(SLOTS_PER_DAY, size=n_meet, replace=False)
                    for slot in sorted(int(s) for s in drawn):
                        meetings[slot] = int(rng.integers(0, cfg.n_places))

            meeting_slots = sorted(meetings)
            solo = _solo_slots(set(meetings), cfg.coverage_slots)
            slots += meeting_slots + solo
            places += [meetings[slot] for slot in meeting_slots] + [-1] * len(solo)
            n_slots.append(len(meeting_slots) + len(solo))

        closeness = 1 if archetype == SCHEDULED else 5
        proximity = 2 if archetype == SCHEDULED else 4
        survey.append(SurveyRecord(user_a, user_b, closeness, proximity))
        survey.append(SurveyRecord(user_b, user_a, closeness, proximity))

    # two rows per slot: user a's, then user b's; a solo slot puts each at their own spot
    pair, day = np.divmod(np.repeat(np.arange(len(n_slots)), n_slots), cfg.n_days)
    pair, day = np.repeat(pair, 2), np.repeat(day, 2)
    side = np.tile([0, 1], len(slots))
    place = np.repeat(np.array(places, dtype=np.int64), 2)
    place = np.where(place >= 0, place, cfg.n_places + side)
    spot = np.array(spots, dtype=np.float64)  # (pair, place, lat/lon)
    user = TextColumn.of(users)
    fixes = CleanTable(
        user=TextColumn(user.codes[2 * pair + side], user.values),
        day=day + epoch_day(cfg.start_day),
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


def survey_to_rows(survey: list[SurveyRecord]) -> list[list[str]]:
    """Serialize survey records in the survey input format (header included)."""
    rows = [["rater_id", "ratee_id", "closeness", "proximity"]]
    for rec in survey:
        rows.append(
            [rec.rater_id, rec.ratee_id, str(rec.closeness_raw), str(rec.proximity_raw)]
        )
    return rows
