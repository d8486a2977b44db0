"""Seeded benchmark inputs with their ground truth.

This generator belongs to the benchmark and does not use `tiediv.synth`,
so changes to the program's own synthetic data cannot move the
benchmark. Every spot a user can be at (a pair's meeting places, a
user's home, a shared crowded place) lies at least ~500 m from every
other spot, and fixes are jittered by about a metre. Any two fixes are
therefore either a few metres apart or hundreds of metres apart, far
from the 50 m co-location threshold on both sides, and the encounters
are known by construction: two users meet in a (day, slot) exactly when
the generator put both at the same spot.

Every user occupies 60 slots on each of 14 days. That is above the
default coverage threshold of ceil(0.2 * 288) = 58 slots, so every
user-day is valid, every user is retained and every pair has 14 common
days.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

ZONE = timezone(timedelta(minutes=330))  # the CLI's default --zone-offset
START_DAY = date(2016, 4, 4)  # inside the default April 2016 window
N_DAYS = 14
SLOTS_PER_DAY = 288
SLOT_SECONDS = 300
OCCUPIED_SLOTS = 60
SPACING_DEG = 0.005  # ~510-555 m between distinct spots
JITTER_DEG = 0.00001  # ~1 m

# Crowd density of all_pairs_crowded: the number of shared places and the
# chance that a user who is not meeting its partner is at one of them.
# Both are unverified choices, not taken from the paper or from measured
# campus traffic. Together they make about 98% of all pairs meet at least
# once (encounter.met_ratio ~0.98), a saturated case for the all-pairs scan.
CROWDED_PLACES = 8
CROWDED_SHARED_PROB = 0.4

GPS_HEADER = ["user_id", "timestamp", "lat", "lon", "elevation", "accuracy", "satellites", "provider"]
SURVEY_HEADER = ["rater_id", "ratee_id", "closeness", "proximity"]

# explicit analysis grids (the CLI defaults), so that the expected row
# counts of the analysis artifacts are known to the checker
WIDTH_GRID = (5, 15, 30, 60, 90, 120, 180, 240, 360, 720)
Q_GRID = tuple(round(i / 10, 1) for i in range(1, 21) if i != 10)
MAX_HORIZON = 11

STAGES = (
    "ingest",
    "preprocess",
    "encounters",
    "features",
    "compare",
    "sweep-t",
    "sweep-q",
    "subgroups",
    "evolve",
)


def cli_argv(stage: str) -> list[str]:
    """Arguments of one `tiediv` call, relative to the workload directory."""
    return [
        stage,
        "--gps", "gps.csv",
        "--survey", "survey.csv",
        "-o", "out",
        "--width-grid", ",".join(str(w) for w in WIDTH_GRID),
        "--q-grid", ",".join(str(q) for q in Q_GRID),
        "--max-horizon", str(MAX_HORIZON),
    ]


@dataclass
class Truth:
    """What a correct run must produce from the generated inputs."""

    encounters: set[tuple[str, str, str, int]]  # surveyed pairs: (lo, hi, day, slot)
    n_surveyed_pairs: int
    n_survey_accepted: int
    n_fixes_accepted: int
    n_clean_fixes: int
    n_valid_day_rows: int
    gps_rejected_lines: list[int] = field(default_factory=list)
    survey_rejected_lines: list[int] = field(default_factory=list)
    # all_pairs_crowded only: the encounters of every pair of users
    scan_encounters: set[tuple[str, str, str, int]] | None = None


def _day(day_index: int) -> date:
    return START_DAY + timedelta(days=day_index)


def _instant(day_value: date, slot: int, offset_s: float) -> datetime:
    """UTC instant `offset_s` seconds after the local start of a slot.

    Offsets stay within +-120 s, so the nearest slot is always `slot`.
    """
    local = datetime.combine(day_value, time(0, 0), tzinfo=ZONE)
    return (local + timedelta(seconds=slot * SLOT_SECONDS + offset_s)).astimezone(timezone.utc)


def _iso_utc(instant: datetime) -> str:
    return instant.strftime("%Y-%m-%dT%H:%M:%S+00:00")


def _jitter(rng: random.Random, spot: tuple[float, float]) -> tuple[str, str]:
    lat = spot[0] + rng.uniform(-JITTER_DEG, JITTER_DEG)
    lon = spot[1] + rng.uniform(-JITTER_DEG, JITTER_DEG)
    return f"{lat:.7f}", f"{lon:.7f}"


def _canonical(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _survey_rows(rng: random.Random, pairs: list[tuple[str, str]]) -> list[list[str]]:
    rows = []
    for a, b in pairs:
        for rater, ratee in ((a, b), (b, a)):
            rows.append([rater, ratee, str(rng.randint(0, 5)), str(rng.randint(1, 5))])
    return rows


def _clean_fix_row(rng: random.Random, user: str, instant: datetime, spot) -> list[str]:
    lat, lon = _jitter(rng, spot)
    return [
        user,
        _iso_utc(instant),
        lat,
        lon,
        f"{rng.uniform(40.0, 60.0):.1f}",
        f"{rng.uniform(3.0, 30.0):.1f}",
        str(rng.randint(4, 12)),
        "gps",
    ]


def _pair_day_plan(rng, n_meet, places, home_a, home_b):
    """Slots of one pair-day: where each user is, per occupied slot.

    Returns ({slot: spot} for user a, {slot: spot} for user b, meeting slots).
    """
    meet_slots = rng.sample(range(SLOTS_PER_DAY), n_meet)
    plan_a = {}
    plan_b = {}
    for slot in meet_slots:
        place = rng.choice(places)
        plan_a[slot] = place
        plan_b[slot] = place
    free = [s for s in range(SLOTS_PER_DAY) if s not in plan_a]
    for slot in rng.sample(free, OCCUPIED_SLOTS - n_meet):
        plan_a[slot] = home_a
    for slot in rng.sample(free, OCCUPIED_SLOTS - n_meet):
        plan_b[slot] = home_b
    return plan_a, plan_b, meet_slots


def _pair_geometry(k: int):
    """Meeting places and homes of pair k; pair areas sit ~5 km apart."""
    lat0 = 23.0 + (k // 20) * 0.05
    lon0 = 72.5 + (k % 20) * 0.05
    places = [(lat0, lon0 + j * SPACING_DEG) for j in range(3)]
    home_a = (lat0 + 2 * SPACING_DEG, lon0)
    home_b = (lat0 - 2 * SPACING_DEG, lon0)
    return places, home_a, home_b


def _pair_users(k: int) -> tuple[str, str]:
    return f"p{k:03d}a", f"p{k:03d}b"


def _plan_pairs(rng: random.Random, n_pairs: int):
    """Per-pair day plans; pair k meets 1 + k % 6 times a day."""
    plans = {}  # user -> list over days of {slot: spot}
    truth = set()
    pairs = []
    for k in range(n_pairs):
        a, b = _pair_users(k)
        pairs.append((a, b))
        places, home_a, home_b = _pair_geometry(k)
        plans[a], plans[b] = [], []
        for d in range(N_DAYS):
            plan_a, plan_b, meets = _pair_day_plan(rng, 1 + k % 6, places, home_a, home_b)
            plans[a].append(plan_a)
            plans[b].append(plan_b)
            day_text = _day(d).isoformat()
            truth.update((a, b, day_text, slot) for slot in meets)
    return plans, truth, pairs


def _write_csv(path: Path, lines: list[str]) -> None:
    path.write_text("".join(lines), encoding="utf-8")


def _csv_line(cells: list[str]) -> str:
    return ",".join(cells) + "\n"


def make_survey_clean(workdir: Path, seed: int, n_pairs: int = 100) -> Truth:
    """A clean surveyed-mode export: one fix per occupied slot, ISO-UTC times.

    Rows are sorted by user and time, pair areas lie far apart, and
    every user is surveyed, so dedupe and the filters drop nothing.
    """
    rng = random.Random(f"survey_clean:{seed}")
    plans, truth, pairs = _plan_pairs(rng, n_pairs)
    lines = [_csv_line(GPS_HEADER)]
    n_fixes = 0
    for user in sorted(plans):
        for d, plan in enumerate(plans[user]):
            for slot in sorted(plan):
                instant = _instant(_day(d), slot, rng.uniform(0.0, 120.0))
                lines.append(_csv_line(_clean_fix_row(rng, user, instant, plan[slot])))
                n_fixes += 1
    _write_csv(workdir / "gps.csv", lines)
    survey = _survey_rows(rng, pairs)
    _write_csv(workdir / "survey.csv", [_csv_line(SURVEY_HEADER)] + [_csv_line(r) for r in survey])
    return Truth(
        encounters=truth,
        n_surveyed_pairs=len(pairs),
        n_survey_accepted=len(survey),
        n_fixes_accepted=n_fixes,
        n_clean_fixes=n_fixes,
        n_valid_day_rows=2 * n_pairs * N_DAYS,
    )


# timestamp shapes of the messy export; each renders a UTC instant
def _ts_epoch(t: datetime) -> str:
    return str(int(t.timestamp()))


def _ts_epoch_frac(t: datetime) -> str:
    return f"{t.timestamp():.2f}"


def _ts_zulu(t: datetime) -> str:
    return t.strftime("%Y-%m-%dT%H:%M:%SZ")


def _ts_naive(t: datetime) -> str:  # naive means UTC (default --naive-utc-offset)
    return t.strftime("%Y-%m-%d %H:%M:%S")


def _ts_frac_utc(t: datetime) -> str:
    return t.isoformat(timespec="milliseconds")


def _ts_offset(minutes: int, timespec: str):
    zone = timezone(timedelta(minutes=minutes))

    def render(t: datetime) -> str:
        return t.astimezone(zone).isoformat(timespec=timespec)

    return render


TIMESTAMP_SHAPES = (
    _ts_epoch,
    _ts_epoch_frac,
    _ts_zulu,
    _ts_naive,
    _ts_frac_utc,
    _ts_offset(330, "seconds"),
    _ts_offset(-240, "microseconds"),
    _ts_offset(540, "seconds"),
)

# malformed variants of a valid row; each must be rejected by ingest
_MALFORMED = (
    lambda row: row[:3],  # too few fields
    lambda row: [row[0], "not-a-time"] + row[2:],
    lambda row: row[:2] + [row[2] + "x"] + row[3:],  # non-numeric lat
    lambda row: row[:2] + ["95.5"] + row[3:],  # lat out of range
    lambda row: row[:3] + ["200.0"] + row[4:],  # lon out of range
    lambda row: row[:5] + ["-3.0"] + row[6:],  # negative accuracy
    lambda row: [""] + row[1:],  # empty user id
)


def make_messy_staged(workdir: Path, seed: int, n_pairs: int = 16) -> Truth:
    """A raw-looking export for the staged chain.

    About 5 fixes per occupied slot with mixed accuracy, eight timestamp
    shapes, shuffled rows, about 3% malformed rows, comment, blank and
    duplicate-header lines, and fixes outside the window or over the
    accuracy cutoff (some placed where they would fake an encounter if
    the filters let them through). The line number of every row ingest
    must reject is recorded.
    """
    rng = random.Random(f"messy_staged:{seed}")
    plans, truth, pairs = _plan_pairs(rng, n_pairs)
    rows: list[list[str]] = []

    def raw_row(user, instant, spot, accuracy):
        lat, lon = _jitter(rng, spot)
        elevation = f"{rng.uniform(40.0, 60.0):.1f}" if rng.random() < 0.7 else ""
        satellites = str(rng.randint(0, 12)) if rng.random() < 0.7 else ""
        provider = rng.choice(("gps", "network", "fused", ""))
        return [user, rng.choice(TIMESTAMP_SHAPES)(instant), lat, lon, elevation,
                f"{accuracy:.1f}", satellites, provider]

    for user in sorted(plans):
        k = int(user[1:4])
        places, _, _ = _pair_geometry(k)
        for d, plan in enumerate(plans[user]):
            for slot, spot in plan.items():
                for i in range(rng.randint(3, 7)):
                    # the first fix keeps the slot under the accuracy cutoff
                    accuracy = rng.uniform(3.0, 59.0) if i == 0 or rng.random() < 0.85 else rng.uniform(60.0, 150.0)
                    instant = _instant(_day(d), slot, rng.uniform(-120.0, 120.0))
                    rows.append(raw_row(user, instant, spot, accuracy))
            # over the cutoff, at a meeting place, in a slot the user is not in
            free = [s for s in range(SLOTS_PER_DAY) if s not in plan]
            for slot in rng.sample(free, 4):
                instant = _instant(_day(d), slot, rng.uniform(-120.0, 120.0))
                rows.append(raw_row(user, instant, places[0], rng.uniform(60.0, 150.0)))
        # outside the date window, at a meeting place
        for outside in (date(2016, 3, 20), date(2016, 3, 28), date(2016, 5, 3), date(2016, 5, 9)):
            for slot in rng.sample(range(SLOTS_PER_DAY), 5):
                instant = _instant(outside, slot, rng.uniform(-120.0, 120.0))
                rows.append(raw_row(user, instant, places[0], rng.uniform(3.0, 59.0)))
    n_accepted = len(rows)
    n_in_window_clean = sum(len(plan) for user_plans in plans.values() for plan in user_plans)
    rng.shuffle(rows)

    # interleave malformed rows, duplicate headers, comments and blanks
    lines = ["# exported by a phone logger; times in mixed formats\n", _csv_line(GPS_HEADER)]
    rejected: list[int] = []
    n_bad = len(rows) * 3 // 100
    bad_at = set(rng.sample(range(len(rows)), n_bad))
    for i, row in enumerate(rows):
        if i in bad_at:
            roll = rng.random()
            if roll < 0.1:
                lines.append(_csv_line([c.upper() for c in GPS_HEADER]))
                rejected.append(len(lines))
            elif roll < 0.2:
                lines.append(f"# resumed logging, batch {i}\n")
            elif roll < 0.3:
                lines.append("\n")
            else:
                lines.append(_csv_line(rng.choice(_MALFORMED)(list(row))))
                rejected.append(len(lines))
        lines.append(_csv_line(row))
    _write_csv(workdir / "gps.csv", lines)

    survey = _survey_rows(rng, pairs)
    rng.shuffle(survey)
    survey_lines = [_csv_line(SURVEY_HEADER)] + [_csv_line(r) for r in survey]
    survey_rejected = []
    a, b = pairs[0]
    for bad in ([a, a, "3", "2"], [a, b, "9", "2"], [b, a, "x", "2"]):
        at = rng.randint(1, len(survey_lines))
        survey_lines.insert(at, _csv_line(bad))
        survey_rejected = [n + 1 if n > at else n for n in survey_rejected] + [at + 1]
    _write_csv(workdir / "survey.csv", survey_lines)
    return Truth(
        encounters=truth,
        n_surveyed_pairs=len(pairs),
        n_survey_accepted=len(survey),
        n_fixes_accepted=n_accepted,
        n_clean_fixes=n_in_window_clean,
        n_valid_day_rows=2 * n_pairs * N_DAYS,
        gps_rejected_lines=sorted(rejected),
        survey_rejected_lines=sorted(survey_rejected),
    )


def make_all_pairs_crowded(workdir: Path, seed: int, n_pairs: int = 60) -> Truth:
    """Users who share a few crowded places, for the all-pairs scan.

    Each planted pair meets 1 + k % 4 times a day at a shared place. In
    its other occupied slots a user is at a random shared place with
    probability CROWDED_SHARED_PROB, else at a home of its own. Users of
    different pairs therefore also meet, whenever two of them are at the
    same shared place in the same slot. The survey names only the
    planted pairs; it lets `tiediv all` prepare clean_fixes.csv and
    valid_days.csv for the scan.
    """
    rng = random.Random(f"all_pairs_crowded:{seed}")
    places = [(23.10 + (j // 4) * SPACING_DEG, 72.60 + (j % 4) * SPACING_DEG) for j in range(CROWDED_PLACES)]
    users = [u for k in range(n_pairs) for u in _pair_users(k)]
    homes = {u: (23.20 + (i // 12) * SPACING_DEG, 72.60 + (i % 12) * SPACING_DEG) for i, u in enumerate(users)}
    pairs = [_pair_users(k) for k in range(n_pairs)]
    plans: dict[str, list[dict[int, tuple[float, float]]]] = {u: [] for u in users}
    for d in range(N_DAYS):
        for k, (a, b) in enumerate(pairs):
            plan_a, plan_b, _ = _pair_day_plan(rng, 1 + k % 4, places, homes[a], homes[b])
            for plan in (plan_a, plan_b):
                for slot, spot in plan.items():
                    if spot not in places and rng.random() < CROWDED_SHARED_PROB:
                        plan[slot] = rng.choice(places)
            plans[a].append(plan_a)
            plans[b].append(plan_b)

    scan_truth = set()
    for d in range(N_DAYS):
        at_place: dict[tuple[int, tuple[float, float]], list[str]] = {}
        for user in users:
            for slot, spot in plans[user][d].items():
                if spot in places:
                    at_place.setdefault((slot, spot), []).append(user)
        day_text = _day(d).isoformat()
        for (slot, _), present in at_place.items():
            for i, u in enumerate(present):
                for v in present[i + 1 :]:
                    scan_truth.add((*_canonical(u, v), day_text, slot))
    planted = set(pairs)
    surveyed_truth = {e for e in scan_truth if (e[0], e[1]) in planted}

    lines = [_csv_line(GPS_HEADER)]
    for user in sorted(plans):
        for d, plan in enumerate(plans[user]):
            for slot in sorted(plan):
                instant = _instant(_day(d), slot, rng.uniform(0.0, 120.0))
                lines.append(_csv_line(_clean_fix_row(rng, user, instant, plan[slot])))
    _write_csv(workdir / "gps.csv", lines)
    survey = _survey_rows(rng, pairs)
    _write_csv(workdir / "survey.csv", [_csv_line(SURVEY_HEADER)] + [_csv_line(r) for r in survey])
    n_fixes = len(users) * N_DAYS * OCCUPIED_SLOTS
    return Truth(
        encounters=surveyed_truth,
        n_surveyed_pairs=len(pairs),
        n_survey_accepted=len(survey),
        n_fixes_accepted=n_fixes,
        n_clean_fixes=n_fixes,
        n_valid_day_rows=len(users) * N_DAYS,
        scan_encounters=scan_truth,
    )


GENERATORS = {
    "survey_clean": make_survey_clean,
    "messy_staged": make_messy_staged,
    "all_pairs_crowded": make_all_pairs_crowded,
}


def describe_inputs(workdir: Path, truth: Truth) -> list[str]:
    """One line per input file: sha256, line count, valid and bad rows."""
    counts = {
        "gps.csv": (truth.n_fixes_accepted, len(truth.gps_rejected_lines)),
        "survey.csv": (truth.n_survey_accepted, len(truth.survey_rejected_lines)),
    }
    out = []
    for name, (n_valid, n_bad) in counts.items():
        data = (workdir / name).read_bytes()
        n_lines = data.count(b"\n")
        out.append(
            f"input {name}: sha256={hashlib.sha256(data).hexdigest()} "
            f"lines={n_lines} valid_rows={n_valid} rejected_rows={n_bad}"
        )
    return out
