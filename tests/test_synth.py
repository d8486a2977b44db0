"""Synthetic trace generator: determinism, feasibility, archetype contrast."""

from datetime import date, timedelta

import pytest

from tiediv.artifacts import read_clean_fixes, write_fixes, write_table
from tiediv.cli import main
from tiediv.config import RunConfig
from tiediv.encounter import canonical_pair, detect_encounters
from tiediv.features import temporal_diversity
from tiediv.ingest import parse_gps_log, parse_survey
from tiediv.preprocess import snap_to_slot
from tiediv.synth import (
    SCHEDULED,
    SOCIAL,
    SURVEY_HEADER,
    gps_log,
    synth_generate,
)

from helpers import clean_rows, read_table

SMALL = RunConfig(synth_pairs=5, synth_days=10, seed=42)


def run_detection(result, cfg, pairs=None, threshold=50.0):
    days = tuple(cfg.window_start + timedelta(days=i) for i in range(cfg.synth_days))
    valid = dict.fromkeys(result.fixes.user.values, days)
    if pairs is None:
        pairs = sorted({canonical_pair(r.rater_id, r.ratee_id) for r in result.survey})
    return detect_encounters(
        result.fixes, valid, threshold_m=threshold, min_common_days=7, pairs=pairs
    )


class TestDeterminism:
    def test_same_seed_identical_output(self):
        a = synth_generate(SMALL)
        b = synth_generate(SMALL)
        assert clean_rows(a.fixes) == clean_rows(b.fixes)
        assert a.survey == b.survey
        assert a.archetypes == b.archetypes

    def test_different_seed_differs(self):
        a = synth_generate(SMALL)
        b = synth_generate(RunConfig(synth_pairs=5, synth_days=10, seed=43))
        assert clean_rows(a.fixes) != clean_rows(b.fixes)


class TestStructure:
    def test_coverage_slots_per_user_day(self):
        result = synth_generate(SMALL)
        per_user_day = {}
        for fix in clean_rows(result.fixes):
            per_user_day.setdefault((fix.user_id, fix.day), set()).add(fix.slot)
        assert all(len(slots) == SMALL.synth_coverage_slots for slots in per_user_day.values())
        n_users = 4 * SMALL.synth_pairs
        assert len(per_user_day) == n_users * SMALL.synth_days

    def test_survey_labels_archetypes(self):
        result = synth_generate(SMALL)
        by_pair = {}
        for rec in result.survey:
            by_pair.setdefault(canonical_pair(rec.rater_id, rec.ratee_id), []).append(rec)
        for pair, records in by_pair.items():
            expected = 1 if result.archetypes[pair] == SCHEDULED else 5
            assert len(records) == 2  # both directions
            assert all(r.closeness_raw == expected for r in records)

    def test_no_cross_pair_encounters(self):
        cfg = RunConfig(synth_pairs=2, synth_days=8, seed=3)
        result = synth_generate(cfg)
        # scan all pairs of users, not just surveyed ones
        users = result.fixes.user.values
        all_pairs = [(a, b) for i, a in enumerate(users) for b in users[i + 1 :]]
        sets = run_detection(result, cfg, pairs=all_pairs)
        surveyed = {canonical_pair(r.rater_id, r.ratee_id) for r in result.survey}
        for pair, es in sets.items():
            if pair not in surveyed:
                assert es.n_encounters == 0

    def test_equal_rates_when_every_meeting_happens(self):
        cfg = RunConfig(synth_pairs=3, synth_days=8, synth_meet_prob=1.0, seed=5)
        result = synth_generate(cfg)
        sets = run_detection(result, cfg)
        for es in sets.values():
            assert es.n_encounters == cfg.synth_encounters_per_day * cfg.synth_days


class TestArchetypeContrast:
    def test_zero_jitter_single_slot_gives_diversity_one(self):
        cfg = RunConfig(
            synth_pairs=4,
            synth_days=10,
            synth_encounters_per_day=1,
            synth_schedule_slots=(144,),
            synth_jitter=0,
            synth_meet_prob=1.0,
            seed=11,
        )
        result = synth_generate(cfg)
        sets = run_detection(result, cfg)
        for pair, es in sets.items():
            if result.archetypes[pair] == SCHEDULED:
                assert temporal_diversity(es, 60) == pytest.approx(1.0, rel=1e-12)

    def test_social_diversity_exceeds_scheduled(self):
        cfg = RunConfig(synth_pairs=10, synth_days=14, seed=21)
        result = synth_generate(cfg)
        sets = run_detection(result, cfg)
        sched = [temporal_diversity(es) for p, es in sets.items()
                 if result.archetypes[p] == SCHEDULED]
        social = [temporal_diversity(es) for p, es in sets.items()
                  if result.archetypes[p] == SOCIAL]
        assert sum(social) / len(social) > sum(sched) / len(sched)


class TestConfigValidation:
    def test_more_encounters_than_schedule_slots(self):
        with pytest.raises(ValueError):
            synth_generate(RunConfig(synth_encounters_per_day=4))

    def test_encounters_exceeding_day_capacity(self):
        with pytest.raises(ValueError):
            synth_generate(RunConfig(synth_encounters_per_day=300, synth_schedule_slots=tuple(range(300))))

    def test_schedule_slot_jitter_leaving_day(self):
        with pytest.raises(ValueError):
            synth_generate(RunConfig(synth_schedule_slots=(0, 150, 222), synth_jitter=1))

    def test_colliding_schedule_slots(self):
        with pytest.raises(ValueError):
            synth_generate(RunConfig(synth_schedule_slots=(100, 101, 200), synth_jitter=1))

    def test_coverage_below_encounters(self):
        with pytest.raises(ValueError):
            synth_generate(RunConfig(synth_coverage_slots=2))

    def test_bad_meet_prob(self):
        with pytest.raises(ValueError):
            synth_generate(RunConfig(synth_meet_prob=1.5))


class TestRawSerialization:
    def test_round_trip_through_parser_and_snapping(self, tmp_path):
        cfg = RunConfig(synth_pairs=1, synth_days=8, seed=9)
        result = synth_generate(cfg)
        write_fixes(tmp_path / "gps.csv", gps_log(result.fixes, zone_offset_minutes=330), {})
        with open(tmp_path / "gps.csv", "rb") as handle:
            parsed, report = parse_gps_log(handle)
        assert report.n_rejected == 0
        assert len(parsed) == len(result.fixes)
        snapped = [
            (f.user_id, *snap_to_slot(f.timestamp, 330), f.lat, f.lon) for f in parsed
        ]
        assert snapped == clean_rows(result.fixes)

    def test_survey_rows_round_trip(self, tmp_path):
        result = synth_generate(RunConfig(synth_pairs=1, synth_days=8, seed=9))
        write_table(tmp_path / "survey.csv", {}, SURVEY_HEADER, result.survey)
        _, columns, rows = read_table(tmp_path / "survey.csv")
        assert columns == ["rater_id", "ratee_id", "closeness", "proximity"]
        assert len(rows) == len(result.survey)
        with open(tmp_path / "survey.csv", "rb") as handle:
            assert parse_survey(handle)[0] == result.survey

    def test_start_day_within_default_window(self):
        assert RunConfig().window_start == date(2016, 4, 1)


@pytest.mark.parametrize("offset", [-240, 0, 330, 540])
def test_synth_ingest_preprocess_recovers_the_fixes(tmp_path, offset):
    # every synthetic user-day passes the cleaning, so preprocess gives back
    # exactly synth's fixes, in (user, day, slot) order
    synth_args = ["--synth-pairs", "2", "--synth-days", "6", "--seed", "5"]
    zone = ["--zone-offset", str(offset)]
    gen, out = tmp_path / "gen", tmp_path / "out"
    assert main(["synth", "-o", str(gen), *synth_args, *zone]) == 0
    inputs = ["--gps", str(gen / "synth_gps.csv"), "--survey", str(gen / "synth_survey.csv")]
    for stage in ("ingest", "preprocess"):
        assert main([stage, *inputs, "-o", str(out), *zone]) == 0
    fixes = synth_generate(RunConfig(synth_pairs=2, synth_days=6, seed=5)).fixes
    assert clean_rows(read_clean_fixes(out / "clean_fixes.csv")) == sorted(clean_rows(fixes))
