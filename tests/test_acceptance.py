"""Acceptance suite: one test per criterion, stated tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.
"""

import hashlib
import math
import os
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from tiediv.cli import main as cli_main
from tiediv.encounter import canonical_pair, detect_encounters
from tiediv.experiments import compare_features, sweep_q, sweep_width
from tiediv.features import (
    build_observations,
    hill_diversity,
    shannon_entropy,
    temporal_diversity,
)
from tiediv.geo import geohash_encode
from tiediv.ingest import parse_gps_log, parse_survey
from tiediv.preprocess import ValidDaySet, filter_pipeline
from tiediv.stats import f_from_r, f_sf
from tiediv.synth import SCHEDULED, SynthConfig, synth_generate

from test_stats import f_sf_quadrature

DATA = Path(__file__).parent / "data"

T_AB = (0, 0, 0, 2, 10, 3, 0, 0, 0, 2, 0, 0)
T_AC = (3, 0, 4, 0, 3, 0, 2, 2, 0, 0, 0, 3)


def report(number: int, name: str) -> None:
    print(f"[criterion {number}] {name}: PASS")


def random_count_vectors(n: int = 1000, length: int = 24, seed: int = 20160401):
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(n):
        counts = rng.integers(0, 30, size=length)
        counts[rng.random(length) < 0.5] = 0  # vary the support size
        if counts.sum() == 0:
            counts[int(rng.integers(length))] = int(rng.integers(1, 30))
        vectors.append([int(c) for c in counts])
    return vectors


def test_c1_worked_example_fidelity():
    assert shannon_entropy(T_AB) == pytest.approx(1.1218, abs=5e-4)
    assert round(math.exp(shannon_entropy(T_AB)), 1) == 3.1
    assert shannon_entropy(T_AC) == pytest.approx(1.7623, abs=5e-4)
    assert round(math.exp(shannon_entropy(T_AC)), 1) == 5.8
    report(1, "worked-example fidelity")


def test_c2_renyi_shannon_limit():
    start = time.perf_counter()
    for counts in random_count_vectors():
        shannon = hill_diversity(counts, 1.0)
        for q in (1.0 - 1e-7, 1.0 + 1e-7):
            assert abs(hill_diversity(counts, q) - shannon) / shannon <= 1e-5
    assert time.perf_counter() - start < 1.0
    report(2, "Renyi-Shannon limit on 1000 seeded vectors")


def test_c3_hill_monotonicity():
    start = time.perf_counter()
    q_grid = [i / 10 for i in range(31)]
    for counts in random_count_vectors():
        previous = math.inf
        for q in q_grid:
            current = hill_diversity(counts, q)
            assert current <= previous * (1.0 + 1e-9)
            previous = current
    assert time.perf_counter() - start < 5.0
    report(3, "Hill-number monotonicity in q")


def test_c4_diversity_invariances():
    rng = np.random.default_rng(99)
    for counts in random_count_vectors(n=300, seed=99):
        k = int(rng.integers(2, 9))
        scaled = [c * k for c in counts]
        permuted = list(counts)
        rng.shuffle(permuted)
        for q in (0.0, 0.5, 1.0, 2.0):
            base = hill_diversity(counts, q)
            assert abs(hill_diversity(scaled, q) - base) / base <= 1e-12
            assert abs(hill_diversity(permuted, q) - base) / base <= 1e-12
    report(4, "scale and permutation invariance")


def test_c5_statistics_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(3, 1000))
        r = float(rng.uniform(-0.999, 0.999))
        assert f_from_r(r, n) == r * r * (n - 2) / (1.0 - r * r)
    for f_value in (0.1, 1.0, 4.0, 10.0, 50.0):
        for df2 in (5, 10, 100, 700):
            assert abs(f_sf(f_value, 1, df2) - f_sf_quadrature(f_value, 1.0, df2)) <= 1e-8
    assert time.perf_counter() - start < 10.0
    report(5, "F statistic and survival-function oracle")


def test_c6_geohash():
    assert geohash_encode(57.64911, 10.40744, 8) == "u4pruydq"
    assert geohash_encode(0.0, 0.0, 8) == "s0000000"
    rng = np.random.default_rng(6)
    lats = rng.uniform(-90.0, 90.0, size=10_000)
    lons = rng.uniform(-180.0, 180.0 - 1e-9, size=10_000)
    for lat, lon in zip(lats, lons):
        full = geohash_encode(float(lat), float(lon), 12)
        for length in range(1, 12):
            assert geohash_encode(float(lat), float(lon), length) == full[:length]
    report(6, "geohash known cells and prefix property")


def test_c7_synthetic_hypothesis_check():
    start = time.perf_counter()
    cfg = SynthConfig(n_pairs_per_archetype=100, n_days=14, encounters_per_day=3, seed=7)
    result = synth_generate(cfg)

    days = tuple(cfg.start_day + timedelta(days=i) for i in range(cfg.n_days))
    valid = {u: ValidDaySet(u, days) for u in result.fixes.user.values}
    pairs = sorted({canonical_pair(r.rater_id, r.ratee_id) for r in result.survey})
    sets = detect_encounters(result.fixes, valid, threshold_m=50.0, min_common_days=7, pairs=pairs)

    scheduled = [temporal_diversity(es) for p, es in sets.items()
                 if result.archetypes[p] == SCHEDULED]
    social = [temporal_diversity(es) for p, es in sets.items()
              if result.archetypes[p] != SCHEDULED]
    assert sum(social) / len(social) > sum(scheduled) / len(scheduled)

    observations = build_observations(result.survey, sets)
    assert len(observations) == 400
    results = {r.feature: r for r in compare_features(observations)}
    f_td = results["temporal_diversity"].result.f_value
    f_me = results["mean_encounters"].result.f_value
    assert f_td > f_me
    assert f_me < 5.0  # equal-rate construction leaves only noise
    assert time.perf_counter() - start < 30.0
    report(7, "synthetic archetypes separate and rank as constructed")


def test_c8_pipeline_determinism(tmp_path):
    outdir = tmp_path / "out"
    args = [
        "all",
        "--gps", str(DATA / "mini_gps.csv"),
        "--survey", str(DATA / "mini_survey.csv"),
        "-o", str(outdir),
    ]
    assert cli_main(list(args)) == 0
    first = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())
    }
    assert cli_main(list(args)) == 0
    second = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())
    }
    assert first == second
    assert len(first) >= 12
    report(8, "full pipeline is byte-identical across reruns")


def test_c9_dataset_reproduction_optional():
    gps_path = os.environ.get("DSSN_GPS")
    survey_path = os.environ.get("DSSN_SURVEY")
    if not gps_path or not survey_path:
        pytest.skip(
            "optional: set DSSN_GPS and DSSN_SURVEY to the released dataset "
            "files to check the sweep shapes"
        )
    with open(gps_path, "rb") as handle:
        fixes, _ = parse_gps_log(handle)
    with open(survey_path, "rb") as handle:
        survey, _ = parse_survey(handle)
    cleaned = filter_pipeline(fixes, survey)
    pairs = sorted({canonical_pair(r.rater_id, r.ratee_id) for r in survey})
    sets = detect_encounters(cleaned.clean_fixes, cleaned.valid_days, pairs=pairs)
    observations = build_observations(survey, sets)

    width_rows = sweep_width(observations)
    f_by_width = {int(r.parameter): r.f_value for r in width_rows if r.f_value is not None}
    peak = max(f_by_width, key=f_by_width.get)
    assert 30 <= peak <= 120
    assert f_by_width[5] < f_by_width[peak]
    assert f_by_width[720] < f_by_width[peak]

    q_rows = sweep_q(observations)
    f_values = [r.f_value for r in q_rows if r.f_value is not None]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(f_values, f_values[1:]))
    report(9, "released-dataset sweep shapes")
