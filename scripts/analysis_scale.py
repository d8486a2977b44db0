#!/usr/bin/env python3
"""Time the analysis functions in-process on generated encounter sets.

Each of PAIRS pairs gets 7 to 14 common days (from a 16-day span, with
gaps) and 0 to 40 encounters at uniform (day, slot)s of those days, in
one of eight geohash cells. Both users rate each other, so there are
2 * PAIRS observations and each set is shared by two of them; raw
closeness is uniform over 0..5. Generation is seeded and untimed. The
script prints the median wall time over REPEAT runs of:

    build_observations      the survey joined to the sets: one ObservationTable
    compute_pair_features   features.csv's rows, at the default width and Shannon q
    compare_features        compare.csv's rows
    sweep_width             sweep_t.csv's rows over the default width grid
    sweep_q                 sweep_q.csv's rows over the default order grid
    subgroup_distributions  subgroups.csv's rows
    evolution               evolution.csv's rows over horizons 1..11

each on a table of its own, built untimed, so none reads a column that
another computed; then `all six`, the six in that order on one shared
table, as `tiediv all` runs them.

    PYTHONPATH=src python scripts/analysis_scale.py --pairs 1000 10000 --repeat 3

Numbers are in-process medians on whatever machine runs the script; they
orient, they do not replace an end-to-end benchmark.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time
from datetime import date, timedelta

from tiediv import experiments, features
from tiediv.encounter import Encounter, EncounterSet
from tiediv.ingest import SurveyRecord

SEED = 1
SPAN_DAYS = 16
MAX_ENCOUNTERS = 40
CELLS = tuple(f"tsz0000{c}" for c in "0123456b")
START = date(2016, 4, 4)

ANALYSES = {
    "compute_pair_features": features.compute_pair_features,
    "compare_features": experiments.compare_features,
    "sweep_width": experiments.sweep_width,
    "sweep_q": experiments.sweep_q,
    "subgroup_distributions": experiments.subgroup_distributions,
    "evolution": experiments.evolution,
}


def generate(n_pairs: int) -> tuple[list[SurveyRecord], dict[tuple[str, str], EncounterSet]]:
    """The survey (both directions of each pair) and each pair's encounter set."""
    rng = random.Random(SEED)
    survey, sets = [], {}
    for k in range(n_pairs):
        lo, hi = f"u{k:06d}a", f"u{k:06d}b"
        days = sorted(rng.sample(range(SPAN_DAYS), rng.randint(7, 14)))
        times = sorted(rng.sample(range(len(days) * 288), rng.randint(0, MAX_ENCOUNTERS)))
        encounters = tuple(
            Encounter(lo, hi, START + timedelta(days=days[t // 288]), t % 288, rng.choice(CELLS)) for t in times
        )
        sets[(lo, hi)] = EncounterSet(tuple(START + timedelta(days=d) for d in days), encounters)
        survey.append(SurveyRecord(lo, hi, rng.randint(0, 5), 2))
        survey.append(SurveyRecord(hi, lo, rng.randint(0, 5), 2))
    return survey, sets


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, nargs="+", default=[1000, 10000], help="pair counts to time")
    parser.add_argument("--repeat", type=int, default=3, help="runs per function (median reported)")
    args = parser.parse_args()
    if min(args.pairs) < 1 or args.repeat < 1:
        parser.error("--pairs and --repeat must be positive")

    for n_pairs in args.pairs:
        survey, sets = generate(n_pairs)
        n_encounters = sum(es.n_encounters for es in sets.values())
        print(f"pairs={n_pairs} observations={2 * n_pairs} encounters={n_encounters}")
        build = [timed(lambda: features.build_observations(survey, sets)) for _ in range(args.repeat)]
        seconds = {"build_observations": build}
        for name, analysis in ANALYSES.items():
            seconds[name] = []
            for _ in range(args.repeat):
                table = features.build_observations(survey, sets)
                seconds[name].append(timed(lambda: analysis(table)))
        seconds["all six"] = []
        for _ in range(args.repeat):
            table = features.build_observations(survey, sets)
            seconds["all six"].append(timed(lambda: [analysis(table) for analysis in ANALYSES.values()]))
        for name, values in seconds.items():
            print(f"  {name:<24} {statistics.median(values):8.3f} s")


if __name__ == "__main__":
    main()
