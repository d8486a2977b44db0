#!/usr/bin/env python3
"""Time one all-pairs `detect_encounters` call on synthetic users.

`synth` generates USERS users (USERS / 2 pairs, half scheduled, half
social) over 14 days with seed 1; every user is valid on every day, so
every pair of users is eligible and gets an `EncounterSet`. The script makes one
all-pairs call and prints the users, the sets built, the pairs that met,
the call's wall time and the process's peak resident memory (`VmHWM`
from /proc/self/status, Linux only).

    PYTHONPATH=src python scripts/all_pairs_scale.py --users 800

Run each size in its own process: the peak is the process's, not the call's.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from tiediv import detect_encounters
from tiediv.config import RunConfig
from tiediv.preprocess import day_of
from tiediv.synth import synth_generate

DAYS = 14
SEED = 1


def peak_rss_mb() -> float:
    """The process's peak resident memory in MB, from /proc/self/status."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=800, help="a positive multiple of 4")
    args = parser.parse_args()
    if args.users < 4 or args.users % 4:
        parser.error(f"--users must be a positive multiple of 4, got {args.users}")

    fixes = synth_generate(RunConfig(synth_pairs=args.users // 4, synth_days=DAYS, seed=SEED)).fixes
    days = tuple(day_of(d) for d in sorted(set(fixes.day.tolist())))
    valid_days = dict.fromkeys(fixes.user.values, days)

    start = time.perf_counter()
    result = detect_encounters(fixes, valid_days, pairs=None)
    seconds = time.perf_counter() - start
    met = sum(1 for es in result.values() if es.encounters)
    print(
        f"users={len(valid_days)} sets={len(result)} met_pairs={met} "
        f"seconds={seconds:.3f} vmhwm_mb={peak_rss_mb():.1f}"
    )


if __name__ == "__main__":
    main()
