#!/usr/bin/env python3
"""Regenerate the bundled miniature fixture (tests/data/mini_*.csv).

Five users over ten days: one scheduled pair, one social pair, and one
extra user who logs fixes but never appears in the survey (so the
survey-membership filter has something to drop).

    PYTHONPATH=src python scripts/make_mini_fixture.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from tiediv.artifacts import write_fixes, write_table
from tiediv.ingest import TextColumn
from tiediv.preprocess import SLOTS_PER_DAY, CleanTable, epoch_day
from tiediv.synth import SynthConfig, gps_log, survey_to_rows, synth_generate

OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"

CFG = SynthConfig(n_pairs_per_archetype=1, n_days=10, seed=2016)
LONER = "lone0"
LONER_LAT, LONER_LON = 22.5, 71.5  # far from every pair area


def main(out_dir: Path = OUT_DIR) -> None:
    result = synth_generate(CFG)
    # the loner's fixes: evenly strided slots on every day
    slots = np.arange(0, SLOTS_PER_DAY, SLOTS_PER_DAY // CFG.coverage_slots)
    days = epoch_day(CFG.start_day) + np.arange(CFG.n_days)
    n = len(days) * len(slots)
    loner = CleanTable(
        user=TextColumn(np.zeros(n, dtype=np.int32), (LONER,)),
        day=np.repeat(days, len(slots)),
        slot=np.tile(slots, len(days)),
        lat=np.full(n, LONER_LAT),
        lon=np.full(n, LONER_LON),
    )
    fixes = CleanTable.concat([result.fixes, loner])

    out_dir.mkdir(parents=True, exist_ok=True)
    write_fixes(out_dir / "mini_gps.csv", gps_log(fixes, 330), {})
    survey_rows = survey_to_rows(result.survey)
    write_table(out_dir / "mini_survey.csv", {}, survey_rows[0], survey_rows[1:])
    users = fixes.user.values
    print(f"wrote fixture: {len(fixes)} fixes, {len(users)} users: {', '.join(users)}")


if __name__ == "__main__":
    main()
