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
from tiediv.config import RunConfig
from tiediv.ingest import TextColumn
from tiediv.preprocess import SLOTS_PER_DAY, CleanTable, epoch_day
from tiediv.synth import SURVEY_HEADER, gps_log, synth_generate

OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"

CFG = RunConfig(synth_pairs=1, synth_days=10, seed=2016)
LONER = "lone0"
LONER_LAT, LONER_LON = 22.5, 71.5  # far from every pair area


def main(out_dir: Path = OUT_DIR) -> None:
    result = synth_generate(CFG)
    # the loner's fixes: evenly strided slots on every day
    slots = np.arange(0, SLOTS_PER_DAY, SLOTS_PER_DAY // CFG.synth_coverage_slots)
    days = epoch_day(CFG.window_start) + np.arange(CFG.synth_days)
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
    write_fixes(out_dir / "mini_gps.csv", gps_log(fixes, CFG.zone_offset_minutes), {})
    write_table(out_dir / "mini_survey.csv", {}, SURVEY_HEADER, result.survey)
    users = fixes.user.values
    print(f"wrote fixture: {len(fixes)} fixes, {len(users)} users: {', '.join(users)}")


if __name__ == "__main__":
    main()
