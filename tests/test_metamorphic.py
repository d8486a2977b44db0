"""Metamorphic checks of `tiediv all`: input changes whose effect on the output is known.

- An order-preserving rename of every user id renames the ids in the
  output and changes nothing else. The new ids hold ',' or '"', so every
  file with ids in it holds quoted cells, for ingest and for the staged
  readers.
- Shifting every timestamp and the window by k whole days moves every
  date in the output by k days and leaves the analysis unchanged.
"""

import csv
import tempfile
from datetime import date, datetime, timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv.cli import main

from test_cli import ALL_ARTIFACTS, GPS, SURVEY, data_rows, hash_dir, mini_rows

# the analysis artifacts: no user id or date in them
ANALYSIS = ("features.csv", "compare.csv", "sweep_t.csv", "sweep_q.csv", "subgroups.csv", "evolution.csv")
# the date columns of the other artifacts; `common_days` holds '|'-joined dates
DATE_COLUMNS = {
    "clean_fixes.csv": "day",
    "valid_days.csv": "day",
    "pairs.csv": "common_days",
    "encounters.csv": "day",
}


def read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def write_rows(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


USERS = sorted({row[0] for row in read_rows(Path(GPS))[1:]})
# 'u' and one to three of 'a', ',' and '"': at most three of the five hold neither ',' nor '"'
NEW_IDS = st.lists(
    st.text(alphabet='a,"', min_size=1, max_size=3), min_size=len(USERS), max_size=len(USERS), unique=True
).map(lambda cores: sorted("u" + core for core in cores))


@given(NEW_IDS)
@settings(max_examples=10, deadline=None)
def test_order_preserving_rename_of_user_ids(ids):
    renamed = dict(zip(USERS, ids))
    back = {new: old for old, new in renamed.items()}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        gps, survey = read_rows(Path(GPS)), read_rows(Path(SURVEY))
        write_rows(root / "gps.csv", [gps[0]] + [[renamed[row[0]], *row[1:]] for row in gps[1:]])
        write_rows(root / "survey.csv", [survey[0]] + [[renamed[a], renamed[b], *rest] for a, b, *rest in survey[1:]])
        args = ["--gps", str(root / "gps.csv"), "--survey", str(root / "survey.csv"), "-o", str(root / "out")]
        assert main(["all", *args]) == 0
        # the staged readers read every quoted id back: a rerun stage writes the same bytes
        out = root / "out"
        written = hash_dir(out)
        for stage in ("preprocess", "encounters", "features"):
            assert main([stage, *args]) == 0, stage
        assert hash_dir(out) == written
        rows = data_rows(out, ALL_ARTIFACTS)
    mapped = {
        name: (columns, [[back.get(cell, cell) for cell in row] for row in body])
        for name, (columns, body) in rows.items()
    }
    assert mapped == mini_rows()


def shift_dates(cell: str, days: int) -> str:
    """Each '|'-joined ISO date of `cell` moved by `days`."""
    if not cell:
        return cell
    return "|".join((date.fromisoformat(d) + timedelta(days=days)).isoformat() for d in cell.split("|"))


# about 55 years either way of the fixture's April 2016
@given(st.integers(min_value=-20_000, max_value=20_000))
@settings(max_examples=10, deadline=None)
def test_shift_of_every_timestamp_and_the_window_by_whole_days(days):
    shift = timedelta(days=days)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        gps = read_rows(Path(GPS))
        column = gps[0].index("timestamp")
        for row in gps[1:]:
            row[column] = (datetime.fromisoformat(row[column]) + shift).isoformat()
        write_rows(root / "gps.csv", gps)
        window = ["--window-start", str(date(2016, 4, 1) + shift), "--window-end", str(date(2016, 5, 1) + shift)]
        out = root / "out"
        assert main(["all", "--gps", str(root / "gps.csv"), "--survey", SURVEY, "-o", str(out), *window]) == 0
        rows = data_rows(out, [*ANALYSIS, *DATE_COLUMNS])
    original = mini_rows()
    for name in ANALYSIS:
        assert rows[name] == original[name], name
    for name, date_column in DATE_COLUMNS.items():
        columns, body = original[name]
        at = columns.index(date_column)
        moved = [[shift_dates(cell, days) if i == at else cell for i, cell in enumerate(row)] for row in body]
        assert rows[name] == (columns, moved), name
