"""CLI stages, chaining, determinism, and error handling."""

import csv
import hashlib
import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv import artifacts, experiments, features, ingest, stats
from tiediv.cli import main
from tiediv.encounter import GEOHASH_LENGTH
from tiediv.geo import GEOHASH_BASE32
from tiediv.ingest import to_epoch_us

from helpers import read_table
from test_golden import MESSY_GPS, MESSY_SURVEY

DATA = Path(__file__).parent / "data"
GPS = str(DATA / "mini_gps.csv")
SURVEY = str(DATA / "mini_survey.csv")
STAGES = ("ingest", "preprocess", "encounters", "features", "compare",
          "sweep-t", "sweep-q", "subgroups", "evolve")


def run(*args: str) -> int:
    return main(list(args))


def hash_dir(outdir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file()
    }


@pytest.fixture
def outdir(tmp_path):
    return tmp_path / "out"


ALL_ARTIFACTS = [
    "fixes.csv",
    "survey.csv",
    "clean_fixes.csv",
    "valid_days.csv",
    "encounters.csv",
    "pairs.csv",
    "features.csv",
    "compare.csv",
    "sweep_t.csv",
    "sweep_q.csv",
    "subgroups.csv",
    "evolution.csv",
]


class TestFullChain:
    def test_all_writes_every_artifact(self, outdir):
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        for name in ALL_ARTIFACTS:
            meta, columns, rows = read_table(outdir / name)
            assert columns, name
            assert "sha256_mini_gps.csv" in meta or name not in ("fixes.csv",)

    def test_compare_rows_present_even_when_degenerate(self, outdir):
        # the 2-pair fixture correlates every feature perfectly with the
        # label, so each row carries the infinite-F reason instead of dying
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        _, columns, rows = read_table(outdir / "compare.csv")
        assert [row[columns.index("feature")] for row in rows] == [
            "location_diversity",
            "mean_encounters",
            "temporal_diversity",
        ]
        for row in rows:
            has_f = bool(row[columns.index("f_value")])
            has_error = bool(row[columns.index("error")])
            assert has_f != has_error

    def test_fewer_than_three_observations_run_to_the_end(self, outdir, tmp_path):
        # one pair rated both ways: too few samples for an F, so the regressions
        # become error rows and every artifact is still written
        survey = tmp_path / "two.csv"
        survey.write_text("".join(Path(SURVEY).read_text().splitlines(keepends=True)[:3]))
        assert run("all", "--gps", GPS, "--survey", str(survey), "-o", str(outdir)) == 0
        assert sorted(p.name for p in outdir.iterdir()) == sorted([*ALL_ARTIFACTS, "ingest_rejects.txt"])
        assert len(read_table(outdir / "features.csv")[2]) == 2
        for name, n_rows in (("compare.csv", 3), ("sweep_t.csv", 10), ("sweep_q.csv", 19)):
            _, columns, rows = read_table(outdir / name)
            assert len(rows) == n_rows, name
            assert {row[columns.index("error")] for row in rows} == {"need at least 3 samples, got 2"}, name
            assert {row[columns.index("f_value")] for row in rows} == {""}, name

    def test_rerun_is_byte_identical(self, outdir):
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        first = hash_dir(outdir)
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        assert hash_dir(outdir) == first

    def test_stagewise_equals_all(self, outdir, tmp_path):
        staged = tmp_path / "staged"
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        for stage in ("ingest", "preprocess", "encounters", "features", "compare",
                      "sweep-t", "sweep-q", "subgroups", "evolve"):
            assert run(stage, "--gps", GPS, "--survey", SURVEY, "-o", str(staged)) == 0
        assert hash_dir(staged) == hash_dir(outdir)

    def test_outdir_bytes_do_not_depend_on_paths(self, tmp_path, monkeypatch):
        # relative paths from the inputs' directory, absolute ones from another
        here, elsewhere = tmp_path / "here", tmp_path / "elsewhere"
        here.mkdir()
        elsewhere.mkdir()
        for name in ("mini_gps.csv", "mini_survey.csv"):
            (here / name).write_bytes((DATA / name).read_bytes())
        monkeypatch.chdir(here)
        assert run("all", "--gps", "mini_gps.csv", "--survey", "mini_survey.csv", "-o", "out") == 0
        monkeypatch.chdir(elsewhere)
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(tmp_path / "results")) == 0
        assert hash_dir(tmp_path / "results") == hash_dir(here / "out")


def messy_inputs(directory: Path, shuffle: random.Random | None = None) -> list[str]:
    """The golden messy log and survey around the mini fixture's rows.

    The messy rows bring every timestamp shape and rejection reason; the
    mini rows make the full chain produce observations. With `shuffle`,
    every GPS line after the header comes in a shuffled order.
    """
    comment, header, rest = MESSY_GPS.split("\n", 2)
    body = rest.splitlines() + (DATA / "mini_gps.csv").read_text().splitlines()[1:]
    if shuffle is not None:
        shuffle.shuffle(body)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "gps.csv").write_text("\n".join([comment, header] + body) + "\n", encoding="utf-8")
    survey = MESSY_SURVEY + "".join((DATA / "mini_survey.csv").read_text().splitlines(True)[1:])
    (directory / "survey.csv").write_text(survey, encoding="utf-8")
    return ["--gps", str(directory / "gps.csv"), "--survey", str(directory / "survey.csv"),
            "--naive-utc-offset", "+05:30"]


def data_rows(outdir: Path, names) -> dict:
    """Header and data rows of each named artifact; '#' meta lines excluded."""
    return {name: read_table(outdir / name)[1:] for name in names}


class TestMessyChain:
    def test_stagewise_equals_all_on_messy_log(self, tmp_path):
        inputs = messy_inputs(tmp_path / "in")
        assert run("all", *inputs, "-o", str(tmp_path / "all")) == 0
        for stage in STAGES:
            assert run(stage, *inputs, "-o", str(tmp_path / "staged")) == 0
        names = ALL_ARTIFACTS + ["ingest_rejects.txt"]
        a, b = hash_dir(tmp_path / "all"), hash_dir(tmp_path / "staged")
        assert sorted(a) == sorted(names)
        assert a == b
        rejects = (tmp_path / "all" / "ingest_rejects.txt").read_text()
        assert "duplicate header row" in rejects and "negative satellite count" in rejects

    @pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0b"])
    def test_user_ids_holding_a_line_separator(self, tmp_path, separator):
        # str.splitlines breaks a line at these characters; csv does not
        renamed = {"sch000a": f"sch{separator}000a", "soc000b": f"soc{separator}000b"}
        inputs = []
        for flag, name in (("--gps", "mini_gps.csv"), ("--survey", "mini_survey.csv")):
            text = (DATA / name).read_text(encoding="utf-8")
            for old, new in renamed.items():
                text = text.replace(old, new)
            (tmp_path / name).write_text(text, encoding="utf-8")
            inputs += [flag, str(tmp_path / name)]
        assert run("all", *inputs, "-o", str(tmp_path / "all")) == 0
        for stage in ("ingest", "preprocess", "encounters"):
            assert run(stage, *inputs, "-o", str(tmp_path / "staged")) == 0, stage
        names = ["fixes.csv", "survey.csv", "clean_fixes.csv", "valid_days.csv", "pairs.csv", "encounters.csv"]
        staged = data_rows(tmp_path / "staged", names)
        assert staged == data_rows(tmp_path / "all", names)
        _, rows = staged["pairs.csv"]
        pairs = [(renamed["sch000a"], "sch000b"), ("soc000a", renamed["soc000b"])]
        assert {tuple(row[:2]) for row in rows} == {tuple(sorted(pair)) for pair in pairs}


def test_user_id_holding_a_nul_is_written_and_read_back(tmp_path, outdir):
    # the splitter reads a NUL as text on every Python, and the writers write it as it is
    nul_id = "sch\0" + "000a"
    inputs = renamed_inputs(tmp_path / "in", {"sch000a": nul_id})
    assert run("ingest", *inputs, "-o", str(outdir)) == 0
    assert run("preprocess", *inputs, "-o", str(outdir)) == 0
    assert nul_id in artifacts.read_fixes(outdir / "fixes.csv").user.values
    assert nul_id in artifacts.read_clean_fixes(outdir / "clean_fixes.csv").user.values
    assert nul_id in artifacts.read_valid_days(outdir / "valid_days.csv")


SHUFFLE_INVARIANT = ("clean_fixes.csv", "valid_days.csv", "pairs.csv", "encounters.csv", "features.csv")


@lru_cache(maxsize=1)
def unshuffled_rows() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        assert main(["all", *messy_inputs(root / "in"), "-o", str(root / "out")]) == 0
        return data_rows(root / "out", SHUFFLE_INVARIANT)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_shuffled_gps_rows_give_identical_data_rows(seed):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shuffled = messy_inputs(root / "in", shuffle=random.Random(seed))
        assert main(["all", *shuffled, "-o", str(root / "out")]) == 0
        assert data_rows(root / "out", SHUFFLE_INVARIANT) == unshuffled_rows()


@lru_cache(maxsize=1)
def mini_rows() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert main(["all", "--gps", GPS, "--survey", SURVEY, "-o", str(out)]) == 0
        return data_rows(out, ALL_ARTIFACTS)


def rerendered(timestamp: str, rng: random.Random, naive_offset: int) -> str:
    """The instant of an ISO timestamp in a randomly chosen bulk-parsed shape.

    A naive time is local time `naive_offset` minutes east of UTC.
    """
    instant = datetime.fromisoformat(timestamp)
    shape = rng.choice(("epoch", "Z", "offset", "naive"))
    if shape == "epoch":
        seconds, micros = divmod(to_epoch_us(instant), 10**6)
        return f"{seconds}.{micros:06d}" if micros else str(seconds)
    if shape == "Z":
        return instant.astimezone(timezone.utc).isoformat().replace("+00:00", rng.choice("Zz"))
    if shape == "offset":
        return instant.astimezone(timezone(timedelta(minutes=rng.randrange(-1439, 1440)))).isoformat()
    local = instant.astimezone(timezone(timedelta(minutes=naive_offset)))
    return local.replace(tzinfo=None).isoformat(sep=rng.choice("T "))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_rerendered_timestamps_and_inserted_comments_give_identical_data_rows(seed):
    # every timestamp of the mini log as the same instant in another shape,
    # with comment and blank lines in between
    rng = random.Random(seed)
    naive_offset = rng.randrange(-1439, 1440)
    header, *lines = (DATA / "mini_gps.csv").read_text(encoding="utf-8").splitlines()
    body = []
    for line in lines:
        user, timestamp, rest = line.split(",", 2)
        body.append(f"{user},{rerendered(timestamp, rng, naive_offset)},{rest}")
    for _ in range(rng.randrange(1, 40)):
        inserted = rng.choice(["", "   ", ",,,,,,,", "# a comment", " #,short,comment", "# a,full,width,comment,row,of,8,cells", "#"])
        body.insert(rng.randrange(len(body) + 1), inserted)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        gps = root / "gps.csv"
        gps.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
        argv = ["all", "--gps", str(gps), "--survey", SURVEY, "-o", str(root / "out")]
        assert main([*argv, "--naive-utc-offset", str(naive_offset)]) == 0
        assert data_rows(root / "out", ALL_ARTIFACTS) == mini_rows()


def test_empty_grids_write_header_only_artifacts(outdir):
    assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir),
               "--width-grid", "", "--q-grid", "", "--max-horizon", "0") == 0
    for name, columns in (
        ("sweep_t.csv", ["width_t", "f_value", "p_value", "error"]),
        ("sweep_q.csv", ["q", "f_value", "p_value", "error"]),
        ("evolution.csv", ["closeness", "d", "mean_temporal_diversity", "n"]),
    ):
        assert read_table(outdir / name)[1:] == (columns, []), name


class TestInMemoryHandoff:
    READERS = ("read_fixes", "read_survey", "read_clean_fixes", "read_valid_days", "read_encounter_sets")

    def test_all_never_reads_back_what_it_wrote(self, outdir, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"`all` re-read {args[0]}")

        for name in self.READERS:
            monkeypatch.setattr(artifacts, name, refuse)
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0

    def test_each_main_call_reads_earlier_calls_artifacts(self, outdir, monkeypatch):
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        calls = []
        read_fixes = artifacts.read_fixes
        monkeypatch.setattr(artifacts, "read_fixes", lambda path: calls.append(path) or read_fixes(path))
        assert run("preprocess", "-o", str(outdir)) == 0
        assert run("preprocess", "-o", str(outdir)) == 0
        assert calls == [outdir / "fixes.csv"] * 2


    def test_all_builds_one_observation_table(self, outdir, monkeypatch):
        # wrapped by module attribute, as perfbench's tracer wraps them: each must
        # still be called, or the tracer's per-function metrics would read 0
        calls: dict[str, int] = {}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(features, "build_observations")
        counting(features, "compute_pair_features")
        for name in ("compare_features", "sweep_width", "sweep_q", "subgroup_distributions", "evolution"):
            counting(experiments, name)
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        assert calls == {
            "build_observations": 1,
            "compute_pair_features": 1,
            "compare_features": 1,
            "sweep_width": 1,
            "sweep_q": 1,
            "subgroup_distributions": 1,
            "evolution": 1,
        }


def test_main_calls_in_one_process_share_no_settings(outdir, tmp_path):
    # the second call sets no --q: it must not keep the first call's
    assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir), "--q", "2") == 0
    with_q2 = data_rows(outdir, ["features.csv"])
    assert run("features", "-o", str(outdir)) == 0
    reference = tmp_path / "reference"
    assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(reference)) == 0
    assert data_rows(outdir, ["features.csv"]) == data_rows(reference, ["features.csv"]) != with_q2


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory) -> list[str]:
    """The golden synthetic case's inputs: 4 pairs per archetype, so TD's r with closeness is below 1."""
    gen = tmp_path_factory.mktemp("synth")
    assert run("synth", "-o", str(gen), "--synth-pairs", "4", "--synth-days", "9", "--seed", "11") == 0
    return ["--gps", str(gen / "synth_gps.csv"), "--survey", str(gen / "synth_survey.csv"), "--min-common-days", "5"]


@pytest.mark.parametrize("q", ["0", "2"])
@pytest.mark.parametrize("inputs", ["mini", "synth"])
def test_q_reaches_every_artifact_that_summarises_temporal_diversity(outdir, synth_inputs, inputs, q):
    """compare, subgroups and evolve summarise features.csv's temporal diversity, of the run's order q."""
    args = ["--gps", GPS, "--survey", SURVEY] if inputs == "mini" else synth_inputs
    assert run("all", *args, "-o", str(outdir), "--q", q) == 0
    observations = features.build_observations(
        artifacts.read_survey(outdir / "survey.csv"),
        artifacts.read_encounter_sets(outdir / "encounters.csv", outdir / "pairs.csv"),
    )
    _, columns, rows = read_table(outdir / "features.csv")
    assert [row[:2] for row in rows] == [[o.rater_id, o.ratee_id] for o in observations]
    td = [float(row[columns.index("temporal_diversity")]) for row in rows]
    days = [int(row[columns.index("n_common_days")]) for row in rows]
    closeness = [o.closeness for o in observations]
    labels = {label: [i for i, c in enumerate(closeness) if c == label] for label in set(closeness)}

    _, columns, rows = read_table(outdir / "subgroups.csv")
    mean = columns.index("mean")
    means = {int(row[1]): float(row[mean]) for row in rows if row[0] == "temporal_diversity" and row[mean]}
    assert means == {label: pytest.approx(np.mean([td[i] for i in members])) for label, members in labels.items()}

    _, columns, rows = read_table(outdir / "compare.csv")
    r = {row[0]: row[columns.index("r")] for row in rows}["temporal_diversity"]
    expected = stats.pearson_r(td, [float(c) for c in closeness])
    assert float(r) == pytest.approx(expected) if r else abs(expected) == pytest.approx(1.0)

    # at the most common days of a subgroup, evolve reads the pairs with that many, on all their days
    _, columns, rows = read_table(outdir / "evolution.csv")
    evolution = {(int(row[0]), int(row[1])): row[2] for row in rows}
    for label, members in labels.items():
        d = max(days[i] for i in members)
        full = [td[i] for i in members if days[i] == d]
        assert float(evolution[label, d]) == pytest.approx(sum(full) / len(full))


class TestStageErrors:
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--width-t", "7", "width_t must divide 1440, got 7"),
            ("--q", "-1", "diversity order must be >= 0, got -1.0"),
            *(
                ("--threshold-m", value, f"distance threshold must be positive and finite, got {value}")
                for value in ("nan", "inf", "0.0", "-5.0")
            ),
            ("--width-grid", "7", "bad value for 'width_grid': '7' (width_t must divide 1440, got 7)"),
            ("--width-grid", "60,0", "bad value for 'width_grid': '60,0' (width_t must divide 1440, got 0)"),
            ("--q-grid", "-1", "bad value for 'q_grid': '-1' (diversity order must be >= 0, got -1.0)"),
            ("--q", "nan", "bad value for 'q': 'nan' (diversity order must be >= 0, got nan)"),
            ("--q-grid", "1,nan", "bad value for 'q_grid': '1,nan' (diversity order must be >= 0, got nan)"),
            *(
                ("--coverage-fraction", value, f"bad value for 'coverage_fraction': '{value}' (must be a fraction")
                for value in ("nan", "inf")
            ),
            *(
                ("--accuracy-cutoff", value, f"'accuracy_cutoff_m': '{value}' (accuracy cutoff must be positive, got")
                for value in ("nan", "0", "-5")
            ),
            ("--min-common-days", "0", "'min_common_days': '0' (min_common_days must be at least 1, got 0)"),
            *(
                ("--zone-offset", value, f"'zone_offset_minutes': '{value}' (unparseable zone offset: '{value}')")
                for value in ("5:30:00", "+a:b", "+-5:30", "--5:30", "+5:+30", "5:-0")
            ),
            ("--q", "inf", "bad value for 'q': 'inf' (diversity order must be finite, got inf)"),
            ("--q-grid", "1,inf", "bad value for 'q_grid': '1,inf' (diversity order must be finite, got inf)"),
            (
                "--window-end",
                "2016-03-31",
                "bad value for 'window_end': '2016-03-31' (window_end 2016-03-31 is before window_start 2016-04-01)",
            ),
            *(
                ("--min-days", value, f"bad value for 'min_days': '{value}' (min_days must be at least 1, got {value})")
                for value in ("0", "-4")
            ),
            ("--max-horizon", "-2", "bad value for 'max_horizon': '-2' (max_horizon must be at least 0, got -2)"),
            ("--seed", "-1", "bad value for 'seed': '-1' (seed must be at least 0, got -1)"),
            ("--synth-jitter", "-1", "bad value for 'synth_jitter': '-1' (jitter must be non-negative)"),
        ],
    )
    def test_bad_analysis_setting_fails_before_any_stage(self, outdir, capsys, flag, value, message):
        # flag=value: a value such as "--5:30" would read as a flag of its own
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir), f"{flag}={value}") == 1
        assert message in capsys.readouterr().err
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_huge_finite_threshold_keeps_every_co_occurrence(self, outdir):
        # every fix of a pair's common slots lies within 1e300 m: the join's one-cell case
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir), "--threshold-m", "1e300") == 0
        assert len(read_table(outdir / "encounters.csv")[2]) == 1200

    @pytest.mark.parametrize("delimiter", [";;", '"', "", "\n", "\r"])
    def test_bad_delimiter_fails_before_any_stage(self, outdir, capsys, delimiter):
        assert run("ingest", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir), "--delimiter", delimiter) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad value for 'delimiter': ") and err.count("\n") == 1
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_missing_upstream_artifact(self, outdir, capsys):
        assert run("sweep-t", "-o", str(outdir)) == 1
        err = capsys.readouterr().err
        assert "run `tiediv encounters` first" in err

    def test_features_requires_encounters(self, outdir, capsys):
        assert run("features", "-o", str(outdir)) == 1
        assert "encounters" in capsys.readouterr().err

    def test_ingest_requires_inputs(self, outdir, capsys):
        assert run("ingest", "-o", str(outdir)) == 1
        assert "--gps" in capsys.readouterr().err

    def test_missing_input_file(self, outdir, capsys):
        assert run("ingest", "--gps", "nope.csv", "--survey", SURVEY, "-o", str(outdir)) == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run("all", "--frobnicate", "1")
        assert excinfo.value.code == 2

    def test_bad_value_reports_key(self, outdir, capsys):
        assert run("synth", "-o", str(outdir), "--seed", "pi") == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("name", "column", "cell", "reason"),
        [
            ("fixes.csv", "lat", "north", "non-numeric lat/lon/accuracy"),
            ("survey.csv", "closeness_raw", "x", "non-integer closeness/proximity"),
            ("clean_fixes.csv", "lat", "north", "lat: could not convert string to float: 'north'"),
            ("valid_days.csv", "day", "x", "day: Invalid isoformat string: 'x'"),
            ("clean_fixes.csv", "slot", "999", "slot out of range"),
            ("clean_fixes.csv", "slot", "-1", "slot out of range"),
            ("clean_fixes.csv", "lat", "nan", "lat out of range"),
            ("clean_fixes.csv", "lat", "90.5", "lat out of range"),
            ("clean_fixes.csv", "lon", "500", "lon out of range"),
            ("clean_fixes.csv", "lon", "180.0", "lon out of range"),
            ("clean_fixes.csv", "slot", "9" * 20, f"slot: '{'9' * 20}' does not fit an int64"),
            ("encounters.csv", "slot", "x", "slot: invalid literal for int() with base 10: 'x'"),
            ("encounters.csv", "slot", "-1", "slot out of range"),
            ("encounters.csv", "slot", "999", "slot out of range"),
            ("encounters.csv", "cell", "not a cell", "cell: not a geohash-8 cell"),
            ("pairs.csv", "n_common_days", "9", "n_common_days does not match common_days"),
            ("pairs.csv", "n_common_days", "x", "n_common_days: invalid literal for int() with base 10: 'x'"),
            ("pairs.csv", "common_days", "2016-04-01|x", "common_days: Invalid isoformat string: 'x'"),
            ("encounters.csv", "user_lo", "zzz", "encounter for unknown pair ('zzz', 'sch000b')"),
            ("encounters.csv", "day", "2016-05-20", "day not a common day of its pair"),
            ("pairs.csv", "common_days", "|".join(f"2016-04-{d:02d}" for d in (2, 1, *range(3, 11))),
             "common_days not strictly increasing"),
            *(
                pytest.param(name, "user_id", "x" * 200_000, "field larger than field limit (131072)",
                             id=f"{name}-user_id-over the csv field limit")
                for name in ("fixes.csv", "clean_fixes.csv")
            ),
        ],
    )
    def test_corrupted_staged_artifact(self, outdir, capsys, name, column, cell, reason):
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        path = outdir / name
        lines = path.read_text(encoding="utf-8").splitlines(True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        cells = lines[header + 2].rstrip("\n").split(",")
        cells[lines[header].rstrip("\n").split(",").index(column)] = cell
        lines[header + 2] = ",".join(cells) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run(self.READ_BY[name], "-o", str(outdir)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: data row 2: {reason}\n"

    DAYS = "|".join(f"2016-04-{d:02d}" for d in range(1, 11))

    @pytest.mark.parametrize(
        ("name", "line", "inserted", "reason"),
        [
            ("pairs.csv", "sch000a,sch000b,1,2016-04-01", True, "pair listed twice"),
            ("pairs.csv", f"soc000a,soc000b,11,2016-04-01|{DAYS}", False, "common_days not strictly increasing"),
            ("pairs.csv", f"soc000b,soc000a,10,{DAYS}", False, "user_lo not before user_hi"),
            ("encounters.csv", "sch000a,sch000b,2016-04-01,150,ts5euv95", True, "encounter listed twice"),
        ],
    )
    def test_staged_edit_beyond_one_cell(self, outdir, capsys, name, line, inserted, reason):
        # `line` goes in as data row 2, after data row 1 or in its place
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        path = outdir / name
        lines = path.read_text(encoding="utf-8").splitlines(True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[header + 2 : header + 2 + (not inserted)] = [line + "\n"]
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run("features", "-o", str(outdir)) == 1
        assert capsys.readouterr().err == f"error: {path}: data row 2: {reason}\n"

    def test_staged_artifact_reports_its_first_bad_row(self, outdir, capsys):
        # a range failure in data row 2 comes before a parse failure in data row 3
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        path = outdir / "clean_fixes.csv"
        lines = path.read_text(encoding="utf-8").splitlines(True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        columns = lines[header].rstrip("\n").split(",")
        for row, column, cell in ((2, "slot", "999"), (3, "lat", "north")):
            cells = lines[header + row].rstrip("\n").split(",")
            cells[columns.index(column)] = cell
            lines[header + row] = ",".join(cells) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run("encounters", "-o", str(outdir)) == 1
        assert capsys.readouterr().err == f"error: {path}: data row 2: slot out of range\n"

    def test_staged_artifacts_without_data_rows(self, outdir, capsys):
        # no fix is accurate to 1 m: clean_fixes.csv and valid_days.csv hold only a header
        for stage in ("ingest", "preprocess", "encounters"):
            assert run(stage, "--gps", GPS, "--survey", SURVEY, "-o", str(outdir), "--accuracy-cutoff", "1") == 0
        assert read_table(outdir / "clean_fixes.csv")[2] == []
        assert read_table(outdir / "pairs.csv")[2] == []
        capsys.readouterr()
        assert run("features", "-o", str(outdir)) == 1
        assert capsys.readouterr().err == "error: no observations: no surveyed pair passed the pipeline\n"

    def test_staged_artifact_of_meta_lines_only(self, outdir, capsys):
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        path = outdir / "valid_days.csv"
        lines = path.read_text(encoding="utf-8").splitlines(True)
        path.write_text("".join(line for line in lines if line.startswith("#")), encoding="utf-8")
        capsys.readouterr()
        assert run("encounters", "-o", str(outdir)) == 1
        assert capsys.readouterr().err == f"error: {path}: no header line\n"

    def widened_row(self, outdir) -> Path:
        """Run `all`, then give data row 3 of clean_fixes.csv one cell too many; the artifact's path."""
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        path = outdir / "clean_fixes.csv"
        lines = path.read_text(encoding="utf-8").splitlines(True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[header + 3] = lines[header + 3].rstrip("\n") + ",extra\n"
        path.write_text("".join(lines), encoding="utf-8")
        return path

    def test_staged_row_of_the_wrong_width(self, outdir, capsys):
        path = self.widened_row(outdir)
        capsys.readouterr()
        assert run("encounters", "-o", str(outdir)) == 1
        assert capsys.readouterr().err == f"error: {path}: data row 3: 6 cells, 5 columns\n"

    # the wide row in blocks of one data row, and of two
    @pytest.mark.parametrize("block_bytes", [1, 64])
    def test_staged_row_of_the_wrong_width_in_a_later_chunk(self, outdir, capsys, monkeypatch, block_bytes):
        path = self.widened_row(outdir)
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
        capsys.readouterr()
        assert run("encounters", "-o", str(outdir)) == 1
        assert capsys.readouterr().err == f"error: {path}: data row 3: 6 cells, 5 columns\n"

    def test_staged_header_csv_cannot_read(self, outdir, capsys):
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        path = outdir / "clean_fixes.csv"
        lines = path.read_text(encoding="utf-8").splitlines(True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[header] = "x" * 200_000 + lines[header]
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run("encounters", "-o", str(outdir)) == 1
        assert capsys.readouterr().err == f"error: {path}: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("block_bytes", [4096, 1 << 21])  # the last holds the artifact
    @pytest.mark.parametrize("quote", [False, True], ids=["plain", "csv"])
    def test_undecodable_byte_in_a_staged_artifact(self, outdir, capsys, monkeypatch, block_bytes, quote):
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        path = outdir / "fixes.csv"
        data = path.read_bytes()
        if quote:  # a quoted cell in the first data row
            at = data.index(b"\nlone") + 1
            end = data.index(b",", at)
            data = data[:at] + b'"' + data[at:end] + b'"' + data[end:]
        offset = data.index(b"\n", len(data) // 2) + 2  # in a user id, far past one block
        path.write_bytes(data[:offset] + b"\xe9" + data[offset + 1 :])
        monkeypatch.setattr(ingest, "BLOCK_BYTES", block_bytes)
        capsys.readouterr()
        assert run("preprocess", "-o", str(outdir)) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xe9 in position {offset}: "
            "invalid continuation byte\n"
        )

    def test_undecodable_byte_in_a_meta_line(self, outdir, capsys):
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        path = outdir / "fixes.csv"
        data = path.read_bytes()
        assert data.startswith(b"# ")
        path.write_bytes(data[:2] + b"\xe9" + data[3:])
        capsys.readouterr()
        assert run("preprocess", "-o", str(outdir)) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xe9 in position 2: invalid continuation byte\n"
        )

    READ_BY = {
        "fixes.csv": "preprocess",
        "survey.csv": "preprocess",
        "clean_fixes.csv": "encounters",
        "valid_days.csv": "encounters",
        "encounters.csv": "features",
        "pairs.csv": "features",
    }


@lru_cache(maxsize=1)
def mini_outdir() -> dict[str, str]:
    """The text of every file `tiediv all` writes on the mini fixture, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert main(["all", "--gps", GPS, "--survey", SURVEY, "-o", str(out)]) == 0
        return {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()}


def head_and_rows(text: str) -> tuple[str, list[list[str]]]:
    """The meta lines and header of an artifact that holds no quoted cell, and its data rows."""
    lines = text.splitlines(True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return "".join(lines[: header + 1]), [next(csv.reader([line])) for line in lines[header + 1 :]]


def check_encounter_sets(sets: dict, pair_rows: int) -> None:
    """What the writer's encounter sets hold.

    Each pair comes once, its users in order, with strictly increasing
    common days, and each encounter once, on one of them, at a geohash-8 cell.
    """
    assert len(sets) == pair_rows
    for pair, es in sets.items():
        assert pair[0] < pair[1], pair
        cells = {e.cell for e in es.encounters}
        assert all(len(cell) == GEOHASH_LENGTH and set(cell) <= set(GEOHASH_BASE32) for cell in cells), pair
        assert list(es.common_days) == sorted(set(es.common_days)), pair
        assert all(e[:2] == pair and e.day in es.common_days for e in es.encounters), pair
        assert len({(e.day, e.slot) for e in es.encounters}) == len(es.encounters), pair


# values an edit puts in a cell, besides another row's cell of the column and junk text
BOUNDARY_NUMBERS = ["0", "-1", "1", "287", "288", "-0.0", "90", "-90.0", "90.5", "180", "-180", "1e308",
                    "inf", "-inf", "nan", "9" * 20, "-" + "9" * 19, "2147483648", "0.1", "1.", ".5"]
OUTSIDE_WINDOW = ["2016-03-31", "2016-05-20", "1970-01-01", "0001-01-01", "9999-12-31", "2016-02-29"]
DAY_ITEMS = st.sampled_from(OUTSIDE_WINDOW + [f"2016-04-{d:02d}" for d in range(1, 13)] + ["", "x"])
JUNK = st.text(st.sampled_from(list("ax0-.:|# é") + [",", '"', "\n", "\r", "\0", "\u2028"]), max_size=8)


@given(st.sampled_from(sorted(TestStageErrors.READ_BY)), st.data())
@settings(max_examples=200, deadline=None)
def test_edited_staged_artifact_is_read_or_rejected(name, data):
    """One edited cell of a staged artifact: the next stage exits 0, or 1 with one error line.

    It must never raise, and when it exits 0 what `read_encounter_sets`
    returned holds the facts its writer's output holds.
    """
    files = dict(mini_outdir())
    head, rows = head_and_rows(files[name])
    i = data.draw(st.integers(0, len(rows) - 1), label="data row")
    j = data.draw(st.integers(0, len(rows[i]) - 1), label="column")
    rows[i][j] = data.draw(st.one_of(
        st.sampled_from([row[j] for row in rows]),
        st.sampled_from(BOUNDARY_NUMBERS),
        st.sampled_from(OUTSIDE_WINDOW),
        JUNK,
        st.lists(DAY_ITEMS, max_size=12).map("|".join),
    ), label="cell")
    body = io.StringIO()
    csv.writer(body, lineterminator="\n").writerows(rows)
    files[name] = head + body.getvalue()
    returned = []

    def reading(*paths, read=artifacts.read_encounter_sets):
        returned.append(read(*paths))
        return returned[-1]

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(artifacts, "read_encounter_sets", reading):
        for file, text in files.items():
            (Path(tmp) / file).write_text(text, encoding="utf-8", newline="")
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([TestStageErrors.READ_BY[name], "-o", tmp])
    if code:
        assert code == 1 and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    else:
        for sets in returned:
            check_encounter_sets(sets, len(head_and_rows(mini_outdir()["pairs.csv"])[1]))


def renamed_inputs(directory: Path, renamed: dict[str, str]) -> list[str]:
    """--gps/--survey arguments for the mini fixture with user ids renamed, each new id quoted."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = []
    for flag, name in (("--gps", "mini_gps.csv"), ("--survey", "mini_survey.csv")):
        text = (DATA / name).read_text(encoding="utf-8")
        for old, new in renamed.items():
            text = text.replace(old, '"' + new.replace('"', '""') + '"')
        (directory / name).write_bytes(text.encode("utf-8"))
        inputs += [flag, str(directory / name)]
    return inputs


class TestWriteCheck:
    """The exit status holds only if each artifact holds what its writer wrote."""

    def run_ingest(self, outdir, capsys, inputs=("--gps", GPS, "--survey", SURVEY)) -> str:
        capsys.readouterr()
        assert run("ingest", *inputs, "-o", str(outdir)) == 1
        return capsys.readouterr().err

    def patch_join_rows(self, monkeypatch, change):
        """Make the writers join each chunk's columns by `change(join_rows)`."""
        monkeypatch.setattr(artifacts, "_join_rows", change(artifacts._join_rows))

    def drop_first_row(self, join_rows):
        return lambda columns: join_rows([column[1:] for column in columns])

    def head_lines(self, outdir: Path, inputs=("--gps", GPS, "--survey", SURVEY)) -> int:
        """The '#' meta lines and the header of `fixes.csv`, from a good ingest of `inputs` into `outdir`.

        A refused artifact is never published, so its head is read from a good run's; the
        meta lines do not depend on the outdir.
        """
        assert run("ingest", *inputs, "-o", str(outdir)) == 0
        lines = (outdir / "fixes.csv").read_text(encoding="utf-8").splitlines()
        return next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1

    def test_unquoted_comma_in_a_user_id(self, tmp_path, outdir, capsys, monkeypatch):
        inputs = renamed_inputs(tmp_path / "in", {"sch000a": "sch,000a"})
        monkeypatch.setattr(artifacts, "_csv_cells", lambda texts: np.array(list(texts), dtype=object))
        err = self.run_ingest(outdir, capsys, inputs)
        assert err == f"error: {outdir / 'fixes.csv'}: csv cell 'sch,000a' does not parse back to 'sch,000a'\n"

    @pytest.mark.parametrize("row, wrong", [((1, 2, 3), "longer"), ((1,), "shorter")])
    def test_row_of_another_width_than_its_header(self, tmp_path, row, wrong):
        # every row one value too long or too short: no row disagrees with another, only with the header
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError) as raised:
            artifacts.write_table(path, {}, ["a", "b"], [row, row])
        assert str(raised.value) == f"{path}: zip() argument 2 is {wrong} than argument 1"
        assert not path.exists()

    def test_columns_that_cannot_share_a_header(self, tmp_path):
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="columns of \\[1, 2\\] rows"):
            artifacts.write_columns(path, {}, {"a": np.zeros(2), "b": ["x"]})
        with pytest.raises(ValueError, match="a column name is repeated"):
            artifacts.write_table(path, {}, ["a", "a"], [(1, 2)])

    def test_dropped_row(self, tmp_path, outdir, capsys, monkeypatch):
        written = self.head_lines(tmp_path / "good") + 3120
        self.patch_join_rows(monkeypatch, self.drop_first_row)
        err = self.run_ingest(outdir, capsys)
        path = outdir / "fixes.csv"
        assert err == f"error: {path}: holds {written - 1} lines, but {written} were written\n"

    def test_refused_artifact_is_not_published(self, outdir, capsys, monkeypatch):
        # neither the refused fixes.csv nor its temporary file is left, so the next stage cannot read it
        self.patch_join_rows(monkeypatch, self.drop_first_row)
        self.run_ingest(outdir, capsys)
        assert list(outdir.iterdir()) == []
        assert run("preprocess", "-o", str(outdir)) == 1
        assert capsys.readouterr().err == f"error: {outdir / 'fixes.csv'} not found; run `tiediv ingest` first\n"

    def test_refused_rewrite_removes_the_earlier_artifact(self, outdir, capsys, monkeypatch):
        # a good run's fixes.csv is not read in place of the refused one
        assert run("ingest", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        self.patch_join_rows(monkeypatch, self.drop_first_row)
        self.run_ingest(outdir, capsys)
        assert sorted(p.name for p in outdir.iterdir()) == ["ingest_rejects.txt", "survey.csv"]
        assert run("preprocess", "-o", str(outdir)) == 1
        assert capsys.readouterr().err == f"error: {outdir / 'fixes.csv'} not found; run `tiediv ingest` first\n"

    def test_published_text_is_checked(self, outdir):
        # ingest_rejects.txt's writer: a text cut short of its line end is refused, and nothing is left
        outdir.mkdir()
        assert artifacts.publish_text(outdir / "notes.txt", "a\nb\n") == outdir / "notes.txt"
        assert (outdir / "notes.txt").read_bytes() == b"a\nb\n"
        with pytest.raises(ValueError, match="notes.txt: does not end with a line end"):
            artifacts.publish_text(outdir / "notes.txt", "a\nb")
        assert list(outdir.iterdir()) == []

    def test_float_text_that_does_not_round_trip(self, outdir, capsys, monkeypatch):
        monkeypatch.setattr(artifacts, "_float_texts", lambda floats: [f"{v:.6g}" for v in floats.tolist()])
        err = self.run_ingest(outdir, capsys)
        assert err == f"error: {outdir / 'fixes.csv'}: '23.194' does not read back as 23.194000000000003\n"

    def test_time_text_that_does_not_round_trip(self, tmp_path, outdir, capsys, monkeypatch):
        gps = tmp_path / "gps.csv"
        text = (DATA / "mini_gps.csv").read_text(encoding="utf-8")
        gps.write_text(text.replace("T07:00:00+", "T07:00:00.25+", 1), encoding="utf-8")
        iso_utc_bytes = artifacts._iso_utc_bytes

        def without_quarter_seconds(t_us):
            chars = iso_utc_bytes(t_us)
            chars[19:26, t_us % 10**6 == 250000] = 0  # NUL bytes, which the writer deletes
            return chars

        monkeypatch.setattr(artifacts, "_iso_utc_bytes", without_quarter_seconds)
        err = self.run_ingest(outdir, capsys, ("--gps", str(gps), "--survey", SURVEY))
        assert err == (
            f"error: {outdir / 'fixes.csv'}: '2016-04-01T07:00:00+00:00' does not read back as 1459494000250000\n"
        )

    def test_truncated_file(self, outdir, capsys, monkeypatch):
        # the last chunk, cut mid-row
        self.patch_join_rows(monkeypatch, lambda join_rows: lambda columns: join_rows(columns)[:-5])
        err = self.run_ingest(outdir, capsys)
        assert err == f"error: {outdir / 'fixes.csv'}: does not end with a line end\n"

    def test_header_only_artifact_when_rows_were_written(self, tmp_path, outdir, capsys, monkeypatch):
        head = self.head_lines(tmp_path / "good")
        self.patch_join_rows(monkeypatch, lambda join_rows: lambda columns: "")
        err = self.run_ingest(outdir, capsys)
        path = outdir / "fixes.csv"
        assert err == f"error: {path}: holds {head} lines, but {head + 3120} were written\n"

    @pytest.mark.parametrize("line_break", ["\n", "\r"])
    def test_quoted_line_break_is_counted(self, tmp_path, outdir, capsys, monkeypatch, line_break):
        inputs = renamed_inputs(tmp_path / "in", {"sch000a": f"sch{line_break}000a"})
        head = self.head_lines(tmp_path / "good", inputs)
        assert run("all", *inputs, "-o", str(outdir)) == 0
        # fixes.csv: one line end per row, and one more inside each of the 600 cells of sch\n000a;
        # its writer published it, so it counted these line ends as it formatted them
        fixes = outdir / "fixes.csv"
        in_cells = 600 if line_break == "\n" else 0
        assert fixes.read_bytes().count(b"\n") == head + 3120 + in_cells
        # the staged readers read each such cell back: a rerun stage writes the same bytes
        written = hash_dir(outdir)
        for stage in ("preprocess", "encounters", "features"):
            assert run(stage, *inputs, "-o", str(outdir)) == 0, stage
        assert hash_dir(outdir) == written
        self.patch_join_rows(monkeypatch, self.drop_first_row)
        err = self.run_ingest(tmp_path / "dropped", capsys, inputs)
        path = tmp_path / "dropped" / "fixes.csv"
        written = head + 3120 + in_cells
        dropped = 1 + (line_break == "\n")  # the first row is sch\n000a's
        assert err == f"error: {path}: holds {written - dropped} lines, but {written} were written\n"

    def test_cut_inside_a_quoted_line_break(self, tmp_path, capsys, monkeypatch):
        # each chunk loses its text up to its first "\n", which lies inside the
        # first row's quoted user id: the rows that csv reads stay 3120
        inputs = renamed_inputs(tmp_path / "in", {"sch000a": "sch\n000a"})
        head = self.head_lines(tmp_path / "good", inputs)
        cut = []  # the text of each chunk as written

        def from_first_line_end(join_rows):
            def join(columns):
                cut.append(join_rows(columns).partition("\n")[2])
                return cut[-1]

            return join

        self.patch_join_rows(monkeypatch, from_first_line_end)
        err = self.run_ingest(tmp_path / "cut", capsys, inputs)
        path = tmp_path / "cut" / "fixes.csv"
        assert cut[0].startswith('000a",')
        written = head + 3120 + 600
        assert err == f"error: {path}: holds {written - 1} lines, but {written} were written\n"


class TestSynthCommand:
    def test_same_seed_identical_hashes(self, outdir, tmp_path):
        other = tmp_path / "other"
        args = ("--synth-pairs", "2", "--synth-days", "8", "--seed", "7")
        assert run("synth", "-o", str(outdir), *args) == 0
        assert run("synth", "-o", str(other), *args) == 0
        a = hash_dir(outdir)
        assert sorted(a) == ["synth_gps.csv", "synth_survey.csv"]
        assert hash_dir(other) == a
        assert run("synth", "-o", str(outdir), *args) == 0
        assert hash_dir(outdir) == a

    def test_synth_output_feeds_full_chain(self, outdir, tmp_path):
        assert run("synth", "-o", str(outdir), "--synth-pairs", "5", "--synth-days", "10",
                   "--seed", "3") == 0
        results = tmp_path / "results"
        assert run(
            "all",
            "--gps", str(outdir / "synth_gps.csv"),
            "--survey", str(outdir / "synth_survey.csv"),
            "-o", str(results),
        ) == 0
        _, columns, rows = read_table(results / "compare.csv")
        f_by_feature = {
            row[columns.index("feature")]: row[columns.index("f_value")] for row in rows
        }
        assert f_by_feature["temporal_diversity"]
        td = float(f_by_feature["temporal_diversity"])
        for other_feature in ("location_diversity", "mean_encounters"):
            if f_by_feature[other_feature]:
                assert td > float(f_by_feature[other_feature])


class TestConfigFile:
    def test_file_values_applied_and_flags_override(self, outdir, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("synth-pairs=2\nsynth-days=9\nseed=5\n", encoding="utf-8")
        assert run("synth", "--config", str(config), "-o", str(outdir),
                   "--synth-days", "8") == 0
        meta, _, _ = read_table(outdir / "synth_gps.csv")
        assert meta["synth_pairs"] == "2"  # from file
        assert meta["synth_days"] == "8"  # flag wins
        assert meta["seed"] == "5"

    def test_unknown_config_key_rejected(self, outdir, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("wibble=1\n", encoding="utf-8")
        assert run("synth", "--config", str(config), "-o", str(outdir)) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_zone_offset_accepts_hhmm(self, outdir):
        assert run("synth", "-o", str(outdir), "--zone-offset", "+05:30",
                   "--synth-pairs", "1", "--synth-days", "8") == 0
        meta, _, _ = read_table(outdir / "synth_gps.csv")
        assert meta["zone_offset_minutes"] == "330"

    def test_file_accepts_flag_spellings(self, outdir, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "zone-offset=+04:00\naccuracy-cutoff=45\nnaive_utc_offset=-90\n"
            "synth-pairs=1\nsynth-days=8\n",
            encoding="utf-8",
        )
        assert run("synth", "--config", str(config), "-o", str(outdir)) == 0
        meta, _, _ = read_table(outdir / "synth_gps.csv")
        assert meta["zone_offset_minutes"] == "240"
        assert meta["accuracy_cutoff_m"] == "45.0"
        assert meta["naive_utc_offset_minutes"] == "-90"


class TestProvenance:
    def test_outputs_embed_config_and_input_hashes(self, outdir):
        assert run("ingest", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        meta, _, _ = read_table(outdir / "fixes.csv")
        assert meta["zone_offset_minutes"] == "330"
        assert len(meta["sha256_mini_gps.csv"]) == 64
        assert len(meta["sha256_mini_survey.csv"]) == 64

    def test_rejection_report_written(self, outdir):
        assert run("ingest", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        text = (outdir / "ingest_rejects.txt").read_text()
        assert "accepted=" in text
