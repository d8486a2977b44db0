"""CLI stages, chaining, determinism, and error handling."""

import hashlib
import random
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv import artifacts
from tiediv.artifacts import read_table
from tiediv.cli import main

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
        a = {k: v for k, v in hash_dir(outdir).items() if k != "ingest_rejects.txt"}
        b = {k: v for k, v in hash_dir(staged).items() if k != "ingest_rejects.txt"}
        # config echo contains the outdir path, so compare content rows only
        for name in ALL_ARTIFACTS:
            _, cols_a, rows_a = read_table(outdir / name)
            _, cols_b, rows_b = read_table(staged / name)
            assert (cols_a, rows_a) == (cols_b, rows_b), name


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
        assert sorted(a) == sorted(b) == sorted(names)
        # only the config echo (the outdir) differs between the two runs
        assert data_rows(tmp_path / "all", ALL_ARTIFACTS) == data_rows(
            tmp_path / "staged", ALL_ARTIFACTS
        )
        assert a["ingest_rejects.txt"] == b["ingest_rejects.txt"]
        rejects = (tmp_path / "all" / "ingest_rejects.txt").read_text()
        assert "duplicate header row" in rejects and "negative satellite count" in rejects


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


class TestStageErrors:
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--width-t", "7", "width_t must divide 1440, got 7"),
            ("--q", "-1", "diversity order must be >= 0, got -1.0"),
        ],
    )
    def test_bad_analysis_setting_fails_before_any_stage(self, outdir, capsys, flag, value, message):
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir), flag, value) == 1
        assert message in capsys.readouterr().err
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


class TestSynthCommand:
    def test_same_seed_identical_hashes(self, outdir, tmp_path):
        other = tmp_path / "other"
        args = ("--synth-pairs", "2", "--synth-days", "8", "--seed", "7")
        assert run("synth", "-o", str(outdir), *args) == 0
        assert run("synth", "-o", str(other), *args) == 0
        a = hash_dir(outdir)
        b = hash_dir(other)
        # meta echoes the outdir; compare the parsed content instead
        for name in ("synth_gps.csv", "synth_survey.csv"):
            _, cols_a, rows_a = read_table(outdir / name)
            _, cols_b, rows_b = read_table(other / name)
            assert (cols_a, rows_a) == (cols_b, rows_b)
        assert run("synth", "-o", str(outdir), *args) == 0
        assert hash_dir(outdir) == a  # same outdir: byte-identical

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
