"""CLI stages, chaining, determinism, and error handling."""

import hashlib
import random
import tempfile
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv import artifacts, ingest
from tiediv.cli import main
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


def test_main_calls_in_one_process_share_no_settings(outdir, tmp_path):
    # the second call sets no --q: it must not keep the first call's
    assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir), "--q", "2") == 0
    with_q2 = data_rows(outdir, ["features.csv"])
    assert run("features", "-o", str(outdir)) == 0
    reference = tmp_path / "reference"
    assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(reference)) == 0
    assert data_rows(outdir, ["features.csv"]) == data_rows(reference, ["features.csv"]) != with_q2


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
        ],
    )
    def test_bad_analysis_setting_fails_before_any_stage(self, outdir, capsys, flag, value, message):
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir), flag, value) == 1
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
            ("encounters.csv", "slot", "x", "slot: invalid literal for int() with base 10: 'x'"),
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

    def test_staged_artifacts_without_data_rows(self, outdir):
        # no fix is accurate to 1 m: clean_fixes.csv and valid_days.csv hold only a header
        for stage in ("ingest", "preprocess", "encounters"):
            assert run(stage, "--gps", GPS, "--survey", SURVEY, "-o", str(outdir), "--accuracy-cutoff", "1") == 0
        assert read_table(outdir / "clean_fixes.csv")[2] == []
        assert read_table(outdir / "pairs.csv")[2] == []

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

    @pytest.mark.parametrize("chunk_rows", [1, 2])
    def test_staged_row_of_the_wrong_width_in_a_later_chunk(self, outdir, capsys, monkeypatch, chunk_rows):
        path = self.widened_row(outdir)
        monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
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

    @pytest.mark.parametrize("block_bytes", [4096, ingest.BLOCK_BYTES])
    @pytest.mark.parametrize("quote", [False, True], ids=["plain", "csv"])
    def test_undecodable_byte_in_a_staged_artifact(self, outdir, capsys, monkeypatch, block_bytes, quote):
        assert run("all", "--gps", GPS, "--survey", SURVEY, "-o", str(outdir)) == 0
        path = outdir / "fixes.csv"
        data = path.read_bytes()
        if quote:  # a quoted cell in the first data row: csv reads the rest of the file
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
    }


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
        """Make the writers join their rows by `change(join_rows)`."""
        monkeypatch.setattr(artifacts, "_join_rows", change(artifacts._join_rows))

    def head_lines(self, path: Path) -> int:
        """The '#' meta lines and the header of an artifact."""
        lines = path.read_text(encoding="utf-8").splitlines()
        return next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1

    def test_unquoted_comma_in_a_user_id(self, tmp_path, outdir, capsys, monkeypatch):
        inputs = renamed_inputs(tmp_path / "in", {"sch000a": "sch,000a"})
        monkeypatch.setattr(artifacts, "_csv_cells", lambda texts: np.array(list(texts), dtype=object))
        err = self.run_ingest(outdir, capsys, inputs)
        assert err == f"error: {outdir / 'fixes.csv'}: csv cell 'sch,000a' does not parse back to 'sch,000a'\n"

    def test_dropped_row(self, outdir, capsys, monkeypatch):
        self.patch_join_rows(monkeypatch, lambda join_rows: lambda rows: join_rows(islice(rows, 1, None)))
        err = self.run_ingest(outdir, capsys)
        path = outdir / "fixes.csv"
        written = self.head_lines(path) + 3120
        assert err == f"error: {path}: holds {written - 1} lines, but {written} were written\n"

    def test_float_text_that_does_not_round_trip(self, outdir, capsys, monkeypatch):
        monkeypatch.setattr(artifacts, "_float_texts", lambda floats: [f"{v:.6g}" for v in floats.tolist()])
        err = self.run_ingest(outdir, capsys)
        assert err == f"error: {outdir / 'fixes.csv'}: '23.194' does not read back as 23.194000000000003\n"

    def test_time_text_that_does_not_round_trip(self, tmp_path, outdir, capsys, monkeypatch):
        gps = tmp_path / "gps.csv"
        text = (DATA / "mini_gps.csv").read_text(encoding="utf-8")
        gps.write_text(text.replace("T07:00:00+", "T07:00:00.25+", 1), encoding="utf-8")
        iso_utc_texts = artifacts.iso_utc_texts
        monkeypatch.setattr(
            artifacts, "iso_utc_texts", lambda t_us: [t.replace(".250000", "") for t in iso_utc_texts(t_us)]
        )
        err = self.run_ingest(outdir, capsys, ("--gps", str(gps), "--survey", SURVEY))
        assert err == (
            f"error: {outdir / 'fixes.csv'}: '2016-04-01T07:00:00+00:00' does not read back as 1459494000250000\n"
        )

    def test_truncated_file(self, outdir, capsys, monkeypatch):
        # the last chunk, cut mid-row
        self.patch_join_rows(monkeypatch, lambda join_rows: lambda rows: join_rows(rows)[:-5])
        err = self.run_ingest(outdir, capsys)
        assert err == f"error: {outdir / 'fixes.csv'}: does not end with a line end\n"

    def test_header_only_artifact_when_rows_were_written(self, outdir, capsys, monkeypatch):
        self.patch_join_rows(monkeypatch, lambda join_rows: lambda rows: "")
        err = self.run_ingest(outdir, capsys)
        path = outdir / "fixes.csv"
        head = self.head_lines(path)
        assert err == f"error: {path}: holds {head} lines, but {head + 3120} were written\n"

    @pytest.mark.parametrize("line_break", ["\n", "\r"])
    def test_quoted_line_break_is_counted(self, tmp_path, outdir, capsys, monkeypatch, line_break):
        inputs = renamed_inputs(tmp_path / "in", {"sch000a": f"sch{line_break}000a"})
        receipts = []
        check_written = artifacts.check_written
        monkeypatch.setattr(artifacts, "check_written", lambda r: receipts.append(r) or check_written(r))
        assert run("all", *inputs, "-o", str(outdir)) == 0
        # fixes.csv: one line end per row, and one more inside each of the 600 cells of sch\n000a
        fixes = outdir / "fixes.csv"
        in_cells = 600 if line_break == "\n" else 0
        assert receipts[0] == (fixes, self.head_lines(fixes) + 3120 + in_cells)
        # the staged readers read each such cell back: a rerun stage writes the same bytes
        written = hash_dir(outdir)
        for stage in ("preprocess", "encounters", "features"):
            assert run(stage, *inputs, "-o", str(outdir)) == 0, stage
        assert hash_dir(outdir) == written
        self.patch_join_rows(monkeypatch, lambda join_rows: lambda rows: join_rows(islice(rows, 1, None)))
        err = self.run_ingest(tmp_path / "dropped", capsys, inputs)
        path = tmp_path / "dropped" / "fixes.csv"
        written = self.head_lines(path) + 3120 + in_cells
        dropped = 1 + (line_break == "\n")  # the first row is sch\n000a's
        assert err == f"error: {path}: holds {written - dropped} lines, but {written} were written\n"

    def test_cut_inside_a_quoted_line_break(self, tmp_path, capsys, monkeypatch):
        # each chunk loses its text up to its first "\n", which lies inside the
        # first row's quoted user id: the rows that csv reads stay 3120
        inputs = renamed_inputs(tmp_path / "in", {"sch000a": "sch\n000a"})
        self.patch_join_rows(monkeypatch, lambda join_rows: lambda rows: join_rows(rows).partition("\n")[2])
        err = self.run_ingest(tmp_path / "cut", capsys, inputs)
        path = tmp_path / "cut" / "fixes.csv"
        assert path.read_text(encoding="utf-8").splitlines()[self.head_lines(path)].startswith('000a",')
        written = self.head_lines(path) + 3120 + 600
        assert err == f"error: {path}: holds {written - 1} lines, but {written} were written\n"


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
