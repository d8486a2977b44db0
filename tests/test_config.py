"""Settings derived from the RunConfig fields: flags, parsers, defaults."""

from dataclasses import MISSING, fields

import pytest

from tiediv.cli import build_parser
from tiediv.config import RunConfig, build_config, load_config_file

# the command-line spellings every stage has accepted since the first release
FLAGS = {
    "-o",
    "--gps",
    "--survey",
    "--outdir",
    "--delimiter",
    "--naive-utc-offset",
    "--window-start",
    "--window-end",
    "--zone-offset",
    "--accuracy-cutoff",
    "--coverage-fraction",
    "--min-days",
    "--min-common-days",
    "--threshold-m",
    "--width-t",
    "--q",
    "--width-grid",
    "--q-grid",
    "--max-horizon",
    "--seed",
    "--synth-pairs",
    "--synth-days",
    "--synth-encounters-per-day",
    "--synth-schedule-slots",
    "--synth-jitter",
    "--synth-meet-prob",
    "--synth-places",
    "--synth-coverage-slots",
}


def stage_flags(command: str) -> set[str]:
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    parser = subparsers.choices[command]
    spellings = {s for action in parser._actions for s in action.option_strings}
    return spellings - {"-h", "--help", "--config"}


@pytest.mark.parametrize("command", ["ingest", "sweep-q", "synth", "all"])
def test_derived_flags_match_released_spellings(command):
    assert len(FLAGS) == 28
    assert stage_flags(command) == FLAGS


@pytest.mark.parametrize(
    "name", [f.name for f in fields(RunConfig) if f.default not in (None, MISSING)]
)
def test_echo_of_default_parses_back_to_default(name):
    default = RunConfig()
    echoed = default.echo()[name]
    assert getattr(build_config(flag_values={name: echoed}), name) == getattr(default, name)


def test_empty_q_is_shannon():
    assert build_config(flag_values={"q": RunConfig().echo()["q"]}).q is None


@pytest.mark.parametrize(
    ("key", "field_name"),
    [
        ("zone_offset_minutes", "zone_offset_minutes"),
        ("zone-offset", "zone_offset_minutes"),
        ("Accuracy-Cutoff", "accuracy_cutoff_m"),
        ("accuracy-cutoff-m", "accuracy_cutoff_m"),
        ("naive-utc-offset", "naive_utc_offset_minutes"),
        ("synth-pairs", "synth_pairs"),
        ("outdir", "outdir"),
    ],
)
def test_config_file_accepts_field_names_and_flags(tmp_path, key, field_name):
    path = tmp_path / "run.conf"
    path.write_text(f"{key} = 5\n", encoding="utf-8")
    assert load_config_file(path) == {field_name: "5"}


def test_config_file_rejects_short_flag(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("o=out\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key 'o'"):
        load_config_file(path)


def test_stage_options_come_from_run_config():
    cfg = build_config(flag_values={"delimiter": ";", "zone_offset_minutes": "60", "min_days": "3"})
    assert cfg.ingest_options().delimiter == ";"
    pre = cfg.preprocess_config()
    assert (pre.zone_offset_minutes, pre.min_days) == (60, 3)
