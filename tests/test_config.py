"""Settings derived from the RunConfig fields: flags, parsers, defaults."""

import inspect
import io
from dataclasses import MISSING, FrozenInstanceError, fields
from datetime import date
from pathlib import Path

import pytest

from tiediv.cli import build_parser, main
from tiediv.config import RunConfig, build_config, load_config_file
from tiediv.encounter import detect_encounters
from tiediv.features import temporal_diversity
from tiediv.ingest import SurveyRecord, parse_gps_log
from tiediv.preprocess import filter_pipeline

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
    parser = build_parser()
    assert parser.parse_args([command]).command == command
    spellings = {s for action in parser._actions for s in action.option_strings}
    return spellings - {"-h", "--help", "--config"}


@pytest.mark.parametrize("command", ["ingest", "sweep-q", "synth", "all"])
def test_derived_flags_match_released_spellings(command):
    assert len(FLAGS) == 28
    assert stage_flags(command) == FLAGS


def test_a_setting_may_come_before_the_command():
    args = build_parser().parse_args(["--seed", "3", "synth", "-o", "out"])
    assert (args.command, args.cfg_seed, args.cfg_outdir) == ("synth", "3", "out")


@pytest.mark.parametrize(
    "name", [f.name for f in fields(RunConfig) if f.default not in (None, MISSING)]
)
def test_echo_of_default_parses_back_to_default(name):
    default = RunConfig()
    echoed = default.echo()[name]
    assert getattr(build_config(flag_values={name: echoed}), name) == getattr(default, name)


# a value that breaks each checked field's rule, or a rule between fields reported on it
BAD_VALUES = {
    "delimiter": ";;",
    "naive_utc_offset_minutes": 1440,
    "window_end": date(2016, 3, 31),
    "zone_offset_minutes": -1440,
    "accuracy_cutoff_m": float("nan"),
    "coverage_fraction": 1.5,
    "min_days": 0,
    "min_common_days": 0,
    "threshold_m": float("inf"),
    "width_t": 7,
    "q": float("inf"),
    "width_grid": (60, 7),
    "q_grid": (1.0, -1.0),
    "max_horizon": -1,
    "seed": -1,
    "synth_pairs": 0,
    "synth_days": 0,
    "synth_encounters_per_day": 0,
    "synth_schedule_slots": (100, 101, 200),
    "synth_jitter": -1,
    "synth_meet_prob": 1.5,
    "synth_places": 0,
    "synth_coverage_slots": 2,
}


def test_every_checked_field_has_a_bad_value():
    assert {f.name for f in fields(RunConfig) if "check" in f.metadata} <= set(BAD_VALUES)


@pytest.mark.parametrize("name", BAD_VALUES)
def test_a_run_config_that_breaks_a_rule_is_never_built(name):
    with pytest.raises(ValueError, match=f"^bad value for '{name}': "):
        RunConfig(**{name: BAD_VALUES[name]})
    cfg = RunConfig()
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, name, BAD_VALUES[name])


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


def test_config_file_skips_comment_lines_and_rejects_a_line_without_equals(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("# the study's zone\n\nzone-offset = 330\n", encoding="utf-8")
    assert load_config_file(path) == {"zone_offset_minutes": "330"}
    path.write_text("seed 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"run\.conf:1: expected key=value, got 'seed 5'"):
        load_config_file(path)


def test_config_file_with_a_byte_order_mark(tmp_path):
    # as a spreadsheet or Windows editor saves it; the data readers skip the mark too
    path = tmp_path / "run.conf"
    path.write_text("min_days = 3\nzone-offset = 330\n", encoding="utf-8-sig")
    assert load_config_file(path) == {"min_days": "3", "zone_offset_minutes": "330"}


@pytest.mark.parametrize("line", ["delimiter=\t", "delimiter = \t", "delimiter=\t  "])
def test_config_file_sets_a_tab_delimiter(tmp_path, line):
    path = tmp_path / "run.conf"
    path.write_text(f"# a tab-separated export\n{line}\nmin_days = 3\n", encoding="utf-8")
    assert load_config_file(path) == {"delimiter": "\t", "min_days": "3"}
    cfg = build_config(load_config_file(path))
    log = "user_id\ttimestamp\tlat\tlon\taccuracy\nu1\t2016-04-03T10:02:11Z\t23.1\t72.6\t5\n"
    fixes, report = parse_gps_log(io.BytesIO(log.encode()), cfg)
    assert ([f.user_id for f in fixes], report.entries) == (["u1"], [])


def test_config_file_rejects_short_flag(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("o=out\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key 'o'"):
        load_config_file(path)


def test_stage_options_come_from_run_config():
    cfg = build_config(
        flag_values={"delimiter": ";", "zone_offset_minutes": "60", "min_days": "3", "coverage_fraction": "0"}
    )
    # fixes at 22:30 UTC, three days each for u1 and u2 and two for u3
    rows = [
        f"{user};2016-04-0{day}T22:30:00Z;23.1;72.6;5"
        for user, n_days in (("u1", 3), ("u2", 3), ("u3", 2))
        for day in range(2, 2 + n_days)
    ]
    log = "user_id;timestamp;lat;lon;accuracy\n" + "\n".join(rows) + "\n"
    fixes, report = parse_gps_log(io.BytesIO(log.encode()), cfg)
    assert (len(fixes), report.n_rejected) == (8, 0)
    result = filter_pipeline(fixes, [SurveyRecord("u1", "u2", 3, 3), SurveyRecord("u3", "u1", 3, 3)], cfg)
    # at +01:00, 22:30 UTC falls on the same local day; u3's two days are too few
    days = tuple(date(2016, 4, day) for day in (2, 3, 4))
    assert result.valid_days == {"u1": days, "u2": days}


def test_run_config_defaults_are_the_library_defaults():
    detect = inspect.signature(detect_encounters).parameters
    diversity = inspect.signature(temporal_diversity).parameters
    cfg = RunConfig()
    assert cfg.threshold_m == detect["threshold_m"].default
    assert cfg.min_common_days == detect["min_common_days"].default
    assert cfg.width_t == diversity["width_t"].default


ZONE_OFFSET_FIELDS = ("naive_utc_offset_minutes", "zone_offset_minutes")


@pytest.mark.parametrize("name", ZONE_OFFSET_FIELDS)
@pytest.mark.parametrize("text", ["1440", "-1440", "+24:00", "-24:00", "100000"])
def test_zone_offsets_outside_a_day_are_rejected(name, text):
    # `datetime.timezone` takes only offsets strictly inside a day: the run
    # stops here rather than ingest rejecting every naive row
    with pytest.raises(ValueError, match=f"bad value for '{name}'.*strictly inside"):
        build_config(flag_values={name: text})


@pytest.mark.parametrize("name", ZONE_OFFSET_FIELDS)
@pytest.mark.parametrize("text", ["+05:75", "05:60", "-05:-30"])
def test_zone_offset_minutes_past_59_are_rejected(name, text):
    with pytest.raises(ValueError, match=f"bad value for '{name}'.*minutes must be 0-59"):
        build_config(flag_values={name: text})


@pytest.mark.parametrize("name", ZONE_OFFSET_FIELDS)
@pytest.mark.parametrize(
    ("text", "minutes"),
    [("1439", 1439), ("-1439", -1439), ("+23:59", 1439), ("-23:59", -1439), ("+00:00", 0)],
)
def test_zone_offsets_inside_a_day_are_accepted(name, text, minutes):
    assert getattr(build_config(flag_values={name: text}), name) == minutes


def test_naive_offset_outside_a_day_stops_ingest_before_it_writes(tmp_path, capsys):
    out = tmp_path / "out"
    data = Path(__file__).parent / "data"
    inputs = ["--gps", str(data / "mini_gps.csv"), "--survey", str(data / "mini_survey.csv")]
    assert main(["ingest", *inputs, "-o", str(out), "--naive-utc-offset", "1440"]) == 1
    assert "naive_utc_offset_minutes" in capsys.readouterr().err
    assert not out.exists()
