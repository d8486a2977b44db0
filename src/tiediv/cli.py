"""Command-line entry point chaining the pipeline stages.

Each subcommand reads the previous stage's artifacts from the output
directory and writes its own, so the pipeline is resumable and every
intermediate is inspectable text. `all` runs the whole chain.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import artifacts, experiments, features, synth
from .config import RunConfig, build_config, flags, load_config_file
from .encounter import canonical_pair, detect_encounters
from .ingest import SchemaError, parse_gps_log, parse_survey
from .preprocess import filter_pipeline


class CliError(RuntimeError):
    """User-facing pipeline error (missing artifact, bad input)."""


def _out(cfg: RunConfig, name: str) -> Path:
    return Path(cfg.outdir) / name


def _require(cfg: RunConfig, name: str, produced_by: str) -> Path:
    path = _out(cfg, name)
    if not path.exists():
        raise CliError(f"{path} not found; run `tiediv {produced_by}` first")
    return path


def _meta(cfg: RunConfig, *input_paths: Path | str) -> dict[str, str]:
    meta = cfg.echo()
    for path in input_paths:
        meta[f"sha256_{Path(path).name}"] = artifacts.file_sha256(path)
    return meta


def _verify_written(paths: list[Path]) -> None:
    # exit-status contract: an artifact counts only if it parses back
    for path in paths:
        artifacts.read_table(path)
        print(f"wrote {path}")


def stage_ingest(cfg: RunConfig) -> list[Path]:
    if not cfg.gps or not cfg.survey:
        raise CliError("ingest needs --gps and --survey input paths")
    for path in (cfg.gps, cfg.survey):
        if not Path(path).exists():
            raise CliError(f"input file not found: {path}")
    opts = cfg.ingest_options()
    with open(cfg.gps, "rb") as handle:
        fixes, fix_report = parse_gps_log(handle, opts)
    with open(cfg.survey, "rb") as handle:
        survey, survey_report = parse_survey(handle, opts)

    Path(cfg.outdir).mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg, cfg.gps, cfg.survey)
    artifacts.write_fixes(_out(cfg, "fixes.csv"), fixes, meta)
    artifacts.write_survey(_out(cfg, "survey.csv"), survey, meta)
    _out(cfg, "ingest_rejects.txt").write_text(
        "== gps ==\n" + fix_report.as_text() + "== survey ==\n" + survey_report.as_text(),
        encoding="utf-8",
    )
    print(
        f"ingest: {fix_report.n_accepted} fixes (+{fix_report.n_rejected} rejected), "
        f"{survey_report.n_accepted} survey records (+{survey_report.n_rejected} rejected)"
    )
    return [_out(cfg, "fixes.csv"), _out(cfg, "survey.csv")]


def stage_preprocess(cfg: RunConfig) -> list[Path]:
    fixes_path = _require(cfg, "fixes.csv", "ingest")
    survey_path = _require(cfg, "survey.csv", "ingest")
    fixes = artifacts.read_fixes(fixes_path)
    survey = artifacts.read_survey(survey_path)
    result = filter_pipeline(fixes, survey, cfg.preprocess_config())
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    meta = _meta(cfg, fixes_path, survey_path)
    meta["dedupe"] = "per-slot, min accuracy, earliest timestamp, smallest lat/lon"
    for key, value in result.counts.items():
        meta[f"count_{key}"] = str(value)
    artifacts.write_clean_fixes(_out(cfg, "clean_fixes.csv"), result.clean_fixes, meta)
    artifacts.write_valid_days(_out(cfg, "valid_days.csv"), result.valid_days, meta)
    print(
        f"preprocess: {len(result.clean_fixes)} clean fixes, "
        f"{len(result.retained_users)} retained users"
    )
    return [_out(cfg, "clean_fixes.csv"), _out(cfg, "valid_days.csv")]


def stage_encounters(cfg: RunConfig) -> list[Path]:
    clean_path = _require(cfg, "clean_fixes.csv", "preprocess")
    days_path = _require(cfg, "valid_days.csv", "preprocess")
    survey_path = _require(cfg, "survey.csv", "ingest")
    clean = artifacts.read_clean_fixes(clean_path)
    valid_days = artifacts.read_valid_days(days_path)
    survey = artifacts.read_survey(survey_path)
    surveyed_pairs = sorted(
        {canonical_pair(rec.rater_id, rec.ratee_id) for rec in survey}
    )
    encounter_sets = detect_encounters(
        clean,
        valid_days,
        threshold_m=cfg.threshold_m,
        min_common_days=cfg.min_common_days,
        pairs=surveyed_pairs,
    )
    meta = _meta(cfg, clean_path, days_path, survey_path)
    artifacts.write_pairs(_out(cfg, "pairs.csv"), encounter_sets, meta)
    artifacts.write_encounters(_out(cfg, "encounters.csv"), encounter_sets, meta)
    n_enc = sum(es.n_encounters for es in encounter_sets.values())
    print(f"encounters: {n_enc} encounters across {len(encounter_sets)} eligible pairs")
    return [_out(cfg, "pairs.csv"), _out(cfg, "encounters.csv")]


def _load_observations(cfg: RunConfig):
    enc_path = _require(cfg, "encounters.csv", "encounters")
    pairs_path = _require(cfg, "pairs.csv", "encounters")
    survey_path = _require(cfg, "survey.csv", "ingest")
    encounter_sets = artifacts.read_encounter_sets(enc_path, pairs_path)
    survey = artifacts.read_survey(survey_path)
    observations = features.build_observations(survey, encounter_sets)
    if not observations:
        raise CliError("no observations: no surveyed pair passed the pipeline")
    return observations, [enc_path, pairs_path, survey_path]


def stage_features(cfg: RunConfig) -> list[Path]:
    observations, inputs = _load_observations(cfg)
    meta = _meta(cfg, *inputs)
    meta["zero_encounter_pairs"] = "included with diversity 0"
    rows = []
    for obs in observations:
        pf = features.compute_pair_features(obs.encounters, cfg.width_t, cfg.q)
        rows.append(
            (
                obs.rater_id,
                obs.ratee_id,
                pf.temporal_diversity,
                pf.location_diversity,
                pf.mean_encounters_per_day,
                pf.n_encounters,
                pf.n_common_days,
            )
        )
    artifacts.write_table(
        _out(cfg, "features.csv"),
        meta,
        (
            "rater",
            "ratee",
            "temporal_diversity",
            "location_diversity",
            "mean_encounters",
            "n_encounters",
            "n_common_days",
        ),
        rows,
    )
    print(f"features: {len(rows)} observations")
    return [_out(cfg, "features.csv")]


def stage_compare(cfg: RunConfig) -> list[Path]:
    observations, inputs = _load_observations(cfg)
    results = experiments.compare_features(observations, cfg.width_t)
    rows = []
    for fr in results:
        if fr.result is None:
            rows.append((fr.feature, None, None, None, None, fr.error))
        else:
            r = fr.result
            rows.append((fr.feature, r.n, r.f_value, r.p_value, r.r, None))
    artifacts.write_table(
        _out(cfg, "compare.csv"),
        _meta(cfg, *inputs),
        ("feature", "n", "f_value", "p_value", "r", "error"),
        rows,
    )
    return [_out(cfg, "compare.csv")]


def stage_sweep_t(cfg: RunConfig) -> list[Path]:
    observations, inputs = _load_observations(cfg)
    rows = experiments.sweep_width(observations, cfg.width_grid)
    out_rows = [(int(r.parameter), r.f_value, r.p_value, r.error) for r in rows]
    path = _out(cfg, "sweep_t.csv")
    artifacts.write_table(
        path, _meta(cfg, *inputs), ("width_t", "f_value", "p_value", "error"), out_rows
    )
    return [path]


def stage_sweep_q(cfg: RunConfig) -> list[Path]:
    observations, inputs = _load_observations(cfg)
    rows = experiments.sweep_q(observations, cfg.q_grid, cfg.width_t)
    out_rows = [(r.parameter, r.f_value, r.p_value, r.error) for r in rows]
    path = _out(cfg, "sweep_q.csv")
    artifacts.write_table(
        path, _meta(cfg, *inputs), ("q", "f_value", "p_value", "error"), out_rows
    )
    return [path]


def stage_subgroups(cfg: RunConfig) -> list[Path]:
    observations, inputs = _load_observations(cfg)
    summaries = experiments.subgroup_distributions(observations, cfg.width_t)
    rows = [
        (
            s.feature,
            s.closeness,
            s.count,
            s.mean,
            s.minimum,
            s.q1,
            s.median,
            s.q3,
            s.maximum,
            "|".join(repr(v) for v in s.outliers),
        )
        for s in summaries
    ]
    path = _out(cfg, "subgroups.csv")
    artifacts.write_table(
        path,
        _meta(cfg, *inputs),
        ("feature", "closeness", "count", "mean", "min", "q1", "median", "q3", "max", "outliers"),
        rows,
    )
    return [path]


def stage_evolve(cfg: RunConfig) -> list[Path]:
    observations, inputs = _load_observations(cfg)
    rows_in = experiments.evolution(
        observations, range(1, cfg.max_horizon + 1), cfg.width_t
    )
    rows = [(r.closeness, r.d, r.mean_temporal_diversity, r.n) for r in rows_in]
    path = _out(cfg, "evolution.csv")
    artifacts.write_table(
        path, _meta(cfg, *inputs), ("closeness", "d", "mean_temporal_diversity", "n"), rows
    )
    return [path]


def stage_synth(cfg: RunConfig) -> list[Path]:
    result = synth.synth_generate(cfg.synth_config())
    Path(cfg.outdir).mkdir(parents=True, exist_ok=True)
    meta = cfg.echo()
    gps_rows = synth.fixes_to_raw_rows(result.fixes, cfg.zone_offset_minutes)
    artifacts.write_table(_out(cfg, "synth_gps.csv"), meta, gps_rows[0], gps_rows[1:])
    survey_rows = synth.survey_to_rows(result.survey)
    artifacts.write_table(
        _out(cfg, "synth_survey.csv"), meta, survey_rows[0], survey_rows[1:]
    )
    print(
        f"synth: {len(result.fixes)} fixes, {len(result.survey)} survey records "
        f"({cfg.synth_pairs} pairs per archetype)"
    )
    return [_out(cfg, "synth_gps.csv"), _out(cfg, "synth_survey.csv")]


def stage_all(cfg: RunConfig) -> list[Path]:
    written = []
    for name, stage in _STAGE_FUNCS.items():
        if name not in _NOT_PIPELINE:
            written += stage(cfg)
    return written


# command -> stage; `all` runs every entry not in _NOT_PIPELINE, in order
_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "preprocess": stage_preprocess,
    "encounters": stage_encounters,
    "features": stage_features,
    "compare": stage_compare,
    "sweep-t": stage_sweep_t,
    "sweep-q": stage_sweep_q,
    "subgroups": stage_subgroups,
    "evolve": stage_evolve,
    "synth": stage_synth,
    "all": stage_all,
}
_NOT_PIPELINE = ("synth", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiediv",
        description="Infer social-tie strength from GPS traces via encounter diversity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _STAGE_FUNCS:
        stage = sub.add_parser(command, help=f"run the {command} stage")
        stage.add_argument("--config", help="flat key=value config file")
        # every stage accepts every setting
        for f in fields(RunConfig):
            stage.add_argument(*flags(f), dest=f"cfg_{f.name}", metavar="VALUE")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else {}
        flag_values = {
            key[len("cfg_") :]: value
            for key, value in vars(args).items()
            if key.startswith("cfg_") and value is not None
        }
        cfg = build_config(file_values, flag_values)
        _verify_written(_STAGE_FUNCS[args.command](cfg))
    except (CliError, SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
