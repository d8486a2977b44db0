"""Command-line entry point chaining the pipeline stages.

Each subcommand reads the previous stage's artifacts from the output
directory and writes its own, so the pipeline is resumable and every
intermediate is inspectable text. `all` runs the whole chain.

Within one `main` call, what a stage writes is also kept in memory, in a
dict by artifact path that `main` passes to the stage: the fix and
clean-fix column tables, the survey, the valid days and the encounter
sets. A later stage of the same call takes them from there instead of
parsing the file back, so `all` writes each artifact once and never
re-reads it; a single-stage subcommand reads the artifacts of earlier
calls from disk.

The exit status rests on a write check. Each stage returns the receipts
of its writers (`artifacts.Receipt`). The writers have already checked
every distinct cell text they wrote: it parses back, through csv or as a
number, to the value it stands for. `main` then checks each file against
its receipt: it ends with a line end and holds exactly the line ends its
writer wrote, one per meta line, header and data row plus each "\n"
inside a quoted cell, so no row is missing, cut short or split.

The analysis stages (features, compare, sweep-t, sweep-q, subgroups,
evolve) are one function, `_analysis_stage`: each writes the rows its
function computes from the observations, and a row type's fields are its
artifact's columns, in order.

`synth` writes its generated fixes through the same fix writer as
`ingest`, as a raw GPS log that `ingest` reads back.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable

from . import artifacts, experiments, features, synth
from .artifacts import Receipt
from .config import RunConfig, build_config, flags, load_config_file
from .encounter import canonical_pair, detect_encounters
from .ingest import IngestOptions, parse_gps_log, parse_survey
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


# What the stages of one `main` call wrote, by artifact path. Each stage
# takes it as `written`; a stage called without it reads every input file.
Written = dict[Path, object]


def _keep(written: Written | None, path: Path, value: object) -> None:
    if written is not None:
        written[path] = value


def _load(written: Written | None, path: Path, read: Callable[[Path], object]):
    """What an earlier stage of the same `main` call wrote to `path`, else `read(path)`."""
    if written is not None and path in written:
        return written[path]
    return read(path)


def _verify_written(receipts: list[Receipt]) -> None:
    # exit-status contract: an artifact counts only if it holds what its writer wrote
    for receipt in receipts:
        artifacts.check_written(receipt)
        print(f"wrote {receipt.path}")


def _parse_input(path: str, parse: Callable, opts: IngestOptions):
    """`parse(handle, opts)` of the input file at `path`; a fatal error in it names the file."""
    with open(path, "rb") as handle:
        try:
            return parse(handle, opts)
        except ValueError as exc:  # a SchemaError or a decode error among them
            raise CliError(f"{path}: {exc}") from None


def stage_ingest(cfg: RunConfig, written: Written | None = None) -> list[Receipt]:
    if not cfg.gps or not cfg.survey:
        raise CliError("ingest needs --gps and --survey input paths")
    for path in (cfg.gps, cfg.survey):
        if not Path(path).exists():
            raise CliError(f"input file not found: {path}")
    opts = cfg.ingest_options()
    fixes, fix_report = _parse_input(cfg.gps, parse_gps_log, opts)
    survey, survey_report = _parse_input(cfg.survey, parse_survey, opts)

    Path(cfg.outdir).mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg, cfg.gps, cfg.survey)
    receipts = [
        artifacts.write_fixes(_out(cfg, "fixes.csv"), fixes, meta),
        artifacts.write_survey(_out(cfg, "survey.csv"), survey, meta),
    ]
    _keep(written, _out(cfg, "fixes.csv"), fixes)
    _keep(written, _out(cfg, "survey.csv"), survey)
    _out(cfg, "ingest_rejects.txt").write_text(
        "== gps ==\n" + fix_report.as_text() + "== survey ==\n" + survey_report.as_text(),
        encoding="utf-8",
    )
    print(
        f"ingest: {fix_report.n_accepted} fixes (+{fix_report.n_rejected} rejected), "
        f"{survey_report.n_accepted} survey records (+{survey_report.n_rejected} rejected)"
    )
    return receipts


def stage_preprocess(cfg: RunConfig, written: Written | None = None) -> list[Receipt]:
    fixes_path = _require(cfg, "fixes.csv", "ingest")
    survey_path = _require(cfg, "survey.csv", "ingest")
    fixes = _load(written, fixes_path, artifacts.read_fixes)
    survey = _load(written, survey_path, artifacts.read_survey)
    result = filter_pipeline(fixes, survey, cfg.preprocess_config())
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    meta = _meta(cfg, fixes_path, survey_path)
    meta["dedupe"] = "per-slot, min accuracy, earliest timestamp, smallest lat/lon"
    for key, value in result.counts.items():
        meta[f"count_{key}"] = str(value)
    receipts = [
        artifacts.write_clean_fixes(_out(cfg, "clean_fixes.csv"), result.clean_fixes, meta),
        artifacts.write_valid_days(_out(cfg, "valid_days.csv"), result.valid_days, meta),
    ]
    _keep(written, _out(cfg, "clean_fixes.csv"), result.clean_fixes)
    _keep(written, _out(cfg, "valid_days.csv"), result.valid_days)
    print(
        f"preprocess: {len(result.clean_fixes)} clean fixes, "
        f"{len(result.retained_users)} retained users"
    )
    return receipts


def stage_encounters(cfg: RunConfig, written: Written | None = None) -> list[Receipt]:
    clean_path = _require(cfg, "clean_fixes.csv", "preprocess")
    days_path = _require(cfg, "valid_days.csv", "preprocess")
    survey_path = _require(cfg, "survey.csv", "ingest")
    clean = _load(written, clean_path, artifacts.read_clean_fixes)
    valid_days = _load(written, days_path, artifacts.read_valid_days)
    survey = _load(written, survey_path, artifacts.read_survey)
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
    receipts = [
        artifacts.write_pairs(_out(cfg, "pairs.csv"), encounter_sets, meta),
        artifacts.write_encounters(_out(cfg, "encounters.csv"), encounter_sets, meta),
    ]
    _keep(written, _out(cfg, "encounters.csv"), encounter_sets)
    n_enc = sum(es.n_encounters for es in encounter_sets.values())
    print(f"encounters: {n_enc} encounters across {len(encounter_sets)} eligible pairs")
    return receipts


def _load_observations(cfg: RunConfig, written: Written | None):
    enc_path = _require(cfg, "encounters.csv", "encounters")
    pairs_path = _require(cfg, "pairs.csv", "encounters")
    survey_path = _require(cfg, "survey.csv", "ingest")
    encounter_sets = _load(
        written, enc_path, lambda path: artifacts.read_encounter_sets(path, pairs_path)
    )
    survey = _load(written, survey_path, artifacts.read_survey)
    observations = features.build_observations(survey, encounter_sets)
    if not observations:
        raise CliError("no observations: no surveyed pair passed the pipeline")
    return observations, [enc_path, pairs_path, survey_path]


def _analysis_stage(
    artifact: str,
    row_type: type,
    rows_of: Callable[[list[features.Observation], RunConfig], list],
    **extra_meta: str,
) -> Callable[..., list[Receipt]]:
    """A stage that writes `rows_of(observations, cfg)` to `artifact`, `row_type`'s fields as columns."""

    def stage(cfg: RunConfig, written: Written | None = None) -> list[Receipt]:
        observations, inputs = _load_observations(cfg, written)
        rows = rows_of(observations, cfg)
        meta = {**_meta(cfg, *inputs), **extra_meta}
        return [artifacts.write_table(_out(cfg, artifact), meta, row_type._fields, rows)]

    return stage


# each looks its function up when it runs, so a wrapper set on the module takes effect
stage_features = _analysis_stage(
    "features.csv",
    features.FeatureRow,
    lambda obs, cfg: [features.compute_pair_features(o, cfg.width_t, cfg.q) for o in obs],
    zero_encounter_pairs="included with diversity 0",
)
stage_compare = _analysis_stage(
    "compare.csv",
    experiments.CompareRow,
    lambda obs, cfg: experiments.compare_features(obs, cfg.width_t),
)
stage_sweep_t = _analysis_stage(
    "sweep_t.csv",
    experiments.WidthRow,
    lambda obs, cfg: experiments.sweep_width(obs, cfg.width_grid),
)
stage_sweep_q = _analysis_stage(
    "sweep_q.csv",
    experiments.OrderRow,
    lambda obs, cfg: experiments.sweep_q(obs, cfg.q_grid, cfg.width_t),
)
stage_subgroups = _analysis_stage(
    "subgroups.csv",
    experiments.SubgroupRow,
    lambda obs, cfg: experiments.subgroup_distributions(obs, cfg.width_t),
)
stage_evolve = _analysis_stage(
    "evolution.csv",
    experiments.EvolutionRow,
    lambda obs, cfg: experiments.evolution(obs, range(1, cfg.max_horizon + 1), cfg.width_t),
)


def stage_synth(cfg: RunConfig, written: Written | None = None) -> list[Receipt]:
    result = synth.synth_generate(cfg.synth_config())
    Path(cfg.outdir).mkdir(parents=True, exist_ok=True)
    meta = cfg.echo()
    survey_rows = synth.survey_to_rows(result.survey)
    receipts = [
        artifacts.write_fixes(
            _out(cfg, "synth_gps.csv"), synth.gps_log(result.fixes, cfg.zone_offset_minutes), meta
        ),
        artifacts.write_table(_out(cfg, "synth_survey.csv"), meta, survey_rows[0], survey_rows[1:]),
    ]
    print(
        f"synth: {len(result.fixes)} fixes, {len(result.survey)} survey records "
        f"({cfg.synth_pairs} pairs per archetype)"
    )
    return receipts


def stage_all(cfg: RunConfig, written: Written | None = None) -> list[Receipt]:
    receipts = []
    for name, stage in _STAGE_FUNCS.items():
        if name not in _NOT_PIPELINE:
            receipts += stage(cfg, written)
    return receipts


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


# built once per process: parsing leaves the parser as it was
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else {}
        flag_values = {
            key[len("cfg_") :]: value
            for key, value in vars(args).items()
            if key.startswith("cfg_") and value is not None
        }
        cfg = build_config(file_values, flag_values)
        _verify_written(_STAGE_FUNCS[args.command](cfg, {}))
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
