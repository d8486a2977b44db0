"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

TINY_PAIRS = {"survey_clean": 3, "messy_staged": 2, "all_pairs_crowded": 4}


def make_session(workdir: Path, workload: str, seed: int = 5) -> run.Session:
    truth = inputs.GENERATORS[workload](workdir, seed, n_pairs=TINY_PAIRS[workload])
    return run.Session(workload, workdir, truth, ROOT / "src")


@pytest.mark.parametrize("workload", sorted(TINY_PAIRS))
def test_ground_truth_matches_pipeline(tmp_path, workload):
    session = make_session(tmp_path, workload)
    session.prepare(trace=False)
    assert session.repetition(trace=False) is not None
    traced = session.repetition(trace=True)  # also byte-identical to the first
    assert traced is not None
    assert session.problems == [] and session.failed == 0
    assert traced["layers"]["encounter.encounters"] > 0
    if workload == "all_pairs_crowded":
        assert len(session.truth.scan_encounters) > len(session.truth.encounters)
    if workload == "messy_staged":
        assert session.truth.gps_rejected_lines and session.truth.survey_rejected_lines
        assert traced["layers"]["preprocess.deduped"] < traced["layers"]["preprocess.accurate"]


@pytest.mark.parametrize("workload", sorted(TINY_PAIRS))
def test_inputs_depend_only_on_seed(tmp_path, workload):
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        inputs.GENERATORS[workload](tmp_path / name, seed, n_pairs=TINY_PAIRS[workload])
        digests.append(checks.outdir_digest(tmp_path / name))
    assert digests[0] == digests[1] != digests[2]


def _drop_last_line(path: Path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _shift_last_slot(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[-1].rstrip("\n").split(",")
    cells[3] = str((int(cells[3]) + 1) % 288)
    path.write_text("".join(lines[:-1]) + ",".join(cells) + "\n")


def _drop_first_reject(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1] + lines[2:]))


@pytest.fixture(scope="module")
def staged_outdir(tmp_path_factory):
    """A messy_staged run of the real pipeline, with its ground truth."""
    from tiediv import cli

    workdir = tmp_path_factory.mktemp("messy")
    truth = inputs.make_messy_staged(workdir, 3, n_pairs=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for stage in inputs.STAGES:
            assert cli.main(inputs.cli_argv(stage)) == 0
    assert checks.check_staged(workdir / "out", truth) == []
    return workdir / "out", truth


@pytest.mark.parametrize(
    "name, tamper",
    [
        ("encounters.csv", _drop_last_line),
        ("encounters.csv", _shift_last_slot),
        ("features.csv", _drop_last_line),
        ("ingest_rejects.txt", _drop_first_reject),
    ],
)
def test_checker_fails_on_tampered_artifact(tmp_path, staged_outdir, name, tamper):
    outdir, truth = staged_outdir
    copy = tmp_path / "out"
    shutil.copytree(outdir, copy)
    tamper(copy / name)
    problems = checks.check_staged(copy, truth)
    assert any(name in problem for problem in problems), problems


def test_scan_checker_fails_on_tampered_output(tmp_path):
    session = make_session(tmp_path, "all_pairs_crowded")
    session.prepare(trace=False)
    result = session.child("scan", session.ops, False)
    assert result is not None
    path = tmp_path / "out" / "scan_encounters.csv"
    assert checks.check_scan(path, session.truth) == []
    _shift_last_slot(path)
    assert checks.check_scan(path, session.truth)


def test_probes_report_each_defect(tmp_path):
    session = make_session(tmp_path, "survey_clean")
    probes = session.probes()["probes"]
    assert set(probes) == {"bom_prefixed_gps_log", "hill_diversity_q200"}
    assert set(probes.values()) <= {"open", "fixed"}


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "survey_clean", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
