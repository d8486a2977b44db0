"""The tiediv benchmark: seeded workloads, end-to-end and per-module metrics.

Run from the repository root:

    python3 perfbench/run.py --workload survey_clean --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

- survey_clean: one `tiediv all` on a clean ~168k-row surveyed log.
- messy_staged: the nine staged subcommands, one `cli.main` call each,
  on a raw-looking log with duplicates, mixed timestamps and bad rows.
- all_pairs_crowded: one `tiediv.detect_encounters(..., pairs=None)`
  over 120 users who share a few places. Its clean_fixes.csv and
  valid_days.csv come from an untimed `tiediv all` on the planted pairs.

Inputs come from the seed alone (inputs.py). Each repetition runs in a
fresh child interpreter (child.py), one at a time, until --seconds are
used up; every repetition's outputs are checked against the generator's
ground truth and must be byte-identical to the first repetition's. The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end
ones named in BENCHMARK.json, as medians over the repetitions. With
--trace 1 untraced and traced repetitions alternate, and the metrics
are the per-layer ones, recorded by wrapping tiediv's functions from
outside (tracer.py). The command exits 1 when any check fails, and 2
when there is no tiediv source tree to run.

On a shared 2-CPU host the same repetition's wall time drifts by about
+-20% over tens of seconds, with CPU time tracking it, so compare the
medians of many runs, never single runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 120
MIN_REPETITIONS = 2


class Session:
    """Repetitions of one workload on one set of generated inputs."""

    def __init__(self, workload: str, workdir: Path, truth: inputs.Truth, src: Path) -> None:
        self.workdir = workdir
        self.truth = truth
        self.src = src
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        if workload == "survey_clean":
            self.mode, self.ops = "cli", [inputs.cli_argv("all")]
        elif workload == "messy_staged":
            self.mode, self.ops = "cli", [inputs.cli_argv(stage) for stage in inputs.STAGES]
        else:
            self.mode, self.ops = "scan", [["detect_encounters"]]

    def child(self, mode: str, ops: list, trace: bool) -> dict | None:
        """Run child.py once; its result, or None if it did not finish."""
        plan = {"src": str(self.src), "mode": mode, "ops": ops, "trace": trace, "result": "result.json"}
        (self.workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        result_path = self.workdir / "result.json"
        result_path.unlink(missing_ok=True)
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        with open(self.workdir / "child_stderr.txt", "wb") as err:
            t0 = time.time()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), "plan.json", repr(t0)],
                    cwd=self.workdir,
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                    stderr=err,
                    timeout=CHILD_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                proc = None
        if proc is None or proc.returncode != 0 or not result_path.exists():
            tail = (self.workdir / "child_stderr.txt").read_text(errors="replace")[-2000:]
            self.problems.append(f"{mode} child did not finish: {tail.strip()}")
            print(f"child failed ({mode}):\n{tail}", file=sys.stderr)
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))

    def _count(self, result: dict | None, n_ops: int, problems: list[str]) -> bool:
        """Add one repetition's operations to attempted/failed; True if all good."""
        self.attempted += n_ops
        if result is None:
            self.failed += n_ops
            return False
        failed = sum(not op["ok"] for op in result["ops"])
        if problems:
            # wrong outputs make every operation of the repetition a failure
            failed = n_ops
            self.problems += problems
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
        self.failed += failed
        return failed == 0

    def probes(self) -> dict:
        return self.child("probe", [], False) or {"probes": {}, "numpy": "unknown"}

    def prepare(self, trace: bool) -> dict:
        """all_pairs_crowded: make the scan's inputs with an untimed `tiediv all`."""
        if self.mode != "scan":
            return {}
        result = self.child("cli", [inputs.cli_argv("all")], trace)
        problems = checks.check_staged(self.workdir / "out", self.truth) if result else []
        if self._count(result, 1, problems):
            for name in ("clean_fixes.csv", "valid_days.csv"):
                shutil.move(str(self.workdir / "out" / name), str(self.workdir / name))
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        return (result or {}).get("layers", {})

    def repetition(self, trace: bool) -> dict | None:
        """One measured repetition, checked; None if it failed."""
        result = self.child(self.mode, self.ops, trace)
        problems = []
        if result is not None:
            out = self.workdir / "out"
            if self.mode == "scan":
                problems = checks.check_scan(out / "scan_encounters.csv", self.truth)
            else:
                problems = checks.check_staged(out, self.truth)
            digest = checks.outdir_digest(out)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("outdir is not byte-identical to the first repetition's")
            shutil.rmtree(out, ignore_errors=True)
        return result if self._count(result, len(self.ops), problems) else None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _per_layer(untraced: list[dict], traced: list[dict], prepared: dict, session: Session) -> dict:
    """Per-layer values: timings are medians over the traced repetitions;
    counts must repeat exactly. Layers the measured phase does not reach
    (the CLI stages on all_pairs_crowded) come from the traced preparation."""
    layers = dict(prepared)
    keys = sorted({key for rep in traced for key in rep["layers"]})
    for key in keys:
        values = [rep["layers"].get(key, 0) for rep in traced]
        if key.endswith((".s", ".ns", ".rss_mb")):
            layers[key] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                session.problems.append(f"count {key} differs between traced repetitions: {values}")
            layers[key] = values[0]

    def ratio(num: str, den: str) -> float:
        return layers.get(num, 0) / layers[den] if layers.get(den) else 0.0

    layers["ingest.accept_ratio"] = ratio("ingest.rows_accepted", "ingest.rows_in")
    layers["preprocess.dedupe_ratio"] = ratio("preprocess.deduped", "preprocess.accurate")
    layers["encounter.met_ratio"] = ratio("encounter.pairs_met", "encounter.pairs_considered")
    layers["geo.hit_ratio"] = ratio("encounter.encounters", "geo.haversine_m.calls")
    layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in untraced
    )
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tiediv" / "__init__.py").is_file():
        print(f"error: no tiediv source tree under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    truth = inputs.GENERATORS[args.workload](workdir, args.seed)
    for line in inputs.describe_inputs(workdir, truth):
        print(line)
    session = Session(args.workload, workdir, truth, src)

    probe = session.probes()
    print("context " + json.dumps({
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }))
    for name, state in sorted(probe["probes"].items()):
        print(f"probe {name}: {state}")
    prepared = session.prepare(bool(args.trace))

    untraced: list[dict] = []
    traced: list[dict] = []
    n_reps = 0
    start = time.perf_counter()
    rep_seconds: list[float] = []
    # start a repetition only if a typical one still fits in --seconds
    while n_reps < MIN_REPETITIONS or (
        time.perf_counter() - start + statistics.median(rep_seconds) <= args.seconds
    ):
        rep_start = time.perf_counter()
        trace = bool(args.trace) and n_reps % 2 == 1
        result = session.repetition(trace)
        n_reps += 1
        rep_seconds.append(time.perf_counter() - rep_start)
        if result is not None:
            (traced if trace else untraced).append(result)
            print(
                f"repetition {n_reps}{' traced' if trace else ''}: wall_s={result['wall_s']:.4f}"
                f" setup_s={result['setup_s']:.4f} peak_rss_mb={result['peak_rss_mb']:.1f}"
            )
        if session.failed and n_reps >= MIN_REPETITIONS:
            break

    metrics = {}
    if untraced and (traced or not args.trace):
        values = {}
        for key in ("wall_s", "setup_s", "peak_rss_mb"):
            series = [r[key] for r in untraced]
            q1, median, q3 = _quartiles(series)
            values[key] = median
            print(f"{key}: median={median:.6g} q1={q1:.6g} q3={q3:.6g} n={len(series)}")
        if args.trace:
            values = _per_layer(untraced, traced, prepared, session)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            print(f"warning: nothing recorded for {missing}; reported as 0", file=sys.stderr)
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    else:
        session.problems.append("no repetition succeeded")
    if session.problems and not session.failed:
        session.failed = 1  # a failed check outside any operation still fails the run
    correct = not session.problems
    print(f"failed_frac: {session.failed}/{session.attempted}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(session.attempted, session.failed, 1),
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
