"""Per-module spans and counters, recorded from outside the program.

`Tracer.install` wraps the public functions that `tiediv.cli` and the
all-pairs scan call into, and rebinds every reference to them held by a
`tiediv` module (including `from x import f` copies and the CLI's stage
table), so the program itself is not edited. Wrappers add up seconds,
calls and row counts in memory; `Tracer.values` is read once, after the
measured phase. The geo kernels are counted per call but not timed per
call, to keep the tracing overhead small.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import statistics
import sys
import time
from datetime import datetime, timezone

from inputs import STAGES

EXPERIMENTS = ("compare_features", "sweep_width", "sweep_q", "subgroup_distributions", "evolution")
RSS_STAGES = ("ingest", "preprocess", "encounters")
PREPROCESS_COUNTS = ("in_window", "accurate", "deduped", "clean_fixes")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.originals: dict[str, object] = {}
        self._artifact_depth = 0

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    # -- installation ------------------------------------------------------

    def _patch(self, module, name: str, make_wrapper) -> None:
        original = getattr(module, name, None)
        if original is None:
            print(f"trace: {module.__name__}.{name} not found; its metrics stay 0", file=sys.stderr)
            return
        self.originals[f"{module.__name__}.{name}"] = original
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod in [m for n, m in sys.modules.items() if n == "tiediv" or n.startswith("tiediv.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper

    def _timed(self, key: str, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                self.add(key, time.perf_counter() - start)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        return make

    def _counted(self, key: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.add(key, 1)
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _artifact(self, kind: str):
        """Time, calls and bytes of an artifact reader or writer.

        Only the outermost call counts, so a typed reader that calls
        `read_table` is one read, not two.
        """

        def make(fn):
            def wrapper(*args, **kwargs):
                self._artifact_depth += 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    self._artifact_depth -= 1
                    if self._artifact_depth == 0:
                        self.add(f"artifacts.{kind}.s", elapsed)
                        self.add(f"artifacts.{kind}.calls", 1)
                        paths = [a for a in args if isinstance(a, (str, os.PathLike))]
                        self.add(f"artifacts.{kind}.bytes", sum(os.path.getsize(p) for p in paths if os.path.exists(p)))

            return wrapper

        return make

    def install(self) -> None:
        from tiediv import artifacts, cli, encounter, experiments, features, geo, ingest, preprocess

        for stage in STAGES:
            after = None
            if stage in RSS_STAGES:
                def after(args, kwargs, result, stage=stage):
                    self.values[f"cli.{stage}.rss_mb"] = _peak_rss_mb()
            self._patch(cli, "stage_" + stage.replace("-", "_"), self._timed(f"cli.{stage}.s", after))

        def after_ingest(args, kwargs, result):
            report = result[1]
            self.add("ingest.rows_accepted", report.n_accepted)
            self.add("ingest.rows_rejected", report.n_rejected)
            self.add("ingest.rows_in", report.n_accepted + report.n_rejected)

        self._patch(ingest, "parse_gps_log", self._timed("ingest.parse_gps_log.s", after_ingest))

        def after_preprocess(args, kwargs, result):
            for key in PREPROCESS_COUNTS:
                self.add(f"preprocess.{key}", result.counts.get(key, 0))

        self._patch(preprocess, "filter_pipeline", self._timed("preprocess.filter_pipeline.s", after_preprocess))

        for name, fn in sorted(vars(artifacts).items()):
            if name.startswith(("read_", "write_")) and getattr(fn, "__module__", "") == artifacts.__name__:
                self._patch(artifacts, name, self._artifact(name.split("_", 1)[0]))

        self._patch(encounter, "detect_encounters", self._detect_wrapper)
        self._patch(geo, "haversine_m", self._counted("geo.haversine_m.calls"))
        self._patch(geo, "geohash_encode", self._counted("geo.geohash_encode.calls"))
        self._patch(features, "compute_pair_features", self._timed("features.compute_pair_features.s"))
        for name in EXPERIMENTS:
            self._patch(experiments, name, self._timed(f"experiments.{name}.s"))

    def _detect_wrapper(self, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            pairs = bound.arguments.get("pairs")
            if pairs is None:
                n_users = len(bound.arguments["valid_days"])
                considered = n_users * (n_users - 1) // 2
            else:
                pairs = list(pairs)
                bound.arguments["pairs"] = pairs
                considered = len({(min(a, b), max(a, b)) for a, b in pairs if a != b})
            start = time.perf_counter()
            result = fn(*bound.args, **bound.kwargs)
            self.add("encounter.detect_encounters.s", time.perf_counter() - start)
            self.add("encounter.pairs_considered", considered)
            self.add("encounter.pairs_eligible", len(result))
            self.add("encounter.pairs_met", sum(1 for es in result.values() if es.encounters))
            self.add("encounter.encounters", sum(len(es.encounters) for es in result.values()))
            return result

        return wrapper

    # -- scalar kernels ------------------------------------------------------

    def kernel_ns(self) -> dict[str, float]:
        """Median ns per call of the per-row scalar kernels, timed from outside."""
        from tiediv import features, geo, ingest, preprocess, stats

        def original(module, name):
            return self.originals.get(f"{module.__name__}.{name}", getattr(module, name, None))

        instant = datetime(2016, 4, 4, 3, 35, 17, tzinfo=timezone.utc)
        counts = [3, 0, 1, 0, 0, 2, 5, 0, 1, 1, 0, 0, 4, 0, 0, 2, 0, 1, 0, 0, 3, 0, 0, 1]
        cases = {
            "ingest.parse_timestamp.ns": (original(ingest, "parse_timestamp"), ("2016-04-04T03:35:17+00:00",)),
            "preprocess.snap_to_slot.ns": (original(preprocess, "snap_to_slot"), (instant, 330)),
            "geo.haversine_m.ns": (original(geo, "haversine_m"), (23.19, 72.63, 23.1901, 72.6302)),
            "geo.geohash_encode.ns": (original(geo, "geohash_encode"), (23.19, 72.63, 8)),
            "features.hill_diversity.ns": (original(features, "hill_diversity"), (counts, 2.0)),
            "stats.f_sf.ns": (original(stats, "f_sf"), (3.7, 1.0, 198.0)),
        }
        out = {}
        for key, (fn, args) in cases.items():
            if fn is None:
                print(f"trace: kernel for {key} not found; it stays 0", file=sys.stderr)
                continue
            n = 1
            while True:  # calibrate a batch to take at least 5 ms
                start = time.perf_counter()
                for _ in range(n):
                    fn(*args)
                if time.perf_counter() - start >= 0.005:
                    break
                n *= 2
            samples = []
            for _ in range(7):
                start = time.perf_counter()
                for _ in range(n):
                    fn(*args)
                samples.append((time.perf_counter() - start) / n * 1e9)
            out[key] = statistics.median(samples)
        return out
