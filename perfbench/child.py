"""One repetition of a workload, in a fresh interpreter.

    python3 child.py PLAN_JSON T0

run.py starts this from the workload directory, one process at a time.
T0 is the parent's `time.time()` just before the start, so `setup_s`
covers interpreter start-up and `import tiediv` (with `tiediv.cli` for
the CLI workloads, and, for the scan, reading its two input artifacts). `wall_s` covers the measured phase:
the `cli.main` calls, or the one `detect_encounters` call. The result
goes to the JSON file the plan names; stdout and stderr are the
program's own.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SCAN_OUTPUT = "out/scan_encounters.csv"


def _attempt(call):
    """(ok, value) of one operation; an exception or exit is a failure."""
    try:
        return True, call()
    except (Exception, SystemExit):
        traceback.print_exc()
        return False, None


def _probes() -> dict[str, str]:
    """Known defects, each reported as 'open' or 'fixed'."""
    import tiediv

    log = "\ufeffuser_id,timestamp,lat,lon,accuracy\nu1,2016-04-04T03:30:00+00:00,23.0,72.5,5.0\n"
    ok, parsed = _attempt(lambda: tiediv.parse_gps_log(io.BytesIO(log.encode("utf-8"))))
    bom = "fixed" if ok and [f.user_id for f in parsed[0]] == ["u1"] else "open"
    # 288 equally likely categories have diversity 288 at every order q
    ok, value = _attempt(lambda: tiediv.hill_diversity([1] * 288, 200))
    hill = "fixed" if ok and math.isclose(value, 288.0, rel_tol=1e-9) else "open"
    return {"bom_prefixed_gps_log": bom, "hill_diversity_q200": hill}


def _write_scan(result) -> None:
    rows = sorted(
        (e.user_lo, e.user_hi, e.day.isoformat(), e.slot, e.cell)
        for es in result.values()
        for e in es.encounters
    )
    lines = ["user_lo,user_hi,day,slot,cell\n"] + [f"{a},{b},{d},{s},{c}\n" for a, b, d, s, c in rows]
    Path(SCAN_OUTPUT).write_text("".join(lines), encoding="utf-8")


def main(plan_path: str, t0: float) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = os.path.realpath(plan["src"])
    sys.path.insert(0, src)
    import tiediv

    if not os.path.realpath(tiediv.__file__).startswith(src + os.sep):
        raise SystemExit(f"tiediv was imported from {tiediv.__file__}, not from {src}")

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if plan["mode"] == "probe":
        import numpy

        import tiediv.cli  # noqa: F401  (compiles every module before the timed runs)

        result = {"probes": _probes(), "numpy": numpy.__version__}
        Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
        return

    if plan["mode"] == "scan":
        from tiediv import artifacts

        fixes = artifacts.read_clean_fixes("clean_fixes.csv")
        valid_days = artifacts.read_valid_days("valid_days.csv")
    else:
        from tiediv import cli  # `import tiediv` loads neither cli nor argparse
    setup_s = time.time() - t0

    ops = []
    start = time.perf_counter()
    if plan["mode"] == "scan":
        ok, scan = _attempt(
            lambda: tiediv.detect_encounters(
                fixes, valid_days, threshold_m=50.0, min_common_days=7, pairs=None
            )
        )
        ops.append({"op": "detect_encounters", "ok": ok})
    else:
        for argv in plan["ops"]:
            ok, code = _attempt(lambda: cli.main(argv))
            ops.append({"op": argv[0], "ok": ok and code == 0})
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if plan["mode"] == "scan" and scan is not None:
        Path(SCAN_OUTPUT).parent.mkdir(exist_ok=True)
        _write_scan(scan)
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "ops": ops}
    if tracer is not None:
        result["layers"] = {**tracer.values, **tracer.kernel_ns()}
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
