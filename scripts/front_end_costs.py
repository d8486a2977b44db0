#!/usr/bin/env python3
"""Time the front end of the pipeline in-process on a generated GPS log.

USERS users log a fix every 2 minutes (the paper's logging rate), with
0, 30 or 60 s of jitter, over DAYS days of the default window, so each
5-minute slot gets two or three fixes of a user and the dedupe's
tie-break runs on most rows. Every other user is surveyed with the
next one. Accuracy comes from a pool of four values, one of them over
the cutoff; a third of the instants have a millisecond fraction, so
`fixes.csv` holds both of its timestamp shapes. The log is written as
`fixes.csv` is (`write_fixes`), then each front-end function runs
REPEAT times and the script prints its median wall time:

    parse_gps_log      the generated log
    filter_pipeline    its fixes and the survey, with the default RunConfig
    write_fixes        the parsed fixes
    write_clean_fixes  the clean fixes
    read_fixes         the written fixes.csv
    read_clean_fixes   the written clean_fixes.csv

then the three readers again on two copies of each file, which
`ingest.split_rows` splits as it splits the file: one whose lines end
in "\r\n", and one whose first cell of every line is quoted; and
`parse_gps_log` on the log written with user ids of 14 bytes
("participant000", more past 1,000 users) in place of 5 ("u0000"), and
on the log with its user and timestamp columns swapped, so that the
first cell of each row, which the table reader codes to find blank,
comment and header rows, is a timestamp:

    parse_gps_log crlf, read_fixes crlf, read_clean_fixes crlf
    parse_gps_log quoted, read_fixes quoted, read_clean_fixes quoted
    parse_gps_log long ids, parse_gps_log timestamp first

then the peak of the memory that Python and numpy allocate during one
call of each of those eleven, by `tracemalloc`: where a reader's memory
goes, in-process. Last come the byte kernels, each on the first
KERNEL_CELLS cells of one column (fewer if the file is shorter), cut
from the file block by block as the readers cut it, and timed over
KERNEL_REPEAT calls:

    timestamps         bulk_timestamps_us on the log's timestamps
    lat, accuracy      exact_floats on the log's lat and accuracy
    clean lat          exact_floats on clean_fixes.csv's lat
    days, slots        iso_days and exact_ints on clean_fixes.csv's day and slot
    users, long users  Cells.text_column on the users of the log and of its long-id copy

    PYTHONPATH=src python scripts/front_end_costs.py --users 32 --days 7

Numbers are in-process medians on whatever machine runs the script; they
orient, they do not replace an end-to-end benchmark.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

from tiediv.artifacts import read_clean_fixes, read_fixes, write_clean_fixes, write_fixes
from tiediv.config import RunConfig
from tiediv.ingest import (
    US_PER_S,
    Cells,
    FixTable,
    SurveyRecord,
    TextColumn,
    bulk_timestamps_us,
    exact_floats,
    exact_ints,
    iso_days,
    parse_gps_log,
    split_rows,
)
from tiediv.preprocess import SECONDS_PER_DAY, epoch_day, filter_pipeline

SEED = 1
FIX_EVERY_S = 120
JITTER_S = (0, 30, 60)
ACCURACY_M = (5.0, 10.0, 25.0, 80.0)  # 80 m is over the default 60 m cutoff
KERNEL_CELLS = 1 << 15
KERNEL_REPEAT = 41


def generate(users: int, days: int, cfg: RunConfig) -> tuple[FixTable, list[SurveyRecord]]:
    """The log's fixes, each user near a home spot of their own, and the survey."""
    rng = np.random.default_rng(SEED)
    per_user = days * SECONDS_PER_DAY // FIX_EVERY_S
    user = np.repeat(np.arange(users, dtype=np.int32), per_user)
    midnight_s = epoch_day(cfg.window_start) * SECONDS_PER_DAY - cfg.zone_offset_minutes * 60
    local_s = np.tile(np.arange(per_user) * FIX_EVERY_S, users) + rng.choice(JITTER_S, len(user))
    millis = np.where(rng.random(len(user)) < 1 / 3, rng.integers(1, 1000, len(user)), 0)
    home = rng.uniform((23.0, 72.5), (23.3, 72.8), (users, 2))
    names = tuple(f"u{i:04d}" for i in range(users))
    blank = TextColumn(np.zeros(len(user), dtype=np.int32), ("",))
    fixes = FixTable(
        user=TextColumn(user, names),
        t_us=(midnight_s + local_s) * US_PER_S + millis * 1000,
        lat=np.round(home[user, 0] + rng.normal(0.0, 1e-4, len(user)), 6),
        lon=np.round(home[user, 1] + rng.normal(0.0, 1e-4, len(user)), 6),
        accuracy=rng.choice(ACCURACY_M, len(user)),
        elevation=blank,
        satellites=blank,
        provider=blank,
    )
    survey = [SurveyRecord(names[i], names[i + 1], 3, 3) for i in range(0, users - 1, 2)]
    return fixes, survey


def median_s(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_mb(call) -> float:
    """The `tracemalloc` peak of one call, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def column_cells(path: Path, name: str) -> Cells:
    """The first KERNEL_CELLS cells of column `name` of a plain artifact, byte ranges of its text.

    They are gathered from as many blocks of `split_rows` as they span,
    over the blocks' buffers joined into one.
    """
    parts, left = [], KERNEL_CELLS
    with open(path, "rb") as handle:
        while (header := handle.readline()).startswith(b"#"):  # the meta lines
            pass
        column = header.decode().rstrip("\n").split(",").index(name)
        for rows in split_rows(handle, ","):
            parts.append(rows.column(np.arange(min(len(rows), left)), column))
            left -= len(parts[-1])
            if not left:
                break
    offsets = np.cumsum([0] + [len(part.data) for part in parts[:-1]])
    return Cells(
        b"".join(part.data for part in parts),
        np.concatenate([part.starts + offset for part, offset in zip(parts, offsets)]),
        np.concatenate([part.ends + offset for part, offset in zip(parts, offsets)]),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=32, help="users who log fixes (at least 2)")
    parser.add_argument("--days", type=int, default=7, help="days of logging (1 to 30)")
    parser.add_argument("--repeat", type=int, default=7, help="calls of each function")
    args = parser.parse_args()
    if args.users < 2 or not 1 <= args.days <= 30 or args.repeat < 1:
        parser.error("need --users >= 2, --days 1..30 and --repeat >= 1")

    cfg = RunConfig()
    generated, survey = generate(args.users, args.days, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        log, fixes_csv, clean_csv = (Path(tmp) / name for name in ("gps.csv", "fixes.csv", "clean.csv"))
        write_fixes(log, generated, {})
        long_ids = log.with_name("long_ids_gps.csv")
        digits = max(3, len(str(args.users - 1)))  # so that the ids sort as the short ones do
        names = tuple(f"participant{i:0{digits}d}" for i in range(args.users))
        write_fixes(long_ids, dataclasses.replace(generated, user=TextColumn(generated.user.codes, names)), {})

        def parse(path: Path = log) -> FixTable:
            with open(path, "rb") as handle:
                return parse_gps_log(handle, cfg)[0]

        fixes = parse()
        result = filter_pipeline(fixes, survey, cfg)
        write_fixes(fixes_csv, fixes, {})
        write_clean_fixes(clean_csv, result.clean_fixes, {})
        timestamp_first = log.with_name("timestamp_first_gps.csv")
        with open(timestamp_first, "wb") as handle:
            for line in log.read_bytes().splitlines(True):
                user, timestamp, rest = line.split(b",", 2)
                handle.write(b",".join((timestamp, user, rest)))
        crlf, quoted = {}, {}
        for path in (log, fixes_csv, clean_csv):
            text = path.read_bytes()
            crlf[path] = path.with_name(f"crlf_{path.name}")
            crlf[path].write_bytes(text.replace(b"\n", b"\r\n"))
            quoted[path] = path.with_name(f"quoted_{path.name}")
            lines = text.splitlines(True)
            quoted[path].write_bytes(b"".join(b'"' + line.replace(b",", b'",', 1) for line in lines))
        counts = result.counts
        print(
            f"users={args.users} days={args.days} fixes={len(fixes)} accurate={counts['accurate']} "
            f"deduped={counts['deduped']} clean={counts['clean_fixes']} repeat={args.repeat}"
        )
        calls = {
            "parse_gps_log": parse,
            "filter_pipeline": lambda: filter_pipeline(fixes, survey, cfg),
            "write_fixes": lambda: write_fixes(fixes_csv, fixes, {}),
            "write_clean_fixes": lambda: write_clean_fixes(clean_csv, result.clean_fixes, {}),
            "read_fixes": lambda: read_fixes(fixes_csv),
            "read_clean_fixes": lambda: read_clean_fixes(clean_csv),
            "parse_gps_log crlf": lambda: parse(crlf[log]),
            "read_fixes crlf": lambda: read_fixes(crlf[fixes_csv]),
            "read_clean_fixes crlf": lambda: read_clean_fixes(crlf[clean_csv]),
            "parse_gps_log quoted": lambda: parse(quoted[log]),
            "read_fixes quoted": lambda: read_fixes(quoted[fixes_csv]),
            "read_clean_fixes quoted": lambda: read_clean_fixes(quoted[clean_csv]),
            "parse_gps_log long ids": lambda: parse(long_ids),
            "parse_gps_log timestamp first": lambda: parse(timestamp_first),
        }
        for name, call in calls.items():
            print(f"{name:<29} {median_s(call, args.repeat) * 1000:9.1f} ms")
        for name in ("parse_gps_log", "read_fixes", "read_clean_fixes"):
            for copy in (name, f"{name} crlf", f"{name} quoted", f"{name} long ids", f"{name} timestamp first"):
                if copy in calls:
                    print(f"{copy:<29} {peak_mb(calls[copy]):9.1f} MiB peak")
        kernels = {
            "timestamps": (bulk_timestamps_us, log, "timestamp"),
            "lat": (exact_floats, log, "lat"),
            "accuracy": (exact_floats, log, "accuracy"),
            "clean lat": (exact_floats, clean_csv, "lat"),
            "days": (iso_days, clean_csv, "day"),
            "slots": (exact_ints, clean_csv, "slot"),
            "users": (Cells.text_column, log, "user_id"),
            "long users": (Cells.text_column, long_ids, "user_id"),
        }
        for name, (kernel, path, column) in kernels.items():
            cells = column_cells(path, column)
            ms = median_s(partial(kernel, cells), KERNEL_REPEAT) * 1000
            print(f"{name:<29} {ms:9.3f} ms for {len(cells)} cells")


if __name__ == "__main__":
    main()
