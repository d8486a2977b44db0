"""Output checks against the generator's ground truth.

The checks parse the artifacts with the standard library only, never
with `tiediv`, so a defect in the program's own readers cannot hide a
defect in what it wrote. Each check returns a list of problems; an
empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

from inputs import MAX_HORIZON, Q_GRID, WIDTH_GRID, Truth

N_FEATURES = 3  # location diversity, mean encounters, temporal diversity
N_CLOSENESS_GROUPS = 5  # regrouped closeness 0..4


def read_artifact(path: Path) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of a tiediv artifact; '#' provenance lines are skipped."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path.name}: no header line")
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def encounter_keys(header: list[str], rows: list[list[str]]) -> list[tuple[str, str, str, int]]:
    """(user_lo, user_hi, day, slot) of every encounter row."""
    idx = [header.index(name) for name in ("user_lo", "user_hi", "day", "slot")]
    return [(r[idx[0]], r[idx[1]], r[idx[2]], int(r[idx[3]])) for r in rows]


def compare_encounters(label: str, found: list, expected: set) -> list[str]:
    problems = []
    if len(found) != len(set(found)):
        problems.append(f"{label}: duplicate encounter rows")
    missing = expected - set(found)
    extra = set(found) - expected
    if missing or extra:
        problems.append(
            f"{label}: {len(missing)} expected encounters missing, {len(extra)} unexpected"
            f" (e.g. missing {sorted(missing)[:2]}, unexpected {sorted(extra)[:2]})"
        )
    return problems


def rejected_lines(path: Path) -> dict[str, list[int]]:
    """Line numbers per section ('gps', 'survey') of ingest_rejects.txt."""
    sections: dict[str, list[int]] = {}
    current = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            current = sections.setdefault(line[3:-3], [])
        elif line and not line.startswith("#"):
            current.append(int(line.split("\t", 1)[0]))
    return sections


def check_staged(outdir: Path, truth: Truth) -> list[str]:
    """Check every artifact of a full `tiediv` chain in `outdir`."""
    expected_rows = {
        "fixes.csv": truth.n_fixes_accepted,
        "survey.csv": truth.n_survey_accepted,
        "clean_fixes.csv": truth.n_clean_fixes,
        "valid_days.csv": truth.n_valid_day_rows,
        "pairs.csv": truth.n_surveyed_pairs,
        "encounters.csv": len(truth.encounters),
        "features.csv": truth.n_survey_accepted,
        "compare.csv": N_FEATURES,
        "sweep_t.csv": len(set(WIDTH_GRID)),
        "sweep_q.csv": len(set(Q_GRID)),
        "subgroups.csv": N_FEATURES * N_CLOSENESS_GROUPS,
        "evolution.csv": N_CLOSENESS_GROUPS * MAX_HORIZON,
    }
    problems = []
    tables = {}
    for name, n_rows in expected_rows.items():
        try:
            header, rows = read_artifact(outdir / name)
        except (OSError, ValueError, csv.Error) as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        tables[name] = (header, rows)
        if len(rows) != n_rows:
            problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
        if any(len(row) != len(header) for row in rows):
            problems.append(f"{name}: row width differs from header")
    if "encounters.csv" in tables:
        try:
            found = encounter_keys(*tables["encounters.csv"])
        except (ValueError, IndexError) as exc:
            problems.append(f"encounters.csv: malformed ({exc})")
        else:
            problems += compare_encounters("encounters.csv", found, truth.encounters)
    try:
        sections = rejected_lines(outdir / "ingest_rejects.txt")
    except (OSError, ValueError, AttributeError) as exc:
        problems.append(f"ingest_rejects.txt: unreadable ({exc})")
    else:
        for section, expected in (("gps", truth.gps_rejected_lines), ("survey", truth.survey_rejected_lines)):
            if sections.get(section) != expected:
                problems.append(
                    f"ingest_rejects.txt: {section} rejected lines {sections.get(section, [])[:5]}..."
                    f" differ from the planted bad rows {expected[:5]}..."
                )
    return problems


def check_scan(path: Path, truth: Truth) -> list[str]:
    """Check the all-pairs scan's encounters, as written by the child."""
    try:
        header, rows = read_artifact(path)
        found = encounter_keys(header, rows)
    except (OSError, ValueError, IndexError, csv.Error) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    return compare_encounters(path.name, found, truth.scan_encounters)


def outdir_digest(outdir: Path) -> str:
    """One sha256 over the names and bytes of every file under `outdir`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(outdir)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()
