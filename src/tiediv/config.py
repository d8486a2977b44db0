"""Run configuration shared by the CLI stages.

Values come from three layers: built-in defaults, a flat key=value
config file, and command-line flags, in increasing precedence. All
values arrive as strings and are converted here, so both layers share
one parser and one set of error messages.

`RunConfig` is the only list of settings. The library entry points
(`parse_gps_log`, `parse_survey`, `filter_pipeline`, `synth_generate`)
take the run's `RunConfig`, `None` meaning `RunConfig()`, and a default
that a library signature states too comes from that module's constant.
Each field's parser follows from its type (`parse` in the field
metadata overrides it), and its flag is `--` plus the dashed field name
unless `flags` in the metadata lists other spellings. A config-file key
may be the field name or any long flag without its dashes. A parser
rejects what a stage would, so a bad setting stops the run before any
stage writes.

`q` sets the order of `features.csv`'s `temporal_diversity` only:
compare, subgroups, evolve and sweep-t use Shannon diversity, and
sweep-q uses the orders of `q_grid`.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from datetime import date
from pathlib import Path
from typing import Any, Callable, Mapping

from .encounter import DEFAULT_MIN_COMMON_DAYS, DEFAULT_THRESHOLD_M, check_min_common_days, check_threshold
from .experiments import DEFAULT_MAX_HORIZON, DEFAULT_Q_GRID, DEFAULT_WIDTH_GRID
from .features import DEFAULT_WIDTH_T, check_order, check_width_t


def parse_zone_offset(text: str) -> int:
    """Accept minutes ("330", "-240") or hh:mm offsets ("+05:30") strictly inside +-24 h."""
    text = text.strip()
    try:
        offset = int(text)
    except ValueError:
        offset = _hh_mm_offset(text)
    # `datetime.timezone` takes only offsets strictly inside a day
    if not -24 * 60 < offset < 24 * 60:
        raise ValueError(f"zone offset must lie strictly inside +-1440 minutes, got {offset}")
    return offset


def _hh_mm_offset(text: str) -> int:
    sign = -1 if text.startswith("-") else 1
    parts = text.lstrip("+-").split(":")
    if len(parts) != 2:
        raise ValueError(f"unparseable zone offset: {text!r}")
    try:
        hours, minutes = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"unparseable zone offset: {text!r}") from None
    if not 0 <= minutes <= 59:
        raise ValueError(f"zone offset minutes must be 0-59, got {text!r}")
    return sign * (hours * 60 + minutes)


def _parse_delimiter(text: str) -> str:
    """One character that csv can split on: not a quote and not a line break."""
    if len(text) != 1 or text in '"\r\n':
        raise ValueError(f"delimiter must be one character other than '\"', CR or LF, got {text!r}")
    return text


def _parse_threshold(text: str) -> float:
    return check_threshold(float(text))


def _parse_accuracy_cutoff(text: str) -> float:
    value = float(text)
    if not value > 0:  # nan fails too
        raise ValueError(f"accuracy cutoff must be positive, got {value}")
    return value


def _parse_min_common_days(text: str) -> int:
    return check_min_common_days(int(text))


def _parse_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # nan fails too
        raise ValueError(f"must be a fraction in [0, 1], got {value}")
    return value


def _parse_width_t(text: str) -> int:
    return check_width_t(int(text))


def _parse_date(text: str) -> date:
    return date.fromisoformat(text.strip())


def _parse_int_grid(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_float_grid(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_width_grid(text: str) -> tuple[int, ...]:
    return tuple(map(check_width_t, _parse_int_grid(text)))


def _parse_q_grid(text: str) -> tuple[float, ...]:
    return tuple(map(check_order, _parse_float_grid(text)))


def _parse_q(text: str) -> float | None:
    text = text.strip().lower()
    if text in ("", "shannon", "none"):
        return None
    return check_order(float(text))


# field annotation (a string, see the __future__ import) -> parser
_TYPE_PARSERS: dict[str, Callable[[str], Any]] = {
    "str": str,
    "str | None": str,
    "int": int,
    "float": float,
    "float | None": _parse_q,
    "date": _parse_date,
    "tuple[int, ...]": _parse_int_grid,
    "tuple[float, ...]": _parse_float_grid,
}


def _zone_offset(default: int, flag: str) -> Any:
    return field(default=default, metadata={"flags": (flag,), "parse": parse_zone_offset})


@dataclass
class RunConfig:
    gps: str | None = None
    survey: str | None = None
    outdir: str = field(default="out", metadata={"flags": ("-o", "--outdir")})
    delimiter: str = field(default=",", metadata={"parse": _parse_delimiter})
    naive_utc_offset_minutes: int = _zone_offset(0, "--naive-utc-offset")  # of naive timestamps; 0 is UTC
    window_start: date = date(2016, 4, 1)
    window_end: date = date(2016, 5, 1)  # closed: its local midnight is in the window
    zone_offset_minutes: int = _zone_offset(330, "--zone-offset")
    accuracy_cutoff_m: float = field(
        default=60.0, metadata={"flags": ("--accuracy-cutoff",), "parse": _parse_accuracy_cutoff}
    )
    coverage_fraction: float = field(default=0.2, metadata={"parse": _parse_fraction})
    min_days: int = 5
    min_common_days: int = field(default=DEFAULT_MIN_COMMON_DAYS, metadata={"parse": _parse_min_common_days})
    threshold_m: float = field(default=DEFAULT_THRESHOLD_M, metadata={"parse": _parse_threshold})
    width_t: int = field(default=DEFAULT_WIDTH_T, metadata={"parse": _parse_width_t})
    q: float | None = None
    width_grid: tuple[int, ...] = field(default=DEFAULT_WIDTH_GRID, metadata={"parse": _parse_width_grid})
    q_grid: tuple[float, ...] = field(default=DEFAULT_Q_GRID, metadata={"parse": _parse_q_grid})
    max_horizon: int = DEFAULT_MAX_HORIZON
    seed: int = 0
    synth_pairs: int = 100
    synth_days: int = 14
    synth_encounters_per_day: int = 3
    synth_schedule_slots: tuple[int, ...] = (102, 150, 222)  # 08:30, 12:30, 18:30
    synth_jitter: int = 1
    synth_meet_prob: float = 0.9
    synth_places: int = 3
    synth_coverage_slots: int = 60  # occupied slots per user-day

    def echo(self) -> dict[str, str]:
        """Deterministic flat serialization for artifact provenance headers."""
        out: dict[str, str] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                out[f.name] = ""
            elif isinstance(value, tuple):
                out[f.name] = ",".join(str(v) for v in value)
            else:
                out[f.name] = str(value)
        return out


def flags(f: Field) -> tuple[str, ...]:
    """Command-line spellings of a RunConfig field."""
    return f.metadata.get("flags", ("--" + f.name.replace("_", "-"),))


_FIELDS = {f.name: f for f in fields(RunConfig)}
# config-file key (field name or long flag, dashes as underscores) -> field name
_KEYS = {
    spelling[2:].replace("-", "_"): f.name
    for f in _FIELDS.values()
    for spelling in ("--" + f.name, *flags(f))
    if spelling.startswith("--")
}


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key=value config file; '#' starts a comment line."""
    values: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _KEYS:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        values[_KEYS[key]] = value.strip()
    return values


def build_config(
    file_values: Mapping[str, str] | None = None,
    flag_values: Mapping[str, str] | None = None,
) -> RunConfig:
    """Merge defaults, config-file values, and flags (flags win)."""
    merged: dict[str, str] = {}
    merged.update(file_values or {})
    merged.update(flag_values or {})
    kwargs: dict[str, Any] = {}
    for key, raw in merged.items():
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        f = _FIELDS[key]
        try:
            kwargs[key] = f.metadata.get("parse", _TYPE_PARSERS[f.type])(raw)
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r}: {raw!r} ({exc})") from None
    return RunConfig(**kwargs)
