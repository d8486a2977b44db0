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
may be the field name or any long flag without its dashes.

A `RunConfig` is valid by construction: it is frozen, and its
`__post_init__` checks every setting however it was built, so a bad one
stops a run before any stage writes. A field's own rule is `check` in
its metadata, next to its default, and holds for each item of a tuple.
The rules between settings (the window's order; synth's schedule,
jitter and coverage) are `_RULES`, each reported on one field. A broken
rule raises `SettingError`, a ValueError that names the field;
`build_config` only parses text, and reports a failure with that text.

`q` sets the order of every temporal diversity of a run (features,
compare, sweep-t, subgroups, evolve), Shannon diversity when unset;
sweep-q uses the orders of `q_grid`.
"""

from __future__ import annotations

import re
from dataclasses import Field, dataclass, field, fields
from datetime import date
from pathlib import Path
from typing import Any, Callable, Mapping

from .encounter import DEFAULT_MIN_COMMON_DAYS, DEFAULT_THRESHOLD_M, check_min_common_days, check_threshold
from .experiments import DEFAULT_MAX_HORIZON, DEFAULT_Q_GRID, DEFAULT_WIDTH_GRID
from .features import DEFAULT_WIDTH_T, check_order, check_width_t
from .preprocess import SLOTS_PER_DAY


def parse_zone_offset(text: str) -> int:
    """Minutes ("330", "-240") or an exact [+-]H:MM or [+-]HH:MM offset ("+05:30")."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    # a signed minutes part matches only to be reported as outside 0-59
    match = re.fullmatch(r"([+-]?)([0-9]{1,2}):(-?[0-9]{2})", text)
    if match is None:
        raise ValueError(f"unparseable zone offset: {text!r}")
    sign, hours, minutes = match.groups()
    if minutes.startswith("-") or int(minutes) > 59:
        raise ValueError(f"zone offset minutes must be 0-59, got {text!r}")
    return (-1 if sign == "-" else 1) * (int(hours) * 60 + int(minutes))


def _parse_q(text: str) -> float | None:
    text = text.strip().lower()
    return None if text in ("", "shannon", "none") else float(text)


def _grid(kind: type) -> Callable[[str], tuple]:
    return lambda text: tuple(kind(part) for part in text.split(",") if part.strip())


# field annotation (a string, see the __future__ import) -> parser
_TYPE_PARSERS: dict[str, Callable[[str], Any]] = {
    "str": str,
    "str | None": str,
    "int": int,
    "float": float,
    "float | None": _parse_q,
    "date": lambda text: date.fromisoformat(text.strip()),
    "tuple[int, ...]": _grid(int),
    "tuple[float, ...]": _grid(float),
}


class SettingError(ValueError):
    """A setting that breaks its rule: `name` is the field, `reason` the rule's message."""

    def __init__(self, name: str, value: Any, reason: str) -> None:
        super().__init__(f"bad value for {name!r}: {value!r} ({reason})")
        self.name, self.value, self.reason = name, value, reason


def _rule(holds: Callable[[Any], bool], message: str) -> Callable[[Any], None]:
    """A check that raises ValueError(message.format(value)) unless `holds(value)`."""

    def check(value: Any) -> None:
        if not holds(value):
            raise ValueError(message.format(value))

    return check


def _checked(default: Any, check: Callable[[Any], None], **metadata: Any) -> Any:
    return field(default=default, metadata={"check": check, **metadata})


def _zone_offset(default: int, flag: str) -> Any:
    # `datetime.timezone` takes only offsets strictly inside a day
    inside_a_day = _rule(
        lambda m: -24 * 60 < m < 24 * 60, "zone offset must lie strictly inside +-1440 minutes, got {}"
    )
    return _checked(default, inside_a_day, flags=(flag,), parse=parse_zone_offset)


@dataclass(frozen=True)
class RunConfig:
    gps: str | None = None
    survey: str | None = None
    outdir: str = field(default="out", metadata={"flags": ("-o", "--outdir")})
    delimiter: str = _checked(",", _rule(  # one character that `split_rows` can split on
        lambda d: len(d) == 1 and d not in '"\r\n',
        "delimiter must be one character other than '\"', CR or LF, got {!r}",
    ))
    naive_utc_offset_minutes: int = _zone_offset(0, "--naive-utc-offset")  # of naive timestamps; 0 is UTC
    window_start: date = date(2016, 4, 1)
    window_end: date = date(2016, 5, 1)  # closed: its local midnight is in the window
    zone_offset_minutes: int = _zone_offset(330, "--zone-offset")
    accuracy_cutoff_m: float = _checked(  # nan fails too
        60.0, _rule(lambda v: v > 0, "accuracy cutoff must be positive, got {}"), flags=("--accuracy-cutoff",)
    )
    coverage_fraction: float = _checked(
        0.2, _rule(lambda v: 0 <= v <= 1, "must be a fraction in [0, 1], got {}")
    )
    min_days: int = _checked(5, _rule(lambda v: v >= 1, "min_days must be at least 1, got {}"))
    min_common_days: int = _checked(DEFAULT_MIN_COMMON_DAYS, check_min_common_days)
    threshold_m: float = _checked(DEFAULT_THRESHOLD_M, check_threshold)
    width_t: int = _checked(DEFAULT_WIDTH_T, check_width_t)
    q: float | None = _checked(None, check_order)
    width_grid: tuple[int, ...] = _checked(DEFAULT_WIDTH_GRID, check_width_t)
    q_grid: tuple[float, ...] = _checked(DEFAULT_Q_GRID, check_order)
    max_horizon: int = _checked(
        DEFAULT_MAX_HORIZON, _rule(lambda v: v >= 0, "max_horizon must be at least 0, got {}")
    )
    seed: int = _checked(0, _rule(lambda v: v >= 0, "seed must be at least 0, got {}"))  # as default_rng
    synth_pairs: int = _checked(100, _rule(lambda v: v >= 1, "need at least one pair per archetype"))
    synth_days: int = _checked(14, _rule(lambda v: v >= 1, "need at least one day"))
    synth_encounters_per_day: int = _checked(3, _rule(
        lambda v: 1 <= v <= SLOTS_PER_DAY, f"synth_encounters_per_day must be in 1..{SLOTS_PER_DAY}, got {{}}"
    ))
    synth_schedule_slots: tuple[int, ...] = (102, 150, 222)  # 08:30, 12:30, 18:30
    synth_jitter: int = _checked(1, _rule(lambda v: v >= 0, "jitter must be non-negative"))
    synth_meet_prob: float = _checked(0.9, _rule(lambda v: 0 <= v <= 1, "meet_prob must be in [0, 1]"))
    synth_places: int = _checked(3, _rule(lambda v: v >= 1, "need at least one meeting place"))
    synth_coverage_slots: int = 60  # occupied slots per user-day

    def __post_init__(self) -> None:
        checks = []  # (field, check, its argument): each field's own, then the rules between fields
        for f in fields(self):
            value = getattr(self, f.name)
            if "check" in f.metadata and value is not None:  # q = None is Shannon diversity
                items = value if isinstance(value, tuple) else (value,)
                checks += [(f.name, f.metadata["check"], item) for item in items]
        checks += [(name, rule, self) for name, rule in _RULES]
        for name, check, arg in checks:
            try:
                check(arg)
            except ValueError as exc:
                raise SettingError(name, getattr(self, name), str(exc)) from None

    def echo(self) -> dict[str, str]:
        """Deterministic flat serialization for artifact provenance headers."""
        return {f.name: _text(getattr(self, f.name)) for f in fields(self)}


def _text(value: Any) -> str:
    """A setting's value as the text its parser reads back."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _window_order(cfg: RunConfig) -> None:
    if cfg.window_end < cfg.window_start:
        raise ValueError(f"window_end {cfg.window_end} is before window_start {cfg.window_start}")


def _synth_schedule(cfg: RunConfig) -> None:
    if cfg.synth_encounters_per_day > len(cfg.synth_schedule_slots):
        raise ValueError(
            f"{cfg.synth_encounters_per_day} encounters/day need at least that many "
            f"schedule slots, got {len(cfg.synth_schedule_slots)}"
        )
    for slot in cfg.synth_schedule_slots:
        if slot - cfg.synth_jitter < 0 or slot + cfg.synth_jitter >= SLOTS_PER_DAY:
            raise ValueError(f"schedule slot {slot} +- jitter leaves the day")
    ordered = sorted(cfg.synth_schedule_slots)
    for a, b in zip(ordered, ordered[1:]):
        if b - a <= 2 * cfg.synth_jitter:
            raise ValueError(
                "schedule slots closer than 2*jitter could collide into one slot"
            )


def _synth_coverage(cfg: RunConfig) -> None:
    if not cfg.synth_encounters_per_day <= cfg.synth_coverage_slots <= SLOTS_PER_DAY:
        raise ValueError(
            f"synth_coverage_slots must be in {cfg.synth_encounters_per_day}..{SLOTS_PER_DAY}"
        )


# the rules between settings: (the field a failure is reported on, the rule)
_RULES = (
    ("window_end", _window_order),
    ("synth_schedule_slots", _synth_schedule),
    ("synth_coverage_slots", _synth_coverage),
)


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
    """Read a flat key=value config file; '#' starts a comment line.

    A leading byte-order mark is skipped. Whitespace around a value is
    dropped, but a value of whitespace alone keeps all but its spaces, so
    `delimiter=` and a tab set a tab.
    """
    values: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _KEYS:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        values[_KEYS[key]] = value.strip() or value.strip(" ")
    return values


def build_config(
    file_values: Mapping[str, str] | None = None,
    flag_values: Mapping[str, str] | None = None,
) -> RunConfig:
    """Merge defaults, config-file values, and flags (flags win)."""
    merged = {**(file_values or {}), **(flag_values or {})}
    kwargs: dict[str, Any] = {}
    for key, raw in merged.items():
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        f = _FIELDS[key]
        try:
            kwargs[key] = f.metadata.get("parse", _TYPE_PARSERS[f.type])(raw)
        except ValueError as exc:
            raise SettingError(key, raw, str(exc)) from None
    try:
        return RunConfig(**kwargs)
    except SettingError as exc:  # report the text the user gave, not the value it parsed to
        raise SettingError(exc.name, merged.get(exc.name, _text(exc.value)), exc.reason) from None
