"""Evaluation experiments over the observation sample.

Every function here is a pure, deterministic map from observations to
table rows: interval-width sweeps, diversity-order sweeps, the
three-feature comparison, per-closeness distribution summaries, and the
evolution of temporal diversity as the common-day horizon grows. Each
reads its columns from a `features.ObservationTable`, which caches them.

A row type's fields are its artifact's columns, in order: `cli` writes
`compare.csv`, `sweep_t.csv`, `sweep_q.csv`, `subgroups.csv` and
`evolution.csv` from `CompareRow`, `WidthRow`, `OrderRow`, `SubgroupRow`
and `EvolutionRow`, one row per tuple. None is an empty cell.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .features import DEFAULT_WIDTH_T, Observation, ObservationTable
from .stats import StatsError, evaluate_feature

DEFAULT_WIDTH_GRID = (5, 15, 30, 60, 90, 120, 180, 240, 360, 720)
DEFAULT_Q_GRID = tuple(round(i / 10, 1) for i in range(1, 21) if i != 10)
DEFAULT_MAX_HORIZON = 11

CLOSENESS_LABELS = (0, 1, 2, 3, 4)
FEATURE_NAMES = ("location_diversity", "mean_encounters", "temporal_diversity")


class CompareRow(NamedTuple):
    """One feature regressed on closeness, or the reason it has no regression."""

    feature: str
    n: int | None = None
    f_value: float | None = None
    p_value: float | None = None
    r: float | None = None
    error: str | None = None


class WidthRow(NamedTuple):
    """F-test of temporal diversity at one interval width."""

    width_t: int
    f_value: float | None
    p_value: float | None
    error: str | None


class OrderRow(NamedTuple):
    """F-test of Renyi temporal diversity at one order q."""

    q: float
    f_value: float | None
    p_value: float | None
    error: str | None


class SubgroupRow(NamedTuple):
    """Distribution of one feature within one closeness subgroup."""

    feature: str
    closeness: int
    count: int
    mean: float | None = None
    min: float | None = None
    q1: float | None = None
    median: float | None = None
    q3: float | None = None
    max: float | None = None
    outliers: tuple[float, ...] = ()


class EvolutionRow(NamedTuple):
    """Mean temporal diversity of a subgroup at a common-day horizon d."""

    closeness: int
    d: int
    mean_temporal_diversity: float | None
    n: int


def _regress(
    feature: str, values: Sequence[float], observations: Sequence[Observation]
) -> CompareRow:
    """A feature column regressed on the observations' closeness."""
    target = [float(obs.closeness) for obs in observations]
    try:
        fit = evaluate_feature(feature, values, target)
    except StatsError as exc:
        return CompareRow(feature, error=str(exc))
    return CompareRow(feature, fit.n, fit.f_value, fit.p_value, fit.r)


def _sweep(
    row_type: type,
    observations: Sequence[Observation],
    grid: Iterable,
    column: Callable[[ObservationTable, object], list[float]],
) -> list:
    """One `row_type(value, f_value, p_value, error)` per distinct grid value, ascending."""
    table = ObservationTable.of(observations)
    rows = []
    for value in sorted(set(grid)):
        fit = _regress("temporal_diversity", column(table, value), table)
        rows.append(row_type(value, fit.f_value, fit.p_value, fit.error))
    return rows


def sweep_width(
    observations: Sequence[Observation],
    widths: Iterable[int] = DEFAULT_WIDTH_GRID,
    q: float | None = None,
) -> list[WidthRow]:
    """F-test temporal diversity of order q against closeness per width."""
    return _sweep(WidthRow, observations, widths, lambda table, width: table.temporal_diversity(width, q))


def sweep_q(
    observations: Sequence[Observation],
    orders: Iterable[float] = DEFAULT_Q_GRID,
    width_t: int = DEFAULT_WIDTH_T,
) -> list[OrderRow]:
    """F-test Renyi temporal diversity against closeness per order q."""
    return _sweep(OrderRow, observations, orders, lambda table, q: table.temporal_diversity(width_t, q))


def _feature_columns(observations: Sequence[Observation], width_t: int, q: float | None) -> dict[str, list[float]]:
    """Each of FEATURE_NAMES as a column over the observations."""
    table = ObservationTable.of(observations)
    columns = (table.location_diversity(), table.mean_encounters(), table.temporal_diversity(width_t, q))
    return dict(zip(FEATURE_NAMES, columns))


def compare_features(
    observations: Sequence[Observation], width_t: int = DEFAULT_WIDTH_T, q: float | None = None
) -> list[CompareRow]:
    """Regress each of the three features against reported closeness.

    A degenerate feature column yields an error row; the other features
    are still evaluated.
    """
    columns = _feature_columns(observations, width_t, q)
    return [_regress(feature, values, observations) for feature, values in columns.items()]


def _quartiles(values: Sequence[float]) -> list[float]:
    """`np.percentile(values, [25, 50, 75])` bit for bit, by numpy's linear rule.

    np.percentile calls np.unique, which imports numpy.ma on first use (about 17 ms).
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    quartiles = []
    for index in (last * 0.25, last * 0.5, last * 0.75):
        lo = int(index)
        a, b, t = ordered[lo], ordered[min(lo + 1, last)], index - lo
        # as numpy's _lerp, which steps down from the upper value when t >= 0.5
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return quartiles


def subgroup_distributions(
    observations: Sequence[Observation], width_t: int = DEFAULT_WIDTH_T, q: float | None = None
) -> list[SubgroupRow]:
    """Five-number summary plus 1.5*IQR outliers per (closeness, feature)."""
    rows = []
    for feature, feature_values in _feature_columns(observations, width_t, q).items():
        values_by_label: dict[int, list[float]] = {c: [] for c in CLOSENESS_LABELS}
        for obs, value in zip(observations, feature_values):
            values_by_label[obs.closeness].append(value)
        for label, values in values_by_label.items():
            if not values:
                rows.append(SubgroupRow(feature, label, 0))
                continue
            arr = np.asarray(values, dtype=float)
            q1, median, q3 = _quartiles(values)
            iqr = q3 - q1
            lo_fence = q1 - 1.5 * iqr
            hi_fence = q3 + 1.5 * iqr
            outliers = tuple(sorted(float(v) for v in arr if v < lo_fence or v > hi_fence))
            summary = (arr.mean(), arr.min(), q1, median, q3, arr.max())
            rows.append(SubgroupRow(feature, label, len(values), *map(float, summary), outliers))
    return rows


def evolution(
    observations: Sequence[Observation],
    horizons: Iterable[int] = range(1, DEFAULT_MAX_HORIZON + 1),
    width_t: int = DEFAULT_WIDTH_T,
    q: float | None = None,
) -> list[EvolutionRow]:
    """Mean temporal diversity per subgroup using only the first d common days.

    Observations whose pair has fewer than d common days are excluded at
    that horizon.
    """
    table = ObservationTable.of(observations)
    horizons = sorted(set(horizons))
    if horizons and horizons[0] < 1:
        raise ValueError(f"horizon must be >= 1, got {horizons[0]}")
    rows = []
    for label in CLOSENESS_LABELS:
        subgroup = [i for i, obs in enumerate(table) if obs.closeness == label]
        for d in horizons:
            column = table.temporal_diversity(width_t, q, d)
            diversities = [column[i] for i in subgroup if table[i].encounters.n_common_days >= d]
            mean = sum(diversities) / len(diversities) if diversities else None
            rows.append(EvolutionRow(label, d, mean, len(diversities)))
    return rows
