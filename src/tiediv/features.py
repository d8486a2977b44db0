"""Per-pair features: temporal diversity, location diversity, mean encounters.

Both diversities are one formula, `hill_diversity`: the effective number
of categories, exp of the Renyi entropy of order q (Shannon at q = 1) of
a vector of counts. Temporal diversity applies it to `interval_counts`,
a pair's encounters per width-t interval of the day, at the run's q
(Shannon when q is None). Location diversity applies it at q = 1 to the
encounters per geohash cell. All entropies use the natural logarithm;
exp(H) then reads directly as an effective category count (uniform over
k categories gives exactly k).

An `ObservationTable` computes each column once per pair and caches it:
`hill_diversity` on the pair's nonzero interval counts, from one
`np.unique`, gives `temporal_diversity`'s bits (zeros add to no sum).

`compute_pair_features` gives one `FeatureRow` per observation; its
fields are the columns of `features.csv`, in order.
"""

from __future__ import annotations

import sys
from math import exp, expm1, inf, log, log1p
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .encounter import EncounterSet, canonical_pair
from .ingest import SurveyRecord
from .preprocess import SLOT_SECONDS, SLOTS_PER_DAY, regroup_closeness

SLOT_MINUTES = SLOT_SECONDS // 60
MINUTES_PER_DAY = SLOTS_PER_DAY * SLOT_MINUTES
DEFAULT_WIDTH_T = 60
# below this distance from 1, the Renyi order is treated as the Shannon limit
_SHANNON_LIMIT_EPS = 1e-9
# below this distance from 1, sum p^q is summed as 1 + sum p (p^(q-1) - 1),
# because log(sum p^q) would lose its digits to the 1 it is close to
_NEAR_SHANNON = 1e-3


class Observation(NamedTuple):
    """One directed rater -> ratee record: pair data joined to its label."""

    rater_id: str
    ratee_id: str
    closeness: int  # regrouped 0..4
    encounters: EncounterSet


class FeatureRow(NamedTuple):
    """One row of `features.csv`: a directed observation's three features and their counts."""

    rater: str
    ratee: str
    temporal_diversity: float
    location_diversity: float
    mean_encounters: float
    n_encounters: int
    n_common_days: int


def check_width_t(width_t: int) -> None:
    """ValueError unless width_t minutes tile the day."""
    if width_t <= 0 or MINUTES_PER_DAY % width_t != 0:
        raise ValueError(f"width_t must divide {MINUTES_PER_DAY}, got {width_t}")


def check_order(q: float) -> None:
    """ValueError unless q is a diversity order: finite and >= 0."""
    if not 0 <= q < inf:  # nan fails too
        raise ValueError(f"diversity order must be {'finite' if q == inf else '>= 0'}, got {q}")


def interval_counts(encounters: EncounterSet, width_t: int = DEFAULT_WIDTH_T) -> tuple[int, ...]:
    """A pair's encounters per width-t interval of the day, MINUTES_PER_DAY/width_t counts.

    An encounter in slot s lands in the interval containing its start
    minute s * SLOT_MINUTES.
    """
    check_width_t(width_t)
    counts = [0] * (MINUTES_PER_DAY // width_t)
    for enc in encounters.encounters:
        counts[(enc.slot * SLOT_MINUTES) // width_t] += 1
    return tuple(counts)


def shannon_entropy(counts: Sequence[int]) -> float:
    """Shannon entropy (nats) of the empirical distribution of counts.

    Uses the 0 * ln 0 = 0 convention; an all-zero vector has entropy 0.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * log(p)
    return h


def hill_diversity(counts: Sequence[int], q: float) -> float:
    """Effective number of categories of order q (exp of Renyi entropy).

    q = 0 counts the support, q -> 1 is the Shannon limit, larger q
    weighs frequent categories more. Empty input gives 0 by convention.
    """
    check_order(q)
    total = sum(counts)
    if total == 0:
        return 0.0
    if q == 0.0:
        return float(sum(1 for c in counts if c > 0))
    if abs(q - 1.0) <= _SHANNON_LIMIT_EPS:
        return exp(shannon_entropy(counts))
    if abs(q - 1.0) < _NEAR_SHANNON:
        ps = [c / total for c in counts if c > 0]
        return exp(log1p(sum(p * expm1((q - 1.0) * log(p)) for p in ps)) / (1.0 - q))
    s = 0.0
    for c in counts:
        if c > 0:
            s += exp(q * log(c / total))
    if s < sys.float_info.min:
        # p^q underflowed (large q): factor out the largest p, log-sum-exp style;
        # q / (1 - q) stays finite where q * log_p_max would overflow
        log_p_max = log(max(counts) / total)
        scaled = sum(exp(q * (log(c / total) - log_p_max)) for c in counts if c > 0)
        return exp(log_p_max * (q / (1.0 - q)) + log(scaled) / (1.0 - q))
    # D = (sum p^q)^(1/(1-q)), evaluated in log space
    return exp(log(s) / (1.0 - q))


def location_diversity(encounters: EncounterSet) -> float:
    """Effective number of geohash cells the pair's encounters spread over."""
    cell_counts: dict[str, int] = {}
    for enc in encounters.encounters:
        cell_counts[enc.cell] = cell_counts.get(enc.cell, 0) + 1
    return hill_diversity(list(cell_counts.values()), 1.0)


def mean_encounters(encounters: EncounterSet, n_common_days: int) -> float:
    """Encounters per common day."""
    if n_common_days < 1:
        raise ValueError(f"need at least one common day, got {n_common_days}")
    return encounters.n_encounters / n_common_days


def temporal_diversity(
    encounters: EncounterSet, width_t: int = DEFAULT_WIDTH_T, q: float | None = None
) -> float:
    """Effective number of intervals a pair meets in; Shannon when q is None.

    A pair with no encounters has diversity 0.
    """
    return hill_diversity(interval_counts(encounters, width_t), 1.0 if q is None else q)


class ObservationTable(tuple[Observation, ...]):
    """The observations in order, and each distinct pair's encounters as flat arrays.

    `pairs` holds the distinct sets, first seen first (a mutual rating's
    two observations share one); `pair_of[i]` indexes observation i's.
    Each encounter has its pair, slot and day rank: its day's index among
    the pair's common days, or n_common_days if it is not one of them.
    """

    def __init__(self, observations: Iterable[Observation]) -> None:
        # tuple.__new__ has taken the observations: they are self
        index: dict[int, int] = {}
        self.pair_of = [index.setdefault(id(o.encounters), len(index)) for o in self]
        self.pairs = list({id(o.encounters): o.encounters for o in self}.values())
        rows = [
            (p, enc.slot, rank.get(enc.day, es.n_common_days))
            for p, es in enumerate(self.pairs)
            for rank in [{day: i for i, day in enumerate(es.common_days)}]
            for enc in es.encounters
        ]
        self._owner, self._slot, self._rank = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        self._columns: dict[tuple, list[float]] = {}

    @classmethod
    def of(cls, observations: Sequence[Observation]) -> "ObservationTable":
        """`observations` if it is a table, else a table of them."""
        return observations if isinstance(observations, cls) else cls(observations)

    def _column(self, key: tuple, per_pair: Callable[[], list[float]]) -> list[float]:
        """The cached column `key`: `per_pair()`'s value of each observation's pair."""
        if key not in self._columns:
            values = per_pair()
            self._columns[key] = [values[p] for p in self.pair_of]
        return self._columns[key]

    def temporal_diversity(
        self, width_t: int = DEFAULT_WIDTH_T, q: float | None = None, horizon: int | None = None
    ) -> list[float]:
        """Each observation's `temporal_diversity`, on only its first `horizon` common days if given."""
        check_width_t(width_t)
        q = 1.0 if q is None else q
        check_order(q)

        def per_pair() -> list[float]:
            keep = slice(None) if horizon is None else self._rank < horizon
            bins = MINUTES_PER_DAY // width_t
            interval = self._slot[keep] * SLOT_MINUTES // width_t
            keys, counts = np.unique(self._owner[keep] * bins + interval, return_counts=True)
            ends = np.searchsorted(keys, np.arange(1, len(self.pairs) + 1) * bins).tolist()
            counts = counts.tolist()
            return [hill_diversity(counts[start:end], q) for start, end in zip([0, *ends], ends)]

        return self._column(("td", width_t, q, horizon), per_pair)

    def location_diversity(self) -> list[float]:
        return self._column(("ld",), lambda: [location_diversity(es) for es in self.pairs])

    def mean_encounters(self) -> list[float]:
        return self._column(("me",), lambda: [mean_encounters(es, es.n_common_days) for es in self.pairs])


def compute_pair_features(
    observations: Sequence[Observation], width_t: int = DEFAULT_WIDTH_T, q: float | None = None
) -> list[FeatureRow]:
    """All three features of each observation's pair, one row per observation.

    Pairs with zero encounters get diversity 0 and rate 0; they stay in
    the analysis sample rather than being dropped, since most weakly
    tied pairs never meet at all.
    """
    table = ObservationTable.of(observations)
    rows = zip(table, table.temporal_diversity(width_t, q), table.location_diversity(), table.mean_encounters())
    return [
        FeatureRow(o.rater_id, o.ratee_id, td, ld, me, o.encounters.n_encounters, o.encounters.n_common_days)
        for o, td, ld, me in rows
    ]


def build_observations(
    survey: Iterable[SurveyRecord],
    encounter_sets: Mapping[tuple[str, str], EncounterSet],
) -> ObservationTable:
    """Join directed survey records to their pair's encounter data.

    Records whose pair is not among the eligible encounter sets (user
    dropped in cleaning, or too few common days) are skipped. Both
    directions of a mutual rating become independent observations.
    """
    return ObservationTable(
        Observation(rec.rater_id, rec.ratee_id, regroup_closeness(rec.closeness_raw), es)
        for rec in survey
        if (es := encounter_sets.get(canonical_pair(rec.rater_id, rec.ratee_id))) is not None
    )
