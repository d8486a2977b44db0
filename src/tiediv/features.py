"""Per-pair features: temporal diversity, location diversity, mean encounters.

Both diversities are one formula, `hill_diversity`: the effective number
of categories, exp of the Renyi entropy of order q (Shannon at q = 1) of
a vector of counts. Temporal diversity applies it to `interval_counts`,
a pair's encounters per width-t interval of the day, at the run's q
(Shannon when q is None). Location diversity applies it at q = 1 to the
encounters per geohash cell. All entropies use the natural logarithm;
exp(H) then reads directly as an effective category count (uniform over
k categories gives exactly k).

`compute_pair_features` gives one `FeatureRow` per observation; its
fields are the columns of `features.csv`, in order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import exp, expm1, inf, log, log1p
from typing import Iterable, Mapping, NamedTuple, Sequence

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


@dataclass(frozen=True)
class Observation:
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
        # p^q underflowed (large q): factor out the largest p, log-sum-exp style
        log_p_max = log(max(counts) / total)
        scaled = sum(exp(q * (log(c / total) - log_p_max)) for c in counts if c > 0)
        return exp((q * log_p_max + log(scaled)) / (1.0 - q))
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


def compute_pair_features(
    observation: Observation, width_t: int = DEFAULT_WIDTH_T, q: float | None = None
) -> FeatureRow:
    """All three features of one observation's pair.

    Pairs with zero encounters get diversity 0 and rate 0; they stay in
    the analysis sample rather than being dropped, since most weakly
    tied pairs never meet at all.
    """
    es = observation.encounters
    return FeatureRow(
        observation.rater_id,
        observation.ratee_id,
        temporal_diversity(es, width_t, q),
        location_diversity(es),
        mean_encounters(es, es.n_common_days),
        es.n_encounters,
        es.n_common_days,
    )


def build_observations(
    survey: Iterable[SurveyRecord],
    encounter_sets: Mapping[tuple[str, str], EncounterSet],
) -> list[Observation]:
    """Join directed survey records to their pair's encounter data.

    Records whose pair is not among the eligible encounter sets (user
    dropped in cleaning, or too few common days) are skipped. Both
    directions of a mutual rating become independent observations.
    """
    observations: list[Observation] = []
    for rec in survey:
        es = encounter_sets.get(canonical_pair(rec.rater_id, rec.ratee_id))
        if es is None:
            continue
        observations.append(
            Observation(
                rater_id=rec.rater_id,
                ratee_id=rec.ratee_id,
                closeness=regroup_closeness(rec.closeness_raw),
                encounters=es,
            )
        )
    return observations
