"""Per-pair features: temporal diversity, location diversity, mean encounters.

Both diversities are one formula, `hill_diversity`: the effective number
of categories, exp of the Renyi entropy of order q (Shannon at q = 1) of
a vector of counts. Temporal diversity applies it to `interval_counts`,
a pair's encounters per width-t interval of the day, at the run's q
(Shannon when q is None). Location diversity applies it at q = 1 to the
encounters per geohash cell. All entropies use the natural logarithm;
exp(H) then reads directly as an effective category count (uniform over
k categories gives exactly k).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log
from typing import Iterable, Mapping, Sequence

from .encounter import EncounterSet, canonical_pair
from .ingest import SurveyRecord
from .preprocess import regroup_closeness

MINUTES_PER_DAY = 1440
DEFAULT_WIDTH_T = 60
# below this distance from 1, the Renyi order is treated as the Shannon limit
_SHANNON_LIMIT_EPS = 1e-9


@dataclass(frozen=True)
class PairFeatures:
    """The three per-pair features plus their supporting counts."""

    user_lo: str
    user_hi: str
    temporal_diversity: float
    location_diversity: float
    mean_encounters_per_day: float
    n_encounters: int
    n_common_days: int


@dataclass(frozen=True)
class Observation:
    """One directed rater -> ratee record: pair data joined to its label."""

    rater_id: str
    ratee_id: str
    closeness: int  # regrouped 0..4
    encounters: EncounterSet


def interval_counts(encounters: EncounterSet, width_t: int = DEFAULT_WIDTH_T) -> tuple[int, ...]:
    """A pair's encounters per width-t interval of the day, 1440/width_t counts.

    An encounter in slot s lands in the interval containing its start
    minute 5*s.
    """
    if width_t <= 0 or MINUTES_PER_DAY % width_t != 0:
        raise ValueError(f"width_t must divide 1440, got {width_t}")
    counts = [0] * (MINUTES_PER_DAY // width_t)
    for enc in encounters.encounters:
        counts[(enc.slot * 5) // width_t] += 1
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
    if q < 0:
        raise ValueError(f"diversity order must be >= 0, got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    if q == 0.0:
        return float(sum(1 for c in counts if c > 0))
    if abs(q - 1.0) <= _SHANNON_LIMIT_EPS:
        return exp(shannon_entropy(counts))
    s = 0.0
    for c in counts:
        if c > 0:
            s += exp(q * log(c / total))
    # D = (sum p^q)^(1/(1-q)), evaluated in log space for stability near q=1
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
    encounters: EncounterSet, width_t: int = DEFAULT_WIDTH_T, q: float | None = None
) -> PairFeatures:
    """All three features for one pair.

    Pairs with zero encounters get diversity 0 and rate 0; they stay in
    the analysis sample rather than being dropped, since most weakly
    tied pairs never meet at all.
    """
    return PairFeatures(
        user_lo=encounters.user_lo,
        user_hi=encounters.user_hi,
        temporal_diversity=temporal_diversity(encounters, width_t, q),
        location_diversity=location_diversity(encounters),
        mean_encounters_per_day=mean_encounters(encounters, encounters.n_common_days),
        n_encounters=encounters.n_encounters,
        n_common_days=encounters.n_common_days,
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
