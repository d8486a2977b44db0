"""Social-tie strength inference from GPS traces via encounter diversity."""

from .encounter import Encounter, EncounterSet, detect_encounters
from .features import (
    FeatureRow,
    Observation,
    build_observations,
    compute_pair_features,
    hill_diversity,
    interval_counts,
    location_diversity,
    mean_encounters,
    shannon_entropy,
    temporal_diversity,
)
from .geo import geohash_encode, haversine_m
from .ingest import FixTable, RawFix, SurveyRecord, parse_gps_log, parse_survey
from .preprocess import CleanTable, filter_pipeline, regroup_closeness, snap_to_slot
from .stats import RegressionResult, evaluate_feature, f_from_r, f_sf, pearson_r
from .synth import synth_generate

__version__ = "0.1.0"

__all__ = [
    "CleanTable",
    "Encounter",
    "EncounterSet",
    "FeatureRow",
    "FixTable",
    "Observation",
    "RawFix",
    "RegressionResult",
    "SurveyRecord",
    "build_observations",
    "compute_pair_features",
    "detect_encounters",
    "evaluate_feature",
    "f_from_r",
    "f_sf",
    "filter_pipeline",
    "geohash_encode",
    "haversine_m",
    "hill_diversity",
    "interval_counts",
    "location_diversity",
    "mean_encounters",
    "parse_gps_log",
    "parse_survey",
    "pearson_r",
    "regroup_closeness",
    "shannon_entropy",
    "snap_to_slot",
    "synth_generate",
    "temporal_diversity",
]
