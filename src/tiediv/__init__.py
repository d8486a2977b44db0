"""Social-tie strength inference from GPS traces via encounter diversity."""

from .encounter import Encounter, EncounterSet, detect_encounters
from .features import (
    Observation,
    PairFeatures,
    build_observations,
    compute_pair_features,
    hill_diversity,
    interval_counts,
    location_diversity,
    mean_encounters,
    shannon_entropy,
    temporal_diversity,
)
from .geo import geohash_decode_bounds, geohash_encode, haversine_m
from .ingest import RawFix, SurveyRecord, parse_gps_log, parse_survey
from .preprocess import (
    CleanFix,
    PreprocessConfig,
    ValidDaySet,
    common_days,
    dedupe,
    filter_pipeline,
    regroup_closeness,
    snap_to_slot,
)
from .stats import RegressionResult, evaluate_feature, f_from_r, f_sf, pearson_r
from .synth import SynthConfig, synth_generate

__version__ = "0.1.0"

__all__ = [
    "CleanFix",
    "Encounter",
    "EncounterSet",
    "Observation",
    "PairFeatures",
    "PreprocessConfig",
    "RawFix",
    "RegressionResult",
    "SurveyRecord",
    "SynthConfig",
    "ValidDaySet",
    "build_observations",
    "common_days",
    "compute_pair_features",
    "dedupe",
    "detect_encounters",
    "evaluate_feature",
    "f_from_r",
    "f_sf",
    "filter_pipeline",
    "geohash_decode_bounds",
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
