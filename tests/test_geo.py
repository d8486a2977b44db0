"""Distance and geohash behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiediv.geo import (
    EARTH_RADIUS_M,
    geohash_encode,
    haversine_m,
)

from helpers import geohash_decode_bounds

lat_strategy = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lon_strategy = st.floats(min_value=-180.0, max_value=179.999999, allow_nan=False)


class TestHaversine:
    def test_identical_points(self):
        assert haversine_m(23.19, 72.63, 23.19, 72.63) == 0.0

    def test_one_degree_longitude_at_equator(self):
        # one degree of arc: R * pi / 180
        expected = EARTH_RADIUS_M * math.pi / 180.0
        assert abs(haversine_m(0.0, 0.0, 0.0, 1.0) - expected) < 1e-6
        assert abs(haversine_m(0.0, 0.0, 0.0, 1.0) - 111_195.0) < 1.0

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        assert haversine_m(lat1, lon1, lat2, lon2) == haversine_m(lat2, lon2, lat1, lon1)

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    def test_non_negative(self, lat1, lon1, lat2, lon2):
        assert haversine_m(lat1, lon1, lat2, lon2) >= 0.0


class TestGeohashEncode:
    def test_known_cell(self):
        assert geohash_encode(57.64911, 10.40744, 8) == "u4pruydq"

    def test_origin(self):
        # first two bits are 1 (lon >= 0, lat >= 0), all further bits 0
        assert geohash_encode(0.0, 0.0, 8) == "s0000000"

    def test_length_one_prefix(self):
        assert geohash_encode(57.64911, 10.40744, 1) == "u"

    @pytest.mark.parametrize("length", [0, 13, -1])
    def test_invalid_length(self, length):
        with pytest.raises(ValueError):
            geohash_encode(0.0, 0.0, length)

    def test_out_of_range_coordinates(self):
        with pytest.raises(ValueError):
            geohash_encode(91.0, 0.0, 8)
        with pytest.raises(ValueError):
            geohash_encode(0.0, 180.0, 8)

    @given(lat_strategy, lon_strategy, st.integers(min_value=1, max_value=11))
    @settings(max_examples=200)
    def test_prefix_property(self, lat, lon, k):
        assert geohash_encode(lat, lon, k + 1).startswith(geohash_encode(lat, lon, k))

    @given(lat_strategy, lon_strategy, st.integers(min_value=1, max_value=12))
    @settings(max_examples=200)
    def test_decode_contains_point(self, lat, lon, length):
        lat_lo, lat_hi, lon_lo, lon_hi = geohash_decode_bounds(
            geohash_encode(lat, lon, length)
        )
        assert lat_lo <= lat <= lat_hi
        assert lon_lo <= lon <= lon_hi


class TestCellSize:
    def test_length8_cell_span_at_equator(self):
        # 40 bits split 20/20: lat span 180/2^20 deg (~19.1 m),
        # lon span 360/2^20 deg (~38.2 m at the equator)
        rng = np.random.default_rng(7)
        deg_to_m = EARTH_RADIUS_M * math.pi / 180.0
        for _ in range(50):
            lat = float(rng.uniform(-0.5, 0.5))
            lon = float(rng.uniform(-180.0, 180.0))
            lat_lo, lat_hi, lon_lo, lon_hi = geohash_decode_bounds(
                geohash_encode(lat, lon, 8)
            )
            assert (lat_hi - lat_lo) * deg_to_m <= 19.1
            assert (lon_hi - lon_lo) * deg_to_m <= 38.2
        assert math.isclose((180.0 / 2**20) * deg_to_m, 19.088, abs_tol=0.01)
        assert math.isclose((360.0 / 2**20) * deg_to_m, 38.176, abs_tol=0.01)
