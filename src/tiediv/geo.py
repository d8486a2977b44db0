"""Geodesic distance and geohash cell encoding.

Distances use the spherical haversine formula; at campus scale the
error versus an ellipsoid is well below typical GPS accuracy, so the
sphere is good enough for co-location thresholds.

`haversine_m` and `geohash_encode` are the scalar definitions. The
column versions give the same answers. `within_m` decides each pair in
bulk and re-decides, with `haversine_m`, every distance so close to the
threshold that numpy's and libm's last-ulp differences could matter.

`geohash_encode_many` finds bisection's b bits on an axis from `low`
over `span` as the index m of the cell that holds the value,
[low + m * step, low + (m + 1) * step) with step = span / 2**b. For
b <= 30 (length <= 12) every edge is a multiple of 2**-28 below 2**8
in magnitude, exact in float64, as are bisection's midpoints.
`floor((v - low) / step)` rounds twice, so just below an edge it may
give the next cell; it is never too low, because both roundings are
monotone and exact at an edge. One exact comparison with the cell's
lower edge corrects it. The indices are interleaved, longitude first,
by whole-array bit operations. The oracle test is
`tests/test_columnar.py::TestGeohashMany`, at every length.
"""

from __future__ import annotations

from math import asin, cos, radians, sin, sqrt

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

GEOHASH_BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"
_SPREAD = (  # (shift, mask) steps that move bit i of a number below 2**32 to bit 2i
    (16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333), (1, 0x5555555555555555),
)


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two lat/lon points (degrees)."""
    phi1, lam1, phi2, lam2 = map(radians, (lat1, lon1, lat2, lon2))
    dphi = phi2 - phi1
    dlam = lam2 - lam1
    a = sin(dphi / 2.0) ** 2 + cos(phi1) * cos(phi2) * sin(dlam / 2.0) ** 2
    # clamp guards roundoff for near-antipodal points
    return 2.0 * EARTH_RADIUS_M * asin(min(1.0, sqrt(a)))


def geohash_encode(lat: float, lon: float, length: int = 8) -> str:
    """Encode a lat/lon point (degrees) to a geohash cell of the given length.

    Interleaved binary bisection, longitude bit first, 5 bits per
    base-32 character.
    """
    if not 1 <= length <= 12:
        raise ValueError(f"geohash length must be in 1..12, got {length}")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude out of range: {lat}")
    if not -180.0 <= lon < 180.0:
        raise ValueError(f"longitude out of range: {lon}")

    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    chars = []
    bits = 0
    n_bits = 0
    even = True  # longitude bit first
    while len(chars) < length:
        if even:
            mid = (lon_lo + lon_hi) / 2.0
            if lon >= mid:
                bits = (bits << 1) | 1
                lon_lo = mid
            else:
                bits <<= 1
                lon_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2.0
            if lat >= mid:
                bits = (bits << 1) | 1
                lat_lo = mid
            else:
                bits <<= 1
                lat_hi = mid
        even = not even
        n_bits += 1
        if n_bits == 5:
            chars.append(GEOHASH_BASE32[bits])
            bits = 0
            n_bits = 0
    return "".join(chars)


# Bulk distances within this fraction of the threshold (at least 1e-6 m)
# are re-decided by the scalar haversine_m. numpy's and libm's sin, cos
# and asin may differ in the last ulp; the two distances then agree to
# ~1e-15 relative, and to ~0.1 m next to the antipode, inside the band.
_RECHECK_REL = 1e-6


def within_m(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray, threshold_m: float
) -> np.ndarray:
    """Mask of `haversine_m(...) <= threshold_m` for columns of point pairs."""
    phi1, lam1, phi2, lam2 = (np.radians(c) for c in (lat1, lon1, lat2, lon2))
    a = (
        np.sin((phi2 - phi1) / 2.0) ** 2
        + np.cos(phi1) * np.cos(phi2) * np.sin((lam2 - lam1) / 2.0) ** 2
    )
    distance = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))
    inside = distance <= threshold_m
    band = _RECHECK_REL * max(threshold_m, 1.0)
    for i in np.flatnonzero(np.abs(distance - threshold_m) <= band).tolist():
        scalar = haversine_m(float(lat1[i]), float(lon1[i]), float(lat2[i]), float(lon2[i]))
        inside[i] = scalar <= threshold_m
    return inside


def geohash_encode_many(lat: np.ndarray, lon: np.ndarray, length: int = 8) -> list[str]:
    """`geohash_encode` of columns of points."""
    if not 1 <= length <= 12:
        raise ValueError(f"geohash length must be in 1..12, got {length}")
    bad = np.flatnonzero(~((lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon < 180.0)))
    if bad.size:
        geohash_encode(float(lat[bad[0]]), float(lon[bad[0]]), length)  # raises its error

    n_bits = 5 * length
    lon_bits, lat_bits = (n_bits + 1) // 2, n_bits // 2  # longitude takes the first bit
    index = np.stack([_cell_index(lon, 180.0, lon_bits), _cell_index(lat, 90.0, lat_bits)])
    for shift, mask in _SPREAD:
        index = (index | index << shift) & mask
    # only each distinct cell is formatted, and its points share its one string
    code = index[0] << (1 - n_bits % 2) | index[1] << (n_bits % 2)
    cells, point_cell = np.unique(code, return_inverse=True)
    digits = cells[:, None] >> np.arange(n_bits - 5, -1, -5) & 31
    alphabet = np.frombuffer(GEOHASH_BASE32.encode("ascii"), dtype=np.uint8)
    texts = alphabet[digits].view(f"S{length}").ravel().astype(f"U{length}").astype(object)
    return texts[point_cell].tolist()


def _cell_index(v: np.ndarray, half: float, bits: int) -> np.ndarray:
    """Bisection's `bits` bits of each v on the axis -half..half, as one cell index."""
    step = 2.0 * half / 2**bits
    m = np.floor((v + half) / step).astype(np.int64)  # one too high just below an edge
    m -= m * step - half > v
    return np.minimum(m, 2**bits - 1)  # v = half lies in the last cell
