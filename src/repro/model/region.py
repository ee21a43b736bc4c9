"""Spatial decomposition of the service area into regions.

Section III-A: the geographic area is split into non-overlapping regions
(cf. the homogeneous-region decomposition of Subramaniam et al., RTSS 2006),
each handled by one REACT server; the paper recommends 500-1000 workers per
region.  This module provides:

* :class:`Region` — an axis-aligned lat/lon rectangle, with
  :meth:`Region.split`, the overload remedy from §V-D ("split the regions so
  that each of the servers would contain sufficient workers"), and
* :class:`RegionGrid` — a uniform grid decomposition with point→region lookup.

The §III-A tiers (sibling groups of grid cells) and the split policy live in
:mod:`repro.platform.coordinator`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np

_REGION_IDS = itertools.count()


@dataclass(frozen=True)
class Region:
    """A non-overlapping axis-aligned geographic rectangle.

    Boundaries are half-open ``[min, max)`` except *closed* max edges, so a
    grid of regions tiles the plane with no point belonging to two regions
    while points exactly on the global top/right edge still route somewhere.
    A standalone region defaults to closed max edges (it covers its whole
    bounding box, matching :meth:`RegionGrid.locate`'s clamping); inside a
    grid only the last row/column keeps them closed, and :meth:`split` hands
    the midline to exactly one half.
    """

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    region_id: int = field(default_factory=lambda: next(_REGION_IDS))
    #: Whether points exactly on ``lat_max`` / ``lon_max`` belong to this
    #: region.  True by default (global top/right edge semantics); grids and
    #: splits clear the flag on interior edges so no point is double-owned.
    closed_lat_max: bool = True
    closed_lon_max: bool = True

    def __post_init__(self) -> None:
        if self.lat_min >= self.lat_max or self.lon_min >= self.lon_max:
            raise ValueError(f"degenerate region bounds: {self}")

    def contains(self, latitude: float, longitude: float) -> bool:
        lat_ok = self.lat_min <= latitude < self.lat_max or (
            self.closed_lat_max and latitude == self.lat_max
        )
        lon_ok = self.lon_min <= longitude < self.lon_max or (
            self.closed_lon_max and longitude == self.lon_max
        )
        return lat_ok and lon_ok

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.lat_min + self.lat_max) / 2, (self.lon_min + self.lon_max) / 2)

    @property
    def area(self) -> float:
        return (self.lat_max - self.lat_min) * (self.lon_max - self.lon_min)

    @property
    def splittable(self) -> bool:
        """Whether :meth:`split` can produce two non-degenerate halves.

        False once the split axis is so thin that its floating-point
        midpoint collapses onto an endpoint — the stopping condition for
        the coordinator's bounded re-split cascade.
        """
        if (self.lat_max - self.lat_min) >= (self.lon_max - self.lon_min):
            mid = (self.lat_min + self.lat_max) / 2
            return self.lat_min < mid < self.lat_max
        mid = (self.lon_min + self.lon_max) / 2
        return self.lon_min < mid < self.lon_max

    def split(self) -> Tuple["Region", "Region"]:
        """Split along the longer axis into two equal halves (§V-D remedy).

        The midline belongs to the upper/right half only (the lower half's
        new max edge is open); the parent's outer closed-edge flags carry
        over, so every parent point lands in exactly one child.
        """
        if (self.lat_max - self.lat_min) >= (self.lon_max - self.lon_min):
            mid = (self.lat_min + self.lat_max) / 2
            return (
                Region(
                    self.lat_min, mid, self.lon_min, self.lon_max,
                    closed_lat_max=False,
                    closed_lon_max=self.closed_lon_max,
                ),
                Region(
                    mid, self.lat_max, self.lon_min, self.lon_max,
                    closed_lat_max=self.closed_lat_max,
                    closed_lon_max=self.closed_lon_max,
                ),
            )
        mid = (self.lon_min + self.lon_max) / 2
        return (
            Region(
                self.lat_min, self.lat_max, self.lon_min, mid,
                closed_lat_max=self.closed_lat_max,
                closed_lon_max=False,
            ),
            Region(
                self.lat_min, self.lat_max, mid, self.lon_max,
                closed_lat_max=self.closed_lat_max,
                closed_lon_max=self.closed_lon_max,
            ),
        )


class RegionGrid:
    """Uniform rows × cols decomposition of a bounding box into regions."""

    def __init__(
        self,
        lat_min: float,
        lat_max: float,
        lon_min: float,
        lon_max: float,
        rows: int = 1,
        cols: int = 1,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ValueError(f"rows/cols must be >= 1, got {rows}x{cols}")
        if lat_min >= lat_max or lon_min >= lon_max:
            raise ValueError("degenerate bounding box")
        self.lat_min, self.lat_max = lat_min, lat_max
        self.lon_min, self.lon_max = lon_min, lon_max
        self.rows, self.cols = rows, cols
        dlat = (lat_max - lat_min) / rows
        dlon = (lon_max - lon_min) / cols
        # Only the grid's outermost top/right cells keep their max edges
        # closed: interior cell boundaries stay half-open so the cells tile
        # the bounding box with no point belonging to two regions, while a
        # point exactly on the global top/right edge is still owned (by the
        # same cell ``locate``'s clamping picks).
        self._regions: List[Region] = [
            Region(
                lat_min + r * dlat,
                lat_min + (r + 1) * dlat,
                lon_min + c * dlon,
                lon_min + (c + 1) * dlon,
                closed_lat_max=(r == rows - 1),
                closed_lon_max=(c == cols - 1),
            )
            for r in range(rows)
            for c in range(cols)
        ]

    @property
    def regions(self) -> Sequence[Region]:
        return tuple(self._regions)

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def locate(self, latitude: float, longitude: float) -> Region:
        """Region owning a point; edge points clamp into the grid."""
        if not (
            self.lat_min <= latitude <= self.lat_max
            and self.lon_min <= longitude <= self.lon_max
        ):
            raise ValueError(
                f"point ({latitude}, {longitude}) is outside the grid bounding box"
            )
        r = min(
            self.rows - 1,
            int((latitude - self.lat_min) / (self.lat_max - self.lat_min) * self.rows),
        )
        c = min(
            self.cols - 1,
            int((longitude - self.lon_min) / (self.lon_max - self.lon_min) * self.cols),
        )
        return self._regions[r * self.cols + c]


def haversine_km(
    lat1: float, lon1: float, lat2: float, lon2: float
) -> float:
    """Great-circle distance in km (distance-based weight function input)."""
    rad = math.pi / 180.0
    phi1, phi2 = lat1 * rad, lat2 * rad
    dphi = (lat2 - lat1) * rad
    dlambda = (lon2 - lon1) * rad
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2) ** 2
    return 2 * 6371.0 * math.asin(math.sqrt(a))


def haversine_km_matrix(
    lat1: np.ndarray,
    lon1: np.ndarray,
    lat2: np.ndarray,
    lon2: np.ndarray,
) -> np.ndarray:
    """Broadcast haversine: pairwise great-circle distances in km.

    Bit-equivalent to :func:`haversine_km` evaluated elementwise at the
    distances the spatial weights see — the operation order matches term
    for term and every intermediate stays a float64, so the vectorized
    weight functions can replace the scalar double loop without perturbing
    any seeded experiment.  (At antipodal ranges libm and numpy
    transcendentals may differ by an ulp, thousands of km past every
    weight cutoff.)  Inputs
    broadcast like any numpy ufunc; the distance-weight hot path passes
    ``lat1[:, None]`` against ``lat2[None, :]`` to get the full
    workers × tasks matrix in one call.
    """
    rad = math.pi / 180.0
    phi1, phi2 = lat1 * rad, lat2 * rad
    dphi = (lat2 - lat1) * rad
    dlambda = (lon2 - lon1) * rad
    a = np.sin(dphi / 2) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlambda / 2) ** 2
    return np.asarray(2 * 6371.0 * np.arcsin(np.sqrt(a)))
