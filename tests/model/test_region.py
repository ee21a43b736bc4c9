"""Unit tests for the spatial decomposition."""

import numpy as np
import pytest

from repro.model.region import (
    Region,
    RegionGrid,
    haversine_km,
    haversine_km_matrix,
)


class TestRegion:
    def test_contains_closed_top_edge(self):
        # A standalone region covers its full bbox: the documented closed
        # global top edge means points exactly on lat_max/lon_max belong to
        # it (mirroring RegionGrid.locate's clamping).
        region = Region(0, 1, 0, 1)
        assert region.contains(0.0, 0.0)
        assert region.contains(0.999, 0.999)
        assert region.contains(1.0, 0.5)
        assert region.contains(0.5, 1.0)
        assert region.contains(1.0, 1.0)
        assert not region.contains(1.0001, 0.5)

    def test_contains_open_edges_when_flagged(self):
        region = Region(0, 1, 0, 1, closed_lat_max=False, closed_lon_max=False)
        assert not region.contains(1.0, 0.5)
        assert not region.contains(0.5, 1.0)
        assert region.contains(0.0, 0.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Region(1, 1, 0, 1)

    def test_center_and_area(self):
        region = Region(0, 2, 0, 4)
        assert region.center == (1.0, 2.0)
        assert region.area == 8.0

    def test_split_halves_cover_parent(self):
        region = Region(0, 4, 0, 2)  # taller than wide -> lat split
        a, b = region.split()
        assert a.lat_max == b.lat_min == 2.0
        assert a.area + b.area == region.area
        # every parent point lands in exactly one child
        for lat, lon in [(0.5, 0.5), (3.5, 1.5), (2.0, 1.0)]:
            assert region.contains(lat, lon)
            assert a.contains(lat, lon) != b.contains(lat, lon)

    def test_split_along_longer_axis(self):
        wide = Region(0, 1, 0, 10)
        a, b = wide.split()
        assert a.lon_max == b.lon_min == 5.0

    def test_split_midline_owned_by_upper_half_only(self):
        a, b = Region(0, 4, 0, 2).split()  # lat split at 2.0
        assert not a.closed_lat_max and b.closed_lat_max
        assert not a.contains(2.0, 1.0) and b.contains(2.0, 1.0)

    def test_split_propagates_outer_flags(self):
        # An interior grid cell (open max edges) must not close anything
        # through a split; a top-edge cell must keep its closure on the
        # child that inherits the outer boundary.
        interior = Region(0, 4, 0, 2, closed_lat_max=False, closed_lon_max=False)
        low, high = interior.split()
        assert not low.closed_lat_max and not high.closed_lat_max
        assert not low.closed_lon_max and not high.closed_lon_max
        edge = Region(0, 4, 0, 2)  # standalone: both max edges closed
        low, high = edge.split()
        assert high.closed_lat_max and low.closed_lon_max and high.closed_lon_max
        assert not low.closed_lat_max  # midline stays single-owner

    def test_splittable_until_fp_collapse(self):
        assert Region(0, 4, 0, 2).splittable
        # One-ulp spans: the midpoint rounds onto an endpoint, so splitting
        # would produce a degenerate child.  splittable must say so instead.
        ulp = np.nextafter(1.0, 2.0)
        sliver = Region(1.0, ulp, 1.0, ulp)
        assert not sliver.splittable
        with pytest.raises(ValueError):
            sliver.split()


class TestRegionGrid:
    def test_grid_tiles_without_overlap(self):
        grid = RegionGrid(0, 10, 0, 10, rows=2, cols=5)
        assert len(grid) == 10
        total = sum(r.area for r in grid)
        assert total == pytest.approx(100.0)

    def test_locate_interior_points(self):
        grid = RegionGrid(0, 10, 0, 10, rows=2, cols=2)
        for lat, lon in [(1, 1), (1, 9), (9, 1), (9, 9)]:
            region = grid.locate(lat, lon)
            assert region.contains(lat, lon)

    def test_locate_clamps_top_edge(self):
        grid = RegionGrid(0, 10, 0, 10, rows=2, cols=2)
        region = grid.locate(10.0, 10.0)
        assert region is grid.regions[-1]

    def test_locate_outside_rejected(self):
        grid = RegionGrid(0, 10, 0, 10)
        with pytest.raises(ValueError, match="outside"):
            grid.locate(11, 5)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            RegionGrid(0, 10, 0, 10, rows=0)

    def test_only_outer_cells_keep_closed_edges(self):
        grid = RegionGrid(0, 10, 0, 10, rows=2, cols=2)
        by_flags = {
            (r.closed_lat_max, r.closed_lon_max) for r in grid.regions
        }
        assert by_flags == {(False, False), (False, True), (True, False), (True, True)}

    def test_every_point_owned_by_exactly_one_cell(self):
        # Includes interior boundaries and the global top/right edge — the
        # regression for the boundary bug (top-edge points used to be owned
        # by no region at all under the strict-< contains).
        grid = RegionGrid(0, 10, 0, 10, rows=2, cols=2)
        points = [(1, 1), (5.0, 3.0), (3.0, 5.0), (5.0, 5.0),
                  (10.0, 3.0), (3.0, 10.0), (10.0, 10.0), (0.0, 10.0)]
        for lat, lon in points:
            owners = [r for r in grid.regions if r.contains(lat, lon)]
            assert len(owners) == 1, (lat, lon, owners)
            assert grid.locate(lat, lon) is owners[0]


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(38.0, 23.7, 38.0, 23.7) == 0.0

    def test_athens_to_thessaloniki(self):
        # ~300 km great-circle distance
        d = haversine_km(37.98, 23.73, 40.64, 22.94)
        assert 290 < d < 310

    def test_symmetry(self):
        assert haversine_km(10, 20, 30, 40) == pytest.approx(
            haversine_km(30, 40, 10, 20)
        )

    def test_matrix_bit_equal_to_scalar_metro_scale(self):
        # At the distances the spatial weights actually see (a metro-area
        # bounding box), libm and numpy transcendentals agree to the bit, so
        # swapping the scalar loop for the broadcast path cannot perturb a
        # seeded experiment.
        rng = np.random.default_rng(7)
        lat1 = rng.uniform(38.0, 38.2, size=13)
        lon1 = rng.uniform(23.6, 23.8, size=13)
        lat2 = rng.uniform(38.0, 38.2, size=11)
        lon2 = rng.uniform(23.6, 23.8, size=11)
        matrix = haversine_km_matrix(
            lat1[:, None], lon1[:, None], lat2[None, :], lon2[None, :]
        )
        assert matrix.shape == (13, 11)
        for i in range(13):
            for j in range(11):
                scalar = haversine_km(lat1[i], lon1[i], lat2[j], lon2[j])
                assert matrix[i, j] == scalar  # bit-identical, not approx

    def test_matrix_matches_scalar_globally(self):
        # Antipodal-range inputs may differ by an ulp (libm asin vs numpy
        # arcsin); the matrix must still agree to full double precision.
        rng = np.random.default_rng(11)
        lat1 = rng.uniform(-90, 90, size=9)
        lon1 = rng.uniform(-180, 180, size=9)
        lat2 = rng.uniform(-90, 90, size=9)
        lon2 = rng.uniform(-180, 180, size=9)
        matrix = haversine_km_matrix(
            lat1[:, None], lon1[:, None], lat2[None, :], lon2[None, :]
        )
        for i in range(9):
            for j in range(9):
                scalar = haversine_km(lat1[i], lon1[i], lat2[j], lon2[j])
                assert matrix[i, j] == pytest.approx(scalar, rel=1e-12)
