"""Geometry, distance, and exploratory-statistics tests."""

import numpy as np
import pytest

from lgcpthin import geo
from lgcpthin.errors import ParseError
from lgcpthin.geo import (
    Ecdf,
    Grid,
    PointPattern,
    RasterGrid,
    RoadNetwork,
    distance_raster,
    distance_to_roads,
    distances_to_roads,
    ecdf,
    ks_two_sample,
    pearson_corr,
)


@pytest.fixture
def simple_roads():
    # one horizontal segment plus an L-shaped polyline
    return RoadNetwork((
        np.array([[0.0, 0.0], [10.0, 0.0]]),
        np.array([[2.0, 5.0], [2.0, 8.0], [6.0, 8.0]]),
    ))


class TestDistanceToRoads:
    def test_point_on_segment_is_zero(self, simple_roads):
        assert distance_to_roads((4.0, 0.0), simple_roads) == 0.0

    def test_perpendicular_offset(self):
        roads = RoadNetwork((np.array([[0.0, 0.0], [10.0, 0.0]]),))
        assert distance_to_roads((5.0, 0.3), roads) == pytest.approx(0.3, abs=1e-12)

    def test_beyond_endpoint_uses_vertex(self):
        roads = RoadNetwork((np.array([[0.0, 0.0], [1.0, 0.0]]),))
        assert distance_to_roads((2.0, 0.0), roads) == pytest.approx(1.0)
        assert distance_to_roads((-3.0, 4.0), roads) == pytest.approx(5.0)

    def test_against_densified_brute_force(self, simple_roads):
        # oracle: distance to 10,000 points densely placed along the segments
        segs = simple_roads.segments()
        dense = []
        per_seg = 10000 // len(segs)
        for x1, y1, x2, y2 in segs:
            t = np.linspace(0.0, 1.0, per_seg)
            dense.append(np.column_stack([x1 + t * (x2 - x1), y1 + t * (y2 - y1)]))
        dense = np.vstack(dense)
        spacing = max(np.hypot(s[2] - s[0], s[3] - s[1]) for s in segs) / (per_seg - 1)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2, 12, size=(50, 2))
        exact = distances_to_roads(pts, simple_roads)
        brute = np.array([np.min(np.hypot(dense[:, 0] - p[0], dense[:, 1] - p[1])) for p in pts])
        assert np.all(np.abs(exact - brute) <= spacing)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            RoadNetwork(())

    def test_lipschitz_property(self, simple_roads):
        rng = np.random.default_rng(3)
        p = rng.uniform(-5, 15, size=(200, 2))
        q = p + rng.normal(scale=0.7, size=(200, 2))
        dp = distances_to_roads(p, simple_roads)
        dq = distances_to_roads(q, simple_roads)
        gap = np.hypot(*(p - q).T)
        assert np.all(np.abs(dp - dq) <= gap + 1e-12)


class TestDistanceRaster:
    def test_cells_on_road_are_zero(self):
        grid = Grid(0.0, 0.0, 1.0, 8, 8)
        # road through the centers of row j = 3
        roads = RoadNetwork((np.array([[0.0, 3.5], [8.0, 3.5]]),))
        rast = distance_raster(grid, roads)
        assert np.all(rast.values[3, :] == 0.0)

    def test_monotone_away_from_straight_road(self):
        grid = Grid(0.0, 0.0, 1.0, 8, 8)
        roads = RoadNetwork((np.array([[0.0, 0.0], [8.0, 0.0]]),))
        rast = distance_raster(grid, roads)
        col = rast.values[:, 4]
        assert np.all(np.diff(col) > 0)

    def test_matches_pointwise_distances(self, simple_roads):
        grid = Grid(-1.0, -1.0, 0.7, 13, 11)
        rast = distance_raster(grid, simple_roads)
        rng = np.random.default_rng(5)
        ii = rng.integers(0, grid.nx, size=100)
        jj = rng.integers(0, grid.ny, size=100)
        centers = grid.cell_centers().reshape(grid.ny, grid.nx, 2)
        for i, j in zip(ii, jj):
            d = distance_to_roads(centers[j, i], simple_roads)
            assert rast.values[j, i] == d


class TestEcdf:
    def test_basic_values(self):
        f = ecdf([1.0, 2.0, 3.0])
        assert f(2.0) == pytest.approx(2.0 / 3.0)
        assert f(0.5) == 0.0
        assert f(3.0) == 1.0
        assert f(99.0) == 1.0

    def test_right_continuous_nondecreasing(self):
        rng = np.random.default_rng(0)
        f = ecdf(rng.normal(size=40))
        xs = np.linspace(-4, 4, 500)
        vals = f(xs)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))
        # right limit equals the value at each jump point
        for x in f.sorted[:10]:
            assert f(x) == pytest.approx(f(x + 1e-12), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])

    def test_dkw_band_coverage(self):
        # oracle: sup|ECDF - x| for uniforms exceeds 1.36/sqrt(n) ~5% of the time
        n = 1000
        band = 1.36 / np.sqrt(n)
        inside = 0
        n_seeds = 300
        xs = np.linspace(0.0, 1.0, 2001)
        for seed in range(n_seeds):
            u = np.random.default_rng(seed).uniform(size=n)
            f = ecdf(u)
            sup = np.max(np.abs(f(xs) - xs))
            inside += sup < band
        assert 0.90 <= inside / n_seeds <= 0.99


class TestKsTwoSample:
    def test_identical_samples(self):
        a = [0.3, 1.2, 5.0]
        d, p = ks_two_sample(a, list(a))
        assert d == 0.0
        assert p == 1.0

    def test_disjoint_supports(self):
        d, _ = ks_two_sample([1, 2, 3, 4], [5, 6, 7, 8])
        assert d == 1.0

    def test_matches_pooled_brute_force(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=37)
        b = rng.normal(loc=0.4, size=53)
        d, _ = ks_two_sample(a, b)
        fa, fb = Ecdf(a), Ecdf(b)
        pooled = np.concatenate([a, b])
        brute = max(abs(fa(x) - fb(x)) for x in pooled)
        assert d == brute

    def test_symmetry_and_monotone_invariance(self):
        rng = np.random.default_rng(13)
        a = rng.gamma(2.0, size=40)
        b = rng.gamma(2.5, size=60)
        d1, p1 = ks_two_sample(a, b)
        d2, p2 = ks_two_sample(b, a)
        assert (d1, p1) == (d2, p2)
        for transform in (np.log, lambda x: 3.0 * x - 7.0, lambda x: x ** 3):
            dt, pt = ks_two_sample(transform(a), transform(b))
            assert dt == pytest.approx(d1, abs=1e-15)
            assert pt == pytest.approx(p1, abs=1e-12)


class TestPearsonCorr:
    def test_perfect_linear(self):
        a = np.arange(10.0)
        assert pearson_corr(a, 2 * a + 1) == pytest.approx(1.0)
        assert pearson_corr(a, -a) == pytest.approx(-1.0)

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=500)
        b = 0.3 * a + rng.normal(size=500)
        # textbook two-pass formula
        am, bm = a.mean(), b.mean()
        oracle = np.sum((a - am) * (b - bm)) / np.sqrt(
            np.sum((a - am) ** 2) * np.sum((b - bm) ** 2))
        assert pearson_corr(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestGridRaster:
    def test_cell_centers_and_lookup(self):
        g = Grid(1.0, 2.0, 0.5, 4, 3)
        centers = g.cell_centers()
        assert centers.shape == (12, 2)
        assert centers[0] == pytest.approx([1.25, 2.25])
        r = RasterGrid(g, np.arange(12.0).reshape(3, 4))
        assert r.value_at(np.array([[1.3, 2.3]]))[0] == 0.0
        assert r.value_at(np.array([[2.9, 3.4]]))[0] == 11.0

    def test_bilinear_reproduces_linear_surface(self):
        g = Grid(0.0, 0.0, 0.25, 9, 7)
        centers = g.cell_centers()
        vals = (2.0 * centers[:, 0] - 0.7 * centers[:, 1] + 1.0).reshape(7, 9)
        r = RasterGrid(g, vals)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.3, 1.4, size=(60, 2))
        expect = 2.0 * pts[:, 0] - 0.7 * pts[:, 1] + 1.0
        assert np.allclose(r.interpolate(pts), expect, atol=1e-12)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            PointPattern(np.array([[2.0, 0.5]]), (0, 0, 1, 1))
        p = PointPattern(np.array([[0.5, 0.5]]), (0, 0, 1, 1))
        assert len(p) == 1 and p.area == 1.0


class TestFileFormats:
    def test_esri_ascii_roundtrip(self, tmp_path):
        g = Grid(-3.0, 10.0, 2.5, 5, 4)
        rng = np.random.default_rng(8)
        r = RasterGrid(g, rng.normal(size=(4, 5)))
        path = tmp_path / "r.asc"
        geo.write_esri_ascii(r, path)
        back = geo.read_esri_ascii(path)
        assert back.grid.congruent(g)
        np.testing.assert_array_equal(back.values, r.values)

    def test_esri_ascii_nodata_rejected(self, tmp_path):
        path = tmp_path / "holes.asc"
        path.write_text("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                        "NODATA_value -9999\n1.0 -9999 2.0\n-9999 0.5 0.25\n")
        with pytest.raises(ParseError, match="2 NODATA cells"):
            geo.read_esri_ascii(path)

    def test_esri_ascii_bad_header(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text("ncols x\n")
        with pytest.raises(ParseError, match="line 1"):
            geo.read_esri_ascii(path)

    def test_points_csv_roundtrip(self, tmp_path):
        pts = PointPattern(np.array([[0.25, 0.5], [0.75, 0.125]]), (0, 0, 1, 1))
        path = tmp_path / "p.csv"
        geo.write_points_csv(pts, path)
        back = geo.read_points_csv(path, domain=(0, 0, 1, 1))
        np.testing.assert_array_equal(back.points, pts.points)

    def test_points_csv_parse_error(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.1,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            geo.read_points_csv(path)

    def test_geojson_roundtrip(self, tmp_path, simple_roads):
        path = tmp_path / "roads.geojson"
        geo.write_roads_geojson(simple_roads, path)
        back = geo.read_roads_geojson(path)
        assert back.n_segments == simple_roads.n_segments
        np.testing.assert_allclose(back.segments(), simple_roads.segments())

    def test_roads_csv(self, tmp_path):
        path = tmp_path / "roads.csv"
        path.write_text(
            "polyline_id,vertex_index,x,y\n"
            "a,0,0,0\na,1,1,0\n"
            "b,1,5,5\nb,0,4,5\n")
        roads = geo.read_roads_csv(path)
        assert len(roads.polylines) == 2
        np.testing.assert_array_equal(roads.polylines[1], [[4.0, 5.0], [5.0, 5.0]])

    def test_raster_csv(self, tmp_path):
        g = Grid(0.0, 0.0, 0.5, 3, 2)
        r = RasterGrid(g, np.arange(6.0).reshape(2, 3))
        path = tmp_path / "field.csv"
        geo.write_raster_csv(r, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 7
        assert lines[1] == "0.25,0.25,0.0"

    def test_geojson_multilinestring(self, tmp_path):
        path = tmp_path / "multi.geojson"
        path.write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature",'
            '"properties": {}, "geometry": {"type": "MultiLineString",'
            '"coordinates": [[[0,0],[1,1]], [[2,2],[3,3],[4,4]]]}}]}')
        roads = geo.read_roads_geojson(path)
        assert len(roads.polylines) == 2
        assert roads.n_segments == 3
