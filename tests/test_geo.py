"""Geometry, distance, and exploratory-statistics tests."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from lgcpthin import geo, simstudy
from lgcpthin.cholesky import _one_blas_thread
from lgcpthin.errors import ParseError
from lgcpthin.geo import (
    Ecdf,
    Grid,
    PointPattern,
    RasterGrid,
    RoadNetwork,
    distance_raster,
    distances_to_roads,
    ecdf,
    ks_two_sample,
    pearson_corr,
)


def distance_to_roads(point, roads: RoadNetwork) -> float:
    """Exact distance from a single (x, y) location to the road network."""
    return float(distances_to_roads(np.asarray(point, dtype=float).reshape(1, 2), roads)[0])


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

    def test_networks_compare_and_hash_by_identity(self):
        lines = (np.array([[0.0, 0.0], [1.0, 0.0]]),)
        a, same_arrays = RoadNetwork(lines), RoadNetwork(lines)
        copied = RoadNetwork(tuple(line.copy() for line in lines))
        assert a == a
        assert a != same_arrays and a != copied
        assert len({a, same_arrays, copied, a}) == 3
        assert {a: 1}[a] == 1

    def test_lipschitz_property(self, simple_roads):
        rng = np.random.default_rng(3)
        p = rng.uniform(-5, 15, size=(200, 2))
        q = p + rng.normal(scale=0.7, size=(200, 2))
        dp = distances_to_roads(p, simple_roads)
        dq = distances_to_roads(q, simple_roads)
        gap = np.hypot(*(p - q).T)
        assert np.all(np.abs(dp - dq) <= gap + 1e-12)


def loop_oracle(points, roads):
    """Distance to the nearest segment, one segment at a time."""
    best = np.full(points.shape[0], np.inf)
    for x1, y1, x2, y2 in roads.segments():
        dx, dy = x2 - x1, y2 - y1
        len2 = dx * dx + dy * dy
        if len2 > 0:
            t = np.clip(((points[:, 0] - x1) * dx + (points[:, 1] - y1) * dy) / len2, 0.0, 1.0)
        else:
            t = 0.0
        d2 = (points[:, 0] - (x1 + t * dx)) ** 2 + (points[:, 1] - (y1 + t * dy)) ** 2
        best = np.minimum(best, d2)
    return np.sqrt(best)


# Coordinates on a quarter-unit lattice give exact ties and collinear
# segments; general floats stay away from magnitudes whose squared segment
# lengths would underflow.
coords = st.one_of(
    st.integers(-200, 200).map(lambda k: k / 4),
    st.floats(-50.0, 50.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6))
vertex = st.tuples(coords, coords)


@st.composite
def road_networks(draw):
    if draw(st.integers(0, 3)) == 0:  # a single segment
        return RoadNetwork((np.array(draw(st.lists(vertex, min_size=2, max_size=2))),))
    lines = []
    for _ in range(draw(st.integers(1, 40))):
        verts = draw(st.lists(vertex, min_size=2, max_size=6))
        if draw(st.booleans()):  # zero-length segment: a repeated vertex
            k = draw(st.integers(0, len(verts) - 1))
            verts.insert(k, verts[k])
        lines.append(np.array(verts, dtype=float))
        if draw(st.integers(0, 4)) == 0:  # duplicated polyline
            lines.append(lines[draw(st.integers(0, len(lines) - 1))].copy())
    return RoadNetwork(tuple(lines))


@st.composite
def networks_and_points(draw):
    roads = draw(road_networks())
    segs = roads.segments()
    n = len(segs)
    k = st.integers(0, n - 1)
    pts = [segs[draw(k), 0:2] for _ in range(draw(st.integers(0, 5)))]  # vertices
    for _ in range(draw(st.integers(0, 5))):  # on segments
        x1, y1, x2, y2 = segs[draw(k)]
        u = draw(st.floats(0.0, 1.0))
        pts.append([x1 + u * (x2 - x1), y1 + u * (y2 - y1)])
    pts += draw(st.lists(vertex, max_size=10))  # around the network
    far = st.floats(1e3, 1e7).flatmap(lambda v: st.sampled_from([v, -v]))
    pts += draw(st.lists(st.tuples(far, st.one_of(far, coords)), max_size=4))
    pts = np.array(pts, dtype=float).reshape(-1, 2)
    # Far from the origin, rounding in midpoints and foot points grows with
    # the coordinates while the search radius does not.
    offset = st.one_of(st.just(0.0), st.floats(1e3, 1e4))
    shift = np.array(draw(st.tuples(offset, offset)))
    if shift.any():
        roads = RoadNetwork(tuple(line + shift for line in roads.polylines))
        pts = pts + shift
    return roads, pts


def skewed_roads(seed, n_lines=60, n_steps=40, size=50.0):
    """Winding polylines with log-normal segment lengths.

    Median about 0.1, mean about 0.3, longest in the tens: a few long
    segments among many short ones.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_lines):
        heading = rng.uniform(0.0, 2 * np.pi) + np.cumsum(rng.normal(scale=0.3, size=n_steps))
        step = rng.lognormal(np.log(0.1), 1.5, size=n_steps)
        walk = np.cumsum(step[:, None] * np.column_stack([np.cos(heading), np.sin(heading)]), axis=0)
        lines.append(rng.uniform(0.0, size, 2) + np.vstack([[0.0, 0.0], walk]))
    return RoadNetwork(tuple(lines))


class TestRoadDistanceIndex:
    @settings(max_examples=300, deadline=None)
    @given(case=networks_and_points())
    def test_equals_segment_loop(self, case):
        roads, pts = case
        np.testing.assert_array_equal(distances_to_roads(pts, roads), loop_oracle(pts, roads))

    def test_kilometre_coordinates_far_from_origin(self):
        # A projected position in km with 0.1 km segments: the nearest segment
        # is the first, and a zero-length segment is farther by about 2e-13.
        # Found by random search; a ball widened only relative to its radius
        # drops the first segment.
        roads = RoadNetwork((
            np.array([[4447.089997519703, 6900.2189976648015],
                      [4447.210676004562, 6900.117219747584]]),
            np.array([[4447.225339276101, 6899.883936244435]] * 2),
        ))
        p = np.array([[4447.339894534238, 6900.008239320528]])
        np.testing.assert_array_equal(distances_to_roads(p, roads), loop_oracle(p, roads))

    def test_memory_bounded(self):
        tracemalloc.start()
        try:
            roads = simstudy.synthetic_roads(600.0, 5.0, 7)
            pts = np.random.default_rng(5).uniform(0.0, 600.0, size=(10000, 2))
            distances_to_roads(pts, roads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert roads.n_segments == 1920
        assert peak < 64 * 2 ** 20

    def test_memory_bounded_with_skewed_lengths(self):
        # Without cutting, the longest segment (about 34) sets the search
        # radius everywhere: about 550 candidates per point and a 200 MB peak.
        tracemalloc.start()
        try:
            roads = skewed_roads(3)
            pts = np.random.default_rng(5).uniform(-10.0, 60.0, size=(10000, 2))
            got = distances_to_roads(pts, roads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        np.testing.assert_array_equal(got, loop_oracle(pts, roads))

    @pytest.mark.parametrize("tiny", [1e-4, 1e-9])
    def test_index_size_bounded_by_segments(self, tiny):
        # Near-zero segments must not shrink the piece length: cut at the
        # median alone, the long segment would become 100 / tiny pieces.
        # The index is built on the first query, so the query is traced too.
        pts = np.array([[50.0, 0.0], [0.0, 0.0], [-1.0, 5.0], [100.0, 1.5]])
        tracemalloc.start()
        try:
            roads = RoadNetwork((np.array([[0.0, 0.0], [tiny, 0.0], [tiny, tiny]]),
                                 np.array([[0.0, 1.0], [100.0, 1.0]])))
            got = distances_to_roads(pts, roads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        np.testing.assert_array_equal(got, loop_oracle(pts, roads))

    def test_collinear_roads_pieces_bounded(self):
        # All roads on one line: the bounding box has zero area, so the gap
        # between roads is zero and only the mean / 16 floor limits the cut.
        step = np.random.default_rng(11).lognormal(0.0, 1.5, size=200)
        x = np.concatenate([[0.0], np.cumsum(step)])
        roads = RoadNetwork((np.column_stack([x, np.zeros_like(x)]),
                             np.column_stack([x[:50], np.zeros(50)])))
        pts = np.random.default_rng(12).uniform([-5.0, -5.0], [x[-1] + 5.0, 5.0],
                                                size=(500, 2))
        got = distances_to_roads(pts, roads)
        assert roads._index.parent.size <= 17 * roads.n_segments
        np.testing.assert_array_equal(got, loop_oracle(pts, roads))

    def test_candidates_per_point_bounded(self, monkeypatch):
        # Segments of 75 on roads 5 apart: cut only at the mean length, each
        # point searched about 42 segments; cut at the gap, about 4.
        calls = []

        class SpyTree(cKDTree):
            def query_ball_point(self, x, r, *args, **kwargs):
                balls = super().query_ball_point(x, r, *args, **kwargs)
                calls.append((len(balls), sum(map(len, balls))))
                return balls

        monkeypatch.setattr(geo, "cKDTree", SpyTree)
        roads = simstudy.synthetic_roads(600.0, 5.0, 7)
        pts = np.random.default_rng(5).uniform(0.0, 600.0, size=(10000, 2))
        got = distances_to_roads(pts, roads)
        n_points, n_candidates = map(sum, zip(*calls))
        assert n_points == 10000
        assert n_candidates <= 8 * n_points
        np.testing.assert_array_equal(got, loop_oracle(pts, roads))

    def test_index_built_on_first_query_and_kept(self, simple_roads):
        assert "_index" not in vars(simple_roads)
        pts = np.array([[0.5, 0.5], [3.0, -1.0]])
        first = distances_to_roads(pts, simple_roads)
        index = vars(simple_roads)["_index"]
        np.testing.assert_array_equal(distances_to_roads(pts, simple_roads), first)
        assert vars(simple_roads)["_index"] is index

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (4, 1), (2, 2, 2)])
    def test_rejects_points_not_n_by_2(self, simple_roads, shape):
        with pytest.raises(ValueError, match="shape"):
            distances_to_roads(np.zeros(shape), simple_roads)

    def test_no_points(self, simple_roads):
        out = distances_to_roads(np.empty((0, 2)), simple_roads)
        assert out.shape == (0,)


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

    def test_same_bits_whether_or_not_the_caller_pins_blas(self):
        # Above 10,000 values OpenBLAS may thread a dot product, and the
        # threaded sum depends on the thread count.  On 2 threads about half
        # of these inputs round differently, so eight seeds catch sums that
        # go back to BLAS: pearson_corr takes numpy's one-thread sums.
        for seed in range(8):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=20000)
            b = 0.3 * a + rng.normal(size=20000)
            free = pearson_corr(a, b)
            with _one_blas_thread:
                pinned = pearson_corr(a, b)
            assert free.hex() == pinned.hex()

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

    @settings(max_examples=200, deadline=None)
    @given(x0=st.floats(-1e3, 1e3), y0=st.floats(-1e3, 1e3), h=st.floats(1e-3, 1e2),
           nx=st.integers(1, 30), ny=st.integers(1, 30),
           pts=st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
                        min_size=1, max_size=20))
    def test_cell_index_clamps_to_edge_cells(self, x0, y0, h, nx, ny, pts):
        g = Grid(x0, y0, h, nx, ny)
        pts = np.array(pts)
        i, j = g.cell_index(pts)
        xmin, ymin, xmax, ymax = g.bbox
        for idx, lo, hi, n, v in ((i, xmin, xmax, nx, pts[:, 0]), (j, ymin, ymax, ny, pts[:, 1])):
            assert np.all((idx >= 0) & (idx <= n - 1))
            assert np.all(idx[v < lo] == 0)
            assert np.all(idx[v >= hi] == n - 1)
        inside = g.cell_index(g.cell_centers())
        np.testing.assert_array_equal(inside[0], np.tile(np.arange(nx), ny))
        np.testing.assert_array_equal(inside[1], np.repeat(np.arange(ny), nx))

    @pytest.mark.parametrize("x0, y0, h, message", [
        (math.nan, 0.0, 1.0, "grid origin must be finite"),
        (0.0, math.inf, 1.0, "grid origin must be finite"),
        (0.0, 0.0, math.nan, "cell_size must be positive and finite"),
        (0.0, 0.0, math.inf, "cell_size must be positive and finite"),
        (0.0, 0.0, -1.0, "cell_size must be positive and finite"),
    ])
    def test_grid_rejects_non_finite_geometry(self, x0, y0, h, message):
        # a NaN cell size would give a NaN bbox
        with pytest.raises(ValueError, match=message):
            Grid(x0, y0, h, 4, 4)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            PointPattern(np.array([[2.0, 0.5]]), (0, 0, 1, 1))
        p = PointPattern(np.array([[0.5, 0.5]]), (0, 0, 1, 1))
        assert len(p) == 1 and p.area == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pattern_rejects_non_finite(self, bad):
        # a NaN coordinate would pass the domain test and become a garbage
        # cell index; a non-finite domain has no area
        with pytest.raises(ValueError, match="1 points have non-finite coordinates"):
            PointPattern(np.array([[bad, 0.5], [0.5, 0.5]]), (0, 0, 1, 1))
        with pytest.raises(ValueError, match="domain must be finite"):
            PointPattern(np.array([[0.5, 0.5]]), (0, 0, bad, 1))


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

    def test_esri_ascii_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.asc"
        path.write_text("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                        "1.0 nan 2.0\n-inf 0.5 inf\n")
        with pytest.raises(ParseError, match="3 non-finite cells"):
            geo.read_esri_ascii(path)

    @pytest.mark.parametrize("field, value", [
        ("cellsize", "nan"), ("cellsize", "-1"), ("ncols", "0"), ("nrows", "inf"),
        ("ncols", "2.5"), ("nrows", "1.5"),
    ])
    def test_esri_ascii_header_without_a_grid(self, tmp_path, field, value):
        header = {"ncols": "2", "nrows": "1", "xllcorner": "0", "yllcorner": "0",
                  "cellsize": "1"}
        header[field] = value
        path = tmp_path / "g.asc"
        path.write_text("".join(f"{k} {v}\n" for k, v in header.items()) + "1.0 2.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: header makes no valid grid"):
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

    def test_points_csv_non_finite_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.1,0.2\nnan,0.5\n")
        with pytest.raises(ParseError, match="line 3: non-finite coordinate"):
            geo.read_points_csv(path, domain=(0, 0, 1, 1))

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
