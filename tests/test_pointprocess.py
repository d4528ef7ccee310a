"""Simulation, thinning, and likelihood-approximation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcpthin.errors import LgcpThinError
from lgcpthin.geo import (
    Grid,
    PointPattern,
    RasterGrid,
    RoadNetwork,
    distances_to_roads,
    ecdf,
    ks_two_sample,
)
from lgcpthin.pointprocess import (
    IntegrationScheme,
    LogIntensitySurface,
    ThinningConfig,
    loglik_lgcp,
    make_log_intensity,
    q_probability,
    simulate_lgcp,
    thin,
)


class TestQProbability:
    def test_zero_distance_is_one(self):
        for zeta in (0.0, 1.0, 16.0, 1e6):
            assert q_probability(0.0, zeta) == 1.0

    def test_zero_zeta_is_one(self):
        assert q_probability(123.4, 0.0) == 1.0

    def test_scenario_values(self):
        # direct evaluations of the half-normal form
        assert q_probability(0.5, 16.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert 0.019 <= q_probability(3.0, 0.86) <= 0.023

    def test_strictly_decreasing(self):
        d = np.linspace(0.1, 5.0, 50)
        vals = q_probability(d, 2.0)
        assert np.all(np.diff(vals) < 0)
        zetas = np.linspace(0.1, 5.0, 50)
        vals_z = np.array([q_probability(1.0, z) for z in zetas])
        assert np.all(np.diff(vals_z) < 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            q_probability(-1.0, 1.0)
        with pytest.raises(ValueError):
            q_probability(1.0, -1.0)
        with pytest.raises(ValueError):
            q_probability(np.inf, 1.0)


def constant_surface(log_lambda, n=20, side=1.0):
    grid = Grid(0.0, 0.0, side / n, n, n)
    return LogIntensitySurface(RasterGrid(grid, np.full((n, n), float(log_lambda))))


class TestSimulateLgcp:
    def test_poisson_mean_on_unit_square(self):
        # Monte Carlo oracle: counts ~ Poisson(5) on the unit square
        surface = constant_surface(math.log(5.0))
        rng = np.random.default_rng(77)
        counts = [len(simulate_lgcp(surface, rng)) for _ in range(1000)]
        se = 3.0 * math.sqrt(5.0) / math.sqrt(1000)
        assert np.mean(counts) == pytest.approx(5.0, abs=se)

    def test_zero_intensity_yields_no_points(self):
        grid = Grid(0.0, 0.0, 0.1, 10, 10)
        surface = LogIntensitySurface(RasterGrid(grid, np.full((10, 10), -np.inf)))
        assert np.all(surface.raster.values == -700.0)
        assert len(simulate_lgcp(surface, 1)) == 0

    @pytest.mark.parametrize("field", [None, np.zeros((4, 4))])
    def test_surface_needs_a_covariate(self, field):
        cov = RasterGrid(Grid(0.0, 0.0, 0.25, 4, 4), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="need at least one covariate"):
            make_log_intensity({"x1": cov}, 1.0, {}, field)

    def test_reproducible_counts_on_large_domain(self):
        # standardized covariate on a region-sized domain, production betas
        grid = Grid(0.0, 0.0, 7.5, 20, 20)
        rng = np.random.default_rng(5)
        cov = rng.normal(size=(20, 20))
        cov = (cov - cov.mean()) / cov.std()
        surface = make_log_intensity({"rad": RasterGrid(grid, cov)}, -4.25, {"rad": 0.82})
        p1 = simulate_lgcp(surface, 99)
        p2 = simulate_lgcp(surface, 99)
        assert len(p1) > 0
        np.testing.assert_array_equal(p1.points, p2.points)

    def test_overflow_cap(self):
        surface = constant_surface(25.0)
        with pytest.raises(LgcpThinError, match="cap"):
            simulate_lgcp(surface, 0)
        surface2 = constant_surface(3.0)
        simulate_lgcp(surface2, 0)

    def test_surface_validation(self):
        grid = Grid(0.0, 0.0, 0.5, 4, 4)
        with pytest.raises(ValueError):
            LogIntensitySurface(RasterGrid(grid, np.full((4, 4), np.nan)))


@pytest.fixture
def unit_roads():
    return RoadNetwork((
        np.array([[0.0, 0.25], [1.0, 0.25]]),
        np.array([[0.0, 0.75], [1.0, 0.75]]),
        np.array([[0.5, 0.0], [0.5, 1.0]]),
    ))


class TestThin:
    def test_zero_zeta_identity(self, unit_roads):
        rng = np.random.default_rng(2)
        pattern = PointPattern(rng.uniform(size=(200, 2)), (0, 0, 1, 1))
        out = thin(pattern, ThinningConfig(0.0), unit_roads, 1)
        np.testing.assert_array_equal(out.points, pattern.points)

    def test_points_on_roads_kept(self, unit_roads):
        xs = np.linspace(0.05, 0.95, 50)
        pattern = PointPattern(np.column_stack([xs, np.full(50, 0.25)]), (0, 0, 1, 1))
        out = thin(pattern, ThinningConfig(50.0), unit_roads, 3)
        assert len(out) == 50

    def test_retained_points_unchanged(self, unit_roads):
        rng = np.random.default_rng(8)
        pattern = PointPattern(rng.uniform(size=(300, 2)), (0, 0, 1, 1))
        out = thin(pattern, ThinningConfig(30.0), unit_roads, 4)
        original = {tuple(p) for p in pattern.points}
        assert all(tuple(p) in original for p in out.points)

    def test_retention_fraction_matches_mean_q(self, unit_roads):
        # analytic oracle: expected retained fraction is the mean of q over
        # the pattern's distances
        rng = np.random.default_rng(12)
        pattern = PointPattern(rng.uniform(size=(400, 2)), (0, 0, 1, 1))
        zeta = 40.0
        dists = distances_to_roads(pattern.points, unit_roads)
        q = np.exp(-zeta * dists ** 2 / 2.0)
        expect = q.mean()
        se = math.sqrt(np.sum(q * (1 - q)) / 400 ** 2 / 500)
        fracs = [len(thin(pattern, ThinningConfig(zeta), unit_roads, s)) / 400
                 for s in range(500)]
        assert np.mean(fracs) == pytest.approx(expect, abs=3 * se + 1e-4)

    def test_removal_monotone_in_zeta(self, unit_roads):
        grid = Grid(0.0, 0.0, 1 / 32, 32, 32)
        rng = np.random.default_rng(21)
        surface = LogIntensitySurface(RasterGrid(grid, np.full((32, 32), math.log(300.0))))
        removed = []
        for zeta in (0.0, 1.0, 8.0, 16.0):
            fracs = []
            for rep in range(100):
                pat = simulate_lgcp(surface, rng)
                out = thin(pat, ThinningConfig(zeta), unit_roads, rng)
                fracs.append(1.0 - len(out) / max(len(pat), 1))
            removed.append(np.mean(fracs))
        assert removed[0] == 0.0
        assert all(a < b for a, b in zip(removed, removed[1:]))

    @settings(max_examples=100, deadline=None)
    @given(zetas=st.lists(st.floats(0.0, 500.0), min_size=2, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_kept_set_monotone_in_zeta(self, zetas, seed):
        roads = RoadNetwork((np.array([[0.0, 0.3], [1.0, 0.6]]), np.array([[0.4, 0.0], [0.5, 1.0]])))
        pattern = PointPattern(np.random.default_rng(seed).uniform(size=(200, 2)), (0, 0, 1, 1))
        kept = [{tuple(p) for p in thin(pattern, ThinningConfig(z), roads, seed).points}
                for z in sorted(zetas)]
        assert all(later <= earlier for earlier, later in zip(kept, kept[1:]))

    def test_thinned_distances_stochastically_closer(self, unit_roads):
        # the survivors' distance ECDF dominates the original one: thinning
        # preferentially removes far-from-road points
        rng = np.random.default_rng(44)
        pattern = PointPattern(rng.uniform(size=(3000, 2)), (0, 0, 1, 1))
        thinned = thin(pattern, ThinningConfig(60.0), unit_roads, rng)
        d_full = distances_to_roads(pattern.points, unit_roads)
        d_thin = distances_to_roads(thinned.points, unit_roads)
        f_full, f_thin = ecdf(d_full), ecdf(d_thin)
        xs = np.linspace(0.0, d_full.max(), 200)
        gaps = f_thin(xs) - f_full(xs)
        assert np.all(gaps >= -0.02)
        assert gaps.max() > 0.1

    def test_thinned_lgcp_equals_shifted_lgcp(self, unit_roads):
        # thinning identity: simulate-then-thin matches simulating from the
        # pre-thinned surface log(lambda q); count distributions compared by KS
        n = 64
        grid = Grid(0.0, 0.0, 1.0 / n, n, n)
        base = np.full((n, n), math.log(400.0))
        zeta = 8.0
        dist = distances_to_roads(grid.cell_centers(), unit_roads).reshape(n, n)
        shifted = base - zeta * dist ** 2 / 2.0
        s_base = LogIntensitySurface(RasterGrid(grid, base))
        s_thin = LogIntensitySurface(RasterGrid(grid, shifted))
        rng = np.random.default_rng(31)
        counts_a = []
        counts_b = []
        for _ in range(500):
            pat = simulate_lgcp(s_base, rng)
            counts_a.append(len(thin(pat, ThinningConfig(zeta), unit_roads, rng)))
            counts_b.append(len(simulate_lgcp(s_thin, rng)))
        _, p = ks_two_sample(counts_a, counts_b)
        assert p > 0.01


class TestIntegrationScheme:
    def test_from_grid_weights(self):
        grid = Grid(0.0, 0.0, 0.25, 8, 4)
        scheme = IntegrationScheme.from_grid(grid)
        assert len(scheme) == 32
        assert scheme.weights.sum() == pytest.approx(8 * 4 * 0.0625, rel=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            IntegrationScheme(np.zeros((2, 2)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            IntegrationScheme(np.zeros((2, 2)), np.array([1.0, 1.0]), domain_area=3.0)


class TestLoglikLgcp:
    def test_empty_pattern_constant_surface(self):
        grid = Grid(0.0, 0.0, 0.125, 8, 8)
        scheme = IntegrationScheme.from_grid(grid)
        pattern = PointPattern(np.empty((0, 2)), grid.bbox)
        ll = loglik_lgcp(pattern, np.zeros(64), np.empty(0), scheme)
        assert ll == pytest.approx(-1.0, rel=1e-12)

    def test_single_point_closed_form(self):
        grid = Grid(0.0, 0.0, 0.1, 10, 10)
        scheme = IntegrationScheme.from_grid(grid)
        pattern = PointPattern(np.array([[0.5, 0.5]]), grid.bbox)
        for c in (-1.0, 0.0, 0.7):
            ll = loglik_lgcp(pattern, np.full(100, c), np.array([c]), scheme)
            assert ll == pytest.approx(-math.exp(c) + c, rel=1e-12)
        # unit-area closed form is maximized at c = 0
        lls = [loglik_lgcp(pattern, np.full(100, c), np.array([c]), scheme)
               for c in np.linspace(-1, 1, 41)]
        assert np.argmax(lls) == 20

    def test_midpoint_rule_second_order(self):
        # Richardson oracle: halving the cell size shrinks the change in the
        # integral term by at least 3x (midpoint rule is second order)
        def eta(x, y):
            return 0.8 * np.sin(2.1 * x) + 0.5 * np.cos(1.3 * y) + 0.2 * x * y

        pattern = PointPattern(np.array([[0.3, 0.4], [0.8, 0.9]]), (0, 0, 1, 1))
        eta_p = eta(pattern.points[:, 0], pattern.points[:, 1])
        values = []
        for n in (8, 16, 32, 64, 128):
            grid = Grid(0.0, 0.0, 1.0 / n, n, n)
            scheme = IntegrationScheme.from_grid(grid)
            eta_n = eta(scheme.nodes[:, 0], scheme.nodes[:, 1])
            values.append(loglik_lgcp(pattern, eta_n, eta_p, scheme))
        diffs = np.abs(np.diff(values))
        ratios = diffs[:-1] / diffs[1:]
        assert np.all(ratios >= 3.0)

    def test_invariant_under_node_relabeling(self):
        grid = Grid(0.0, 0.0, 0.2, 5, 5)
        scheme = IntegrationScheme.from_grid(grid)
        rng = np.random.default_rng(1)
        eta_n = rng.normal(size=25)
        pattern = PointPattern(rng.uniform(size=(7, 2)), grid.bbox)
        eta_p = rng.normal(size=7)
        base = loglik_lgcp(pattern, eta_n, eta_p, scheme)
        perm = rng.permutation(25)
        scheme2 = IntegrationScheme(scheme.nodes[perm], scheme.weights[perm])
        assert loglik_lgcp(pattern, eta_n[perm], eta_p, scheme2) == pytest.approx(base, rel=1e-15)

    def test_misaligned_lengths_rejected(self):
        grid = Grid(0.0, 0.0, 0.5, 4, 4)
        scheme = IntegrationScheme.from_grid(grid)
        pattern = PointPattern(np.array([[1.0, 1.0]]), grid.bbox)
        with pytest.raises(ValueError):
            loglik_lgcp(pattern, np.zeros(15), np.zeros(1), scheme)
        with pytest.raises(ValueError):
            loglik_lgcp(pattern, np.zeros(16), np.zeros(2), scheme)
