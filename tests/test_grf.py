"""Latent-field tests: Matern covariance, lattice precision, sampling, priors."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from lgcpthin.cholesky import BandedCholesky
from lgcpthin.geo import Grid
from lgcpthin.grf import (
    MaternParams,
    PcPriorSpec,
    _LatticeOperators,
    build_precision,
    matern_cov,
    pc_prior_logdensity,
    sample_field,
    sample_matern_field,
    tau_from_sigma,
)


def sigma_from_tau(tau: float, kappa: float) -> float:
    """Inverse of ``tau_from_sigma`` in sigma."""
    return 1.0 / (2.0 * math.sqrt(math.pi) * kappa * tau)


def bessel_k1_quadrature(x: float) -> float:
    """Independent K_1 oracle via the integral representation
    K_1(x) = int_0^inf exp(-x cosh t) cosh t dt."""
    val, _ = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t), 0.0, 30.0,
                  limit=200)
    return val


class TestMaternCov:
    def test_zero_lag_is_variance(self):
        params = MaternParams(sigma=math.sqrt(0.7), rho=34.0)
        assert matern_cov(0.0, params) == pytest.approx(0.7, abs=1e-15)

    def test_correlation_at_practical_range(self):
        # oracle: high-accuracy quadrature evaluation of K_1 at sqrt(8)
        params = MaternParams(sigma=1.7, rho=2.3)
        x = math.sqrt(8.0)
        oracle = x * bessel_k1_quadrature(x) * params.sigma ** 2
        got = matern_cov(params.rho, params)
        assert got == pytest.approx(oracle, rel=1e-8)
        assert got == pytest.approx(0.139 * params.sigma ** 2, abs=0.005 * params.sigma ** 2)

    def test_negligible_at_ten_ranges(self):
        params = MaternParams(sigma=2.0, rho=0.8)
        assert matern_cov(10 * params.rho, params) < 1e-6 * params.sigma ** 2

    def test_strictly_decreasing_and_positive(self):
        params = MaternParams(sigma=0.9, rho=1.4)
        lags = np.linspace(0.0, 5 * params.rho, 100)
        vals = matern_cov(lags, params)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_rejects_bad_inputs(self):
        params = MaternParams(sigma=1.0, rho=1.0)
        with pytest.raises(ValueError):
            matern_cov(-0.1, params)
        with pytest.raises(ValueError):
            matern_cov(np.nan, params)
        with pytest.raises(ValueError):
            MaternParams(sigma=-1.0, rho=1.0)

    def test_tau_sigma_roundtrip(self):
        params = MaternParams(sigma=0.83666, rho=34.0)
        tau = tau_from_sigma(params.sigma, params.kappa)
        assert sigma_from_tau(tau, params.kappa) == pytest.approx(params.sigma, rel=1e-12)
        assert params.kappa == pytest.approx(math.sqrt(8.0) / params.rho, rel=1e-15)


def dense_from_banded(ab: np.ndarray) -> np.ndarray:
    """Symmetric dense matrix from LAPACK lower-banded storage."""
    n = ab.shape[1]
    dense = np.diag(ab[0])
    for k in range(1, ab.shape[0]):
        dense += np.diag(ab[k, : n - k], -k) + np.diag(ab[k, : n - k], k)
    return dense


def dense_from_matvec(prec) -> np.ndarray:
    return np.column_stack([prec.matvec(e) for e in np.eye(prec.n)])


def sparse_stiffness(nx: int, ny: int) -> sp.csr_matrix:
    """Graph Laplacian of the 4-neighbour lattice as a CSR matrix."""
    n = nx * ny
    idx = np.arange(n)
    i = idx % nx
    j = idx // nx
    rows, cols = [], []
    for di, dj in ((1, 0), (0, 1)):
        ok = (i + di < nx) & (j + dj < ny)
        a = idx[ok]
        b = a + di + dj * nx
        rows.extend([a, b])
        cols.extend([b, a])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    off = sp.csr_matrix((-np.ones(rows.size), (rows, cols)), shape=(n, n))
    deg = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sp.diags(deg)).tocsr()


def sparse_banded_precision(grid: Grid, params: MaternParams) -> np.ndarray:
    """Oracle for the band of Q: tau^2 (kappa^4 C + 2 kappa^2 G + G C^-1 G)
    formed from scipy.sparse matrices, whose division by a scalar multiplies
    by its reciprocal."""
    h = grid.cell_size
    n = grid.n_cells
    g = sparse_stiffness(grid.nx, grid.ny)

    def banded(matrix):
        ab = np.zeros((2 * grid.nx + 1, n))
        for k in range(ab.shape[0]):
            ab[k, : n - k] = matrix.diagonal(-k)
        return ab

    c = banded(sp.identity(n, format="csr") * (h * h))
    gg = banded((g @ g) / (h * h))
    kappa, tau = params.kappa, params.tau
    return tau * tau * (kappa ** 4 * c + 2.0 * kappa ** 2 * banded(g) + gg)


class TestBuildPrecision:
    def test_symmetry_and_sparsity(self):
        grid = Grid(0.0, 0.0, 1.0 / 16, 16, 16)
        prec = build_precision(grid, MaternParams(sigma=1.0, rho=0.3))
        q = dense_from_matvec(prec)
        assert np.max(np.abs(q - q.T)) <= 1e-12
        row_nnz = np.count_nonzero(dense_from_banded(prec.banded), axis=1)
        assert row_nnz.max() <= 13

    def test_operators_memory_bounded(self):
        # the stencil diagonals take about 2 MiB; three full (2 nx + 1) x n
        # bands would take 200 MB
        tracemalloc.start()
        try:
            ops = _LatticeOperators(Grid(0.0, 0.0, 1.0, 160, 160))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ops.shape == (160, 160)
        assert kept < 8 * 2 ** 20

    # nx below 4 makes diagonal offsets coincide; the field of a fit may be
    # that narrow, though build_precision rejects it
    @settings(max_examples=100, deadline=None)
    @given(nx=st.integers(1, 30), ny=st.integers(2, 30),
           h=st.sampled_from([0.013, 0.25, 1.0, 3.7, 7.5]) | st.floats(1e-3, 1e2),
           rho_cells=st.floats(0.5, 30.0), sigma=st.floats(0.05, 20.0))
    @example(nx=4, ny=4, h=0.013, rho_cells=10.0, sigma=1.0)
    def test_band_bytes_match_sparse_oracle(self, nx, ny, h, rho_cells, sigma):
        grid = Grid(0.0, 0.0, h, nx, ny)
        params = MaternParams(sigma=sigma, rho=rho_cells * h)
        got = _LatticeOperators(grid).assemble_banded(params)
        want = sparse_banded_precision(grid, params)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_cholesky_succeeds(self):
        grid = Grid(0.0, 0.0, 0.1, 12, 9)
        prec = build_precision(grid, MaternParams(sigma=0.5, rho=0.4))
        assert np.isfinite(prec.logdet())
        assert np.isfinite(prec.chol().logdet())

    def test_deterministic_construction(self):
        grid = Grid(0.0, 0.0, 0.05, 20, 20)
        params = MaternParams(sigma=1.2, rho=0.25)
        a = build_precision(grid, params)
        b = build_precision(grid, params)
        assert np.array_equal(a.banded, b.banded)
        x = np.random.default_rng(0).normal(size=a.n)
        assert np.array_equal(a.matvec(x), b.matvec(x))
        assert a.logdet() == b.logdet()

    def test_band_is_new_and_column_major(self):
        # a band belongs to whoever factors it, so each request assembles one
        prec = build_precision(Grid(0.0, 0.0, 0.05, 8, 6), MaternParams(sigma=1.0, rho=0.3))
        a, b = prec.banded, prec.banded
        assert a.flags.f_contiguous and b.flags.f_contiguous
        assert a is not b and not np.shares_memory(a, b)
        assert np.array_equal(a, b)

    def test_white_noise_limit(self):
        # kappa large (rho tiny): off-diagonal mass vanishes relative to diagonal
        grid = Grid(0.0, 0.0, 1.0, 8, 8)
        ab = build_precision(grid, MaternParams(sigma=1.0, rho=1e-3)).banded
        ratio = np.max(np.abs(ab[1:])) / ab[0].min()
        assert ratio < 1e-4

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            build_precision(Grid(0, 0, 1.0, 3, 8), MaternParams(sigma=1, rho=1))

    def test_gmrf_matches_matern_covariance(self):
        # Monte Carlo oracle: empirical lag covariance of 2000 samples vs the
        # analytic covariance, interior nodes, lags up to one range.
        grid = Grid(0.0, 0.0, 1.0 / 32, 32, 32)
        params = MaternParams(sigma=1.0, rho=0.4)
        fields = sample_matern_field(grid, params, seed=101, size=2000)
        flat = fields.reshape(2000, -1)
        centered = flat - flat.mean(axis=0)
        nx = grid.nx
        for dx, dy in ((1, 0), (0, 2), (3, 3), (6, 0), (0, 9), (12, 0)):
            lag = math.hypot(dx, dy) * grid.cell_size
            a = centered.reshape(2000, nx, nx)[:, : nx - dy, : nx - dx].reshape(2000, -1)
            b = centered.reshape(2000, nx, nx)[:, dy:, dx:].reshape(2000, -1)
            emp = np.mean(np.sum(a * b, axis=1) / a.shape[1]) * 2000 / (2000 - 1)
            assert emp == pytest.approx(matern_cov(lag, params), abs=0.05 * params.sigma ** 2)


lattice_priors = st.builds(
    lambda nx, ny, rho_cells, sigma: build_precision(
        Grid(0.0, 0.0, 0.5, nx, ny), MaternParams(sigma=sigma, rho=0.5 * rho_cells)),
    nx=st.integers(4, 10), ny=st.integers(4, 10),
    rho_cells=st.floats(0.5, 30.0), sigma=st.floats(0.05, 20.0))


class TestClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(prec=lattice_priors)
    def test_logdet_matches_factorizations(self, prec):
        dense = dense_from_banded(prec.banded)
        sign, dense_logdet = np.linalg.slogdet(dense)
        assert sign > 0
        tol = 1e-10 * prec.n
        assert prec.logdet() == pytest.approx(BandedCholesky(prec.banded).logdet(), abs=tol)
        assert prec.logdet() == pytest.approx(dense_logdet, abs=tol)

    @settings(max_examples=60, deadline=None)
    @given(prec=lattice_priors, seed=st.integers(0, 2 ** 32 - 1))
    def test_matvec_matches_dense(self, prec, seed):
        dense = dense_from_banded(prec.banded)
        x = np.random.default_rng(seed).normal(size=prec.n)
        want = dense @ x
        np.testing.assert_allclose(prec.matvec(x), want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(dense)) * np.sum(np.abs(x)))


class TestSampleField:
    def test_zero_mean_and_variance(self):
        grid = Grid(0.0, 0.0, 1.0 / 24, 24, 24)
        params = MaternParams(sigma=0.8, rho=0.3)
        fields = sample_matern_field(grid, params, seed=7, size=5000)
        center = fields[:, 12, 12]
        assert abs(center.mean()) < 4 * params.sigma / math.sqrt(5000)
        assert center.var(ddof=1) == pytest.approx(params.sigma ** 2, rel=0.10)

    def test_seed_determinism(self):
        grid = Grid(0.0, 0.0, 0.1, 10, 10)
        prec = build_precision(grid, MaternParams(sigma=1.0, rho=0.4))
        f1 = sample_field(prec, seed=42)
        f2 = sample_field(prec, seed=42)
        np.testing.assert_array_equal(f1, f2)
        f3 = sample_field(prec, seed=43)
        assert not np.array_equal(f1, f3)

    def test_draw_holds_two_bands(self):
        # the factor and its transpose L^T; not the prior's cached band, nor a
        # general banded solver's workspace
        grid = Grid(0.0, 0.0, 1.0, 60, 60)
        prec = _LatticeOperators(grid).assemble(MaternParams(1.0, 10.0))
        band = (2 * grid.nx + 1) * grid.n_cells * 8
        tracemalloc.start()
        try:
            fields = sample_field(prec, 3, size=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fields.shape == (4, 60, 60)
        assert peak <= 2.5 * band

    @pytest.mark.parametrize("factor", [-0.5, math.nan, -math.inf, math.inf])
    def test_bad_extension_factor_rejected(self, factor):
        # -0.5 would otherwise crop a 2 x 2 field out of the 20 x 20 grid
        grid = Grid(0.0, 0.0, 1.0, 20, 20)
        with pytest.raises(ValueError, match=f"extension_factor .* got {factor}"):
            sample_matern_field(grid, MaternParams(sigma=1.0, rho=4.0), seed=1,
                                extension_factor=factor)

    def test_banded_cholesky_against_dense(self):
        grid = Grid(0.0, 0.0, 0.2, 6, 5)
        prec = build_precision(grid, MaternParams(sigma=1.0, rho=0.5))
        dense = dense_from_banded(prec.banded)
        chol = BandedCholesky(prec.banded)
        sign, logdet = np.linalg.slogdet(dense)
        assert sign > 0
        assert chol.logdet() == pytest.approx(logdet, rel=1e-12)
        rng = np.random.default_rng(1)
        b = rng.normal(size=30)
        np.testing.assert_allclose(chol.solve(b), np.linalg.solve(dense, b), atol=1e-10)
        l_dense = np.linalg.cholesky(dense)
        np.testing.assert_allclose(chol.solve_lt(b), np.linalg.solve(l_dense.T, b), atol=1e-10)


class TestPcPrior:
    SPEC = PcPriorSpec(rho0=15.0, alpha_rho=0.05, sigma0=1.0, alpha_sigma=0.05)

    def _rho_density(self, r):
        # isolate the range factor by dividing out the sigma factor at sigma=1
        sig_log = pc_prior_logdensity(1e9, 1.0, self.SPEC) - (
            math.log(self.SPEC.lambda_rho) - 2.0 * math.log(1e9)
            - self.SPEC.lambda_rho / 1e9)
        return math.exp(pc_prior_logdensity(r, 1.0, self.SPEC) - sig_log)

    def test_range_tail_probability(self):
        cdf, err = quad(self._rho_density, 0.0, 15.0, limit=200)
        assert err < 1e-8
        assert cdf == pytest.approx(0.05, abs=1e-6)

    def test_sigma_tail_probability(self):
        # closed-form exponential tail: P(sigma > sigma0) = exp(-lambda sigma0)
        tail = math.exp(-self.SPEC.lambda_sigma * self.SPEC.sigma0)
        assert tail == pytest.approx(0.05, abs=1e-12)

    def test_joint_density_integrates_to_one(self):
        val, _ = dblquad(
            lambda s, r: math.exp(pc_prior_logdensity(r, s, self.SPEC)),
            1e-9, np.inf, 1e-9, np.inf, epsabs=1e-6, epsrel=1e-6)
        assert val == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("field", ["rho0", "sigma0"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_spec_rejects_bad_thresholds(self, field, bad):
        # an infinite sigma0 gives lambda_sigma = 0, and the prior median
        # would divide by zero
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got {bad}"):
            PcPriorSpec(**{field: bad})

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pc_prior_logdensity(-1.0, 1.0, self.SPEC)
        with pytest.raises(ValueError):
            pc_prior_logdensity(1.0, 0.0, self.SPEC)

    def test_prior_medians(self):
        # medians follow from the closed-form CDFs; used as optimizer starts
        lam = self.SPEC.lambda_rho
        assert math.exp(-lam / self.SPEC.rho_median) == pytest.approx(0.5, rel=1e-12)
        assert math.exp(-self.SPEC.lambda_sigma * self.SPEC.sigma_median) == pytest.approx(0.5, rel=1e-12)
