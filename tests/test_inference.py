"""Fitting-machinery tests: gradients, Laplace pieces, hyper grid, MCMC."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from lgcpthin import inference
from lgcpthin.cholesky import BandedCholesky, BorderedPrecision, _one_blas_thread
from lgcpthin.geo import Grid, PointPattern, RasterGrid, RoadNetwork
from lgcpthin.grf import MaternParams, PcPriorSpec, sample_matern_field
from lgcpthin.inference import (
    FitResult,
    ModelSpec,
    NormalPrior,
    _GridMarginal,
    _ModelContext,
    _newton_mode,
    fit,
    hyper_grid,
    predict_intensity,
    summarize_log_intensity_draws,
)
from lgcpthin.pointprocess import loglik_lgcp, make_log_intensity, simulate_lgcp
from lgcpthin.simstudy import ScenarioConfig, synthetic_assets
from mcmc_oracle import ChainConfig, gelman_rubin, mcmc_fit

UNIT_PC = PcPriorSpec(rho0=0.08, alpha_rho=0.05, sigma0=1.0, alpha_sigma=0.05)


def unit_square_data(seed=0, n=12, beta0=5.0, beta1=0.8, sigma=0.7, rho=0.22):
    grid = Grid(0.0, 0.0, 1.0 / n, n, n)
    centers = grid.cell_centers()
    vals = np.cos(4.0 * centers[:, 0]) + 0.6 * np.sin(3.0 * centers[:, 1])
    vals = (vals - vals.mean()) / vals.std()
    cov = RasterGrid(grid, vals.reshape(n, n))
    field = sample_matern_field(grid, MaternParams(sigma=sigma, rho=rho), seed=seed)
    surface = make_log_intensity({"x1": cov}, beta0, {"x1": beta1}, field)
    pattern = simulate_lgcp(surface, seed + 1)
    return pattern, {"x1": cov}, grid


@pytest.fixture(scope="module")
def unit_roads():
    return RoadNetwork((
        np.array([[0.0, 0.3], [1.0, 0.3]]),
        np.array([[0.6, 0.0], [0.6, 1.0]]),
    ))


@pytest.fixture(scope="module")
def naive_spec():
    return ModelSpec(covariate_names=("x1",), use_vse=False, pc_prior=UNIT_PC)


@pytest.fixture(scope="module")
def small_fit(naive_spec):
    pattern, covs, _ = unit_square_data(seed=3)
    return fit(pattern, covs, None, naive_spec), pattern, covs


class TestGradient:
    def test_analytic_gradient_matches_finite_differences(self, unit_roads):
        # central finite differences at 20 random latent coordinates
        pattern, covs, _ = unit_square_data(seed=5, n=8)
        spec = ModelSpec(covariate_names=("x1",), use_vse=True, pc_prior=UNIT_PC)
        ctx = _ModelContext(pattern, covs, unit_roads, spec)
        q_field = ctx.prior_at([math.log(0.2), math.log(0.8)])
        offsets = ctx.offsets(2.0)

        def objective(u):
            return ctx.log_post(u, q_field, offsets)[0]

        rng = np.random.default_rng(17)
        u = 0.3 * rng.standard_normal(ctx.n_field + ctx.n_coef)
        _, prior_grad = ctx.log_post(u, q_field, offsets)
        grad = ctx.loglik_grad(u, offsets) + prior_grad
        coords = rng.choice(u.size, size=20, replace=False)
        h = 1e-5
        for c in coords:
            e = np.zeros(u.size)
            e[c] = h
            fd = (objective(u + e) - objective(u - e)) / (2 * h)
            assert grad[c] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_hessian_matches_finite_differences(self, unit_roads):
        # each Hessian column is the central difference of the negated
        # gradient: field nodes inside the domain and in its padding, and
        # every coefficient
        pattern, covs, _ = unit_square_data(seed=5, n=8)
        spec = ModelSpec(covariate_names=("x1",), use_vse=True, pc_prior=UNIT_PC)
        ctx = _ModelContext(pattern, covs, unit_roads, spec)
        prior = ctx.prior_at([math.log(0.2), math.log(0.8)])
        offsets = ctx.offsets(2.0)

        def grad(u):
            return ctx.loglik_grad(u, offsets) + ctx.log_post(u, prior, offsets)[1]

        u = 0.3 * np.random.default_rng(23).standard_normal(ctx.n_field + ctx.n_coef)
        hess = ctx.hessian(ctx.curvature(u, offsets), prior)
        assert 0 not in ctx.node_field  # the first field node is padding
        h = 1e-5
        for c in (0, ctx.node_field[0], ctx.node_field[27], ctx.n_field, ctx.n_field + 1):
            e = np.zeros(u.size)
            e[c] = 1.0
            fd = -(grad(u + h * e) - grad(u - h * e)) / (2 * h)
            np.testing.assert_allclose(hess.matvec(e), fd, rtol=1e-6, atol=1e-7)


class TestSites:
    @pytest.mark.parametrize("use_vse", [False, True], ids=["naive", "vse"])
    def test_point_at_cell_centre_matches_its_node(self, use_vse, unit_roads):
        # nodes and points go through one lookup, so a point at a cell centre
        # gets that cell's field node, design row and road distance
        _, covs, grid = unit_square_data(seed=5, n=8)
        cells = np.random.default_rng(29).permutation(grid.n_cells)
        pattern = PointPattern(grid.cell_centers()[cells], grid.bbox)
        spec = ModelSpec(covariate_names=("x1",), use_vse=use_vse, pc_prior=UNIT_PC)
        ctx = _ModelContext(pattern, covs, unit_roads, spec)
        assert np.array_equal(ctx.point_field, ctx.node_field[cells])
        assert np.array_equal(ctx.x_points, ctx.x_nodes[cells])
        if use_vse:
            assert np.array_equal(ctx.dist_points, ctx.dist_nodes[cells])
        else:
            assert ctx.dist_points is None and ctx.dist_nodes is None


class TestLikelihood:
    @pytest.mark.parametrize("use_vse", [False, True], ids=["naive", "vse"])
    def test_fit_loglik_is_loglik_lgcp(self, use_vse, unit_roads):
        # the fit runs the likelihood that criterion 4 checks, bit for bit
        pattern, covs, _ = unit_square_data(seed=5, n=8)
        spec = ModelSpec(covariate_names=("x1",), use_vse=use_vse, pc_prior=UNIT_PC)
        ctx = _ModelContext(pattern, covs, unit_roads, spec)
        offsets = ctx.offsets(2.0)
        assert bool(np.any(offsets[1] != 0.0)) == use_vse
        u = 0.3 * np.random.default_rng(19).standard_normal(ctx.n_field + ctx.n_coef)
        eta_n, eta_p = ctx.eta(u, offsets)
        assert ctx.loglik(u, offsets) == loglik_lgcp(pattern, eta_n, eta_p, ctx.scheme)


class TestBorderedPrecision:
    def test_against_dense_oracle(self):
        rng = np.random.default_rng(4)
        n, p = 30, 3
        hw_dense = np.eye(n) * 5.0
        # banded SPD block with bandwidth 4
        for k in range(1, 5):
            vals = rng.normal(scale=0.3, size=n - k)
            hw_dense[np.arange(n - k), np.arange(k, n)] = vals
            hw_dense[np.arange(k, n), np.arange(n - k)] = vals
        hwb = 0.2 * rng.normal(size=(n, p))
        hbb = np.eye(p) * 4.0 + 0.1 * np.ones((p, p))
        h_dense = np.block([[hw_dense, hwb], [hwb.T, hbb]])
        assert np.all(np.linalg.eigvalsh(h_dense) > 0)
        hw_banded = np.array([np.pad(np.diagonal(hw_dense, -k), (0, k)) for k in range(5)])
        bp = BorderedPrecision(hw_banded, hwb, hbb)
        sign, logdet = np.linalg.slogdet(h_dense)
        assert bp.logdet() == pytest.approx(logdet, rel=1e-12)
        rhs = rng.normal(size=n + p)
        np.testing.assert_allclose(bp.solve(rhs), np.linalg.solve(h_dense, rhs), atol=1e-10)
        np.testing.assert_allclose(bp.coef_cov(), np.linalg.inv(h_dense)[n:, n:], atol=1e-10)
        np.testing.assert_allclose(bp.matvec(rhs), h_dense @ rhs, atol=1e-10)
        draws = bp.sample(np.random.default_rng(0), 40000)
        emp = np.cov(draws)
        np.testing.assert_allclose(emp, np.linalg.inv(h_dense), atol=0.02)

    def test_fortran_ordered_block_is_consumed(self):
        # a column-major field block is factored in place; matvec then works
        # from the factor alone
        rng = np.random.default_rng(8)
        n, p, w = 40, 2, 6
        hw = np.zeros((w + 1, n), order="F")
        hw[0] = 2.0 * w + 1.0 + rng.uniform(0.5, 2.0, size=n)
        for k in range(1, w + 1):
            hw[k, : n - k] = rng.uniform(-1.0, 1.0, size=n - k)
        hw_dense = np.diag(hw[0])
        for k in range(1, w + 1):
            hw_dense += np.diag(hw[k, : n - k], -k) + np.diag(hw[k, : n - k], k)
        hwb = 0.2 * rng.normal(size=(n, p))
        hbb = np.eye(p) * 4.0
        h_dense = np.block([[hw_dense, hwb], [hwb.T, hbb]])
        before = hw.copy()
        bp = BorderedPrecision(hw, hwb, hbb)
        assert not np.array_equal(hw, before)  # now holds the factor
        rhs = rng.normal(size=n + p)
        np.testing.assert_allclose(bp.matvec(rhs), h_dense @ rhs, atol=1e-10)
        np.testing.assert_allclose(bp.solve(rhs), np.linalg.solve(h_dense, rhs), atol=1e-10)
        assert bp.logdet() == pytest.approx(np.linalg.slogdet(h_dense)[1], rel=1e-12)


@pytest.fixture(scope="module")
def study_field_ctx():
    """Naive-model context on the default study geometry (a 38 x 38 field)."""
    config = ScenarioConfig()
    assets = synthetic_assets(config)
    bbox = assets.grid.bbox
    rng = np.random.default_rng(12)
    points = rng.uniform(bbox[:2], bbox[2:], size=(300, 2))
    spec = ModelSpec(covariate_names=(assets.covariate_name,), pc_prior=config.pc_prior)
    ctx = _ModelContext(PointPattern(points, bbox), assets.covariates, None, spec)
    assert ctx.n_field == 38 * 38
    prior = ctx.prior_at([math.log(config.true_rho), math.log(config.true_sigma)])
    curvature = ctx.scheme.weights * math.exp(-4.0)
    return ctx, prior, curvature


class TestHessianStorage:
    """Each Hessian assembles its own band, factored in place."""

    def test_prior_band_never_written(self, study_field_ctx):
        # every band the prior hands out is new: factoring one in place must
        # leave the next one, and every later Newton step, as they were
        ctx, prior, curvature = study_field_ctx
        band = prior.banded.tobytes()
        ctx.hessian(curvature, prior)
        assert prior.banded.tobytes() == band
        prior.chol()
        assert prior.banded.tobytes() == band
        _newton_mode(ctx, prior, ctx.offsets(0.0), np.zeros(ctx.n_field + ctx.n_coef))
        assert prior.banded.tobytes() == band

    def test_hessian_holds_one_band(self, study_field_ctx):
        ctx, prior, curvature = study_field_ctx
        nbytes = prior.banded.nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hess = ctx.hessian(curvature, prior)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert hess.n_field == ctx.n_field
        assert held <= 1.25 * nbytes


@pytest.fixture(scope="module")
def chord_ctx(unit_roads):
    """VSE context, and the Laplace evaluation at its hyper start."""
    pattern, covs, _ = unit_square_data(seed=5, n=8)
    spec = ModelSpec(covariate_names=("x1",), use_vse=True, pc_prior=UNIT_PC)
    ctx = _ModelContext(pattern, covs, unit_roads, spec)
    v0 = ctx.hyper_start()
    return ctx, v0, inference._laplace_at(ctx, v0, None)


class TestChordSteps:
    """Newton solves with one held factor: at first another hyper vector's,
    then its own newest, refreshed once a step cuts max|grad| too little."""

    def _newton(self, ctx, v, u0, chord, monkeypatch, pure=False):
        """Newton's mode at v from u0, and the factorizations it made.  With
        ``pure`` the oracle runs: pure Newton, a fresh Hessian at every step."""
        prior, offsets = ctx.prior_at(v), ctx.offsets(ctx.zeta_of(v))
        count = [0]
        init = BandedCholesky.__init__

        def spy(chol, ab):
            count[0] += 1
            init(chol, ab)

        monkeypatch.setattr(BandedCholesky, "__init__", spy)
        if pure:  # every accepted step then drops the factor it was solved with
            monkeypatch.setattr(inference, "_CHORD_RATIO", 0.0)
        mode, _, _ = _newton_mode(ctx, prior, offsets, u0, chord)
        monkeypatch.undo()
        grad = ctx.loglik_grad(mode, offsets) + ctx.log_post(mode, prior, offsets)[1]
        assert np.max(np.abs(grad)) < 1e-6
        return mode, count[0]

    def test_neighbour_factor_reaches_same_mode_with_fewer_factors(self, chord_ctx, monkeypatch):
        ctx, v0, (node, hess) = chord_ctx
        v = v0 + 0.1  # a neighbouring node, a small step along every axis
        pure, n_pure = self._newton(ctx, v, node.mode, None, monkeypatch, pure=True)
        chord, n_chord = self._newton(ctx, v, node.mode, hess, monkeypatch)
        assert np.max(np.abs(chord - pure)) < 1e-6
        assert n_chord < n_pure

    def test_cold_start_refreshes_its_own_factor(self, chord_ctx, monkeypatch):
        # no inherited factor: later steps still solve with the newest fresh one
        ctx, v0, _ = chord_ctx
        u0 = np.zeros(ctx.n_field + ctx.n_coef)
        pure, n_pure = self._newton(ctx, v0, u0, None, monkeypatch, pure=True)
        cold, n_cold = self._newton(ctx, v0, u0, None, monkeypatch)
        assert np.max(np.abs(cold - pure)) < 1e-6
        assert n_cold < n_pure

    def test_distant_factor_falls_back_to_fresh_hessians(self, chord_ctx, monkeypatch):
        ctx, v0, (node, _) = chord_ctx
        far, far_hess = inference._laplace_at(ctx, v0 + np.array([0.0, 3.0, 0.0]), None)
        fresh, _ = self._newton(ctx, v0, far.mode, None, monkeypatch)
        chord, n_chord = self._newton(ctx, v0, far.mode, far_hess, monkeypatch)
        assert n_chord >= 2  # a fresh step Hessian besides the one at the mode
        assert np.max(np.abs(chord - fresh)) < 1e-6
        assert np.max(np.abs(chord - node.mode)) < 1e-6

    def test_fit_matches_fresh_hessian_steps(self, small_vse_fit, unit_roads, monkeypatch):
        # oracle: the same fit with every Newton step on a fresh Hessian.
        # Modes that held factors end at differ at the Newton tolerance, so
        # log marginals differ by up to ~2e-7 and the hyper search can part
        # ways: the weakly identified zeta median moves by 6.2e-5 relative,
        # coefficient means by 1.4e-6 sd.  A cold Newton start moves this
        # fit's hyper medians by up to 1.3e-2 relative.
        newton = inference._newton_mode
        monkeypatch.setattr(inference, "_newton_mode",
                            lambda ctx, prior, offsets, u0, chord=None: newton(ctx, prior, offsets, u0))
        monkeypatch.setattr(inference, "_CHORD_RATIO", 0.0)
        pattern, covs, _ = unit_square_data(seed=5, n=8)
        oracle = fit(pattern, covs, unit_roads, small_vse_fit.spec)
        result = small_vse_fit
        assert result.hyper_diagnostics["n_evals"] == oracle.hyper_diagnostics["n_evals"]
        for name in result.param_names:
            s, o = result.summaries[name], oracle.summaries[name]
            assert abs(s["mean"] - o["mean"]) < 1e-5 * o["sd"], name
        for name in result.hyper_param_names:
            s, o = result.summaries[name], oracle.summaries[name]
            assert abs(s["q50"] - o["q50"]) < 1e-4 * abs(o["q50"]), name


class TestNewtonModes:
    """Every Newton run of a fit ends below ``_NEWTON_TOL``, and a step that
    can gain only rounding is taken at full length."""

    def test_every_mode_meets_its_tolerance(self, unit_roads, monkeypatch):
        # one event list per Newton run: ("f", objective) per log_post call,
        # ("grad", None) per gradient at an accepted point and ("d", grad @
        # step) per solve, so each step's line-search trials follow its "d"
        runs, grad_maxes = [], []
        events = [[]]  # the spies append to the last: a Newton run's, or outside Newton the first
        log_post, loglik_grad = _ModelContext.log_post, _ModelContext.loglik_grad
        solve, newton = BorderedPrecision.solve, inference._newton_mode

        def spy_log_post(ctx, u, prior, offsets):
            out = log_post(ctx, u, prior, offsets)
            events[-1].append(("f", out[0]))
            return out

        def spy_loglik_grad(ctx, u, offsets):
            events[-1].append(("grad", None))
            return loglik_grad(ctx, u, offsets)

        def spy_solve(hess, rhs):
            step = solve(hess, rhs)
            events[-1].append(("d", float(rhs @ step)))
            return step

        def spy_newton(ctx, prior, offsets, u0, chord=None):
            events.append([])
            out = newton(ctx, prior, offsets, u0, chord)
            runs.append(events.pop())
            grad = loglik_grad(ctx, out[0], offsets) + log_post(ctx, out[0], prior, offsets)[1]
            grad_maxes.append(np.max(np.abs(grad)))
            return out

        monkeypatch.setattr(_ModelContext, "log_post", spy_log_post)
        monkeypatch.setattr(_ModelContext, "loglik_grad", spy_loglik_grad)
        monkeypatch.setattr(BorderedPrecision, "solve", spy_solve)
        monkeypatch.setattr(inference, "_newton_mode", spy_newton)
        pattern, covs, _ = unit_square_data(seed=5, n=8)
        fit(pattern, covs, unit_roads,
            ModelSpec(covariate_names=("x1",), use_vse=True, pc_prior=UNIT_PC))
        monkeypatch.undo()

        assert len(grad_maxes) > 100
        assert max(grad_maxes) < inference._NEWTON_TOL
        end_game = 0
        for run in runs:
            f_val = f_last = None
            steps = []  # [squared decrement, objective at its start, trials]
            for kind, x in run:
                if kind == "f":
                    f_last = x
                    if steps:
                        steps[-1][2] += 1
                elif kind == "grad":  # the last trial was accepted
                    f_val = f_last
                else:
                    steps.append([x, f_val, 0])
            for d, f, trials in steps:
                if d <= inference._RESOLUTION_ULPS * np.spacing(abs(f)):
                    end_game += 1
                    assert trials == 1, (d, f, trials)
        assert end_game > 0


class TestFailedEvaluation:
    """A hyper vector whose Newton gradient overflows at an accepted point
    fails its evaluation, and the fit goes on without it."""

    def _overflow(self, monkeypatch, when):
        """Make ``loglik_grad`` overflow on its second call (Newton's first
        accepted point) wherever ``when()`` holds."""
        loglik_grad, calls = _ModelContext.loglik_grad, [0]

        def spy(ctx, u, offsets):
            calls[0] += 1
            grad = loglik_grad(ctx, u, offsets)
            if when() and calls[0] == 2:
                grad[0] = np.inf
            return grad

        monkeypatch.setattr(_ModelContext, "loglik_grad", spy)
        return calls

    def test_laplace_evaluation_fails(self, chord_ctx, monkeypatch):
        ctx, v0, _ = chord_ctx
        calls = self._overflow(monkeypatch, lambda: True)
        assert inference._laplace_at(ctx, v0, None) is None
        assert calls[0] == 2

    def test_fit_survives(self, unit_roads, monkeypatch):
        failed = []  # per Laplace evaluation, whether it returned None
        laplace_at = inference._laplace_at

        def spy(ctx, v, *warm):
            calls[0] = 0
            out = laplace_at(ctx, v, *warm)
            failed.append(out is None)
            return out

        calls = self._overflow(monkeypatch, lambda: len(failed) == 2)
        monkeypatch.setattr(inference, "_laplace_at", spy)
        pattern, covs, _ = unit_square_data(seed=5, n=8)
        result = fit(pattern, covs, unit_roads,
                     ModelSpec(covariate_names=("x1",), use_vse=True, pc_prior=UNIT_PC))
        assert failed[:3] == [False, False, True]
        assert all(math.isfinite(v) for s in result.summaries.values() for v in s.values())


    def test_overflowing_warm_start_warns_nowhere(self, naive_spec):
        # a far warm start overflows log_post's quadratic form, and Newton
        # starts again from zero: Newton meets the overflow, and numpy
        # warns of nothing
        pattern, covs, _ = unit_square_data(seed=3, n=10)
        ctx = _ModelContext(pattern, covs, None, naive_spec)
        warm = np.zeros(ctx.n_field + ctx.n_coef)
        warm[:ctx.n_field] = 1e160 * np.random.default_rng(2).standard_normal(ctx.n_field)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = inference._laplace_at(ctx, ctx.hyper_start(), warm)
        assert out is None or math.isfinite(out[0].laplace_log_marginal)


class TestCovariateValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cells_rejected_before_any_evaluation(self, naive_spec, monkeypatch, bad):
        # a NaN cell would run the whole hyper search to "no hyper grid node
        # has a finite Laplace marginal"
        pattern, covs, grid = unit_square_data(seed=3, n=10)
        values = covs["x1"].values.copy()
        values[2, 3] = values[5, 5] = bad
        evals = []
        monkeypatch.setattr(inference, "_laplace_at", lambda *args: evals.append(args))
        with pytest.raises(ValueError, match="covariate 'x1' has 2 non-finite cells"):
            fit(pattern, {"x1": RasterGrid(grid, values)}, None, naive_spec)
        assert evals == []


class _RowFeed:
    """Stands in for a Generator: hands out the rows of ``m`` in order."""

    def __init__(self, m):
        self.m, self.at = m, 0

    def standard_normal(self, shape):
        out = self.m[self.at:self.at + shape[0]]
        self.at += shape[0]
        assert out.shape == shape
        return out


class TestBorderedPrecisionIdentities:
    """Solve, sampling and logdet of one random bordered precision agree."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 25), p=st.integers(1, 4), bw=st.integers(0, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_solve_sample_logdet_agree(self, n, p, bw, seed):
        rng = np.random.default_rng(seed)
        bw = min(bw, n - 1)
        hw = np.zeros((bw + 1, n))
        hw[0] = 2.0 * bw + 1.0 + rng.uniform(0.5, 2.0, size=n)
        for k in range(1, bw + 1):
            hw[k, : n - k] = rng.uniform(-1.0, 1.0, size=n - k)
        hwb = 0.3 * rng.normal(size=(n, p))
        a = rng.normal(size=(p, p))
        hbb = a @ a.T + (1.0 + np.sum(hwb ** 2)) * np.eye(p)
        bp = BorderedPrecision(hw, hwb, hbb)
        size = n + p
        cov = bp.solve(np.eye(size))
        # H^{-1} H x = x
        x = rng.normal(size=size)
        np.testing.assert_allclose(bp.solve(bp.matvec(x)), x, atol=1e-9)
        # draws x = A z with z the unit vectors in some order: A A^T = H^{-1}
        draws = bp.sample(_RowFeed(np.eye(size)), size)
        np.testing.assert_allclose(draws @ draws.T, cov, atol=1e-10)
        np.testing.assert_allclose(bp.coef_cov(), cov[n:, n:], atol=1e-10)
        # log det H = -log det H^{-1} = -2 log |det A|
        assert bp.logdet() == pytest.approx(-np.linalg.slogdet(cov)[1], abs=1e-8)
        assert bp.logdet() == pytest.approx(-2.0 * np.linalg.slogdet(draws)[1], abs=1e-8)


class TestHyperGrid:
    def test_centers_on_synthetic_mode(self):
        # dense-grid oracle: quadratic marginal with known mode and curvature
        mode = np.array([1.3, -0.4])
        prec = np.array([[4.0, 1.0], [1.0, 2.0]])

        def lm(v):
            d = v - mode
            return -0.5 * d @ prec @ d

        grid = hyper_grid(lm, np.array([0.0, 0.0]))
        sd = np.sqrt(np.diag(np.linalg.inv(prec)))
        assert np.all(np.abs(grid.mode - mode) < 0.2 * sd)
        assert grid.nodes.shape == (25, 2)
        assert grid.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_weights_unimodal_along_axes(self):
        mode = np.array([0.5, 0.2])

        def lm(v):
            d = v - mode
            return -0.5 * (3.0 * d[0] ** 2 + 1.5 * d[1] ** 2 + d[0] * d[1])

        grid = hyper_grid(lm, np.zeros(2))
        w = grid.weights.reshape(5, 5)
        center = np.unravel_index(np.argmax(w), w.shape)
        for line in (w[center[0], :], w[:, center[1]]):
            peak = np.argmax(line)
            assert np.all(np.diff(line[: peak + 1]) >= 0)
            assert np.all(np.diff(line[peak:]) <= 0)

    def test_weight_shift_invariance(self):
        def lm(v):
            return -0.5 * float(v @ v)

        g1 = hyper_grid(lm, np.zeros(2))
        g2 = hyper_grid(lambda v: lm(v) + 1234.5, np.zeros(2))
        np.testing.assert_allclose(g1.weights, g2.weights, atol=1e-12)

    def test_fallback_on_flat_surface(self):
        def lm(v):
            return 0.0  # no curvature anywhere

        grid = hyper_grid(lm, np.array([0.7]))
        assert grid.diagnostics["fallback"]
        assert grid.nodes.shape == (5, 1)
        # fixed grid centered at the search result
        assert np.isclose(np.median(grid.nodes), grid.mode)

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            hyper_grid(lambda v: 0.0, np.zeros(0))

    def test_dimensionality_by_model(self, small_fit, unit_roads):
        result, pattern, covs = small_fit
        assert {tuple(sorted(n)) for n in [result.spec.hyper_names()]} == {("log_rho", "log_sigma")}
        vse_spec = ModelSpec(covariate_names=("x1",), use_vse=True, pc_prior=UNIT_PC)
        assert vse_spec.hyper_names() == ("log_rho", "log_sigma", "theta")
        fixed = ModelSpec(covariate_names=("x1",), use_vse=True, zeta_fixed=0.0)
        assert fixed.hyper_names() == ("log_rho", "log_sigma")


class TestGridMarginal:
    def test_gaussian_profile_quantiles(self):
        # log-weights of a discretized Normal(0.4, 0.3^2) on 5 points
        axis = np.linspace(0.4 - 2.5 * 0.3, 0.4 + 2.5 * 0.3, 5)
        logw = -0.5 * ((axis - 0.4) / 0.3) ** 2
        marg = _GridMarginal(axis, np.exp(logw), transform=lambda x: x)
        assert marg.mean() == pytest.approx(0.4, abs=0.01)
        assert marg.sd() == pytest.approx(0.3, abs=0.03)
        q = marg.quantile([0.025, 0.5, 0.975])
        assert q[1] == pytest.approx(0.4, abs=0.02)
        assert q[0] == pytest.approx(0.4 - 1.96 * 0.3, abs=0.06)
        assert q[2] == pytest.approx(0.4 + 1.96 * 0.3, abs=0.06)

    def test_draws_match_distribution(self):
        axis = np.linspace(-1.0, 1.0, 5)
        marg = _GridMarginal(axis, np.array([0.1, 0.4, 1.0, 0.4, 0.1]))
        draws = marg.draw(np.random.default_rng(3), 4000)
        assert draws.mean() == pytest.approx(marg.mean(), abs=0.03)


class TestFit:
    def test_weights_normalized_and_summaries_ordered(self, small_fit):
        result, _, _ = small_fit
        total = sum(n.weight for n in result.nodes)
        assert total == pytest.approx(1.0, abs=1e-10)
        for name, s in result.summaries.items():
            assert s["q025"] <= s["q50"] <= s["q975"], name

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
    def test_credible_interval_rejects_level_outside_unit_interval(self, small_fit, level):
        result, _, _ = small_fit
        with pytest.raises(ValueError, match="level must be in"):
            result.credible_interval("beta0", level)

    def test_deterministic(self, naive_spec):
        pattern, covs, _ = unit_square_data(seed=9)
        r1 = fit(pattern, covs, None, naive_spec)
        r2 = fit(pattern, covs, None, naive_spec)
        for name in r1.summaries:
            assert r1.summaries[name] == r2.summaries[name]

    def test_beta_precision_is_read(self):
        pattern, covs, _ = unit_square_data(seed=3)
        sds = [fit(pattern, covs, None, ModelSpec(covariate_names=("x1",), pc_prior=UNIT_PC,
                                                  beta_precision=p)).summaries["x1"]["sd"]
               for p in (0.01, 100.0)]
        assert sds[1] < sds[0]

    def test_no_information_covariate(self):
        # a covariate that is identically zero leaves its coefficient at the
        # prior (mean 0, precision 0.01 -> sd 10)
        pattern, covs, grid = unit_square_data(seed=11)
        zero = RasterGrid(grid, np.zeros((grid.ny, grid.nx)))
        spec = ModelSpec(covariate_names=("x1", "flat"), use_vse=False, pc_prior=UNIT_PC)
        result = fit(pattern, {**covs, "flat": zero}, None, spec)
        prior_sd = 1.0 / math.sqrt(0.01)
        assert abs(result.summaries["flat"]["mean"]) < 0.1 * prior_sd
        assert result.summaries["flat"]["sd"] == pytest.approx(prior_sd, rel=0.05)

    def test_vse_with_zero_zeta_equals_naive(self, unit_roads, naive_spec):
        # the thinning model with q = 1 must reproduce the naive fit exactly
        pattern, covs, _ = unit_square_data(seed=13)
        naive = fit(pattern, covs, None, naive_spec)
        forced = ModelSpec(covariate_names=("x1",), use_vse=True, zeta_fixed=0.0,
                           pc_prior=UNIT_PC)
        vse0 = fit(pattern, covs, unit_roads, forced)
        for name in ("beta0", "x1"):
            for key in ("mean", "sd", "q025", "q50", "q975"):
                assert vse0.summaries[name][key] == pytest.approx(
                    naive.summaries[name][key], abs=1e-8)

    def test_summaries_reproducible_from_nodes(self, small_fit):
        result, _, _ = small_fit
        weights = np.array([n.weight for n in result.nodes])
        means = np.array([n.beta_mean[0] for n in result.nodes])
        sds = np.array([math.sqrt(n.beta_cov[0, 0]) for n in result.nodes])
        mean = float(weights @ means)
        var = float(weights @ (sds ** 2 + means ** 2)) - mean ** 2
        assert result.summaries["beta0"]["mean"] == pytest.approx(mean, rel=1e-12)
        assert result.summaries["beta0"]["sd"] == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_save_load_roundtrip(self, small_fit, naive_spec, tmp_path):
        result, pattern, covs = small_fit
        result.save(tmp_path)
        back = FitResult.load(tmp_path, pattern, covs, None, naive_spec)
        for name in result.summaries:
            for key in ("mean", "sd", "q975"):
                assert back.summaries[name][key] == pytest.approx(
                    result.summaries[name][key], rel=1e-9)

    def test_load_rejects_old_node_format(self, small_fit, naive_spec, tmp_path):
        # fits saved with separate log_rho/log_sigma/theta arrays do not load
        result, pattern, covs = small_fit
        result.save(tmp_path)
        path = tmp_path / "fit_nodes.npz"
        data = dict(np.load(path))
        old = {k: v for k, v in data.items() if k not in ("hyper", "zeta")}
        old["log_rho"], old["log_sigma"] = data["hyper"][:, 0], data["hyper"][:, 1]
        old["theta"] = np.full(len(result.nodes), np.nan)
        np.savez_compressed(path, **old)
        with pytest.raises(ValueError, match="older format"):
            FitResult.load(tmp_path, pattern, covs, None, naive_spec)

    def test_load_rejects_other_extension(self, naive_spec, tmp_path):
        # a longer prior range pads wider, so saves a longer latent vector per node
        pattern, covs, _ = unit_square_data(seed=3)
        wide = ModelSpec(covariate_names=("x1",), pc_prior=PcPriorSpec(rho0=0.12))
        fit(pattern, covs, None, wide).save(tmp_path)
        with pytest.raises(ValueError, match="'mode' has 678 entries .* give 486"):
            FitResult.load(tmp_path, pattern, covs, None, naive_spec)

    def test_load_ignores_saved_zeta(self, small_fit, naive_spec, tmp_path):
        # files saved before the thinning rate was derived from the hyper vector hold a zeta array
        result, pattern, covs = small_fit
        result.save(tmp_path)
        path = tmp_path / "fit_nodes.npz"
        data = dict(np.load(path))
        data["zeta"] = np.full(len(result.nodes), 7.0)
        np.savez_compressed(path, **data)
        back = FitResult.load(tmp_path, pattern, covs, None, naive_spec)
        assert back.summaries == result.summaries

    def test_load_rejects_other_cell_count(self, small_fit, naive_spec, tmp_path):
        result, pattern, covs = small_fit
        result.save(tmp_path)
        path = tmp_path / "fit_nodes.npz"
        data = dict(np.load(path))
        data["grid_shape"] = np.array([12, 11])
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match=r"'grid_shape' is \[12, 11\] .* gives \[12, 12\]"):
            FitResult.load(tmp_path, pattern, covs, None, naive_spec)

    def test_load_reads_curvature_layout(self, small_fit, naive_spec, tmp_path):
        # files saved before each node's curvature was rebuilt from its mode
        # hold a curvature array and no grid_shape: the array's width is
        # checked against the cell count, and its values are not read
        result, pattern, covs = small_fit
        result.save(tmp_path)
        path = tmp_path / "fit_nodes.npz"
        data = dict(np.load(path))
        del data["grid_shape"]
        ctx = result._ctx
        data["curvature"] = np.array([ctx.curvature(n.mode, ctx.offsets(ctx.zeta_of(n.hyper)))
                                      for n in result.nodes])
        np.savez_compressed(path, **data)
        back = FitResult.load(tmp_path, pattern, covs, None, naive_spec)
        assert back.summaries == result.summaries
        for got, want in zip(predict_intensity(back, draws=50, seed=3),
                             predict_intensity(result, draws=50, seed=3)):
            assert np.array_equal(got.values, want.values)
        data["curvature"] = data["curvature"][:, :-1]
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="'curvature' has 143 entries .* give 144"):
            FitResult.load(tmp_path, pattern, covs, None, naive_spec)

    def test_fixed_zeta_holds_at_every_node(self, unit_roads):
        pattern, covs, _ = unit_square_data(seed=3)
        spec = ModelSpec(covariate_names=("x1",), use_vse=True, zeta_fixed=2.0, pc_prior=UNIT_PC)
        assert spec.hyper_names() == ("log_rho", "log_sigma")
        result = fit(pattern, covs, unit_roads, spec)
        assert all(result._ctx.zeta_of(node.hyper) == 2.0 for node in result.nodes)
        assert all(node.hyper.shape == (2,) for node in result.nodes)
        assert sum(node.weight for node in result.nodes) == pytest.approx(1.0)
        assert all(math.isfinite(v) for s in result.summaries.values() for v in s.values())

    def test_empty_pattern_rejected(self, naive_spec):
        _, covs, grid = unit_square_data(seed=1)
        empty = PointPattern(np.empty((0, 2)), grid.bbox)
        with pytest.raises(ValueError):
            fit(empty, covs, None, naive_spec)

    def test_each_hyper_vector_evaluated_once(self, unit_roads, monkeypatch):
        # fit keeps the one memo of Laplace evaluations, and counts it
        seen = []
        laplace_at = inference._laplace_at

        def spy(ctx, v, *warm):
            seen.append(inference._node_key(v))
            return laplace_at(ctx, v, *warm)

        monkeypatch.setattr(inference, "_laplace_at", spy)
        pattern, covs, _ = unit_square_data(seed=5, n=8)
        spec = ModelSpec(covariate_names=("x1",), use_vse=True, pc_prior=UNIT_PC)
        result = fit(pattern, covs, unit_roads, spec)
        assert seen and len(set(seen)) == len(seen)
        assert result.hyper_diagnostics["n_evals"] >= len(seen)
        # the first six are the scan along theta, from its prior mean
        start = _ModelContext(pattern, covs, unit_roads, spec).hyper_start()
        assert start[-1] == spec.theta_prior.mean
        scan = [inference._node_key(np.append(start[:-1], start[-1] + off))
                for off in (-8.0, -6.0, -4.0, -2.0, 0.0, 2.0)]
        assert seen[:6] == scan

    def test_vse_requires_roads(self):
        pattern, covs, _ = unit_square_data(seed=1)
        spec = ModelSpec(covariate_names=("x1",), use_vse=True, pc_prior=UNIT_PC)
        with pytest.raises(ValueError):
            fit(pattern, covs, None, spec)


@pytest.fixture(scope="module")
def small_vse_fit(unit_roads):
    pattern, covs, _ = unit_square_data(seed=5, n=8)
    spec = ModelSpec(covariate_names=("x1",), use_vse=True, pc_prior=UNIT_PC)
    return fit(pattern, covs, unit_roads, spec)


class TestPosteriorAccess:
    """credible_interval and draw_parameter on every parameter of a VSE fit:
    coefficients from the node mixture, hyperparameters from grid marginals."""

    LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99)

    def test_intervals_nest_around_median(self, small_vse_fit):
        result = small_vse_fit
        assert list(result.summaries) == result.param_names + result.hyper_param_names
        for name, s in result.summaries.items():
            bounds = [result.credible_interval(name, level) for level in self.LEVELS]
            los, his = [b[0] for b in bounds], [b[1] for b in bounds]
            assert los == sorted(los, reverse=True) and his == sorted(his), name
            assert los[0] <= s["q50"] <= his[0], name
            assert bounds[3] == (s["q025"], s["q975"]), name

    def test_coefficient_interval_inverts_mixture_cdf(self, small_vse_fit):
        result = small_vse_fit
        weights = np.array([n.weight for n in result.nodes])
        for j, name in enumerate(result.param_names):
            means = np.array([n.beta_mean[j] for n in result.nodes])
            sds = np.array([math.sqrt(n.beta_cov[j, j]) for n in result.nodes])
            for level in self.LEVELS:
                lo, hi = result.credible_interval(name, level)
                assert lo < hi
                assert float(weights @ norm.cdf((lo - means) / sds)) == pytest.approx(
                    (1 - level) / 2, abs=1e-8), (name, level)
                assert float(weights @ norm.cdf((hi - means) / sds)) == pytest.approx(
                    (1 + level) / 2, abs=1e-8), (name, level)

    def test_coefficient_draws_match_summaries(self, small_vse_fit):
        result, size = small_vse_fit, 20_000
        for name in result.param_names:
            s = result.summaries[name]
            draws = result.draw_parameter(name, np.random.default_rng(21), size)
            assert draws.mean() == pytest.approx(s["mean"], abs=5 * s["sd"] / math.sqrt(size))
            assert draws.std() == pytest.approx(s["sd"], rel=0.03)

    def test_hyper_draws_lie_in_support(self, small_vse_fit):
        result = small_vse_fit
        for name in result.hyper_param_names:
            s = result.summaries[name]
            values = result._marginals[name].values
            draws = result.draw_parameter(name, np.random.default_rng(22), 20_000)
            assert np.all(np.isin(draws, values)), name
            assert abs(np.median(draws) - s["q50"]) < 0.02 * (s["q975"] - s["q025"]), name

    def test_draws_reproducible_from_seed(self, small_vse_fit):
        result = small_vse_fit
        for name in result.summaries:
            first = result.draw_parameter(name, np.random.default_rng(23), 500)
            assert np.array_equal(first, result.draw_parameter(name, np.random.default_rng(23), 500))

    def test_marginals_equal_on_one_blas_thread(self, small_vse_fit):
        # summaries, intervals and draws come from dot products that run on
        # the caller's BLAS threads, not under the one-thread pin
        result = small_vse_fit

        def rebuild():
            again = FitResult(result.spec, result.nodes, result._ctx, {})
            return (again.summaries,
                    [again.credible_interval(name, 0.9) for name in again.summaries],
                    [again.draw_parameter(name, np.random.default_rng(24), 200).tolist()
                     for name in again.summaries])

        with _one_blas_thread:
            pinned = rebuild()
        assert rebuild() == pinned
        assert pinned[0] == result.summaries


class TestSpecValidation:
    @pytest.mark.parametrize("mean, precision, field", [
        (0.0, 0.0, "precision"),
        (0.0, -1.0, "precision"),
        (0.0, float("nan"), "precision"),
        (0.0, float("inf"), "precision"),
        (float("nan"), 1.0, "mean"),
        (float("inf"), 1.0, "mean"),
        (float("-inf"), 1.0, "mean"),
    ])
    def test_normal_prior_rejects_bad_values(self, mean, precision, field):
        with pytest.raises(ValueError, match=f"prior {field} must be"):
            NormalPrior(mean, precision)

    @pytest.mark.parametrize("zeta", [-1.0, float("inf"), float("nan")])
    def test_zeta_fixed_rejects_bad_values(self, zeta):
        with pytest.raises(ValueError, match="zeta_fixed must be nonnegative and finite"):
            ModelSpec(covariate_names=("x1",), use_vse=True, zeta_fixed=zeta)

    @pytest.mark.parametrize("precision", [0.0, -1.0, float("nan"), float("inf")])
    def test_beta_precision_rejects_bad_values(self, precision):
        with pytest.raises(ValueError, match="prior precision must be positive and finite"):
            ModelSpec(covariate_names=("x1",), beta_precision=precision)

    def test_zeta_fixed_rejected_for_naive_model(self):
        # the naive model has no thinning term to pin
        with pytest.raises(ValueError, match="zeta_fixed is read only by the VSE model"):
            ModelSpec(covariate_names=("x1",), use_vse=False, zeta_fixed=2.0)

    def test_grid_size_is_a_constant(self):
        assert ModelSpec(("x1",)).grid_points_per_dim == 5
        with pytest.raises(TypeError):
            ModelSpec(("x1",), grid_points_per_dim=3)


class TestPredict:
    def test_zero_variance_draws_give_zero_sd(self):
        grid = Grid(0.0, 0.0, 0.25, 4, 4)
        eta = np.tile(np.arange(16.0)[:, None], (1, 50))
        median, sd = summarize_log_intensity_draws(eta, grid)
        np.testing.assert_allclose(sd.values, 0.0, atol=1e-12)
        np.testing.assert_allclose(median.values.ravel(), np.arange(16.0))

    def test_median_stable_in_draw_count(self, small_fit):
        result, _, _ = small_fit
        med1, _ = predict_intensity(result, draws=1000, seed=5)
        med2, _ = predict_intensity(result, draws=4000, seed=6)
        rel = np.abs(med1.values - med2.values) / np.maximum(np.abs(med2.values), 1e-9)
        assert np.median(rel) < 0.02

    @pytest.mark.parametrize("draws", [1, 0, -3])
    def test_rejects_fewer_than_two_draws(self, small_fit, draws):
        result, _, _ = small_fit
        with pytest.raises(ValueError, match=f"draws must be at least 2, got {draws}"):
            predict_intensity(result, draws=draws)


class TestMcmc:
    def test_chain_reproducible(self, naive_spec):
        pattern, covs, _ = unit_square_data(seed=23, n=8)
        cfg = ChainConfig(n_iter=400, n_burn=200)
        a = mcmc_fit(pattern, covs, None, naive_spec, cfg, chains=1, seed=9)
        b = mcmc_fit(pattern, covs, None, naive_spec, cfg, chains=1, seed=9)
        np.testing.assert_array_equal(a.beta, b.beta)
        c = mcmc_fit(pattern, covs, None, naive_spec, cfg, chains=1, seed=10)
        assert not np.array_equal(a.beta, c.beta)

    def test_acceptance_rates_tracked(self, naive_spec):
        pattern, covs, _ = unit_square_data(seed=25, n=8)
        out = mcmc_fit(pattern, covs, None, naive_spec,
                       ChainConfig(n_iter=1500, n_burn=700), chains=1, seed=2)
        assert 0.1 <= out.accept_latent[0] <= 0.9
        assert out.warnings == []

    def test_latent_size_enforced(self, naive_spec):
        pattern, covs, _ = unit_square_data(seed=2, n=12)
        with pytest.raises(ValueError, match="latent"):
            mcmc_fit(pattern, covs, None, naive_spec, ChainConfig(200, 100),
                     chains=1, seed=0, max_latent=50)


class TestGelmanRubin:
    def test_identical_chains_give_one(self):
        # split-chain R-hat compares half-series means, so even identical
        # white-noise chains sit at 1 only up to O(1/n)
        rng = np.random.default_rng(0)
        series = rng.normal(size=2000)
        chains = np.vstack([series, series, series, series])
        assert gelman_rubin(chains) == pytest.approx(1.0, abs=5e-3)

    def test_separated_chains_flag(self):
        rng = np.random.default_rng(1)
        chains = rng.normal(size=(4, 500)) + np.array([[0.0], [5.0], [-5.0], [2.5]])
        assert gelman_rubin(chains) > 2.0
