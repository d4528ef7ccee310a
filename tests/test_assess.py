"""Criteria tests: DIC, WAIC, CPO/LPML against conjugate and brute-force oracles."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from lgcpthin import assess
from lgcpthin.assess import PointwiseLikelihoodTable, dic, lpml, pointwise_table, waic


def normal_mean_table(y, prior_var=100.0, n_samples=5000, seed=0, sigma=1.0):
    """Posterior table for the conjugate model y_i ~ N(mu, sigma^2), mu ~ N(0, prior_var)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    post_var = 1.0 / (n / sigma ** 2 + 1.0 / prior_var)
    post_mean = post_var * y.sum() / sigma ** 2
    rng = np.random.default_rng(seed)
    mu = post_mean + math.sqrt(post_var) * rng.standard_normal(n_samples)
    log_lik = norm.logpdf(y[:, None], loc=mu[None, :], scale=sigma)
    at_mean = norm.logpdf(y, loc=mu.mean(), scale=sigma)
    table = PointwiseLikelihoodTable(log_lik, at_mean)
    return table, post_mean, post_var


class TestDic:
    def test_point_mass_posterior(self):
        y = np.array([0.3, -1.2, 0.8, 2.0])
        ll = np.tile(norm.logpdf(y, loc=0.5)[:, None], (1, 200))
        table = PointwiseLikelihoodTable(ll, norm.logpdf(y, loc=0.5))
        with pytest.warns(UserWarning, match="degenerate"):
            val, p_d, d_bar = dic(table)
        assert p_d == pytest.approx(0.0, abs=1e-10)
        assert val == pytest.approx(d_bar, rel=1e-12)
        assert d_bar == pytest.approx(-2 * norm.logpdf(y, loc=0.5).sum(), rel=1e-12)

    def test_effective_parameters_conjugate_oracle(self):
        # one mean parameter under a weak prior: p_D should be ~1
        rng = np.random.default_rng(5)
        y = rng.normal(loc=1.0, size=40)
        table, _, _ = normal_mean_table(y, n_samples=5000, seed=1)
        _, p_d, _ = dic(table)
        assert p_d == pytest.approx(1.0, rel=0.15)

    def test_requires_enough_samples(self):
        table = PointwiseLikelihoodTable(np.zeros((3, 50)), np.zeros(3))
        with pytest.raises(ValueError, match="samples"):
            dic(table)


class TestWaic:
    def test_zero_variance_penalty(self):
        y = np.array([0.1, 0.4])
        ll = np.tile(norm.logpdf(y, loc=0.0)[:, None], (1, 150))
        table = PointwiseLikelihoodTable(ll, norm.logpdf(y, loc=0.0))
        val, p_waic = waic(table)
        assert p_waic == pytest.approx(0.0, abs=1e-12)
        assert val == pytest.approx(-2 * norm.logpdf(y, loc=0.0).sum(), rel=1e-12)

    def test_matches_two_pass_brute_force(self):
        # independent re-implementation with explicit loops
        rng = np.random.default_rng(9)
        ll = rng.normal(loc=-2.0, scale=0.8, size=(12, 300))
        table = PointwiseLikelihoodTable(ll, ll.mean(axis=1))
        val, p_waic = waic(table)
        lppd = 0.0
        pen = 0.0
        for i in range(ll.shape[0]):
            lppd += math.log(np.mean([math.exp(v) for v in ll[i]]))
            m = ll[i].mean()
            pen += sum((v - m) ** 2 for v in ll[i]) / (ll.shape[1] - 1)
        oracle = -2.0 * (lppd - pen)
        assert val == pytest.approx(oracle, abs=1e-10)
        assert p_waic == pytest.approx(pen, abs=1e-10)


class TestLpml:
    def test_point_mass_cpo_is_plugin_density(self):
        y = np.array([0.2, 1.4, -0.6])
        ll = np.tile(norm.logpdf(y, loc=0.3)[:, None], (1, 120))
        table = PointwiseLikelihoodTable(ll, norm.logpdf(y, loc=0.3))
        total, log_cpo, unreliable = lpml(table)
        np.testing.assert_allclose(log_cpo, norm.logpdf(y, loc=0.3), atol=1e-12)
        assert total == pytest.approx(norm.logpdf(y, loc=0.3).sum(), rel=1e-12)
        assert not unreliable.any()

    def test_exact_loo_oracle_conjugate(self):
        # brute-force leave-one-out predictive density on a 5-observation toy
        y = np.array([0.5, -0.3, 1.1, 0.2, -0.8])
        prior_var = 100.0
        table, _, _ = normal_mean_table(y, prior_var, n_samples=20000, seed=2)
        _, log_cpo, _ = lpml(table)
        for i in range(5):
            rest = np.delete(y, i)
            v_rest = 1.0 / (rest.size + 1.0 / prior_var)
            m_rest = v_rest * rest.sum()
            exact = norm.pdf(y[i], loc=m_rest, scale=math.sqrt(1.0 + v_rest))
            assert math.exp(log_cpo[i]) == pytest.approx(exact, rel=0.05)

    def test_unreliable_rows_flagged(self):
        rng = np.random.default_rng(3)
        ll = rng.normal(size=(2, 200))
        ll[1] = -1.0
        ll[1, 0] = -60.0  # one dominant importance weight
        table = PointwiseLikelihoodTable(ll, ll.mean(axis=1))
        _, _, unreliable = lpml(table)
        assert bool(unreliable[1])


class TestInvariances:
    def test_reordering_rows_and_samples(self):
        rng = np.random.default_rng(11)
        ll = rng.normal(loc=-1.5, size=(9, 140))
        at_mean = ll.mean(axis=1)
        base = PointwiseLikelihoodTable(ll, at_mean)
        rows = rng.permutation(9)
        cols = rng.permutation(140)
        shuffled = PointwiseLikelihoodTable(ll[rows][:, cols], at_mean[rows])
        assert dic(shuffled)[0] == pytest.approx(dic(base)[0], rel=1e-12)
        assert waic(shuffled)[0] == pytest.approx(waic(base)[0], rel=1e-12)
        assert lpml(shuffled)[0] == pytest.approx(lpml(base)[0], rel=1e-12)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            PointwiseLikelihoodTable(np.array([[np.inf, 0.0]]), np.array([0.0]))
        with pytest.raises(ValueError):
            PointwiseLikelihoodTable(np.zeros((2, 10)), np.zeros(3))


class TestPointwiseTable:
    def test_structure_and_scores(self):
        from tests.test_inference import UNIT_PC, unit_square_data
        from lgcpthin.inference import ModelSpec, fit

        pattern, covs, _ = unit_square_data(seed=31, n=10)
        spec = ModelSpec(covariate_names=("x1",), use_vse=False, pc_prior=UNIT_PC)
        result = fit(pattern, covs, None, spec)
        table = pointwise_table(result, n_samples=150, seed=0)
        assert table.log_lik.shape == (100 + len(pattern), 150)
        # node rows are log Poisson-void probabilities, hence nonpositive
        assert np.all(table.log_lik[:100] <= 0)
        scores = assess.score(result, n_samples=150, seed=0)
        assert result.scores is scores
        assert set(scores) >= {"dic", "waic", "lpml", "p_d", "p_waic"}
        assert np.isfinite(list(scores.values())[:6]).all()

    def test_deterministic_given_seed(self):
        from tests.test_inference import UNIT_PC, unit_square_data
        from lgcpthin.inference import ModelSpec, fit

        pattern, covs, _ = unit_square_data(seed=33, n=8)
        spec = ModelSpec(covariate_names=("x1",), use_vse=False, pc_prior=UNIT_PC)
        result = fit(pattern, covs, None, spec)
        t1 = pointwise_table(result, n_samples=120, seed=42)
        t2 = pointwise_table(result, n_samples=120, seed=42)
        np.testing.assert_array_equal(t1.log_lik, t2.log_lik)

    def test_too_few_samples_rejected_before_drawing(self, monkeypatch):
        from tests.test_inference import UNIT_PC, unit_square_data
        from lgcpthin.inference import ModelSpec, _ModelContext, fit

        pattern, covs, _ = unit_square_data(seed=5, n=8)
        result = fit(pattern, covs, None, ModelSpec(covariate_names=("x1",), pc_prior=UNIT_PC))
        calls = []
        hessian_at = _ModelContext.hessian_at

        def spy(self, v, u):
            calls.append(v)
            return hessian_at(self, v, u)

        monkeypatch.setattr(_ModelContext, "hessian_at", spy)
        for n_samples in (50, 0):
            with pytest.raises(ValueError, match="need at least 100 posterior samples"):
                assess.score(result, n_samples=n_samples)
        assert calls == []
