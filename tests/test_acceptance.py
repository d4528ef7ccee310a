"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

The simulation-study criteria (6, 7, 8) share a single 20-replicate run over
unthinned, medium (~37% removal), and heavy (~49% removal) scenarios;
criterion 9 adds a replicate-paired run with the informative thinning-rate
prior.  Run with ``pytest -v`` (add ``-s`` to see the summary lines as they
happen).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lgcpthin.geo import (
    Ecdf,
    Grid,
    PointPattern,
    RasterGrid,
    RoadNetwork,
    distances_to_roads,
    ks_two_sample,
)
from lgcpthin.grf import MaternParams, PcPriorSpec, matern_cov, pc_prior_logdensity, sample_matern_field
from lgcpthin.inference import (
    ModelSpec,
    _ModelContext,
    fit,
    predict_intensity,
)
from lgcpthin.pointprocess import (
    IntegrationScheme,
    ThinningConfig,
    loglik_lgcp,
    make_log_intensity,
    q_probability,
    simulate_lgcp,
    thin,
)
from lgcpthin.simstudy import ScenarioConfig, run_scenarios, synthetic_assets
from mcmc_oracle import ChainConfig, gelman_rubin, mcmc_fit


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Shared heavy runs
# ---------------------------------------------------------------------------

STUDY_SEED = 2024


HEAVY = 2  # scenario index of the ~49%-removal level in the shared study


@pytest.fixture(scope="session")
def study():
    """Criteria 6-8: 20 replicates at no, medium (~37%), and heavy (~49%) thinning."""
    config = ScenarioConfig(zeta_levels=(0.0, 8.0, 16.0), replicates=20, seed=STUDY_SEED)
    return run_scenarios(config)


@pytest.fixture(scope="session")
def informative_study():
    """Criterion 9: same replicates at the heavy level, informative prior."""
    config = ScenarioConfig(zeta_levels=(16.0,), replicates=20, seed=STUDY_SEED,
                            theta_prior_preset="informative",
                            models=("vse",), score_fits=False)
    return run_scenarios(config)


def rows_of(result, scenario_index, model, parameter):
    return [r for r in result.rows
            if (r["scenario_index"], r["model"], r["parameter"])
            == (scenario_index, model, parameter)]


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

class TestCriterion01ThinningExactness:
    def test_half_normal_values(self):
        ok_one = all(q_probability(0.0, z) == 1.0 for z in (0.0, 0.5, 1.0, 8.0, 16.0, 1e4))
        q3 = q_probability(3.0, 0.86)
        ok_far = 0.019 <= q3 <= 0.023
        check(1, "thinning function exactness", ok_one and ok_far,
              f"q(0,.)=1: {ok_one}, q(3, 0.86)={q3:.4f}")


class TestCriterion02GmrfMaternAgreement:
    def test_empirical_correlations_match(self):
        grid = Grid(0.0, 0.0, 1.0 / 32, 32, 32)
        params = MaternParams(sigma=1.0, rho=0.4)
        fields = sample_matern_field(grid, params, seed=101, size=2000)
        flat = fields.reshape(2000, -1)
        centered = (flat - flat.mean(axis=0)).reshape(2000, 32, 32)
        sd = flat.std(axis=0, ddof=1).reshape(32, 32)
        worst = 0.0
        for dx, dy in ((1, 0), (0, 1), (2, 2), (4, 0), (0, 6), (8, 8), (12, 0), (0, 12), (9, 9)):
            lag = math.hypot(dx, dy) * grid.cell_size
            if lag > params.rho + 1e-12:
                continue
            a = centered[:, : 32 - dy, : 32 - dx]
            b = centered[:, dy:, dx:]
            den = sd[: 32 - dy, : 32 - dx] * sd[dy:, dx:]
            emp = float(((a * b).mean(axis=0) * 2000 / 1999 / den).mean())
            theory = matern_cov(lag, params)  # sigma = 1 so this is correlation
            worst = max(worst, abs(emp - theory))
        check(2, "lattice field matches Matern correlation", worst < 0.05,
              f"max |empirical - analytic| = {worst:.4f} (tol 0.05)")


class TestCriterion03PcPriorCalibration:
    def test_tail_probabilities(self):
        spec = PcPriorSpec(rho0=15.0, alpha_rho=0.05, sigma0=1.0, alpha_sigma=0.05)

        def rho_density(r):
            lam = spec.lambda_rho
            return math.exp(math.log(lam) - 2.0 * math.log(r) - lam / r)

        p_rho, _ = quad(rho_density, 1e-12, 15.0, limit=200)
        # consistency with the joint implementation at a reference sigma
        joint = pc_prior_logdensity(10.0, 1.0, spec)
        expect = math.log(rho_density(10.0)) + math.log(spec.lambda_sigma) - spec.lambda_sigma
        p_sigma = math.exp(-spec.lambda_sigma * spec.sigma0)
        ok = (abs(p_rho - 0.05) < 1e-4 and abs(p_sigma - 0.05) < 1e-12
              and abs(joint - expect) < 1e-12)
        check(3, "PC prior tail calibration", ok,
              f"P(range<15)={p_rho:.6f}, P(sd>1)={p_sigma:.14f}")


class TestCriterion04LikelihoodApproximationOrder:
    def test_midpoint_refinement(self):
        def eta(x, y):
            return 0.9 * np.sin(2.3 * x) + 0.6 * np.cos(1.7 * y) + 0.3 * x * y

        pattern = PointPattern(np.array([[0.31, 0.47], [0.62, 0.18], [0.85, 0.77]]),
                               (0, 0, 1, 1))
        eta_p = eta(pattern.points[:, 0], pattern.points[:, 1])
        values = []
        for n in (8, 16, 32, 64, 128):
            grid = Grid(0.0, 0.0, 1.0 / n, n, n)
            scheme = IntegrationScheme.from_grid(grid)
            eta_n = eta(scheme.nodes[:, 0], scheme.nodes[:, 1])
            values.append(loglik_lgcp(pattern, eta_n, eta_p, scheme))
        diffs = np.abs(np.diff(values))
        ratios = diffs[:-1] / diffs[1:]
        check(4, "midpoint likelihood is second order", bool(np.all(ratios >= 3.0)),
              f"shrink ratios per halving: {np.round(ratios, 2)} (need >= 3)")


@pytest.mark.slow
class TestCriterion05LaplaceVsMcmc:
    def test_beta_means_match_mcmc(self):
        n = 20
        grid = Grid(0.0, 0.0, 1.0 / n, n, n)
        centers = grid.cell_centers()
        vals = np.cos(4.0 * centers[:, 0]) + 0.6 * np.sin(3.0 * centers[:, 1])
        vals = (vals - vals.mean()) / vals.std()
        cov = RasterGrid(grid, vals.reshape(n, n))
        field = sample_matern_field(grid, MaternParams(sigma=0.10, rho=0.15), seed=71)
        surface = make_log_intensity({"x1": cov}, 5.9, {"x1": 0.8}, field)
        pattern = simulate_lgcp(surface, 72)
        spec = ModelSpec(
            covariate_names=("x1",), use_vse=False,
            pc_prior=PcPriorSpec(rho0=0.05, alpha_rho=0.05, sigma0=1.0, alpha_sigma=0.05))
        laplace = fit(pattern, {"x1": cov}, None, spec)
        mcmc = mcmc_fit(pattern, {"x1": cov}, None, spec,
                        ChainConfig(n_iter=8000, n_burn=3000), chains=4, seed=77)
        means = mcmc.beta_mean()
        gaps = []
        rhats = []
        for j, name in enumerate(("beta0", "x1")):
            gaps.append(abs(means[j] - laplace.summaries[name]["mean"])
                        / laplace.summaries[name]["sd"])
            rhats.append(gelman_rubin(mcmc.beta[:, :, j]))
        ok = all(g < 0.1 for g in gaps) and all(r < 1.1 for r in rhats)
        check(5, "fit matches 4-chain MCMC on the toy", ok,
              f"gaps (posterior sd units) = {np.round(gaps, 3)}, r-hat = {np.round(rhats, 3)}")


def bootstrap_set_fraction(rng, condition, n_sets=200):
    """Fraction of resampled replicate sets (same size) satisfying condition."""
    hits = 0
    for _ in range(n_sets):
        hits += bool(condition(rng))
    return hits / n_sets


@pytest.mark.slow
class TestCriterion06BiasReduction:
    def test_heavy_thinning_bias_pattern(self, study):
        naive = rows_of(study, HEAVY, "naive", "beta1")
        vse = rows_of(study, HEAVY, "vse", "beta1")
        assert len(naive) == len(vse) == 20
        nb = np.array([r["bias"] for r in naive])
        vb = np.array([r["bias"] for r in vse])
        rng = np.random.default_rng(8)

        def set_condition(rng):
            idx = rng.integers(0, 20, size=20)
            return (np.mean(np.abs(vb[idx])) < np.mean(np.abs(nb[idx]))
                    and np.mean(nb[idx]) > 0)

        frac = bootstrap_set_fraction(rng, set_condition)
        # intercept underestimation deepens as thinning intensifies
        b0 = [float(np.mean([r["bias"] for r in rows_of(study, s, "naive", "beta0")]))
              for s in (1, HEAVY)]
        removal = study.expected_removal[HEAVY]
        ok = (frac >= 0.8 and b0[1] < b0[0] < 0 and 0.45 <= removal <= 0.55)
        check(6, "thinning-bias reduction by the corrected model", ok,
              f"replicate-set win fraction={frac:.2f} (need >=0.8), "
              f"naive bias(beta1)={nb.mean():+.3f}, vse={vb.mean():+.3f}, "
              f"naive bias(beta0) trend {b0[0]:+.3f} -> {b0[1]:+.3f}, "
              f"removal={removal:.2f}")


@pytest.mark.slow
class TestCriterion07CoverageDegradation:
    def test_coverage_pattern(self, study):
        cov = {}
        for s_idx in (0, HEAVY):
            for model in ("naive", "vse"):
                rows = rows_of(study, s_idx, model, "beta1")
                cov[(s_idx, model)] = float(np.mean([r["covered"] for r in rows]))
        drop = cov[(0, "naive")] - cov[(HEAVY, "naive")]
        ok = (drop >= 0.3 and cov[(HEAVY, "vse")] >= cov[(HEAVY, "naive")]
              and cov[(0, "naive")] >= 0.6)
        check(7, "naive coverage collapses under thinning", ok,
              f"naive beta1 coverage {cov[(0, 'naive')]:.2f} -> {cov[(HEAVY, 'naive')]:.2f} "
              f"(drop {drop:.2f}, need >=0.3); vse at heavy {cov[(HEAVY, 'vse')]:.2f}")


@pytest.mark.slow
class TestCriterion08ModelSelection:
    def test_criteria_prefer_corrected_model(self, study):
        def pairs(s_idx):
            out = []
            for rep in range(20):
                n = next(r for r in study.score_rows
                         if (r["scenario_index"], r["replicate"], r["model"]) == (s_idx, rep, "naive"))
                v = next(r for r in study.score_rows
                         if (r["scenario_index"], r["replicate"], r["model"]) == (s_idx, rep, "vse"))
                out.append((n, v))
            return out

        heavy = pairs(HEAVY)
        dic_frac = np.mean([v["dic"] < n["dic"] for n, v in heavy])
        waic_frac = np.mean([v["waic"] < n["waic"] for n, v in heavy])
        lpml_frac = np.mean([v["lpml"] > n["lpml"] for n, v in heavy])

        # at zero thinning the two models should agree to Monte Carlo error
        agree = True
        details = []
        for key, better_low in (("dic", True), ("waic", True), ("lpml", False)):
            deltas = np.array([v[key] - n[key] for n, v in pairs(0)])
            scale = np.mean([abs(n[key]) for n, _ in pairs(0)])
            sem = deltas.std(ddof=1) / math.sqrt(deltas.size)
            tol = max(3.0 * sem, 0.01 * scale)
            agree &= abs(deltas.mean()) <= tol
            details.append(f"{key}: |mean d|={abs(deltas.mean()):.1f}<=tol {tol:.1f}")
        ok = dic_frac >= 0.8 and waic_frac >= 0.8 and lpml_frac >= 0.7 and agree
        check(8, "criteria prefer the corrected model under heavy thinning", ok,
              f"DIC {dic_frac:.2f} WAIC {waic_frac:.2f} (need >=0.8), "
              f"LPML {lpml_frac:.2f} (need >=0.7); zero-thinning agreement: {'; '.join(details)}")


@pytest.mark.slow
class TestCriterion09InformativePrior:
    def test_informative_prior_reduces_zeta_bias(self, study, informative_study):
        default_rows = rows_of(study, HEAVY, "vse", "zeta")
        inf_rows = rows_of(informative_study, 0, "vse", "zeta")
        assert len(default_rows) == len(inf_rows) == 20
        wins = 0
        for rep in range(20):
            d = next(r for r in default_rows if r["replicate"] == rep)
            i = next(r for r in inf_rows if r["replicate"] == rep)
            wins += abs(i["bias"]) < abs(d["bias"])
        frac = wins / 20
        check(9, "informative thinning prior reduces its bias", frac >= 0.7,
              f"paired win fraction = {frac:.2f} (need >= 0.7)")


class TestCriterion10ExploratoryStatistics:
    ROADS = RoadNetwork((
        np.array([[0.0, 2.0], [10.0, 2.5]]),
        np.array([[3.0, 0.0], [3.5, 10.0]]),
        np.array([[0.0, 7.0], [10.0, 6.5]]),
    ))

    def test_ks_and_calibration(self):
        # exact agreement with a brute-force pooled supremum
        rng = np.random.default_rng(2)
        a = rng.gamma(2.0, size=80)
        b = rng.gamma(2.4, size=120)
        d_stat, _ = ks_two_sample(a, b)
        fa, fb = Ecdf(a), Ecdf(b)
        brute = max(abs(fa(x) - fb(x)) for x in np.concatenate([a, b]))
        exact = d_stat == brute

        # null calibration: uniform points against a dense reference grid
        grid = Grid(0.0, 0.0, 10.0 / 160, 160, 160)
        ref = distances_to_roads(grid.cell_centers(), self.ROADS)
        rejections = 0
        for seed in range(200):
            pts = np.random.default_rng(10_000 + seed).uniform(0, 10, size=(300, 2))
            _, p = ks_two_sample(distances_to_roads(pts, self.ROADS), ref)
            rejections += p < 0.05
        rate = rejections / 200

        # a heavily thinned sample is detectably road-biased
        surface = make_log_intensity(
            {"c": RasterGrid(grid, np.zeros((160, 160)))}, math.log(8.0), {"c": 0.0})
        pattern = simulate_lgcp(surface, 5)
        thinned = thin(pattern, ThinningConfig(3.0), self.ROADS, 6)
        _, p_thinned = ks_two_sample(distances_to_roads(thinned.points, self.ROADS), ref)

        ok = exact and 0.03 <= rate <= 0.07 and p_thinned < 0.01
        check(10, "exploratory statistics correctness", ok,
              f"pooled-sup exact: {exact}; null reject rate={rate:.3f} "
              f"(need 0.05 +- 0.02); thinned-vs-grid p={p_thinned:.2e}")


class TestCriterion11DegeneracyIdentity:
    def test_vse_with_unit_access_equals_naive(self):
        from tests.test_inference import UNIT_PC, unit_square_data

        pattern, covs, _ = unit_square_data(seed=41, n=14)
        roads = RoadNetwork((np.array([[0.0, 0.5], [1.0, 0.5]]),))
        naive = fit(pattern, covs, None,
                    ModelSpec(covariate_names=("x1",), use_vse=False, pc_prior=UNIT_PC))
        vse0 = fit(pattern, covs, roads,
                   ModelSpec(covariate_names=("x1",), use_vse=True, zeta_fixed=0.0,
                             pc_prior=UNIT_PC))
        worst = 0.0
        for name in ("beta0", "x1"):
            for key in ("mean", "sd", "q025", "q50", "q975"):
                worst = max(worst, abs(vse0.summaries[name][key]
                                       - naive.summaries[name][key]))
        check(11, "unit access probability degenerates to the naive model",
              worst < 1e-8, f"max |difference| = {worst:.2e} (tol 1e-8)")


class TestCriterion12GradientCheck:
    def test_penalized_objective_gradient(self):
        from tests.test_inference import UNIT_PC, unit_square_data

        pattern, covs, _ = unit_square_data(seed=43, n=10)
        roads = RoadNetwork((np.array([[0.0, 0.5], [1.0, 0.5]]),
                             np.array([[0.4, 0.0], [0.4, 1.0]])))
        spec = ModelSpec(covariate_names=("x1",), use_vse=True, pc_prior=UNIT_PC)
        ctx = _ModelContext(pattern, covs, roads, spec)
        q_field = ctx.field_precision(math.log(0.25), math.log(0.7))
        offsets = ctx.offsets(1.5)

        def objective(u):
            val, _ = ctx.prior_quad_and_grad(u, q_field)
            return ctx.loglik(u, offsets) + val

        rng = np.random.default_rng(3)
        u = 0.4 * rng.standard_normal(ctx.n_field + ctx.n_coef)
        _, prior_grad = ctx.prior_quad_and_grad(u, q_field)
        grad = ctx.loglik_grad(u, offsets) + prior_grad
        h = 1e-5
        worst = 0.0
        for c in rng.choice(u.size, size=20, replace=False):
            e = np.zeros(u.size)
            e[c] = h
            fd = (objective(u + e) - objective(u - e)) / (2 * h)
            denom = max(abs(fd), 1e-8)
            worst = max(worst, abs(grad[c] - fd) / denom)
        check(12, "analytic gradient matches finite differences",
              worst < 1e-5, f"max relative error = {worst:.2e} (tol 1e-5)")


@pytest.mark.slow
class TestSupplementaryPredictions:
    def test_corrected_model_raises_intensity_in_remote_zones(self, study):
        """Under heavy thinning the corrected model predicts more intensity
        where access is poor; the naive model writes the loss off as absence."""
        config = ScenarioConfig(zeta_levels=(0.0, 8.0, 16.0), replicates=20, seed=STUDY_SEED)
        assets = synthetic_assets(config)
        scale = study.zeta_scale
        zeta = 16.0 * scale
        rng = np.random.default_rng(404)
        field = sample_matern_field(
            assets.sim_grid, MaternParams(sigma=config.true_sigma, rho=config.true_rho), rng)
        surface = make_log_intensity(
            assets.sim_covariates, config.true_beta0, {"x1": config.true_beta1}, field)
        pattern = thin(simulate_lgcp(surface, rng), ThinningConfig(zeta), assets.roads, rng)
        fits = {}
        for model in ("naive", "vse"):
            spec = ModelSpec(covariate_names=("x1",), use_vse=(model == "vse"),
                             pc_prior=config.pc_prior)
            fits[model] = fit(pattern, assets.covariates, assets.roads, spec)
        med_naive, _ = predict_intensity(fits["naive"], draws=1000, seed=1)
        med_vse, _ = predict_intensity(fits["vse"], draws=1000, seed=2)
        dist = assets.covariates["x1"].grid  # fit grid distances
        d = distances_to_roads(dist.cell_centers(), assets.roads)
        remote = d >= np.quantile(d, 0.75)
        diff = (med_vse.values.ravel() - med_naive.values.ravel())[remote].mean()
        assert diff > 0, f"mean log-intensity difference in remote cells = {diff:.3f}"
