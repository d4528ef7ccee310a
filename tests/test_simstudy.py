"""Simulation-study plumbing tests (statistical patterns live in acceptance)."""

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from lgcpthin import simstudy
from lgcpthin.errors import FitError
from lgcpthin.geo import PointPattern
from lgcpthin.inference import FitResult
from lgcpthin.simstudy import (
    TARGET_HEAVY_REMOVAL,
    ScenarioConfig,
    ScenarioResult,
    calibrate_zeta_scale,
    expected_removal,
    run_scenarios,
    synthetic_assets,
    synthetic_roads,
)

FAST = dict(zeta_levels=(0.0, 16.0), replicates=1, grid_n=12, domain_size=90.0,
            posterior_draws_per_fit=100)


@pytest.fixture(scope="module")
def spied_fast_run():
    """The fast study, run serially, and each draw_parameter call's name and
    draws in call order."""
    drawn = []
    draw_parameter = FitResult.draw_parameter

    def spy(self, name, rng, size):
        draws = draw_parameter(self, name, rng, size)
        drawn.append((name, draws))
        return draws

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FitResult, "draw_parameter", spy)
        return run_scenarios(ScenarioConfig(seed=5, **FAST)), drawn


@pytest.fixture(scope="module")
def fast_run(spied_fast_run):
    return spied_fast_run[0]


class TestSyntheticAssets:
    def test_covariate_distance_correlation(self):
        cfg = ScenarioConfig(seed=3)
        assets = synthetic_assets(cfg)
        assert assets.covariate_distance_corr == pytest.approx(-0.4, abs=0.1)
        vals = assets.covariates["x1"].values.ravel()
        assert vals.mean() == pytest.approx(0.0, abs=1e-12)
        assert vals.std() == pytest.approx(1.0, rel=1e-12)

    def test_roads_cover_domain(self):
        roads = synthetic_roads(150.0, 50.0, seed=1)
        segs = roads.segments()
        assert segs.shape[0] > 10
        allx = np.concatenate([segs[:, 0], segs[:, 2]])
        assert allx.min() >= 0.0 and allx.max() <= 150.0

    def test_deterministic(self):
        cfg = ScenarioConfig(seed=11)
        a = synthetic_assets(cfg)
        b = synthetic_assets(cfg)
        np.testing.assert_array_equal(a.covariates["x1"].values, b.covariates["x1"].values)


class TestCalibration:
    def test_heavy_level_hits_target_removal(self):
        cfg = ScenarioConfig(seed=3)
        assets = synthetic_assets(cfg)
        scale = calibrate_zeta_scale(assets, cfg)
        removed = expected_removal(scale * 16.0, assets, cfg)
        assert removed == pytest.approx(TARGET_HEAVY_REMOVAL, abs=1e-3)

    def test_removal_monotone_in_zeta(self):
        cfg = ScenarioConfig(seed=3)
        assets = synthetic_assets(cfg)
        removals = [expected_removal(z, assets, cfg) for z in (0.0, 0.01, 0.05, 0.2)]
        assert removals[0] == pytest.approx(0.0, abs=1e-12)
        assert all(a < b for a, b in zip(removals, removals[1:]))


class TestSelfTest:
    def test_bias_and_rmse_identically_zero(self):
        cfg = ScenarioConfig(seed=1, self_test=True, score_fits=False, **FAST)
        res = run_scenarios(cfg)
        assert res.rows  # plumbing produced rows
        assert all(r["bias"] == 0.0 for r in res.rows)
        assert all(r["rmse"] == 0.0 for r in res.rows)
        assert all(r["covered"] for r in res.rows)


class TestRunScenarios:
    def test_rows_complete_and_sane(self, fast_run):
        res = fast_run
        assert res.n_failed == 0
        params = {r["parameter"] for r in res.rows}
        assert params == {"beta0", "beta1", "rho", "sigma", "zeta"}
        naive_params = {r["parameter"] for r in res.rows if r["model"] == "naive"}
        assert "zeta" not in naive_params
        # per-replicate RMSE dominates |bias| (Cauchy-Schwarz)
        for r in res.rows:
            assert r["rmse"] >= abs(r["bias"]) - 1e-12

    def test_bias_rmse_recomputation_oracle(self, spied_fast_run):
        res, drawn = spied_fast_run
        truth = {"beta0": -4.25, "beta1": 0.82, "rho": 34.0,
                 "sigma": np.sqrt(0.7)}
        # rows sort by level, replicate, model and parameter: the order the draws were made in
        assert len(drawn) == len(res.rows)
        for r, (name, draws) in zip(res.rows, drawn):
            assert name == {"beta1": "x1"}.get(r["parameter"], r["parameter"])
            t = truth.get(r["parameter"], r["scenario"])
            assert r["bias"] == np.mean(draws - t)
            assert r["rmse"] == np.sqrt(np.mean((draws - t) ** 2))
            assert len(draws) == 100

    def test_coverage_recount_oracle(self, fast_run):
        res = fast_run
        truth = {"beta0": -4.25, "beta1": 0.82, "rho": 34.0,
                 "sigma": np.sqrt(0.7)}
        for entry in res.aggregate():
            sel = [r for r in res.rows
                   if (r["scenario_index"], r["model"], r["parameter"])
                   == (entry["scenario_index"], entry["model"], entry["parameter"])]
            recount = np.mean([
                r["ci_lo"] <= truth.get(r["parameter"], r["scenario"]) <= r["ci_hi"]
                for r in sel])
            assert entry["coverage"] == recount

    def test_infinite_intervals_cover(self):
        rows = [{"scenario_index": 0, "scenario": 0.0, "model": "naive",
                 "parameter": "beta1", "replicate": k, "bias": 0.1, "rmse": 0.2,
                 "covered": True, "ci_lo": -np.inf, "ci_hi": np.inf,
                 "ci_width": np.inf, "estimate": 0.8} for k in range(3)]
        res = ScenarioResult(rows, [], ScenarioConfig(), 1.0, (0.0,), (0.0,), 0, 3)
        assert res.aggregate()[0]["coverage"] == 1.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_reproducible_bit_identical(self, threads):
        cfg = ScenarioConfig(seed=9, score_fits=False, **FAST)
        a = run_scenarios(cfg)
        b = run_scenarios(replace(cfg, threads=threads))
        assert a.rows == b.rows
        assert a.zeta_scale == b.zeta_scale

    # a VSE fit on this seed runs to the edge of the hyper box (one fallback
    # node, log sigma near its bound of 6, sigma ~ 402, beta0 ~ 51) and its
    # score table overflows, so that fit fails, and 1 of 4 is more than 20 %;
    # ROADMAP lists the fault as an open item
    @pytest.mark.xfail(strict=True, raises=FitError,
                       reason="runaway VSE fit: its score table is not finite, and 1 of 4 fits "
                              "failed aborts the study")
    def test_study_geometry_seed_312_completes(self):
        result = run_scenarios(ScenarioConfig(seed=312, zeta_levels=(0.0, 16.0),
                                              replicates=1, grid_n=12, domain_size=90.0))
        assert result.n_failed == 0

    def test_outputs_roundtrip(self, fast_run, tmp_path):
        res = fast_run
        res.to_csv(tmp_path / "rows.csv")
        res.scores_to_csv(tmp_path / "scores.csv")
        lines = (tmp_path / "rows.csv").read_text().splitlines()
        assert len(lines) == len(res.rows) + 1
        md = res.to_markdown()
        assert md.count("|") > 20
        meta = res.metadata()
        assert meta["n_failed"] == 0
        assert len(meta["scenario_zetas"]) == 2


def _fits(rows) -> set:
    return {(r["scenario_index"], r["replicate"], r["model"]) for r in rows}


class TestFailedFits:
    """A fit that raises anywhere from the fit to its score, or whose pattern
    is too small, adds no row and counts under the 20 % rule."""

    @staticmethod
    def _fail_vse_score(monkeypatch, nth):
        score = simstudy.assess.score
        vse_calls = []

        def spy(result, *args, **kwargs):
            if result.spec.use_vse:
                vse_calls.append(result)
                if len(vse_calls) == nth:
                    raise ValueError("table entries must be finite")
            return score(result, *args, **kwargs)

        monkeypatch.setattr(simstudy.assess, "score", spy)

    def test_score_failure_counts_as_failed_fit(self, monkeypatch, fast_run):
        self._fail_vse_score(monkeypatch, 3)  # the VSE fit at level index 1, replicate 0
        res = run_scenarios(ScenarioConfig(seed=5, **{**FAST, "replicates": 2}))
        assert (res.n_failed, res.n_fits) == (1, 8)
        failed = (1, 0, "vse")
        every = {(s, rep, m) for s in (0, 1) for rep in (0, 1) for m in ("naive", "vse")}
        assert _fits(res.rows) == _fits(res.score_rows) == every - {failed}
        # replicate 0 draws from the same seeds as the one-replicate study
        assert [r for r in res.rows if r["replicate"] == 0] == [
            r for r in fast_run.rows if (r["scenario_index"], r["replicate"], r["model"]) != failed]

    def test_abort_names_each_failed_fit(self, monkeypatch):
        self._fail_vse_score(monkeypatch, 2)  # the VSE fit at level index 1, replicate 0
        with pytest.raises(FitError, match="^1/4 fits failed; aborting the study: vse fit at level "
                                           "index 1, replicate 0: table entries must be finite$"):
            run_scenarios(ScenarioConfig(seed=5, **FAST))

    @pytest.mark.parametrize("self_test", [False, True], ids=["fit", "self-test"])
    def test_small_pattern_fails_each_model(self, monkeypatch, self_test):
        simulate = simstudy.simulate_lgcp
        patterns = []

        def first_has_nine_points(surface, rng):
            pattern = simulate(surface, rng)
            patterns.append(pattern)
            return PointPattern(pattern.points[:9], pattern.domain) if len(patterns) == 1 else pattern

        monkeypatch.setattr(simstudy, "simulate_lgcp", first_has_nine_points)
        reason = "fit at level index 0, replicate 0: the pattern has 9 points, fewer than 10"
        with pytest.raises(FitError, match=f"^2/4 fits failed; aborting the study: naive {reason}; "
                                           f"vse {reason}$"):
            run_scenarios(ScenarioConfig(seed=5, self_test=self_test, **FAST))

    @pytest.mark.slow
    def test_runaway_vse_fit_counts_as_failed(self):
        # seed 312's runaway VSE fit (the xfail above) fails alone among 12
        res = run_scenarios(ScenarioConfig(seed=312, **{**FAST, "replicates": 3}))
        assert (res.n_failed, res.n_fits) == (1, 12)
        assert (1, 0, "vse") not in _fits(res.rows) | _fits(res.score_rows)
        assert len(_fits(res.rows)) == len(_fits(res.score_rows)) == 11


@pytest.mark.skipif(not simstudy._FORK_WORKERS, reason="replicates run serially here")
class TestWorkers:
    """threads=2 forks the workers after the monkeypatches, so they inherit them."""

    @pytest.fixture
    def simulating_pids(self, monkeypatch, tmp_path):
        """Process ids that simulated a pattern, from this process and its forks."""
        log = tmp_path / "pids"
        simulate = simstudy.simulate_lgcp

        def spy(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return simulate(*args, **kwargs)

        monkeypatch.setattr(simstudy, "simulate_lgcp", spy)
        return lambda: {int(pid) for pid in log.read_text().split()}

    def test_replicates_run_in_workers_that_end_with_the_call(self, simulating_pids):
        run_scenarios(ScenarioConfig(seed=5, threads=2, self_test=True, **FAST))
        assert simulating_pids() and os.getpid() not in simulating_pids()
        assert multiprocessing.active_children() == []

    def test_fit_errors_in_every_worker_abort_the_study(self, monkeypatch, simulating_pids):
        def failing_fit(*args, **kwargs):
            raise FitError("no mode")

        monkeypatch.setattr(simstudy, "fit", failing_fit)
        with pytest.raises(FitError, match="fits failed; aborting the study"):
            run_scenarios(ScenarioConfig(seed=5, threads=2, **FAST))
        assert os.getpid() not in simulating_pids()
        assert multiprocessing.active_children() == []

    def test_other_worker_errors_reach_the_caller(self, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise RuntimeError(f"broken in {os.getpid()}")

        monkeypatch.setattr(simstudy, "fit", broken_fit)
        with pytest.raises(RuntimeError, match="broken in") as info:
            run_scenarios(ScenarioConfig(seed=5, threads=2, **FAST))
        assert str(info.value) != f"broken in {os.getpid()}"
        assert multiprocessing.active_children() == []


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(replicates=0)
        for levels in ((-1.0,), (), (float("nan"),), (0.0, float("inf"))):
            with pytest.raises(ValueError, match="zeta_levels"):
                ScenarioConfig(zeta_levels=levels)
        for precision in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="informative_precision"):
                ScenarioConfig(informative_precision=precision)
        for mean in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="informative_mean"):
                ScenarioConfig(informative_mean=mean)
        with pytest.raises(ValueError):
            ScenarioConfig(theta_prior_preset="vague")
        for level in (0.0, 1.0, 1.5, -0.5, float("nan")):
            with pytest.raises(ValueError, match="nominal_level"):
                ScenarioConfig(nominal_level=level)
        for draws in (0, -1):
            with pytest.raises(ValueError, match="posterior_draws_per_fit"):
                ScenarioConfig(posterior_draws_per_fit=draws)
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads"):
                ScenarioConfig(threads=threads)
        for grid_n in (1, 0, -2):
            with pytest.raises(ValueError, match=f"grid_n must be at least 2, got {grid_n}"):
                ScenarioConfig(grid_n=grid_n)
        for name in ("domain_size", "road_spacing"):
            for value in (0.0, -1.0, float("inf"), float("nan")):
                with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                    ScenarioConfig(**{name: value})

    def test_rejects_informative_mean_with_default_preset(self):
        # the default preset fits ModelSpec.theta_prior, whatever the mean says
        with pytest.raises(ValueError, match="informative_mean is read only by the 'informative'"):
            ScenarioConfig(informative_mean=2.0)
        assert ScenarioConfig(informative_mean=2.0, theta_prior_preset="informative")

    @pytest.mark.parametrize("models", [(), ("VSE",), ("naive", "glm"), ("naive", "naive")])
    def test_rejects_unknown_models(self, models):
        # any name but "vse" would fit the naive model under that name, and a
        # repeated name would fit its model twice per replicate
        with pytest.raises(ValueError, match=r"models must be one or more of \('naive', 'vse'\)"):
            ScenarioConfig(models=models)

    def test_truth_is_a_constant(self):
        assert ScenarioConfig().true_beta1 == 0.82
        with pytest.raises(TypeError):
            ScenarioConfig(true_beta1=0.5)
