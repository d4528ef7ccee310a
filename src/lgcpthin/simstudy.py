"""Simulation-study orchestration: simulate, thin, fit both models, tabulate.

The default synthetic domain is a region-sized square (kilometer units) with
a generated connected road network and one smooth covariate built to be
negatively correlated with road distance, so that ignoring accessibility
biases the covariate effect upward.  Thinning levels are rescaled so that the
heaviest level removes a target fraction of points on this geometry; the
scale factor is reported in the result metadata.

Per replicate and thinning level the study simulates a pattern, thins it,
fits the naive and VSE models, draws posterior realizations of every
parameter, and records bias ``mean_j(draw_j - truth)``, RMSE
``sqrt(mean_j (draw_j - truth)^2)``, the equal-tailed credible interval, and
whether it covers the truth.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from lgcpthin import assess
from lgcpthin.errors import FitError, LgcpThinError
from lgcpthin.geo import Grid, RasterGrid, RoadNetwork, distance_raster, pearson_corr, write_csv
from lgcpthin.grf import MaternParams, PcPriorSpec, sample_matern_field
from lgcpthin.inference import ModelSpec, NormalPrior, fit
from lgcpthin.pointprocess import ThinningConfig, make_log_intensity, q_probability, simulate_lgcp, thin

COVARIATE_DISTANCE_CORR = -0.4  # built correlation of the covariate with road distance
TARGET_HEAVY_REMOVAL = 0.49     # fraction of points the heaviest thinning level removes
THETA_PRIOR_PRESETS = ("default", "informative")  # theta priors a study can fit with
STUDY_MODELS = ("naive", "vse")                   # models a study can fit

# Workers are forked, so they start from the parent's imports and set-up.
# Windows has no fork and macOS's system libraries are not fork-safe, so
# there the replicates run serially whatever ``threads`` is.
_FORK_WORKERS = "fork" in multiprocessing.get_all_start_methods() and sys.platform != "darwin"


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of one simulation study run; the ``true_*`` values are fixed by the design."""

    zeta_levels: tuple[float, ...] = (0.0, 1.0, 8.0, 16.0)
    replicates: int = 20
    true_beta0: ClassVar[float] = -4.25
    true_beta1: ClassVar[float] = 0.82
    true_rho: ClassVar[float] = 34.0
    true_sigma: ClassVar[float] = math.sqrt(0.7)
    posterior_draws_per_fit: int = 100
    theta_prior_preset: str = "default"        # one of THETA_PRIOR_PRESETS
    informative_mean: float | None = None      # None: log of the scenario's zeta
    informative_precision: float = 10.0
    seed: int = 0
    nominal_level: float = 0.95
    domain_size: float = 150.0
    grid_n: int = 20
    road_spacing: float = 50.0
    pc_prior: PcPriorSpec = PcPriorSpec()
    models: tuple[str, ...] = STUDY_MODELS      # a non-empty selection from STUDY_MODELS
    self_test: bool = False
    score_fits: bool = True
    threads: int = 1                           # worker processes for the replicates

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if not self.zeta_levels or not all(math.isfinite(z) and z >= 0 for z in self.zeta_levels):
            raise ValueError(f"zeta_levels must be one or more nonnegative finite values, got {self.zeta_levels}")
        if self.informative_mean is not None and not math.isfinite(self.informative_mean):
            raise ValueError(f"informative_mean must be finite, got {self.informative_mean}")
        if not (math.isfinite(self.informative_precision) and self.informative_precision > 0):
            raise ValueError(f"informative_precision must be positive and finite, got {self.informative_precision}")
        if self.theta_prior_preset not in THETA_PRIOR_PRESETS:
            raise ValueError(f"theta_prior_preset must be one of {THETA_PRIOR_PRESETS}, "
                             f"got {self.theta_prior_preset!r}")
        if self.informative_mean is not None and self.theta_prior_preset != "informative":
            raise ValueError(f"informative_mean is read only by the 'informative' theta_prior_preset, "
                             f"got {self.informative_mean} with {self.theta_prior_preset!r}")
        if not self.models or not set(self.models) <= set(STUDY_MODELS) \
                or len(set(self.models)) < len(self.models):
            raise ValueError(f"models must be one or more of {STUDY_MODELS}, each once, "
                             f"got {self.models!r}")
        if self.grid_n < 2:
            raise ValueError(f"grid_n must be at least 2, got {self.grid_n}")
        for name in ("domain_size", "road_spacing"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.nominal_level < 1.0:
            raise ValueError(f"nominal_level must be in (0, 1), got {self.nominal_level}")
        if self.posterior_draws_per_fit < 1:
            raise ValueError(f"posterior_draws_per_fit must be at least 1, got {self.posterior_draws_per_fit}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")


@dataclass(frozen=True)
class DomainAssets:
    """Covariate raster, road network, and derived quantities for one geometry.

    Simulation and fits share one grid, which keeps the study internally
    consistent with the fitted discretization; ``sim_grid`` and
    ``sim_covariates`` name it from the simulation's side.
    """

    grid: Grid
    covariates: dict[str, RasterGrid]
    roads: RoadNetwork
    covariate_name: str
    distance_values: np.ndarray  # road distance per cell, row-major
    covariate_distance_corr: float

    @property
    def sim_grid(self) -> Grid:
        return self.grid

    @property
    def sim_covariates(self) -> dict[str, RasterGrid]:
        return self.covariates


@dataclass
class ScenarioResult:
    """Tidy per-replicate rows plus run metadata.

    Rows are dicts with keys: scenario (the rescaled zeta), scenario_index,
    model, parameter, replicate, bias, rmse, covered, ci_width, estimate.
    """

    rows: list[dict]
    score_rows: list[dict]
    config: ScenarioConfig
    zeta_scale: float
    scenario_zetas: tuple[float, ...]
    expected_removal: tuple[float, ...]
    n_failed: int
    n_fits: int

    def aggregate(self) -> list[dict]:
        """Per (scenario, model, parameter) means, Table-1 style."""
        keys = sorted({(r["scenario_index"], r["model"], r["parameter"]) for r in self.rows})
        out = []
        for s_idx, model, param in keys:
            sel = [r for r in self.rows
                   if (r["scenario_index"], r["model"], r["parameter"]) == (s_idx, model, param)]
            biases = np.array([r["bias"] for r in sel])
            rmses = np.array([r["rmse"] for r in sel])
            widths = np.array([r["ci_width"] for r in sel])
            out.append({
                "scenario_index": s_idx,
                "zeta": sel[0]["scenario"],
                "model": model,
                "parameter": param,
                "mean_bias": float(biases.mean()),
                "sd_bias": float(biases.std(ddof=1)) if len(sel) > 1 else 0.0,
                "mean_rmse": float(rmses.mean()),
                "coverage": float(np.mean([r["covered"] for r in sel])),
                "mean_ci_width": float(widths.mean()),
                "n_replicates": len(sel),
            })
        return out

    def to_csv(self, path) -> None:
        cols = ["scenario_index", "scenario", "model", "parameter", "replicate",
                "bias", "rmse", "covered", "ci_width", "estimate"]
        write_csv(path, cols, ([r[c] for c in cols] for r in self.rows))

    def scores_to_csv(self, path) -> None:
        cols = ["scenario_index", "scenario", "model", "replicate", "dic", "waic", "lpml"]
        write_csv(path, cols, ([r[c] for c in cols] for r in self.score_rows))

    def to_markdown(self) -> str:
        lines = ["| scenario (zeta) | model | parameter | mean bias | mean RMSE | coverage | mean CI width |",
                 "|---|---|---|---|---|---|---|"]
        for a in self.aggregate():
            lines.append(
                f"| {a['zeta']:.4g} | {a['model']} | {a['parameter']} "
                f"| {a['mean_bias']:.3f} | {a['mean_rmse']:.3f} "
                f"| {a['coverage']:.2f} | {a['mean_ci_width']:.3f} |")
        return "\n".join(lines)

    def metadata(self) -> dict:
        return {
            "zeta_scale": self.zeta_scale,
            "scenario_zetas": list(self.scenario_zetas),
            "expected_removal": list(self.expected_removal),
            "n_failed": self.n_failed,
            "n_fits": self.n_fits,
            "seed": self.config.seed,
            "replicates": self.config.replicates,
        }


# ---------------------------------------------------------------------------
# Synthetic geometry
# ---------------------------------------------------------------------------

def synthetic_roads(domain_size: float, spacing: float, seed) -> RoadNetwork:
    """Connected jittered-lattice road network on a square domain."""
    rng = np.random.default_rng(seed)
    n_lines = max(int(round(domain_size / spacing)), 2)
    offsets = (np.arange(n_lines) + 0.5) * domain_size / n_lines
    n_vert = 9
    stations = np.linspace(0.0, domain_size, n_vert)
    jitter_scale = spacing / 6.0
    lines = []
    for x in offsets:
        wiggle = rng.normal(scale=jitter_scale, size=n_vert)
        xs = np.clip(x + wiggle, 0.0, domain_size)
        lines.append(np.column_stack([xs, stations]))
    for y in offsets:
        wiggle = rng.normal(scale=jitter_scale, size=n_vert)
        ys = np.clip(y + wiggle, 0.0, domain_size)
        lines.append(np.column_stack([stations, ys]))
    return RoadNetwork(tuple(lines))


def synthetic_assets(config: ScenarioConfig) -> DomainAssets:
    """Default geometry: roads plus a covariate anti-correlated with distance.

    The covariate is a weighted sum of the (standardized, negated) distance
    raster and an independent smooth field, weighted to hit the configured
    target correlation with road distance.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 909]))
    grid = Grid(0.0, 0.0, config.domain_size / config.grid_n,
                config.grid_n, config.grid_n)
    roads = synthetic_roads(config.domain_size, config.road_spacing, rng)
    dist = distance_raster(grid, roads)
    d = dist.values.ravel()
    d_std = (d - d.mean()) / d.std()
    smooth = sample_matern_field(
        grid, MaternParams(sigma=1.0, rho=0.25 * config.domain_size), rng).ravel()
    smooth = (smooth - smooth.mean()) / smooth.std()
    alpha = abs(COVARIATE_DISTANCE_CORR)
    raw = -alpha * d_std + math.sqrt(1 - alpha ** 2) * smooth
    cov_values = (raw - raw.mean()) / raw.std()
    cov = RasterGrid(grid, cov_values.reshape(grid.ny, grid.nx))
    achieved = pearson_corr(cov_values, d)
    return DomainAssets(grid, {"x1": cov}, roads, "x1", d, achieved)


def expected_removal(zeta: float, assets: DomainAssets, config: ScenarioConfig) -> float:
    """Removed fraction of the mean intensity measure under thinning rate zeta.

    The latent field is independent of road distance, so its lognormal mean
    factor cancels from the ratio.
    """
    cov = assets.covariates[assets.covariate_name].values.ravel()
    lam = np.exp(config.true_beta0 + config.true_beta1 * cov)
    return float(1.0 - (lam @ q_probability(assets.distance_values, zeta)) / lam.sum())


def calibrate_zeta_scale(assets: DomainAssets, config: ScenarioConfig) -> float:
    """Scale factor c so the heaviest level removes the target fraction."""
    heavy = max(config.zeta_levels)
    if heavy <= 0:
        return 1.0
    target = TARGET_HEAVY_REMOVAL

    def gap(log_c):
        return expected_removal(math.exp(log_c) * heavy, assets, config) - target

    lo, hi = -10.0, 6.0
    if gap(lo) > 0 or gap(hi) < 0:
        raise LgcpThinError("cannot calibrate zeta levels on this geometry")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# Study driver
# ---------------------------------------------------------------------------

def _theta_prior_for(config: ScenarioConfig, zeta_level: float) -> NormalPrior:
    if config.theta_prior_preset == "default":
        return ModelSpec.theta_prior
    mean = config.informative_mean
    if mean is None:  # level 0 has no log; it falls back to the default prior's centre
        mean = math.log(zeta_level) if zeta_level > 0 else ModelSpec.theta_prior.mean
    return NormalPrior(mean, config.informative_precision)


def _row(s_idx, zeta, model, param, rep, draws, truth, lo, hi, estimate) -> dict:
    """One result row: a parameter's draws and interval scored against the truth."""
    return {
        "scenario_index": s_idx, "scenario": zeta, "model": model,
        "parameter": param, "replicate": rep,
        "bias": float(np.mean(draws - truth)),
        "rmse": float(np.sqrt(np.mean((draws - truth) ** 2))),
        "covered": bool(lo <= truth <= hi),
        "ci_lo": float(lo), "ci_hi": float(hi),
        "ci_width": float(hi - lo), "estimate": estimate}


def _one_replicate(args):
    (config, assets, s_idx, zeta, rep, seeds) = args
    rng = np.random.default_rng(seeds)
    params = MaternParams(sigma=config.true_sigma, rho=config.true_rho)
    field = sample_matern_field(assets.grid, params, rng)
    surface = make_log_intensity(
        assets.covariates, config.true_beta0,
        {assets.covariate_name: config.true_beta1}, field)
    pattern = simulate_lgcp(surface, rng)
    if zeta > 0:
        pattern = thin(pattern, ThinningConfig(zeta), assets.roads, rng)

    rows: list[dict] = []
    score_rows: list[dict] = []
    failures: list[str] = []
    n_draws = config.posterior_draws_per_fit
    # each parameter the naive model reports: its name in the fit and its true value
    naive = {"beta0": ("beta0", config.true_beta0), "beta1": (assets.covariate_name, config.true_beta1),
             "rho": ("rho", config.true_rho), "sigma": ("sigma", config.true_sigma)}
    for model in config.models:
        table = naive if model == "naive" else {**naive, "zeta": ("zeta", zeta)}
        fit_scores: list[dict] = []
        try:  # a fit's rows are kept only once all of it, its score included, has succeeded
            if len(pattern) < 10:
                raise FitError(f"the pattern has {len(pattern)} points, fewer than 10")
            if config.self_test:
                fit_rows = [_row(s_idx, zeta, model, param, rep, np.full(n_draws, t), t, t, t, t)
                            for param, (_, t) in table.items()]
            else:
                spec = ModelSpec(
                    covariate_names=(assets.covariate_name,),
                    use_vse=model == "vse",
                    pc_prior=config.pc_prior,
                    theta_prior=_theta_prior_for(config, zeta),
                )
                result = fit(pattern, assets.covariates, assets.roads, spec)
                fit_rows = []
                for param, (name, t) in table.items():
                    draws = result.draw_parameter(name, rng, n_draws)
                    lo, hi = result.credible_interval(name, config.nominal_level)
                    fit_rows.append(_row(s_idx, zeta, model, param, rep, draws, t, lo, hi,
                                         result.summaries[name]["mean"]))
                if config.score_fits:
                    scores = assess.score(result, n_samples=max(n_draws, 100), seed=rng)
                    fit_scores.append({
                        "scenario_index": s_idx, "scenario": zeta, "model": model,
                        "replicate": rep, "dic": scores["dic"], "waic": scores["waic"],
                        "lpml": scores["lpml"]})
        except (FitError, ValueError) as exc:
            failures.append(f"{model} fit at level index {s_idx}, replicate {rep}: {exc}")
            continue
        rows.extend(fit_rows)
        score_rows.extend(fit_scores)
    return rows, score_rows, failures


def run_scenarios(config: ScenarioConfig,
                  assets: DomainAssets | None = None) -> ScenarioResult:
    """Run the full protocol; aborts when more than 20% of fits fail.

    A fit fails when its pattern has fewer than 10 points, or when the fit,
    its draws, intervals or score raise ``FitError`` or ``ValueError``; a
    failed fit adds no row, and the abort names each failed fit and why.

    With ``config.threads > 1`` the replicates run in that many forked worker
    processes, all ended before this returns or raises; where fork is not
    safe they run serially.  Rows are bit for bit the same either way.
    """
    if assets is None:
        assets = synthetic_assets(config)
    scale = calibrate_zeta_scale(assets, config)
    zetas = tuple(scale * z for z in config.zeta_levels)
    removal = tuple(expected_removal(z, assets, config) for z in zetas)

    tasks = []
    for s_idx, zeta in enumerate(zetas):
        # seeds are keyed by the unscaled level value, not its position, so
        # runs over different level subsets stay replicate-paired
        level_key = int(round(1e6 * config.zeta_levels[s_idx]))
        for rep in range(config.replicates):
            child = np.random.SeedSequence([config.seed, level_key, rep])
            tasks.append((config, assets, s_idx, zeta, rep, child))

    if config.threads > 1 and _FORK_WORKERS:
        # named, not the platform default: Python 3.14 made forkserver Linux's default
        with ProcessPoolExecutor(max_workers=min(config.threads, len(tasks)),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            outcomes = list(pool.map(_one_replicate, tasks))
    else:
        outcomes = [_one_replicate(t) for t in tasks]

    rows: list[dict] = []
    score_rows: list[dict] = []
    failures: list[str] = []
    for r_rows, r_scores, r_failures in outcomes:
        rows.extend(r_rows)
        score_rows.extend(r_scores)
        failures.extend(r_failures)
    n_failed, n_fits = len(failures), len(tasks) * len(config.models)
    if n_failed > 0.2 * n_fits:
        raise FitError(f"{n_failed}/{n_fits} fits failed; aborting the study: " + "; ".join(failures))
    rows.sort(key=lambda r: (r["scenario_index"], r["replicate"], r["model"], r["parameter"]))
    score_rows.sort(key=lambda r: (r["scenario_index"], r["replicate"], r["model"]))
    return ScenarioResult(rows, score_rows, config, scale, zetas, removal,
                          n_failed, n_fits)
