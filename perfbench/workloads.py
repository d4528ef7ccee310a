"""The four benchmark workloads: fit, posterior, study and explore.

Each workload builds its inputs from the run seed in ``setup`` (timed as
``setup_s``), then runs closed-loop ops: one caller that waits for each op.
``op(k)`` returns the wall time of each named stage of op ``k`` and its
outputs; ``check`` turns those outputs into a list of correctness problems,
outside the timed op.  The
package is driven only through its public functions.  README.md says why
each workload exists and which layer it isolates.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import replace

import numpy as np

from lgcpthin import assess, cli, geo, grf, inference, pointprocess, simstudy

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "fit_reference.json")

# Problem sizes.  "full" is what the benchmark measures; "toy" keeps every
# code path but is small enough for the self-check.
SIZES = {
    "full": {
        "fit_geometry": {},                 # ScenarioConfig defaults: 20x20 cells, 150 km
        "panel": 8,
        "posterior_draws": 1000,
        "score_samples": 200,
        "study": {"zeta_levels": (0.0, 16.0), "replicates": 1,
                  "grid_n": 12, "domain_size": 90.0},
        "explore": {"domain": 600.0, "road_spacing": 5.0, "cov_n": 120,
                    "points": 10000, "grid_res": 100},
    },
    "toy": {
        "fit_geometry": {"grid_n": 8, "domain_size": 60.0, "road_spacing": 30.0,
                         "pc_prior": grf.PcPriorSpec(rho0=5.0)},
        "panel": 2,
        "posterior_draws": 120,
        "score_samples": 100,
        "study": {"zeta_levels": (16.0,), "replicates": 1, "grid_n": 8,
                  "domain_size": 60.0, "road_spacing": 30.0, "models": ("naive",),
                  "pc_prior": grf.PcPriorSpec(rho0=5.0)},
        "explore": {"domain": 60.0, "road_spacing": 10.0, "cov_n": 12,
                    "points": 300, "grid_res": 10},
    },
}

HEAVY_LEVEL = 16.0  # unscaled thinning level of the fit panel, as in the study
PANEL_SEED = 20191126
GEOMETRY_SEED = 0
NPROC = len(os.sched_getaffinity(0))


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


# ---------------------------------------------------------------------------
# Shared: the default study geometry and its fixed panel of thinned patterns
# ---------------------------------------------------------------------------

class Panel:
    """Heavily thinned patterns (zeta level 16, calibrated) on a fixed geometry.

    Pattern ``k`` is simulated from its own seed, so the panel is the same in
    every run and its fits can be checked against recorded references; the
    run seed only picks the order in which patterns are visited.
    """

    def __init__(self, size: dict, seed: int):
        self.config = simstudy.ScenarioConfig(seed=GEOMETRY_SEED, **size["fit_geometry"])
        cfg = self.config
        self.assets = simstudy.synthetic_assets(cfg)
        scale = simstudy.calibrate_zeta_scale(self.assets, cfg)
        self.zeta = scale * HEAVY_LEVEL
        self.patterns = [self._pattern(k) for k in range(size["panel"])]
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(size["panel"])]

    def _pattern(self, k: int) -> geo.PointPattern:
        cfg, assets = self.config, self.assets
        rng = np.random.default_rng([PANEL_SEED, k])
        field = grf.sample_matern_field(
            assets.sim_grid, grf.MaternParams(sigma=cfg.true_sigma, rho=cfg.true_rho), rng)
        surface = pointprocess.make_log_intensity(
            assets.sim_covariates, cfg.true_beta0,
            {assets.covariate_name: cfg.true_beta1}, field)
        pattern = pointprocess.simulate_lgcp(surface, rng)
        return pointprocess.thin(pattern, pointprocess.ThinningConfig(self.zeta),
                                 assets.roads, rng)

    def spec(self, model: str) -> inference.ModelSpec:
        return inference.ModelSpec(
            covariate_names=(self.assets.covariate_name,),
            use_vse=model == "vse",
            pc_prior=self.config.pc_prior,
            theta_prior=inference.NormalPrior(1.0, 0.05))

    def fit(self, k: int, model: str) -> inference.FitResult:
        return inference.fit(self.patterns[k], self.assets.covariates,
                             self.assets.roads, self.spec(model))


def fit_summary(result: inference.FitResult) -> dict:
    """The figures the fit check compares: coefficient means and sds, hyper medians."""
    out = {}
    for name in result.param_names:
        out[f"{name}.mean"] = result.summaries[name]["mean"]
        out[f"{name}.sd"] = result.summaries[name]["sd"]
    for name in result.hyper_param_names:
        out[f"{name}.q50"] = result.summaries[name]["q50"]
    return out


# A coefficient mean may move by this share of its reference posterior sd,
# a hyper median by this relative amount, before the fit counts as wrong.
COEF_TOL_SD = 0.1
HYPER_TOL_REL = 0.1


def check_fit(result, ref: dict, label: str) -> list[str]:
    problems = []
    got = fit_summary(result)
    for key, want in ref.items():
        have = got.get(key)
        if have is None or not math.isfinite(have):
            problems.append(f"{label} {key}: missing or non-finite ({have})")
        elif key.endswith(".mean"):
            tol = COEF_TOL_SD * ref[key[:-len(".mean")] + ".sd"]
            if abs(have - want) > tol:
                problems.append(f"{label} {key}: {have:.6g} vs reference {want:.6g} (tol {tol:.3g})")
        elif key.endswith(".q50") and abs(have - want) > HYPER_TOL_REL * abs(want):
            problems.append(f"{label} {key}: {have:.6g} vs reference {want:.6g}")
    return problems


def load_reference(size_name: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[size_name]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: ``setup`` is timed, ``prepare_checks`` builds oracles untimed."""

    stages: tuple[str, ...] = ()
    setup_warmups = 1  # untimed: lets imports, caches and CPU clocks settle
    setup_repeats = 7

    def __init__(self, size_name: str, seed: int, workdir: str):
        self.size_name, self.size, self.seed = size_name, SIZES[size_name], seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        pass

    def op(self, k: int) -> tuple[dict[str, float], object]:
        """Run op ``k``; returns the wall time of each stage and the outputs."""
        raise NotImplementedError

    def check(self, output) -> list[str]:
        """Correctness problems in an op's outputs; empty when all is well."""
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class FitWorkload(Workload):
    """Naive then VSE fit on one panel pattern per op."""

    stages = ("fit_naive_s", "fit_vse_s")

    def setup(self) -> None:
        self.panel = Panel(self.size, self.seed)

    def prepare_checks(self) -> None:
        self.reference = load_reference(self.size_name)

    def op(self, k: int):
        idx = self.panel.order[k % len(self.panel.order)]
        stages, results = {}, {}
        for model in ("naive", "vse"):
            results[model], stages[f"fit_{model}_s"] = _timed(self.panel.fit, idx, model)
        return stages, (idx, results)

    def check(self, output) -> list[str]:
        idx, results = output
        ref = self.reference["panel"][idx]
        problems = []
        if len(self.panel.patterns[idx]) != ref["n_points"]:
            problems.append(f"pattern {idx}: {len(self.panel.patterns[idx])} points, "
                            f"reference {ref['n_points']}")
        for model, result in results.items():
            problems += check_fit(result, ref[model], f"pattern {idx} {model}")
        return problems


class PosteriorWorkload(Workload):
    """predict_intensity then assess.score on a naive and a VSE fit made in setup."""

    stages = ("predict_s", "score_s")
    setup_warmups = 0  # setup is two full fits
    setup_repeats = 1

    def setup(self) -> None:
        self.panel = Panel(self.size, self.seed)
        idx = self.panel.order[0]
        self.results = {m: self.panel.fit(idx, m) for m in ("naive", "vse")}

    def prepare_checks(self) -> None:
        ref = load_reference(self.size_name)["panel"][self.panel.order[0]]
        self.setup_problems = [p for m, r in self.results.items()
                               for p in check_fit(r, ref[m], f"setup {m}")]

    def op(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        stages = {"predict_s": 0.0, "score_s": 0.0}
        outputs = []
        for model, result in self.results.items():
            (median, sd), dt = _timed(inference.predict_intensity, result,
                                      draws=self.size["posterior_draws"], seed=rng)
            stages["predict_s"] += dt
            scores, dt = _timed(assess.score, result,
                                n_samples=self.size["score_samples"], seed=rng)
            stages["score_s"] += dt
            outputs.append((model, median, sd, scores))
        return stages, outputs

    def check(self, output) -> list[str]:
        grid = self.panel.assets.grid
        problems = list(self.setup_problems)
        for model, median, sd, scores in output:
            for name, rast in (("median", median), ("sd", sd)):
                if rast.values.shape != (grid.ny, grid.nx) or not _finite(rast.values):
                    problems.append(f"{model} {name} raster is misshapen or not finite")
            if not np.all(sd.values > 0):
                problems.append(f"{model} sd raster has non-positive cells")
            bad = [key for key, v in scores.items() if not _finite(v)]
            if bad:
                problems.append(f"{model} scores not finite: {bad}")
        return problems


class StudyWorkload(Workload):
    """run_scenarios with one worker, then with min(2, nproc) workers."""

    stages = ("study_serial_s", "study_parallel_s")

    def setup(self) -> None:
        self.config = simstudy.ScenarioConfig(seed=self.seed, threads=1, **self.size["study"])
        self.assets = simstudy.synthetic_assets(self.config)

    def op(self, k: int):
        serial, t_serial = _timed(simstudy.run_scenarios, self.config, self.assets)
        parallel, t_parallel = _timed(simstudy.run_scenarios,
                                      replace(self.config, threads=min(2, NPROC)), self.assets)
        return {"study_serial_s": t_serial, "study_parallel_s": t_parallel}, (serial, parallel)

    def check(self, output) -> list[str]:
        serial, parallel = output
        problems = [f"serial and parallel {what} differ"
                    for what in ("rows", "score_rows", "n_failed", "n_fits")
                    if getattr(serial, what) != getattr(parallel, what)]
        if not serial.rows or (self.config.score_fits and not serial.score_rows):
            problems.append("study produced no rows")
        return problems


def brute_force_distances(points: np.ndarray, roads: geo.RoadNetwork) -> np.ndarray:
    """Distance to the nearest segment, one segment at a time (the oracle)."""
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


class ExploreWorkload(Workload):
    """``lgcpthin explore --covariate`` in-process on files written by setup."""

    stages = ("explore_s",)
    setup_repeats = 3  # each writes ~1 MB of input files

    def setup(self) -> None:
        s = self.size["explore"]
        rng = np.random.default_rng([self.seed, 4242])
        roads = simstudy.synthetic_roads(s["domain"], s["road_spacing"], rng)
        n = s["cov_n"]
        grid = geo.Grid(0.0, 0.0, s["domain"] / n, n, n)
        smooth = grf.sample_matern_field(
            grid, grf.MaternParams(sigma=1.0, rho=0.1 * s["domain"]), rng)
        cov = geo.RasterGrid(grid, (smooth - smooth.mean()) / smooth.std())
        coef = 0.5
        # expected count ~ points: area * exp(beta0) * E[exp(coef * x)]
        beta0 = math.log(s["points"] / s["domain"] ** 2) - 0.5 * coef ** 2
        surface = pointprocess.make_log_intensity({"x1": cov}, beta0, {"x1": coef})
        pattern = pointprocess.simulate_lgcp(surface, rng)
        os.makedirs(self.workdir, exist_ok=True)
        self.paths = {name: os.path.join(self.workdir, name)
                      for name in ("points.csv", "roads.geojson", "x1.asc")}
        geo.write_points_csv(pattern, self.paths["points.csv"])
        geo.write_roads_geojson(roads, self.paths["roads.geojson"])
        geo.write_esri_ascii(cov, self.paths["x1.asc"])
        self.pattern, self.roads, self.cov = pattern, roads, cov

    def prepare_checks(self) -> None:
        self.point_d = brute_force_distances(self.pattern.points, self.roads)
        cell_d = brute_force_distances(self.cov.grid.cell_centers(), self.roads)
        self.cov_corr = float(np.corrcoef(self.cov.values.ravel(), cell_d)[0, 1])
        rng = np.random.default_rng([self.seed, 99])
        self.sample = rng.choice(len(self.point_d), size=min(64, len(self.point_d)),
                                 replace=False)

    def op(self, k: int):
        out = os.path.join(self.workdir, "out")
        argv = ["explore", "--points", self.paths["points.csv"],
                "--roads", self.paths["roads.geojson"],
                "--covariate", f"x1={self.paths['x1.asc']}",
                "--grid-res", str(self.size["explore"]["grid_res"]), "--out", out]
        code, dt = _timed(cli.main, argv)
        return {"explore_s": dt}, (code, out)

    def check(self, output) -> list[str]:
        code, out = output
        if code != 0:
            return [f"explore exited with {code}"]
        problems = []
        with open(os.path.join(out, "explore.json")) as fh:
            summary = json.load(fh)
        d = self.point_d
        if summary["n_points"] != d.size:
            problems.append(f"n_points {summary['n_points']} vs {d.size}")
        for q, v in summary["distance_quantiles"].items():
            if not math.isclose(v, float(np.quantile(d, float(q))), rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"distance quantile {q}: {v} vs oracle")
        for t, v in summary["fraction_within"].items():
            # a point within 1e-9 of a threshold may fall on either side
            lo, hi = np.mean(d <= float(t) - 1e-9), np.mean(d <= float(t) + 1e-9)
            if not lo <= v <= hi:
                problems.append(f"fraction within {t}: {v} vs oracle")
        corr = summary["covariate_distance_correlation"]["x1"]
        if not math.isclose(corr, self.cov_corr, abs_tol=1e-9):
            problems.append(f"covariate correlation {corr} vs oracle {self.cov_corr}")
        support = np.loadtxt(os.path.join(out, "ecdf.csv"), delimiter=",", skiprows=1,
                             usecols=0)
        pos = np.clip(np.searchsorted(support, d[self.sample]), 1, support.size - 1)
        gap = np.minimum(np.abs(support[pos] - d[self.sample]),
                         np.abs(support[pos - 1] - d[self.sample]))
        if np.any(gap > 1e-9):
            problems.append(f"{int(np.sum(gap > 1e-9))} sampled point distances "
                            "missing from ecdf.csv")
        return problems


WORKLOADS = {
    "fit": FitWorkload,
    "posterior": PosteriorWorkload,
    "study": StudyWorkload,
    "explore": ExploreWorkload,
}
