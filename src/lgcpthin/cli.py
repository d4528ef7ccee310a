"""Command-line interface.

Subcommands: explore, simulate, thin, fit, predict, simstudy, report.  Every
run writes its artifacts plus a ``manifest.json`` (resolved options, seed,
package versions, wall time, artifact list) sufficient to reproduce it.
Options can come from a flat ``key = value`` config file (``--config``);
explicit flags win over config values.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from operator import methodcaller

import numpy as np
import scipy

from lgcpthin import __version__, assess, geo
from lgcpthin.errors import LgcpThinError, ParseError
from lgcpthin.geo import Grid, RasterGrid
from lgcpthin.grf import SAMPLE_EXTENSION_FACTOR, MaternParams, PcPriorSpec, sample_matern_field
from lgcpthin.inference import FitResult, ModelSpec, NormalPrior, fit, predict_intensity
from lgcpthin.pointprocess import ThinningConfig, make_log_intensity, simulate_lgcp, thin
from lgcpthin.simstudy import THETA_PRIOR_PRESETS, ScenarioConfig, run_scenarios


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_QUOTED = re.compile("\"[^\"]*\"|'[^']*'")
_CONFIG_PIECES = re.compile(f"({_QUOTED.pattern}|,|#)")  # re.split keeps each as a piece


def read_config(path) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment.

    Each value is text, or a list of texts where a comma separates items.  A
    quoted item is taken verbatim, '#' and ',' included; other items lose any
    quotes at their ends.  ``_parse_args`` converts each by its option's type.
    """
    out: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            head = line.split("#", 1)[0]
            if not head.strip():
                continue
            if "=" not in head:
                raise ParseError("expected 'key = value'", path, lineno)
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if not key:
                raise ParseError("empty key", path, lineno)
            items = [""]
            for piece in _CONFIG_PIECES.split(raw):
                if piece == "#":
                    break
                if piece == ",":
                    items.append("")
                else:
                    items[-1] += piece
            items = [item.strip() for item in items]
            texts = [t[1:-1] if _QUOTED.fullmatch(t) else t.strip("'\"") for t in items]
            out[key] = texts[0] if len(texts) == 1 else [t for t, item in zip(texts, items) if item]
    return out


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse ``argv``, then again with the ``--config`` file's values as the
    command's defaults: a flag wins whatever its value, a repeated flag replaces
    the file's list, and each value goes through its option's ``type`` as a
    flag's would.  A key that names no option of the command, a list for an
    option that takes one value, a value its option's type rejects, a switch
    that is not true or false, or a value outside an option's choices, is an
    error."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    cfg = read_config(args.config)
    sub_action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    subparser = sub_action.choices[args.command]
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    for key, value in cfg.items():
        if key not in actions:
            raise ParseError(f"unknown key {key!r} for '{args.command}'", args.config)
        action = actions[key]
        many = isinstance(action, argparse._AppendAction) or action.nargs == "+"
        if isinstance(value, list) and not many:
            raise ParseError(f"{key} = {value!r} is a list, but '{args.command}' "
                             f"takes one value for {key!r}", args.config)
        values = value if isinstance(value, list) else [value]
        if action.nargs == 0:  # a switch
            if value.lower() not in ("true", "false"):
                raise ParseError(f"{key} = {value!r} is not true or false", args.config)
            values = [value.lower() == "true"]
        else:  # as argparse converts a flag's string
            try:
                values = [(action.type or str)(v) for v in values]
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{key} = {value!r}: {exc}", args.config) from exc
        if action.choices and any(v not in action.choices for v in values):
            raise ParseError(f"{key} = {value!r} is not one of {list(action.choices)}", args.config)
        cfg[key] = values if many else values[0]
    subparser.set_defaults(**cfg)
    merged = parser.parse_args(argv)
    for key in cfg:  # a flag given once or more replaces the file's list
        if isinstance(actions[key], argparse._AppendAction) and getattr(args, key):
            setattr(merged, key, getattr(args, key))
    return merged


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

# numpy scalars and arrays as JSON numbers and lists; np.float64 is a float
_TO_JSON = methodcaller("tolist")


class _Run:
    """Tracks artifacts and writes the manifest on completion.  The output
    directory is made when the first file goes into it, so a run that fails
    on its inputs leaves none behind."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.outdir = args.out
        self.t0 = time.time()
        self.artifacts: list[str] = []
        self.options = {k: v for k, v in vars(args).items() if k != "func"}

    def path(self, name: str) -> str:
        os.makedirs(self.outdir, exist_ok=True)
        self.artifacts.append(name)
        return os.path.join(self.outdir, name)

    def finish(self, extra: dict | None = None) -> int:
        manifest = {
            "command": self.command,
            "options": self.options,
            "seed": self.options.get("seed"),
            "versions": {"lgcpthin": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__,
                         "python": sys.version.split()[0]},
            "wall_time_s": round(time.time() - self.t0, 3),
            "artifacts": self.artifacts,
        }
        if extra:
            manifest.update(extra)
        os.makedirs(self.outdir, exist_ok=True)
        with open(os.path.join(self.outdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, default=_TO_JSON)
        missing = [a for a in self.artifacts
                   if not os.path.exists(os.path.join(self.outdir, a))]
        return 1 if missing else 0


def _load_covariates(pairs: list[str]) -> dict[str, RasterGrid]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise LgcpThinError(f"--covariate expects name=path, got {pair!r}")
        name, _, path = pair.partition("=")
        out[name] = geo.read_esri_ascii(path)
    return out


def _flagged(flags: dict[str, str], make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError whose message starts with a key
    of ``flags`` is raised again with that key's flag in front."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        flag = next((f for key, f in flags.items() if str(exc).startswith(key)), None)
        if flag is None:
            raise
        raise ValueError(f"{flag}: {exc}") from exc


def _model_spec(args, covariate_names) -> ModelSpec:
    return _flagged(
        {"prior precision": "--beta-precision", "zeta_fixed": "--zeta-fixed"}, ModelSpec,
        covariate_names=tuple(covariate_names),
        use_vse=args.model == "vse",
        pc_prior=_flagged({"rho0": "--pc-rho0", "sigma0": "--pc-sigma0"}, PcPriorSpec,
                          args.pc_rho0, args.pc_alpha_rho, args.pc_sigma0, args.pc_alpha_sigma),
        beta_precision=args.beta_precision,
        theta_prior=_flagged({"prior mean": "--theta-mean", "prior precision": "--theta-precision"},
                             NormalPrior, args.theta_mean, args.theta_precision),
        zeta_fixed=args.zeta_fixed,
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_explore(args) -> int:
    if args.grid_res < 1:
        raise LgcpThinError(f"--grid-res must be at least 1, got {args.grid_res}")
    run = _Run("explore", args)
    points = geo.read_points_csv(args.points)
    roads = geo.read_roads(args.roads)
    xmin, ymin, xmax, ymax = points.domain
    cell = (xmax - xmin) / args.grid_res
    ny = max(int(round((ymax - ymin) / cell)), 1)
    grid = Grid(xmin, ymin, cell, args.grid_res, ny)
    point_dists = geo.distances_to_roads(points.points, roads)
    grid_dists = geo.distances_to_roads(grid.cell_centers(), roads)
    d_stat, p_value = geo.ks_two_sample(point_dists, grid_dists)

    thresholds = [0.5, 1.0, 2.0, 3.0]
    summary = {
        "n_points": len(points),
        "n_reference": grid_dists.size,
        "distance_quantiles": {
            str(q): float(np.quantile(point_dists, q))
            for q in (0.05, 0.25, 0.5, 0.75, 0.95)},
        "fraction_within": {
            str(t): float(np.mean(point_dists <= t)) for t in thresholds},
        "ks_statistic": d_stat,
        "ks_p_value": p_value,
    }
    if args.covariate:
        covs = _load_covariates(args.covariate)
        summary["covariate_distance_correlation"] = {}
        for name, rast in covs.items():
            cell_d = geo.distances_to_roads(rast.grid.cell_centers(), roads)
            summary["covariate_distance_correlation"][name] = geo.pearson_corr(
                rast.values.ravel(), cell_d)
    with open(run.path("explore.json"), "w") as fh:
        json.dump(summary, fh, indent=2, default=_TO_JSON)
    support = np.unique(np.concatenate([point_dists, grid_dists]))
    f_pts, f_grid = geo.ecdf(point_dists), geo.ecdf(grid_dists)
    geo.write_csv(run.path("ecdf.csv"), ["distance", "ecdf_points", "ecdf_reference"],
                  zip(support.tolist(), f_pts(support).tolist(), f_grid(support).tolist()))
    return run.finish()


def cmd_simulate(args) -> int:
    if not args.sigma >= 0:
        raise LgcpThinError(f"--sigma must be at least 0 (0 disables the field), got {args.sigma}")
    run = _Run("simulate", args)
    covs = _load_covariates(args.covariate)
    names = list(covs)
    coefs = dict(zip(names, args.coef))
    if len(args.coef) != len(names):
        raise LgcpThinError("need one --coef per covariate, in order")
    grid = covs[names[0]].grid
    field = None
    if args.sigma > 0:
        field = sample_matern_field(
            grid, MaternParams(sigma=args.sigma, rho=args.rho),
            seed=args.seed, extension_factor=args.extension)
    surface = make_log_intensity(covs, args.beta0, coefs, field)
    pattern = simulate_lgcp(surface, np.random.default_rng(args.seed + 1))
    geo.write_points_csv(pattern, run.path("points.csv"))
    geo.write_esri_ascii(surface.raster, run.path("log_intensity.asc"))
    return run.finish({"n_points": len(pattern)})


def cmd_thin(args) -> int:
    run = _Run("thin", args)
    pattern = geo.read_points_csv(args.points)
    roads = geo.read_roads(args.roads)
    thinned = thin(pattern, ThinningConfig(args.zeta), roads, args.seed)
    geo.write_points_csv(thinned, run.path("thinned.csv"))
    return run.finish({"n_before": len(pattern), "n_after": len(thinned),
                       "removed_fraction": 1.0 - len(thinned) / max(len(pattern), 1)})


def cmd_fit(args) -> int:
    if args.assess_draws != 0 and args.assess_draws < assess.MIN_SAMPLES:
        raise LgcpThinError(f"--assess-draws must be 0 (no scoring) or at least "
                            f"{assess.MIN_SAMPLES}, got {args.assess_draws}")
    run = _Run("fit", args)
    covs = _load_covariates(args.covariate)
    grid = covs[next(iter(covs))].grid
    pattern = geo.read_points_csv(args.points, domain=grid.bbox)
    roads = geo.read_roads(args.roads) if args.roads else None
    spec = _model_spec(args, covs.keys())
    result = fit(pattern, covs, roads, spec)
    if args.assess_draws > 0:
        assess.score(result, n_samples=args.assess_draws, seed=args.seed)
    result.save(run.outdir)
    run.artifacts.extend(["fit.json", "fit_nodes.npz"])
    return run.finish({"n_points": len(pattern)})


def cmd_predict(args) -> int:
    run = _Run("predict", args)
    with open(os.path.join(args.fit, "manifest.json")) as fh:
        fit_manifest = json.load(fh)
    opts = fit_manifest["options"]
    covs = _load_covariates(args.covariate or opts["covariate"])
    grid = covs[next(iter(covs))].grid
    pattern = geo.read_points_csv(args.points or opts["points"], domain=grid.bbox)
    roads_path = args.roads or opts.get("roads")
    roads = geo.read_roads(roads_path) if roads_path else None
    ns = argparse.Namespace(**opts)
    spec = _model_spec(ns, covs.keys())
    result = FitResult.load(args.fit, pattern, covs, roads, spec)
    median, sd = predict_intensity(result, draws=args.draws, seed=args.seed)
    geo.write_esri_ascii(median, run.path("log_intensity_median.asc"))
    geo.write_esri_ascii(sd, run.path("log_intensity_sd.asc"))
    return run.finish()


def cmd_simstudy(args) -> int:
    run = _Run("simstudy", args)
    config = _flagged(
        {"informative_mean": "--informative-mean", "grid_n": "--grid-n",
         "domain_size": "--domain-size"}, ScenarioConfig,
        zeta_levels=tuple(args.zeta_levels),
        replicates=args.replicates,
        posterior_draws_per_fit=args.posterior_draws,
        theta_prior_preset=args.theta_prior,
        informative_mean=args.informative_mean,
        informative_precision=args.informative_precision,
        seed=args.seed,
        nominal_level=args.level,
        grid_n=args.grid_n,
        domain_size=args.domain_size,
        self_test=args.self_test,
        threads=args.threads,
    )
    result = run_scenarios(config)
    result.to_csv(run.path("results.csv"))
    result.scores_to_csv(run.path("scores.csv"))
    columns = ["scenario_index", "zeta", "model", "parameter", "coverage", "mean_ci_width"]
    geo.write_csv(run.path("coverage.csv"), columns,
                  [[a[c] for c in columns] for a in result.aggregate()])
    with open(run.path("summary.md"), "w") as fh:
        fh.write(result.to_markdown() + "\n")
    return run.finish(result.metadata())


def cmd_report(args) -> int:
    run = _Run("report", args)
    rows = []
    for fit_dir in args.fits:
        with open(os.path.join(fit_dir, "fit.json")) as fh:
            doc = json.load(fh)
        scores = doc.get("scores") or {}
        rows.append([doc.get("model", fit_dir), scores.get("dic"),
                     scores.get("waic"), scores.get("lpml")])
    geo.write_csv(run.path("comparison.csv"), ["model", "dic", "waic", "lpml"], rows)
    return run.finish()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file; flags win")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgcpthin",
        description="Simulate and fit Cox point processes observed under "
                    "distance-based thinning (units: kilometers).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="distance summaries, ECDFs, KS test")
    p.add_argument("--points", required=True)
    p.add_argument("--roads", required=True)
    p.add_argument("--grid-res", type=int, default=100)
    p.add_argument("--covariate", action="append", default=[],
                   help="name=path.asc (repeatable)")
    _add_common(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("simulate", help="draw a point pattern from a Cox surface")
    p.add_argument("--covariate", action="append", required=True,
                   help="name=path.asc (repeatable)")
    p.add_argument("--beta0", type=float, required=True)
    p.add_argument("--coef", type=float, action="append", required=True,
                   help="coefficient per covariate, in order (repeatable)")
    p.add_argument("--rho", type=float, default=ScenarioConfig.true_rho)
    p.add_argument("--sigma", type=float, default=ScenarioConfig.true_sigma,
                   help="field standard deviation; 0 disables the field")
    p.add_argument("--extension", type=float, default=SAMPLE_EXTENSION_FACTOR)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("thin", help="thin a pattern by road distance")
    p.add_argument("--points", required=True)
    p.add_argument("--roads", required=True)
    p.add_argument("--zeta", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_thin)

    p = sub.add_parser("fit", help="fit the naive or VSE model")
    p.add_argument("--points", required=True)
    p.add_argument("--covariate", action="append", required=True)
    p.add_argument("--roads", default=None)
    p.add_argument("--model", choices=["naive", "vse"], default="naive")
    p.add_argument("--assess-draws", type=int, default=200,
                   help="posterior draws for DIC/WAIC/LPML; 0 skips scoring")
    # priors; 'predict' takes them, and the model, from the fit's manifest
    p.add_argument("--pc-rho0", type=float, default=PcPriorSpec.rho0)
    p.add_argument("--pc-alpha-rho", type=float, default=PcPriorSpec.alpha_rho)
    p.add_argument("--pc-sigma0", type=float, default=PcPriorSpec.sigma0)
    p.add_argument("--pc-alpha-sigma", type=float, default=PcPriorSpec.alpha_sigma)
    p.add_argument("--beta-precision", type=float, default=ModelSpec.beta_precision)
    p.add_argument("--theta-mean", type=float, default=ModelSpec.theta_prior.mean)
    p.add_argument("--theta-precision", type=float, default=ModelSpec.theta_prior.precision)
    p.add_argument("--zeta-fixed", type=float, default=ModelSpec.zeta_fixed)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="posterior intensity rasters from a saved fit")
    p.add_argument("--fit", required=True, help="directory written by 'fit'")
    p.add_argument("--points", default=None, help="override the fit's inputs")
    p.add_argument("--covariate", action="append", default=None)
    p.add_argument("--roads", default=None)
    p.add_argument("--draws", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simstudy", help="run the simulate/thin/fit/compare protocol")
    study = ScenarioConfig
    p.add_argument("--replicates", type=int, default=study.replicates)
    p.add_argument("--zeta-levels", default=list(study.zeta_levels), nargs="+", type=float)
    p.add_argument("--posterior-draws", type=int, default=study.posterior_draws_per_fit)
    p.add_argument("--theta-prior", choices=THETA_PRIOR_PRESETS, default=study.theta_prior_preset)
    p.add_argument("--informative-mean", type=float, default=study.informative_mean)
    p.add_argument("--informative-precision", type=float, default=study.informative_precision)
    p.add_argument("--level", type=float, default=study.nominal_level)
    p.add_argument("--grid-n", type=int, default=study.grid_n)
    p.add_argument("--domain-size", type=float, default=study.domain_size)
    p.add_argument("--self-test", action="store_true", default=study.self_test)
    p.add_argument("--threads", type=int, default=study.threads,
                   help="replicates in this many forked worker processes (Linux; serial elsewhere)")
    _add_common(p)
    p.set_defaults(func=cmd_simstudy, seed=study.seed)

    p = sub.add_parser("report", help="criteria comparison CSV across fits")
    p.add_argument("--fits", nargs="+", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = _parse_args(build_parser(), argv)
        return args.func(args)
    except (LgcpThinError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
