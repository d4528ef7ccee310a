"""Full-Bayes fitting of thinned Cox process models.

Two observation models share one machinery: the *naive* model regresses the
observed intensity on covariates plus a latent Matern field, and the *VSE*
(varying sampling effort) model adds the known-form access offset
``log q(s) = -zeta d(s)^2 / 2`` with ``zeta = exp(theta)`` treated as an
extra hyperparameter.

Inference is a nested Laplace approximation: for each node of a grid in
hyperparameter space the joint mode of (field, coefficients) is found by
Newton iterations, a Gaussian approximation is formed there, and nodes are
weighted by their Laplace-approximated marginal likelihood.  Posterior
marginals are Gaussian mixtures (coefficients) or interpolated grid
marginals (hyperparameters).  A Metropolis-within-Gibbs sampler over the
same posterior serves as a validation oracle on small instances.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, minimize
from scipy.stats import norm

from lgcpthin.cholesky import BorderedPrecision
from lgcpthin.errors import FitError, NotSpdError
from lgcpthin.geo import Grid, PointPattern, RasterGrid, RoadNetwork, distances_to_roads, distance_raster
from lgcpthin.grf import GmrfPrecision, MaternParams, PcPriorSpec, _operators, extension_margin, pc_prior_logdensity
from lgcpthin.pointprocess import IntegrationScheme

__all__ = [
    "ChainConfig", "FitResult", "HyperNode", "McmcResult", "ModelSpec",
    "NormalPrior", "fit", "gelman_rubin", "hyper_grid", "mcmc_fit",
    "predict_intensity",
]


@dataclass(frozen=True)
class NormalPrior:
    mean: float
    precision: float

    def logpdf(self, x: float) -> float:
        return 0.5 * math.log(self.precision / (2 * math.pi)) \
            - 0.5 * self.precision * (x - self.mean) ** 2


@dataclass(frozen=True)
class ModelSpec:
    """Everything that determines a fit, given data.

    ``zeta_fixed`` pins the thinning rate instead of estimating it; the value
    0 encodes q = 1 everywhere, which reduces the VSE model to the naive one.
    """

    covariate_names: tuple[str, ...]
    use_vse: bool = False
    pc_prior: PcPriorSpec = PcPriorSpec()
    beta_prior: NormalPrior = NormalPrior(0.0, 0.01)
    theta_prior: NormalPrior = NormalPrior(1.0, 0.05)
    include_field: bool = True
    zeta_fixed: float | None = None
    extension_factor: float = 1.5
    grid_points_per_dim: int = 5
    grid_span_sd: float = 2.5
    mode_search_max_evals: int = 200
    newton_tol: float = 1e-6
    max_newton_iter: int = 50

    def hyper_names(self) -> tuple[str, ...]:
        names: list[str] = []
        if self.include_field:
            names += ["log_rho", "log_sigma"]
        if self.use_vse and self.zeta_fixed is None:
            names.append("theta")
        return tuple(names)


@dataclass(frozen=True)
class HyperNode:
    """One hyperparameter-grid node with its Gaussian latent approximation."""

    log_rho: float
    log_sigma: float
    theta: float  # nan when the model carries no free thinning rate
    laplace_log_marginal: float
    weight: float
    mode: np.ndarray = field(repr=False)
    curvature_weights: np.ndarray = field(repr=False)  # Poisson weights at the mode
    beta_mean: np.ndarray = field(repr=False)
    beta_cov: np.ndarray = field(repr=False)

    @property
    def zeta(self) -> float:
        return math.exp(self.theta) if np.isfinite(self.theta) else float("nan")


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------

class _ModelContext:
    """Fixed design of one fit: grids, design matrices, distances, priors."""

    def __init__(self, pattern: PointPattern, covariates: dict[str, RasterGrid],
                 roads: RoadNetwork | None, spec: ModelSpec):
        if len(pattern) == 0:
            raise ValueError("pattern must contain at least one point")
        if not spec.covariate_names:
            raise ValueError("at least one covariate is required")
        missing = [n for n in spec.covariate_names if n not in covariates]
        if missing:
            raise ValueError(f"covariates not supplied: {missing}")
        if spec.use_vse and roads is None:
            raise ValueError("the VSE model needs a road network")

        grid = covariates[spec.covariate_names[0]].grid
        for name in spec.covariate_names[1:]:
            if not covariates[name].grid.congruent(grid):
                raise ValueError(f"covariate {name!r} grid not congruent")
        self.spec = spec
        self.pattern = pattern
        self.grid = grid
        self.scheme = IntegrationScheme.from_grid(grid)
        self.n_points = len(pattern)
        self.n_cells = grid.n_cells

        # latent field lives on the extended grid; fixed margin per fit
        if spec.include_field:
            ref = MaternParams(sigma=1.0, rho=spec.pc_prior.rho_median)
            self.margin = extension_margin(grid, ref, spec.extension_factor)
        else:
            self.margin = 0
        self.ext_grid = grid.extended(self.margin)
        self.n_field = self.ext_grid.n_cells if spec.include_field else 0
        self.ops = _operators(self.ext_grid) if spec.include_field else None

        # design: intercept + covariates at cells and at points.  Points use
        # their containing cell's value, the same functional the integral
        # term sees; a finer point-level functional (interpolation, exact
        # lookup on a finer raster) either biases the coefficient against the
        # midpoint integral or, mixed with a different field rule, leaves the
        # penalized objective unbounded along weak-prior directions.
        cells = [np.ones(self.n_cells)]
        pts = [np.ones(self.n_points)]
        for name in spec.covariate_names:
            rast = covariates[name]
            cells.append(rast.values.ravel())
            pts.append(rast.value_at(pattern.points))
        self.x_nodes = np.column_stack(cells)
        self.x_points = np.column_stack(pts)
        self.n_coef = self.x_nodes.shape[1]

        if spec.include_field:
            self.sel_idx = self._selection_indices()
            self.obs_idx = self._point_cells(pattern.points)
            self._field_pull = np.bincount(self.obs_idx, minlength=self.n_field).astype(float)
        else:
            self.sel_idx = None
            self.obs_idx = None
            self._field_pull = None
        self._coef_pull = self.x_points.sum(axis=0)

        if spec.use_vse:
            self.dist_nodes = distance_raster(grid, roads).values.ravel()
            self.dist_points = distances_to_roads(pattern.points, roads)
        else:
            self.dist_nodes = None
            self.dist_points = None

        self.param_names = ["beta0"] + list(spec.covariate_names)

    def _selection_indices(self) -> np.ndarray:
        """Extended-grid flat index of each domain cell center."""
        m = self.margin
        jj, ii = np.divmod(np.arange(self.n_cells), self.grid.nx)
        return (jj + m) * self.ext_grid.nx + (ii + m)

    def _point_cells(self, points: np.ndarray) -> np.ndarray:
        """Point -> containing domain cell, as extended-grid node indices.

        Matches the functional the integral term sees; only domain nodes are
        referenced, so every node feeding a point predictor also faces the
        exponential integral barrier.
        """
        i, j = self.grid.cell_index(points)
        m = self.margin
        return (j + m) * self.ext_grid.nx + (i + m)

    # -- linear predictor pieces -------------------------------------------

    def offsets(self, zeta: float) -> tuple[np.ndarray, np.ndarray]:
        """log q at integration nodes (raster distances) and points (exact)."""
        if not self.spec.use_vse or zeta == 0.0:
            return (np.zeros(self.n_cells), np.zeros(self.n_points))
        return (-zeta * self.dist_nodes ** 2 / 2.0,
                -zeta * self.dist_points ** 2 / 2.0)

    def eta(self, u: np.ndarray, offsets) -> tuple[np.ndarray, np.ndarray]:
        """Linear predictor at nodes and points for latent vector u."""
        off_n, off_p = offsets
        beta = u[self.n_field:]
        eta_n = self.x_nodes @ beta + off_n
        eta_p = self.x_points @ beta + off_p
        if self.spec.include_field:
            omega = u[: self.n_field]
            eta_n = eta_n + omega[self.sel_idx]
            eta_p = eta_p + omega[self.obs_idx]
        return eta_n, eta_p

    def eta_many(self, u: np.ndarray, offsets) -> tuple[np.ndarray, np.ndarray]:
        """Same for a (n, S) matrix of latent draws; returns (cells, S), (points, S)."""
        off_n, off_p = offsets
        beta = u[self.n_field:, :]
        eta_n = self.x_nodes @ beta + off_n[:, None]
        eta_p = self.x_points @ beta + off_p[:, None]
        if self.spec.include_field:
            omega = u[: self.n_field, :]
            eta_n = eta_n + omega[self.sel_idx, :]
            eta_p = eta_p + omega[self.obs_idx, :]
        return eta_n, eta_p

    def loglik(self, u: np.ndarray, offsets) -> float:
        eta_n, eta_p = self.eta(u, offsets)
        with np.errstate(over="ignore"):
            integral = float(self.scheme.weights @ np.exp(eta_n))
        return -integral + float(eta_p.sum())

    def loglik_grad(self, u: np.ndarray, offsets) -> np.ndarray:
        eta_n, _ = self.eta(u, offsets)
        with np.errstate(over="ignore"):
            lam = self.scheme.weights * np.exp(eta_n)
        grad_beta = -self.x_nodes.T @ lam + self._coef_pull
        if not self.spec.include_field:
            return grad_beta
        grad_omega = self._field_pull.copy()
        grad_omega[self.sel_idx] -= lam  # sel_idx hits each field node at most once
        return np.concatenate([grad_omega, grad_beta])

    def field_precision(self, log_rho: float, log_sigma: float) -> GmrfPrecision | None:
        """The field prior at (rho, sigma); None for a model without a field."""
        if not self.spec.include_field:
            return None
        params = MaternParams(sigma=math.exp(log_sigma), rho=math.exp(log_rho))
        return self.ops.assemble(params)

    def prior_quad_and_grad(self, u, prior: GmrfPrecision | None):
        """-1/2 u' Q u (field + coefficient blocks) and its gradient."""
        beta = u[self.n_field:]
        prec_b = self.spec.beta_prior.precision
        val = -0.5 * prec_b * float(beta @ beta)
        grad_beta = -prec_b * beta
        if self.n_field:
            omega = u[: self.n_field]
            q_omega = prior.matvec(omega)
            val += -0.5 * float(omega @ q_omega)
            return val, np.concatenate([-q_omega, grad_beta])
        return val, grad_beta

    def hessian(self, curvature: np.ndarray, prior: GmrfPrecision | None) -> BorderedPrecision:
        """Negated Hessian of the penalized objective at Poisson weights
        ``curvature = w_i exp(eta_i)``; SPD by construction."""
        prec_b = self.spec.beta_prior.precision
        hbb = self.x_nodes.T @ (curvature[:, None] * self.x_nodes) + prec_b * np.eye(self.n_coef)
        if prior is None:
            return BorderedPrecision(None, np.zeros((0, self.n_coef)), hbb)
        hwb = np.zeros((self.n_field, self.n_coef))
        hwb[self.sel_idx] = curvature[:, None] * self.x_nodes
        hw = prior.banded.copy()
        hw[0, self.sel_idx] += curvature
        return BorderedPrecision(hw, hwb, hbb)

    def hyper_log_prior(self, v: np.ndarray) -> float:
        """Prior density of the hyper vector, with log-scale Jacobians."""
        spec = self.spec
        names = spec.hyper_names()
        total = 0.0
        vals = dict(zip(names, v))
        if "log_rho" in vals:
            rho = math.exp(vals["log_rho"])
            sigma = math.exp(vals["log_sigma"])
            total += pc_prior_logdensity(rho, sigma, spec.pc_prior)
            total += vals["log_rho"] + vals["log_sigma"]  # Jacobians
        if "theta" in vals:
            total += spec.theta_prior.logpdf(vals["theta"])
        return total

    def hyper_start(self) -> np.ndarray:
        spec = self.spec
        start = []
        if spec.include_field:
            start += [math.log(spec.pc_prior.rho_median), math.log(spec.pc_prior.sigma_median)]
        if spec.use_vse and spec.zeta_fixed is None:
            start.append(spec.theta_prior.mean)
        return np.array(start)

    def hyper_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Generous box constraints keeping hyper search numerically sane."""
        spec = self.spec
        lo, hi = [], []
        if spec.include_field:
            extent = max(self.grid.nx, self.grid.ny) * self.grid.cell_size
            lo += [math.log(0.5 * self.grid.cell_size), -6.0]
            hi += [math.log(20.0 * extent), 6.0]
        if spec.use_vse and spec.zeta_fixed is None:
            lo.append(-12.0)
            hi.append(12.0)
        return np.array(lo), np.array(hi)

    def zeta_of(self, v: np.ndarray) -> float:
        spec = self.spec
        if not spec.use_vse:
            return 0.0
        if spec.zeta_fixed is not None:
            return spec.zeta_fixed
        return math.exp(v[-1])


# ---------------------------------------------------------------------------
# Inner Newton optimization and Laplace marginal
# ---------------------------------------------------------------------------

def _newton_mode(ctx: _ModelContext, prior: GmrfPrecision | None, offsets, u0: np.ndarray):
    """Maximize loglik + log prior over the latent vector.

    Returns (mode, hessian, curvature weights, objective). The objective must
    strictly increase on every accepted step (halving line search).
    """
    spec = ctx.spec

    def objective(u):
        val, grad = ctx.prior_quad_and_grad(u, prior)
        return ctx.loglik(u, offsets) + val, grad

    u = u0.copy()
    f_val, prior_grad = objective(u)
    if not np.isfinite(f_val):
        u = np.zeros_like(u0)
        f_val, prior_grad = objective(u)
    for _ in range(spec.max_newton_iter):
        grad = ctx.loglik_grad(u, offsets) + prior_grad
        if np.max(np.abs(grad)) < spec.newton_tol:
            break
        eta_n, _ = ctx.eta(u, offsets)
        with np.errstate(over="ignore"):
            curvature = ctx.scheme.weights * np.exp(np.minimum(eta_n, 500.0))
        hess = ctx.hessian(curvature, prior)
        step = hess.solve(grad)
        accepted = False
        t = 1.0
        for _ in range(30):
            u_new = u + t * step
            f_new, prior_grad_new = objective(u_new)
            if np.isfinite(f_new) and f_new > f_val:
                u, f_val, prior_grad = u_new, f_new, prior_grad_new
                accepted = True
                break
            t *= 0.5
        if not accepted:
            grad = ctx.loglik_grad(u, offsets) + prior_grad
            if np.max(np.abs(grad)) < 1e-3:
                break  # at numerical optimum; gradient already negligible
            raise FitError("Newton line search failed to increase the objective")
    else:
        grad = ctx.loglik_grad(u, offsets) + prior_grad
        if np.max(np.abs(grad)) >= spec.newton_tol * 100:
            raise FitError(
                f"Newton did not converge in {spec.max_newton_iter} iterations "
                f"(|grad|_max = {np.max(np.abs(grad)):.3e})")
    eta_n, _ = ctx.eta(u, offsets)
    with np.errstate(over="ignore"):
        curvature = ctx.scheme.weights * np.exp(np.minimum(eta_n, 500.0))
    hess = ctx.hessian(curvature, prior)
    return u, hess, curvature, f_val


def _laplace_at(ctx: _ModelContext, v: np.ndarray, warm: np.ndarray | None):
    """Laplace log marginal and node data at hyper vector v.

    Marginal = penalized objective at the mode + 1/2 log det Q_prior
    - 1/2 log det H + hyper prior; the 2 pi factors cancel exactly.
    """
    spec = ctx.spec
    if spec.include_field:
        try:
            prior = ctx.field_precision(v[0], v[1])
        except (ValueError, OverflowError):
            return None
        logdet_q = prior.logdet()
        if not math.isfinite(logdet_q):
            return None
    else:
        prior = None
        logdet_q = 0.0
    logdet_q += ctx.n_coef * math.log(spec.beta_prior.precision)
    zeta = ctx.zeta_of(v)
    offsets = ctx.offsets(zeta)
    u0 = warm if warm is not None else np.zeros(ctx.n_field + ctx.n_coef)
    try:
        mode, hess, curvature, f_val = _newton_mode(ctx, prior, offsets, u0)
    except (FitError, NotSpdError):
        return None
    lm = f_val + 0.5 * logdet_q - 0.5 * hess.logdet() + ctx.hyper_log_prior(v)
    return {
        "log_marginal": lm,
        "mode": mode,
        "curvature": curvature,
        "beta_mean": mode[ctx.n_field:].copy(),
        "beta_cov": hess.coef_cov(),
        "zeta": zeta,
    }


# ---------------------------------------------------------------------------
# Hyperparameter grid
# ---------------------------------------------------------------------------

def _with_axis(v: np.ndarray, axis: int, value: float) -> np.ndarray:
    out = v.copy()
    out[axis] = value
    return out


@dataclass
class HyperGrid:
    """Nodes, log marginals, and normalized weights over hyper space."""

    nodes: np.ndarray          # (m, d)
    log_marginals: np.ndarray  # (m,)
    weights: np.ndarray        # (m,), sums to 1
    mode: np.ndarray           # (d,)
    spread: np.ndarray         # (d,) approximate posterior sd per dimension
    diagnostics: dict


def hyper_grid(log_marginal, start: np.ndarray, n_points: int = 5,
               span_sd: float = 2.5, max_evals: int = 200,
               fallback_spread: float = 0.75,
               prescan: dict[int, np.ndarray] | None = None) -> HyperGrid:
    """Locate the hyper posterior mode and lay a regular grid around it.

    ``log_marginal`` maps a hyper vector to its Laplace log marginal (or
    ``-inf`` where it cannot be evaluated).  Mode search is derivative-free
    (Nelder-Mead); the grid spans ``+- span_sd`` approximate posterior
    standard deviations per dimension, obtained from a finite-difference
    Hessian at the mode.  On optimizer failure a fixed grid centered at
    ``start`` is used and reported in the diagnostics.

    ``prescan`` maps a dimension index to candidate offsets from ``start``;
    the best candidate seeds the search.  Useful for weakly identified
    dimensions (the thinning rate on lightly thinned data) where a cold
    simplex can strand in a flat region.
    """
    start = np.atleast_1d(np.asarray(start, dtype=float))
    dim = start.size
    diagnostics: dict = {"fallback": False, "n_evals": 0}

    cache: dict[tuple, float] = {}

    def f(v):
        key = tuple(np.round(v, 10))
        if key not in cache:
            cache[key] = float(log_marginal(np.asarray(v)))
            diagnostics["n_evals"] += 1
        return cache[key]

    if prescan:
        for axis, offsets in prescan.items():
            best = max(offsets, key=lambda off: f(_with_axis(start, axis, start[axis] + off)))
            start = _with_axis(start, axis, start[axis] + best)

    center = start
    spread = np.full(dim, fallback_spread)
    try:
        simplex = np.vstack([start] + [_with_axis(start, i, start[i] + 0.6) for i in range(dim)])
        res = minimize(lambda v: -f(v), start, method="Nelder-Mead",
                       options={"maxfev": max_evals, "xatol": 0.05, "fatol": 0.02,
                                "initial_simplex": simplex})
        if not np.isfinite(res.fun):
            raise FitError("mode search ended at a non-finite marginal")
        center = np.atleast_1d(res.x)
        # central-difference Hessian of the log marginal at the mode
        h = 0.15
        hess = np.zeros((dim, dim))
        f0 = f(center)
        for i in range(dim):
            ei = np.zeros(dim); ei[i] = h
            hess[i, i] = (f(center + ei) - 2 * f0 + f(center - ei)) / h ** 2
            for j in range(i + 1, dim):
                ej = np.zeros(dim); ej[j] = h
                hess[i, j] = hess[j, i] = (
                    f(center + ei + ej) - f(center + ei - ej)
                    - f(center - ei + ej) + f(center - ei - ej)) / (4 * h * h)
        cov = np.linalg.inv(-hess)
        if np.any(np.diag(cov) <= 0) or not np.all(np.isfinite(cov)):
            raise FitError("non-concave finite-difference Hessian at the mode")
        spread = np.sqrt(np.diag(cov))
    except (FitError, np.linalg.LinAlgError) as exc:
        # keep the best center found; only the spread falls back
        diagnostics["fallback"] = True
        diagnostics["reason"] = str(exc)
        spread = np.full(dim, fallback_spread)
    # flat or cliff-edged marginals give absurd curvature scales; the grid
    # stays informative with the spread boxed to a sane band
    spread = np.clip(spread, 0.05, 3.0)

    offsets = np.linspace(-span_sd, span_sd, n_points)
    axes = [center[i] + offsets * spread[i] for i in range(dim)]
    nodes = np.array(list(itertools.product(*axes))) if dim else np.zeros((1, 0))
    lms = np.array([f(v) for v in nodes])
    finite = np.isfinite(lms)
    if not finite.any():
        raise FitError("no hyper grid node has a finite Laplace marginal")
    shifted = np.where(finite, lms - lms[finite].max(), -np.inf)
    w = np.exp(shifted)
    weights = w / w.sum()
    return HyperGrid(nodes, lms, weights, center, spread, diagnostics)


# ---------------------------------------------------------------------------
# Posterior marginals
# ---------------------------------------------------------------------------

class _GridMarginal:
    """1-D posterior marginal of a hyperparameter from its grid weights.

    The log weight profile over the (few) axis values is interpolated with a
    cubic spline on a fine grid, exponentiated, and normalized; summaries and
    inverse-CDF draws come from the resulting discrete distribution.
    """

    def __init__(self, axis_values: np.ndarray, axis_weights: np.ndarray,
                 transform=np.exp):
        order = np.argsort(axis_values)
        x = axis_values[order]
        w = np.maximum(axis_weights[order], 1e-300)
        logw = np.log(w)
        logw = np.maximum(logw, logw.max() - 40.0)
        if x.size >= 3:
            spline = CubicSpline(x, logw)
            pad = 0.5 * (x[1] - x[0])
            fine = np.linspace(x[0] - pad, x[-1] + pad, 512)
            logp = spline(fine)
        else:
            fine = x
            logp = logw
        p = np.exp(logp - logp.max())
        self.x = fine
        self.p = p / p.sum()
        self.cdf = np.cumsum(self.p)
        self.values = transform(fine)

    def mean(self) -> float:
        return float(self.p @ self.values)

    def sd(self) -> float:
        m = self.mean()
        return math.sqrt(max(float(self.p @ (self.values - m) ** 2), 0.0))

    def quantile(self, q) -> np.ndarray:
        idx = np.searchsorted(self.cdf, np.asarray(q), side="left")
        return self.values[np.clip(idx, 0, self.values.size - 1)]

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.uniform(size=size)
        idx = np.searchsorted(self.cdf, u, side="left")
        return self.values[np.clip(idx, 0, self.values.size - 1)]


def _mixture_quantile(q: float, means, sds, weights) -> float:
    lo = float(np.min(means - 8 * sds))
    hi = float(np.max(means + 8 * sds))

    def cdf(x):
        return float(weights @ norm.cdf((x - means) / sds)) - q

    return brentq(cdf, lo, hi, xtol=1e-10)


# ---------------------------------------------------------------------------
# Fit result
# ---------------------------------------------------------------------------

class FitResult:
    """Posterior approximation: hyper nodes, per-node Gaussians, summaries."""

    def __init__(self, spec: ModelSpec, nodes: list[HyperNode],
                 context: _ModelContext, hyper_diagnostics: dict):
        self.spec = spec
        self.nodes = nodes
        self.hyper_diagnostics = hyper_diagnostics
        self._ctx = context
        self.param_names = list(context.param_names)
        self.hyper_param_names = [
            {"log_rho": "rho", "log_sigma": "sigma", "theta": "zeta"}[h]
            for h in spec.hyper_names()]
        self._hyper_marginals = self._build_hyper_marginals()
        self.summaries = self._build_summaries()
        self.scores: dict | None = None

    # -- construction helpers ----------------------------------------------

    def _hyper_matrix(self) -> np.ndarray:
        cols = []
        names = self.spec.hyper_names()
        for name in names:
            if name == "log_rho":
                cols.append([n.log_rho for n in self.nodes])
            elif name == "log_sigma":
                cols.append([n.log_sigma for n in self.nodes])
            else:
                cols.append([n.theta for n in self.nodes])
        return np.array(cols).T if cols else np.zeros((len(self.nodes), 0))

    def _build_hyper_marginals(self) -> dict[str, _GridMarginal]:
        out = {}
        mat = self._hyper_matrix()
        weights = np.array([n.weight for n in self.nodes])
        for k, name in enumerate(self.spec.hyper_names()):
            axis = mat[:, k]
            uniq = np.unique(np.round(axis, 12))
            w = np.array([weights[np.isclose(axis, val)].sum() for val in uniq])
            out[self.hyper_param_names[k]] = _GridMarginal(uniq, w)
        return out

    def _build_summaries(self) -> dict[str, dict[str, float]]:
        summaries = {}
        weights = np.array([n.weight for n in self.nodes])
        means = np.array([n.beta_mean for n in self.nodes])       # (m, p)
        sds = np.array([np.sqrt(np.diag(n.beta_cov)) for n in self.nodes])
        for j, name in enumerate(self.param_names):
            m = float(weights @ means[:, j])
            var = float(weights @ (sds[:, j] ** 2 + means[:, j] ** 2)) - m * m
            sd = math.sqrt(max(var, 0.0))
            qs = [
                _mixture_quantile(q, means[:, j], np.maximum(sds[:, j], 1e-12), weights)
                for q in (0.025, 0.5, 0.975)]
            summaries[name] = {"mean": m, "sd": sd,
                               "q025": qs[0], "q50": qs[1], "q975": qs[2]}
        for name, marg in self._hyper_marginals.items():
            q = marg.quantile([0.025, 0.5, 0.975])
            summaries[name] = {"mean": marg.mean(), "sd": marg.sd(),
                               "q025": float(q[0]), "q50": float(q[1]),
                               "q975": float(q[2])}
        return summaries

    # -- posterior access ----------------------------------------------------

    def node_zeta(self, k: int) -> float:
        """Effective thinning rate at node k (0 for the naive model)."""
        spec = self.spec
        if not spec.use_vse:
            return 0.0
        if spec.zeta_fixed is not None:
            return spec.zeta_fixed
        return self.nodes[k].zeta

    def credible_interval(self, name: str, level: float = 0.95) -> tuple[float, float]:
        s = self.summaries[name]
        if abs(level - 0.95) < 1e-12:
            return (s["q025"], s["q975"])
        lo, hi = (1 - level) / 2, 1 - (1 - level) / 2
        if name in self._hyper_marginals:
            marg = self._hyper_marginals[name]
            q = marg.quantile([lo, hi])
            return (float(q[0]), float(q[1]))
        j = self.param_names.index(name)
        weights = np.array([n.weight for n in self.nodes])
        means = np.array([n.beta_mean[j] for n in self.nodes])
        sds = np.array([max(math.sqrt(n.beta_cov[j, j]), 1e-12) for n in self.nodes])
        return (_mixture_quantile(lo, means, sds, weights),
                _mixture_quantile(hi, means, sds, weights))

    def draw_parameter(self, name: str, rng: np.random.Generator, size: int) -> np.ndarray:
        """Posterior draws of one scalar parameter (coefficient or hyper)."""
        if name in self._hyper_marginals:
            return self._hyper_marginals[name].draw(rng, size)
        j = self.param_names.index(name)
        weights = np.array([n.weight for n in self.nodes])
        ks = rng.choice(len(self.nodes), size=size, p=weights)
        means = np.array([self.nodes[k].beta_mean[j] for k in ks])
        sds = np.array([math.sqrt(max(self.nodes[k].beta_cov[j, j], 0.0)) for k in ks])
        return means + sds * rng.standard_normal(size)

    def sample_latent(self, rng: np.random.Generator, size: int):
        """Joint draws of (field, coefficients) from the node mixture.

        Returns (U, node_index) with U of shape (n_field + n_coef, size).
        Draws are grouped by node so each node's Gaussian is factored once.
        """
        ctx = self._ctx
        weights = np.array([n.weight for n in self.nodes])
        counts = rng.multinomial(size, weights)
        blocks = []
        node_idx = []
        for k, cnt in enumerate(counts):
            if cnt == 0:
                continue
            node = self.nodes[k]
            hess = ctx.hessian(node.curvature_weights,
                               ctx.field_precision(node.log_rho, node.log_sigma))
            blocks.append(node.mode[:, None] + hess.sample(rng, cnt))
            node_idx.extend([k] * cnt)
        u = np.hstack(blocks)
        order = rng.permutation(size)
        return u[:, order], np.asarray(node_idx)[order]

    def summary_table(self) -> list[dict]:
        rows = []
        for name in self.param_names + self.hyper_param_names:
            s = self.summaries[name]
            rows.append({"parameter": name, **{k: float(v) for k, v in s.items()}})
        return rows

    # -- persistence ---------------------------------------------------------

    def save(self, directory) -> None:
        """Write the JSON summary plus the node arrays needed to rebuild."""
        import os

        os.makedirs(directory, exist_ok=True)
        doc = {
            "model": "vse" if self.spec.use_vse else "naive",
            "parameters": self.summary_table(),
            "hyper_diagnostics": {k: v for k, v in self.hyper_diagnostics.items()
                                  if isinstance(v, (str, int, float, bool))},
            "scores": self.scores,
            "n_nodes": len(self.nodes),
        }
        with open(os.path.join(directory, "fit.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
        np.savez_compressed(
            os.path.join(directory, "fit_nodes.npz"),
            log_rho=np.array([n.log_rho for n in self.nodes]),
            log_sigma=np.array([n.log_sigma for n in self.nodes]),
            theta=np.array([n.theta for n in self.nodes]),
            log_marginal=np.array([n.laplace_log_marginal for n in self.nodes]),
            weight=np.array([n.weight for n in self.nodes]),
            mode=np.array([n.mode for n in self.nodes]),
            curvature=np.array([n.curvature_weights for n in self.nodes]),
        )

    @classmethod
    def load(cls, directory, pattern, covariates, roads, spec: ModelSpec) -> "FitResult":
        """Rebuild a saved fit; data and spec must match the original run."""
        import os

        ctx = _ModelContext(pattern, covariates, roads, spec)
        data = np.load(os.path.join(directory, "fit_nodes.npz"))
        nodes = []
        for k in range(data["weight"].size):
            mode = data["mode"][k]
            beta_mean = mode[ctx.n_field:]
            hess = ctx.hessian(data["curvature"][k],
                               ctx.field_precision(data["log_rho"][k], data["log_sigma"][k]))
            nodes.append(HyperNode(
                log_rho=float(data["log_rho"][k]),
                log_sigma=float(data["log_sigma"][k]),
                theta=float(data["theta"][k]),
                laplace_log_marginal=float(data["log_marginal"][k]),
                weight=float(data["weight"][k]),
                mode=mode,
                curvature_weights=data["curvature"][k],
                beta_mean=beta_mean,
                beta_cov=hess.coef_cov(),
            ))
        return cls(spec, nodes, ctx, {"loaded": True})


# ---------------------------------------------------------------------------
# Fitting entry point
# ---------------------------------------------------------------------------

def fit(pattern: PointPattern, covariates: dict[str, RasterGrid],
        roads: RoadNetwork | None, spec: ModelSpec) -> FitResult:
    """Fit the naive or VSE model; see the module docstring for the method.

    ``covariates`` defines the computational grid: integration nodes are its
    cell centers and the latent field lives on its boundary-extended copy.
    """
    ctx = _ModelContext(pattern, covariates, roads, spec)

    # initialize coefficients from a field-free GLM fit
    glm_spec = replace(spec, include_field=False, use_vse=spec.use_vse and spec.zeta_fixed is not None)
    glm_ctx = _ModelContext(pattern, covariates, roads, glm_spec)
    start_zeta = ctx.zeta_of(ctx.hyper_start()) if spec.use_vse else 0.0
    glm_mode, _, _, _ = _newton_mode(
        glm_ctx, None, glm_ctx.offsets(start_zeta), np.zeros(glm_ctx.n_coef))
    warm = {"u": np.concatenate([np.zeros(ctx.n_field), glm_mode])}

    cache: dict[tuple, dict] = {}
    lo, hi = ctx.hyper_bounds()

    def log_marginal(v: np.ndarray) -> float:
        key = tuple(np.round(v, 10))
        if key in cache:
            return cache[key]["log_marginal"]
        if np.any(v < lo) or np.any(v > hi):
            cache[key] = {"log_marginal": -np.inf}
            return -np.inf
        result = _laplace_at(ctx, v, warm["u"])
        if result is None:
            cache[key] = {"log_marginal": -np.inf}
            return -np.inf
        warm["u"] = result["mode"]
        cache[key] = result
        return result["log_marginal"]

    hyper_names = spec.hyper_names()
    if not hyper_names:
        # no free hyperparameters: single Laplace fit (field-free GLM)
        result = _laplace_at(ctx, np.zeros(0), warm["u"])
        if result is None:
            raise FitError("Laplace fit failed")
        node = HyperNode(
            log_rho=float("nan"), log_sigma=float("nan"),
            theta=math.log(spec.zeta_fixed) if (spec.use_vse and spec.zeta_fixed) else float("nan"),
            laplace_log_marginal=result["log_marginal"], weight=1.0,
            mode=result["mode"], curvature_weights=result["curvature"],
            beta_mean=result["beta_mean"], beta_cov=result["beta_cov"])
        return FitResult(spec, [node], ctx, {"fallback": False, "n_evals": 1})

    prescan = None
    if spec.use_vse and spec.zeta_fixed is None:
        # the thinning rate is weakly identified on lightly thinned data;
        # scan its axis first so the simplex starts in the right basin
        prescan = {len(hyper_names) - 1: np.array([-8.0, -6.0, -4.0, -2.0, 0.0, 2.0])}
    grid = hyper_grid(log_marginal, ctx.hyper_start(),
                      n_points=spec.grid_points_per_dim,
                      span_sd=spec.grid_span_sd,
                      max_evals=spec.mode_search_max_evals,
                      prescan=prescan)

    nodes: list[HyperNode] = []
    for k in range(grid.nodes.shape[0]):
        if grid.weights[k] <= 0.0:
            continue
        v = grid.nodes[k]
        key = tuple(np.round(v, 10))
        log_marginal(v)
        result = cache[key]
        if "mode" not in result:
            continue
        vals = dict(zip(hyper_names, v))
        theta = vals.get("theta", float("nan"))
        if spec.use_vse and spec.zeta_fixed is not None and spec.zeta_fixed > 0:
            theta = math.log(spec.zeta_fixed)
        nodes.append(HyperNode(
            log_rho=vals.get("log_rho", float("nan")),
            log_sigma=vals.get("log_sigma", float("nan")),
            theta=theta,
            laplace_log_marginal=result["log_marginal"],
            weight=float(grid.weights[k]),
            mode=result["mode"],
            curvature_weights=result["curvature"],
            beta_mean=result["beta_mean"],
            beta_cov=result["beta_cov"]))
    if not nodes:
        raise FitError("all hyperparameter nodes failed")
    total = sum(n.weight for n in nodes)
    nodes = [replace(n, weight=n.weight / total) for n in nodes]
    return FitResult(spec, nodes, ctx, grid.diagnostics)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def summarize_log_intensity_draws(eta: np.ndarray, grid: Grid):
    """Per-cell median and standard deviation rasters of log-intensity draws."""
    med = np.median(eta, axis=1).reshape(grid.ny, grid.nx)
    sd = np.std(eta, axis=1, ddof=1).reshape(grid.ny, grid.nx)
    return RasterGrid(grid, med), RasterGrid(grid, sd)


def predict_intensity(result: FitResult, target_grid: Grid | None = None,
                      draws: int = 1000, seed=0):
    """Posterior median and sd rasters of the potential log intensity.

    The access factor q is deliberately excluded: predictions are of the
    species intensity, not the observation intensity, so naive and VSE
    surfaces are directly comparable.
    """
    ctx = result._ctx
    if target_grid is not None and not target_grid.congruent(ctx.grid):
        raise ValueError("target grid must be congruent with the fit's covariate grid")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u, _ = result.sample_latent(rng, draws)
    eta_n, _ = ctx.eta_many(u, (np.zeros(ctx.n_cells), np.zeros(ctx.n_points)))
    return summarize_log_intensity_draws(eta_n, ctx.grid)


# ---------------------------------------------------------------------------
# MCMC oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainConfig:
    n_iter: int = 4000
    n_burn: int = 2000
    step_size: float = 0.2
    hyper_step: float = 0.4
    adapt: bool = True
    field_thin: int = 10


@dataclass
class McmcResult:
    beta: np.ndarray            # (chains, n_keep, p)
    hypers: np.ndarray          # (chains, n_keep, d)
    hyper_names: tuple[str, ...]
    field_thinned: np.ndarray   # (chains, n_keep//thin, n_field)
    accept_latent: np.ndarray
    accept_hyper: np.ndarray
    step_sizes: np.ndarray
    warnings: list[str]

    def beta_mean(self) -> np.ndarray:
        return self.beta.reshape(-1, self.beta.shape[-1]).mean(axis=0)

    def beta_sd(self) -> np.ndarray:
        return self.beta.reshape(-1, self.beta.shape[-1]).std(axis=0, ddof=1)


def gelman_rubin(chains: np.ndarray) -> float:
    """Split-chain potential scale reduction factor for one scalar series.

    ``chains`` has shape (n_chains, n_iterations).
    """
    m, n = chains.shape
    half = n // 2
    split = chains[:, : 2 * half].reshape(2 * m, half)
    w = split.var(axis=1, ddof=1).mean()
    b = half * split.mean(axis=1).var(ddof=1)
    var_hat = (half - 1) / half * w + b / half
    return float(np.sqrt(var_hat / w))


def _log_field_prior(omega, prior: GmrfPrecision | None) -> float:
    """log N(omega; 0, Q^-1) up to the 2 pi factor; -inf where Q is singular."""
    if prior is None:
        return 0.0
    logdet = prior.logdet()
    if not math.isfinite(logdet):
        return -math.inf
    return 0.5 * logdet - 0.5 * float(omega @ prior.matvec(omega))


def mcmc_fit(pattern: PointPattern, covariates: dict[str, RasterGrid],
             roads: RoadNetwork | None, spec: ModelSpec,
             chain_config: ChainConfig = ChainConfig(), chains: int = 4,
             seed=0, max_latent: int = 1000,
             fix_hypers: np.ndarray | None = None) -> McmcResult:
    """Metropolis-within-Gibbs sampler over the same posterior as :func:`fit`.

    Latent block (field, coefficients) moves by preconditioned MALA with the
    step size tuned to a 0.5-0.7 acceptance rate during burn-in; free
    hyperparameters move by random-walk Metropolis.  ``fix_hypers`` pins the
    hyper vector and disables its updates (conditional sampling).  Intended
    as a validation oracle, so instances are restricted to ``max_latent``
    latent nodes.
    """
    ctx = _ModelContext(pattern, covariates, roads, spec)
    n_latent = ctx.n_field + ctx.n_coef
    if n_latent > max_latent:
        raise ValueError(f"mcmc_fit is limited to {max_latent} latent nodes; got {n_latent}")
    hyper_names = spec.hyper_names()
    dim_h = 0 if fix_hypers is not None else len(hyper_names)
    rng_master = np.random.default_rng(seed)
    chain_seeds = rng_master.integers(0, 2 ** 63 - 1, size=chains)

    # shared preconditioner: Laplace Hessian at the prior-start hypers
    v0 = np.asarray(fix_hypers, dtype=float) if fix_hypers is not None else ctx.hyper_start()
    pre = _laplace_at(ctx, v0, None)
    if pre is None:
        raise FitError("could not build the MALA preconditioner")

    def field_prior(v_vec):
        return ctx.field_precision(*v_vec[:2]) if spec.include_field else None

    mass0 = ctx.hessian(pre["curvature"], field_prior(v0))
    mode0 = pre["mode"]

    cfg = chain_config
    n_keep = cfg.n_iter - cfg.n_burn
    thin = max(cfg.field_thin, 1)
    beta_out = np.zeros((chains, n_keep, ctx.n_coef))
    hyper_out = np.zeros((chains, n_keep, dim_h))
    field_out = np.zeros((chains, n_keep // thin, ctx.n_field))
    acc_latent = np.zeros(chains)
    acc_hyper = np.zeros(chains)
    steps = np.zeros(chains)
    warnings: list[str] = []

    for c in range(chains):
        rng = np.random.default_rng(chain_seeds[c])
        eps = cfg.step_size
        delta = cfg.hyper_step
        mass = mass0
        v = v0 + 0.1 * rng.standard_normal(dim_h) if dim_h else v0.copy()
        u = mode0 + 0.5 * mass.sample(rng, 1)[:, 0]

        prior = field_prior(v)
        offsets = ctx.offsets(ctx.zeta_of(v))

        def log_post_latent(u_vec):
            val, _ = ctx.prior_quad_and_grad(u_vec, prior)
            return ctx.loglik(u_vec, offsets) + val

        def grad_latent(u_vec):
            _, g_prior = ctx.prior_quad_and_grad(u_vec, prior)
            return ctx.loglik_grad(u_vec, offsets) + g_prior

        lp = log_post_latent(u)
        g = grad_latent(u)
        n_acc_l = n_acc_h = 0
        n_try_l = n_try_h = 0
        epoch_acc_l = epoch_acc_h = epoch_n = 0

        for it in range(cfg.n_iter):
            # --- preconditioned MALA on the latent block
            drift = 0.5 * eps * eps * mass.solve(g)
            mean_fwd = u + drift
            u_prop = mean_fwd + eps * mass.sample(rng, 1)[:, 0]
            lp_prop = log_post_latent(u_prop)
            if np.isfinite(lp_prop):
                g_prop = grad_latent(u_prop)
                mean_rev = u_prop + 0.5 * eps * eps * mass.solve(g_prop)
                d_fwd = u_prop - mean_fwd
                d_rev = u - mean_rev
                log_q = -(mass.quad_form(d_rev) - mass.quad_form(d_fwd)) / (2 * eps * eps)
                log_alpha = lp_prop - lp + log_q
            else:
                log_alpha = -np.inf
            n_try_l += 1
            accept = math.log(rng.uniform()) < log_alpha
            if accept:
                u, lp, g = u_prop, lp_prop, g_prop
                n_acc_l += 1
            epoch_acc_l += int(accept)

            # --- random-walk Metropolis on the hypers
            if dim_h:
                v_prop = v + delta * rng.standard_normal(dim_h)
                try:
                    prior_p = field_prior(v_prop)
                    offsets_p = ctx.offsets(ctx.zeta_of(v_prop))
                    omega = u[: ctx.n_field]
                    num = (ctx.loglik(u, offsets_p)
                           + _log_field_prior(omega, prior_p)
                           + ctx.hyper_log_prior(v_prop))
                    den = (ctx.loglik(u, offsets)
                           + _log_field_prior(omega, prior)
                           + ctx.hyper_log_prior(v))
                    log_alpha_h = num - den
                except (ValueError, OverflowError):
                    log_alpha_h = -np.inf
                n_try_h += 1
                accept_h = math.log(rng.uniform()) < log_alpha_h
                if accept_h:
                    v = v_prop
                    prior = prior_p
                    offsets = offsets_p
                    lp = log_post_latent(u)
                    g = grad_latent(u)
                    n_acc_h += 1
                epoch_acc_h += int(accept_h)

            # --- burn-in adaptation toward the 0.5-0.7 MALA band, one
            # bounded update per 50-iteration epoch (per-iteration updates
            # compound faster than rejections can register and run away)
            epoch_n += 1
            if cfg.adapt and it < cfg.n_burn and epoch_n == 50:
                eps *= math.exp(0.4 * (epoch_acc_l / 50 - 0.6))
                eps = float(np.clip(eps, 1e-4, 10.0))
                if dim_h:
                    delta *= math.exp(0.4 * (epoch_acc_h / 50 - 0.3))
                    delta = float(np.clip(delta, 1e-3, 10.0))
                epoch_acc_l = epoch_acc_h = epoch_n = 0

            # halfway through burn-in, re-precondition at the hypers the
            # chain actually visits; the start-of-chain mass can be badly
            # scaled when the hyper posterior sits far from its prior start
            if cfg.adapt and it == cfg.n_burn // 2 and spec.include_field:
                refreshed = _laplace_at(ctx, v, u)
                if refreshed is not None:
                    mass = ctx.hessian(refreshed["curvature"], prior)

            if it >= cfg.n_burn:
                k = it - cfg.n_burn
                beta_out[c, k] = u[ctx.n_field:]
                if dim_h:
                    hyper_out[c, k] = v
                if ctx.n_field and k % thin == 0 and k // thin < field_out.shape[1]:
                    field_out[c, k // thin] = u[: ctx.n_field]

        acc_latent[c] = n_acc_l / max(n_try_l, 1)
        acc_hyper[c] = n_acc_h / max(n_try_h, 1) if dim_h else float("nan")
        steps[c] = eps
        if not 0.1 <= acc_latent[c] <= 0.9:
            warnings.append(
                f"chain {c}: latent acceptance {acc_latent[c]:.2f} outside [0.1, 0.9]")
        if dim_h and not 0.1 <= acc_hyper[c] <= 0.9:
            warnings.append(
                f"chain {c}: hyper acceptance {acc_hyper[c]:.2f} outside [0.1, 0.9]")

    return McmcResult(beta_out, hyper_out, hyper_names, field_out,
                      acc_latent, acc_hyper, steps, warnings)
