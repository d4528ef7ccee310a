"""Full-Bayes fitting of thinned Cox process models.

Two observation models share one machinery: the *naive* model regresses the
observed intensity on covariates plus a latent Matern field, and the *VSE*
(varying sampling effort) model adds the known-form access offset
``log q(s) = -zeta d(s)^2 / 2`` with ``zeta = exp(theta)`` treated as an
extra hyperparameter.

Inference is a nested Laplace approximation: for each node of a grid in
hyperparameter space the joint mode of (field, coefficients) is found by
Newton iterations, a Gaussian approximation is formed there, and nodes are
weighted by their Laplace-approximated marginal likelihood.  Each evaluation
is one :class:`HyperNode`; the fit keeps the grid nodes with positive weight.
Posterior marginals are Gaussian mixtures (coefficients) or interpolated grid
marginals (hyperparameters).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, minimize
from scipy.stats import norm

from lgcpthin.cholesky import BorderedPrecision
from lgcpthin.errors import FitError, NotSpdError
from lgcpthin.geo import Grid, PointPattern, RasterGrid, RoadNetwork, distances_to_roads, distance_raster
from lgcpthin.grf import GmrfPrecision, MaternParams, PcPriorSpec, _LatticeOperators, extension_margin, pc_prior_logdensity
from lgcpthin.pointprocess import IntegrationScheme, _cox_loglik

__all__ = [
    "FitResult", "HyperNode", "ModelSpec", "NormalPrior", "fit", "hyper_grid",
    "predict_intensity",
]


def _check_precision(precision: float) -> None:
    if not (math.isfinite(precision) and precision > 0):
        raise ValueError(f"prior precision must be positive and finite, got {precision}")


@dataclass(frozen=True)
class NormalPrior:
    mean: float
    precision: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"prior mean must be finite, got {self.mean}")
        _check_precision(self.precision)

    def logpdf(self, x: float) -> float:
        return 0.5 * math.log(self.precision / (2 * math.pi)) \
            - 0.5 * self.precision * (x - self.mean) ** 2


@dataclass(frozen=True)
class ModelSpec:
    """Everything that determines a fit, given data.

    Each coefficient has a Normal(0, 1 / ``beta_precision``) prior.
    ``zeta_fixed`` pins the VSE model's thinning rate instead of estimating
    it; the value 0 encodes q = 1 everywhere, which reduces the VSE model to
    the naive one.
    """

    covariate_names: tuple[str, ...]
    use_vse: bool = False
    pc_prior: PcPriorSpec = PcPriorSpec()
    beta_precision: float = 0.01
    theta_prior: NormalPrior = NormalPrior(1.0, 0.05)
    zeta_fixed: float | None = None
    grid_points_per_dim: ClassVar[int] = 5  # hyper grid nodes per dimension

    def __post_init__(self):
        _check_precision(self.beta_precision)
        if self.zeta_fixed is not None and not (math.isfinite(self.zeta_fixed) and self.zeta_fixed >= 0):
            raise ValueError(f"zeta_fixed must be nonnegative and finite, got {self.zeta_fixed}")
        if self.zeta_fixed is not None and not self.use_vse:
            raise ValueError(f"zeta_fixed is read only by the VSE model, got {self.zeta_fixed} "
                             "with use_vse=False")

    def hyper_names(self) -> tuple[str, ...]:
        if self.use_vse and self.zeta_fixed is None:
            return ("log_rho", "log_sigma", "theta")
        return ("log_rho", "log_sigma")


@dataclass(frozen=True)
class HyperNode:
    """One Laplace evaluation: a hyper vector and the Gaussian latent
    approximation at it.

    ``hyper`` is ordered as ``spec.hyper_names()``; the thinning rate in
    force there is ``_ModelContext.zeta_of(hyper)``.  ``weight`` is the
    node's normalized mixture weight in a fit (0 before normalization).
    """

    hyper: np.ndarray
    laplace_log_marginal: float
    weight: float
    mode: np.ndarray = field(repr=False)
    curvature_weights: np.ndarray = field(repr=False)  # Poisson weights at the mode
    beta_cov: np.ndarray = field(repr=False)

    @property
    def beta_mean(self) -> np.ndarray:
        return self.mode[self.mode.size - self.beta_cov.shape[0]:]


# The latent field is padded by this many prior-median ranges per side: one
# range is where the Neumann boundary's variance inflation has died out, so
# more padding only costs factorization time.
_EXTENSION_FACTOR = 1.0
_NEWTON_TOL = 1e-6  # Newton stops once max |gradient| falls below this
_MAX_NEWTON_ITER = 50
_SPAN_SD = 2.5           # the hyper grid spans +- this many posterior sds per dimension
_MAX_EVALS = 200         # Nelder-Mead evaluation budget of the hyper mode search
_FALLBACK_SPREAD = 0.75  # hyper grid spread per dimension when the mode's Hessian fails


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
        self.grid = grid
        self.scheme = IntegrationScheme.from_grid(grid)
        self.n_points = len(pattern)
        self.n_cells = grid.n_cells

        # latent field lives on the extended grid; fixed margin per fit
        ref = MaternParams(sigma=1.0, rho=spec.pc_prior.rho_median)
        self.margin = extension_margin(grid, ref, _EXTENSION_FACTOR)
        self.ext_grid = grid.extended(self.margin)
        self.n_field = self.ext_grid.n_cells
        self.ops = _LatticeOperators(self.ext_grid)

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

        self.sel_idx = self._selection_indices()
        self.obs_idx = self._point_cells(pattern.points)
        self._field_pull = np.bincount(self.obs_idx, minlength=self.n_field).astype(float)
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

    def eta(self, u: np.ndarray, offsets=(0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
        """Linear predictor at nodes and points; u is a latent vector or (n, S) draws."""
        off_n, off_p = offsets
        omega, beta = u[: self.n_field], u[self.n_field:]
        eta_n = self.x_nodes @ beta + off_n + omega[self.sel_idx]
        eta_p = self.x_points @ beta + off_p + omega[self.obs_idx]
        return eta_n, eta_p

    def loglik(self, u: np.ndarray, offsets) -> float:
        eta_n, eta_p = self.eta(u, offsets)
        with np.errstate(over="ignore"):  # overflow gives -inf; the line search rejects it
            return _cox_loglik(self.scheme.weights, eta_n, eta_p)

    def loglik_grad(self, u: np.ndarray, offsets) -> np.ndarray:
        eta_n, _ = self.eta(u, offsets)
        with np.errstate(over="ignore"):
            lam = self.scheme.weights * np.exp(eta_n)
        grad_beta = -self.x_nodes.T @ lam + self._coef_pull
        grad_omega = self._field_pull.copy()
        grad_omega[self.sel_idx] -= lam  # sel_idx hits each field node at most once
        return np.concatenate([grad_omega, grad_beta])

    def prior_at(self, v) -> GmrfPrecision:
        """The field prior at hyper vector v = (log rho, log sigma, ...)."""
        return self.ops.assemble(MaternParams(sigma=math.exp(v[1]), rho=math.exp(v[0])))

    def log_post(self, u: np.ndarray, prior: GmrfPrecision, offsets):
        """Latent log-posterior loglik - u' Q u / 2 (up to a constant) and its prior gradient."""
        omega, beta = u[: self.n_field], u[self.n_field:]
        prec_b = self.spec.beta_precision
        q_omega = prior.matvec(omega)
        val = -0.5 * prec_b * float(beta @ beta) - 0.5 * float(omega @ q_omega)
        return self.loglik(u, offsets) + val, np.concatenate([-q_omega, -prec_b * beta])

    def curvature(self, u: np.ndarray, offsets) -> np.ndarray:
        """Poisson weights ``w_i exp(eta_i)``, capped so they stay finite."""
        eta_n, _ = self.eta(u, offsets)
        with np.errstate(over="ignore"):
            return self.scheme.weights * np.exp(np.minimum(eta_n, 500.0))

    def hessian(self, curvature: np.ndarray, prior: GmrfPrecision) -> BorderedPrecision:
        """Negated Hessian of the penalized objective at Poisson weights
        ``curvature = w_i exp(eta_i)``; SPD by construction."""
        prec_b = self.spec.beta_precision
        hbb = self.x_nodes.T @ (curvature[:, None] * self.x_nodes) + prec_b * np.eye(self.n_coef)
        hwb = np.zeros((self.n_field, self.n_coef))
        hwb[self.sel_idx] = curvature[:, None] * self.x_nodes
        hw = prior.banded  # a new column-major band, factored in place
        hw[0, self.sel_idx] += curvature
        return BorderedPrecision(hw, hwb, hbb)

    def hyper_log_prior(self, v: np.ndarray) -> float:
        """Prior density of the hyper vector, with log-scale Jacobians."""
        log_rho, log_sigma, *theta = v
        total = pc_prior_logdensity(math.exp(log_rho), math.exp(log_sigma), self.spec.pc_prior)
        total += log_rho + log_sigma  # Jacobians
        if theta:
            total += self.spec.theta_prior.logpdf(theta[0])
        return total

    def hyper_start(self) -> np.ndarray:
        spec = self.spec
        start = [math.log(spec.pc_prior.rho_median), math.log(spec.pc_prior.sigma_median),
                 spec.theta_prior.mean]
        return np.array(start[:len(spec.hyper_names())])

    def hyper_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Generous box constraints keeping hyper search numerically sane."""
        extent = max(self.grid.nx, self.grid.ny) * self.grid.cell_size
        lo = [math.log(0.5 * self.grid.cell_size), -6.0, -12.0]
        hi = [math.log(20.0 * extent), 6.0, 12.0]
        d = len(self.spec.hyper_names())
        return np.array(lo[:d]), np.array(hi[:d])

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

def _newton_mode(ctx: _ModelContext, prior: GmrfPrecision, offsets, u0: np.ndarray):
    """Maximize loglik + log prior over the latent vector.

    Returns (mode, hessian, curvature weights, objective). The objective must
    strictly increase on every accepted step (halving line search).
    """
    u = u0.copy()
    f_val, prior_grad = ctx.log_post(u, prior, offsets)
    if not np.isfinite(f_val):
        u = np.zeros_like(u0)
        f_val, prior_grad = ctx.log_post(u, prior, offsets)
    for _ in range(_MAX_NEWTON_ITER):
        grad = ctx.loglik_grad(u, offsets) + prior_grad
        if np.max(np.abs(grad)) < _NEWTON_TOL:
            break
        # unbound, so this step's Hessian is freed before the next is built
        step = ctx.hessian(ctx.curvature(u, offsets), prior).solve(grad)
        accepted = False
        t = 1.0
        for _ in range(30):
            u_new = u + t * step
            f_new, prior_grad_new = ctx.log_post(u_new, prior, offsets)
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
        if np.max(np.abs(grad)) >= _NEWTON_TOL * 100:
            raise FitError(
                f"Newton did not converge in {_MAX_NEWTON_ITER} iterations "
                f"(|grad|_max = {np.max(np.abs(grad)):.3e})")
    curvature = ctx.curvature(u, offsets)
    return u, ctx.hessian(curvature, prior), curvature, f_val


def _laplace_at(ctx: _ModelContext, v: np.ndarray, warm: np.ndarray | None) -> HyperNode | None:
    """The Laplace evaluation at hyper vector v (weight 0), or None where it fails.

    Marginal = penalized objective at the mode + 1/2 log det Q_prior
    - 1/2 log det H + hyper prior; the 2 pi factors cancel exactly.
    """
    spec = ctx.spec
    try:
        prior = ctx.prior_at(v)
    except (ValueError, OverflowError):
        return None
    logdet_q = prior.logdet()
    if not math.isfinite(logdet_q):
        return None
    logdet_q += ctx.n_coef * math.log(spec.beta_precision)
    offsets = ctx.offsets(ctx.zeta_of(v))
    u0 = warm if warm is not None else np.zeros(ctx.n_field + ctx.n_coef)
    try:
        mode, hess, curvature, f_val = _newton_mode(ctx, prior, offsets, u0)
    except (FitError, NotSpdError):
        return None
    lm = f_val + 0.5 * logdet_q - 0.5 * hess.logdet() + ctx.hyper_log_prior(v)
    return HyperNode(hyper=np.array(v, dtype=float), laplace_log_marginal=lm,
                     weight=0.0, mode=mode, curvature_weights=curvature,
                     beta_cov=hess.coef_cov())


# ---------------------------------------------------------------------------
# Hyperparameter grid
# ---------------------------------------------------------------------------

def _with_axis(v: np.ndarray, axis: int, value: float) -> np.ndarray:
    out = v.copy()
    out[axis] = value
    return out


@dataclass
class HyperGrid:
    """Nodes and normalized weights over hyper space."""

    nodes: np.ndarray          # (m, d)
    weights: np.ndarray        # (m,), sums to 1
    mode: np.ndarray           # (d,)
    diagnostics: dict


def _node_key(v: np.ndarray) -> tuple:  # rounded, so that one hyper node has one key
    return tuple(np.round(v, 10))


def hyper_grid(log_marginal, start: np.ndarray,
               prescan: dict[int, np.ndarray] | None = None) -> HyperGrid:
    """Locate the hyper posterior mode and lay a regular grid around it.

    ``log_marginal`` maps a hyper vector to its Laplace log marginal (or
    ``-inf`` where it cannot be evaluated), and may be asked for one vector
    more than once: a caller keeps its own memo and count, as :func:`fit`
    does.  Mode search is derivative-free (Nelder-Mead); the grid's
    ``ModelSpec.grid_points_per_dim`` nodes per dimension span +- 2.5
    approximate posterior sds, from a finite-difference Hessian at the mode.
    On optimizer failure the spread falls back to 0.75 around the best center
    found, and the fallback is reported in diagnostics.

    ``prescan`` maps a dimension index to candidate offsets from ``start``;
    the best candidate seeds the search.  Useful for weakly identified
    dimensions (the thinning rate on lightly thinned data) where a cold
    simplex can strand in a flat region.
    """
    start = np.atleast_1d(np.asarray(start, dtype=float))
    dim = start.size
    if dim == 0:
        raise ValueError("start must hold at least one hyperparameter")
    diagnostics: dict = {"fallback": False}

    def f(v) -> float:  # a Python float: the differences below may meet -inf
        return float(log_marginal(v))

    if prescan:
        for axis, offsets in prescan.items():
            best = max(offsets, key=lambda off: f(_with_axis(start, axis, start[axis] + off)))
            start = _with_axis(start, axis, start[axis] + best)

    center = start
    spread = np.full(dim, _FALLBACK_SPREAD)
    try:
        simplex = np.vstack([start] + [_with_axis(start, i, start[i] + 0.6) for i in range(dim)])
        res = minimize(lambda v: -f(v), start, method="Nelder-Mead",
                       options={"maxfev": _MAX_EVALS, "xatol": 0.05, "fatol": 0.02,
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
        # keep the best center found; the spread stays at its fallback
        diagnostics["fallback"] = True
        diagnostics["reason"] = str(exc)
    # flat or cliff-edged marginals give absurd curvature scales; the grid
    # stays informative with the spread boxed to a sane band
    spread = np.clip(spread, 0.05, 3.0)

    offsets = np.linspace(-_SPAN_SD, _SPAN_SD, ModelSpec.grid_points_per_dim)
    axes = [center[i] + offsets * spread[i] for i in range(dim)]
    nodes = np.array(list(itertools.product(*axes)))
    lms = np.array([f(v) for v in nodes])
    finite = np.isfinite(lms)
    if not finite.any():
        raise FitError("no hyper grid node has a finite Laplace marginal")
    shifted = np.where(finite, lms - lms[finite].max(), -np.inf)
    w = np.exp(shifted)
    weights = w / w.sum()
    return HyperGrid(nodes, weights, center, diagnostics)


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
        return self.quantile(rng.uniform(size=size))


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
        self._weights = np.array([n.weight for n in nodes])
        self._beta_means = np.array([n.beta_mean for n in nodes])                 # (m, p)
        self._beta_sds = np.array([np.sqrt(np.diag(n.beta_cov)) for n in nodes])  # (m, p)
        self._hyper_marginals = self._build_hyper_marginals()
        self.summaries = self._build_summaries()
        self.scores: dict | None = None

    # -- construction helpers ----------------------------------------------

    def _build_hyper_marginals(self) -> dict[str, _GridMarginal]:
        out = {}
        mat = np.array([n.hyper for n in self.nodes])  # (m, d)
        for k, name in enumerate(self.hyper_param_names):
            axis = mat[:, k]
            uniq = np.unique(np.round(axis, 12))
            w = np.array([self._weights[np.isclose(axis, val)].sum() for val in uniq])
            out[name] = _GridMarginal(uniq, w)
        return out

    def _build_summaries(self) -> dict[str, dict[str, float]]:
        summaries = {}
        weights, means, sds = self._weights, self._beta_means, self._beta_sds
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

    def credible_interval(self, name: str, level: float = 0.95) -> tuple[float, float]:
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        s = self.summaries[name]
        if abs(level - 0.95) < 1e-12:
            return (s["q025"], s["q975"])
        lo, hi = (1 - level) / 2, 1 - (1 - level) / 2
        if name in self._hyper_marginals:
            marg = self._hyper_marginals[name]
            q = marg.quantile([lo, hi])
            return (float(q[0]), float(q[1]))
        j = self.param_names.index(name)
        means = self._beta_means[:, j]
        sds = np.maximum(self._beta_sds[:, j], 1e-12)
        return (_mixture_quantile(lo, means, sds, self._weights),
                _mixture_quantile(hi, means, sds, self._weights))

    def draw_parameter(self, name: str, rng: np.random.Generator, size: int) -> np.ndarray:
        """Posterior draws of one scalar parameter (coefficient or hyper)."""
        if name in self._hyper_marginals:
            return self._hyper_marginals[name].draw(rng, size)
        j = self.param_names.index(name)
        ks = rng.choice(len(self.nodes), size=size, p=self._weights)
        return self._beta_means[ks, j] + self._beta_sds[ks, j] * rng.standard_normal(size)

    def sample_latent(self, rng: np.random.Generator, size: int):
        """Joint draws of (field, coefficients) from the node mixture.

        Returns (U, node_index) with U of shape (n_field + n_coef, size).
        Draws are grouped by node so each node's Gaussian is factored once.
        """
        ctx = self._ctx
        counts = rng.multinomial(size, self._weights)
        blocks = []
        node_idx = []
        for k, cnt in enumerate(counts):
            if cnt == 0:
                continue
            node = self.nodes[k]
            hess = ctx.hessian(node.curvature_weights, ctx.prior_at(node.hyper))
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
            hyper=np.array([n.hyper for n in self.nodes]),
            log_marginal=np.array([n.laplace_log_marginal for n in self.nodes]),
            weight=np.array([n.weight for n in self.nodes]),
            mode=np.array([n.mode for n in self.nodes]),
            curvature=np.array([n.curvature_weights for n in self.nodes]),
        )

    @classmethod
    def load(cls, directory, pattern, covariates, roads, spec: ModelSpec) -> "FitResult":
        """Rebuild a saved fit; data and spec must match the original run.
        An older file's ``zeta`` array is ignored: the thinning rate follows from ``hyper``."""
        import os

        ctx = _ModelContext(pattern, covariates, roads, spec)
        data = np.load(os.path.join(directory, "fit_nodes.npz"))
        if "hyper" not in data.files:
            raise ValueError("fit_nodes.npz has no 'hyper' array: it was saved in an "
                             "older format; fit the model again")
        # a fit saved with another padding or grid would otherwise
        # load and fail later, as a broadcast error in predict_intensity
        for key, want in (("mode", ctx.n_field + ctx.n_coef), ("curvature", ctx.n_cells)):
            have = data[key].shape[1]
            if have != want:
                raise ValueError(
                    f"fit_nodes.npz '{key}' has {have} entries per node but this spec "
                    f"and data give {want}: the fit was saved with another "
                    "padding or grid; fit the model again")
        nodes = []
        for k in range(data["weight"].size):
            hyper, curvature = data["hyper"][k], data["curvature"][k]
            nodes.append(HyperNode(
                hyper=hyper, laplace_log_marginal=float(data["log_marginal"][k]),
                weight=float(data["weight"][k]), mode=data["mode"][k],
                curvature_weights=curvature,
                beta_cov=ctx.hessian(curvature, ctx.prior_at(hyper)).coef_cov()))
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

    # Newton starts from the intercept-only Poisson fit: zero field, zero
    # slopes, and the intercept at log(points per unit area), which saves
    # Newton steps over a start at zero
    u0 = np.zeros(ctx.n_field + ctx.n_coef)
    u0[ctx.n_field] = math.log(ctx.n_points / ctx.scheme.domain_area)
    warm = {"u": u0}

    # every hyper vector the search asks for, evaluated once: None where it
    # is out of bounds or the Laplace step fails
    evaluated: dict[tuple, HyperNode | None] = {}
    lo, hi = ctx.hyper_bounds()

    def log_marginal(v: np.ndarray) -> float:
        key = _node_key(v)
        if key not in evaluated:
            in_box = not (np.any(v < lo) or np.any(v > hi))
            evaluated[key] = _laplace_at(ctx, v, warm["u"]) if in_box else None
            if evaluated[key] is not None:
                warm["u"] = evaluated[key].mode
        node = evaluated[key]
        return -np.inf if node is None else node.laplace_log_marginal

    hyper_names = spec.hyper_names()
    prescan = None
    if "theta" in hyper_names:
        # the thinning rate is weakly identified on lightly thinned data;
        # scan its axis first so the simplex starts in the right basin
        prescan = {len(hyper_names) - 1: np.array([-8.0, -6.0, -4.0, -2.0, 0.0, 2.0])}
    grid = hyper_grid(log_marginal, ctx.hyper_start(), prescan=prescan)

    nodes = [replace(evaluated[_node_key(v)], weight=float(w))
             for v, w in zip(grid.nodes, grid.weights) if w > 0.0]
    total = sum(n.weight for n in nodes)
    nodes = [replace(n, weight=n.weight / total) for n in nodes]
    # keeps fit.json's key order: fallback, n_evals, then any reason
    diagnostics = {"fallback": False, "n_evals": len(evaluated), **grid.diagnostics}
    return FitResult(spec, nodes, ctx, diagnostics)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def summarize_log_intensity_draws(eta: np.ndarray, grid: Grid):
    """Per-cell median and standard deviation rasters of log-intensity draws."""
    med = np.median(eta, axis=1).reshape(grid.ny, grid.nx)
    sd = np.std(eta, axis=1, ddof=1).reshape(grid.ny, grid.nx)
    return RasterGrid(grid, med), RasterGrid(grid, sd)


def predict_intensity(result: FitResult, draws: int = 1000, seed=0):
    """Posterior median and sd rasters of the potential log intensity.

    The access factor q is deliberately excluded: predictions are of the
    species intensity, not the observation intensity, so naive and VSE
    surfaces are directly comparable.
    """
    if draws < 2:  # the sd raster needs two draws
        raise ValueError(f"draws must be at least 2, got {draws}")
    ctx = result._ctx
    u, _ = result.sample_latent(np.random.default_rng(seed), draws)
    eta_n, _ = ctx.eta(u)
    return summarize_log_intensity_draws(eta_n, ctx.grid)
