"""Full-Bayes fitting of thinned Cox process models.

Two observation models share one machinery: the *naive* model regresses the
observed intensity on covariates plus a latent Matern field, and the *VSE*
(varying sampling effort) model adds the known-form access offset
``log q(s) = -zeta d(s)^2 / 2`` with ``zeta = exp(theta)`` treated as an
extra hyperparameter.

The likelihood is evaluated at weighted integration nodes and at the points,
each described alike: a field node, a design row and, for VSE, a distance.

Inference is a nested Laplace approximation: for each node of a grid in
hyperparameter space the joint mode of (field, coefficients) is found by
Newton iterations, a Gaussian approximation is formed there, and nodes are
weighted by their Laplace-approximated marginal likelihood.  Each evaluation
is one :class:`HyperNode`, whose Hessian is rebuilt from its mode; the fit
keeps the grid nodes with positive weight.  Newton at each hyper vector
starts at the last successful evaluation's mode and holds one Hessian
factor: at first that evaluation's, which ``fit`` keeps, and afterwards the
newest one factored fresh.  Every step solves with the held factor, which
is dropped after any step that does not cut max|grad| by the fixed ratio
``_CHORD_RATIO``; a fresh Hessian is factored only when none is held, and
at the mode for the log-determinant.  Once a step can gain no more than the
objective's rounding (its squared Newton decrement is at most
``_RESOLUTION_ULPS`` ulps of the objective), its line search takes the full
step unless the objective falls by more than that.
Each parameter has one posterior marginal, which gives its summaries,
credible intervals and draws: a mixture of the nodes' Gaussians for a
coefficient, a marginal interpolated over the grid for a hyperparameter.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, minimize
from scipy.special import ndtr

from lgcpthin.cholesky import BorderedPrecision
from lgcpthin.errors import FitError, NotSpdError
from lgcpthin.geo import Grid, PointPattern, RasterGrid, RoadNetwork, distances_to_roads
from lgcpthin.grf import GmrfPrecision, MaternParams, PcPriorSpec, _LatticeOperators, extension_margin, pc_prior_logdensity
from lgcpthin.pointprocess import IntegrationScheme, _cox_loglik, log_q

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
    ``_ModelContext.hessian_at(hyper, mode)`` rebuilds the Gaussian's Hessian.
    """

    hyper: np.ndarray
    laplace_log_marginal: float
    weight: float
    mode: np.ndarray = field(repr=False)
    beta_cov: np.ndarray = field(repr=False)

    @property
    def beta_mean(self) -> np.ndarray:
        return self.mode[self.mode.size - self.beta_cov.shape[0]:]


# The latent field is padded by this many prior-median ranges per side: one
# range is where the Neumann boundary's variance inflation has died out, so
# more padding only costs factorization time.
_EXTENSION_FACTOR = 1.0
_NEWTON_TOL = 1e-6  # Newton stops once max |gradient| falls below this
_CHORD_RATIO = 0.1  # a held factor's step must cut max |gradient| to this fraction of it
_RESOLUTION_ULPS = 8  # the Newton objective's resolution, in ulps of its value
_MAX_NEWTON_ITER = 50
_SPAN_SD = 2.5           # the hyper grid spans +- this many posterior sds per dimension
_MAX_EVALS = 200         # Nelder-Mead evaluation budget of the hyper mode search
_FALLBACK_SPREAD = 0.75  # hyper grid spread per dimension when the mode's Hessian fails


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------

class _ModelContext:
    """Fixed design of one fit: the pattern, the spec's covariates and the
    roads it is built from, grids, priors, and the field indices, design rows
    and distances of the integration nodes and of the points, from one
    lookup.  Node terms enter the field block summed per field node."""

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
        for name in spec.covariate_names:
            if not covariates[name].grid.congruent(grid):
                raise ValueError(f"covariate {name!r} grid not congruent")
            n_bad = int(np.count_nonzero(~np.isfinite(covariates[name].values)))
            if n_bad:
                raise ValueError(f"covariate {name!r} has {n_bad} non-finite cells")
        self.spec = spec
        self.pattern = pattern
        self.covariates = {name: covariates[name] for name in spec.covariate_names}
        self.roads = roads
        self.grid = grid
        self.scheme = IntegrationScheme.from_grid(grid)
        self.n_points = len(pattern)

        # latent field lives on the extended grid; fixed margin per fit
        ref = MaternParams(sigma=1.0, rho=spec.pc_prior.rho_median)
        self.margin = extension_margin(grid, ref, _EXTENSION_FACTOR)
        self.ext_grid = grid.extended(self.margin)
        self.n_field = self.ext_grid.n_cells
        self.ops = _LatticeOperators(self.ext_grid)

        self.node_field, self.x_nodes, self.dist_nodes = self._sites(self.scheme.nodes)
        self.point_field, self.x_points, self.dist_points = self._sites(pattern.points)
        self.n_coef = self.x_nodes.shape[1]
        self._field_pull = np.bincount(self.point_field, minlength=self.n_field).astype(float)
        self._coef_pull = self.x_points.sum(axis=0)

        self.param_names = ["beta0"] + list(spec.covariate_names)

    def _sites(self, locations: np.ndarray):
        """Extended-grid field index, design row and exact road distance (VSE
        only) of each location, from its domain cell's field node and values.

        Nodes and points see one functional, so every field node feeding a
        point also faces the integral's barrier.  A finer point functional
        biases the coefficient against the midpoint integral, or leaves the
        objective unbounded along weak-prior directions."""
        i, j = self.grid.cell_index(locations)
        field_idx = (j + self.margin) * self.ext_grid.nx + (i + self.margin)
        design = np.column_stack([np.ones(len(locations))] + [
            raster.value_at(locations) for raster in self.covariates.values()])
        dist = distances_to_roads(locations, self.roads) if self.spec.use_vse else None
        return field_idx, design, dist

    def _to_field(self, values: np.ndarray) -> np.ndarray:
        """Sum per-node values into the field block, one entry per field node."""
        return np.bincount(self.node_field, values, minlength=self.n_field)

    # -- linear predictor pieces -------------------------------------------

    def offsets(self, zeta: float) -> tuple[np.ndarray, np.ndarray]:
        """log q at the integration nodes and at the points, from the distances at each."""
        if not self.spec.use_vse or zeta == 0.0:
            return (np.zeros(len(self.scheme)), np.zeros(self.n_points))
        return log_q(self.dist_nodes, zeta), log_q(self.dist_points, zeta)

    def eta(self, u: np.ndarray, offsets=(0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
        """Linear predictor at nodes and points; u is a latent vector or (n, S) draws."""
        off_n, off_p = offsets
        omega, beta = u[: self.n_field], u[self.n_field:]
        eta_n = self.x_nodes @ beta + off_n + omega[self.node_field]
        eta_p = self.x_points @ beta + off_p + omega[self.point_field]
        return eta_n, eta_p

    def loglik(self, u: np.ndarray, offsets) -> float:
        """Cox log-likelihood at u; -inf or NaN where ``exp`` overflows."""
        eta_n, eta_p = self.eta(u, offsets)
        return _cox_loglik(self.scheme.weights, eta_n, eta_p)

    def loglik_grad(self, u: np.ndarray, offsets) -> np.ndarray:
        eta_n, _ = self.eta(u, offsets)
        lam = self.scheme.weights * np.exp(eta_n)
        grad_beta = -self.x_nodes.T @ lam + self._coef_pull
        return np.concatenate([self._field_pull - self._to_field(lam), grad_beta])

    def prior_at(self, v) -> GmrfPrecision:
        """The field prior at hyper vector v = (log rho, log sigma, ...)."""
        return self.ops.assemble(MaternParams(sigma=math.exp(v[1]), rho=math.exp(v[0])))

    def log_post(self, u: np.ndarray, prior: GmrfPrecision, offsets):
        """Latent log-posterior loglik - u' Q u / 2 (up to a constant) and its
        prior gradient; not finite where an overshooting point overflows."""
        omega, beta = u[: self.n_field], u[self.n_field:]
        prec_b = self.spec.beta_precision
        q_omega = prior.matvec(omega)
        val = -0.5 * prec_b * float(beta @ beta) - 0.5 * float(omega @ q_omega)
        return self.loglik(u, offsets) + val, np.concatenate([-q_omega, -prec_b * beta])

    def curvature(self, u: np.ndarray, offsets) -> np.ndarray:
        """Poisson weights ``w_i exp(eta_i)``, capped so they stay finite."""
        eta_n, _ = self.eta(u, offsets)
        return self.scheme.weights * np.exp(np.minimum(eta_n, 500.0))

    def hessian(self, curvature: np.ndarray, prior: GmrfPrecision) -> BorderedPrecision:
        """Negated Hessian of the penalized objective at Poisson weights
        ``curvature = w_i exp(eta_i)``; SPD by construction."""
        prec_b = self.spec.beta_precision
        weighted = curvature[:, None] * self.x_nodes
        hbb = self.x_nodes.T @ weighted + prec_b * np.eye(self.n_coef)
        hwb = np.column_stack([self._to_field(col) for col in weighted.T])
        hw = prior.banded  # a new column-major band, factored in place
        hw[0] += self._to_field(curvature)
        return BorderedPrecision(hw, hwb, hbb)

    def hessian_at(self, v: np.ndarray, u: np.ndarray) -> BorderedPrecision:
        """The Gaussian approximation's Hessian at hyper vector v and mode u."""
        return self.hessian(self.curvature(u, self.offsets(self.zeta_of(v))), self.prior_at(v))

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
        return spec.zeta_fixed if spec.zeta_fixed is not None else math.exp(v[-1])


# ---------------------------------------------------------------------------
# Inner Newton optimization and Laplace marginal
# ---------------------------------------------------------------------------

def _newton_mode(ctx: _ModelContext, prior: GmrfPrecision, offsets, u0: np.ndarray,
                 chord: BorderedPrecision | None = None):
    """Maximize loglik + log prior over the latent vector.

    Returns (mode, hessian, objective), the Hessian factored fresh at the
    mode.  Newton holds one Hessian factor and solves every step with it:
    at first ``chord``, a factor from elsewhere (the previous hyper
    evaluation's at its mode), and once that is dropped the newest fresh
    one, factored at the current point only when none is held.  A factor is
    dropped after any accepted step that does not cut max|grad| to
    ``_CHORD_RATIO`` of its value; a step on a factor from another point
    whose line search fails drops it and is retried from the same point
    with a fresh Hessian, and one on a fresh factor raises ``FitError``, as
    does a gradient that is not finite.  The halving line search takes a
    step where the objective strictly increases, or, at its full length,
    where the squared Newton decrement ``grad @ step`` is at or below the
    objective's resolution (``_RESOLUTION_ULPS`` ulps of it) and the
    objective falls by no more than that: such a step can gain only
    rounding.  Numpy's overflow and invalid-value warnings are silenced here
    alone: trial points overshoot by design, and the checks above handle
    what is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = u0.copy()
        f_val, prior_grad = ctx.log_post(u, prior, offsets)
        if not np.isfinite(f_val):
            u = np.zeros_like(u0)
            f_val, prior_grad = ctx.log_post(u, prior, offsets)
        grad = ctx.loglik_grad(u, offsets) + prior_grad
        held = chord  # the factor every step solves with
        for _ in range(_MAX_NEWTON_ITER):
            grad_max = np.max(np.abs(grad))
            if grad_max < _NEWTON_TOL:
                break
            if not np.isfinite(grad_max):
                raise FitError(f"Newton gradient is not finite (|grad|_max = {grad_max})")
            fresh = held is None  # a factor made at u, not at another point
            if fresh:
                held = ctx.hessian(ctx.curvature(u, offsets), prior)
            step = held.solve(grad)
            # a step that can gain only rounding (end game) may, at full
            # length, lose as much as the objective's resolution
            decrement = grad @ step  # not finite for a runaway step: no end game
            resolution = _RESOLUTION_ULPS * np.spacing(abs(f_val))
            floor = f_val - resolution if decrement <= resolution else np.inf
            t = 1.0
            for _ in range(30):
                u_new = u + t * step
                f_new, prior_grad_new = ctx.log_post(u_new, prior, offsets)
                if np.isfinite(f_new) and (f_new > f_val or t == 1.0 and f_new >= floor):
                    break
                t *= 0.5
            else:  # u and prior_grad, so grad too, are as at the loop's top
                if not fresh:  # retry the step from u with a fresh Hessian
                    held = None
                    continue
                raise FitError("Newton line search failed to increase the objective")
            u, f_val, prior_grad = u_new, f_new, prior_grad_new
            grad = ctx.loglik_grad(u, offsets) + prior_grad
            if np.max(np.abs(grad)) > _CHORD_RATIO * grad_max:
                held = None
        else:
            if np.max(np.abs(grad)) >= _NEWTON_TOL * 100:
                raise FitError(
                    f"Newton did not converge in {_MAX_NEWTON_ITER} iterations "
                    f"(|grad|_max = {np.max(np.abs(grad)):.3e})")
        held = None  # freed before the mode's Hessian is built
        return u, ctx.hessian(ctx.curvature(u, offsets), prior), f_val


def _laplace_at(ctx: _ModelContext, v: np.ndarray, warm: np.ndarray | None,
                chord: BorderedPrecision | None = None
                ) -> tuple[HyperNode, BorderedPrecision] | None:
    """The Laplace evaluation at hyper vector v (weight 0) and the Hessian
    factor at its mode, or None where it fails.  Newton starts at ``warm``
    and takes its first steps with ``chord``, as :func:`_newton_mode` says.

    An evaluation fails in one way: the prior, its log-determinant or Newton
    raises ``FitError``, ``NotSpdError``, ``ValueError`` or ``OverflowError``
    (a singular prior, a non-finite gradient, a failed line search, ...).

    Marginal = penalized objective at the mode + 1/2 log det Q_prior
    - 1/2 log det H + hyper prior; the 2 pi factors cancel exactly.
    """
    u0 = warm if warm is not None else np.zeros(ctx.n_field + ctx.n_coef)
    try:
        prior = ctx.prior_at(v)
        logdet_q = prior.logdet()
        if not math.isfinite(logdet_q):
            raise FitError("the field prior is numerically singular")
        logdet_q += ctx.n_coef * math.log(ctx.spec.beta_precision)
        mode, hess, f_val = _newton_mode(ctx, prior, ctx.offsets(ctx.zeta_of(v)), u0, chord)
    except (FitError, NotSpdError, ValueError, OverflowError):
        return None
    lm = f_val + 0.5 * logdet_q - 0.5 * hess.logdet() + ctx.hyper_log_prior(v)
    return HyperNode(hyper=np.array(v, dtype=float), laplace_log_marginal=lm,
                     weight=0.0, mode=mode, beta_cov=hess.coef_cov()), hess


# ---------------------------------------------------------------------------
# Hyperparameter grid
# ---------------------------------------------------------------------------

def _with_axis(v: np.ndarray, axis: int, value: float) -> np.ndarray:
    out = v.copy()
    out[axis] = value
    return out


@dataclass
class HyperGrid:
    """Nodes and normalized weights over hyper space: the product of ``axes``' rows."""

    nodes: np.ndarray          # (m, d)
    weights: np.ndarray        # (m,), sums to 1
    axes: np.ndarray           # (d, ModelSpec.grid_points_per_dim), each row ascending
    diagnostics: dict


def _node_key(v: np.ndarray) -> tuple:  # rounded, so that one hyper node has one key
    return tuple(np.round(v, 10))


def hyper_grid(log_marginal, start: np.ndarray) -> HyperGrid:
    """Locate the hyper posterior mode and lay a regular grid around it.

    ``log_marginal`` maps a hyper vector to its Laplace log marginal (or
    ``-inf`` where it cannot be evaluated), and may be asked for one vector
    more than once: a caller keeps its own memo and count, as :func:`fit`
    does.  Mode search is derivative-free (Nelder-Mead); the grid's
    ``ModelSpec.grid_points_per_dim`` nodes per dimension span +- 2.5
    approximate posterior sds, from a finite-difference Hessian at the mode.
    On optimizer failure the spread falls back to 0.75 around the best center
    found, and the fallback is reported in diagnostics.
    """
    start = np.atleast_1d(np.asarray(start, dtype=float))
    dim = start.size
    if dim == 0:
        raise ValueError("start must hold at least one hyperparameter")
    diagnostics: dict = {"fallback": False}

    def f(v) -> float:  # a Python float: the differences below may meet -inf
        return float(log_marginal(v))

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
    axes = center[:, None] + offsets * spread[:, None]
    nodes = np.array(list(itertools.product(*axes)))
    lms = np.array([f(v) for v in nodes])
    finite = np.isfinite(lms)
    if not finite.any():
        raise FitError("no hyper grid node has a finite Laplace marginal")
    shifted = np.where(finite, lms - lms[finite].max(), -np.inf)
    w = np.exp(shifted)
    weights = w / w.sum()
    return HyperGrid(nodes, weights, axes, diagnostics)


# ---------------------------------------------------------------------------
# Posterior marginals
# ---------------------------------------------------------------------------

class _GridMarginal:
    """1-D posterior marginal of a hyperparameter from the grid's ascending
    values along its axis and the weight pooled at each.

    Axis values with zero weight are dropped, the log weight profile over
    the (few) others is interpolated with a cubic spline on a fine grid,
    exponentiated, and normalized; summaries and inverse-CDF draws come from
    the resulting discrete distribution.
    """

    def __init__(self, axis: np.ndarray, weights: np.ndarray, transform=np.exp):
        x = axis[weights > 0]
        logw = np.log(np.maximum(weights[weights > 0], 1e-300))
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


class _MixtureMarginal:
    """1-D posterior marginal of a coefficient: the nodes' Gaussians, with
    means ``means`` and sds ``sds``, mixed by the node weights.  Quantiles
    invert the mixture CDF (component CDF ``scipy.special.ndtr``) by root finding,
    each sd floored at 1e-12 so that the CDF is defined; draws use the sds as given."""

    def __init__(self, weights: np.ndarray, means: np.ndarray, sds: np.ndarray):
        self.weights, self.means, self.sds = weights, means, sds

    def mean(self) -> float:
        return float(self.weights @ self.means)

    def sd(self) -> float:
        m = self.mean()
        var = float(self.weights @ (self.sds ** 2 + self.means ** 2)) - m * m
        return math.sqrt(max(var, 0.0))

    def quantile(self, q) -> np.ndarray:
        sds = np.maximum(self.sds, 1e-12)
        lo = float(np.min(self.means - 8 * sds))
        hi = float(np.max(self.means + 8 * sds))
        return np.array([brentq(lambda x: float(self.weights @ ndtr((x - self.means) / sds)) - p,
                                lo, hi, xtol=1e-10) for p in np.atleast_1d(q)])

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        ks = rng.choice(self.weights.size, size=size, p=self.weights)
        return self.means[ks] + self.sds[ks] * rng.standard_normal(size)


# ---------------------------------------------------------------------------
# Fit result
# ---------------------------------------------------------------------------

class FitResult:
    """Posterior approximation: hyper nodes, per-node Gaussians, summaries."""

    def __init__(self, spec: ModelSpec, nodes: list[HyperNode], context: _ModelContext,
                 axes: np.ndarray, hyper_diagnostics: dict, scores: dict | None = None):
        self.spec = spec
        self.nodes = nodes
        self.hyper_diagnostics = hyper_diagnostics
        self._ctx = context
        self._axes = axes  # the hyper grid's HyperGrid.axes
        self.param_names = list(context.param_names)
        self.hyper_param_names = [
            {"log_rho": "rho", "log_sigma": "sigma", "theta": "zeta"}[h]
            for h in spec.hyper_names()]
        self._weights = np.array([n.weight for n in nodes])
        # each marginal reads a column view, not a copy: a dot product's
        # rounding can depend on its operands' strides
        means = np.array([n.beta_mean for n in nodes])
        sds = np.array([np.sqrt(np.diag(n.beta_cov)) for n in nodes])
        hyper = np.array([n.hyper for n in nodes])
        self._marginals = {name: _MixtureMarginal(self._weights, means[:, j], sds[:, j])
                           for j, name in enumerate(self.param_names)}
        for k, name in enumerate(self.hyper_param_names):
            # each node's weight goes to the axis value nearest its coordinate
            nearest = np.abs(hyper[:, k, None] - axes[k]).argmin(axis=1)
            pooled = np.array([self._weights[nearest == j].sum() for j in range(axes[k].size)])
            self._marginals[name] = _GridMarginal(axes[k], pooled)
        self.summaries = {}
        for name, marg in self._marginals.items():
            q = marg.quantile([0.025, 0.5, 0.975])
            self.summaries[name] = {"mean": marg.mean(), "sd": marg.sd(), "q025": float(q[0]),
                                    "q50": float(q[1]), "q975": float(q[2])}
        self.scores = scores  # assess.score's, once the fit is scored

    # -- posterior access ----------------------------------------------------

    def credible_interval(self, name: str, level: float = 0.95) -> tuple[float, float]:
        """Equal-tailed interval of one parameter at ``level``.

        A hyperparameter's marginal ends half a grid step beyond the
        outermost grid node, without the mass beyond, so above about 0.99 a
        level can return the edge of that support."""
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        s = self.summaries[name]
        # the summaries' own quantiles: (1 - 0.95) / 2 is 0.025000000000000022,
        # not the 0.025 that q025 was computed at
        if abs(level - 0.95) < 1e-12:
            return (s["q025"], s["q975"])
        q = self._marginals[name].quantile([(1 - level) / 2, 1 - (1 - level) / 2])
        return (float(q[0]), float(q[1]))

    def draw_parameter(self, name: str, rng: np.random.Generator, size: int) -> np.ndarray:
        """Posterior draws of one scalar parameter (coefficient or hyper)."""
        return self._marginals[name].draw(rng, size)

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
            blocks.append(node.mode[:, None] + ctx.hessian_at(node.hyper, node.mode).sample(rng, cnt))
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
        """Write the JSON summary and spec, plus the node arrays and the fit's
        inputs (points, covariates and, for VSE, roads) that ``load`` reads."""
        os.makedirs(directory, exist_ok=True)
        ctx = self._ctx
        doc = {
            "model": "vse" if self.spec.use_vse else "naive",
            "parameters": self.summary_table(),
            "hyper_diagnostics": {k: v for k, v in self.hyper_diagnostics.items()
                                  if isinstance(v, (str, int, float, bool))},
            "scores": self.scores,
            "n_nodes": len(self.nodes),
            "spec": asdict(self.spec),
        }
        with open(os.path.join(directory, "fit.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
        rasters = ctx.covariates.values()  # in the spec's covariate order
        lines = ctx.roads.polylines if self.spec.use_vse else ()
        roads = {"road_vertices": np.vstack(lines), "road_counts": [len(v) for v in lines]} if lines else {}
        np.savez_compressed(
            os.path.join(directory, "fit_nodes.npz"),
            hyper=np.array([n.hyper for n in self.nodes]),
            log_marginal=np.array([n.laplace_log_marginal for n in self.nodes]),
            weight=np.array([n.weight for n in self.nodes]),
            mode=np.array([n.mode for n in self.nodes]),
            axes=self._axes,
            points=ctx.pattern.points,
            domain=np.array(ctx.pattern.domain),
            covariate_origin=np.array([[r.grid.x0, r.grid.y0, r.grid.cell_size] for r in rasters]),
            covariate_values=np.array([r.values for r in rasters]),
            **roads,
        )

    @classmethod
    def load(cls, directory) -> "FitResult":
        """Rebuild a saved fit from its directory alone, through the same
        constructors and checks as a fresh fit.  A file without a key or array
        read here was saved in an older format and is rejected."""
        with open(os.path.join(directory, "fit.json")) as fh:
            doc = json.load(fh)
        with np.load(os.path.join(directory, "fit_nodes.npz")) as npz:
            data = dict(npz)
        missing = ["fit.json has no 'spec' key"] if "spec" not in doc else []
        missing += [f"fit_nodes.npz has no {key!r} array" for key in (
            "hyper", "axes", "points", "domain", "covariate_origin", "covariate_values") if key not in data]
        if missing:
            raise ValueError(f"{missing[0]}: it was saved in an older format; fit the model again")
        saved = doc["spec"]
        spec = ModelSpec(**{**saved, "covariate_names": tuple(saved["covariate_names"]),
                            "pc_prior": PcPriorSpec(**saved["pc_prior"]),
                            "theta_prior": NormalPrior(**saved["theta_prior"])})
        pattern = PointPattern(data["points"], tuple(data["domain"].tolist()))
        covariates = {name: RasterGrid(Grid(*origin.tolist(), values.shape[1], values.shape[0]), values)
                      for name, origin, values in zip(spec.covariate_names, data["covariate_origin"],
                                                      data["covariate_values"])}
        roads = None  # saved for VSE only; a VSE fit without them fails as a fresh fit does
        if "road_counts" in data:
            roads = RoadNetwork(tuple(np.split(data["road_vertices"], np.cumsum(data["road_counts"])[:-1])))
        ctx = _ModelContext(pattern, covariates, roads, spec)
        # a fit saved under another _EXTENSION_FACTOR would fail later, in a broadcast
        have, want = data["mode"].shape[1], ctx.n_field + ctx.n_coef
        if have != want:
            raise ValueError(
                f"fit_nodes.npz 'mode' has {have} entries per node but its spec and inputs "
                f"give {want}: the fit was saved with another padding; fit the model again")
        nodes = [HyperNode(hyper=hyper, laplace_log_marginal=float(lm), weight=float(w), mode=mode,
                           beta_cov=ctx.hessian_at(hyper, mode).coef_cov())
                 for hyper, lm, w, mode in zip(data["hyper"], data["log_marginal"],
                                               data["weight"], data["mode"])]
        return cls(spec, nodes, ctx, data["axes"], doc["hyper_diagnostics"], doc["scores"])


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
    # each evaluation starts at the last successful one's mode, with the
    # Hessian factor there for its chord steps
    warm = {"u": u0, "hess": None}

    # every hyper vector the search asks for, evaluated once: None where it
    # is out of bounds or the Laplace step fails
    evaluated: dict[tuple, HyperNode | None] = {}
    lo, hi = ctx.hyper_bounds()

    def log_marginal(v: np.ndarray) -> float:
        key = _node_key(v)
        if key not in evaluated:
            in_box = not (np.any(v < lo) or np.any(v > hi))
            laplace = _laplace_at(ctx, v, warm["u"], warm["hess"]) if in_box else None
            evaluated[key] = None
            if laplace is not None:
                evaluated[key], warm["hess"] = laplace
                warm["u"] = evaluated[key].mode
        node = evaluated[key]
        return -np.inf if node is None else node.laplace_log_marginal

    start = ctx.hyper_start()
    if "theta" in spec.hyper_names():
        # the thinning rate is weakly identified on lightly thinned data, and
        # a cold simplex can strand in a flat region: the best of a scan
        # along its axis seeds the search
        best = max((-8.0, -6.0, -4.0, -2.0, 0.0, 2.0),
                   key=lambda off: log_marginal(_with_axis(start, -1, start[-1] + off)))
        start = _with_axis(start, -1, start[-1] + best)
    grid = hyper_grid(log_marginal, start)

    nodes = [replace(evaluated[_node_key(v)], weight=float(w))
             for v, w in zip(grid.nodes, grid.weights) if w > 0.0]
    total = sum(n.weight for n in nodes)
    nodes = [replace(n, weight=n.weight / total) for n in nodes]
    # keeps fit.json's key order: fallback, n_evals, then any reason
    diagnostics = {"fallback": False, "n_evals": len(evaluated), **grid.diagnostics}
    return FitResult(spec, nodes, ctx, grid.axes, diagnostics)


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
