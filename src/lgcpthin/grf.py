"""Matern Gaussian random fields on a regular grid.

The field is parameterized by its marginal standard deviation ``sigma`` and
practical range ``rho`` (smoothness fixed at 1).  On a lattice the field is
represented as a Gaussian Markov random field whose precision discretizes
(kappa^2 - Laplacian) applied twice, giving a 13-point stencil:
``Q = (tau/h)^2 (kappa^2 h^2 I + G)^2`` with G the Neumann 5-point Laplacian
(the alpha = 2 SPDE construction).  :class:`GmrfPrecision` is the one
representation of that prior: products with Q by stencil passes, the
log-determinant in closed form from the DCT-II eigenvalues of G, and banded
storage only for Newton Hessians and sampling.  That band is filled straight
from the stencil: the lower half of Q lies on 7 diagonals (offsets 0, 1, 2,
nx-1, nx, nx+1 and 2 nx), whose G and G G values are small integers, with
G G scaled by the reciprocal ``1.0 / (h*h)``.  Neumann boundary artifacts are
controlled by building on an extended grid and cropping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import k1

from lgcpthin.cholesky import BandedCholesky
from lgcpthin.geo import Grid

NU = 1.0  # smoothness is fixed; the stencil below is specific to this value


@dataclass(frozen=True)
class MaternParams:
    """Marginal standard deviation and practical range of the latent field."""

    sigma: float
    rho: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite")

    @property
    def kappa(self) -> float:
        """Spatial scale parameter, sqrt(8 nu) / rho."""
        return math.sqrt(8.0 * NU) / self.rho

    @property
    def tau(self) -> float:
        """Precision scale giving marginal variance sigma^2."""
        return tau_from_sigma(self.sigma, self.kappa)


def tau_from_sigma(sigma: float, kappa: float) -> float:
    """sigma^2 = 1 / (4 pi kappa^2 tau^2), solved for tau."""
    return 1.0 / (2.0 * math.sqrt(math.pi) * kappa * sigma)


def matern_cov(distance, params: MaternParams):
    """Matern covariance at the given lag(s); equals sigma^2 at lag zero.

    With smoothness 1 the covariance is sigma^2 (kappa h) K_1(kappa h),
    strictly decreasing in h and vanishing at infinity.
    """
    h = np.asarray(distance, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("distance must be finite")
    if np.any(h < 0):
        raise ValueError("distance must be nonnegative")
    x = params.kappa * h
    with np.errstate(invalid="ignore", over="ignore"):
        val = np.where(x > 0, x * k1(np.maximum(x, 1e-300)), 1.0)
    out = params.sigma ** 2 * val
    return float(out) if np.ndim(distance) == 0 else out


@dataclass(frozen=True)
class PcPriorSpec:
    """Tail-probability specification of the field hyperpriors.

    P(rho < rho0) = alpha_rho and P(sigma > sigma0) = alpha_sigma.
    """

    rho0: float = 15.0
    alpha_rho: float = 0.05
    sigma0: float = 1.0
    alpha_sigma: float = 0.05

    def __post_init__(self):
        for name in ("rho0", "sigma0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (0 < self.alpha_rho < 1 and 0 < self.alpha_sigma < 1):
            raise ValueError("tail probabilities must lie in (0, 1)")

    @property
    def lambda_rho(self) -> float:
        # d = 2 spatial dimensions
        return -math.log(self.alpha_rho) * self.rho0

    @property
    def lambda_sigma(self) -> float:
        return -math.log(self.alpha_sigma) / self.sigma0

    @property
    def rho_median(self) -> float:
        return self.lambda_rho / math.log(2.0)

    @property
    def sigma_median(self) -> float:
        return math.log(2.0) / self.lambda_sigma


def pc_prior_logdensity(rho: float, sigma: float, spec: PcPriorSpec) -> float:
    """Joint log density of the range and standard deviation priors.

    pi(rho) = lam_r rho^-2 exp(-lam_r / rho)  (d = 2)
    pi(sigma) = lam_s exp(-lam_s sigma)
    """
    if rho <= 0 or sigma <= 0:
        raise ValueError("rho and sigma must be positive")
    lam_r, lam_s = spec.lambda_rho, spec.lambda_sigma
    log_rho = math.log(lam_r) - 2.0 * math.log(rho) - lam_r / rho
    log_sigma = math.log(lam_s) - lam_s * sigma
    return log_rho + log_sigma


# ---------------------------------------------------------------------------
# Lattice precision construction
# ---------------------------------------------------------------------------

class GmrfPrecision:
    """The lattice prior ``Q = (tau/h)^2 (kappa^2 h^2 I + G)^2`` at one (rho, sigma).

    G is the Neumann 5-point Laplacian, diagonalized by the 2-D DCT-II, so
    ``log det Q`` has a closed form and ``Q x`` is two stencil passes.  No
    band is kept: each request assembles one, and the factor is built on demand.
    """

    def __init__(self, ops: "_LatticeOperators", params: MaternParams):
        h = ops.cell_size
        self.shape = ops.shape  # (ny, nx)
        self.n = math.prod(ops.shape)
        self.params = params
        self.shift = (params.kappa * h) ** 2   # kappa^2 h^2
        self.scale = (params.tau / h) ** 2     # (tau/h)^2
        self._ops = ops
        self._chol: BandedCholesky | None = None

    @property
    def banded(self) -> np.ndarray:
        """Q in LAPACK lower-banded storage (bandwidth 2 nx), column-major and
        new on each call, so the caller may factor it in place."""
        return self._ops.assemble_banded(self.params)

    def _stencil(self, x: np.ndarray) -> np.ndarray:
        """(kappa^2 h^2 I + G) x."""
        v = x.reshape(self.shape)
        out = self.shift * v
        dx = v[:, 1:] - v[:, :-1]
        out[:, :-1] -= dx
        out[:, 1:] += dx
        dy = v[1:] - v[:-1]
        out[:-1] -= dy
        out[1:] += dy
        return out.ravel()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Q x for a field vector x of length n."""
        return self.scale * self._stencil(self._stencil(x))

    def logdet(self) -> float:
        """n log (tau/h)^2 + 2 sum log(kappa^2 h^2 + mu_ij); not finite when
        the hypers leave Q numerically singular."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(self.n * np.log(self.scale)
                         + 2.0 * np.sum(np.log(self.shift + self._ops.laplacian_eigenvalues)))

    def chol(self) -> BandedCholesky:
        """Banded Cholesky factor of Q, for sampling, from a fresh :attr:`banded`."""
        if self._chol is None:
            self._chol = BandedCholesky(self.banded)
        return self._chol


class _LatticeOperators:
    """Everything about the prior that depends only on the grid shape.

    For :meth:`assemble_banded`, G and G C^-1 G on the 7 lower diagonals of
    Q, from each node's degree and right/lower neighbour masks, with G G
    times the reciprocal ``1.0 / (h*h)`` (a division rounds differently);
    for the closed-form log-determinant, the Laplacian eigenvalues
    ``mu_ij = (2 - 2 cos(pi i / nx)) + (2 - 2 cos(pi j / ny))``.
    """

    def __init__(self, grid: Grid):
        h = grid.cell_size
        nx, ny, n = grid.nx, grid.ny, grid.n_cells
        self.shape = (ny, nx)
        self.cell_size = h
        i = np.arange(n) % nx
        j = np.arange(n) // nx
        left = (i > 0).astype(int)
        right = (i < nx - 1).astype(int)
        down = (j < ny - 1).astype(int)
        deg = left + right + down + (j > 0)
        # (offset k, G, G G) with entry p of each vector at row p + k, column p;
        # on grids narrower than 4 some offsets coincide and their values add
        stencil: dict[int, tuple] = {}
        for k, g, gg in ((0, deg, deg * deg + deg),
                         (1, -right[:-1], -right[:-1] * (deg[:-1] + deg[1:])),
                         (2, 0, right[:-2] * right[1:-1]),
                         (nx - 1, 0, 2 * left[:n - nx + 1] * down[:n - nx + 1]),
                         (nx, -down[:-nx], -down[:-nx] * (deg[:-nx] + deg[nx:])),
                         (nx + 1, 0, 2 * right[:n - nx - 1] * down[:n - nx - 1]),
                         (2 * nx, 0, down[:n - 2 * nx] * down[nx:n - nx])):
            g0, gg0 = stencil.get(k, (0, 0))
            stencil[k] = (g0 + g, gg0 + gg)
        # lumped mass C = h^2 I, stiffness G and G C^-1 G on each diagonal
        self._diagonals = [(k, h * h if k == 0 else 0.0, np.asarray(g, dtype=float),
                            np.asarray(gg, dtype=float) * (1.0 / (h * h)))
                           for k, (g, gg) in stencil.items()]
        mu_x = 2.0 - 2.0 * np.cos(np.pi * np.arange(nx) / nx)
        mu_y = 2.0 - 2.0 * np.cos(np.pi * np.arange(ny) / ny)
        self.laplacian_eigenvalues = (mu_y[:, None] + mu_x[None, :]).ravel()

    def assemble(self, params: MaternParams) -> GmrfPrecision:
        return GmrfPrecision(self, params)

    def assemble_banded(self, params: MaternParams) -> np.ndarray:
        """Q = tau^2 (kappa^4 C + 2 kappa^2 G + G C^-1 G), lower-banded and column-major."""
        kappa, tau = params.kappa, params.tau
        t2, k4, k2 = tau * tau, kappa ** 4, 2.0 * kappa ** 2
        ny, nx = self.shape
        ab = np.zeros((2 * nx + 1, nx * ny), order="F")
        for k, c, g, gg in self._diagonals:
            ab[k, :nx * ny - k] = t2 * (k4 * c + k2 * g + gg)
        return ab


def build_precision(grid: Grid, params: MaternParams) -> GmrfPrecision:
    """Precision of the lattice Matern field on the given grid.

    Q = tau^2 (kappa^4 C + 2 kappa^2 G + G C^-1 G) with C = h^2 I the lumped
    mass matrix (cell areas) and G the 5-point stiffness matrix, i.e.
    Q = (tau/h)^2 (kappa^2 h^2 I + G)^2; tau is chosen so the stationary
    marginal variance equals sigma^2.  Raises :class:`NotSpdError` if the
    result cannot be factored.
    """
    if grid.nx < 4 or grid.ny < 4:
        raise ValueError("grid must have at least 4 nodes per dimension")
    prec = _LatticeOperators(grid).assemble(params)
    prec.chol()  # fail fast if not SPD
    return prec


def sample_field(precision: GmrfPrecision, seed, size: int = 1) -> np.ndarray:
    """Draw zero-mean field samples; shape (ny, nx) or (size, ny, nx).

    ``seed`` may be an integer or a ``numpy.random.Generator``.
    """
    rng = np.random.default_rng(seed)
    draws = precision.chol().sample(rng, size)
    fields = draws.T.reshape(size, *precision.shape)
    return fields[0] if size == 1 else fields


def extension_margin(grid: Grid, params: MaternParams, extension_factor: float) -> int:
    """Number of padding cells so the pad is >= extension_factor * rho."""
    if not (math.isfinite(extension_factor) and extension_factor >= 0):
        raise ValueError(f"extension_factor must be finite and >= 0, got {extension_factor}")
    return int(math.ceil(extension_factor * params.rho / grid.cell_size))


def sample_matern_field(grid: Grid, params: MaternParams, seed,
                        size: int = 1, extension_factor: float = 1.5) -> np.ndarray:
    """Sample the field on ``grid`` with boundary extension and cropping.

    The precision is built on a grid padded by ``extension_factor * rho`` on
    every side, samples are drawn there, and the padding is discarded; this
    suppresses the variance inflation of the Neumann boundary.
    """
    m = extension_margin(grid, params, extension_factor)
    prec = build_precision(grid.extended(m), params)
    fields = sample_field(prec, seed, size)
    if size == 1:
        return fields[m:m + grid.ny, m:m + grid.nx]
    return fields[:, m:m + grid.ny, m:m + grid.nx]
