"""Cox-process simulation, distance-based thinning, and the log-likelihood.

Simulation draws Poisson counts per grid cell from the cell-center intensity
and places points uniformly within the cell, so simulation and the midpoint
likelihood approximation share one discretization.  Thinning keeps each point
independently with the half-normal access probability of its exact distance
to the road network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lgcpthin.errors import LgcpThinError
from lgcpthin.geo import Grid, PointPattern, RasterGrid, RoadNetwork, distances_to_roads

LOG_INTENSITY_FLOOR = -700.0  # exp underflows to exactly 0 below this
LOG_INTENSITY_CAP = 20.0  # simulate_lgcp refuses surfaces above this


@dataclass(frozen=True)
class LogIntensitySurface:
    """log intensity on a grid; -inf cells are clipped to the floor."""

    raster: RasterGrid

    def __post_init__(self):
        vals = self.raster.values
        if np.any(np.isnan(vals)) or np.any(vals == np.inf):
            raise ValueError("log intensity must not contain NaN or +inf")
        if np.any(vals == -np.inf):
            clipped = np.where(vals == -np.inf, LOG_INTENSITY_FLOOR, vals)
            object.__setattr__(self, "raster", RasterGrid(self.raster.grid, clipped))

    @property
    def grid(self) -> Grid:
        return self.raster.grid


def make_log_intensity(covariates: dict[str, RasterGrid], beta0: float,
                       coefs: dict[str, float],
                       field_values: np.ndarray | None = None) -> LogIntensitySurface:
    """Assemble log lambda = beta0 + sum_k beta_k x_k + omega on the shared grid."""
    names = tuple(coefs)
    if not names:
        raise ValueError("need at least one covariate")
    grid = covariates[names[0]].grid
    total = coefs[names[0]] * covariates[names[0]].values
    for name in names[1:]:
        rast = covariates[name]
        if not rast.grid.congruent(grid):
            raise ValueError(f"covariate {name!r} grid not congruent")
        total = total + coefs[name] * rast.values
    if field_values is not None:
        fv = np.asarray(field_values, dtype=float)
        if fv.shape != (grid.ny, grid.nx):
            raise ValueError("field shape does not match the covariate grid")
        total = total + fv
    return LogIntensitySurface(RasterGrid(grid, beta0 + total))


@dataclass(frozen=True)
class ThinningConfig:
    """Half-normal thinning: keep probability exp(-zeta d^2 / 2).

    ``zeta = 0`` encodes no thinning.
    """

    zeta: float

    def __post_init__(self):
        if not np.isfinite(self.zeta) or self.zeta < 0:
            raise ValueError("zeta must be nonnegative and finite")


def log_q(d, zeta):
    """The thinning law: the simulator keeps by its exp (``q_probability``), VSE offsets by it."""
    return -zeta * d ** 2 / 2.0


def q_probability(distance, zeta):
    """Access probability exp(-zeta d^2 / 2); 1 at zero distance or zeta=0."""
    d = np.asarray(distance, dtype=float)
    z = float(zeta)
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise ValueError("distance must be nonnegative and finite")
    if z < 0 or not np.isfinite(z):
        raise ValueError("zeta must be nonnegative and finite")
    out = np.exp(log_q(d, z))
    return float(out) if np.ndim(distance) == 0 else out


@dataclass(frozen=True)
class IntegrationScheme:
    """Midpoint quadrature: cell centers with cell-area weights."""

    nodes: np.ndarray
    weights: np.ndarray
    domain_area: float = field(default=0.0)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).reshape(-1, 2)
        weights = np.asarray(self.weights, dtype=float).ravel()
        if nodes.shape[0] != weights.size:
            raise ValueError("nodes and weights must align")
        if np.any(weights <= 0):
            raise ValueError("all weights must be positive")
        area = self.domain_area if self.domain_area > 0 else float(weights.sum())
        if abs(weights.sum() - area) > 1e-9 * area:
            raise ValueError("weights must sum to the domain area")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "domain_area", area)

    @classmethod
    def from_grid(cls, grid: Grid) -> "IntegrationScheme":
        w = np.full(grid.n_cells, grid.cell_size ** 2)
        return cls(grid.cell_centers(), w, grid.n_cells * grid.cell_size ** 2)

    def __len__(self) -> int:
        return self.weights.size


def simulate_lgcp(surface: LogIntensitySurface, seed) -> PointPattern:
    """Simulate one point pattern from the gridded log intensity.

    Each cell's count is Poisson(cell area * exp(log lambda at center)) and
    points land uniformly inside their cell.  Cells with log intensity above
    ``LOG_INTENSITY_CAP`` abort: they signal a diverging surface, and the
    Poisson draw would overflow.
    """
    rng = np.random.default_rng(seed)
    grid = surface.grid
    logs = surface.raster.values
    if np.any(logs > LOG_INTENSITY_CAP):
        worst = float(logs.max())
        raise LgcpThinError(
            f"log intensity {worst:.2f} exceeds cap {LOG_INTENSITY_CAP}; "
            "check covariate scaling")
    h = grid.cell_size
    mean = np.exp(logs) * h * h
    counts = rng.poisson(mean)
    total = int(counts.sum())
    jj, ii = np.nonzero(counts)
    reps = counts[jj, ii]
    cx = grid.x0 + (np.repeat(ii, reps) + rng.uniform(size=total)) * h
    cy = grid.y0 + (np.repeat(jj, reps) + rng.uniform(size=total)) * h
    return PointPattern(np.column_stack([cx, cy]), grid.bbox)


def thin(pattern: PointPattern, config: ThinningConfig, roads: RoadNetwork,
         seed) -> PointPattern:
    """Independent thinning with exact per-point road distances.

    Retained points are unchanged; with ``zeta = 0`` the pattern is returned
    with every point kept.
    """
    rng = np.random.default_rng(seed)
    if len(pattern) == 0:
        return pattern
    dists = distances_to_roads(pattern.points, roads)
    keep_prob = q_probability(dists, config.zeta)
    keep = rng.uniform(size=len(pattern)) < keep_prob
    return PointPattern(pattern.points[keep], pattern.domain)


def loglik_lgcp(pattern: PointPattern, log_intensity_at_nodes,
                log_intensity_at_points, scheme: IntegrationScheme) -> float:
    """Midpoint approximation of the Cox log-likelihood given the field.

    Returns ``- sum_i w_i exp(eta(node_i)) + sum_j eta(point_j)``; the
    pattern-size constant of the exact likelihood is dropped everywhere,
    which cancels in every model comparison this package performs.
    """
    eta_n = np.asarray(log_intensity_at_nodes, dtype=float).ravel()
    eta_p = np.asarray(log_intensity_at_points, dtype=float).ravel()
    if eta_n.size != len(scheme):
        raise ValueError("node values do not align with the integration scheme")
    if eta_p.size != len(pattern):
        raise ValueError("point values do not align with the pattern")
    return _cox_loglik(scheme.weights, eta_n, eta_p)


def _cox_loglik(weights: np.ndarray, eta_n: np.ndarray, eta_p: np.ndarray) -> float:
    """``-w . exp(eta_n) + sum(eta_p)``; the fit calls this too, so the checks
    on :func:`loglik_lgcp` cover the likelihood the fit runs."""
    return -float(weights @ np.exp(eta_n)) + float(eta_p.sum())
