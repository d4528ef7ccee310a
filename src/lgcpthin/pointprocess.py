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


@dataclass(frozen=True)
class LogIntensitySurface:
    """log intensity on a grid plus the pieces it was assembled from."""

    raster: RasterGrid
    beta: tuple[float, ...] = ()
    covariate_names: tuple[str, ...] = ()

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
    if not names and field_values is None:
        raise ValueError("need at least a covariate or a field")
    first = covariates[names[0]] if names else None
    grid = first.grid if first is not None else None
    total = None
    for name in names:
        rast = covariates[name]
        if grid is not None and not rast.grid.congruent(grid):
            raise ValueError(f"covariate {name!r} grid not congruent")
        term = coefs[name] * rast.values
        total = term if total is None else total + term
    if total is None:
        total = 0.0
    if field_values is not None:
        fv = np.asarray(field_values, dtype=float)
        if grid is None:
            raise ValueError("field-only surfaces require an explicit covariate grid")
        if fv.shape != (grid.ny, grid.nx):
            raise ValueError("field shape does not match the covariate grid")
        total = total + fv
    return LogIntensitySurface(RasterGrid(grid, beta0 + total), (beta0,) + tuple(coefs[n] for n in names), names)


@dataclass(frozen=True)
class ThinningConfig:
    """Half-normal thinning: keep probability exp(-zeta d^2 / 2).

    ``zeta = 0`` encodes no thinning.
    """

    zeta: float

    def __post_init__(self):
        if not np.isfinite(self.zeta) or self.zeta < 0:
            raise ValueError("zeta must be nonnegative and finite")


def q_probability(distance, zeta):
    """Access probability exp(-zeta d^2 / 2); 1 at zero distance or zeta=0."""
    d = np.asarray(distance, dtype=float)
    z = float(zeta)
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise ValueError("distance must be nonnegative and finite")
    if z < 0 or not np.isfinite(z):
        raise ValueError("zeta must be nonnegative and finite")
    out = np.exp(-z * d * d / 2.0)
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


def simulate_lgcp(surface: LogIntensitySurface, seed,
                  log_intensity_cap: float = 20.0) -> PointPattern:
    """Simulate one point pattern from the gridded log intensity.

    Each cell's count is Poisson(cell area * exp(log lambda at center)) and
    points land uniformly inside their cell.  Cells with log intensity above
    ``log_intensity_cap`` abort: they signal a diverging surface, and the
    Poisson draw would overflow.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    grid = surface.grid
    logs = surface.raster.values
    if np.any(logs > log_intensity_cap):
        worst = float(logs.max())
        raise LgcpThinError(
            f"log intensity {worst:.2f} exceeds cap {log_intensity_cap}; "
            "check covariate scaling or pass a higher cap")
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
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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
    integral = float(scheme.weights @ np.exp(eta_n))
    return -integral + float(eta_p.sum())
