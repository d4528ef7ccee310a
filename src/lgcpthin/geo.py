"""Planar geometry layer: rasters, road networks, point patterns, distances.

Coordinates are assumed projected (planar Euclidean); the conventional unit
throughout the package is kilometers.  Also provides the exploratory
statistics used to diagnose accessibility bias: ECDFs, the two-sample
Kolmogorov-Smirnov test, and Pearson correlation.

Road distances are exact.  Each :class:`RoadNetwork` indexes itself on the
first distance query, so a network that is only read, written or drawn never
builds an index: every segment is cut into pieces no longer than the gap
between roads (the bounding-box area over the total road length), at most
17 pieces per segment on average, and a KD-tree holds the piece midpoints.
A point's distance to its nearest midpoint bounds its road distance from
above, so every segment that can be nearest has a piece within that bound
plus half a piece length; only those candidate segments are measured, with
the same per-pair arithmetic as a loop over all segments.  Cutting keeps the
search narrow when segments are long next to the spacing of the roads, or
skewed in length (a few long segments among many short ones), where the
longest segment would otherwise set the search radius for every point.
Memory is bounded by chunk size times candidates, not by the number of
segments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import kolmogorov

from lgcpthin.errors import LgcpThinError, ParseError

_CONGRUENT_TOL = 1e-9  # coordinate slack when comparing grids


# ---------------------------------------------------------------------------
# Grids and rasters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Regular 2D grid: origin at the lower-left corner, square cells.

    Cell (i, j) has center origin + ((i + 0.5) h, (j + 0.5) h); values on the
    grid are indexed row-major as ``values[j, i]`` (row = y index).
    """

    x0: float
    y0: float
    cell_size: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)):
            raise ValueError(f"grid origin must be finite, got ({self.x0}, {self.y0})")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ValueError(f"cell_size must be positive and finite, got {self.cell_size}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one cell per dimension")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the gridded region."""
        return (self.x0, self.y0,
                self.x0 + self.nx * self.cell_size,
                self.y0 + self.ny * self.cell_size)

    def cell_centers(self) -> np.ndarray:
        """All cell centers, shape (ny*nx, 2), row-major."""
        xs = self.x0 + (np.arange(self.nx) + 0.5) * self.cell_size
        ys = self.y0 + (np.arange(self.ny) + 0.5) * self.cell_size
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def cell_index(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) integer cell indices of points, clamped to the grid."""
        pts = np.atleast_2d(points)
        # Clip before the integer cast: far points overflow the cast.
        i = np.clip(np.floor((pts[:, 0] - self.x0) / self.cell_size), 0, self.nx - 1).astype(int)
        j = np.clip(np.floor((pts[:, 1] - self.y0) / self.cell_size), 0, self.ny - 1).astype(int)
        return i, j

    def extended(self, margin_cells: int) -> "Grid":
        """Grid padded by ``margin_cells`` whole cells on every side."""
        m = int(margin_cells)
        return Grid(self.x0 - m * self.cell_size, self.y0 - m * self.cell_size,
                    self.cell_size, self.nx + 2 * m, self.ny + 2 * m)

    def congruent(self, other: "Grid") -> bool:
        return (self.nx == other.nx and self.ny == other.ny
                and abs(self.x0 - other.x0) <= _CONGRUENT_TOL
                and abs(self.y0 - other.y0) <= _CONGRUENT_TOL
                and abs(self.cell_size - other.cell_size) <= _CONGRUENT_TOL)


@dataclass(frozen=True)
class RasterGrid:
    """Values on a :class:`Grid`; the workhorse covariate/field container.

    ``values`` has shape (ny, nx) so that flattening is row-major over cells.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"values shape {vals.shape} does not match grid ({self.grid.ny}, {self.grid.nx})")
        object.__setattr__(self, "values", vals)

    def value_at(self, points: np.ndarray) -> np.ndarray:
        """Value of the cell containing each point (nearest-cell lookup)."""
        i, j = self.grid.cell_index(points)
        return self.values[j, i]


# ---------------------------------------------------------------------------
# Road networks and point patterns
# ---------------------------------------------------------------------------

_CUTS = 16  # most pieces per segment of mean length in the road index


@dataclass(frozen=True)
class _PieceIndex:
    """KD-tree over segment pieces: see :func:`distances_to_roads`."""

    tree: cKDTree       # piece midpoints
    parent: np.ndarray  # segment id of each piece
    reach: float        # half the longest piece, plus rounding slack

    @classmethod
    def build(cls, segs: np.ndarray) -> "_PieceIndex":
        a = segs[:, 0:2]
        d = segs[:, 2:4] - a
        length = np.hypot(d[:, 0], d[:, 1])
        positive = length[length > 0]
        ell = 0.0
        if positive.size:
            # Pieces no longer than the larger of the median and mean length,
            # nor than the gap between roads (bounding-box area over total
            # length), but at least mean / _CUTS long: sum(ceil(length / ell))
            # <= 17 * len(segs), even for collinear roads, whose gap is zero.
            mean = float(positive.mean())
            width, height = np.ptp(segs.reshape(-1, 2), axis=0)
            gap = float(width * height) / float(positive.sum())
            ell = max(min(max(float(np.median(positive)), mean), gap), mean / _CUTS)
        n_pieces = (np.maximum(np.ceil(length / ell), 1).astype(np.intp) if ell > 0
                    else np.ones(len(segs), dtype=np.intp))
        parent = np.repeat(np.arange(len(segs)), n_pieces)
        k = np.arange(parent.size) - np.repeat(np.cumsum(n_pieces) - n_pieces, n_pieces)
        mids = a[parent] + ((k + 0.5) / n_pieces[parent])[:, None] * d[parent]
        # Midpoints and foot points are rounded at the magnitude of the coordinates.
        slack = 1e-12 * float(np.max(np.abs(segs)))
        return cls(cKDTree(mids), parent, 0.5 * float(np.max(length / n_pieces)) + slack)


@dataclass(frozen=True, eq=False)
class RoadNetwork:
    """Polyline network; each polyline is an (k, 2) vertex array, k >= 2.

    Networks compare and hash by identity: their arrays have no single truth
    value to compare by.
    """

    polylines: tuple[np.ndarray, ...]
    _segments: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.polylines:
            raise ValueError("road network must contain at least one polyline")
        lines = []
        for line in self.polylines:
            arr = np.asarray(line, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
                raise ValueError("each polyline needs >= 2 (x, y) vertices")
            if not np.all(np.isfinite(arr)):
                raise ValueError("polyline coordinates must be finite")
            lines.append(arr)
        object.__setattr__(self, "polylines", tuple(lines))
        segs = np.vstack([np.hstack([arr[:-1], arr[1:]]) for arr in lines])
        object.__setattr__(self, "_segments", segs)

    @cached_property
    def _index(self) -> _PieceIndex:
        return _PieceIndex.build(self._segments)

    @property
    def n_segments(self) -> int:
        return self._segments.shape[0]

    def segments(self) -> np.ndarray:
        """All segments as rows (x1, y1, x2, y2)."""
        return self._segments


@dataclass(frozen=True)
class PointPattern:
    """Planar point locations inside a rectangular observation window."""

    points: np.ndarray
    domain: tuple[float, float, float, float]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        xmin, ymin, xmax, ymax = self.domain
        if not all(math.isfinite(v) for v in self.domain):
            raise ValueError(f"domain must be finite, got {self.domain}")
        n_bad = int(np.count_nonzero(~np.isfinite(pts).all(axis=1)))
        if n_bad:
            raise ValueError(f"{n_bad} points have non-finite coordinates")
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("domain rectangle is empty")
        if pts.size and (pts[:, 0].min() < xmin - 1e-9 or pts[:, 0].max() > xmax + 1e-9
                         or pts[:, 1].min() < ymin - 1e-9 or pts[:, 1].max() > ymax + 1e-9):
            raise ValueError("points fall outside the stated domain")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "domain", tuple(float(v) for v in self.domain))

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def area(self) -> float:
        xmin, ymin, xmax, ymax = self.domain
        return (xmax - xmin) * (ymax - ymin)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

_CHUNK = 2048  # points per candidate search in distances_to_roads


def distances_to_roads(points: np.ndarray, roads: RoadNetwork) -> np.ndarray:
    """Exact minimum point-to-segment distance for each of (n, 2) points.

    The road network's index, built on the first call and kept, cuts
    segments into pieces no longer than the gap between roads (the
    bounding-box area over the total road length) nor than the larger of the
    median and the mean segment length, with at most 17 pieces per segment on
    average, and holds the piece midpoints in a KD-tree.  For a point p let
    d0 be its distance to the nearest midpoint.  Midpoints lie on roads, so
    the road distance d is at most d0; the piece holding the nearest foot
    point has its midpoint within d + (longest piece)/2 of p.  Every segment
    with a piece in that ball is a candidate.  The ball is widened by 1e-12 of its radius plus 1e-12 of the
    largest coordinate magnitude, which exceeds the rounding in midpoints,
    foot points and distances, so segments tying within rounding stay in.
    Each candidate is measured exactly: ``t = clip(((p - a) . d) / |d|^2, 0,
    1)``, the squared distance to ``a + t d``, then the minimum.  The result
    is bitwise that of a loop over all segments.  Points go in chunks of
    ``_CHUNK``, so memory grows with chunk size times candidates per point,
    not with the number of segments.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    segs = roads.segments()
    a = segs[:, 0:2]
    d = segs[:, 2:4] - a
    seg_len2 = np.maximum(np.einsum("ij,ij->i", d, d), 1e-300)
    index = roads._index
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], _CHUNK):
        p = pts[start:start + _CHUNK]
        d0, _ = index.tree.query(p)
        balls = index.tree.query_ball_point(p, (d0 + index.reach) * (1.0 + 1e-12))
        counts = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
        pieces = np.fromiter(chain.from_iterable(balls), dtype=np.intp, count=counts.sum())
        # A segment with several pieces in the ball is measured once per piece.
        row = np.repeat(np.arange(p.shape[0]), counts)
        seg = index.parent[pieces]
        q, sa, sd = p[row], a[seg], d[seg]
        t = np.clip(np.einsum("nj,nj->n", q - sa, sd) / seg_len2[seg], 0.0, 1.0)
        r = q - (sa + t[:, None] * sd)
        best = np.full(p.shape[0], np.inf)
        np.minimum.at(best, row, np.einsum("nj,nj->n", r, r))
        out[start:start + _CHUNK] = np.sqrt(best)
    return out


def distance_raster(grid: Grid, roads: RoadNetwork) -> RasterGrid:
    """Distance to the road network evaluated at every cell center."""
    dists = distances_to_roads(grid.cell_centers(), roads)
    return RasterGrid(grid, dists.reshape(grid.ny, grid.nx))


# ---------------------------------------------------------------------------
# Exploratory statistics
# ---------------------------------------------------------------------------

class Ecdf:
    """Right-continuous empirical CDF with jumps 1/n at the sample points."""

    def __init__(self, values):
        vals = np.asarray(values, dtype=float).ravel()
        if vals.size == 0:
            raise ValueError("ecdf requires at least one value")
        if not np.all(np.isfinite(vals)):
            raise ValueError("ecdf values must be finite")
        self.sorted = np.sort(vals)
        self.n = vals.size

    def __call__(self, x) -> np.ndarray | float:
        q = np.searchsorted(self.sorted, np.asarray(x, dtype=float), side="right") / self.n
        return q if np.ndim(x) else float(q)


def ecdf(values) -> Ecdf:
    """Empirical cumulative distribution function of a sample."""
    return Ecdf(values)


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D is the exact supremum of |ECDF_a - ECDF_b| over the pooled sample
    points; the p-value uses the asymptotic Kolmogorov distribution with
    effective sample size n_a n_b / (n_a + n_b).
    """
    fa, fb = Ecdf(a), Ecdf(b)
    pooled = np.concatenate([fa.sorted, fb.sorted])
    d = float(np.max(np.abs(fa(pooled) - fb(pooled))))
    n_eff = fa.n * fb.n / (fa.n + fb.n)
    p = float(np.clip(kolmogorov(math.sqrt(n_eff) * d), 0.0, 1.0))
    return d, p


def pearson_corr(a, b) -> float:
    """Product-moment correlation; rejects degenerate inputs."""
    x = np.asarray(a, dtype=float).ravel()
    y = np.asarray(b, dtype=float).ravel()
    if x.size != y.size or x.size < 2:
        raise ValueError("inputs must have equal length >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    # numpy's pairwise sums run on one thread, unlike a BLAS dot product's
    sx = math.sqrt(float(np.sum(xc * xc)))
    sy = math.sqrt(float(np.sum(yc * yc)))
    sxy = float(np.sum(xc * yc))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for zero-variance input")
    return float(np.clip(sxy / (sx * sy), -1.0, 1.0))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_esri_ascii(raster: RasterGrid, path) -> None:
    """Write a raster as an ESRI ASCII grid (rows top-down); no cell is
    NODATA, and the header's value is -9999.0."""
    g = raster.grid
    with open(path, "w") as fh:
        fh.write(f"ncols {g.nx}\n")
        fh.write(f"nrows {g.ny}\n")
        fh.write(f"xllcorner {g.x0!r}\n")
        fh.write(f"yllcorner {g.y0!r}\n")
        fh.write(f"cellsize {g.cell_size!r}\n")
        fh.write("NODATA_value -9999.0\n")
        for row in raster.values[::-1]:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row, each value as ``str`` prints
    it; for a Python float that is its shortest round-trip text."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def write_raster_csv(raster: RasterGrid, path) -> None:
    """Write raster values as ``x,y,value`` rows at cell centers."""
    rows = np.column_stack([raster.grid.cell_centers(), raster.values.ravel()])
    write_csv(path, ["x", "y", "value"], rows.tolist())


def read_esri_ascii(path) -> RasterGrid:
    """Read an ESRI ASCII grid written by :func:`write_esri_ascii` or GIS tools."""
    header: dict[str, float] = {}
    rows: list[np.ndarray] = []
    keys = {"ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value"}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if parts[0].lower() in keys and len(parts) == 2:
                try:
                    header[parts[0].lower()] = float(parts[1])
                except ValueError as exc:
                    raise ParseError(f"bad header value {parts[1]!r}", path, lineno) from exc
            else:
                try:
                    rows.append(np.array([float(v) for v in parts]))
                except ValueError as exc:
                    raise ParseError(f"non-numeric raster value: {exc}", path, lineno)
    missing = keys - {"nodata_value"} - header.keys()
    if missing:
        raise ParseError(f"missing header fields: {sorted(missing)}", path)
    nx, ny = header["ncols"], header["nrows"]
    try:  # int() would truncate 2.5; is_integer() is also False for NaN and inf
        if not (nx.is_integer() and ny.is_integer()):
            raise ValueError(f"ncols {nx:g} and nrows {ny:g} must be whole numbers")
        grid = Grid(header["xllcorner"], header["yllcorner"], header["cellsize"], int(nx), int(ny))
    except ValueError as exc:
        raise ParseError(f"header makes no valid grid: {exc}", path) from exc
    if len(rows) != grid.ny or any(r.size != grid.nx for r in rows):
        raise ParseError(f"expected {grid.ny} rows of {grid.nx} values", path)
    values = np.vstack(rows)[::-1]
    if "nodata_value" in header:
        n_nodata = int(np.count_nonzero(values == header["nodata_value"]))
        if n_nodata:
            raise ParseError(f"{n_nodata} NODATA cells; every cell needs a value", path)
    n_bad = int(np.count_nonzero(~np.isfinite(values)))
    if n_bad:
        raise ParseError(f"{n_bad} non-finite cells; every cell needs a finite value", path)
    return RasterGrid(grid, values)


def read_points_csv(path, domain=None) -> PointPattern:
    """Read a point pattern from a CSV with header ``x,y``.

    The domain defaults to the points' bounding box when not supplied.
    """
    pts = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if lineno == 1 and line.lower().replace(" ", "").startswith("x,y"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ParseError("expected 'x,y' fields", path, lineno)
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ParseError(f"non-numeric coordinate: {exc}", path, lineno)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"non-finite coordinate in {line!r}", path, lineno)
            pts.append((x, y))
    arr = np.array(pts, dtype=float).reshape(-1, 2)
    if domain is None:
        if arr.size == 0:
            raise ParseError("empty point file and no domain given", path)
        pad = 1e-9
        domain = (arr[:, 0].min() - pad, arr[:, 1].min() - pad,
                  arr[:, 0].max() + pad, arr[:, 1].max() + pad)
    return PointPattern(arr, domain)


def write_points_csv(pattern: PointPattern, path) -> None:
    write_csv(path, ["x", "y"], pattern.points.tolist())


def read_roads_geojson(path) -> RoadNetwork:
    """Read LineString/MultiLineString features from a GeoJSON FeatureCollection."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path, exc.lineno)
    features = doc.get("features")
    if doc.get("type") != "FeatureCollection" or features is None:
        raise ParseError("expected a GeoJSON FeatureCollection", path)
    lines = []
    for k, feat in enumerate(features):
        geom = feat.get("geometry") or {}
        gtype = geom.get("type")
        coords = geom.get("coordinates", [])
        if gtype == "LineString":
            lines.append(np.asarray(coords, dtype=float))
        elif gtype == "MultiLineString":
            lines.extend(np.asarray(part, dtype=float) for part in coords)
        elif gtype is None:
            raise ParseError(f"feature {k} has no geometry", path)
        # Other geometry types are skipped: road layers may carry stray points.
    if not lines:
        raise ParseError("no LineString features found", path)
    return RoadNetwork(tuple(lines))


def write_roads_geojson(roads: RoadNetwork, path) -> None:
    features = [{
        "type": "Feature",
        "properties": {},
        "geometry": {"type": "LineString",
                     "coordinates": [[float(x), float(y)] for x, y in line]},
    } for line in roads.polylines]
    with open(path, "w") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh)


def read_roads_csv(path) -> RoadNetwork:
    """Fallback CSV format: header ``polyline_id,vertex_index,x,y``."""
    rows: dict[str, list[tuple[int, float, float]]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if lineno == 1 and line.lower().startswith("polyline_id"):
                continue
            parts = line.split(",")
            if len(parts) < 4:
                raise ParseError("expected 'polyline_id,vertex_index,x,y'", path, lineno)
            try:
                rows.setdefault(parts[0], []).append(
                    (int(parts[1]), float(parts[2]), float(parts[3])))
            except ValueError as exc:
                raise ParseError(f"bad field: {exc}", path, lineno)
    if not rows:
        raise ParseError("no polylines found", path)
    lines = []
    for key in rows:
        verts = sorted(rows[key])
        lines.append(np.array([[x, y] for _, x, y in verts]))
    return RoadNetwork(tuple(lines))


def read_roads(path) -> RoadNetwork:
    """Dispatch on extension: .geojson/.json or .csv."""
    p = str(path)
    if p.endswith(".csv"):
        return read_roads_csv(p)
    if p.endswith(".json") or p.endswith(".geojson"):
        return read_roads_geojson(p)
    raise LgcpThinError(f"unrecognized road file extension: {p}")
