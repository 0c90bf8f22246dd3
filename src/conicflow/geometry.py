"""Discrete differential geometry on the sphere.

Unit conventions ("paper units"), used everywhere in the package and
checked by the tests through their defining identities (round area 2,
round curvature 1, discrete integration by parts, agreement with an
independent finite-difference curvature oracle):

* ``dg`` is the honest Riemannian area measure, with the round background
  normalized to total area 2 (so the round radius is r = (2 pi)^(-1/2));
* the scalar curvature is the Gauss curvature divided by 2 pi, so the round
  sphere has R = 1 and Gauss-Bonnet reads ``integral R dg = 2``;
* the Laplacian is the Laplace-Beltrami operator divided by 4 pi;
* the gradient square is the Riemannian one divided by 4 pi, which makes
  ``integral (Lap f) h dg = - integral <grad f, grad h> dg`` hold with no
  stray constants.

The grid is latitude-longitude with nodes at cell centers (the poles are
not nodes), exact cell areas for quadrature, and a divergence-form stencil
built from Mercator resistances: in the conformal coordinate
m = log tan(theta/2) the Dirichlet energy is flat, so the edge coefficients
are exact conformal resistances and the discrete Laplacian is self-adjoint
with respect to any conformal metric's area weights.  A consequence used by
the tests: the discrete total curvature ``integral R dg`` equals 2 exactly
for every state, because the curvature of a conformal factor integrates by
parts to zero against the stencil.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .marked_sphere import Divisor

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
#: squared radius of the round sphere of area 2
ROUND_R2 = 1.0 / TWO_PI

MIN_N_LAT = 16
MIN_N_LON = 32


@dataclass(frozen=True)
class UnitConstants:
    """The internal unit convention, written to every run's manifest."""

    round_area: float = 2.0
    round_radius_sq: float = ROUND_R2
    curvature_scale: float = 1.0 / TWO_PI  # R = curvature_scale * K_gauss
    laplacian_scale: float = 1.0 / FOUR_PI  # Lap = laplacian_scale * Lap_LB
    gradient_scale: float = 1.0 / FOUR_PI  # |grad f|^2 scale

    def as_dict(self) -> dict:
        return {
            "round_area": self.round_area,
            "round_radius_sq": self.round_radius_sq,
            "curvature_scale": self.curvature_scale,
            "laplacian_scale": self.laplacian_scale,
            "gradient_scale": self.gradient_scale,
        }


UNITS = UnitConstants()


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------


def _mercator(theta):
    return np.log(np.tan(0.5 * np.asarray(theta)))


def vec_from_angles(theta, eta):
    st = np.sin(theta)
    return np.stack([st * np.cos(eta), st * np.sin(eta), np.cos(theta)], axis=-1)


def angles_from_vec(p):
    p = np.asarray(p, dtype=float)
    theta = np.arccos(np.clip(p[..., 2], -1.0, 1.0))
    eta = np.mod(np.arctan2(p[..., 1], p[..., 0]), TWO_PI)
    return theta, eta


@dataclass
class SphereGrid:
    """Latitude-longitude grid; ``n_lon == 1`` is the axisymmetric reduction.

    Nodes sit at cell centers theta_i = (i + 1/2) pi / n_lat; quadrature
    weights are exact cell areas of the round area-2 background, so constants
    integrate exactly.  ``L`` is the positive semi-definite stiffness matrix
    of the calibrated Dirichlet form (kernel = constants), shared by every
    conformal metric on the grid.
    """

    n_lat: int
    n_lon: int
    theta: np.ndarray
    eta: np.ndarray
    w: np.ndarray  # (N,) cell areas, sum = 2 exactly
    L: sp.csr_matrix = field(repr=False)
    divisor: Divisor = None
    marked_points: np.ndarray = None  # possibly nudged copies of the positions
    nudges: list = field(default_factory=list)
    edge_a: np.ndarray = field(default=None, repr=False)
    edge_b: np.ndarray = field(default=None, repr=False)
    edge_len_bg: np.ndarray = field(default=None, repr=False)
    pole_edge_node: np.ndarray = field(default=None, repr=False)
    pole_edge_len: np.ndarray = field(default=None, repr=False)
    _ground_lu: object = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.n_lat * self.n_lon

    @property
    def h_theta(self) -> float:
        return math.pi / self.n_lat

    @property
    def ordering(self) -> str:
        """SuperLU column ordering (``permc_spec``) of every factor on the grid.

        Each factored matrix, ``diag(d) + L`` and the grounded ``L[1:, 1:]``,
        is symmetric, so 2-D grids take minimum degree on its structure,
        which cuts the stepper's fill at 64x128 from 605k to 388k.  The 1-D
        tridiagonal factors keep COLAMD, because there the ordering moves
        the traced monitors of the shipped 32768-row axis run (seed 0) far
        outside the benchmark's 1e-9 reference gate: minimum degree in the
        stepper moves ``renorm_drift[1]`` by 5.6e-8 relative, and in the
        grounded factor ``soliton_residual`` by 2.0e-8 and ``f_beta`` by
        1.5e-8.

        The 1-D stepper, which refactors on every step of a long run,
        computes this order once per run and factors the pre-permuted matrix
        in natural order, bit for bit the same factor.  2-D factors are
        ordered at every factorization: pre-permuting there changes the
        factor's round-off, and the 2-D stepper factors only a few times.
        """
        return "COLAMD" if self.n_lon == 1 else "MMD_AT_PLUS_A"

    def node_index(self, i, j):
        return i * self.n_lon + j

    def positions(self) -> np.ndarray:
        th = np.repeat(self.theta, self.n_lon)
        et = np.tile(self.eta, self.n_lat)
        return vec_from_angles(th, et)

    def nearest_node(self, point) -> int:
        p = np.asarray(point, dtype=float)
        p = p / np.linalg.norm(p)
        theta, eta = angles_from_vec(p)
        i = int(np.clip(round(theta / self.h_theta - 0.5), 0, self.n_lat - 1))
        if self.n_lon == 1:
            return i
        h_eta = TWO_PI / self.n_lon
        j = int(round(eta / h_eta)) % self.n_lon
        return self.node_index(i, j)

    def ground_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve L x = b (consistent b) with x at node 0 pinned to zero,
        against one LU of ``L[1:, 1:]`` in the grid's ``ordering``."""
        if self._ground_lu is None:
            lg = self.L[1:, 1:].tocsc()
            self._ground_lu = spla.splu(lg, permc_spec=self.ordering)
        x = np.zeros(self.n)
        x[1:] = self._ground_lu.solve(b[1:])
        return x


def _check_marked_points(grid: SphereGrid, divisor: Divisor) -> None:
    if divisor is None or divisor.k == 0:
        return
    h_eta = TWO_PI / grid.n_lon
    cells = []
    for p in grid.marked_points:
        theta, eta = angles_from_vec(p)
        i = int(np.clip(theta // grid.h_theta, 0, grid.n_lat - 1))
        j = int(eta // h_eta) % grid.n_lon
        cells.append((i, j))
    if len(set(cells)) != len(cells):
        raise ValueError("two marked points fall inside one grid cell")


def build_grid(n_lat: int, n_lon: int, divisor: Divisor = None) -> SphereGrid:
    """Build the 2-D grid, nudging marked points off grid nodes if needed.

    A marked point exactly at a pole is moved to the adjacent cell-center
    latitude (offset under one cell, recorded); a point coinciding with a
    node is shifted by half a cell in longitude.  Two marked points inside
    one cell are rejected.
    """
    if n_lat < MIN_N_LAT or n_lon < MIN_N_LON:
        raise ValueError(
            f"resolution too small: need n_lat >= {MIN_N_LAT} and n_lon >= {MIN_N_LON}"
        )
    grid = _assemble_grid(n_lat, n_lon)
    grid.divisor = divisor
    if divisor is not None and divisor.k:
        pts = divisor.positions.copy()
        h_eta = TWO_PI / n_lon
        nodes = grid.positions()
        for idx in range(divisor.k):
            theta, eta = angles_from_vec(pts[idx])
            if min(theta, math.pi - theta) < 1e-12:
                new_theta = grid.h_theta / 2 if theta < 1e-12 else math.pi - grid.h_theta / 2
                pts[idx] = vec_from_angles(new_theta, 0.0)
                grid.nudges.append((idx, grid.h_theta / 2))
                continue
            node = grid.nearest_node(pts[idx])
            ang = math.acos(float(np.clip(np.dot(pts[idx], nodes[node]), -1, 1)))
            if ang < 1e-9:
                pts[idx] = vec_from_angles(theta, eta + 0.5 * h_eta)
                grid.nudges.append((idx, 0.5 * h_eta))
        grid.marked_points = pts
    else:
        grid.marked_points = np.zeros((0, 3))
    _check_marked_points(grid, divisor)
    return grid


def build_axis_grid(n_lat: int, divisor: Divisor = None) -> SphereGrid:
    """1-D colatitude grid for rotationally symmetric runs.

    The divisor may hold at most two marked points, placed at the poles.
    The stencil and weights are the exact zonal aggregates of the 2-D ones,
    so axisymmetric data evolves identically in both solvers.
    """
    if n_lat < MIN_N_LAT:
        raise ValueError(f"resolution too small: need n_lat >= {MIN_N_LAT}")
    if divisor is not None and divisor.k:
        if divisor.k > 2:
            raise ValueError("axisymmetric path needs at most 2 marked points")
        for p in divisor.positions:
            if abs(abs(float(p[2])) - 1.0) > 1e-12:
                raise ValueError("axisymmetric marked points must sit at the poles")
        if divisor.k == 2 and divisor.positions[0][2] * divisor.positions[1][2] > 0:
            raise ValueError("two axisymmetric marked points must be at opposite poles")
    grid = _assemble_grid(n_lat, 1)
    grid.divisor = divisor
    grid.marked_points = divisor.positions.copy() if (divisor and divisor.k) else np.zeros((0, 3))
    return grid


def _assemble_grid(n_lat: int, n_lon: int) -> SphereGrid:
    h_theta = math.pi / n_lat
    theta = (np.arange(n_lat) + 0.5) * h_theta
    faces = np.arange(n_lat + 1) * h_theta  # cell boundaries, poles included
    eta = np.arange(n_lon) * (TWO_PI / n_lon)
    h_eta = TWO_PI / n_lon

    # exact cell areas of the area-2 round sphere: sum telescopes to 2
    band = np.cos(faces[:-1]) - np.cos(faces[1:])
    w2d = np.repeat(band[:, None] / n_lon, n_lon, axis=1)
    w = w2d.ravel()

    m = _mercator(theta)
    m_cell = _mercator(np.clip(faces, 1e-300, None))  # faces[0]=0 handled below

    n = n_lat * n_lon
    idx = np.arange(n).reshape(n_lat, n_lon)
    east = np.roll(idx, -1, axis=1)  # idx[i, (j + 1) % n_lon]
    # meridian edges: conformal resistance between node latitudes
    ea, eb = [idx[:-1].ravel()], [idx[1:].ravel()]
    ek = [np.repeat((1.0 / FOUR_PI) * h_eta / (m[1:] - m[:-1]), n_lon)]
    # zonal edges: cell height in Mercator over cell width
    if n_lon > 1:
        dm = m_cell[1:] - m_cell[:-1]
        dm[0] = m_cell[1] - m[0]  # pole cap: resistance taken from the node
        dm[-1] = m[-1] - m_cell[n_lat - 1]
        ea.append(idx.ravel()), eb.append(east.ravel())
        ek.append(np.repeat((1.0 / FOUR_PI) * dm / h_eta, n_lon))
    a, b, k = (np.concatenate(e) for e in (ea, eb, ek))
    # each edge adds [a, b, a, b] x [b, a, a, b] x [-k, -k, k, k], in edge
    # order, so the duplicates on the diagonal sum in a fixed order
    rows = np.stack([a, b, a, b], axis=1).ravel()
    cols = np.stack([b, a, a, b], axis=1).ravel()
    vals = np.stack([-k, -k, k, k], axis=1).ravel()

    L = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    grid = SphereGrid(n_lat, n_lon, theta, eta, w, L)

    # Dijkstra edge set: 4-neighbors plus diagonals, plus virtual pole hubs
    r = math.sqrt(ROUND_R2)
    if n_lon > 1:
        # each node of rows 0..n_lat-2 links south, south-east, south-west
        # and east, in that order; each node of the last row links east.
        # The per-row lengths take math.sin and math.hypot, whose rounding
        # numpy's vectorized versions need not share.
        diag = np.array([r * math.hypot(h_theta, math.sin(0.5 * (theta[i] + theta[i + 1])) * h_eta)
                         for i in range(n_lat - 1)])
        zonal = np.array([r * math.sin(t) * h_eta for t in theta])
        west = np.roll(idx, 1, axis=1)  # idx[i, (j - 1) % n_lon]
        south = np.stack([idx[1:], east[1:], west[1:], east[:-1]], axis=2)
        south_len = np.empty(south.shape)
        south_len[..., 0] = r * h_theta
        south_len[..., 1] = south_len[..., 2] = diag[:, None]
        south_len[..., 3] = zonal[:-1, None]
        ea = np.concatenate([np.repeat(idx[:-1].ravel(), 4), idx[-1]])
        eb = np.concatenate([south.ravel(), east[-1]])
        el = np.concatenate([south_len.ravel(), np.full(n_lon, zonal[-1])])
        pole_nodes = np.concatenate([idx[0], idx[-1]])
        pole_len = np.full(2 * n_lon, r * h_theta / 2.0)
    else:
        ea, eb = np.arange(n_lat - 1), np.arange(1, n_lat)
        el = np.full(n_lat - 1, r * h_theta)
        pole_nodes = np.array([0, n_lat - 1])
        pole_len = np.full(2, r * h_theta / 2.0)
    grid.edge_a = np.asarray(ea, dtype=np.int32)
    grid.edge_b = np.asarray(eb, dtype=np.int32)
    grid.edge_len_bg = np.asarray(el)
    grid.pole_edge_node = pole_nodes.astype(np.int32)
    grid.pole_edge_len = pole_len
    return grid


# ----------------------------------------------------------------------
# background metric and states
# ----------------------------------------------------------------------


@dataclass
class BackgroundMetric:
    """Epsilon-smoothed conical reference metric, area-normalized to 2.

    ``R`` is the full metric curvature of the smoothed background (its total
    is exactly 2).  ``cone_term`` models the conical Dirac masses: it is the
    closed-form curvature bump of the smoothing, whose continuum integral is
    exactly sum(beta).  The conical flow and the conical functionals use the
    smooth-part curvature R - e^-u cone_term, which integrates to chi; the
    difference between sum(beta) and the quadrature of the bump is the
    unresolved cone mass, which the flow reports as area drift
    (``renorm_drift``).  ``h`` caches the background's Ricci potential,
    filled by :func:`conicflow.functionals.h_background`.
    """

    grid: SphereGrid
    divisor: Divisor
    eps: float
    rho: np.ndarray  # conformal density relative to the round background
    log_rho: np.ndarray
    R: np.ndarray  # background scalar curvature field (full, smoothed)
    cone_term: np.ndarray  # smoothed delta masses, divided by rho
    h: np.ndarray = None  # Ricci potential of the background (cached)

    @property
    def mass(self) -> np.ndarray:
        return self.grid.w * self.rho

    def chi(self) -> float:
        return 2.0 - (self.divisor.weights_float().sum() if self.divisor else 0.0)

    def beta_max(self) -> float:
        """The largest cone weight; 0 without marked points."""
        return float(self.divisor.weights_float().max()) if self.divisor and self.divisor.k else 0.0


def background_metric(grid: SphereGrid, divisor: Divisor, eps: float) -> BackgroundMetric:
    """Smoothed conical background: density ~ prod_j (s_j + eps^2)^(-beta_j).

    s_j(x) = 1 - <x, p_j> vanishes to second order at p_j, so the eps -> 0
    limit is the |z|^(-2 beta_j) cone model.  The density is rescaled to
    total area 2 and the curvature field computed from the density through
    the calibrated stencil (which makes integral R dg = 2 exact).
    """
    if eps <= 0:
        raise ValueError("smoothing length eps must be positive")
    if divisor is not None and divisor.k and math.sqrt(2.0) * eps < grid.h_theta:
        raise ValueError(
            f"eps={eps} leaves the cone core unresolved at n_lat={grid.n_lat} "
            f"(need sqrt(2)*eps >= {grid.h_theta:.4f})"
        )
    pos = grid.positions()
    log_rho = np.zeros(grid.n)
    delta = np.zeros(grid.n)  # smoothed Dirac masses, unit-round density
    lap_log = np.zeros(grid.n)  # round Laplacian of log rho, closed form
    e2 = eps * eps
    if divisor is not None and divisor.k:
        w = divisor.weights_float()
        for j in range(divisor.k):
            s = 1.0 - pos @ grid.marked_points[j]
            log_rho -= w[j] * np.log(s + e2)
            den = (s + e2) ** 2
            # curvature bump of the (s + eps^2)^-beta smoothing; integrates
            # to beta exactly against the unit-round measure
            delta += 0.5 * w[j] * e2 * (2.0 + e2) / den
            lap_log -= w[j] * (2.0 * e2 * (1.0 - s) - s * s) / den
    log_rho -= log_rho.max()  # overflow guard before normalization
    rho = np.exp(log_rho)
    total = float(np.sum(grid.w * rho))
    if not np.isfinite(total) or total <= 0:
        raise ValueError("background density overflow; increase eps")
    rho *= 2.0 / total
    log_rho = np.log(rho)
    # closed-form curvature of the closed-form density: the stencil error of
    # differentiating the sharp core profile would otherwise leak into the
    # dynamics.  The bump model cancels it exactly:
    # R - delta/rho = (chi/2)/rho pointwise, so the smooth part is positive
    # and the conical total curvature equals chi to round-off.
    R = (1.0 - 0.5 * lap_log) / rho
    return BackgroundMetric(grid, divisor, float(eps), rho, log_rho, R, cone_term=delta / rho)


@dataclass
class MetricState:
    """Conformal metric g = e^u g_bg at flow time t."""

    background: BackgroundMetric
    u: np.ndarray
    t: float = 0.0

    @property
    def grid(self) -> SphereGrid:
        return self.background.grid

    @property
    def mass(self) -> np.ndarray:
        return self.background.mass * np.exp(self.u)

    def area(self) -> float:
        return float(np.sum(self.mass))


def make_state(background: BackgroundMetric, u=None, t: float = 0.0) -> MetricState:
    if u is None:
        u = np.zeros(background.grid.n)
    return MetricState(background, np.asarray(u, dtype=float), t)


# ----------------------------------------------------------------------
# calibrated field operations
# ----------------------------------------------------------------------


def integrate(f, state: MetricState) -> float:
    """integral f dg = sum f_i w_i rho_i e^(u_i)."""
    return float(np.sum(np.asarray(f) * state.mass))


def scalar_curvature(state: MetricState) -> np.ndarray:
    """R = e^(-u) (R_bg - Lap_bg u): the full metric curvature.

    The discrete total ``integrate(R) = 2`` holds exactly for every state,
    because the conformal contribution integrates by parts to zero against
    the stencil.
    """
    bg = state.background
    return np.exp(-state.u) * (bg.R + (state.grid.L @ state.u) / bg.mass)


def conical_curvature(state: MetricState) -> np.ndarray:
    """Smooth-part curvature R - e^(-u) * cone_term.

    This is the curvature entering the conical flow and the conical
    functionals: the smoothed Dirac masses at the marked points are
    subtracted, so the total is chi(S^2, beta) rather than 2 (up to the
    unresolved quadrature sliver of the bump).
    """
    return scalar_curvature(state) - np.exp(-state.u) * state.background.cone_term


def dirichlet_energy(f, h, grid: SphereGrid) -> float:
    """Calibrated Dirichlet pairing integral <grad f, grad h> dg
    (conformally invariant, so no state is needed)."""
    return float(np.asarray(f) @ (grid.L @ np.asarray(h)))


def grad_sq_field(f, state: MetricState) -> np.ndarray:
    """Pointwise |grad f|^2 in the calibrated scale, distributed from edge
    differences so that integrate(grad_sq_field(f), state) equals
    dirichlet_energy(f, f) exactly."""
    f = np.asarray(f, dtype=float)
    L = state.grid.L
    e = 2.0 * f * (L @ f) - (L @ (f * f))
    return 0.5 * np.maximum(e, 0.0) / state.mass


# ----------------------------------------------------------------------
# distances and volumes
# ----------------------------------------------------------------------


def _edge_graph(state: MetricState) -> sp.csr_matrix:
    grid = state.grid
    sqrt_rho = np.sqrt(state.background.rho * np.exp(state.u))
    wts = grid.edge_len_bg * 0.5 * (sqrt_rho[grid.edge_a] + sqrt_rho[grid.edge_b])
    n = grid.n
    npole = grid.pole_edge_node.size // 2
    pa = np.full(npole, n, dtype=np.int32)
    pb = np.full(npole, n + 1, dtype=np.int32)
    pole_src = np.concatenate([pa, pb])
    pole_wts = grid.pole_edge_len * sqrt_rho[grid.pole_edge_node]
    rows = np.concatenate([grid.edge_a, pole_src])
    cols = np.concatenate([grid.edge_b, grid.pole_edge_node])
    data = np.concatenate([wts, pole_wts])
    return sp.coo_matrix((data, (rows, cols)), shape=(n + 2, n + 2)).tocsr()


def _node(state: MetricState, point) -> int:
    return int(point) if isinstance(point, (int, np.integer)) else state.grid.nearest_node(point)


def geodesic_rows(state: MetricState, sources) -> dict:
    """Graph geodesic distances from each source (point or node index) to
    all nodes, keyed by source node.

    8-neighbor Dijkstra with edge lengths scaled by e^(u/2); an upper bound
    on the true distance, first-order convergent, and exactly a metric.  The
    edge graph is built once and one multi-source Dijkstra serves every
    distinct source node; each row equals its single-source run exactly.
    """
    nodes = list(dict.fromkeys(_node(state, s) for s in sources))
    if not nodes:
        return {}
    d = _csgraph_dijkstra(_edge_graph(state), directed=False, indices=nodes)
    return {s: d[i, : state.grid.n] for i, s in enumerate(nodes)}


def distances_from(state: MetricState, source, rows=None) -> np.ndarray:
    """Graph geodesic distances from a point (or node index) to all nodes:
    its row of ``rows`` when given, else a one-source :func:`geodesic_rows`."""
    node = _node(state, source)
    return (geodesic_rows(state, [node]) if rows is None else rows)[node]


def marked_rows(state: MetricState, rows=None) -> list:
    """Distance rows of the marked points, in marked-point order; one
    :func:`geodesic_rows` pass when ``rows`` is not given."""
    pts = state.grid.marked_points
    if rows is None:
        rows = geodesic_rows(state, pts)
    return [rows[_node(state, p)] for p in pts]


def pairwise_marked_distances(state: MetricState, rows=None) -> np.ndarray:
    nodes = [_node(state, p) for p in state.grid.marked_points]
    k = len(nodes)
    out = np.array([d[nodes] for d in marked_rows(state, rows)]).reshape(k, k)
    return 0.5 * (out + out.T)


def ball_volume(state: MetricState, center, r: float, rows=None) -> float:
    """dg-area of the geodesic ball of radius r about the given point."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return 0.0
    d = distances_from(state, center, rows)
    return float(np.sum(state.mass[d <= r]))


def diameter_sources(state: MetricState) -> list:
    """Source nodes of :func:`diameter_estimate`: the six coordinate-axis
    nodes and the marked points, without repeats."""
    axes = ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1])
    points = [*axes, *state.grid.marked_points]
    return list(dict.fromkeys(_node(state, p) for p in points))


def diameter_estimate(state: MetricState, rows=None) -> float:
    """Max graph distance over a small source set (marked points plus the
    coordinate axes); a diagnostic, not a certified diameter."""
    sources = diameter_sources(state)
    if rows is None:
        rows = geodesic_rows(state, sources)
    best = 0.0
    for s in sources:
        d = rows[s]
        best = max(best, float(d[np.isfinite(d)].max()))
    return best


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def save_field(path: str, values: np.ndarray) -> None:
    """Write a node field as (index, value) CSV rows."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        for i, v in enumerate(np.asarray(values, dtype=float)):
            wr.writerow([i, f"{v:.17g}"])


def load_field(path: str, n: int = None) -> np.ndarray:
    """Read a field written by :func:`save_field`; ``n`` is the node count
    the file must hold.  A malformed row raises ValueError."""
    with open(path, newline="") as fh:
        arr = np.asarray([float(v) for _, v in csv.reader(fh)])
    if n is not None and arr.size != n:
        raise ValueError(f"field file has {arr.size} values, expected {n}")
    return arr
