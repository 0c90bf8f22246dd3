"""Discrete differential geometry on the sphere.

Unit conventions ("paper units"), fixed once by :func:`calibrate_units` and
used everywhere in the package:

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


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class UnitConstants:
    """The internal unit convention, immutable after calibration."""

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
        for idx in range(divisor.k):
            theta, eta = angles_from_vec(pts[idx])
            if min(theta, math.pi - theta) < 1e-12:
                new_theta = grid.h_theta / 2 if theta < 1e-12 else math.pi - grid.h_theta / 2
                pts[idx] = vec_from_angles(new_theta, 0.0)
                grid.nudges.append((idx, grid.h_theta / 2))
                continue
            node = grid.nearest_node(pts[idx])
            ang = math.acos(float(np.clip(np.dot(pts[idx], grid.positions()[node]), -1, 1)))
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
    rows, cols, vals = [], [], []

    def add_edges(a, b, k):
        rows.extend([a, b, a, b])
        cols.extend([b, a, a, b])
        vals.extend([-k, -k, k, k])

    idx = np.arange(n).reshape(n_lat, n_lon)
    # meridian edges: conformal resistance between node latitudes
    for i in range(n_lat - 1):
        k = (1.0 / FOUR_PI) * h_eta / (m[i + 1] - m[i])
        for j in range(n_lon):
            add_edges(idx[i, j], idx[i + 1, j], k)
    # zonal edges: cell height in Mercator over cell width
    if n_lon > 1:
        for i in range(n_lat):
            dm = m_cell[i + 1] - m_cell[i] if 0 < i < n_lat - 1 else None
            if i == 0:
                dm = m_cell[1] - m[0]  # pole cap: resistance taken from the node
            elif i == n_lat - 1:
                dm = m[-1] - m_cell[n_lat - 1]
            k = (1.0 / FOUR_PI) * dm / h_eta
            for j in range(n_lon):
                add_edges(idx[i, j], idx[i, (j + 1) % n_lon], k)

    L = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    grid = SphereGrid(n_lat, n_lon, theta, eta, w, L)

    # Dijkstra edge set: 4-neighbors plus diagonals, plus virtual pole hubs
    r = math.sqrt(ROUND_R2)
    ea, eb, el = [], [], []
    if n_lon > 1:
        for i in range(n_lat):
            for j in range(n_lon):
                a = idx[i, j]
                if i + 1 < n_lat:
                    ea.append(a), eb.append(idx[i + 1, j]), el.append(r * h_theta)
                    mid = math.sin(0.5 * (theta[i] + theta[i + 1]))
                    diag = r * math.hypot(h_theta, mid * h_eta)
                    ea.append(a), eb.append(idx[i + 1, (j + 1) % n_lon]), el.append(diag)
                    ea.append(a), eb.append(idx[i + 1, (j - 1) % n_lon]), el.append(diag)
                ea.append(a), eb.append(idx[i, (j + 1) % n_lon]), el.append(r * math.sin(theta[i]) * h_eta)
        pole_nodes = np.concatenate([idx[0], idx[-1]])
        pole_len = np.full(2 * n_lon, r * h_theta / 2.0)
    else:
        for i in range(n_lat - 1):
            ea.append(i), eb.append(i + 1), el.append(r * h_theta)
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
    unresolved cone mass reported as area drift by the flow.
    """

    grid: SphereGrid
    divisor: Divisor
    eps: float
    rho: np.ndarray  # conformal density relative to the round background
    log_rho: np.ndarray
    R: np.ndarray  # background scalar curvature field (full, smoothed)
    cone_term: np.ndarray  # smoothed delta masses, divided by rho
    resolved_cone_mass: float = 0.0  # quadrature of the bump; ~ sum(beta)
    h: np.ndarray = None  # Ricci potential of the background (cached)
    h_correction: float = 0.0

    @property
    def mass(self) -> np.ndarray:
        return self.grid.w * self.rho

    def chi(self) -> float:
        return 2.0 - (self.divisor.weights_float().sum() if self.divisor else 0.0)


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
    resolved = float(np.sum(delta * grid.w))
    return BackgroundMetric(
        grid, divisor, float(eps), rho, log_rho, R,
        cone_term=delta / rho, resolved_cone_mass=resolved,
    )


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

    def copy(self) -> "MetricState":
        return MetricState(self.background, self.u.copy(), self.t)


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


def laplacian(f, state: MetricState) -> np.ndarray:
    """Metric Laplacian in paper scale; annihilates constants, self-adjoint
    with respect to the dg inner product."""
    f = np.asarray(f, dtype=float)
    if f.shape != (state.grid.n,):
        raise ValueError("field does not match the grid")
    return -(state.grid.L @ f) / state.mass


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
# independent curvature oracle (Mercator finite differences)
# ----------------------------------------------------------------------


def curvature_oracle(state: MetricState):
    """Gauss-curvature finite differences in conformal (Mercator) coordinates.

    Returns (field, mask); the mask excludes the first and last latitude
    rows where one-sided stencils would degrade the comparison.  Independent
    of the stencil matrix: uses log-density second differences only.
    """
    grid = state.grid
    log_dens = (np.log(state.background.rho) + state.u).reshape(grid.n_lat, grid.n_lon)
    sin_th = np.sin(grid.theta)[:, None]
    cos_th = np.cos(grid.theta)[:, None]
    h_th = grid.h_theta
    d1 = np.zeros_like(log_dens)
    d2 = np.zeros_like(log_dens)
    d1[1:-1] = (log_dens[2:] - log_dens[:-2]) / (2.0 * h_th)
    d2[1:-1] = (log_dens[2:] - 2.0 * log_dens[1:-1] + log_dens[:-2]) / (h_th * h_th)
    # flat Laplacian in Mercator coordinates via d/dm = sin(theta) d/dtheta;
    # the round factor 2 log sin(theta) = -2 log cosh m contributes exactly
    # -2 sin^2(theta)
    lap = sin_th * sin_th * d2 + sin_th * cos_th * d1 - 2.0 * sin_th * sin_th
    if grid.n_lon > 1:
        h_eta = TWO_PI / grid.n_lon
        lap += (
            np.roll(log_dens, 1, axis=1) - 2.0 * log_dens + np.roll(log_dens, -1, axis=1)
        ) / h_eta**2
    H = ROUND_R2 * state.background.rho * np.exp(state.u) * np.repeat(sin_th.ravel() ** 2, grid.n_lon)
    R = -lap.ravel() / (FOUR_PI * H)
    mask = np.ones(grid.n, dtype=bool).reshape(grid.n_lat, grid.n_lon)
    mask[0, :] = mask[-1, :] = False
    return R, mask.ravel()


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


def geodesic_distance(state: MetricState, a, b) -> float:
    return float(distances_from(state, a)[_node(state, b)])


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
# calibration self-test
# ----------------------------------------------------------------------


def calibrate_units(n_lat: int = 32, n_lon: int = 64, seed: int = 0) -> UnitConstants:
    """Verify the unit conventions by their defining identities.

    (i) quadrature of constants: total round area 2; (ii) round curvature
    R = 1 exactly; (iii) the conformal curvature formula agrees with an
    independent Gauss-curvature finite-difference oracle; (iv) discrete
    integration by parts holds to round-off for random field pairs.
    Raises :class:`CalibrationError` if any identity fails.
    """
    grid = build_grid(max(n_lat, MIN_N_LAT), max(n_lon, MIN_N_LON))
    bg = background_metric(grid, None, eps=0.1)
    state = make_state(bg)
    rng = np.random.default_rng(seed)

    if abs(float(np.sum(grid.w)) - 2.0) > 1e-12:
        raise CalibrationError("round area quadrature failed")
    if np.max(np.abs(scalar_curvature(state) - 1.0)) > 1e-10:
        raise CalibrationError("round curvature normalization failed")

    for _ in range(20):
        f = rng.standard_normal(grid.n)
        h = rng.standard_normal(grid.n)
        lhs = integrate(laplacian(f, state) * h, state)
        rhs = -dirichlet_energy(f, h, grid)
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(rhs)):
            raise CalibrationError("integration by parts failed")
        if abs(integrate(laplacian(f, state), state)) > 1e-10 * np.abs(f).max():
            raise CalibrationError("divergence form failed")

    th = np.repeat(grid.theta, grid.n_lon)
    et = np.tile(grid.eta, grid.n_lat)
    u = 0.3 * np.sin(th) * np.cos(et) + 0.2 * np.cos(th)
    smooth = make_state(bg, u)
    R = scalar_curvature(smooth)
    R_oracle, mask = curvature_oracle(smooth)
    m2 = mask.reshape(grid.n_lat, grid.n_lon)
    m2[:3, :] = m2[-3:, :] = False
    resid = np.max(np.abs((R - R_oracle)[m2.ravel()]))
    # the two discretizations agree to ~1e-3 here; a wrong 2 pi convention
    # anywhere would show up at O(1)
    if resid > 0.05:
        raise CalibrationError(f"conformal curvature identity residual {resid:.2e}")
    return UNITS


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
