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

A :class:`MetricState` is an immutable value: its conformal factor is
read-only, and its mass, its two curvature fields (``scalar_curvature``
and ``conical_curvature``) and its geodesic ``distance_rows`` are computed
once, on first use, however many monitors read them.  Grids and
backgrounds are immutable values too, built whole; their derived fields
are computed once, on first use.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

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

#: SuperLU panel width (``panel_size``) of every factor on every grid.
#: SuperLU factors a panel of columns at a time and sets up work arrays of
#: rows x panel for each factorization.  On the 32768-row axis grid, whose
#: tridiagonal factors gain nothing from panels, a stepper factor takes
#: 8.5-11.7 ms at 5 columns against 16.9-19.4 ms at scipy's default (about
#: 20) and touches 6.9 MB against 14.4 MB (scipy 1.17.1, 2-core Xeon), with
#: the default's factors bit for bit.  Other widths do not keep that: 1, 2
#: and 4 move the axis run's round-off, 8 and 16 change the 8192-row
#: factors, and 32 has crashed ``splu``.  On 2-D grids 5 columns keep the
#: fill and the back-solve time, and take 7-25% off each factorization at
#: 64x128 and 128x256.
PANEL_SIZE = 5


#: the internal unit convention, written to every run's manifest
UNITS = {
    "round_area": 2.0,
    "round_radius_sq": ROUND_R2,
    "curvature_scale": 1.0 / TWO_PI,  # R = curvature_scale * K_gauss
    "laplacian_scale": 1.0 / FOUR_PI,  # Lap = laplacian_scale * Lap_LB
    "gradient_scale": 1.0 / FOUR_PI,  # |grad f|^2 scale
}


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


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Latitude-longitude grid; ``n_lon == 1`` is the axisymmetric reduction.

    Nodes sit at cell centers theta_i = (i + 1/2) pi / n_lat; quadrature
    weights are exact cell areas of the round area-2 background, so constants
    integrate exactly.  ``L`` is the positive semi-definite stiffness matrix
    of the calibrated Dirichlet form (kernel = constants), shared by every
    conformal metric on the grid.  A grid is an immutable value, built
    whole by :func:`build_grid` or :func:`build_axis_grid`, which find the
    marked points' nodes and the diameter's source nodes once; a state's
    ``distance_rows`` start from these nodes, and the distance monitors
    read them by node and never map a point to a node.  The grounded factor
    of ``L`` is computed on first use.
    """

    n_lat: int
    n_lon: int
    theta: np.ndarray
    eta: np.ndarray
    w: np.ndarray  # (N,) cell areas, sum = 2 exactly
    L: sp.csr_matrix = field(repr=False)
    # the geodesic graph's fixed pattern on N + 2 nodes (two pole hubs),
    # its data the round background's edge lengths, and each slot's two end
    # nodes (a hub link's are its pole node twice)
    graph: sp.csr_matrix = field(repr=False)
    graph_ends: np.ndarray = field(repr=False)
    divisor: Divisor
    marked_points: np.ndarray  # possibly nudged copies of the positions
    nudges: tuple  # (index, offset) of each nudged marked point
    marked_nodes: list  # nearest node of each marked point, in order
    diameter_nodes: list  # sources of every state's distance rows

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

        The stepper computes this order once per run and factors the
        pre-permuted matrix in natural order.
        """
        return "COLAMD" if self.n_lon == 1 else "MMD_AT_PLUS_A"

    def positions(self) -> np.ndarray:
        th = np.repeat(self.theta, self.n_lon)
        et = np.tile(self.eta, self.n_lat)
        return vec_from_angles(th, et)

    @cached_property
    def _ground_lu(self):
        return spla.splu(self.L[1:, 1:].tocsc(), permc_spec=self.ordering,
                         panel_size=PANEL_SIZE)

    def ground_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve L x = b (consistent b) with x at node 0 pinned to zero,
        against one LU of ``L[1:, 1:]`` in the grid's ``ordering``."""
        x = np.zeros(self.n)
        x[1:] = self._ground_lu.solve(b[1:])
        return x

    def poisson(self, masses: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve Lap v = rhs for the metric with node masses ``masses``,
        after shifting the rhs to zero metric mean (the solvability
        correction); v[0] = 0, for the caller to normalize."""
        total = float(np.sum(masses))
        correction = float(np.sum(rhs * masses)) / total
        b = -(rhs - correction) * masses
        b -= b.sum() / b.size  # keep the grounded solve consistent to round-off
        return self.ground_solve(b)


def _nearest_node(n_lat: int, n_lon: int, point) -> int:
    p = np.asarray(point, dtype=float)
    p = p / np.linalg.norm(p)
    theta, eta = angles_from_vec(p)
    i = int(np.clip(round(theta / (math.pi / n_lat) - 0.5), 0, n_lat - 1))
    j = int(round(eta / (TWO_PI / n_lon))) % n_lon
    return i * n_lon + j


#: the six coordinate-axis points, sources of :func:`diameter_estimate`
AXIS_POINTS = ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1])


def build_grid(n_lat: int, n_lon: int, divisor: Divisor = Divisor([])) -> SphereGrid:
    """Build the 2-D grid, nudging marked points off grid nodes if needed.

    A marked point exactly at a pole is moved to the adjacent cell-center
    latitude (offset under one cell, recorded); a point coinciding with a
    node is shifted by half a cell in longitude.  Two marked points with one
    nearest node are rejected.
    """
    if n_lat < MIN_N_LAT or n_lon < MIN_N_LON:
        raise ValueError(
            f"resolution too small: need n_lat >= {MIN_N_LAT} and n_lon >= {MIN_N_LON}"
        )
    h_theta, h_eta = math.pi / n_lat, TWO_PI / n_lon
    pts = divisor.positions.copy()
    nudges = []
    for idx in range(divisor.k):
        theta, eta = angles_from_vec(pts[idx])
        if min(theta, math.pi - theta) < 1e-12:
            new_theta = h_theta / 2 if theta < 1e-12 else math.pi - h_theta / 2
            pts[idx] = vec_from_angles(new_theta, 0.0)
            nudges.append((idx, h_theta / 2))
            continue
        i, j = divmod(_nearest_node(n_lat, n_lon, pts[idx]), n_lon)
        node = vec_from_angles((i + 0.5) * h_theta, j * h_eta)
        ang = math.acos(float(np.clip(np.dot(pts[idx], node), -1, 1)))
        if ang < 1e-9:
            pts[idx] = vec_from_angles(theta, eta + 0.5 * h_eta)
            nudges.append((idx, 0.5 * h_eta))
    return _assemble_grid(n_lat, n_lon, divisor, pts, tuple(nudges))


def build_axis_grid(n_lat: int, divisor: Divisor = Divisor([])) -> SphereGrid:
    """1-D colatitude grid for rotationally symmetric runs.

    The divisor may hold at most two marked points, placed at the poles.
    The stencil and weights are the exact zonal aggregates of the 2-D ones,
    so axisymmetric data evolves identically in both solvers.
    """
    if n_lat < MIN_N_LAT:
        raise ValueError(f"resolution too small: need n_lat >= {MIN_N_LAT}")
    if divisor.k > 2:
        raise ValueError("axisymmetric path needs at most 2 marked points")
    for p in divisor.positions:
        if abs(abs(float(p[2])) - 1.0) > 1e-12:
            raise ValueError("axisymmetric marked points must sit at the poles")
    if divisor.k == 2 and divisor.positions[0][2] * divisor.positions[1][2] > 0:
        raise ValueError("two axisymmetric marked points must be at opposite poles")
    return _assemble_grid(n_lat, 1, divisor, divisor.positions.copy(), ())


def _assemble_grid(
    n_lat: int, n_lon: int, divisor: Divisor, points: np.ndarray, nudges: tuple
) -> SphereGrid:
    """The grid with these (nudged) marked ``points``, their nearest nodes
    and the diameter's sources: the axis nodes and the marked nodes, without
    repeats.  Two marked points with one nearest node are rejected."""
    marked_nodes = [_nearest_node(n_lat, n_lon, p) for p in points]
    if len(set(marked_nodes)) != len(marked_nodes):
        raise ValueError("two marked points fall inside one grid cell (share a nearest node)")
    axes = [_nearest_node(n_lat, n_lon, p) for p in AXIS_POINTS]
    diameter_nodes = list(dict.fromkeys(axes + marked_nodes))

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

    n = n_lat * n_lon
    idx = np.arange(n).reshape(n_lat, n_lon)
    east = np.roll(idx, -1, axis=1)  # idx[i, (j + 1) % n_lon]
    # meridian edges: conformal resistance between node latitudes
    ea, eb = [idx[:-1].ravel()], [idx[1:].ravel()]
    ek = [np.repeat((1.0 / FOUR_PI) * h_eta / (m[1:] - m[:-1]), n_lon)]
    # zonal edges: cell height in Mercator over cell width
    if n_lon > 1:
        # the interior faces only: at the poles the Mercator coordinate is
        # infinite, and the two pole caps take their height from the node
        m_face = _mercator(faces[1:-1])
        dm = np.concatenate([[m_face[0] - m[0]], np.diff(m_face), [m[-1] - m_face[-1]]])
        ea.append(idx.ravel()), eb.append(east.ravel())
        ek.append(np.repeat((1.0 / FOUR_PI) * dm / h_eta, n_lon))
    a, b, k = (np.concatenate(e) for e in (ea, eb, ek))
    # each edge adds [a, b, a, b] x [b, a, a, b] x [-k, -k, k, k], in edge
    # order, so the duplicates on the diagonal sum in a fixed order
    rows = np.stack([a, b, a, b], axis=1).ravel()
    cols = np.stack([b, a, a, b], axis=1).ravel()
    vals = np.stack([-k, -k, k, k], axis=1).ravel()
    L = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

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
    else:
        ea, eb = np.arange(n_lat - 1), np.arange(1, n_lat)
        el = np.full(n_lat - 1, r * h_theta)
        pole_nodes = np.array([0, n_lat - 1])
    # hub n links the north row, hub n + 1 the south row, at half a row
    hubs = np.repeat([n, n + 1], pole_nodes.size // 2)
    graph = sp.coo_matrix(
        (np.concatenate([el, np.full(pole_nodes.size, r * h_theta / 2.0)]),
         (np.concatenate([ea, hubs]).astype(np.int32),
          np.concatenate([eb, pole_nodes]).astype(np.int32))),
        shape=(n + 2, n + 2),
    ).tocsr()
    # a hub slot's weight (len / 2) * (s + s) equals len * s exactly
    slot_rows = np.repeat(np.arange(n + 2, dtype=np.int32), np.diff(graph.indptr))
    graph_ends = np.stack([np.where(slot_rows < n, slot_rows, graph.indices), graph.indices])
    return SphereGrid(n_lat, n_lon, theta, eta, w, L, graph, graph_ends,
                      divisor, points, nudges, marked_nodes, diameter_nodes)


# ----------------------------------------------------------------------
# background metric and states
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BackgroundMetric:
    """Epsilon-smoothed conical reference metric, area-normalized to 2.

    ``R`` is the full metric curvature of the smoothed background (its total
    is exactly 2).  ``cone_term`` models the conical Dirac masses: it is the
    closed-form curvature bump of the smoothing, whose continuum integral is
    exactly sum(beta).  The conical flow and the conical functionals use the
    smooth-part curvature R - e^-u cone_term, which integrates to chi; the
    difference between sum(beta) and the quadrature of the bump is the
    unresolved cone mass, which the flow reports as area drift
    (``renorm_drift``).  A background is an immutable value, built whole by
    :func:`background_metric`; its mass and its Ricci potential ``h`` are
    computed once, on first use.
    """

    grid: SphereGrid
    eps: float
    rho: np.ndarray  # conformal density relative to the round background
    log_rho: np.ndarray
    R: np.ndarray  # background scalar curvature field (full, smoothed)
    cone_term: np.ndarray  # smoothed delta masses, divided by rho

    @cached_property
    def mass(self) -> np.ndarray:
        return self.grid.w * self.rho

    @cached_property
    def h(self) -> np.ndarray:
        """Ricci potential of the background: Lap_bg h = R_bg - chi/2
        (mean-corrected), normalized by int e^h dg_bg = 2."""
        rhs = self.R - self.cone_term - 0.5 * self.chi()
        h = self.grid.poisson(self.mass, rhs)
        h += math.log(2.0 / float(np.sum(np.exp(h) * self.mass)))
        return h

    def chi(self) -> float:
        return 2.0 - self.grid.divisor.weights_float().sum()

    def beta_max(self) -> float:
        """The largest cone weight; 0 without marked points."""
        return float(self.grid.divisor.weights_float().max(initial=0.0))


def background_metric(grid: SphereGrid, divisor: Divisor, eps: float) -> BackgroundMetric:
    """Smoothed conical background: density ~ prod_j (s_j + eps^2)^(-beta_j).

    s_j(x) = 1 - <x, p_j> vanishes to second order at p_j, so the eps -> 0
    limit is the |z|^(-2 beta_j) cone model.  The density is rescaled to
    total area 2 and the curvature field computed from the density through
    the calibrated stencil (which makes integral R dg = 2 exact).

    ``divisor`` must equal ``grid.divisor``, whose weights the background
    reads; the cone positions come from the grid.
    """
    if divisor != grid.divisor:
        raise ValueError("divisor is not the grid's: it must have the same weights at the same positions")
    if eps <= 0:
        raise ValueError("smoothing length eps must be positive")
    if divisor.k and math.sqrt(2.0) * eps < grid.h_theta:
        raise ValueError(
            f"eps={eps} leaves the cone core unresolved at n_lat={grid.n_lat} "
            f"(need sqrt(2)*eps >= {grid.h_theta:.4f})"
        )
    pos = grid.positions()
    log_rho = np.zeros(grid.n)
    delta = np.zeros(grid.n)  # smoothed Dirac masses, unit-round density
    lap_log = np.zeros(grid.n)  # round Laplacian of log rho, closed form
    e2 = eps * eps
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
    return BackgroundMetric(grid, float(eps), rho, log_rho, R, cone_term=delta / rho)


@dataclass(frozen=True, eq=False)
class MetricState:
    """Conformal metric g = e^u g_bg at flow time t.

    A state is an immutable value: ``u`` is a read-only view, and a new
    conformal factor makes a new state.  So the fields derived from ``u``
    (``mass``, ``scalar_curvature``, ``conical_curvature``,
    ``distance_rows``) are computed on first use and kept: every monitor of
    a sample reads the same arrays.
    """

    background: BackgroundMetric
    u: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).view()
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    @property
    def grid(self) -> SphereGrid:
        return self.background.grid

    @cached_property
    def mass(self) -> np.ndarray:
        return self.background.mass * np.exp(self.u)

    def area(self) -> float:
        return float(np.sum(self.mass))

    @cached_property
    def scalar_curvature(self) -> np.ndarray:
        """R = e^(-u) (R_bg - Lap_bg u): the full metric curvature.

        The discrete total ``integrate(R) = 2`` holds exactly for every
        state, because the conformal contribution integrates by parts to
        zero against the stencil.
        """
        bg = self.background
        return np.exp(-self.u) * (bg.R + (self.grid.L @ self.u) / bg.mass)

    @cached_property
    def conical_curvature(self) -> np.ndarray:
        """Smooth-part curvature R - e^(-u) * cone_term.

        This is the curvature entering the conical flow and the conical
        functionals: the smoothed Dirac masses at the marked points are
        subtracted, so the total is chi(S^2, beta) rather than 2 (up to the
        unresolved quadrature sliver of the bump).
        """
        return self.scalar_curvature - np.exp(-self.u) * self.background.cone_term

    @cached_property
    def distance_rows(self) -> dict:
        """Graph geodesic distances from each of the grid's
        ``diameter_nodes`` (the axis nodes and the marked nodes) to all
        nodes, keyed by node.

        8-neighbor Dijkstra with edge lengths scaled by e^(u/2); an upper
        bound on the true distance and exactly a metric.  It converges at
        first order only on the 1-D grid, where a row sums edge lengths
        along the meridian; in 2-D the 8-neighbor stencil keeps a
        direction-dependent excess (up to ~8% on the round sphere) that
        refinement does not remove.  One multi-source pass on one edge
        graph makes every row, and each row equals its single-source run
        exactly.  This is the state's only distance pass.
        """
        nodes = self.grid.diameter_nodes
        d = _csgraph_dijkstra(_edge_graph(self), directed=False, indices=nodes)
        return {s: d[i, : self.grid.n] for i, s in enumerate(nodes)}

    def far_from_marks(self, radius: float) -> np.ndarray:
        """A new boolean array: the nodes farther than ``radius`` from every
        marked node, by ``distance_rows`` (all nodes when none is marked)."""
        mask = np.ones(self.grid.n, dtype=bool)
        for node in self.grid.marked_nodes:
            mask &= self.distance_rows[node] > radius
        return mask


def make_state(background: BackgroundMetric, u=None, t: float = 0.0) -> MetricState:
    return MetricState(background, np.zeros(background.grid.n) if u is None else u, t)


# ----------------------------------------------------------------------
# calibrated field operations
# ----------------------------------------------------------------------


def integrate(f, state: MetricState) -> float:
    """integral f dg = sum f_i w_i rho_i e^(u_i)."""
    return float(np.sum(np.asarray(f) * state.mass))


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
    """The grid's geodesic graph with each edge's background length scaled
    by the mean of e^(u/2) sqrt(rho) over its two ends."""
    grid = state.grid
    sqrt_rho = np.sqrt(state.background.rho * np.exp(state.u))
    a, b = grid.graph_ends
    data = grid.graph.data * 0.5 * (sqrt_rho[a] + sqrt_rho[b])
    return sp.csr_matrix((data, grid.graph.indices, grid.graph.indptr), shape=grid.graph.shape)


def pairwise_marked_distances(state: MetricState) -> np.ndarray:
    """Symmetrized distances between the marked points."""
    rows, nodes = state.distance_rows, state.grid.marked_nodes
    k = len(nodes)
    out = np.array([rows[n][nodes] for n in nodes]).reshape(k, k)
    return 0.5 * (out + out.T)


def ball_volume(state: MetricState, dist: np.ndarray, r: float) -> float:
    """dg-area of the geodesic ball of radius r about the node whose
    distance row is ``dist``."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return 0.0
    return float(np.sum(state.mass[dist <= r]))


def diameter_estimate(state: MetricState) -> float:
    """Max graph distance over the state's ``distance_rows``, from the
    marked points and the coordinate axes; a diagnostic, not a certified
    diameter."""
    return max(float(d[np.isfinite(d)].max()) for d in state.distance_rows.values())


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def save_field(path: str, values: np.ndarray) -> None:
    """Write a node field as (index, value) CSV rows."""
    # the rows of csv.writer's default dialect, without a call per row
    with open(path, "w", newline="") as fh:
        values = map(float, np.asarray(values, dtype=float))
        fh.writelines(f"{i},{v:.17g}\r\n" for i, v in enumerate(values))


def load_field(path: str, n: int = None) -> np.ndarray:
    """Read a field written by :func:`save_field`; ``n`` is the node count
    the file must hold.  A malformed row raises ValueError."""
    with open(path, newline="") as fh:
        arr = np.asarray([float(v) for _, v in csv.reader(fh)])
    if n is not None and arr.size != n:
        raise ValueError(f"field file has {arr.size} values, expected {n}")
    return arr
