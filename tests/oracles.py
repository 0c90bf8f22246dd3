"""Reference implementations that the tests compare the package against.

None of these has a caller in the package: each is an independent route to
a quantity the package computes another way (the F dissipation rate, the
unnormalized W entropy, a mu upper bound, the metric Laplacian, the
curvature expressions a state caches, a Gauss-curvature finite-difference
oracle, a soliton profile's cone weights from its boundary slopes and its
F(c) and entropy by quadrature, a closed-form profile sampled as a state
with its whole m(x) table in one pass, the geodesic graph built edge by
edge, the constant-curvature football as the end state of a flow run), a test's
shortcut to a grid node or to a one-source distance pass, or a
reader of the ``trace.csv`` a run writes.
They live here so that ``src/conicflow`` holds only code a run reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import dijkstra

from conicflow import flow as fl
from conicflow.functionals import ricci_potential
from conicflow.geometry import (
    FOUR_PI,
    ROUND_R2,
    TWO_PI,
    BackgroundMetric,
    MetricState,
    _edge_graph,
    _nearest_node,
    grad_sq_field,
    integrate,
    make_state,
)
from conicflow.marked_sphere import Divisor
from conicflow.soliton import SolitonSpec


def read_trace(path: str) -> dict:
    """The columns of a ``trace.csv`` by header name, ``time`` first."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------


def nearest_node(grid, point) -> int:
    """The node of ``grid`` nearest ``point``."""
    return _nearest_node(grid.n_lat, grid.n_lon, point)


def grounded_solve(grid, b: np.ndarray) -> np.ndarray:
    """L x = b with x[0] = 0, by one SuperLU factor of ``L[1:, 1:]`` at
    scipy's default ordering and panel."""
    x = np.zeros(grid.n)
    x[1:] = spla.splu(grid.L[1:, 1:].tocsc()).solve(b[1:])
    return x


def node_distances(state: MetricState, node: int) -> np.ndarray:
    """Graph distances from grid node ``node``: a one-source Dijkstra pass
    on the state's edge graph, apart from its ``distance_rows``."""
    return dijkstra(_edge_graph(state), directed=False, indices=node)[: state.grid.n]


def distances_from(state: MetricState, point) -> np.ndarray:
    """Graph distances from the node nearest ``point``."""
    return node_distances(state, nearest_node(state.grid, point))


def geodesic_edges(n_lat: int, n_lon: int):
    """The geodesic graph's edges by a per-edge loop: (edge_a, edge_b,
    edge_len_bg, pole_edge_node, pole_edge_len), the background lengths of
    the 8-neighbor edges and of the links from the two virtual pole hubs."""
    h_theta = math.pi / n_lat
    theta = (np.arange(n_lat) + 0.5) * h_theta
    h_eta = TWO_PI / n_lon
    idx = np.arange(n_lat * n_lon).reshape(n_lat, n_lon)
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
                ea.append(a), eb.append(idx[i, (j + 1) % n_lon]), el.append(
                    r * math.sin(theta[i]) * h_eta)
        pole_nodes = np.concatenate([idx[0], idx[-1]])
        pole_len = np.full(2 * n_lon, r * h_theta / 2.0)
    else:
        for i in range(n_lat - 1):
            ea.append(i), eb.append(i + 1), el.append(r * h_theta)
        pole_nodes = np.array([0, n_lat - 1])
        pole_len = np.full(2, r * h_theta / 2.0)
    return (np.asarray(ea, dtype=np.int32), np.asarray(eb, dtype=np.int32),
            np.asarray(el), pole_nodes.astype(np.int32), pole_len)


def edge_graph(state: MetricState) -> sp.csr_matrix:
    """The state's geodesic graph assembled from :func:`geodesic_edges` as
    a COO matrix: each edge's background length times the mean of
    e^(u/2) sqrt(rho) at its ends, each hub link's times the value at its
    pole node; hub n links the north row, hub n + 1 the south row."""
    grid = state.grid
    edge_a, edge_b, edge_len_bg, pole_node, pole_len = geodesic_edges(grid.n_lat, grid.n_lon)
    sqrt_rho = np.sqrt(state.background.rho * np.exp(state.u))
    wts = edge_len_bg * 0.5 * (sqrt_rho[edge_a] + sqrt_rho[edge_b])
    n = grid.n
    npole = pole_node.size // 2
    pole_src = np.concatenate([np.full(npole, n, dtype=np.int32),
                               np.full(npole, n + 1, dtype=np.int32)])
    rows = np.concatenate([edge_a, pole_src])
    cols = np.concatenate([edge_b, pole_node])
    data = np.concatenate([wts, pole_len * sqrt_rho[pole_node]])
    return sp.coo_matrix((data, (rows, cols)), shape=(n + 2, n + 2)).tocsr()


def laplacian(f, state: MetricState) -> np.ndarray:
    """Metric Laplacian in paper scale; annihilates constants, self-adjoint
    with respect to the dg inner product."""
    f = np.asarray(f, dtype=float)
    if f.shape != (state.grid.n,):
        raise ValueError("field does not match the grid")
    return -(state.grid.L @ f) / state.mass


def curvature_expressions(state: MetricState):
    """(R, R - e^(-u) cone_term): the full and the smooth-part curvature
    written out from ``u`` and the background, the expressions that
    :attr:`MetricState.scalar_curvature` and
    :attr:`MetricState.conical_curvature` must equal bit for bit."""
    bg = state.background
    a = np.exp(-state.u)
    R = a * (bg.R + (state.grid.L @ state.u) / (state.grid.w * bg.rho))
    return R, R - a * bg.cone_term


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
# functionals
# ----------------------------------------------------------------------


def f_beta_rate_oracle(state: MetricState, v: np.ndarray = None) -> float:
    """Closed-form dF/dt along the flow, for cross-checking the trace.

    Equals (1/2) int v dg - int v e^v dg / int e^v dg, which is
    -(1/2) int w (1 - e^(-w)) dg for w = -v shifted to int e^(-w) dg = 2;
    nonpositive, vanishing only at constant curvature.
    """
    if v is None:
        v = ricci_potential(state)
    ev = np.exp(v)
    return 0.5 * integrate(v, state) - integrate(v * ev, state) / integrate(ev, state)


def w_functional(state: MetricState, f, tau: float) -> float:
    """W(g, f, tau) = int (tau (R + |grad f|^2) + f - 2) e^(-f)/(4 pi tau) dg.

    R is the smooth-part curvature: the entropy integral lives on the
    punctured sphere, where the cone masses enter only through chi."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    f = np.asarray(f, dtype=float)
    R = state.conical_curvature
    g2 = grad_sq_field(f, state)
    integrand = (tau * (R + g2) + f - 2.0) * np.exp(-f) / (4.0 * math.pi * tau)
    return integrate(integrand, state)


@dataclass
class MuEstimate:
    value: float
    tag: str = "upper-bound estimate"
    history: np.ndarray = field(default=None, repr=False)
    iterations: int = 0


def mu_estimate(state: MetricState, budget: int = 60) -> MuEstimate:
    """Upper bound on mu(g) by constrained descent of the normalized entropy.

    Starts from the natural candidate f = -v (Ricci potential) and performs
    projected gradient descent on f under int e^(-f) dg = 2, accepting only
    decreasing steps.  The result is an upper bound for the infimum, never a
    certified value; it is monotone non-increasing in the budget.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    bg = state.background
    a = 1.0 / bg.chi()
    R = state.conical_curvature
    f = -ricci_potential(state)
    f = f + math.log(integrate(np.exp(-f), state) / 2.0)

    def w_of(fld):
        g2 = grad_sq_field(fld, state)
        return integrate(((R + g2) * a + fld) * np.exp(-fld), state)

    w = w_of(f)
    history = [w]
    step = 0.25
    it = 0
    for it in range(1, budget + 1):
        grad = -2.0 * a * laplacian(f, state) + a * grad_sq_field(f, state) - a * R - f + 1.0
        weight = np.exp(-f) * state.mass
        grad = grad - float(np.sum(grad * weight)) / float(np.sum(weight))
        gnorm2 = float(np.sum(grad * grad * weight))
        if gnorm2 < 1e-24:
            break
        accepted = False
        for _ in range(25):
            cand = f - step * grad
            cand = cand + math.log(integrate(np.exp(-cand), state) / 2.0)
            wc = w_of(cand)
            if wc < w - 1e-15:
                f, w = cand, wc
                step *= 1.3
                accepted = True
                break
            step *= 0.5
        history.append(w)
        if not accepted:
            break
        if len(history) > 2 and history[-2] - history[-1] < 1e-13:
            break
    if not np.isfinite(w):
        raise RuntimeError("entropy descent diverged")
    return MuEstimate(w, history=np.asarray(history), iterations=it)


# ----------------------------------------------------------------------
# flow
# ----------------------------------------------------------------------


def football_control_state(
    n_lat: int, n_lon: int, beta: float, eps: float
) -> MetricState:
    """The discretization's own constant-curvature football at these
    parameters: a two-cone flow run to its fixed point.

    Sampling the closed-form football directly would inherit the eps-core
    area deficit (a uniform curvature bias of order eps^(2-2 beta)); the
    converged flow state is the self-consistent football, and its soliton
    residual is the honest floor for verdicts at this resolution.
    """
    if n_lon == 1:
        div = Divisor([beta, beta], [[0, 0, 1.0], [0, 0, -1.0]])
    else:
        div = Divisor([beta, beta], [[1.0, 0, 0], [-1.0, 0, 0]])
    config = fl.FlowConfig(
        divisor=div, n_lat=n_lat, n_lon=n_lon, eps=eps,
        dt=0.02, t_max=40.0, sample_every=1.0, auto_stop=True,
    )
    return fl.run(config).final_state


# ----------------------------------------------------------------------
# soliton profiles
# ----------------------------------------------------------------------


def endpoint_weights(prof: SolitonSpec, h: float = 1e-5) -> tuple:
    """Cone weights read off second-order one-sided slope stencils of phi:
    beta(+1) = 1 + phi'(1)/2, beta(-1) = 1 - phi'(-1)/2."""
    phi = prof.phi_of
    dp = (3.0 * phi(1.0) - 4.0 * phi(1.0 - h) + phi(1.0 - 2 * h)) / (2 * h)
    dq = (-3.0 * phi(-1.0) + 4.0 * phi(-1.0 + h) - phi(-1.0 + 2 * h)) / (2 * h)
    return 1.0 + dp / 2.0, 1.0 - dq / 2.0


def profile_quadrature_f(prof: SolitonSpec, n: int = 200) -> float:
    """int theta e^theta dg over the profile by Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(n)
    th = prof.theta_of(x)
    return float(np.sum(w * th * np.exp(th)))


def profile_normalized_w(prof: SolitonSpec, n: int = 200) -> float:
    """Normalized entropy of the profile at f = -theta by direct quadrature.

    Evaluates int [ (R + |grad f|^2) / chi + f ] e^{-f} dg with the
    moment-coordinate gradient |grad(-theta)|^2 = phi c^2 / 2; ties the ODE
    reconstruction, the measure convention, and the closed form together.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    th = prof.theta_of(x)
    R = prof.curvature_of(x)
    grad2 = 0.5 * prof.phi_of(x) * prof.c**2
    integrand = ((R + grad2) / prof.chi - th) * np.exp(th)
    return float(np.sum(w * integrand))


def profile_state_whole(background: BackgroundMetric, profile: SolitonSpec) -> MetricState:
    """``diagnostics.profile_state`` with its trapezoid table of
    m(x) = integral dx/phi built as whole arrays in one pass."""
    axis = background.grid.divisor.positions[-1]
    axis = axis / np.linalg.norm(axis)
    pos = background.grid.positions()
    cosg = np.clip(pos @ axis, -1.0, 1.0)
    gamma = np.clip(np.arccos(cosg), 1e-12, math.pi - 1e-12)
    m_node = -np.log(np.tan(0.5 * gamma))  # +inf at the beta_p end
    xs = np.linspace(-1.0 + 1e-12, 1.0 - 1e-12, 400001)
    inv_phi = 1.0 / profile.phi_of(xs)
    m_of_x = np.concatenate([[0.0], np.cumsum(0.5 * (inv_phi[1:] + inv_phi[:-1]) * np.diff(xs))])
    m_of_x -= m_of_x[len(m_of_x) // 2]
    x_node = np.interp(m_node, m_of_x, xs)
    rho = profile.phi_of(x_node) / np.sin(gamma) ** 2
    e2 = background.eps**2
    for s, b in ((1.0 - cosg, profile.beta_p), (1.0 + cosg, profile.beta_q)):
        if b > 0.0:
            rho *= (s / (s + e2)) ** b
    state = make_state(background, np.log(rho) - background.log_rho)
    return make_state(background, state.u + math.log(2.0 / state.area()))
