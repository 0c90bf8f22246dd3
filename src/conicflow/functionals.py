"""Scalar functionals monitored along the flow.

All evaluations use the calibrated scales from :mod:`conicflow.geometry`;
Dirichlet energies come from the same stencil as the Laplacian, so discrete
integration by parts is exact and the translation identities hold to
round-off.

On the eps-smoothed background the full Gauss-Bonnet mass is 2, not
chi(S^2, beta), so the Poisson problems for the Ricci potential and for the
background potential h are solvable only after removing the mean of the
right-hand side (the resolved cone mass).
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .geometry import BackgroundMetric, MetricState, dirichlet_energy, grad_sq_field, integrate


# ----------------------------------------------------------------------
# Poisson solves
# ----------------------------------------------------------------------


def ricci_potential(state: MetricState) -> np.ndarray:
    """The Ricci potential v: Lap v = R - chi/2 (mean-corrected), normalized
    by int e^(-v) dg = 2.

    R here is the smooth-part (conical) curvature, so at a conical
    constant-curvature state v vanishes away from the cone cores."""
    rhs = state.conical_curvature - 0.5 * state.background.chi()
    v = state.grid.poisson(state.mass, rhs)
    return v + math.log(integrate(np.exp(-v), state) / 2.0)


def recover_potential(state: MetricState) -> np.ndarray:
    """Potential phi of the state relative to the background metric: solve
    Lap_bg phi = e^u - 1 (the density-potential relation), with the constant
    fixed by int phi dg_bg = 0."""
    bg = state.background
    area = state.area()
    rhs = np.exp(state.u) * (2.0 / area) - 1.0
    phi = state.grid.poisson(bg.mass, rhs)
    phi -= np.sum(phi * bg.mass) / 2.0
    return phi


def h_background(bg: BackgroundMetric) -> np.ndarray:
    """Ricci potential h of the background (:attr:`BackgroundMetric.h`)."""
    return bg.h


# ----------------------------------------------------------------------
# the F functional
# ----------------------------------------------------------------------


def f_beta(state: MetricState) -> float:
    """Ding-type energy with the conical background as reference metric,
    at the state's potential (:func:`recover_potential`).

    F(phi) = E(phi)/4 - (1/2) int phi dg_bg
             - (2/chi) log int e^(-chi phi / 2 + h) dg_bg,

    where E is the calibrated Dirichlet energy.  Decreases along the flow;
    invariant under phi -> phi + const.
    """
    return _f_of_potential(recover_potential(state), state.background)


def _f_of_potential(phi: np.ndarray, bg: BackgroundMetric) -> float:
    """F at the potential ``phi`` relative to the background ``bg``."""
    chi = bg.chi()
    h = h_background(bg)
    e = dirichlet_energy(phi, phi, bg.grid)
    lin = float(np.sum(phi * bg.mass))
    z = float(np.sum(np.exp(-0.5 * chi * phi + h) * bg.mass))
    return 0.25 * e - 0.5 * lin - (2.0 / chi) * math.log(z)


# ----------------------------------------------------------------------
# entropy functionals
# ----------------------------------------------------------------------


def normalized_w(state: MetricState, f) -> float:
    """Normalized entropy int [(R + |grad f|^2)/(2 - sum beta) + f] e^(-f) dg.

    The constraint int e^(-f) dg = 2 is enforced by an additive shift of f,
    so the value does not depend on the additive constant of f.
    """
    f = np.asarray(f, dtype=float)
    chi = state.background.chi()
    shift = math.log(integrate(np.exp(-f), state) / 2.0)
    f = f + shift
    g2 = grad_sq_field(f, state)
    return integrate(((state.conical_curvature + g2) / chi + f) * np.exp(-f), state)


def chow_shift(s0: float, t: float, half_chi: float) -> float:
    """Closed-form solution of ds/dt = s (s - chi/2) with s(0) = s0."""
    r = half_chi
    if t < 0:
        raise ValueError("t must be nonnegative")
    if s0 == 0.0:
        return 0.0
    if r == 0.0:
        den = 1.0 - s0 * t
        if den <= 0:
            raise ValueError("shift ODE blew up (s0 too large)")
        return s0 / den
    den = s0 + (r - s0) * math.exp(min(r * t, 700.0))
    if not math.isfinite(den) or (r > 0 and den <= 0.0):
        raise ValueError("shift ODE blew up (need s0 < chi/2)")
    return r * s0 / den


def hamilton_entropy(state: MetricState, s: float = 0.0) -> float:
    """Hamilton's entropy of R - s relative to its equilibrium value,
    N = int (R - s) log (R - s) dg - 2 m log m, with m the metric mean of
    R - s (the smooth-part curvature); requires R - s > 0 everywhere.

    Subtracting 2 m log m removes the pure shift drift -ds/dt (log + 1) A,
    which for targets chi/2 < 1/e would otherwise raise the raw shifted
    entropy after the geometry has converged.  With no shift active this is
    Hamilton's N minus a constant.
    """
    w = state.conical_curvature - s
    if np.any(w <= 0.0):
        bad = int(np.argmin(w))
        raise ValueError(f"R - s is not positive (node {bad}, value {w[bad]:.3e})")
    mean = integrate(w, state) / 2.0
    return integrate(w * np.log(w), state) - 2.0 * mean * math.log(mean)


# ----------------------------------------------------------------------
# soliton residual: trace-free Hessian of the Ricci potential
# ----------------------------------------------------------------------


def _theta_derivative(f2d: np.ndarray, h: float):
    """Uniform centered first/second derivatives along axis 0 (rows 1..-2)."""
    df = np.zeros_like(f2d)
    d2f = np.zeros_like(f2d)
    df[1:-1] = (f2d[2:] - f2d[:-2]) / (2.0 * h)
    d2f[1:-1] = (f2d[2:] - 2.0 * f2d[1:-1] + f2d[:-2]) / (h * h)
    return df, d2f


def soliton_residual(state: MetricState, v: np.ndarray, rows: dict) -> float:
    """integral |grad^2 v - (Lap v) g / 2|^2 dg by finite differences.

    Computed in conformal (Mercator) coordinates where the trace-free
    Hessian reduces to the single complex quantity
    d^2_z v - (d_z log H)(d_z v); zero exactly when v generates a gradient
    soliton / conformal Killing structure.  The Hessian here is the
    Riemannian one of the area-2-normalized metric.  The two pole rows and
    geodesic balls of radius max(0.15, 2 eps) around the marked points are
    excluded: inside the smoothed cores the potential carries the
    eps-regularization bowl, not geometry.  The monitor passes the Ricci
    potential (:func:`ricci_potential`) as ``v``; ``rows`` are
    :func:`conicflow.geometry.geodesic_rows` covering the grid's
    ``marked_nodes``.
    """
    grid = state.grid
    exclude_radius = max(0.15, 2.0 * state.background.eps)
    core_mask = np.ones(grid.n, dtype=bool)
    for node in grid.marked_nodes:
        core_mask &= rows[node] > exclude_radius
    nlat, nlon = grid.n_lat, grid.n_lon
    v2 = np.asarray(v, dtype=float).reshape(nlat, nlon)
    log_dens = (state.background.log_rho + state.u).reshape(nlat, nlon)
    sin_th = np.sin(grid.theta)[:, None]
    cos_th = np.cos(grid.theta)[:, None]
    logH = math.log(geo.ROUND_R2) + log_dens + 2.0 * np.log(sin_th)
    h_th = grid.h_theta

    # d/dm = sin(theta) d/dtheta; theta differences are uniform, so the
    # stencil error stays O(h^2) into the (excluded) pole caps
    v_th, v_thth = _theta_derivative(v2, h_th)
    v_m = sin_th * v_th
    v_mm = sin_th * sin_th * v_thth + sin_th * cos_th * v_th
    ld_th, _ = _theta_derivative(log_dens, h_th)
    lh_m = sin_th * ld_th + 2.0 * cos_th  # round part differentiated exactly
    if nlon > 1:
        h_eta = geo.TWO_PI / nlon
        v_e = (np.roll(v2, -1, axis=1) - np.roll(v2, 1, axis=1)) / (2 * h_eta)
        v_ee = (np.roll(v2, -1, axis=1) - 2 * v2 + np.roll(v2, 1, axis=1)) / h_eta**2
        v_e_th, _ = _theta_derivative(v_e, h_th)
        v_me = sin_th * v_e_th
        lh_e = (np.roll(log_dens, -1, axis=1) - np.roll(log_dens, 1, axis=1)) / (2 * h_eta)
    else:
        v_e = v_ee = v_me = lh_e = np.zeros_like(v2)

    t_re = 0.25 * (v_mm - v_ee) - 0.25 * (lh_m * v_m - lh_e * v_e)
    t_im = -0.5 * v_me + 0.25 * (lh_m * v_e + lh_e * v_m)
    dens = 8.0 * (t_re**2 + t_im**2) * np.exp(-2.0 * logH)
    weight = (state.mass * core_mask).reshape(nlat, nlon)
    weight[:2, :] = 0.0  # pole rows amplify FD error by 1/sin^4
    weight[-2:, :] = 0.0
    return float(np.sum(dens * weight))
