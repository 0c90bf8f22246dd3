"""Convergence detection and limit classification for completed runs.

Gromov-Hausdorff convergence is operationalized, not computed: marked-point
cluster distances, curvature statistics away from the smoothed cone cores,
curvature-versus-cumulative-area profile matching (a parametrization-free
comparison, immune to the conformal gauge drift along soliton orbits), and
entropy matching against the closed-form partition table.  The verdict's
thresholds are the module constants below; every report lists them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from . import geometry as geo
from . import soliton as sol
from .marked_sphere import Divisor, StabilityClass, classify_stability, enumerate_partitions

#: uniform cumulative-area bins of :func:`curvature_area_curve`
PROFILE_BINS = 64


# verdict thresholds, listed in this order in every report
CURVATURE_FLAT_TOL = 5e-2
CLUSTER_TOL = 0.1
DELTA_EXCLUSION = 0.25  # raised to 2*eps when eps is larger
W_MATCH_TOL = 5e-2
RESIDUAL_FACTOR = 3.0  # vs the exact football control floor
PROFILE_MARGIN = 0.15  # cumulative-area margin cut at both cone ends
PROFILE_TOL = 0.2


def curvature_stats(state: geo.MetricState, delta_exclusion: float, rows: dict) -> dict:
    """Curvature extremes over the sphere minus delta-balls at marked points.

    ``delta_exclusion`` must stay outside the smoothed cone cores
    (at least 2 eps).  ``rows`` are geodesic rows covering the grid's
    ``marked_nodes`` (see :func:`conicflow.geometry.geodesic_rows`).
    """
    eps = state.background.eps
    if delta_exclusion < 2.0 * eps:
        raise ValueError(f"delta_exclusion must be >= 2 eps = {2 * eps}")
    mask = np.ones(state.grid.n, dtype=bool)
    for node in state.grid.marked_nodes:
        mask &= rows[node] > delta_exclusion
    if state.grid.n_lon > 1:
        # the pole closure is not consistent: on the pole rows the error of
        # Lap Y = -Y stays ~0.09 for cos(theta) and grows like 1/h for
        # sin(theta) cos(eta).  The two rows carry ~h^2 of the area but
        # would pollute sup-norms of imported (non-flow) states
        m2 = mask.reshape(state.grid.n_lat, state.grid.n_lon)
        m2[0, :] = m2[-1, :] = False
        mask = m2.ravel()
    if not mask.any():
        raise ValueError("exclusion balls cover the whole sphere")
    # statistics are taken on the smooth-part curvature: the full R keeps a
    # cone-bump tail ~ eps^2/dist^2 that is regularization, not geometry
    R = state.conical_curvature[mask]
    R_full = state.scalar_curvature[mask]
    chi = state.background.chi()
    bmax = state.background.beta_max()
    return {
        "r_min": float(R.min()),
        "r_max": float(R.max()),
        "r_full_min": float(R_full.min()),
        "r_full_max": float(R_full.max()),
        "sup_dev_half_chi": float(np.abs(R - 0.5 * chi).max()),
        "sup_dev_football": float(np.abs(R - (1.0 - bmax)).max()),
        "target_half_chi": 0.5 * chi,
        "target_football": 1.0 - bmax,
        "n_nodes": int(mask.sum()),
    }


def marked_point_clusters(state: geo.MetricState, tol: float, rows: dict):
    """Single-linkage clustering of the marked points under the geodesic
    distance of ``rows`` (covering the marked nodes); returns (clusters as
    sorted index lists, distance matrix)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    k = len(state.grid.marked_points)
    dmat = geo.pairwise_marked_distances(state, rows)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if dmat[i, j] < tol:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    clusters = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
    return clusters, dmat


def model_cap_area(r: float, curvature: float) -> float:
    """Area of the r-ball in the constant-curvature model, calibrated units.

    For curvature H > 0 the model sphere has Gauss curvature 2 pi H, hence
    cap area (1 - cos(r sqrt(2 pi H))) / H, saturating at the full area 2/H;
    H = 0 gives the flat pi r^2.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if curvature <= 0:
        return math.pi * r * r
    arg = r * math.sqrt(2.0 * math.pi * curvature)
    if arg >= math.pi:
        return 2.0 / curvature
    return (1.0 - math.cos(arg)) / curvature


def volume_ratio(state: geo.MetricState, dist: np.ndarray, r: float) -> float:
    """ball_volume / model cap area at constant curvature 1 - beta_max, for
    the ball about the node whose distance row is ``dist``."""
    if r <= 0:
        raise ValueError("radius must be positive")
    bmax = state.background.beta_max()
    return geo.ball_volume(state, dist, r) / model_cap_area(r, 1.0 - bmax)


# ----------------------------------------------------------------------
# profile comparison
# ----------------------------------------------------------------------


def curvature_area_curve(state: geo.MetricState, dist: np.ndarray):
    """Mass-weighted mean smooth-part curvature in PROFILE_BINS uniform
    cumulative-area bins, measured outward from the node whose distance row
    is ``dist``; returns (bin centers, means).  Matches the convention of
    :class:`conicflow.soliton.RadialProfile`, whose R is also the curvature
    of the punctured surface."""
    order = np.argsort(dist)
    mass = state.mass[order]
    R = state.conical_curvature[order]
    a = np.cumsum(mass) - 0.5 * mass
    bins = PROFILE_BINS
    edges = np.linspace(0.0, 2.0, bins + 1)
    idx = np.clip(np.searchsorted(edges, a, side="right") - 1, 0, bins - 1)
    wsum = np.bincount(idx, weights=mass, minlength=bins)
    rsum = np.bincount(idx, weights=mass * R, minlength=bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    means = np.divide(rsum, wsum, out=np.full(bins, np.nan), where=wsum > 0)
    return centers, means


def compare_to_profile(
    state: geo.MetricState, profile: sol.RadialProfile, rows: dict, margin: float
) -> float:
    """RMS mismatch between the state's curvature-vs-area curve and the
    profile's, measured from the deepest cone point; ``rows`` covers the
    grid's ``marked_nodes``.

    Parametrization-free (hence invariant under rotation about the cluster
    axis and under the soliton gauge drift); the cumulative-area margins at
    both ends exclude the smoothed cone cores, whose curvature spikes would
    otherwise dominate the norm.
    """
    nodes = state.grid.marked_nodes
    if not nodes:
        raise ValueError("profile comparison needs marked points")
    # weights sorted: deepest cone last
    a, r_state = curvature_area_curve(state, rows[nodes[-1]])
    keep = (a >= margin) & (a <= 2.0 - margin) & np.isfinite(r_state)
    r_prof = profile.curvature_of_area(a[keep])
    diff = r_state[keep] - r_prof
    return math.sqrt(float(np.mean(diff * diff)))


def profile_state(
    background: geo.BackgroundMetric, profile: sol.RadialProfile, axis=(0.0, 0.0, 1.0)
) -> geo.MetricState:
    """Sample a closed-form rotationally symmetric profile as a state.

    The profile's beta_p cone lands at +axis, beta_q at -axis; the moment
    coordinate is mapped to the grid through its conformal coordinate
    m(x) = integral dx/phi, and the exact cone factors are eps-smoothed the
    same way as the background so the conformal factor stays bounded.
    """
    grid = background.grid
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    pos = grid.positions()
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
    state = geo.make_state(background, np.log(rho) - background.log_rho)
    return geo.make_state(background, state.u + math.log(2.0 / state.area()))


def football_control_state(
    n_lat: int, n_lon: int, beta: float, eps: float
) -> geo.MetricState:
    """The discretization's own constant-curvature football at these
    parameters: a two-cone flow run to its fixed point.

    Sampling the closed-form football directly would inherit the eps-core
    area deficit (a uniform curvature bias of order eps^(2-2 beta)); the
    converged flow state is the self-consistent football, and its soliton
    residual is the honest floor for verdicts at this resolution.
    """
    from . import flow as fl  # deferred: flow imports this module

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
# verdicts
# ----------------------------------------------------------------------


def _residual_floor(state, profile):
    """The honest residual floor for 'this state is that soliton'.

    For two-point axisymmetric states the floor is the residual of the
    closed-form profile sampled on the same background (the eps-sampling
    noise an exact orbit state carries); otherwise the converged football
    on the state's grid, at its eps or at the smallest eps that grid
    resolves, serves as the reference.
    """
    bg, divisor = state.background, state.grid.divisor
    if state.grid.n_lon == 1 and divisor.k == 2:
        w = divisor.weights_float()
        axis = divisor.positions[int(np.argmax(w))]
        ref = profile_state(bg, profile, axis)
    else:
        ctrl_lat, ctrl_lon = state.grid.n_lat, state.grid.n_lon
        ctrl_eps = max(bg.eps, 1.01 * math.pi / (ctrl_lat * math.sqrt(2.0)))
        ref = football_control_state(ctrl_lat, ctrl_lon, 0.5 * (2.0 - bg.chi()), ctrl_eps)
    rows = geo.geodesic_rows(ref, ref.grid.marked_nodes)
    return fn.soliton_residual(ref, fn.ricci_potential(ref), rows)


@dataclass
class ConvergenceReport:
    verdict: str
    curvature: dict
    clusters: list
    cluster_distances: list
    residuals: dict
    partition: list | None
    thresholds: dict
    caveats: dict
    divisor_class: str

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, default=float)

    def summary(self) -> str:
        lines = [f"verdict: {self.verdict} (divisor {self.divisor_class})"]
        lines.append(
            f"curvature away from cones: [{self.curvature['r_min']:.4f}, "
            f"{self.curvature['r_max']:.4f}], "
            f"sup|R - chi/2| = {self.curvature['sup_dev_half_chi']:.4f}"
        )
        lines.append(f"marked-point clusters: {self.clusters}")
        for k, v in self.residuals.items():
            lines.append(f"{k}: {v:.6g}")
        if self.partition is not None:
            lines.append(f"observed partition (deep side): {self.partition}")
        for k, v in self.caveats.items():
            lines.append(f"caveat {k}: {v}")
        return "\n".join(lines)


def detect_convergence(final_state: geo.MetricState, status: str = "unknown") -> ConvergenceReport:
    """Classify the terminal state of a run; ``status`` is the run's, and
    is reported as a caveat.

    Decision tree: flat curvature at chi/2 implies ConstantCurvature, or
    Football when the divisor is semi-stable and the marks form two
    clusters; otherwise a soliton verdict needs the residual at its control
    floor, a bipartition of the marks, the best-matching partition profile,
    and an entropy match against the partition table.  Anything else is
    Undecided.  Everything is read from ``final_state``, its divisor from
    its grid.
    """
    import warnings

    bg, divisor = final_state.background, final_state.grid.divisor
    delta = max(DELTA_EXCLUSION, 2.0 * bg.eps)
    rows = geo.geodesic_rows(final_state, final_state.grid.marked_nodes)
    stats = curvature_stats(final_state, delta, rows)
    clusters, dmat = marked_point_clusters(final_state, CLUSTER_TOL, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k = 2 limit targets
        dclass = classify_stability(divisor) if divisor.k else StabilityClass.STABLE
    residuals = {}
    caveats = {
        "eps": bg.eps,
        "resolution": f"{final_state.grid.n_lat}x{final_state.grid.n_lon}",
        "delta_exclusion": delta,
        "status": status,
    }

    verdict = "Undecided"
    partition = None
    residuals["sup_dev_half_chi"] = stats["sup_dev_half_chi"]

    if stats["sup_dev_half_chi"] < CURVATURE_FLAT_TOL:
        if dclass is StabilityClass.SEMI_STABLE and len(clusters) == 2:
            verdict = "Football"
            partition = clusters[-1]
        elif dclass is StabilityClass.STABLE:
            verdict = "ConstantCurvature"
        else:
            # no conical constant-curvature metric exists for this divisor
            # class: flat curvature is the eps-regularized minimizer, not a
            # limit the theorems allow; refuse to classify
            caveats["flat_curvature_artifact"] = (
                "curvature flattened although the divisor class forbids a "
                "constant-curvature metric; eps-regularization floor reached, "
                "rerun with smaller eps"
            )
    else:
        v = fn.ricci_potential(final_state)
        resid = fn.soliton_residual(final_state, v, rows)
        residuals["soliton_residual"] = resid
        if len(clusters) == 2:
            best = None
            for ld in enumerate_partitions(divisor):
                if not ld.valid:
                    continue
                prof = sol.soliton_profile(ld.beta_p, ld.beta_q)
                r = compare_to_profile(final_state, prof, rows, PROFILE_MARGIN)
                if best is None or r < best[0]:
                    best = (r, ld, prof)
            if best is not None:
                r, ld, prof = best
                residuals["profile_residual"] = r
                w_term = fn.normalized_w(final_state, -v)
                residuals["w_gap"] = abs(w_term - sol.soliton_w(ld.beta_p, ld.beta_q))
                floor = _residual_floor(final_state, prof)
                residuals["soliton_residual_floor"] = floor
                if (
                    resid < RESIDUAL_FACTOR * max(floor, 1e-12)
                    and r < PROFILE_TOL
                    and residuals["w_gap"] < W_MATCH_TOL
                ):
                    verdict = "Soliton"
                    partition = sorted(ld.partition)

    return ConvergenceReport(
        verdict=verdict,
        curvature=stats,
        clusters=clusters,
        cluster_distances=dmat.tolist(),
        residuals=residuals,
        partition=partition,
        thresholds={"curvature_flat_tol": CURVATURE_FLAT_TOL, "cluster_tol": CLUSTER_TOL,
                    "delta_exclusion": DELTA_EXCLUSION, "w_match_tol": W_MATCH_TOL,
                    "residual_factor": RESIDUAL_FACTOR, "profile_margin": PROFILE_MARGIN,
                    "profile_tol": PROFILE_TOL},
        caveats=caveats,
        divisor_class=str(dclass),
    )
