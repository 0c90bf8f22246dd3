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
from scipy.sparse.csgraph import connected_components

from . import functionals as fn
from . import geometry as geo
from . import soliton as sol
from .marked_sphere import StabilityClass, classify_stability, enumerate_partitions

#: uniform cumulative-area bins of :func:`curvature_area_curve`
PROFILE_BINS = 64


# verdict thresholds, listed in this order in every report
CURVATURE_FLAT_TOL = 5e-2
CLUSTER_TOL = 0.1
DELTA_EXCLUSION = 0.25  # raised to 2*eps when eps is larger
W_MATCH_TOL = 5e-2
RESIDUAL_FACTOR = 3.0  # vs _residual_floor, clamped to 1e-12
PROFILE_MARGIN = 0.15  # cumulative-area margin cut at both cone ends
PROFILE_TOL = 0.2


def curvature_stats(state: geo.MetricState, delta_exclusion: float) -> dict | None:
    """Curvature extremes over the sphere minus delta-balls at marked points
    and minus the two pole rows, or None when these cover every node.

    ``delta_exclusion`` must stay outside the smoothed cone cores
    (at least 2 eps).
    """
    eps = state.background.eps
    if delta_exclusion < 2.0 * eps:
        raise ValueError(f"delta_exclusion must be >= 2 eps = {2 * eps}")
    mask = state.far_from_marks(delta_exclusion)
    # the pole closure is not consistent: on the pole rows the error of
    # Lap Y = -Y stays ~0.09 for cos(theta) and grows like 1/h for
    # sin(theta) cos(eta).  The two rows carry ~h^2 of the area but would
    # pollute sup-norms of imported (non-flow) states.  The 1-D stencil is
    # the exact zonal aggregate of the 2-D one, so both grids drop them
    n_lon = state.grid.n_lon
    mask[:n_lon] = mask[-n_lon:] = False
    if not mask.any():
        return None
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


def marked_point_clusters(state: geo.MetricState, tol: float):
    """Single-linkage clustering of the marked points under the geodesic
    distance: the connected components of the graph joining two points
    closer than ``tol``.  Returns (clusters as sorted index lists, ordered
    by their first index; the distance matrix)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    dmat = geo.pairwise_marked_distances(state)
    _, labels = connected_components(dmat < tol, directed=False)
    groups = {}  # filled in index order, so each list and their order are sorted
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return list(groups.values()), dmat


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
    :meth:`conicflow.soliton.SolitonSpec.curvature_of_area`, whose R is also
    the curvature of the punctured surface."""
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
    state: geo.MetricState, profile: sol.SolitonSpec, margin: float
) -> float | None:
    """RMS mismatch between the state's curvature-vs-area curve and the
    profile's, measured from the deepest cone point; None when no bin of
    the curve lies inside the margins.

    Parametrization-free (hence invariant under rotation about the cluster
    axis and under the soliton gauge drift); the cumulative-area margins at
    both ends exclude the smoothed cone cores, whose curvature spikes would
    otherwise dominate the norm.
    """
    nodes = state.grid.marked_nodes
    if not nodes:
        raise ValueError("profile comparison needs marked points")
    # weights sorted: deepest cone last
    a, r_state = curvature_area_curve(state, state.distance_rows[nodes[-1]])
    keep = (a >= margin) & (a <= 2.0 - margin) & np.isfinite(r_state)
    if not keep.any():
        return None
    r_prof = profile.curvature_of_area(a[keep])
    diff = r_state[keep] - r_prof
    return math.sqrt(float(np.mean(diff * diff)))


#: samples per block of :func:`profile_state`'s m(x) table
_QUAD_BLOCK = 1 << 14


def profile_state(background: geo.BackgroundMetric, profile: sol.SolitonSpec) -> geo.MetricState:
    """Sample a closed-form rotationally symmetric profile as a state.

    The profile's beta_p cone lands at the last (heaviest) point of the
    grid's divisor, the point :func:`compare_to_profile` measures from, and
    beta_q at its antipode; the moment
    coordinate is mapped to the grid through its conformal coordinate
    m(x) = integral dx/phi, and the exact cone factors are eps-smoothed the
    same way as the background so the conformal factor stays bounded.

    The trapezoid table of m(x) is filled in blocks of ``_QUAD_BLOCK``
    samples, so that its temporaries stay small: the whole-array version
    held ~5 arrays of 400,001 floats at once, and set the axis run's peak
    memory inside the verdict.
    """
    axis = background.grid.divisor.positions[-1]
    axis = axis / np.linalg.norm(axis)
    pos = background.grid.positions()
    cosg = np.clip(pos @ axis, -1.0, 1.0)
    gamma = np.clip(np.arccos(cosg), 1e-12, math.pi - 1e-12)
    m_node = -np.log(np.tan(0.5 * gamma))  # +inf at the beta_p end
    xs = np.linspace(-1.0 + 1e-12, 1.0 - 1e-12, 400001)
    m_of_x = np.empty_like(xs)
    m_of_x[0] = 0.0
    for i in range(1, len(xs), _QUAD_BLOCK):
        x = xs[i - 1 : i + _QUAD_BLOCK]
        inv_phi = 1.0 / profile.phi_of(x)
        seg = 0.5 * (inv_phi[1:] + inv_phi[:-1]) * np.diff(x)
        seg[0] += m_of_x[i - 1]  # cumsum is sequential: the same floats as one pass
        np.cumsum(seg, out=m_of_x[i : i + _QUAD_BLOCK])
    m_of_x -= m_of_x[len(m_of_x) // 2]
    x_node = np.interp(m_node, m_of_x, xs)
    rho = profile.phi_of(x_node) / np.sin(gamma) ** 2
    e2 = background.eps**2
    for s, b in ((1.0 - cosg, profile.beta_p), (1.0 + cosg, profile.beta_q)):
        if b > 0.0:
            rho *= (s / (s + e2)) ** b
    state = geo.make_state(background, np.log(rho) - background.log_rho)
    return geo.make_state(background, state.u + math.log(2.0 / state.area()))


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------


def _residual_floor(state: geo.MetricState, profile: sol.SolitonSpec) -> float:
    """The honest residual floor for 'this state is that soliton'.

    For two-point axisymmetric states the floor is the residual of the
    closed-form profile sampled on the same background (the eps-sampling
    noise an exact orbit state carries).  Otherwise the reference is the
    discretization's own football, a fixed point of the discrete flow:
    its conical curvature is constant, so its Ricci potential is constant
    and its residual is exactly 0, which leaves the verdict's clamp as the
    floor.
    """
    bg, divisor = state.background, state.grid.divisor
    if state.grid.n_lon == 1 and divisor.k == 2:
        ref = profile_state(bg, profile)
        return fn.soliton_residual(ref, fn.ricci_potential(ref))
    return 0.0


@dataclass
class ConvergenceReport:
    verdict: str
    curvature: dict | None  # None when the exclusion balls cover every node
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
        if self.curvature is None:
            lines.append("curvature away from cones: no node outside the exclusion balls")
        else:
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
    Undecided, with a caveat when a statistic has no node or bin to take
    (the exclusion balls cover the sphere, or no curvature-area bin lies
    inside the profile margins).  Everything is read from ``final_state``,
    its divisor from its grid.

    The control floor runs no flow.  On 1-D two-point states it is the
    residual of the sampled closed-form profile; elsewhere its reference is
    a discrete fixed point, whose constant curvature gives a constant
    Ricci potential and a residual of exactly 0, so the floor is the
    1e-12 clamp.
    """
    bg, divisor = final_state.background, final_state.grid.divisor
    delta = max(DELTA_EXCLUSION, 2.0 * bg.eps)
    stats = curvature_stats(final_state, delta)
    clusters, dmat = marked_point_clusters(final_state, CLUSTER_TOL)
    dclass = classify_stability(divisor) if divisor.k else StabilityClass.STABLE
    residuals = {} if stats is None else {"sup_dev_half_chi": stats["sup_dev_half_chi"]}
    caveats = {
        "eps": bg.eps,
        "resolution": f"{final_state.grid.n_lat}x{final_state.grid.n_lon}",
        "delta_exclusion": delta,
        "status": status,
    }

    verdict = "Undecided"
    partition = None

    if stats is None:
        caveats["no_curvature_statistics"] = (
            "the exclusion balls about the marked points cover every node"
        )
    elif stats["sup_dev_half_chi"] < CURVATURE_FLAT_TOL:
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
        resid = fn.soliton_residual(final_state, v)
        residuals["soliton_residual"] = resid
        if len(clusters) == 2:
            fits = [(compare_to_profile(final_state, spec, PROFILE_MARGIN), spec)
                    for spec in (sol.soliton_profile(ld.beta_p, ld.beta_q, ld.partition)
                                 for ld in enumerate_partitions(divisor) if ld.valid)]
            if fits and fits[0][0] is None:  # the state's curve: the same for every spec
                caveats["no_profile_bins"] = (
                    "no curvature-area bin lies inside the profile margins"
                )
            elif fits:
                r, prof = min(fits, key=lambda fit: fit[0])
                residuals["profile_residual"] = r
                w_term = fn.normalized_w(final_state, -v)
                residuals["w_gap"] = abs(w_term - prof.w)
                floor = _residual_floor(final_state, prof)
                residuals["soliton_residual_floor"] = floor
                if (
                    resid < RESIDUAL_FACTOR * max(floor, 1e-12)
                    and r < PROFILE_TOL
                    and residuals["w_gap"] < W_MATCH_TOL
                ):
                    verdict = "Soliton"
                    partition = sorted(prof.partition)

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
