"""Closed-form calculus of rotationally symmetric conical shrinking solitons.

Everything here lives in moment coordinates: the rotational symmetry gives
an action variable x on [-1, 1] carrying the uniform area measure
(total area 2), a nonnegative profile phi(x) with phi(+-1) = 0, and a
soliton potential theta(x) = c*x + const.  The single parameter c is pinned
by the cone-weight asymmetry through

    tau(c) = coth(c) - 1/c,      tau = (beta_p - beta_q) / (2 - beta_p - beta_q)

with the orientation convention that the larger weight beta_p sits at the
x = +1 end (so tau >= 0 and c >= 0 when beta_p >= beta_q).

Moment-coordinate calculus used throughout the package:

    integral f dg      = int_{-1}^{1} f(x) dx
    Laplacian f        = (phi f')' / 2
    |grad f|^2         = phi (f')^2 / 2
    scalar curvature R = -phi'' / 2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .marked_sphere import Divisor, StabilityClass, classify_stability, enumerate_partitions

#: below this |c| the scalar closed forms switch to power series; coth(c)-1/c
#: loses ~|log10 c| digits to cancellation, so the window is generous and the
#: series carry enough terms for full double precision at the cutoff
SERIES_CUTOFF = 2e-2

#: the profile formulas cancel to absolute O(eps/c^2); below this cutoff a
#: two-term series is more accurate than the closed form
PROFILE_CUTOFF = 1e-3


def tau_of_c(c: float) -> float:
    """Moment asymmetry tau(c) = int x e^{cx} dx / int e^{cx} dx on [-1, 1].

    Equals coth(c) - 1/c; odd, strictly increasing, |tau| < 1.
    """
    c = float(c)
    if abs(c) < SERIES_CUTOFF:
        c2 = c * c
        return c * (1.0 / 3.0 + c2 * (-1.0 / 45.0 + c2 * (2.0 / 945.0 - c2 / 4725.0)))
    return 1.0 / math.tanh(c) - 1.0 / c


def _dtau_dc(c: float) -> float:
    # variance of x under the tilted measure; strictly positive
    if abs(c) < SERIES_CUTOFF:
        c2 = c * c
        return 1.0 / 3.0 + c2 * (-1.0 / 15.0 + c2 * (2.0 / 189.0 - c2 / 675.0))
    if abs(c) > 350.0:
        return 1.0 / (c * c)
    s = math.sinh(c)
    return 1.0 / (c * c) - 1.0 / (s * s)


def solve_c(tau: float) -> float:
    """Unique c with tau_of_c(c) = tau, for |tau| < 1."""
    tau = float(tau)
    if not abs(tau) < 1.0:
        raise ValueError(f"|tau| must be < 1, got {tau}")
    if tau == 0.0:
        return 0.0
    t = abs(tau)
    # tau(c) ~ 1 - 1/c for large c, so c < 1/(1-t) + 2 brackets the root
    hi = 1.0 / (1.0 - t) + 2.0
    c = brentq(lambda x: tau_of_c(x) - t, 0.0, hi, xtol=1e-14, rtol=8.9e-16)
    for _ in range(2):  # Newton polish for the round-trip guarantee
        d = _dtau_dc(c)
        if d <= 0:
            break
        c -= (tau_of_c(c) - t) / d
    return math.copysign(c, tau)


def f_of_c(c: float) -> float:
    """F(c) = int theta e^theta dg over the soliton, in closed form.

    F(c) = 2 (c coth c - 1) - 2 log(sinh c / c); even, F(0) = 0, strictly
    increasing in |c|.
    """
    c = abs(float(c))
    if c < SERIES_CUTOFF:
        c2 = c * c
        return c2 * (1.0 / 3.0 + c2 * (-1.0 / 30.0 + c2 * 2.0 / 567.0))
    if c > 350.0:
        # sinh overflows; corrections to the asymptote are O(e^{-2c})
        return 2.0 * math.log(2.0 * c) - 2.0
    return 2.0 * (c / math.tanh(c) - 1.0) - 2.0 * math.log(math.sinh(c) / c)


def _check_weights(beta_p: float, beta_q: float) -> None:
    if not (0.0 <= beta_q <= beta_p < 1.0):
        raise ValueError(f"need 0 <= beta_q <= beta_p < 1, got ({beta_p}, {beta_q})")


def soliton_w(beta_p: float, beta_q: float) -> float:
    """Entropy value W(g_sol, -theta_sol) = 1 - F(c) of the two-point soliton.

    Equals exactly 1 when beta_p == beta_q (the constant-curvature football,
    c = 0 branch).  beta_q = 0 is the teardrop; the closed form extends to it
    continuously.
    """
    _check_weights(beta_p, beta_q)
    if beta_p == beta_q:
        return 1.0
    tau = (beta_p - beta_q) / (2.0 - beta_p - beta_q)
    return 1.0 - f_of_c(solve_c(tau))


@dataclass(frozen=True)
class SolitonSpec:
    """Parameters of one two-point (or one-point) shrinking soliton."""

    beta_p: float
    beta_q: float
    tau: float
    c: float
    w: float
    partition: frozenset = frozenset()

    @classmethod
    def from_weights(cls, beta_p: float, beta_q: float, partition=frozenset()) -> "SolitonSpec":
        _check_weights(beta_p, beta_q)
        tau = (beta_p - beta_q) / (2.0 - beta_p - beta_q)
        c = solve_c(tau)
        return cls(beta_p, beta_q, tau, c, 1.0 - f_of_c(c), frozenset(partition))


@dataclass
class MuTable:
    """Soliton entropies of all valid partitions, sorted descending."""

    entries: list  # of SolitonSpec
    threshold: float | None  # W_beta = mu_2, or None if < 2 valid partitions
    excluded: list  # invalid LimitDivisors (beta_p >= 1)

    @property
    def mu1(self) -> float:
        return self.entries[0].w


def mu_table(d: Divisor) -> MuTable:
    """Order the soliton entropies over all valid partitions of ``d``.

    Returns the entries sorted descending, the Theorem-1.4 threshold
    (the second entry, or None when fewer than two partitions are valid)
    and the excluded splits.  For an unstable divisor the top entry is
    always the split isolating the largest weight.
    """
    import warnings

    cls = classify_stability(d)
    if cls is not StabilityClass.UNSTABLE:
        warnings.warn(f"mu_table: divisor is {cls}, not unstable", UserWarning, stacklevel=2)
    specs = []
    excluded = []
    for ld in enumerate_partitions(d):
        if ld.valid:
            specs.append(SolitonSpec.from_weights(ld.beta_p, ld.beta_q, ld.partition))
        else:
            excluded.append(ld)
    if not specs:
        raise ValueError("no valid partitions (every side-sum >= 1)")
    specs.sort(key=lambda s: -s.w)
    if cls is StabilityClass.UNSTABLE:
        top = specs[0].partition
        if top != frozenset({d.k - 1}):
            raise AssertionError(f"argmax partition {set(top)} is not I = {{k}}")
    threshold = specs[1].w if len(specs) >= 2 else None
    return MuTable(specs, threshold, excluded)


# ----------------------------------------------------------------------
# radial profiles
# ----------------------------------------------------------------------


@dataclass
class RadialProfile:
    """Sampled rotationally symmetric metric in moment coordinates.

    x runs over [-1, 1] with the uniform area measure; phi > 0 on the open
    interval with phi(+-1) = 0; R is the scalar curvature and theta the
    soliton potential (identically 0 for the football).  The endpoint cone
    weights are encoded in the boundary slopes: beta(+1) = 1 + phi'(1)/2,
    beta(-1) = 1 - phi'(-1)/2.
    """

    x: np.ndarray
    phi: np.ndarray
    R: np.ndarray
    theta: np.ndarray
    beta_p: float  # cone weight at x = +1
    beta_q: float  # cone weight at x = -1
    c: float
    chi: float  # 2 - beta_p - beta_q

    def phi_of(self, x):
        return _phi_closed(np.asarray(x, dtype=float), self.c, self.chi)

    def curvature_of(self, x):
        return _curvature_closed(np.asarray(x, dtype=float), self.c, self.chi)

    def theta_of(self, x):
        return _theta_closed(np.asarray(x, dtype=float), self.c)

    def curvature_of_area(self, a):
        """R as a function of cumulative area measured from the x=+1 end."""
        return self.curvature_of(1.0 - np.asarray(a, dtype=float))

    def to_csv(self, path: str) -> None:
        """Write the sampled profile as (x, phi, R, theta) rows."""
        with open(path, "w") as fh:
            fh.write("x,phi,R,theta\n")
            for i in range(len(self.x)):
                fh.write(
                    f"{self.x[i]:.17g},{self.phi[i]:.17g},"
                    f"{self.R[i]:.17g},{self.theta[i]:.17g}\n"
                )

    def endpoint_weights(self, h: float = 1e-5) -> tuple:
        """Cone weights read off second-order one-sided slope stencils."""
        dp = (3.0 * self.phi_of(1.0) - 4.0 * self.phi_of(1.0 - h) + self.phi_of(1.0 - 2 * h)) / (2 * h)
        dq = (-3.0 * self.phi_of(-1.0) + 4.0 * self.phi_of(-1.0 + h) - self.phi_of(-1.0 + 2 * h)) / (2 * h)
        return 1.0 + dp / 2.0, 1.0 - dq / 2.0


def _phi_closed(x, c, chi):
    """Profile solving phi'' + c phi' + chi = 0, phi(+-1) = 0."""
    x = np.asarray(x, dtype=float)
    if abs(c) < PROFILE_CUTOFF:
        one = 1.0 - x * x
        return 0.5 * chi * one * (1.0 - c * x / 3.0 - c * c * one / 12.0)
    if c < 0:
        return _phi_closed(-x, -c, chi)
    # exponents kept nonpositive so large c cannot overflow
    num = np.exp(-c * (1.0 + x)) - math.exp(-2.0 * c)
    den = -math.expm1(-2.0 * c)
    return (chi / c) * ((1.0 - x) - 2.0 * num / den)


def _curvature_closed(x, c, chi):
    """R(x) = -phi''/2 = (chi c / (2 sinh c)) e^{-cx}; equals chi/2 at c = 0."""
    x = np.asarray(x, dtype=float)
    if abs(c) < PROFILE_CUTOFF:
        # c e^{-cx} / sinh c = e^{-cx} (1 - c^2/6 + ...)
        return 0.5 * chi * np.exp(-c * x) * (1.0 - c * c / 6.0)
    if c < 0:
        return _curvature_closed(-x, -c, chi)
    return chi * c * np.exp(-c * (x + 1.0)) / (-math.expm1(-2.0 * c))


def _log_a(c: float) -> float:
    """log(sinh c / c), the normalizer of theta."""
    c = abs(c)
    if c < SERIES_CUTOFF:
        return c * c / 6.0
    return math.log(math.sinh(c) / c)


def _theta_closed(x, c):
    return c * np.asarray(x, dtype=float) - _log_a(c)


def soliton_profile(beta_p: float, beta_q: float, n: int = 256) -> RadialProfile:
    """Reconstruct the rotationally symmetric soliton with the given weights.

    The curvature equation R = chi/2 + Laplacian(theta) with theta = c*x
    reduces, in moment coordinates, to the linear boundary-value problem
    phi'' + c phi' + chi = 0 with phi(+-1) = 0, solved here in closed form.
    The Hessian identity grad^2 theta = (Laplacian theta) g / 2 holds
    identically for potentials linear in x.  Self-checks: the boundary
    slopes reproduce the cone weights, and quadrature of theta e^theta
    reproduces f_of_c(c).
    """
    _check_weights(beta_p, beta_q)
    if n < 64:
        raise ValueError("need at least 64 samples")
    chi = 2.0 - beta_p - beta_q
    tau = (beta_p - beta_q) / chi
    c = solve_c(tau)
    x = np.linspace(-1.0, 1.0, n)
    prof = RadialProfile(
        x=x,
        phi=_phi_closed(x, c, chi),
        R=_curvature_closed(x, c, chi),
        theta=_theta_closed(x, c),
        beta_p=beta_p,
        beta_q=beta_q,
        c=c,
        chi=chi,
    )
    bp, bq = prof.endpoint_weights()
    if abs(bp - beta_p) > 1e-5 or abs(bq - beta_q) > 1e-5:
        raise AssertionError(
            f"profile boundary slopes give weights ({bp:.8f}, {bq:.8f}), "
            f"expected ({beta_p}, {beta_q})"
        )
    if abs(profile_quadrature_f(prof) - f_of_c(c)) > 1e-8:
        raise AssertionError("profile quadrature of theta e^theta disagrees with F(c)")
    return prof


def football(beta: float, n: int = 256) -> RadialProfile:
    """Constant-curvature profile with two equal cone weights beta.

    R = 1 - beta everywhere; beta = 0 is the round sphere.
    """
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"football weight must be in [0, 1), got {beta}")
    if beta == 0.0:
        chi = 2.0
        x = np.linspace(-1.0, 1.0, n)
        return RadialProfile(x, 0.5 * chi * (1 - x * x), np.full(n, 1.0), np.zeros(n), 0.0, 0.0, 0.0, chi)
    return soliton_profile(beta, beta, n)


def profile_quadrature_f(prof: RadialProfile, n: int = 200) -> float:
    """int theta e^theta dg over the profile by Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(n)
    th = prof.theta_of(x)
    return float(np.sum(w * th * np.exp(th)))
