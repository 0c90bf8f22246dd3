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

c is solved by this module's own port of Brent's method (R. P. Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 4), step for
step as scipy.optimize.brentq, so no package module imports scipy.optimize
(~15 MB of resident memory and ~0.13 s to load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    # variance of x under the tilted measure; strictly positive, and at
    # least 1.2e-32 on solve_c's bracket (c < 9.1e15), so never zero
    if abs(c) < SERIES_CUTOFF:
        c2 = c * c
        return 1.0 / 3.0 + c2 * (-1.0 / 15.0 + c2 * (2.0 / 189.0 - c2 / 675.0))
    if abs(c) > 350.0:
        return 1.0 / (c * c)
    s = math.sinh(c)
    return 1.0 / (c * c) - 1.0 / (s * s)


def _brentq(f, a, b, xtol, rtol, maxiter=100):
    """Root of ``f`` on the sign-changing bracket [a, b] by Brent's method.

    Repeats scipy.optimize.brentq (scipy's ``Zeros/brentq.c``) operation
    for operation: the same bracket swap, interpolation/extrapolation test
    and step floor, so it returns the same float.  Raises ValueError when
    f(a) and f(b) have the same sign, RuntimeError after ``maxiter``
    iterations without convergence.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # keep the best estimate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


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
    c = _brentq(lambda x: tau_of_c(x) - t, 0.0, hi, xtol=1e-14, rtol=8.9e-16)
    for _ in range(2):  # Newton polish for the round-trip guarantee
        c -= (tau_of_c(c) - t) / _dtau_dc(c)
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


@dataclass(frozen=True)
class SolitonSpec:
    """One two-point (or one-point) shrinking soliton, profile in closed form.

    :func:`soliton_profile` is the one step from cone weights to tau, c and
    the entropy w = W(g_sol, -theta_sol) = 1 - F(c); beta_p >= beta_q, so
    c >= 0, and equal weights give c = 0, the constant-curvature football
    with w exactly 1.  The profile is evaluated, never sampled: in moment
    coordinates x runs over [-1, 1] with the uniform area measure, phi > 0
    on the open interval with phi(+-1) = 0, R is the scalar curvature and
    theta the soliton potential (identically 0 for the football).  The
    endpoint cone weights are encoded in the boundary slopes:
    beta(+1) = 1 + phi'(1)/2, beta(-1) = 1 - phi'(-1)/2.
    """

    beta_p: float  # cone weight at x = +1
    beta_q: float  # cone weight at x = -1
    tau: float
    c: float
    w: float
    partition: frozenset = frozenset()

    @property
    def chi(self) -> float:
        return 2.0 - self.beta_p - self.beta_q

    def phi_of(self, x):
        """Profile solving phi'' + c phi' + chi = 0, phi(+-1) = 0."""
        x, c, chi = np.asarray(x, dtype=float), self.c, self.chi
        if c < PROFILE_CUTOFF:
            one = 1.0 - x * x
            return 0.5 * chi * one * (1.0 - c * x / 3.0 - c * c * one / 12.0)
        # exponents kept nonpositive so large c cannot overflow
        num = np.exp(-c * (1.0 + x)) - math.exp(-2.0 * c)
        den = -math.expm1(-2.0 * c)
        return (chi / c) * ((1.0 - x) - 2.0 * num / den)

    def curvature_of(self, x):
        """R(x) = -phi''/2 = (chi c / (2 sinh c)) e^{-cx}; equals chi/2 at c = 0."""
        x, c, chi = np.asarray(x, dtype=float), self.c, self.chi
        if c < PROFILE_CUTOFF:
            # c e^{-cx} / sinh c = e^{-cx} (1 - c^2/6 + ...)
            return 0.5 * chi * np.exp(-c * x) * (1.0 - c * c / 6.0)
        return chi * c * np.exp(-c * (x + 1.0)) / (-math.expm1(-2.0 * c))

    def theta_of(self, x):
        """theta(x) = c x - log(sinh c / c), so that int e^theta dg = 2."""
        c = self.c
        if c < SERIES_CUTOFF:
            log_a = c * c / 6.0
        else:
            try:
                log_a = math.log(math.sinh(c) / c)
            except OverflowError:  # c > ~710: sinh c = e^c / 2 to double precision
                log_a = c - math.log(2.0 * c)
        return c * np.asarray(x, dtype=float) - log_a

    def curvature_of_area(self, a):
        """R as a function of cumulative area measured from the x=+1 end."""
        return self.curvature_of(1.0 - np.asarray(a, dtype=float))

    def to_csv(self, path: str) -> None:
        """Write (x, phi, R, theta) rows at 256 evenly spaced x in [-1, 1]."""
        x = np.linspace(-1.0, 1.0, 256)
        phi, R, theta = self.phi_of(x), self.curvature_of(x), self.theta_of(x)
        with open(path, "w") as fh:
            fh.write("x,phi,R,theta\n")
            for i in range(len(x)):
                fh.write(f"{x[i]:.17g},{phi[i]:.17g},{R[i]:.17g},{theta[i]:.17g}\n")


@dataclass
class MuTable:
    """Soliton entropies of all valid partitions, sorted descending."""

    entries: list  # of SolitonSpec
    threshold: float | None  # W_beta = mu_2, or None if < 2 valid partitions
    excluded: list  # invalid LimitDivisors (beta_p >= 1)


def mu_table(d: Divisor) -> MuTable:
    """Order the soliton entropies over all valid partitions of ``d``.

    Returns the entries sorted descending, the Theorem-1.4 threshold
    (the second entry, or None when fewer than two partitions are valid)
    and the excluded splits.  For an unstable divisor the top entry is
    always the split isolating the largest weight.  A stable or
    semi-stable divisor gets its table too.
    """
    cls = classify_stability(d)
    specs = []
    excluded = []
    for ld in enumerate_partitions(d):
        if ld.valid:
            specs.append(soliton_profile(ld.beta_p, ld.beta_q, ld.partition))
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


def soliton_profile(beta_p: float, beta_q: float, partition=frozenset()) -> SolitonSpec:
    """The rotationally symmetric soliton with the given weights.

    The curvature equation R = chi/2 + Laplacian(theta) with theta = c*x
    reduces, in moment coordinates, to the linear boundary-value problem
    phi'' + c phi' + chi = 0 with phi(+-1) = 0, solved in closed form by
    the returned spec.  The Hessian identity grad^2 theta = (Laplacian
    theta) g / 2 holds identically for potentials linear in x.  beta_q = 0
    is the teardrop; the closed forms extend to it continuously.
    """
    if not (0.0 <= beta_q <= beta_p < 1.0):
        raise ValueError(f"need 0 <= beta_q <= beta_p < 1, got ({beta_p}, {beta_q})")
    tau = (beta_p - beta_q) / (2.0 - beta_p - beta_q)
    c = solve_c(tau)
    return SolitonSpec(beta_p, beta_q, tau, c, 1.0 - f_of_c(c), frozenset(partition))
