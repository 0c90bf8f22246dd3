"""Exact arithmetic on marked-point divisors on the 2-sphere.

Weights may be floats or :class:`fractions.Fraction`; stability comparisons
are exact when every weight is a Fraction, otherwise a declared float
tolerance is used for the semi-stable equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

Weight = Union[float, Fraction]

#: tolerance for the semi-stable equality 2*beta_max == sum(beta) with floats
SEMISTABLE_TOL = 1e-12

#: minimum angular separation between marked points (radians)
MIN_SEPARATION = 1e-9

#: a position whose norm is this close to 1 counts as a unit vector
UNIT_NORM_TOL = 4.0 * np.finfo(float).eps


class StabilityClass(Enum):
    STABLE = "Stable"
    SEMI_STABLE = "SemiStable"
    UNSTABLE = "Unstable"

    def __str__(self) -> str:
        return self.value


def _equator_positions(k: int) -> np.ndarray:
    lon = 2.0 * np.pi * np.arange(k) / max(k, 1)
    return np.stack([np.cos(lon), np.sin(lon), np.zeros(k)], axis=1)


@dataclass(frozen=True)
class Divisor:
    """Marked-point data beta = sum_j beta_j [p_j].

    Weights are stored sorted ascending, so ``weights[-1]`` is the largest
    weight; positions are permuted together with the weights.  Positions are
    unit 3-vectors (to within UNIT_NORM_TOL), pairwise distinct.
    """

    weights: tuple
    positions: np.ndarray = field(repr=False)

    def __init__(self, weights: Sequence[Weight], positions=None):
        weights = list(weights)
        k = len(weights)
        for w in weights:
            if not (0 < float(w) < 1):
                raise ValueError(f"weight {w} outside the open interval (0, 1)")
        if positions is None:
            pos = _equator_positions(k)
        else:
            try:
                pos = np.asarray(positions, dtype=float).reshape(k, 3)
            except TypeError as exc:  # e.g. a JSON object
                raise ValueError(f"positions must be {k} coordinate triples: {exc}") from exc
            if not np.all(np.isfinite(pos)):
                raise ValueError("non-finite position coordinate")
            norms = np.linalg.norm(pos, axis=1)
            if np.any(norms == 0):
                raise ValueError("zero position vector")
            # a unit vector divided by its norm can move by 1 ulp, so one
            # within UNIT_NORM_TOL of unit norm is kept as given: normalizing
            # twice (a divisor read back from a manifest) then moves nothing
            unit = np.abs(norms - 1.0) <= UNIT_NORM_TOL
            pos = np.where(unit[:, None], pos, pos / norms[:, None])
        order = sorted(range(k), key=lambda i: float(weights[i]))
        weights = [weights[i] for i in order]
        pos = pos[order] if k else pos.reshape(0, 3)
        for i in range(k):
            for j in range(i + 1, k):
                cosang = float(np.clip(np.dot(pos[i], pos[j]), -1.0, 1.0))
                if np.arccos(cosang) <= MIN_SEPARATION:
                    raise ValueError(f"marked points {i} and {j} coincide")
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "positions", pos)

    def __eq__(self, other):
        # the generated comparison would take the truth value of an array
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.weights == other.weights and np.array_equal(self.positions, other.positions)

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def exact(self) -> bool:
        """True when every weight is a Fraction (exact comparisons apply)."""
        return self.k > 0 and all(isinstance(w, Fraction) for w in self.weights)

    @property
    def beta_max(self) -> Weight:
        if self.k == 0:
            raise ValueError("empty divisor has no maximal weight")
        return self.weights[-1]

    def total(self) -> Weight:
        return sum(self.weights, Fraction(0) if self.exact else 0.0)

    def weights_float(self) -> np.ndarray:
        return np.array([float(w) for w in self.weights], dtype=float)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The divisor as JSON values: a Fraction weight is the string
        ``"num/den"``, so exact weights survive a round trip."""
        def enc(w):
            return f"{w.numerator}/{w.denominator}" if isinstance(w, Fraction) else float(w)

        return {
            "weights": [enc(w) for w in self.weights],
            "positions": [list(map(float, p)) for p in self.positions],
        }

    @classmethod
    def from_dict(cls, data) -> "Divisor":
        """Inverse of :meth:`to_dict`; missing positions spread the points
        along the equator."""
        if not isinstance(data, dict) or not isinstance(data.get("weights"), list):
            raise ValueError("divisor JSON must be an object with a 'weights' list")
        weights = []
        for w in data["weights"]:
            try:
                if isinstance(w, str):
                    num, _, den = w.partition("/")
                    weights.append(Fraction(int(num), int(den)) if den else Fraction(w))
                else:
                    weights.append(float(w))
            except (TypeError, ZeroDivisionError) as exc:
                raise ValueError(f"bad weight {w!r}: {exc}") from exc
        return cls(weights, data.get("positions"))

    @classmethod
    def from_json(cls, text: str) -> "Divisor":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class LimitDivisor:
    """Two-point limit divisor produced by a partition {I, J} of the marks.

    ``beta_p >= beta_q`` and ``beta_p + beta_q`` equals the total weight of
    the parent divisor.  ``partition`` holds the 0-based indices on the
    beta_p side.  Splits with ``beta_p >= 1`` carry no conical structure and
    are flagged invalid.
    """

    beta_p: float
    beta_q: float
    partition: frozenset
    valid: bool = True
    conditional: bool = False


def euler_characteristic(d: Divisor) -> Weight:
    """chi(S^2, beta) = 2 - sum(beta_j)."""
    return (Fraction(2) if d.exact else 2.0) - d.total()


def classify_stability(d: Divisor) -> StabilityClass:
    """Troyanov trichotomy comparing 2*beta_max with sum(beta).

    Stable iff sum >= 2 or 2*beta_max < sum; semi-stable iff sum < 2 and
    2*beta_max == sum (exact for Fraction weights, within SEMISTABLE_TOL
    for floats); unstable otherwise.  Any k >= 1 is classified, though the
    convergence theorems assume k >= 3 marked points.
    """
    if d.k < 1:
        raise ValueError("classification needs at least one marked point")
    tol = 0 if d.exact else SEMISTABLE_TOL
    total = d.total()
    gap = 2 * d.beta_max - total
    if total >= 2 or gap < -tol:
        return StabilityClass.STABLE
    if abs(gap) <= tol:
        return StabilityClass.SEMI_STABLE
    return StabilityClass.UNSTABLE


def alpha_invariant(d: Divisor) -> Weight:
    """(1 - beta_max) / chi(S^2, beta); requires sum(beta) < 2."""
    if d.k < 1:
        raise ValueError("alpha invariant needs at least one marked point")
    chi = euler_characteristic(d)
    if float(chi) <= 0:
        raise ValueError("alpha invariant formula requires sum(beta) < 2")
    one = Fraction(1) if d.exact else 1.0
    return (one - d.beta_max) / chi


def enumerate_partitions(d: Divisor) -> list:
    """All unordered splits {I, J} of the marks into two groups (J may be
    empty), each mapped to a :class:`LimitDivisor` with beta_p the larger
    side-sum.  Exactly 2^(k-1) splits are returned; invalid ones
    (beta_p >= 1) are flagged, not dropped.
    """
    if d.k < 1:
        raise ValueError("partition enumeration needs at least one marked point")
    w = d.weights_float()
    k = d.k
    total = float(w.sum())
    out = []
    # fixing mark k-1 on one side enumerates unordered pairs exactly once
    for bits in range(2 ** (k - 1)):
        side = {k - 1}
        for i in range(k - 1):
            if bits >> i & 1:
                side.add(i)
        s = float(w[list(side)].sum())
        other = frozenset(range(k)) - side
        if s >= total - s:
            bp, bq, part = s, total - s, frozenset(side)
        else:
            bp, bq, part = total - s, s, other
        out.append(LimitDivisor(bp, bq, part, valid=bp < 1.0))
    out.sort(key=lambda ld: (ld.beta_p, sorted(ld.partition)))
    return out


def predict_limit_divisor(d: Divisor) -> LimitDivisor:
    """Predicted limit divisor for a non-stable flow.

    Semi-stable pairs limit to (beta_max, beta_max).  For unstable pairs the
    reported split puts the largest weight alone (beta_k, sum of the rest);
    this is proved only under the entropy threshold hypothesis, so the
    result carries ``conditional=True``.  Like the convergence theorems,
    the prediction assumes k >= 3 marked points; smaller k is answered the
    same way.
    """
    cls = classify_stability(d)
    if cls is StabilityClass.STABLE:
        raise ValueError("stable divisor: the flow limit keeps all marked points")
    w = d.weights_float()
    part = frozenset({d.k - 1})
    if cls is StabilityClass.SEMI_STABLE:
        bmax = float(d.beta_max)
        return LimitDivisor(bmax, bmax, part, valid=bmax < 1.0)
    rest = float(w[:-1].sum())
    return LimitDivisor(float(d.beta_max), rest, part, valid=True, conditional=True)
