"""conicflow: normalized Ricci flow on the 2-sphere with marked conical points.

A numerical laboratory for the long-time behavior of the conical Ricci flow:
stability classification of marked-point divisors, closed-form soliton
entropies over partitions, a finite-difference flow solver in the conformal
gauge with an axisymmetric fast path, entropy/energy monitors, and
convergence diagnostics against constant-curvature, football, and soliton
limits.
"""

__version__ = "0.1.0"

from .marked_sphere import (  # noqa: F401
    Divisor,
    LimitDivisor,
    StabilityClass,
    alpha_invariant,
    classify_stability,
    enumerate_partitions,
    euler_characteristic,
    predict_limit_divisor,
)
from .soliton import (  # noqa: F401
    MuTable,
    SolitonSpec,
    f_of_c,
    mu_table,
    solve_c,
    soliton_profile,
    tau_of_c,
)
