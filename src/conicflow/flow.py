"""Time integration of the normalized conical Ricci flow in the conformal
factor gauge.

The evolution is ``du/dt = chi/2 - R(u)``, with R the smooth-part curvature
``e^-u (R_bg,cone - Lap_bg u)``: the modeled cone masses are excluded from
the dynamics, exactly as the conical flow lives on the punctured sphere
(otherwise every eps > 0 state would be a smooth sphere metric and the flow
would erase the cones).  Each step is semi-implicit: backward Euler
for the diffusion ``e^-u Lap_bg u`` with the factor ``e^-u`` frozen at the
current state, and the reaction ``chi/2 - e^-u R_bg,cone`` explicit.  That is
one SPD sparse solve per step, against a cached LU factor reused across
steps as the preconditioner of iterative refinement.  Every step shares
the matrix's pattern, so the stepper computes the grid's column ordering
(``SphereGrid.ordering``) once per run and factors the pre-permuted matrix
in natural order, with SuperLU's 5-column panel (``geometry.PANEL_SIZE``).
Where refinement stalls even against a fresh factor (the residual floor
cond(A) u lies above the target, as on the 32768-row axis grid), each later
step refactors and refines once instead, and the stepper stops trimming the
C heap before each factorization.

After every step the area is restored to 2 by an additive constant and the
constant is recorded in the trace: at eps > 0 the smoothed cone mass makes
the area drift at rate sum(beta) per unit time, and hiding that drift would
mask the eps-convergence behavior.
"""

from __future__ import annotations

import ctypes
import math
import os
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import diagnostics as diag
from . import functionals as fn
from . import geometry as geo
from . import soliton as sol
from .marked_sphere import MIN_SEPARATION, SEMISTABLE_TOL, Divisor

INITIALS = ("zero", "bump", "soliton")

try:  # glibc: hand the C heap's free pages back to the system
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

#: peak of the Gaussian ``initial = bump`` start
BUMP_AMPLITUDE = 0.3

#: auto-stop: a sample is quiet when no monitor moved by more than STOP_REL
#: (relative, absolute below 1) since the previous sample; STOP_CONSECUTIVE
#: quiet samples in a row stop the run
STOP_REL = 2e-4
STOP_CONSECUTIVE = 10

#: geodesic radius of the ``ball_ratio_p<i>`` monitors
BALL_RADIUS = 0.2


@dataclass
class FlowConfig:
    divisor: Divisor
    n_lat: int = 64
    n_lon: int = 128
    eps: float = 0.05
    dt: float = 0.01
    t_max: float = 50.0
    sample_every: float = 0.5
    snapshot_every: float = 0.0
    initial: str = "zero"
    seed: int = 0
    auto_stop: bool = True

    def __post_init__(self):
        if not isinstance(self.divisor, Divisor):
            raise ValueError(f"divisor must be a Divisor, got {self.divisor!r}")
        # F_beta and the normalized W divide by chi = 2 - sum(weights)
        chi = 2 - self.divisor.total()
        if abs(chi) <= SEMISTABLE_TOL:
            raise ValueError(f"the divisor's weights sum to 2 (chi = {float(chi):g}); "
                             "the flow's functionals divide by chi")
        for name in ("eps", "dt", "t_max", "sample_every", "snapshot_every"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")
        if self.sample_every <= 0:
            raise ValueError("sample_every must be positive")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be nonnegative (0 turns snapshots off)")
        # the run loop counts its steps, samples and snapshots in whole steps
        for name in ("t_max", "sample_every", "snapshot_every"):
            steps = getattr(self, name) / self.dt
            if not math.isfinite(steps):
                raise ValueError(f"{name} / dt must be finite, got {steps}")
        if self.initial not in INITIALS:
            raise ValueError(f"unknown initial condition {self.initial!r}")

    @property
    def axisymmetric(self) -> bool:
        """``n_lon == 1`` selects the 1-D reduction in colatitude."""
        return self.n_lon == 1

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "divisor"}
        d["divisor"] = self.divisor.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FlowConfig":
        """Inverse of :meth:`to_dict`, checked as every config is; a missing
        field is a KeyError, and a divisor that is not an object is left for
        the check to reject."""
        kw = {f.name: d[f.name] for f in fields(cls)}
        if isinstance(kw["divisor"], dict):
            kw["divisor"] = Divisor.from_dict(kw["divisor"])
        return cls(**kw)


_FIELD_TYPES = typing.get_type_hints(FlowConfig)

#: config file schema: ``key = value`` per line, '#' comments, one key per
#: FlowConfig field and typed by it; the key ``epsilon`` sets the field
#: ``eps``.  Maps each key to (field name, type).  Unknown and repeated keys
#: are hard errors.  ``divisor`` is a path to a divisor JSON file, resolved
#: relative to the config file.
CONFIG_KEYS = {
    ("epsilon" if f.name == "eps" else f.name): (f.name, _FIELD_TYPES[f.name])
    for f in fields(FlowConfig)
}


def read_key_values(text: str, kind: str, parse, path_key: str, base_dir: str = ".") -> dict:
    """The ``key = value`` lines of a config or sweep file, as a dict from
    each key to ``parse(key, value)`` in file order.  '#' starts a comment.
    A line without '=', a repeated key and a ValueError of ``parse`` raise
    ValueError, named by ``kind`` and line.  The value of ``path_key`` is a
    path, resolved relative to ``base_dir``, the directory of the file."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ValueError("expected 'key = value'")
            if key in out:
                raise ValueError(f"duplicate key {key!r}")
            if key == path_key and not os.path.isabs(val):
                val = os.path.join(base_dir, val)
            out[key] = parse(key, val)
        except ValueError as exc:
            raise ValueError(f"{kind} line {lineno}: {exc}") from exc
    return out


def parse_config_value(key: str, text: str):
    """(field name, typed value) of one ``key = value`` pair; the value of
    ``divisor`` stays a path."""
    if key not in CONFIG_KEYS:
        raise ValueError(f"unknown key {key!r}")
    name, typ = CONFIG_KEYS[key]
    if typ is bool:
        if text.lower() not in ("true", "false"):
            raise ValueError(f"{key} must be true/false")
        return name, text.lower() == "true"
    return name, text if typ is Divisor else typ(text)


def override(config: FlowConfig, values: dict) -> FlowConfig:
    """``config`` with the typed ``values`` of some config keys set, checked
    again as a new config."""
    return replace(config, **{CONFIG_KEYS[k][0]: v for k, v in values.items()})


def parse_config_text(text: str, base_dir: str = ".") -> FlowConfig:
    raw = dict(read_key_values(text, "config", parse_config_value, "divisor", base_dir).values())
    if "divisor" not in raw:
        raise ValueError("config is missing the 'divisor' key")
    with open(raw.pop("divisor")) as fh:
        divisor = Divisor.from_json(fh.read())
    return FlowConfig(divisor=divisor, **raw)


def parse_config_file(path: str) -> FlowConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def run_background(config: FlowConfig) -> geo.BackgroundMetric:
    """The background metric of a run, on the run's grid: the 1-D reduction
    in colatitude when ``n_lon == 1``."""
    if config.axisymmetric:
        grid = geo.build_axis_grid(config.n_lat, config.divisor)
    else:
        grid = geo.build_grid(config.n_lat, config.n_lon, config.divisor)
    return geo.background_metric(grid, config.divisor, config.eps)


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------


class FlowError(RuntimeError):
    pass


class _ImplicitStepper:
    """Backward-Euler diffusion solve (diag(d) + L) u = b with a cached LU.

    The diagonal d = mass / (dt e^-u) drifts slowly along the flow, so one
    factorization serves many steps as a preconditioner for iterative
    refinement; it is rebuilt when the refinement stalls.
    SuperLU orders the columns by the grid's ``ordering``; on a 2-D grid
    minimum degree about halves the cost of each back-solve against COLAMD.

    The matrix's pattern never changes, so the stepper computes that order
    once, keeps the symmetrically permuted matrix ``A[perm][:, perm]`` and
    factors it in natural order: on the 1-D grid the factor, its pivots and
    every solve are bit for bit those of a per-factor COLAMD factor, at ~25%
    less time per factorization on the 32768-row grid.  Every factor, the
    order probe's included, takes the 5-column ``geo.PANEL_SIZE``.

    Refinement cannot push the residual below about cond(A) u.  When it
    stalls against a factor built in the same call, that floor lies above
    the 1e-12 target, and the stepper keeps that knowledge for the rest of
    the run: every later solve refactors at once and refines once, which
    is what the stall fallback would do after wasting its sweeps.  From
    then on it no longer trims the C heap before a factorization: each new
    factor reuses the pages of the one just dropped.

    The stepper counts its factorizations, those made after refinement
    stalled, and its back-solves, and keeps the worst relative residual of
    the solves made on a fresh factor and the ordering it factored with.
    """

    def __init__(self, background: geo.BackgroundMetric):
        self.bg = background
        grid = background.grid
        # COLAMD, minimum degree and SuperLU's postorder read only the
        # pattern; L + I has that of every diag(d) + L and is nonsingular.
        # scipy's perm_c maps an original column to its place, so invert it:
        # x[perm] solves the permuted system for b[perm]
        A = grid.L.tocsc()
        probe = A + sp.identity(grid.n, format="csc")
        self.perm = np.argsort(spla.splu(
            probe, permc_spec=grid.ordering, panel_size=geo.PANEL_SIZE).perm_c)
        # the probe factor's heap, left untrimmed, raises the axis run's
        # peak RSS by ~6 MB (94 against 87 MB)
        if _malloc_trim is not None:
            _malloc_trim(0)
        # diag(d) + L in CSC with sorted indices; a factorization overwrites
        # its diagonal entries in place instead of rebuilding the matrix
        self.A = A[self.perm][:, self.perm].tocsc()
        self.A.sort_indices()
        col = np.repeat(np.arange(self.A.shape[1]), np.diff(self.A.indptr))
        self._diag = np.flatnonzero(self.A.indices == col)
        self._L_diag = self.A.data[self._diag].copy()
        self.lu = None
        self.floor_above_target = False
        self.factorizations = 0
        self.stall_refactorizations = 0
        self.backsolves = 0
        self.worst_residual = 0.0

    def _factor(self, d):
        self.A.data[self._diag] = self._L_diag + d[self.perm]
        # the old factor goes before the next is built, so two never coexist.
        # While factorizations are rare (every 2-D run, and 1-D runs whose
        # refinement converges) the heap is trimmed too, which holds the 2-D
        # peak RSS ~2.3 MB lower.  Once every step refactors, a trim only
        # hands back the dropped factor's pages for the next factor to fault
        # in again: on the 32768-row axis grid that cost ~4 of the ~12 ms a
        # factorization took, and the peak RSS holds at ~87 MB without it.
        self.lu = None
        if _malloc_trim is not None and not self.floor_above_target:
            _malloc_trim(0)
        self.lu = spla.splu(self.A, permc_spec="NATURAL", panel_size=geo.PANEL_SIZE)
        self.factorizations += 1

    def _backsolve(self, b):
        self.backsolves += 1
        x = np.empty_like(b)
        x[self.perm] = self.lu.solve(b[self.perm])
        return x

    def counters(self) -> dict:
        return {
            "factorizations": self.factorizations,
            "stall_refactorizations": self.stall_refactorizations,
            "backsolves": self.backsolves,
            "worst_residual": self.worst_residual,
            "floor_above_target": self.floor_above_target,
            "ordering": self.bg.grid.ordering,
            "panel_size": geo.PANEL_SIZE,
        }

    def solve(self, d, rhs):
        L = self.bg.grid.L
        norm = float(np.linalg.norm(rhs)) or 1.0
        if not self.floor_above_target:
            fresh = self.lu is None
            if fresh:
                self._factor(d)
            x = None
            for _ in range(12):
                x = self._backsolve(rhs) if x is None else x + self._backsolve(r)
                r = rhs - (d * x + L @ x)
                res = float(np.linalg.norm(r))
                if res <= 1e-12 * norm:
                    if fresh:
                        self.worst_residual = max(self.worst_residual, res / norm)
                    return x
            if fresh:
                self.floor_above_target = True
            self.stall_refactorizations += 1
        self._factor(d)
        x = self._backsolve(rhs)
        r = rhs - (d * x + L @ x)
        x = x + self._backsolve(r)
        # a fresh factor leaves round-off (4e-11 at worst on the shipped
        # 32768x1 soliton run); more means the solve failed
        rel = float(np.linalg.norm(rhs - (d * x + L @ x))) / norm
        self.worst_residual = max(self.worst_residual, rel)
        if rel > 1e-9:
            raise FlowError(f"implicit solve stalled at relative residual {rel:.2e}")
        return x


def _semi_implicit_step(
    state: geo.MetricState, dt: float, stepper: _ImplicitStepper
) -> geo.MetricState:
    bg = state.background
    a = np.exp(-state.u)
    r_bg = bg.R - bg.cone_term
    d = bg.mass / (dt * a)
    rhs = d * (state.u + dt * (0.5 * bg.chi() - a * r_bg))
    u = stepper.solve(d, rhs)
    if not np.all(np.isfinite(u)):
        raise FlowError("non-finite conformal factor after implicit step")
    return geo.MetricState(bg, u, state.t + dt)


def renormalize(state: geo.MetricState):
    """Restore area 2 by the unique additive constant; returns
    (state, constant) with the constant reported, not silently absorbed."""
    area = state.area()
    c = math.log(2.0 / area)
    return geo.MetricState(state.background, state.u + c, state.t), c


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------


@dataclass
class FlowTrace:
    """The sampled monitors of a run, its status and its last state, with
    the snapshots taken on the way, the stepper's counters and the count
    of samples and of the distance rows they made."""

    times: np.ndarray
    columns: dict
    status: str = "completed"
    final_state: geo.MetricState = field(default=None, repr=False)
    snapshots: list = field(default_factory=list, repr=False)  # (t, u) pairs
    solver: dict = field(default_factory=dict)
    monitors: dict = field(default_factory=dict)

    def __getitem__(self, name):
        return self.columns[name]

    def to_csv(self, path: str) -> None:
        names = list(self.columns)
        with open(path, "w") as fh:
            fh.write(",".join(["time"] + names) + "\n")
            for i, t in enumerate(self.times):
                row = [f"{t:.17g}"] + [f"{self.columns[c][i]:.17g}" for c in names]
                fh.write(",".join(row) + "\n")


def _sample_record(state, chow_s, drift):
    """The monitors of one sample of ``state``, at Chow shift ``chow_s``
    and with ``drift`` the last renormalization constant.  The Ricci
    potential v is solved here, once, for the entropy and the residual."""
    # every distance monitor of this sample, and the verdict on the run's
    # final state, read the state's one geodesic pass (``distance_rows``):
    # the marked rows always, and an axis row only when its triangle bound
    # cannot rule it out of the diameter
    grid = state.grid
    v = fn.ricci_potential(state)
    R, r_cone = state.scalar_curvature, state.conical_curvature
    rec = {
        "area": state.area(),
        "total_curvature": geo.integrate(R, state),
        "r_min": float(R.min()),
        "r_max": float(R.max()),
        "rcone_min": float(r_cone.min()),
        "rcone_max": float(r_cone.max()),
        "f_beta": fn.f_beta(state),
        "hamilton_entropy": fn.hamilton_entropy(state, chow_s),
        "chow_s": chow_s,
        "w_normalized": fn.normalized_w(state, -v),
        "soliton_residual": fn.soliton_residual(state, v),
        "renorm_drift": drift,
    }
    k = len(grid.marked_nodes)
    dmat = geo.pairwise_marked_distances(state)
    for i in range(k):
        for j in range(i + 1, k):
            rec[f"d_p{i + 1}_p{j + 1}"] = dmat[i, j]
    for i, node in enumerate(grid.marked_nodes):
        rec[f"ball_ratio_p{i + 1}"] = diag.volume_ratio(
            state, state.distance_rows[node], BALL_RADIUS)
    rec["diameter"] = geo.diameter_estimate(state)
    return rec


def _initial_field(config: FlowConfig, bg: geo.BackgroundMetric) -> np.ndarray:
    """The conformal factor a run starts from.  ``initial = soliton`` samples
    the closed-form soliton of the divisor's weights (one point, or two
    antipodal ones), its heavier cone at the divisor's heaviest point
    (:func:`~conicflow.diagnostics.profile_state`)."""
    grid = bg.grid
    if config.initial == "zero":
        return np.zeros(grid.n)
    if config.initial == "soliton":
        div = config.divisor
        if div.k not in (1, 2):
            raise ValueError("initial = soliton needs a 1- or 2-point divisor")
        # the profile puts the lighter cone at the antipode of the heavier
        if div.k == 2 and np.linalg.norm(div.positions[0] + div.positions[1]) > MIN_SEPARATION:
            raise ValueError("initial = soliton needs the two marked points antipodal")
        w = div.weights_float()
        prof = sol.soliton_profile(float(w.max()), float(w.min()) if div.k == 2 else 0.0)
        return diag.profile_state(bg, prof).u
    rng = np.random.default_rng(config.seed)
    center = rng.standard_normal(3)
    center /= np.linalg.norm(center)
    if config.axisymmetric:
        center = np.array([0.0, 0.0, math.copysign(1.0, center[2])])
    cosang = np.clip(grid.positions() @ center, -1.0, 1.0)
    ang2 = np.arccos(cosang) ** 2
    width = 0.5
    return BUMP_AMPLITUDE * np.exp(-ang2 / (2.0 * width * width))


def _run_loop(config: FlowConfig, bg: geo.BackgroundMetric) -> FlowTrace:
    state = geo.make_state(bg, _initial_field(config, bg))
    state, _ = renormalize(state)

    # Chow's shift is only needed when the smooth-part curvature is not
    # already positive; s = 0 solves the shift ODE and leaves N unshifted
    rmin0 = float(state.conical_curvature.min())
    s0 = 0.0 if rmin0 > 0.05 else min(-0.05, rmin0 - 0.05)
    half_chi = 0.5 * bg.chi()

    steps_per_sample = max(1, round(config.sample_every / config.dt))
    n_steps = int(round(config.t_max / config.dt))
    snap_every = (
        max(1, round(config.snapshot_every / config.dt)) if config.snapshot_every else 0
    )

    times, rows = [], []
    snapshots = []
    status = "completed"
    drift_last = 0.0
    calm = 0
    implicit = _ImplicitStepper(bg)
    monitors = {"samples": 0, "distance_rows": 0}

    def record():
        """Append one sample; a non-finite monitor ends the run after it."""
        s = fn.chow_shift(s0, state.t, half_chi)
        rows.append(_sample_record(state, s, drift_last))
        times.append(state.t)
        monitors["samples"] += 1
        monitors["distance_rows"] += len(state.distance_rows)
        bad = next((k for k, x in rows[-1].items() if not math.isfinite(x)), None)
        if bad is not None:
            raise FlowError(f"non-finite monitor {bad} at t = {state.t:g}")

    try:
        record()
        for n in range(1, n_steps + 1):
            state = _semi_implicit_step(state, config.dt, implicit)
            state, drift_last = renormalize(state)
            if snap_every and n % snap_every == 0:
                snapshots.append((state.t, state.u.copy()))
            if n % steps_per_sample == 0 or n == n_steps:
                record()
                if config.auto_stop and len(rows) >= 2:
                    prev, cur = rows[-2], rows[-1]
                    keys = [k for k in cur if k not in ("chow_s", "renorm_drift", "area")]
                    quiet = all(
                        abs(cur[k] - prev[k]) <= STOP_REL * max(1.0, abs(cur[k]))
                        for k in keys
                    )
                    calm = calm + 1 if quiet else 0
                    if calm >= STOP_CONSECUTIVE:
                        status = "auto_stopped"
                        break
    except FlowError as exc:
        status = f"failed: {exc}"
    except Exception as exc:  # a failing monitor or solve keeps the partial trace
        status = f"failed: {type(exc).__name__}: {exc}"

    columns = {k: np.array([r[k] for r in rows]) for k in (rows[0] if rows else ())}
    return FlowTrace(np.array(times), columns, status, state, snapshots, implicit.counters(),
                     monitors)


def run(config: FlowConfig) -> FlowTrace:
    """Integrate the flow; deterministic given the config (and seed).

    ``n_lon == 1`` runs the 1-D reduction in colatitude, for at most two
    marked points at the poles: its stencil is the exact zonal aggregate of
    the 2-D one, so axisymmetric data gives the same monitors and the same
    verdict statistics as the 2-D grid up to round-off.
    """
    return _run_loop(config, run_background(config))
