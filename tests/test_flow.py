import json
import math
import types
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conicflow import cli
from conicflow import diagnostics as diag
from conicflow import flow as fl
from conicflow import geometry as geo
from conicflow.marked_sphere import Divisor, classify_stability
from conftest import (
    shipped_config,
    shipped_config_path,
    shipped_divisor,
    skew_factors_from_third_solve,
)
from oracles import distances_from, f_beta_rate_oracle, read_trace


def one_step(state, dt):
    """One semi-implicit step on a stepper of its own (a fresh factor)."""
    return fl._semi_implicit_step(state, dt, fl._ImplicitStepper(state.background))


def small_config(**overrides):
    kw = dict(
        divisor=shipped_divisor("semistable"),
        n_lat=32,
        n_lon=64,
        eps=0.1,
        dt=0.02,
        t_max=2.0,
        sample_every=0.2,
        auto_stop=False,
    )
    kw.update(overrides)
    return fl.FlowConfig(**kw)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(dt=-1.0)
        with pytest.raises(ValueError):
            small_config(t_max=0.0)
        with pytest.raises(ValueError):
            small_config(initial="sine")
        # a negative interval rounds to one step: every step would be
        # sampled and written out as a snapshot
        with pytest.raises(ValueError, match="sample_every"):
            small_config(sample_every=-1.0)
        with pytest.raises(ValueError, match="sample_every"):
            small_config(sample_every=0.0)
        with pytest.raises(ValueError, match="snapshot_every"):
            small_config(snapshot_every=-1.0)
        # chi = 0: F_beta and the normalized W would divide by zero
        with pytest.raises(ValueError, match="weights sum to 2"):
            small_config(divisor=Divisor([F(1, 2)] * 4))
        with pytest.raises(ValueError, match="weights sum to 2"):
            small_config(divisor=Divisor([0.6, 0.7, 0.7]))

    @pytest.mark.parametrize("name", ["eps", "dt", "t_max", "sample_every", "snapshot_every"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            small_config(**{name: value})

    @pytest.mark.parametrize("name", ["t_max", "sample_every", "snapshot_every"])
    def test_overflowing_step_count_rejected(self, name):
        # each value is finite, but the run loop's step count is not
        with pytest.raises(ValueError, match=f"{name} / dt must be finite"):
            small_config(**{name: 1e300, "dt": 1e-10})

    def test_parse_round_trip(self, tmp_path):
        div_path = tmp_path / "d.json"
        div_path.write_text(json.dumps(shipped_divisor("stable").to_dict()))
        cfg_text = (
            f"divisor = {div_path}\n"
            "n_lat = 32\nn_lon = 64\nepsilon = 0.1\ndt = 0.02\n"
            "t_max = 1.0\nauto_stop = false\n# comment line\n"
        )
        cfg = fl.parse_config_text(cfg_text, base_dir=str(tmp_path))
        assert cfg.n_lat == 32 and cfg.eps == 0.1 and cfg.auto_stop is False
        assert cfg.divisor.k == 3

    def test_unknown_key_is_hard_error(self, tmp_path):
        with pytest.raises(ValueError, match="unknown key"):
            fl.parse_config_text("dt = 0.1\nepsilonn = 0.2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            fl.parse_config_text("dt = 0.1\ndt = 0.2\n")

    def test_missing_divisor_rejected(self):
        with pytest.raises(ValueError, match="divisor"):
            fl.parse_config_text("dt = 0.1\n")

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError, match="divisor must be a Divisor"):
            small_config(divisor=None)

    def test_dict_round_trip_random_divisors(self):
        # a manifest gives back its divisor bit for bit: positions that are
        # unit vectors already are not normalized a second time
        rng = np.random.default_rng(5)
        for _ in range(200):
            div = Divisor(rng.uniform(0.05, 0.95, 3), rng.standard_normal((3, 3)))
            cfg = small_config(divisor=div)
            assert fl.FlowConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        # exact weights stay exact; the second divisor is Unstable by exact
        # arithmetic but SemiStable under the float tolerance
        for weights, cls in (([F(1, 3), F(1, 3), F(2, 3)], "SemiStable"),
                             ([F(1, 4), F(1, 4), F(1, 2) + F(1, 10**15)], "Unstable"),
                             ([F(1, 3), F(2, 7), F(3, 11), F(5, 13)], "Stable")):
            cfg = small_config(divisor=Divisor(weights, rng.standard_normal((len(weights), 3))))
            back = fl.FlowConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
            assert back == cfg
            assert str(classify_stability(back.divisor)) == cls


class TestStep:
    def test_round_sphere_is_stationary(self):
        grid = geo.build_grid(32, 64)
        st = geo.make_state(geo.background_metric(grid, grid.divisor, 0.1))
        st3 = one_step(st, 0.05)
        assert np.abs(st3.u).max() < 1e-10

    def test_gauge_consistency(self):
        # the step advances the conformal form e^-u Lap_bg u + chi/2 - e^-u R_bg;
        # its rate (u(t + dt) - u) / dt must tend to the curvature form
        # chi/2 - R_cone(u) at first order in dt
        d = shipped_divisor("unstable")
        grid = geo.build_grid(32, 64, d)
        bg = geo.background_metric(grid, d, 0.1)
        th = np.repeat(grid.theta, grid.n_lon)
        st = geo.make_state(bg, 0.3 * np.cos(2 * th))
        rhs = 0.5 * bg.chi() - st.conical_curvature
        err = {}
        for dt in (1e-4, 1e-5):
            rate = (one_step(st, dt).u - st.u) / dt
            err[dt] = np.abs(rate - rhs).max()
        assert 9.0 <= err[1e-4] / err[1e-5] <= 11.0
        assert err[1e-4] < 2e-3 * np.abs(rhs).max()

    def test_curvature_smoothing_round(self):
        # a smooth bump on the round sphere relaxes monotonically to R = 1
        grid = geo.build_grid(32, 64)
        bg = geo.background_metric(grid, grid.divisor, 0.1)
        th = np.repeat(grid.theta, grid.n_lon)
        state = geo.make_state(bg, 0.4 * np.cos(2 * th))
        state, _ = fl.renormalize(state)
        sups = []
        for _ in range(60):
            state = one_step(state, 0.02)
            state, _ = fl.renormalize(state)
            sups.append(np.abs(state.scalar_curvature - 1.0).max())
        # the reaction term can push the sup up transiently; the decay is
        # eventual and, past the transient, monotone
        tail = sups[len(sups) // 2 :]
        assert all(b < a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert sups[-1] < 0.25 * sups[0]


class TestRenormalize:
    def test_noop_when_normalized(self):
        grid = geo.build_grid(32, 64)
        st = geo.make_state(geo.background_metric(grid, grid.divisor, 0.1))
        _, c = fl.renormalize(st)
        assert abs(c) < 1e-12

    def test_log_two_shift(self):
        grid = geo.build_grid(32, 64)
        st = geo.make_state(geo.background_metric(grid, grid.divisor, 0.1), np.full(grid.n, math.log(2.0)))
        st2, c = fl.renormalize(st)
        assert c == pytest.approx(-math.log(2.0), abs=1e-12)
        assert st2.area() == pytest.approx(2.0, abs=1e-12)

    def test_drift_matches_continuum_identity(self):
        # d(area)/dt = chi - integral R_cone dg; the bump model makes the
        # right side vanish identically, so the reported per-step drift is
        # pure time-discretization, O(dt^2)
        d = shipped_divisor("unstable")
        grid = geo.build_grid(32, 64, d)
        bg = geo.background_metric(grid, d, 0.1)
        state = geo.make_state(bg)
        for dt in (0.02, 0.01):
            st = one_step(state, dt)
            _, c = fl.renormalize(st)
            imbalance = bg.chi() - geo.integrate(state.conical_curvature, state)
            assert abs(imbalance) < 1e-12
            assert abs(c) < 50.0 * dt * dt


class TestRun:
    def test_trace_complete_and_increasing(self):
        tr = fl.run(small_config())
        assert tr.status == "completed"
        assert np.all(np.diff(tr.times) > 0)
        for name, col in tr.columns.items():
            assert len(col) == len(tr.times), name
            assert np.all(np.isfinite(col)), name

    def test_area_exact_every_sample(self):
        tr = fl.run(small_config())
        assert np.abs(tr["area"] - 2.0).max() < 1e-12

    def test_f_beta_monotone_short_run(self):
        tr = fl.run(small_config(initial="bump", seed=2))
        assert np.max(np.diff(tr["f_beta"])) < 1e-8

    def test_f_beta_rate_matches_oracle(self):
        cfg = small_config(initial="bump", seed=2, sample_every=0.04)
        tr = fl.run(cfg)
        fb = tr["f_beta"]
        times = tr.times
        state_rate = []
        # centered finite differences of the sampled F against the
        # closed-form dissipation rate of the recovered potential flow
        bg = geo.background_metric(geo.build_grid(cfg.n_lat, cfg.n_lon, cfg.divisor), cfg.divisor, cfg.eps)
        # recompute the states at sample times by re-running (deterministic)
        tr2 = fl.run(cfg)
        assert np.array_equal(tr2["f_beta"], fb)
        mid = len(times) // 2
        fd = (fb[mid + 1] - fb[mid - 1]) / (times[mid + 1] - times[mid - 1])
        # oracle needs the state at the midpoint: integrate up to it
        n_steps = round(times[mid] / cfg.dt)
        state = geo.make_state(bg, fl._initial_field(cfg, bg))
        state, _ = fl.renormalize(state)
        stepper = fl._ImplicitStepper(bg)
        for _ in range(n_steps):
            state = fl._semi_implicit_step(state, cfg.dt, stepper)
            state, _ = fl.renormalize(state)
        oracle = f_beta_rate_oracle(state)
        assert fd == pytest.approx(oracle, rel=0.05, abs=1e-6)

    def test_determinism_bit_identical(self, tmp_path):
        cfg = small_config(initial="bump", seed=11, t_max=0.6)
        t1, t2 = fl.run(cfg), fl.run(cfg)
        for name in t1.columns:
            assert np.array_equal(t1[name], t2[name])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.to_csv(str(p1))
        t2.to_csv(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_bump_run(self):
        a = fl.run(small_config(initial="bump", seed=1, t_max=0.4))
        b = fl.run(small_config(initial="bump", seed=2, t_max=0.4))
        assert not np.array_equal(a["f_beta"], b["f_beta"])

    def test_fixed_step_is_first_order_in_dt(self):
        # each halving of dt halves the error of the final u against a
        # dt = 0.00125 run (measured 7.40e-3, 3.70e-3 and 1.75e-3)
        def final_u(dt):
            cfg = shipped_config("stable", n_lat=32, n_lon=64, eps=0.1, initial="bump", seed=1,
                                 dt=dt, t_max=0.2, sample_every=0.2, auto_stop=False)
            return fl.run(cfg).final_state.u

        ref = final_u(0.00125)
        errors = [float(np.abs(final_u(dt) - ref).max()) for dt in (0.04, 0.02, 0.01)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.8 <= coarse / fine <= 2.3, errors

    def test_failure_returns_partial_trace(self, monkeypatch):
        # a solve gone non-finite must abort, flag the trace, and still
        # return the samples collected so far
        real = fl._ImplicitStepper.solve
        calls = []

        def solve(self, d, rhs):
            calls.append(1)
            x = real(self, d, rhs)
            return np.full_like(x, np.nan) if len(calls) == 3 else x

        monkeypatch.setattr(fl._ImplicitStepper, "solve", solve)
        cfg = small_config(sample_every=0.02, t_max=1.0)
        tr = fl.run(cfg)
        assert tr.status == "failed: non-finite conformal factor after implicit step"
        assert len(calls) == 3
        assert len(tr.times) == 3  # t = 0 and the samples after steps 1 and 2
        assert np.allclose(tr.times, [0.0, cfg.dt, 2 * cfg.dt])
        assert all(np.all(np.isfinite(c)) for c in tr.columns.values())

    def test_trace_csv_round_trip(self, tmp_path):
        tr = fl.run(small_config(t_max=0.4))
        path = tmp_path / "trace.csv"
        tr.to_csv(str(path))
        cols = read_trace(str(path))
        assert np.array_equal(cols.pop("time"), tr.times)
        assert list(cols) == list(tr.columns)
        for name in tr.columns:
            assert np.array_equal(cols[name], tr[name])

    def test_monitors_count_samples_and_distance_rows(self, monkeypatch):
        states, real = [], fl._sample_record

        def sample_record(state, *args):
            states.append(state)
            return real(state, *args)

        monkeypatch.setattr(fl, "_sample_record", sample_record)
        trace = fl.run(small_config(initial="bump", seed=4, t_max=0.4))
        assert len(states) == len(trace.times) == 3
        rows = sum(len(st.distance_rows) for st in states)
        assert trace.monitors == {"samples": 3, "distance_rows": rows}
        assert 3 * len(states[0].grid.marked_nodes) <= rows < 3 * len(states[0].grid.diameter_nodes)

    def test_snapshots_recorded(self):
        tr = fl.run(small_config(snapshot_every=0.5, t_max=1.0))
        snaps = tr.snapshots
        assert len(snaps) == 2
        assert snaps[0][0] == pytest.approx(0.5)


#: worst relative gap of a 2-D stepper solve to the oracle's: the stepper's
#: pre-permuted factor in natural order is not bit for bit the oracle's
#: per-factor minimum-degree factor.  Measured 1.2e-15 over the 10 steps of
#: ``bump_32x64`` (1.9e-15 over 40 steps at seeds 0-3).
ORACLE_GAP_2D = 5e-15


def _reference_solve(ref, d, rhs):
    """The stepper's solve without the residual-floor rule, with the matrix
    rebuilt and ordered per factorization at scipy's default panel: the
    oracle the stepper must match, bit for bit on a 1-D grid and within
    ``ORACLE_GAP_2D`` on a 2-D one.  ``ref`` holds the grid's ``L`` and
    ``ordering`` and the cached ``lu``/``d_ref``."""

    def factor():
        ref.lu = spla.splu((sp.diags(d) + ref.L).tocsc(), permc_spec=ref.ordering)
        ref.d_ref = d

    if ref.lu is None or np.max(np.abs(np.log(d / ref.d_ref))) > 0.3:
        factor()
    x = ref.lu.solve(rhs)
    norm = float(np.linalg.norm(rhs)) or 1.0
    for _ in range(12):
        r = rhs - (d * x + ref.L @ x)
        if float(np.linalg.norm(r)) <= 1e-12 * norm:
            return x
        x = x + ref.lu.solve(r)
    factor()
    x = ref.lu.solve(rhs)
    r = rhs - (d * x + ref.L @ x)
    x = x + ref.lu.solve(r)
    rel = float(np.linalg.norm(rhs - (d * x + ref.L @ x))) / norm
    if rel > 1e-9:
        raise fl.FlowError(f"implicit solve stalled at relative residual {rel:.2e}")
    return x


def axis_config(n_lat, eps):
    return shipped_config("soliton_axis", n_lat=n_lat, eps=eps)


class TestImplicitStepper:
    @staticmethod
    def solve_against_oracle(cfg, n_steps):
        """Step cfg's flow n_steps times, checking every solve against the
        oracle (bit for bit on a 1-D grid); returns (factorizations,
        back-solves, floor rule fired) per solve."""
        bg = fl.run_background(cfg)
        grid = bg.grid
        state, _ = fl.renormalize(geo.make_state(bg, fl._initial_field(cfg, bg)))
        stepper = fl._ImplicitStepper(bg)
        ref = types.SimpleNamespace(L=grid.L, ordering=grid.ordering, lu=None, d_ref=None)
        real_solve = stepper.solve
        solves = []

        def solve(d, rhs):
            f0, b0 = stepper.factorizations, stepper.backsolves
            x = real_solve(d, rhs)
            xr = _reference_solve(ref, d, rhs)
            if grid.n_lon == 1:
                assert np.array_equal(x, xr)
            else:
                assert np.linalg.norm(x - xr) <= ORACLE_GAP_2D * np.linalg.norm(xr)
            solves.append((stepper.factorizations - f0, stepper.backsolves - b0,
                           stepper.floor_above_target))
            return x

        stepper.solve = solve
        for _ in range(n_steps):
            state, _ = fl.renormalize(fl._semi_implicit_step(state, cfg.dt, stepper))
        assert len(solves) == n_steps
        assert stepper.factorizations == sum(s[0] for s in solves)
        assert stepper.backsolves == sum(s[1] for s in solves)
        return solves

    def test_floor_rule_fires_on_first_stall(self):
        # refinement stalls against the fresh factor of step 1: 12 checked
        # back-solves, then the fallback's refactorization and 2 more
        solves = self.solve_against_oracle(axis_config(8192, 3e-4), 10)
        assert solves[0] == (2, 14, True)
        assert solves[1:] == [(1, 2, True)] * 9

    def test_cached_order_matches_the_oracle_over_a_long_run(self):
        # every solve on the pre-permuted, naturally ordered 1-D factor is
        # bit for bit the oracle's, which reruns COLAMD at each factorization;
        # a factor built with other SuperLU settings drifts within these steps
        solves = self.solve_against_oracle(axis_config(8192, 3e-4), 48)
        assert solves[1:] == [(1, 2, True)] * 47

    @pytest.mark.parametrize("cfg", [
        axis_config(4096, 6e-4),
        small_config(initial="bump", seed=2),
    ], ids=["axis_4096", "bump_32x64"])
    def test_floor_rule_idle_while_refinement_converges(self, cfg):
        solves = self.solve_against_oracle(cfg, 10)
        assert not any(fired for _, _, fired in solves)

    def test_cached_order_is_inverted_on_a_scrambled_stencil(self):
        # on the axis grid COLAMD's order is its own inverse (one swap of
        # adjacent columns), so no run can tell perm_c from its inverse; a
        # randomly relabelled stencil gets an order that is not, and the
        # stepper must still reproduce a per-factor COLAMD solve bit for bit
        rng = np.random.default_rng(512)
        grid = geo.build_axis_grid(512)
        q = rng.permutation(grid.n)
        grid = replace(grid, L=grid.L[q][:, q].tocsr())
        stepper = fl._ImplicitStepper(types.SimpleNamespace(grid=grid))
        assert not np.array_equal(stepper.perm, np.argsort(stepper.perm))
        for _ in range(3):
            d = grid.w * rng.uniform(50.0, 150.0, grid.n)
            b = rng.standard_normal(grid.n)
            stepper._factor(d)
            lu = spla.splu((sp.diags(d) + grid.L).tocsc(), permc_spec="COLAMD")
            assert np.array_equal(stepper._backsolve(b), lu.solve(b))

    def test_old_factor_released_and_heap_trimmed_before_refactoring(self, monkeypatch):
        # before the floor rule fires, each factorization first drops the old
        # factor and then trims the heap, so two factors never coexist
        cfg = axis_config(4096, 6e-4)
        grid = geo.build_axis_grid(cfg.n_lat, cfg.divisor)
        stepper = fl._ImplicitStepper(geo.background_metric(grid, cfg.divisor, cfg.eps))
        events = []

        def splu(A, **kw):
            events.append(("splu", stepper.lu))
            return spla.splu(A, **kw)

        monkeypatch.setattr(fl, "spla", types.SimpleNamespace(splu=splu))
        monkeypatch.setattr(fl, "_malloc_trim", lambda pad: events.append(("trim", stepper.lu)))
        d = np.ones(grid.L.shape[0])
        stepper._factor(d)
        stepper._factor(2 * d)
        assert events == [("trim", None), ("splu", None)] * 2
        assert stepper.lu is not None

    @pytest.mark.parametrize("n_lat, n_lon, ordering", [
        (4096, 1, "COLAMD"),
        (64, 128, "MMD_AT_PLUS_A"),
    ], ids=["axis_4096", "grid_64x128"])
    def test_heap_trimmed_after_the_order_probe(self, monkeypatch, n_lat, n_lon, ordering):
        # the probe factor that gives the stepper its order is dropped and
        # the heap trimmed at once; left untrimmed, it raised the peak RSS of
        # the 32768-row axis run by ~6 MB
        events = []

        def splu(A, **kw):
            events.append(kw["permc_spec"])
            return spla.splu(A, **kw)

        monkeypatch.setattr(fl, "spla", types.SimpleNamespace(splu=splu))
        monkeypatch.setattr(fl, "_malloc_trim", lambda pad: events.append("trim"))
        grid = geo.build_axis_grid(n_lat) if n_lon == 1 else geo.build_grid(n_lat, n_lon)
        fl._ImplicitStepper(geo.background_metric(grid, grid.divisor, 0.01))
        assert events == [ordering, "trim"]

    @pytest.mark.parametrize("n_lat, n_lon", [(32, 64), (64, 128)])
    def test_pre_permuted_factors_keep_the_minimum_degree_fill(self, n_lat, n_lon):
        # the back-solve cost that makes minimum degree pay on 2-D grids is
        # nnz(L) + nnz(U): the stepper's pre-permuted factor at the 5-column
        # panel keeps the fill of a per-factor minimum-degree factor at
        # scipy's default panel (388,454 at 64x128).  A 2-D order is not its
        # own inverse, so the fill also tests perm = argsort(perm_c): perm_c
        # itself gives more fill
        grid = geo.build_grid(n_lat, n_lon)
        stepper = fl._ImplicitStepper(types.SimpleNamespace(grid=grid))
        assert not np.array_equal(stepper.perm, np.argsort(stepper.perm))
        d = grid.w * 100.0
        stepper._factor(d)
        lu = stepper.lu
        default = spla.splu((sp.diags(d) + grid.L).tocsc(), permc_spec="MMD_AT_PLUS_A")
        assert lu.L.nnz + lu.U.nnz == default.L.nnz + default.U.nnz

    @pytest.mark.parametrize("cfg, n_steps, expected", [
        (axis_config(8192, 3e-4), 10, ["splu", "trim"] + ["trim", "splu"] + ["splu"] * 10),
        (small_config(initial="bump", seed=2), 20, ["splu", "trim"] + ["trim", "splu"] * 2),
    ], ids=["axis_8192", "bump_32x64"])
    def test_heap_left_untrimmed_once_every_step_refactors(self, monkeypatch, cfg, n_steps,
                                                            expected):
        # once the floor rule fires, every step refactors, and a trim would
        # only hand back the dropped factor's pages for the next one to fault
        # in again: both runs trim after their order probe; the 1-D run trims
        # before its fresh factor, and never after; a 2-D run, whose floor
        # stays below the target, trims before each of its factorizations,
        # its stall refactorization included
        events = []
        stepper = None  # the order probe factors before the stepper exists

        def splu(A, **kw):
            assert getattr(stepper, "lu", None) is None
            events.append("splu")
            return spla.splu(A, **kw)

        monkeypatch.setattr(fl, "spla", types.SimpleNamespace(splu=splu))
        monkeypatch.setattr(fl, "_malloc_trim", lambda pad: events.append("trim"))
        bg = fl.run_background(cfg)
        grid = bg.grid
        state, _ = fl.renormalize(geo.make_state(bg, fl._initial_field(cfg, bg)))
        stepper = fl._ImplicitStepper(bg)
        for _ in range(n_steps):
            state, _ = fl.renormalize(fl._semi_implicit_step(state, cfg.dt, stepper))
        assert stepper.floor_above_target is (grid.n_lon == 1)
        assert events == expected

    def test_skewed_factor_fails_after_rule_fired(self, capsys, tmp_path, monkeypatch):
        # the rule fired on the first solve, so the third, the first with a
        # skewed factor, goes straight to the refactorized solve, which must
        # still fail the run on its residual
        solves = skew_factors_from_third_solve(monkeypatch)
        out_dir = tmp_path / "out"
        code = cli.main(["run", "--config", shipped_config_path("soliton_axis"),
                         "--out", str(out_dir), "--resolution", "8192x1",
                         "--epsilon", "3e-4", "--tmax", "0.05"])
        assert code == 2
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["status"].startswith("failed: implicit solve stalled at relative residual")
        assert manifest["status"] in capsys.readouterr().out
        assert manifest["solver"]["floor_above_target"] is True
        # solves 1 and 2 as in test_floor_rule_fires_on_first_stall, then
        # one factorization and two back-solves before the check fails
        assert len(solves) == 3
        assert manifest["solver"]["factorizations"] == 4
        assert manifest["solver"]["backsolves"] == 18
        assert manifest["solver"]["worst_residual"] > 1e-9

    def test_counters_reach_the_trace(self):
        solver = fl.run(small_config(t_max=0.2)).solver
        assert 0 < solver["factorizations"] <= solver["backsolves"]
        assert solver["floor_above_target"] is False
        assert 0.0 < solver["worst_residual"] <= 1e-12
        assert solver["panel_size"] == 5


class TestOrdering:
    @pytest.mark.parametrize("cfg, ordering", [
        # 20 steps: the 2-D run's second factorization follows a stall
        (small_config(initial="bump", seed=2, t_max=0.4), "MMD_AT_PLUS_A"),
        (replace(axis_config(4096, 6e-4), t_max=0.1), "COLAMD"),
    ], ids=["grid_32x64", "axis_4096"])
    def test_every_factor_takes_the_grid_ordering(self, monkeypatch, cfg, ordering):
        calls = []

        def splu(A, **kw):
            calls.append((A.shape[0], kw))
            return spla.splu(A, **kw)

        recording = types.SimpleNamespace(splu=splu)
        monkeypatch.setattr(fl, "spla", recording)
        monkeypatch.setattr(geo, "spla", recording)
        tr = fl.run(cfg)
        n = cfg.n_lat * cfg.n_lon
        stepper = [kw["permc_spec"] for rows, kw in calls if rows == n]
        grounded = [kw["permc_spec"] for rows, kw in calls if rows == n - 1]
        # the stepper takes the grid's ordering once per run, for its
        # pattern, and factors the pre-permuted matrix in natural order
        factorizations = tr.solver["factorizations"]
        assert factorizations >= 2
        assert stepper == [ordering] + ["NATURAL"] * factorizations
        # the grounded L[1:, 1:] is factored, in the grid's ordering, only
        # on the 1-D grid; a 2-D grid solves it by longitude modes
        assert set(grounded) == ({ordering} if cfg.n_lon == 1 else set())
        assert len(stepper) + len(grounded) == len(calls)
        assert tr.solver["ordering"] == ordering
        # and every factor takes the 5-column panel
        assert [kw["panel_size"] for _, kw in calls] == [geo.PANEL_SIZE] * len(calls)
        assert tr.solver["panel_size"] == geo.PANEL_SIZE == 5

    def test_panel_of_5_gives_the_default_factors_on_the_shipped_axis_grid(self):
        # the panel only saves work: on the shipped 32768-row grid the
        # stepper's factor and the grounded factor are bit for bit those of
        # scipy's default panel, so no trace of the axis run moves
        cfg = shipped_config("soliton_axis")
        bg = fl.run_background(cfg)
        grid = bg.grid
        assert (grid.n, geo.PANEL_SIZE) == (32768, 5)
        state, _ = fl.renormalize(geo.make_state(bg, fl._initial_field(cfg, bg)))
        stepper = fl._ImplicitStepper(bg)
        fl._semi_implicit_step(state, cfg.dt, stepper)
        assert stepper.factorizations >= 1
        pairs = [
            (stepper.lu, spla.splu(stepper.A, permc_spec="NATURAL")),
            (grid._ground_lu, spla.splu(grid.L[1:, 1:].tocsc(), permc_spec=grid.ordering)),
        ]
        for lu, default in pairs:
            for name in ("perm_r", "perm_c"):
                assert np.array_equal(getattr(lu, name), getattr(default, name))
            for name in ("L", "U"):
                m, ref = getattr(lu, name), getattr(default, name)
                assert np.array_equal(m.indptr, ref.indptr)
                assert np.array_equal(m.indices, ref.indices)
                assert np.array_equal(m.data, ref.data)

    def test_minimum_degree_solves_agree_with_colamd(self, monkeypatch):
        # measured on this run: stepper solves within 9.8e-13 of a fresh
        # COLAMD solve (residuals up to 9.8e-13), grounded solves (by
        # longitude modes) within 3.0e-13
        gaps = {"stepper": [], "grounded": []}
        real_solve, real_ground = fl._ImplicitStepper.solve, geo.SphereGrid.ground_solve

        def solve(self, d, rhs):
            x = real_solve(self, d, rhs)
            A = (sp.diags(d) + self.bg.grid.L).tocsc()
            assert np.linalg.norm(rhs - A @ x) <= 1e-12 * np.linalg.norm(rhs)
            xc = spla.splu(A, permc_spec="COLAMD").solve(rhs)
            gaps["stepper"].append(np.linalg.norm(x - xc) / np.linalg.norm(xc))
            return x

        def ground_solve(self, b):
            x = real_ground(self, b)
            xc = spla.splu(self.L[1:, 1:].tocsc(), permc_spec="COLAMD").solve(b[1:])
            gaps["grounded"].append(np.linalg.norm(x[1:] - xc) / np.linalg.norm(xc))
            return x

        monkeypatch.setattr(fl._ImplicitStepper, "solve", solve)
        monkeypatch.setattr(geo.SphereGrid, "ground_solve", ground_solve)
        tr = fl.run(small_config(initial="bump", seed=2))
        assert tr.solver["ordering"] == "MMD_AT_PLUS_A"
        assert len(gaps["stepper"]) == 100 and gaps["grounded"]
        assert max(gaps["stepper"]) <= 2e-12
        assert max(gaps["grounded"]) <= 5e-13


class TestSharedGeodesicPass:
    """A state makes one distance pass, however many monitors, verdicts and
    reports read it: one edge graph, one Dijkstra call for the marked rows
    and one for each axis row the bound keeps.  The monitors read the
    grid's nodes as it found them at build time: no point-to-node lookup."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"edge_graph": 0, "dijkstra": 0, "nearest_node": 0}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(geo, "_edge_graph", counting("edge_graph", geo._edge_graph))
        monkeypatch.setattr(
            geo, "_csgraph_dijkstra", counting("dijkstra", geo._csgraph_dijkstra)
        )
        monkeypatch.setattr(geo, "_nearest_node", counting("nearest_node", geo._nearest_node))
        return counts

    @staticmethod
    def bumped_state(cfg):
        grid = geo.build_grid(cfg.n_lat, cfg.n_lon, cfg.divisor)
        bg = geo.background_metric(grid, cfg.divisor, cfg.eps)
        return geo.make_state(bg, fl._initial_field(cfg, bg))

    @staticmethod
    def one_pass(state):
        """The counts of one distance pass on ``state``: its edge graphs
        and Dijkstra calls, and no point-to-node lookup."""
        rows = len(state.distance_rows) - len(state.grid.marked_nodes)
        return {"edge_graph": 1, "dijkstra": 1 + rows, "nearest_node": 0}

    def test_one_pass_per_sample_record(self, counts):
        cfg = small_config(initial="bump", seed=4)
        state = self.bumped_state(cfg)
        chow_s = min(0.0, float(state.conical_curvature.min())) - 0.05
        counts["nearest_node"] = 0  # the grid's own lookups at build time
        rec = fl._sample_record(state, chow_s, 0.0)
        assert counts == self.one_pass(state)
        assert {"d_p1_p2", "ball_ratio_p3", "diameter", "soliton_residual"} <= set(rec)

    def test_one_pass_per_detect_convergence(self, counts):
        from conicflow import diagnostics as diag

        cfg = small_config(initial="bump", seed=4)
        state = self.bumped_state(cfg)
        counts["nearest_node"] = 0  # the grid's own lookups at build time
        diag.detect_convergence(state)
        assert counts == self.one_pass(state)

    def test_verdict_reuses_the_sample_pass(self, counts):
        from conicflow import diagnostics as diag

        cfg = small_config(initial="bump", seed=4)
        state = self.bumped_state(cfg)
        chow_s = min(0.0, float(state.conical_curvature.min())) - 0.05
        fl._sample_record(state, chow_s, 0.0)
        diag.detect_convergence(state)
        want = self.one_pass(state)
        assert (counts["edge_graph"], counts["dijkstra"]) == (want["edge_graph"], want["dijkstra"])

    def test_one_pass_per_report(self, counts, tmp_path):
        cli.execute_run(small_config(initial="bump", seed=4, t_max=0.2), str(tmp_path))
        counts.update(edge_graph=0, dijkstra=0)
        assert cli.main(["report", str(tmp_path)]) in (cli.EXIT_OK, cli.EXIT_UNDECIDED)
        made = (counts["edge_graph"], counts["dijkstra"])
        want = self.one_pass(cli._read_run(str(tmp_path))[0])
        assert made == (want["edge_graph"], want["dijkstra"])


class TestAxisymmetric:
    def test_rejects_offaxis_divisor(self):
        cfg = small_config(divisor=shipped_divisor("stable"), n_lon=1)
        with pytest.raises(ValueError, match="axisymmetric"):
            fl.run(cfg)

    def test_round_matches_2d_monitors(self):
        empty = Divisor([])
        cfg1 = fl.FlowConfig(divisor=empty, n_lat=32, n_lon=64, eps=0.1, dt=0.02,
                             t_max=0.5, sample_every=0.1, auto_stop=False)
        tr2d = fl.run(cfg1)
        tr1d = fl.run(replace(cfg1, n_lon=1))
        assert tr1d.final_state.grid.n == 32
        for name in ("area", "f_beta", "w_normalized", "r_min", "r_max"):
            assert np.allclose(tr1d[name], tr2d[name], atol=1e-8), name

    def test_axisymmetric_data_evolves_identically(self):
        # the 1-D stencil is the exact zonal aggregate of the 2-D one
        n_lat = 32
        grid2 = geo.build_grid(n_lat, 64)
        grid1 = geo.build_axis_grid(n_lat)
        bg2 = geo.background_metric(grid2, grid2.divisor, 0.1)
        bg1 = geo.background_metric(grid1, grid1.divisor, 0.1)
        u0 = 0.3 * np.cos(2 * grid1.theta)
        s1 = geo.make_state(bg1, u0.copy())
        s2 = geo.make_state(bg2, np.repeat(u0, 64))
        for _ in range(10):
            s1 = one_step(s1, 0.02)
            s2 = one_step(s2, 0.02)
        assert np.abs(np.repeat(s1.u, 64) - s2.u).max() < 1e-8
        # and so do the verdict's statistics, which drop the pole rows on both
        stats1, stats2 = diag.curvature_stats(s1, 0.25), diag.curvature_stats(s2, 0.25)
        for key in ("r_min", "r_max", "sup_dev_half_chi"):
            assert abs(stats1[key] - stats2[key]) < 1e-8, key

    def test_football_terminal_constant_curvature(self):
        d = Divisor([0.3, 0.3], [[0, 0, 1.0], [0, 0, -1.0]])
        cfg = fl.FlowConfig(divisor=d, n_lat=128, n_lon=1, eps=0.05, dt=0.01,
                            t_max=40.0, sample_every=0.5, auto_stop=True)
        tr = fl.run(cfg)
        st = tr.final_state
        rc = st.conical_curvature
        far = np.ones(st.grid.n, bool)
        for p in st.grid.marked_points:
            far &= distances_from(st, p) > 0.25
        assert np.abs(rc[far] - 0.7).max() < 5e-3

    def test_soliton_orbit_entropy_near_closed_form(self, soliton_axis_result):
        # the terminal normalized entropy matches the closed form up to the
        # eps-limited core truncation (measured ~0.15 at eps = 2e-4 for the
        # (0.8, 0.3) weights; shrinks with eps)
        from conicflow import soliton as sol

        tr = soliton_axis_result["trace"]
        assert abs(tr["w_normalized"][-1] - sol.soliton_profile(0.8, 0.3).w) < 0.2

    def test_soliton_initialization_runs(self):
        d = Divisor([0.3, 0.8], [[0, 0, -1.0], [0, 0, 1.0]])
        cfg = fl.FlowConfig(divisor=d, n_lat=1024, n_lon=1, eps=0.005, dt=0.01,
                            t_max=0.1, sample_every=0.05, auto_stop=False,
                            initial="soliton")
        tr = fl.run(cfg)
        assert tr.status == "completed"


class TestShippedRuns:
    """Properties of the production runs (shared session fixture)."""

    def test_all_complete(self, shipped_runs):
        for name, tr in shipped_runs.items():
            assert tr.status in ("completed", "auto_stopped"), name

    def test_conservation(self, shipped_runs):
        for tr in shipped_runs.values():
            assert np.abs(tr["area"] - 2.0).max() < 1e-12
            assert np.abs(tr["total_curvature"] - 2.0).max() < 0.02

    def test_monotone_functionals(self, shipped_runs):
        for name, tr in shipped_runs.items():
            steps = max(1, round(0.5 / 0.01))
            assert np.max(np.diff(tr["f_beta"])) <= 1e-6 * steps, name
            assert np.max(np.diff(tr["hamilton_entropy"])) <= 1e-6 * steps, name

    def test_curvature_bounded(self, shipped_runs):
        for tr in shipped_runs.values():
            assert np.isfinite(tr["r_max"]).all()
            assert tr["r_max"].max() < 1e4
            tail = tr["r_max"][-5:]
            assert tail.max() - tail.min() <= 0.01 * abs(tail.max())

    def test_f_beta_bounded_below(self, shipped_runs):
        # the semi-stable lower-bound mechanism: F never runs away
        for tr in shipped_runs.values():
            assert tr["f_beta"].min() > -5.0

    def test_unstable_merging_strongest(self, shipped_runs):
        ratios = {
            name: tr["d_p1_p2"][-1] / tr["d_p1_p2"][0] for name, tr in shipped_runs.items()
        }
        assert ratios["unstable"] < ratios["semistable"] < ratios["stable"]
        assert ratios["stable"] > 0.5
