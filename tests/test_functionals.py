import math

import numpy as np
import pytest

from conicflow import diagnostics as diag
from conicflow import functionals as fn
from conicflow import geometry as geo
from conicflow import soliton as sol
from conicflow.marked_sphere import Divisor
from oracles import (
    distances_from,
    f_beta_rate_oracle,
    laplacian,
    mu_estimate,
    w_functional,
)


@pytest.fixture(scope="module")
def conic_state():
    d = Divisor([0.3, 0.3, 0.6])
    grid = geo.build_grid(48, 96, d)
    bg = geo.background_metric(grid, d, 0.1)
    return geo.make_state(bg)


def smooth_field(grid, seed=0, amp=0.3):
    th = np.repeat(grid.theta, grid.n_lon)
    et = np.tile(grid.eta, grid.n_lat)
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-1, 1, 3)
    return amp * (a * np.cos(th) + b * np.sin(th) * np.cos(et) + c * np.cos(2 * th))


class TestRicciPotential:
    def test_round_sphere_zero(self, round_state):
        v = fn.ricci_potential(round_state)
        assert np.abs(v).max() < 1e-10
        assert abs(geo.integrate(np.exp(-v), round_state) - 2.0) < 1e-8

    def test_normalization(self, conic_state):
        v = fn.ricci_potential(conic_state)
        assert geo.integrate(np.exp(-v), conic_state) == pytest.approx(2.0, abs=1e-8)

    def test_poisson_identity_away_from_cones(self, conic_state):
        v = fn.ricci_potential(conic_state)
        lhs = laplacian(v, conic_state)
        rhs = conic_state.conical_curvature - 0.5 * conic_state.background.chi()
        # the solvability correction: the metric mean of the rhs (the
        # resolved cone mass), which the solve removes
        mean_correction = geo.integrate(rhs, conic_state) / conic_state.area()
        resid = lhs - (rhs - mean_correction)
        assert np.abs(resid).max() < 1e-8

    def test_constant_curvature_state_small_v(self, football_control_beta06):
        # the discretization's own football: v is constant away from the
        # smoothed cores up to the eps/grid floor
        st = football_control_beta06
        v = fn.ricci_potential(st)
        far = np.ones(st.grid.n, bool)
        for p in st.grid.marked_points:
            far &= distances_from(st, p) > 0.3
        v_far = v[far]
        assert v_far.max() - v_far.min() < 0.02


class TestPotentialRecovery:
    def test_round_trip_density(self, conic_state):
        u = smooth_field(conic_state.grid, seed=3)
        st = geo.make_state(conic_state.background, u)
        st = geo.make_state(st.background, st.u + math.log(2.0 / st.area()))
        phi = fn.recover_potential(st)
        # Lap_bg phi = e^u - 1 on the normalized state
        lap = -(st.grid.L @ phi) / st.background.mass
        assert np.abs(lap - (np.exp(st.u) - 1.0)).max() < 1e-7
        assert abs(float(np.sum(phi * st.background.mass))) < 1e-8


class TestFBeta:
    def test_zero_potential_closed_form(self, conic_state):
        chi = conic_state.background.chi()
        val = fn._f_of_potential(np.zeros(conic_state.grid.n), conic_state.background)
        assert val == pytest.approx(-(2.0 / chi) * math.log(2.0), abs=1e-12)

    def test_translation_invariance(self, conic_state):
        phi = smooth_field(conic_state.grid, seed=4)
        a = fn._f_of_potential(phi, conic_state.background)
        b = fn._f_of_potential(phi + 1.234, conic_state.background)
        assert a == pytest.approx(b, abs=1e-10)

class TestWFunctional:
    def test_requires_positive_tau(self, round_state):
        with pytest.raises(ValueError):
            w_functional(round_state, np.zeros(round_state.grid.n), 0.0)

    def test_round_constant_f_closed_form(self, round_state):
        # f = -log(pi) makes the weight integrate to 1 at tau = 1/2
        f = np.full(round_state.grid.n, -math.log(math.pi))
        val = w_functional(round_state, f, 0.5)
        assert val == pytest.approx(-1.5 - math.log(math.pi), abs=1e-10)

    def test_normalized_round_zero_f(self, round_state):
        assert fn.normalized_w(round_state, np.zeros(round_state.grid.n)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_translation_identity(self, round_state):
        f = smooth_field(round_state.grid, seed=7)
        sb = 0.0
        tau = 1.0 / (2.0 - sb)
        shift = math.log((2.0 - sb) / (2.0 * math.pi))
        f = f + math.log(geo.integrate(np.exp(-f), round_state) / 2.0)
        lhs = fn.normalized_w(round_state, f)
        rhs = 2.0 * w_functional(round_state, f + shift, tau) + 4.0 - 2.0 * shift
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_translation_identity_conical(self, conic_state):
        # same affine conversion with sum(beta) != 0, tau the singular time
        f = smooth_field(conic_state.grid, seed=17)
        f = f + math.log(geo.integrate(np.exp(-f), conic_state) / 2.0)
        sb = 1.2
        tau = 1.0 / (2.0 - sb)
        shift = math.log((2.0 - sb) / (2.0 * math.pi))
        lhs = fn.normalized_w(conic_state, f)
        rhs = 2.0 * w_functional(conic_state, f + shift, tau) + 4.0 - 2.0 * shift
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_auto_shift_idempotent(self, round_state):
        # the enforced constraint int e^-f dg = 2 fixes the additive
        # constant of f, so the value is invariant under f -> f + c
        f = smooth_field(round_state.grid, seed=8) + 3.0
        w = fn.normalized_w(round_state, f)
        for c in (-3.0, 0.37, 5.0):
            assert fn.normalized_w(round_state, f + c) == pytest.approx(w, abs=1e-12)

    def test_affine_rule_under_constant_shift(self, round_state):
        f = smooth_field(round_state.grid, seed=9)
        tau = 0.5
        c = 0.37
        lhs = w_functional(round_state, f + c, tau)
        z = geo.integrate(np.exp(-f), round_state) / (4 * math.pi * tau)
        rhs = math.exp(-c) * w_functional(round_state, f, tau) + c * math.exp(-c) * z
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_football_profile_state_entropy(self, football_control_beta06):
        st = football_control_beta06
        w = fn.normalized_w(st, -fn.ricci_potential(st))
        assert w == pytest.approx(1.0, abs=0.02)


class TestMuEstimate:
    def test_round_sphere_stationary(self, round_state):
        est = mu_estimate(round_state, budget=40)
        assert est.value == pytest.approx(1.0, abs=1e-8)
        assert est.tag == "upper-bound estimate"

    def test_upper_bounds_candidate(self, conic_state):
        cand = fn.normalized_w(conic_state, -fn.ricci_potential(conic_state))
        est = mu_estimate(conic_state, budget=50)
        assert est.value <= cand + 1e-10

    def test_monotone_in_budget(self, conic_state):
        vals = [mu_estimate(conic_state, budget=b).value for b in (1, 5, 25)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_budget_validated(self, round_state):
        with pytest.raises(ValueError):
            mu_estimate(round_state, budget=0)


class TestHamiltonEntropy:
    def test_round_zero(self, round_state):
        assert fn.hamilton_entropy(round_state, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_positivity_enforced(self, round_state):
        with pytest.raises(ValueError, match="not positive"):
            fn.hamilton_entropy(round_state, 1.5)

    def test_chow_shift_initial_value(self):
        assert fn.chow_shift(-0.3, 0.0, 0.5) == -0.3

    def test_chow_shift_relaxes_to_zero(self):
        s = [fn.chow_shift(-0.3, t, 0.5) for t in (0.0, 5.0, 20.0, 80.0)]
        assert all(a < b <= 0 for a, b in zip(s, s[1:]))
        assert abs(s[-1]) < 1e-12

    @pytest.mark.parametrize("r", [0.45, -0.35])
    def test_chow_shift_from_zero_stays_positive_zero(self, r):
        for t in (0.0, 5.0, 80.0):
            s = fn.chow_shift(0.0, t, r)
            assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_chow_shift_solves_ode(self):
        # ds/dt = s(s - r) checked by finite differences
        r, s0, h = 0.45, -1.7, 1e-6
        for t in (0.0, 0.3, 2.0):
            ds = (fn.chow_shift(s0, t + h, r) - fn.chow_shift(s0, t - h, r)) / (2 * h) if t else (
                fn.chow_shift(s0, h, r) - s0
            ) / h
            s = fn.chow_shift(s0, t, r)
            assert ds == pytest.approx(s * (s - r), rel=1e-4)


class TestSolitonResidual:
    def test_constant_v_zero(self, round_state):
        assert fn.soliton_residual(round_state, np.zeros(round_state.grid.n)) == 0.0

    def test_conformal_killing_floor(self, round_state):
        grid = round_state.grid
        th = np.repeat(grid.theta, grid.n_lon)
        et = np.tile(grid.eta, grid.n_lat)
        assert fn.soliton_residual(round_state, np.cos(th)) < 1e-4
        assert fn.soliton_residual(round_state, np.sin(th) * np.cos(et)) < 1e-3

    def test_quadratic_in_amplitude(self, round_state):
        grid = round_state.grid
        th = np.repeat(grid.theta, grid.n_lon)
        bump = 1.5 * np.cos(th) ** 2 - 0.5
        r1 = fn.soliton_residual(round_state, bump)
        r2 = fn.soliton_residual(round_state, 2.0 * bump)
        assert r1 > 1.0
        assert r2 / r1 == pytest.approx(4.0, rel=1e-10)

    def test_zero_iff_constant_curvature(self):
        # soliton-profile state: residual small although v is far from const
        d = Divisor([0.3, 0.8], [[0, 0, -1.0], [0, 0, 1.0]])
        grid = geo.build_axis_grid(1024, d)
        bg = geo.background_metric(grid, d, 0.005)
        st = diag.profile_state(bg, sol.soliton_profile(0.8, 0.3))
        v = fn.ricci_potential(st)
        spread = v.max() - v.min()
        assert spread > 1.0  # genuinely non-constant potential
        r_sol = fn.soliton_residual(st, v)
        # a non-soliton state of comparable potential spread for scale
        st2 = geo.make_state(bg, np.cos(np.repeat(grid.theta, 1)))
        v2 = fn.ricci_potential(st2)
        assert r_sol < 0.05 * fn.soliton_residual(st2, v2)


class TestRateOracle:
    def test_vanishes_at_constant_curvature(self, round_state):
        assert f_beta_rate_oracle(round_state) == pytest.approx(0.0, abs=1e-10)

    def test_nonpositive_generic(self, conic_state):
        rng = np.random.default_rng(12)
        for seed in range(4):
            st = geo.make_state(conic_state.background, smooth_field(conic_state.grid, seed=seed))
            st = geo.make_state(st.background, st.u + math.log(2.0 / st.area()))
            assert f_beta_rate_oracle(st) <= 1e-12
