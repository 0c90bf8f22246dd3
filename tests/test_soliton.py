import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicflow import soliton as sol
from conicflow.marked_sphere import Divisor
from oracles import profile_normalized_w


def quad_tau(c, n=200001):
    x = np.linspace(-1.0, 1.0, n)
    e = np.exp(c * x)
    from scipy.integrate import simpson

    return simpson(x * e, x=x) / simpson(e, x=x)


def quad_f(c, n=200001):
    x = np.linspace(-1.0, 1.0, n)
    from scipy.integrate import simpson

    a = 0.5 * simpson(np.exp(c * x), x=x)
    return simpson((c * x - math.log(a)) * np.exp(c * x), x=x) / a


class TestTauOfC:
    def test_zero(self):
        assert sol.tau_of_c(0.0) == 0.0

    def test_unit_value_vs_quadrature(self):
        assert sol.tau_of_c(1.0) == pytest.approx(math.cosh(1) / math.sinh(1) - 1.0, abs=1e-14)
        assert sol.tau_of_c(1.0) == pytest.approx(quad_tau(1.0), abs=1e-10)

    def test_asymptotes(self):
        assert 0.99 < sol.tau_of_c(500.0) < 1.0
        assert -1.0 < sol.tau_of_c(-500.0) < -0.99

    def test_odd_and_strictly_increasing(self):
        cs = np.linspace(-8, 8, 3001)
        vals = np.array([sol.tau_of_c(c) for c in cs])
        assert np.allclose(vals, -vals[::-1], atol=1e-15)
        assert np.all(np.diff(vals) > 0)

    def test_series_branch_matches_direct_near_cutoff(self):
        # the direct form is still trustworthy at the cutoff; far below it
        # the direct form cancels catastrophically, which is why the series
        # branch exists at all
        for c in (0.005, 0.019, 0.021):
            direct = 1.0 / math.tanh(c) - 1.0 / c
            assert sol.tau_of_c(c) == pytest.approx(direct, abs=5e-15)
        assert sol.tau_of_c(1e-8) == pytest.approx(1e-8 / 3.0, rel=1e-12)


class TestSolveC:
    def test_zero(self):
        assert sol.solve_c(0.0) == 0.0

    def test_known_pair(self):
        assert sol.solve_c(0.5 / 0.9) == pytest.approx(2.11, abs=0.01)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for tau in rng.uniform(-0.99, 0.99, 300):
            assert abs(sol.tau_of_c(sol.solve_c(tau)) - tau) < 1e-12

    def test_odd(self):
        for tau in (0.1, 0.5, 0.9):
            assert sol.solve_c(-tau) == -sol.solve_c(tau)

    def test_rejects_out_of_range(self):
        for tau in (1.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                sol.solve_c(tau)


class TestFOfC:
    def test_zero(self):
        assert sol.f_of_c(0.0) == 0.0

    def test_unit_value(self):
        # closed form: A = sinh 1, int x e^x = 2/e
        assert sol.f_of_c(1.0) == pytest.approx(quad_f(1.0), abs=1e-10)
        assert sol.f_of_c(1.0) == pytest.approx(0.30319, abs=1e-5)

    def test_even_increasing(self):
        cs = np.linspace(0.0, 10.0, 2001)
        vals = np.array([sol.f_of_c(c) for c in cs])
        assert np.all(np.diff(vals) > 0)
        assert sol.f_of_c(-3.3) == sol.f_of_c(3.3)


class TestSolitonW:
    def test_football_is_exactly_one(self):
        for b in (0.1, 0.37, 0.8):
            assert sol.soliton_w(b, b) == 1.0

    def test_teardrop_extends_continuously(self):
        assert sol.soliton_w(0.4, 0.0) == pytest.approx(
            sol.soliton_w(0.4, 1e-12), abs=1e-9
        )

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            sol.soliton_w(0.3, 0.8)
        with pytest.raises(ValueError):
            sol.soliton_w(1.0, 0.3)

    @given(
        st.floats(0.2, 1.8),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_lemma_72_ordering(self, s, f1, f2):
        # equal sums, strictly larger asymmetry gives strictly smaller W
        d1, d2 = sorted([f1, f2])
        dmax = min(s, 2.0 - s) - 1e-9
        if dmax <= 0:
            return
        a1, a2 = d1 * dmax, d2 * dmax
        if a2 - a1 < 1e-12:
            return
        w_less = sol.soliton_w((s + a1) / 2, (s - a1) / 2)
        w_more = sol.soliton_w((s + a2) / 2, (s - a2) / 2)
        assert w_less > w_more


class TestMuTable:
    def test_example_table(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = sol.mu_table(Divisor([0.1, 0.2, 0.8]))
        assert len(table.entries) == 2
        assert table.entries[0].partition == frozenset({2})
        assert (table.entries[0].beta_p, table.entries[0].beta_q) == pytest.approx((0.8, 0.3))
        assert table.entries[0].w > table.entries[1].w
        assert table.threshold == pytest.approx(table.entries[1].w)

    def test_threshold_undefined_with_single_partition(self):
        table = sol.mu_table(Divisor([0.1, 0.1, 0.9]))
        assert len(table.entries) == 1
        assert table.threshold is None
        assert len(table.excluded) == 3

    def test_warns_when_not_unstable(self):
        with pytest.warns(UserWarning, match="not unstable"):
            sol.mu_table(Divisor([0.4, 0.4, 0.4, 0.4]))

    def test_raises_when_no_valid_partition(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="no valid partitions"):
                sol.mu_table(Divisor([0.5, 0.5, 0.5]))

    def test_argmax_partition_random_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(3, 7))
            bmax = rng.uniform(0.5, 0.95)
            rest = rng.uniform(0.02, 1.0, k - 1)
            rest *= rng.uniform(0.2, 0.95) * bmax / rest.sum()
            if rest.max() >= bmax or rest.min() <= 0.01:
                continue
            d = Divisor(list(rest) + [bmax])
            table = sol.mu_table(d)
            assert table.entries[0].partition == frozenset({d.k - 1})
            if table.threshold is not None:
                assert table.mu1 > table.threshold


class TestProfiles:
    def test_football_round_sphere(self):
        p = sol.football(0.0)
        assert np.allclose(p.R, 1.0)
        assert np.allclose(p.phi, 0.5 * 2.0 * (1 - p.x**2))

    def test_football_constant_curvature(self):
        p = sol.football(0.6)
        assert np.allclose(p.R, 0.4)
        bp, bq = p.endpoint_weights()
        assert bp == pytest.approx(0.6, abs=1e-6)
        assert bq == pytest.approx(0.6, abs=1e-6)

    def test_football_gauss_bonnet(self):
        p = sol.football(0.6)
        x, w = np.polynomial.legendre.leggauss(64)
        assert np.sum(w * p.curvature_of(x)) == pytest.approx(2 - 1.2, abs=1e-10)

    def test_soliton_profile_degenerates_to_football(self):
        p = sol.soliton_profile(0.5, 0.5)
        fb = sol.football(0.5)
        assert np.max(np.abs(p.phi - fb.phi)) < 1e-10
        assert np.max(np.abs(p.R - fb.R)) < 1e-10

    def test_endpoint_weights_from_slopes(self):
        p = sol.soliton_profile(0.8, 0.3)
        bp, bq = p.endpoint_weights()
        assert bp == pytest.approx(0.8, abs=1e-6)
        assert bq == pytest.approx(0.3, abs=1e-6)

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValueError):
            sol.soliton_profile(0.5, 0.2, n=32)

    def test_open_part_total_curvature(self):
        # moment measure is uniform: int R dx = chi of the limit pair
        x, w = np.polynomial.legendre.leggauss(96)
        for bp, bq in [(0.8, 0.3), (0.6, 0.45), (0.35, 0.0)]:
            p = sol.soliton_profile(bp, bq)
            assert np.sum(w * p.curvature_of(x)) == pytest.approx(2 - bp - bq, abs=1e-10)

    def test_quadrature_w_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            bp = rng.uniform(0.05, 0.95)
            bq = rng.uniform(0.0, bp)
            p = sol.soliton_profile(bp, bq)
            w_quad = profile_normalized_w(p)
            assert abs(w_quad - sol.soliton_w(bp, bq)) < 1e-8

    def test_profile_positive_inside(self):
        p = sol.soliton_profile(0.9, 0.1, n=512)
        assert np.all(p.phi[1:-1] > 0)
