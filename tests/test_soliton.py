import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicflow import soliton as sol
from conicflow.marked_sphere import (
    Divisor,
    classify_stability,
    enumerate_partitions,
    predict_limit_divisor,
)
from conftest import CONFIG_DIR
from oracles import endpoint_weights, profile_normalized_w, profile_quadrature_f


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

    def test_soliton_run_never_loads_scipy_optimize(self, tmp_path):
        # a fresh interpreter, so that no other test's imports mask an
        # import of scipy.optimize on the soliton start or the verdict
        script = textwrap.dedent(
            f"""
            import json, sys
            from dataclasses import replace
            from conicflow import cli, flow as fl, soliton as sol
            cfg = fl.parse_config_file({os.path.join(CONFIG_DIR, "soliton_axis.cfg")!r})
            cfg = replace(cfg, n_lat=256, eps=0.01, t_max=0.05, sample_every=0.01)
            result = cli.execute_run(cfg, {str(tmp_path / "run")!r})
            c = sol.solve_c(5 / 9)
            floor = result["report"].residuals["soliton_residual_floor"]
            print(json.dumps([floor, c, "scipy.optimize" in sys.modules]))
            """
        )
        src = os.path.dirname(os.path.dirname(sol.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        floor, c, loaded = json.loads(out.stdout.splitlines()[-1])
        assert floor > 0.0  # the verdict sampled the closed-form profile
        assert c == 2.1078882584359344
        assert not loaded, "a soliton run loaded scipy.optimize"


class TestSolveCBisection:
    """``solve_c`` bisects to adjacent floats and returns the nearer end."""

    TAUS = np.concatenate(
        [
            np.linspace(0.0, 1.0, 2001)[1:-1],
            np.geomspace(1e-14, 1e-3, 200),  # tau -> 0
            1.0 - np.geomspace(1e-14, 1e-3, 200),  # tau -> 1
            # around the series/closed-form crossover of tau_of_c
            sol.tau_of_c(sol.SERIES_CUTOFF) * np.linspace(0.99, 1.01, 201),
        ]
    )

    def test_odd(self):
        for t in self.TAUS:
            assert sol.solve_c(-t) == -sol.solve_c(t), t

    def ends(self):
        # (t, c, the float next to c on the other side of the root)
        for t in self.TAUS:
            t = float(t)
            c = sol.solve_c(t)
            yield t, c, math.nextafter(c, math.inf if sol.tau_of_c(c) < t else 0.0)

    def test_c_and_its_neighbour_bracket_the_root(self):
        for t, c, other in self.ends():
            lo, hi = sorted((c, other))
            assert sol.tau_of_c(lo) < t <= sol.tau_of_c(hi), t

    def test_c_is_the_nearer_end(self):
        for t, c, other in self.ends():
            near, far = abs(sol.tau_of_c(c) - t), abs(sol.tau_of_c(other) - t)
            assert near < far or (near == far and c > other), t

    def test_round_trip(self):
        worst = max(abs(sol.tau_of_c(sol.solve_c(s)) - s) for t in self.TAUS for s in (float(t), -float(t)))
        assert worst <= 1e-14


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
            assert sol.soliton_profile(b, b).w == 1.0

    def test_teardrop_extends_continuously(self):
        assert sol.soliton_profile(0.4, 0.0).w == pytest.approx(
            sol.soliton_profile(0.4, 1e-12).w, abs=1e-9
        )

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            sol.soliton_profile(0.3, 0.8)
        with pytest.raises(ValueError):
            sol.soliton_profile(1.0, 0.3)

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
        w_less = sol.soliton_profile((s + a1) / 2, (s - a1) / 2).w
        w_more = sol.soliton_profile((s + a2) / 2, (s - a2) / 2).w
        assert w_less > w_more


class TestMuTable:
    def test_example_table(self):
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

    @pytest.mark.parametrize("weights", [[0.3, 0.8], [0.4, 0.4], [0.3, 0.3, 0.6]],
                             ids=["k2_unstable", "k2_semistable", "k3_semistable"])
    def test_divisor_layers_raise_no_warnings(self, weights):
        # soliton-table prints the k < 3 and not-unstable caveats itself
        d = Divisor(weights)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            classify_stability(d)
            predict_limit_divisor(d)
            sol.mu_table(d)

    def test_raises_when_no_valid_partition(self):
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
                assert table.entries[0].w > table.threshold


def _shipped_partition_weights():
    """A (beta_p, beta_q) case for every valid partition of the shipped divisors."""
    cases = []
    div_dir = os.path.join(CONFIG_DIR, "divisors")
    for name in sorted(os.listdir(div_dir)):
        with open(os.path.join(div_dir, name)) as fh:
            d = Divisor.from_json(fh.read())
        for ld in enumerate_partitions(d):
            if ld.valid:
                cases.append(pytest.param(ld.beta_p, ld.beta_q,
                                          id=name[:-5] + "-" + "+".join(map(str, sorted(ld.partition)))))
    return cases


class TestProfiles:
    def test_football_round_sphere(self):
        p = sol.soliton_profile(0.0, 0.0)
        x = np.linspace(-1.0, 1.0, 256)
        assert np.allclose(p.curvature_of(x), 1.0)
        assert np.allclose(p.phi_of(x), 0.5 * 2.0 * (1 - x**2))

    def test_football_constant_curvature(self):
        p = sol.soliton_profile(0.6, 0.6)
        assert np.allclose(p.curvature_of(np.linspace(-1.0, 1.0, 256)), 0.4)
        bp, bq = endpoint_weights(p)
        assert bp == pytest.approx(0.6, abs=1e-6)
        assert bq == pytest.approx(0.6, abs=1e-6)

    def test_football_gauss_bonnet(self):
        p = sol.soliton_profile(0.6, 0.6)
        x, w = np.polynomial.legendre.leggauss(64)
        assert np.sum(w * p.curvature_of(x)) == pytest.approx(2 - 1.2, abs=1e-10)

    def test_soliton_profile_degenerates_to_football(self):
        # the c = 0 member is the explicit football:
        # phi = (1 - beta)(1 - x^2), R = 1 - beta, theta = 0
        x = np.linspace(-1.0, 1.0, 256)
        for beta in (0.0, 0.3, 0.6, 0.9):
            p = sol.soliton_profile(beta, beta)
            assert p.c == 0.0
            assert np.max(np.abs(p.phi_of(x) - (1 - beta) * (1 - x**2))) < 1e-15
            assert np.max(np.abs(p.curvature_of(x) - (1 - beta))) < 1e-15
            assert not np.any(p.theta_of(x))

    @pytest.mark.parametrize(
        "beta_p, beta_q",
        [
            pytest.param(0.5, 0.5, id="football"),
            pytest.param(0.0, 0.0, id="round"),
            pytest.param(0.5, 0.4999, id="below-profile-cutoff"),
            pytest.param(0.5, 0.499, id="between-cutoffs"),
            pytest.param(0.5, 0.49, id="above-series-cutoff"),
            pytest.param(0.8, 0.3, id="0.8-0.3"),
            pytest.param(0.99, 0.98, id="0.99-0.98"),
            pytest.param(0.35, 0.0, id="teardrop-0.35"),
            pytest.param(0.99, 0.0, id="teardrop-0.99"),
            *_shipped_partition_weights(),
        ],
    )
    def test_closed_forms_reproduce_weights_and_f(self, beta_p, beta_q):
        # every branch of the profile closed forms: the boundary slopes give
        # back the cone weights, and quadrature of theta e^theta gives F(c)
        p = sol.soliton_profile(beta_p, beta_q)
        bp, bq = endpoint_weights(p)
        assert bp == pytest.approx(beta_p, abs=1e-6)
        assert bq == pytest.approx(beta_q, abs=1e-6)
        assert abs(profile_quadrature_f(p) - sol.f_of_c(p.c)) < 1e-8

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
            assert abs(w_quad - sol.soliton_profile(bp, bq).w) < 1e-8

    def test_profile_positive_inside(self):
        p = sol.soliton_profile(0.9, 0.1)
        assert np.all(p.phi_of(np.linspace(-1.0, 1.0, 512))[1:-1] > 0)
