import math

import numpy as np
import pytest

from conicflow import diagnostics as diag
from conicflow import functionals as fn
from conicflow import geometry as geo
from conicflow import soliton as sol
from conicflow.marked_sphere import Divisor
from oracles import distances_from, marked_point_rows


class TestCurvatureStats:
    def test_round_stationary(self, round_state):
        # no marked points: stats over (almost) the whole sphere
        stats = diag.curvature_stats(round_state, 0.3, marked_point_rows(round_state))
        assert stats["sup_dev_half_chi"] < 1e-10

    def test_exclusion_must_clear_cores(self, round_state):
        with pytest.raises(ValueError, match="2 eps"):
            diag.curvature_stats(round_state, 0.1, marked_point_rows(round_state))

    def test_exclusion_cannot_cover_sphere(self):
        d = Divisor([0.5], [[0.3, 0.4, 0.5]])
        grid = geo.build_grid(64, 128, d)
        st = geo.make_state(geo.background_metric(grid, d, 0.05))
        with pytest.raises(ValueError, match="cover"):
            diag.curvature_stats(st, 10.0, marked_point_rows(st))

    def test_football_state_near_target(self, football_control):
        stats = diag.curvature_stats(football_control, 0.25, marked_point_rows(football_control))
        assert stats["target_football"] == pytest.approx(0.45)
        assert stats["sup_dev_football"] < 5e-3


class TestClusters:
    def test_initial_singletons(self):
        d = Divisor([0.3, 0.3, 0.6])
        grid = geo.build_grid(64, 128, d)
        st = geo.make_state(geo.background_metric(grid, d, 0.05))
        clusters, dmat = diag.marked_point_clusters(st, 0.1, marked_point_rows(st))
        assert clusters == [[0], [1], [2]]
        assert np.allclose(dmat, dmat.T)

    def test_huge_tolerance_single_cluster(self):
        d = Divisor([0.3, 0.3, 0.6])
        grid = geo.build_grid(64, 128, d)
        st = geo.make_state(geo.background_metric(grid, d, 0.05))
        clusters, _ = diag.marked_point_clusters(st, 100.0, marked_point_rows(st))
        assert clusters == [[0, 1, 2]]

    def test_tol_validated(self, round_state):
        with pytest.raises(ValueError):
            diag.marked_point_clusters(round_state, 0.0, marked_point_rows(round_state))


class TestVolumeRatio:
    def test_model_cap_area_limits(self):
        assert diag.model_cap_area(0.01, 1.0) == pytest.approx(math.pi * 1e-4, rel=1e-3)
        assert diag.model_cap_area(100.0, 0.5) == 4.0  # saturates at full area
        assert diag.model_cap_area(0.3, 0.0) == pytest.approx(math.pi * 0.09)

    def test_round_small_ball_near_one(self, round_state):
        val = diag.volume_ratio(round_state, distances_from(round_state, [0.0, 0.0, 1.0]), 0.15)
        assert val == pytest.approx(1.0, abs=0.08)

    def test_monotone_in_cone_mass(self):
        # synthetic cone family at small eps (1-D): more mass at the center
        # means smaller balls.  Each grid value is checked against a dense
        # quadrature oracle of the smoothed cap area; the geodesic core size
        # shrinks only like eps^(1-beta), so the family stays at weights
        # whose cores are resolved away from r
        r, eps = 0.15, 1e-3
        vals = []
        for beta in (0.2, 0.35, 0.5):
            d = Divisor([beta], [[0.0, 0.0, 1.0]])
            grid = geo.build_axis_grid(8192, d)
            st = geo.make_state(geo.background_metric(grid, d, eps))
            ball = geo.ball_volume(st, distances_from(st, grid.marked_points[0]), r)

            th = np.linspace(1e-10, math.pi, 2_000_001)
            rho = (1.0 - np.cos(th) + eps * eps) ** -beta
            w = np.sin(th)
            rho *= 2.0 / np.trapezoid(rho * w, th)
            s = np.concatenate(
                [[0.0], np.cumsum(np.sqrt(geo.ROUND_R2 * rho)[:-1] * np.diff(th))]
            )
            area = np.concatenate([[0.0], np.cumsum((rho * w)[:-1] * np.diff(th))])
            oracle = float(np.interp(r, s, area))
            # distances from the tip carry an O(sqrt(h)) first-cell error of
            # the singular integrand; the graph metric is first-order
            assert ball == pytest.approx(oracle, rel=0.05)
            vals.append(ball / diag.model_cap_area(r, 1.0))
        assert vals[0] > vals[1] > vals[2]


class TestCompareToProfile:
    def test_football_state_matches_football(self, football_control):
        prof = sol.football(0.55)
        rows = marked_point_rows(football_control)
        res = diag.compare_to_profile(football_control, prof, rows, margin=0.2)
        assert res < 5e-3

    def test_football_state_rejects_soliton_profile(self, football_control):
        rows = marked_point_rows(football_control)
        right = diag.compare_to_profile(football_control, sol.football(0.55), rows, margin=0.2)
        wrong = diag.compare_to_profile(
            football_control, sol.soliton_profile(0.8, 0.3), rows, margin=0.2
        )
        assert wrong > 10.0 * right

    def test_midflow_state_large_residual(self):
        d = Divisor([0.4, 0.7], [[0, 0, -1.0], [0, 0, 1.0]])
        grid = geo.build_axis_grid(256, d)
        bg = geo.background_metric(grid, d, 0.05)
        st = geo.make_state(bg, 0.5 * np.cos(3 * grid.theta))
        st = geo.make_state(bg, st.u + math.log(2.0 / st.area()))
        res = diag.compare_to_profile(
            st, sol.soliton_profile(0.7, 0.4), marked_point_rows(st), margin=0.2
        )
        assert res > 0.1

    def test_rotation_about_axis_invariance(self):
        # rotating the whole configuration about the polar axis is a grid
        # symmetry: the residual must be bit-for-bit comparable
        beta = [0.2, 0.7]
        base = [[0.3, 0.4, math.sqrt(1 - 0.25)], [0.6, -0.5, -math.sqrt(1 - 0.61)]]
        d1 = Divisor(beta, base)
        grid1 = geo.build_grid(64, 128, d1)
        bg1 = geo.background_metric(grid1, d1, 0.08)
        st1 = geo.make_state(bg1)
        prof = sol.soliton_profile(0.7, 0.2)
        r1 = diag.compare_to_profile(st1, prof, marked_point_rows(st1), margin=0.2)

        k = 32  # quarter turn in longitude
        ang = 2 * math.pi * k / 128
        rot = np.array(
            [[math.cos(ang), -math.sin(ang), 0], [math.sin(ang), math.cos(ang), 0], [0, 0, 1]]
        )
        d2 = Divisor(beta, [rot @ p for p in base])
        grid2 = geo.build_grid(64, 128, d2)
        bg2 = geo.background_metric(grid2, d2, 0.08)
        st2 = geo.make_state(bg2)
        r2 = diag.compare_to_profile(st2, prof, marked_point_rows(st2), margin=0.2)
        assert r1 == pytest.approx(r2, rel=1e-10)


class TestDetectConvergence:
    def test_round_state_constant_curvature(self, round_state):
        rep = diag.detect_convergence(round_state)
        assert rep.verdict == "ConstantCurvature"
        assert rep.divisor_class == "Stable" and rep.clusters == []
        assert rep.caveats["status"] == "unknown"

    def test_failed_run_takes_w_from_its_final_state(self, tmp_path, monkeypatch):
        # the stepper fails on step 3, between the samples at t = 0 and
        # t = 0.1: the entropy gap is that of the state classified, not of
        # the last sample
        from conftest import shipped_config, skew_factors_from_third_solve
        from conicflow import cli
        from conicflow.marked_sphere import enumerate_partitions

        skew_factors_from_third_solve(monkeypatch)
        cfg = shipped_config("soliton_axis", n_lat=4096, eps=6e-4, t_max=0.1)
        result = cli.execute_run(cfg, str(tmp_path / "run"))
        trace, rep = result["trace"], result["report"]
        state = trace.final_state
        assert trace.status.startswith("failed") and rep.caveats["status"] == trace.status
        assert list(trace.times) == [0.0] and state.t == pytest.approx(2 * cfg.dt)
        [ld] = [ld for ld in enumerate_partitions(cfg.divisor) if ld.valid]
        w = fn.normalized_w(state, -fn.ricci_potential(state))
        assert w != trace["w_normalized"][-1]
        assert rep.residuals["w_gap"] == abs(w - sol.soliton_w(ld.beta_p, ld.beta_q))

    def test_report_serializes(self, shipped_runs):
        import json

        tr = shipped_runs["stable"]
        rep = diag.detect_convergence(tr.final_state, tr.status)
        data = json.loads(rep.to_json())
        assert data["verdict"] == rep.verdict
        assert "thresholds" in data
        assert rep.summary()

    def test_stable_run_constant_curvature(self, shipped_runs):
        tr = shipped_runs["stable"]
        rep = diag.detect_convergence(tr.final_state, tr.status)
        assert rep.verdict == "ConstantCurvature"
        assert rep.clusters == [[0], [1], [2]]

    def test_soliton_verdict_on_orbit_run(self, soliton_axis_result, monkeypatch):
        # with the eps-adjusted entropy tolerance the orbit-tracking run
        # classifies as the soliton of the deep-weight partition; the shipped
        # default (5e-2) is the asymptotic tolerance and stays Undecided at
        # eps = 2e-4 (w_gap ~ 0.15, documented)
        tr = soliton_axis_result["trace"]
        monkeypatch.setattr(diag, "W_MATCH_TOL", 0.2)
        rep = diag.detect_convergence(tr.final_state, tr.status)
        assert rep.verdict == "Soliton"
        assert rep.partition == [1]
        assert rep.residuals["profile_residual"] < 1e-2
        assert rep.residuals["soliton_residual"] < 3 * rep.residuals["soliton_residual_floor"]

    @pytest.mark.slow
    def test_verdict_stable_under_refinement(self, shipped_results):
        # rerunning the converged stable configuration at double resolution
        # keeps the verdict and the cluster structure
        from conftest import shipped_config
        from conicflow import cli

        import tempfile

        coarse = shipped_results["stable"]["report"]
        with tempfile.TemporaryDirectory() as tmp:
            fine = cli.execute_run(
                shipped_config("stable", n_lat=128, n_lon=256, t_max=15.0), tmp
            )["report"]
        assert fine.verdict == coarse.verdict == "ConstantCurvature"
        assert fine.clusters == coarse.clusters == [[0], [1], [2]]

    def test_two_point_football_verdict(self):
        # the shipped semi-stable run stalls in three clusters at eps = 0.05,
        # so the Football branch is exercised on the two-point football,
        # whose marks are two clusters from the start
        from conicflow import flow as fl

        d = Divisor([0.3, 0.3], [[0, 0, 1.0], [0, 0, -1.0]])
        cfg = fl.FlowConfig(divisor=d, n_lat=128, n_lon=1, eps=0.05, dt=0.01,
                            t_max=40.0, sample_every=0.5, auto_stop=True)
        tr = fl.run(cfg)
        rep = diag.detect_convergence(tr.final_state, tr.status)
        assert rep.verdict == "Football"
        assert rep.partition == [1]
        assert rep.clusters == [[0], [1]]

    def test_flat_unstable_is_undecided_with_caveat(self, shipped_runs):
        # at eps = 0.05 the unstable run flattens onto the regularized
        # minimizer; the detector must refuse the forbidden CC verdict
        tr = shipped_runs["unstable"]
        rep = diag.detect_convergence(tr.final_state, tr.status)
        assert rep.verdict == "Undecided"
        assert "flat_curvature_artifact" in rep.caveats
        assert rep.clusters == [[0, 1], [2]]
