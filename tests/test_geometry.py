import math

import numpy as np
import pytest
import scipy.sparse as sp

from conicflow import diagnostics as diag
from conicflow import functionals as fn
from conicflow import geometry as geo
from conicflow.marked_sphere import Divisor
from oracles import curvature_oracle, laplacian


def _assemble_grid_loop(n_lat, n_lon):
    """The per-edge loops that ``geo._assemble_grid`` replaced: the
    reference its stiffness matrix and Dijkstra edge list must match bit for
    bit.  Returns (L, edge_a, edge_b, edge_len_bg, pole_edge_node,
    pole_edge_len)."""
    h_theta = math.pi / n_lat
    theta = (np.arange(n_lat) + 0.5) * h_theta
    faces = np.arange(n_lat + 1) * h_theta
    h_eta = geo.TWO_PI / n_lon
    m = geo._mercator(theta)
    m_cell = geo._mercator(np.clip(faces, 1e-300, None))

    n = n_lat * n_lon
    rows, cols, vals = [], [], []

    def add_edges(a, b, k):
        rows.extend([a, b, a, b])
        cols.extend([b, a, a, b])
        vals.extend([-k, -k, k, k])

    idx = np.arange(n).reshape(n_lat, n_lon)
    for i in range(n_lat - 1):
        k = (1.0 / geo.FOUR_PI) * h_eta / (m[i + 1] - m[i])
        for j in range(n_lon):
            add_edges(idx[i, j], idx[i + 1, j], k)
    if n_lon > 1:
        for i in range(n_lat):
            dm = m_cell[i + 1] - m_cell[i] if 0 < i < n_lat - 1 else None
            if i == 0:
                dm = m_cell[1] - m[0]
            elif i == n_lat - 1:
                dm = m[-1] - m_cell[n_lat - 1]
            k = (1.0 / geo.FOUR_PI) * dm / h_eta
            for j in range(n_lon):
                add_edges(idx[i, j], idx[i, (j + 1) % n_lon], k)
    L = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    r = math.sqrt(geo.ROUND_R2)
    ea, eb, el = [], [], []
    if n_lon > 1:
        for i in range(n_lat):
            for j in range(n_lon):
                a = idx[i, j]
                if i + 1 < n_lat:
                    ea.append(a), eb.append(idx[i + 1, j]), el.append(r * h_theta)
                    mid = math.sin(0.5 * (theta[i] + theta[i + 1]))
                    diag = r * math.hypot(h_theta, mid * h_eta)
                    ea.append(a), eb.append(idx[i + 1, (j + 1) % n_lon]), el.append(diag)
                    ea.append(a), eb.append(idx[i + 1, (j - 1) % n_lon]), el.append(diag)
                ea.append(a), eb.append(idx[i, (j + 1) % n_lon]), el.append(
                    r * math.sin(theta[i]) * h_eta)
        pole_nodes = np.concatenate([idx[0], idx[-1]])
        pole_len = np.full(2 * n_lon, r * h_theta / 2.0)
    else:
        for i in range(n_lat - 1):
            ea.append(i), eb.append(i + 1), el.append(r * h_theta)
        pole_nodes = np.array([0, n_lat - 1])
        pole_len = np.full(2, r * h_theta / 2.0)
    return (L, np.asarray(ea, dtype=np.int32), np.asarray(eb, dtype=np.int32),
            np.asarray(el), pole_nodes.astype(np.int32), pole_len)


class TestGrid:
    @pytest.mark.parametrize("n_lat, n_lon", [(32, 64), (64, 128), (4096, 1)])
    def test_assembly_matches_the_per_edge_loop(self, n_lat, n_lon):
        grid = geo._assemble_grid(n_lat, n_lon)
        L, *edges = _assemble_grid_loop(n_lat, n_lon)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(grid.L, name), getattr(L, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        for name, want in zip(("edge_a", "edge_b", "edge_len_bg", "pole_edge_node",
                               "pole_edge_len"), edges):
            got = getattr(grid, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    def test_rejects_small_resolution(self):
        with pytest.raises(ValueError, match="resolution too small"):
            geo.build_grid(8, 16)

    def test_quadrature_exact_for_constants(self):
        grid = geo.build_grid(64, 128)
        assert abs(float(grid.w.sum()) - 2.0) < 1e-12

    def test_pole_point_nudged(self):
        d = Divisor([0.5], [[0.0, 0.0, 1.0]])
        grid = geo.build_grid(64, 128, d)
        assert len(grid.nudges) == 1
        idx, offset = grid.nudges[0]
        assert 0 < offset < grid.h_theta  # under one cell
        assert abs(grid.marked_points[0][2]) < 1.0

    def test_generic_point_not_nudged(self):
        d = Divisor([0.5], [[0.3, 0.4, 0.5]])
        grid = geo.build_grid(64, 128, d)
        assert grid.nudges == []

    def test_node_coincidence_nudged(self):
        grid0 = geo.build_grid(64, 128)
        p = grid0.positions()[grid0.node_index(10, 17)]
        grid = geo.build_grid(64, 128, Divisor([0.4], [p]))
        assert len(grid.nudges) == 1

    def test_two_points_in_one_cell_rejected(self):
        theta = 1.0
        p1 = geo.vec_from_angles(theta, 0.5)
        p2 = geo.vec_from_angles(theta, 0.5 + 1e-4)
        with pytest.raises(ValueError, match="one grid cell"):
            geo.build_grid(64, 128, Divisor([0.3, 0.4], [p1, p2]))

    def test_axis_grid_rejects_nonpolar(self):
        with pytest.raises(ValueError, match="poles"):
            geo.build_axis_grid(64, Divisor([0.5], [[1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="at most 2"):
            geo.build_axis_grid(64, Divisor([0.2, 0.2, 0.2]))


class TestLaplacian:
    def test_annihilates_constants(self, round_state):
        grid = round_state.grid
        z = laplacian(np.ones(grid.n), round_state)
        assert np.abs(z).max() < 1e-10

    def test_divergence_form(self, round_state):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(round_state.grid.n)
        assert abs(geo.integrate(laplacian(f, round_state), round_state)) < 1e-10

    def test_self_adjoint_and_ibp(self, round_state):
        rng = np.random.default_rng(1)
        grid = round_state.grid
        for _ in range(20):
            f = rng.standard_normal(grid.n)
            h = rng.standard_normal(grid.n)
            lhs = geo.integrate(laplacian(f, round_state) * h, round_state)
            rhs = -geo.dirichlet_energy(f, h, grid)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_negative_semidefinite_kernel_constants(self):
        # explicit assembly on a small grid
        grid = geo.build_grid(16, 32)
        L = grid.L.toarray()
        assert np.allclose(L, L.T)
        evals = np.linalg.eigvalsh(L)
        assert evals[0] > -1e-12  # stiffness matrix PSD, so Laplacian is NSD
        assert evals[1] > 1e-10  # kernel is exactly the constants
        assert abs(evals[0]) < 1e-12

    def test_first_harmonic_eigenvalue(self, round_state):
        grid = round_state.grid
        th = np.repeat(grid.theta, grid.n_lon)
        et = np.tile(grid.eta, grid.n_lat)
        for f in (np.cos(th), np.sin(th) * np.cos(et)):
            lam = -geo.integrate(f * laplacian(f, round_state), round_state)
            lam /= geo.integrate(f * f, round_state)
            assert lam == pytest.approx(1.0, rel=0.02)

    def test_mismatched_field_rejected(self, round_state):
        with pytest.raises(ValueError):
            laplacian(np.zeros(7), round_state)

    def test_grad_sq_consistent_with_dirichlet(self, round_state):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(round_state.grid.n)
        total = geo.integrate(geo.grad_sq_field(f, round_state), round_state)
        assert total == pytest.approx(geo.dirichlet_energy(f, f, round_state.grid), abs=1e-10)


class TestBackground:
    def test_round_metric(self, round_state):
        assert round_state.area() == pytest.approx(2.0, abs=1e-12)
        assert np.abs(geo.scalar_curvature(round_state) - 1.0).max() < 1e-12

    def test_requires_positive_eps(self):
        grid = geo.build_grid(64, 128, Divisor([0.5]))
        with pytest.raises(ValueError):
            geo.background_metric(grid, grid.divisor, 0.0)

    def test_unresolved_core_rejected(self):
        d = Divisor([0.5], [[0.3, 0.4, 0.5]])
        grid = geo.build_grid(64, 128, d)
        with pytest.raises(ValueError, match="unresolved"):
            geo.background_metric(grid, d, 0.01)

    def test_area_normalized_and_positive(self):
        d = Divisor([0.1, 0.2, 0.8])
        grid = geo.build_grid(64, 128, d)
        bg = geo.background_metric(grid, d, 0.05)
        assert float(np.sum(bg.mass)) == pytest.approx(2.0, abs=1e-12)
        assert np.all(bg.rho > 0)

    def test_conical_curvature_identity(self):
        # the bump model cancels the smoothing curvature exactly:
        # R - delta/rho = (chi/2)/rho pointwise
        d = Divisor([0.3, 0.6])
        grid = geo.build_grid(64, 128, d)
        bg = geo.background_metric(grid, d, 0.08)
        st = geo.make_state(bg)
        rc = geo.conical_curvature(st)
        assert np.abs(rc - 0.5 * bg.chi() / bg.rho).max() < 1e-12
        assert geo.integrate(rc, st) == pytest.approx(bg.chi(), abs=1e-12)

    def test_full_total_curvature_second_order(self):
        d = Divisor([0.5], [[0.3, 0.4, 0.5]])
        errs = []
        for n in (32, 64, 128):
            grid = geo.build_grid(n, 2 * n, d)
            bg = geo.background_metric(grid, d, 0.1)
            st = geo.make_state(bg)
            errs.append(abs(geo.integrate(geo.scalar_curvature(st), st) - 2.0))
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order > 1.5
        h = math.pi / 32
        assert errs[0] <= 60.0 * h * h

    def test_antipodal_symmetry(self):
        d = Divisor([0.4, 0.4], [[0, 0, 1.0], [0, 0, -1.0]])
        grid = geo.build_grid(64, 128, d)
        bg = geo.background_metric(grid, d, 0.08)
        rho = bg.rho.reshape(64, 128)
        assert np.abs(rho - rho[::-1, :]).max() < 1e-12

    def test_cone_mass_concentration(self):
        """Gauss-Bonnet cap oracle: the full-curvature mass of a geodesic
        ball around the cone tends to beta under eps-halving."""
        beta, delta = 0.5, 0.25
        d = Divisor([beta], [[0.0, 0.0, 1.0]])

        def cap_oracle(eps):
            # dense 1-D quadrature of the closed forms, no grid involved
            th = np.linspace(1e-9, math.pi, 400001)
            rho_raw = (1.0 - np.cos(th) + eps * eps) ** -beta
            w = np.sin(th)
            c = 2.0 / np.trapezoid(rho_raw * w, th)  # area normalization
            s = np.concatenate(
                [[0.0], np.cumsum(np.sqrt(geo.ROUND_R2 * c * rho_raw)[:-1] * np.diff(th))]
            )
            th_a = np.interp(delta, s, th)
            return (1.0 - math.cos(th_a)) + 0.5 * beta * math.sin(th_a) ** 2 / (
                1.0 - math.cos(th_a) + eps * eps
            )

        grid_vals, oracle_vals, eps_list = [], [], [0.2, 0.1, 0.05]
        for eps in eps_list:
            grid = geo.build_grid(64, 128, d)
            bg = geo.background_metric(grid, d, eps)
            st = geo.make_state(bg)
            dist = geo.distances_from(st, grid.marked_points[0])
            mass = geo.scalar_curvature(st) * st.mass
            grid_vals.append(float(mass[dist <= delta].sum()))
            oracle_vals.append(cap_oracle(eps))
        for g, o in zip(grid_vals, oracle_vals):
            assert g == pytest.approx(o, abs=0.03)
        # Richardson in eps^2 toward the conical mass
        e1, e2 = eps_list[-2] ** 2, eps_list[-1] ** 2
        extrap = grid_vals[-1] + (grid_vals[-1] - grid_vals[-2]) * e2 / (e1 - e2)
        assert abs(extrap - beta) / beta < 0.10

    def test_example_cap_mass_half_cone(self):
        d = Divisor([0.5], [[0.0, 0.0, 1.0]])
        grid = geo.build_grid(64, 128, d)
        st = geo.make_state(geo.background_metric(grid, d, 0.05))
        dist = geo.distances_from(st, grid.marked_points[0])
        mass = geo.scalar_curvature(st) * st.mass
        assert float(mass[dist <= 0.3].sum()) == pytest.approx(0.5, abs=0.05)


class TestCurvatureOps:
    def test_scalar_curvature_u_zero(self, round_state):
        assert np.allclose(geo.scalar_curvature(round_state), 1.0)

    def test_conformal_scaling_constant(self, round_state):
        st = geo.make_state(round_state.background, np.full(round_state.grid.n, 0.7))
        assert np.abs(geo.scalar_curvature(st) - math.exp(-0.7)).max() < 1e-10

    def test_total_curvature_any_state(self, round_state):
        rng = np.random.default_rng(5)
        th = np.repeat(round_state.grid.theta, round_state.grid.n_lon)
        st = geo.make_state(round_state.background, 0.4 * np.cos(2 * th))
        assert geo.integrate(geo.scalar_curvature(st), st) == pytest.approx(2.0, abs=1e-10)

    def test_oracle_agreement_smooth_state(self, round_state):
        grid = round_state.grid
        th = np.repeat(grid.theta, grid.n_lon)
        et = np.tile(grid.eta, grid.n_lat)
        st = geo.make_state(round_state.background, 0.3 * np.sin(th) * np.cos(et))
        R = geo.scalar_curvature(st)
        Ro, mask = curvature_oracle(st)
        m2 = mask.reshape(grid.n_lat, grid.n_lon)
        m2[:3] = m2[-3:] = False
        assert np.abs((R - Ro)[m2.ravel()]).max() < 2e-3


class TestIntegrate:
    def test_constant(self, round_state):
        assert geo.integrate(np.ones(round_state.grid.n), round_state) == pytest.approx(2.0, abs=1e-12)

    def test_hemisphere_indicator(self, round_state):
        z = round_state.grid.positions()[:, 2]
        val = geo.integrate((z > 0).astype(float), round_state)
        assert val == pytest.approx(1.0, abs=0.05)


def distance(state, a, b):
    return float(geo.distances_from(state, a)[state.grid.nearest_node(b)])


class TestDistances:
    def test_symmetric_zero_diagonal(self, round_state):
        a, b = [1.0, 0, 0], [0, 1.0, 0]
        assert distance(round_state, a, a) == 0.0
        d1 = distance(round_state, a, b)
        d2 = distance(round_state, b, a)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_antipodal_round_value(self, round_state):
        exact = math.sqrt(math.pi / 2.0)
        d = distance(round_state, [0, 0, 1.0], [0, 0, -1.0])
        assert abs(d - exact) / exact < 0.05

    def test_quarter_turn(self, round_state):
        exact = 0.5 * math.sqrt(math.pi / 2.0)
        d = distance(round_state, [1.0, 0, 0], [0, 0, 1.0])
        assert abs(d - exact) / exact < 0.05

    def test_triangle_inequality(self, round_state):
        rng = np.random.default_rng(4)
        st = geo.make_state(
            round_state.background, 0.5 * rng.standard_normal(round_state.grid.n)
        )
        nodes = rng.integers(0, st.grid.n, 9)
        d = {n: geo.distances_from(st, int(n)) for n in nodes}
        for a in nodes:
            for b in nodes:
                for c in nodes:
                    assert d[a][b] <= d[a][c] + d[c][b] + 1e-12

    def test_monotone_in_conformal_factor(self, round_state):
        rng = np.random.default_rng(6)
        grid = round_state.grid
        u = 0.3 * rng.standard_normal(grid.n)
        bump = np.abs(rng.standard_normal(grid.n)) * 0.2
        st1 = geo.make_state(round_state.background, u)
        st2 = geo.make_state(round_state.background, u + bump)
        d1 = geo.distances_from(st1, 0)
        d2 = geo.distances_from(st2, 0)
        assert np.all(d2 >= d1 - 1e-12)


def _bumped_three_point_state():
    div = Divisor([0.3, 0.3, 0.6], [[1.0, 0.2, 0.1], [0.9, -0.4, -0.2], [-1.0, 0.1, 0.3]])
    grid = geo.build_grid(32, 64, div)
    center = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
    u = 0.4 * np.exp(-np.arccos(np.clip(grid.positions() @ center, -1, 1)) ** 2 / 0.5)
    return geo.make_state(geo.background_metric(grid, div, 0.1), u)


def _bumped_axis_state():
    div = Divisor([0.3, 0.6], [[0, 0, 1.0], [0, 0, -1.0]])
    grid = geo.build_axis_grid(64, div)
    u = 0.3 * np.cos(grid.theta) + 0.2 * np.sin(grid.theta) ** 2
    return geo.make_state(geo.background_metric(grid, div, 0.1), u)


@pytest.mark.parametrize("make_state", [_bumped_three_point_state, _bumped_axis_state])
class TestSharedRows:
    """One multi-source pass gives exactly what one-source calls give."""

    def test_rows_equal_one_source_rows(self, make_state):
        st = make_state()
        sources = geo.diameter_sources(st)
        rows = geo.geodesic_rows(st, sources)
        assert list(rows) == sources
        for s in sources:
            assert np.array_equal(rows[s], geo.distances_from(st, s))

    def test_monitors_equal_one_source_path(self, make_state):
        st = make_state()
        rows = geo.geodesic_rows(st, geo.diameter_sources(st))
        pts = st.grid.marked_points
        one = [geo.distances_from(st, p) for p in pts]
        nodes = [st.grid.nearest_node(p) for p in pts]
        d = np.array([[one[i][nodes[j]] for j in range(len(pts))] for i in range(len(pts))])
        assert np.array_equal(geo.pairwise_marked_distances(st, rows), 0.5 * (d + d.T))
        for p, row in zip(pts, one):
            for r in (0.1, 0.2, 0.5):
                assert geo.ball_volume(st, p, r, rows) == float(np.sum(st.mass[row <= r]))
        diameter = max(
            float(geo.distances_from(st, s).max()) for s in geo.diameter_sources(st)
        )
        assert geo.diameter_estimate(st, rows=rows) == diameter

    def test_core_masks_equal_one_source_path(self, make_state):
        st = make_state()
        rows = geo.geodesic_rows(st, geo.diameter_sources(st))
        one = {s: geo.distances_from(st, s) for s in rows}
        v = fn.ricci_potential(st).v
        assert fn.soliton_residual(st, v, rows=rows) == fn.soliton_residual(st, v, rows=one)
        assert fn.soliton_residual(st, v, rows=rows) == fn.soliton_residual(st, v)
        assert diag.curvature_stats(st, 0.25, rows) == diag.curvature_stats(st, 0.25, one)

    def test_consumers_make_one_pass_without_rows(self, make_state, monkeypatch):
        st = make_state()
        calls = []
        real = geo._csgraph_dijkstra
        monkeypatch.setattr(
            geo, "_csgraph_dijkstra", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        geo.pairwise_marked_distances(st)
        geo.diameter_estimate(st)
        fn.soliton_residual(st)
        assert len(calls) == 3


class TestBallVolume:
    def test_zero_radius(self, round_state):
        assert geo.ball_volume(round_state, [0, 0, 1.0], 0.0) == 0.0

    def test_whole_sphere(self, round_state):
        assert geo.ball_volume(round_state, [0, 0, 1.0], 10.0) == pytest.approx(2.0, abs=1e-10)

    def test_hemisphere(self, round_state):
        r = 0.5 * math.sqrt(math.pi / 2.0)
        assert geo.ball_volume(round_state, [0, 0, 1.0], r) == pytest.approx(1.0, abs=0.05)

    def test_negative_radius_rejected(self, round_state):
        with pytest.raises(ValueError):
            geo.ball_volume(round_state, [0, 0, 1.0], -0.1)


class TestSerialization:
    def test_field_round_trip_csv(self, tmp_path, round_state):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(round_state.grid.n)
        p = tmp_path / "field.csv"
        geo.save_field(str(p), f)
        assert np.array_equal(geo.load_field(str(p)), f)
