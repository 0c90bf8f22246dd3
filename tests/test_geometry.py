import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import dijkstra

from conftest import shipped_config
from conicflow import diagnostics as diag
from conicflow import flow as fl
from conicflow import functionals as fn
from conicflow import geometry as geo
from conicflow.marked_sphere import Divisor
from oracles import (
    curvature_expressions,
    curvature_oracle,
    distances_from,
    edge_graph,
    geodesic_edges,
    grounded_solve,
    laplacian,
    nearest_node,
    node_distances,
)


def _stiffness_loop(n_lat, n_lon):
    """The per-edge loop that ``geo._assemble_grid`` replaced: the
    reference its stiffness matrix must match bit for bit."""
    h_theta = math.pi / n_lat
    theta = (np.arange(n_lat) + 0.5) * h_theta
    faces = np.arange(n_lat + 1) * h_theta
    h_eta = geo.TWO_PI / n_lon
    m = geo._mercator(theta)
    m_face = geo._mercator(faces[1:-1])  # m_face[i - 1] at face i

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
            # the pole caps take their Mercator height from the node
            north = m[0] if i == 0 else m_face[i - 1]
            south = m[-1] if i == n_lat - 1 else m_face[i]
            k = (1.0 / geo.FOUR_PI) * (south - north) / h_eta
            for j in range(n_lon):
                add_edges(idx[i, j], idx[i, (j + 1) % n_lon], k)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


class TestGrid:
    @pytest.mark.parametrize("n_lat, n_lon", [(32, 64), (64, 128), (4096, 1)])
    def test_assembly_matches_the_per_edge_loop(self, n_lat, n_lon):
        grid = geo.build_axis_grid(n_lat) if n_lon == 1 else geo.build_grid(n_lat, n_lon)
        n = grid.n
        edge_a, edge_b, edge_len, pole_node, pole_len = geodesic_edges(n_lat, n_lon)
        hubs = np.repeat(np.array([n, n + 1], dtype=np.int32), pole_node.size // 2)
        rows, cols = np.concatenate([edge_a, hubs]), np.concatenate([edge_b, pole_node])
        # the edge order of the loop, carried through the CSR ordering
        slot = sp.coo_matrix((np.arange(1.0, rows.size + 1), (rows, cols)),
                             shape=(n + 2, n + 2)).tocsr()
        order = slot.data.astype(int) - 1
        graph = sp.csr_matrix((np.concatenate([edge_len, pole_len])[order], slot.indices,
                               slot.indptr), shape=slot.shape)
        # a hub link's two ends are both its pole node
        ends = np.stack([np.where(rows < n, rows, cols), cols])[:, order]
        for got, want in ((grid.L, _stiffness_loop(n_lat, n_lon)), (grid.graph, graph)):
            for name in ("indptr", "indices", "data"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype and np.array_equal(g, w), name
        assert grid.graph_ends.dtype == ends.dtype and np.array_equal(grid.graph_ends, ends)

    def test_valid_grids_raise_no_runtime_warning(self):
        # the Mercator coordinate of the south-pole face, n_lat * (pi / n_lat),
        # is log(tan(.)) of an angle that can round above pi
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for n_lat in range(16, 601):
                geo.build_axis_grid(n_lat)
            for n_lat in (25, 41, 50, 79, 82, 95):
                geo.build_grid(n_lat, 32)
            geo.build_grid(100, 200)

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
        assert grid.nudges == ()

    def test_node_coincidence_nudged(self):
        grid0 = geo.build_grid(64, 128)
        p = grid0.positions()[10 * grid0.n_lon + 17]
        grid = geo.build_grid(64, 128, Divisor([0.4], [p]))
        assert len(grid.nudges) == 1

    def test_two_points_in_one_cell_rejected(self):
        theta = 1.0
        p1 = geo.vec_from_angles(theta, 0.5)
        p2 = geo.vec_from_angles(theta, 0.5 + 1e-4)
        with pytest.raises(ValueError, match="one grid cell"):
            geo.build_grid(64, 128, Divisor([0.3, 0.4], [p1, p2]))

    @staticmethod
    def equator_pair_16x32(*offsets):
        """Two equatorial points at the given longitudes (in cells) and a
        third at the north pole."""
        h_eta = 2 * math.pi / 32
        pts = [geo.vec_from_angles(math.pi / 2, o * h_eta) for o in offsets]
        return Divisor([0.3, 0.4, 0.5], pts + [[0, 0, 1.0]])

    def test_two_points_with_one_nearest_node_rejected(self):
        # on either side of a node's meridian: two longitude cells, one node
        with pytest.raises(ValueError, match="one grid cell"):
            geo.build_grid(16, 32, self.equator_pair_16x32(-0.2, 0.2))

    def test_two_points_with_two_nearest_nodes_accepted(self):
        # one longitude cell, but each point nearer to its own node
        grid = geo.build_grid(16, 32, self.equator_pair_16x32(0.3, 0.7))
        assert grid.nudges == ((2, grid.h_theta / 2),)  # only the pole point moves
        assert grid.marked_nodes[1] == grid.marked_nodes[0] + 1
        assert len(set(grid.marked_nodes)) == 3

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

    def test_second_order_away_from_the_poles(self):
        # manufactured solutions: the first harmonics satisfy Lap Y = -Y in
        # paper units, so Lap Y + Y is the stencil's truncation error.  On
        # theta in [0.3, pi - 0.3] it falls ~4x per doubling (1.1e-3, 2.8e-4,
        # 7.2e-5 for cos theta); the pole rows are excluded, because there
        # the closure is not consistent (see curvature_stats)
        errors = []
        for n_lat in (32, 64, 128):
            grid = geo.build_grid(n_lat, 2 * n_lat)
            st = geo.make_state(geo.background_metric(grid, grid.divisor, 0.1))
            th = np.repeat(grid.theta, grid.n_lon)
            et = np.tile(grid.eta, grid.n_lat)
            band = (th >= 0.3) & (th <= math.pi - 0.3)
            errors.append([np.abs(laplacian(y, st) + y)[band].max()
                           for y in (np.cos(th), np.sin(th) * np.cos(et))])
        errors = np.array(errors)
        assert np.all(errors[:-1] / errors[1:] >= 3.5), errors

    def test_mismatched_field_rejected(self, round_state):
        with pytest.raises(ValueError):
            laplacian(np.zeros(7), round_state)

    def test_grad_sq_consistent_with_dirichlet(self, round_state):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(round_state.grid.n)
        total = geo.integrate(geo.grad_sq_field(f, round_state), round_state)
        assert total == pytest.approx(geo.dirichlet_energy(f, f, round_state.grid), abs=1e-10)


class TestGroundSolve:
    """A 2-D grid solves the grounded problem by longitude modes: it must
    match one SuperLU factor of ``L[1:, 1:]`` to round-off."""

    @pytest.mark.parametrize("build", [
        lambda: geo.build_grid(16, 32),
        lambda: geo.build_grid(32, 33),  # odd n_lon: no Nyquist mode
        lambda: geo.build_grid(64, 128),
        lambda: geo.build_grid(128, 256),
        lambda: geo.build_grid(32, 64, Divisor([0.3, 0.4], [[0, 0, 1.0], _on_node_32x64()])),
    ], ids=["16x32", "32x33", "64x128", "128x256", "32x64_nudged"])
    def test_matches_the_superlu_oracle(self, build):
        grid = build()
        # white noise in every mode, weighted by the cell areas and made
        # consistent as ``poisson`` does
        b = grid.w * np.random.default_rng(grid.n).standard_normal(grid.n)
        b -= b.sum() / b.size
        x = grid.ground_solve(b)
        want = grounded_solve(grid, b)
        assert x[0] == 0.0
        assert np.linalg.norm(x - want) <= 5e-12 * np.linalg.norm(want)
        assert np.linalg.norm((grid.L @ x - b)[1:]) <= 1e-12 * np.linalg.norm(b)


class TestBackground:
    def test_round_metric(self, round_state):
        assert round_state.area() == pytest.approx(2.0, abs=1e-12)
        assert np.abs(round_state.scalar_curvature - 1.0).max() < 1e-12

    def test_requires_positive_eps(self):
        grid = geo.build_grid(64, 128, Divisor([0.5]))
        with pytest.raises(ValueError):
            geo.background_metric(grid, grid.divisor, 0.0)

    @pytest.mark.parametrize(
        "other",
        [
            # sorts to weight 0.3 at the south pole: same weights, swapped cones
            Divisor([0.6, 0.3], [[0, 0, 1.0], [0, 0, -1.0]]),
            # one cone on a grid whose monitors track two marked nodes
            Divisor([0.5]),
        ],
        ids=["swapped", "one-cone"],
    )
    def test_divisor_must_be_the_grids(self, other):
        own = Divisor([0.3, 0.6], [[0, 0, 1.0], [0, 0, -1.0]])
        grid = geo.build_axis_grid(64, own)
        with pytest.raises(ValueError, match="not the grid's"):
            geo.background_metric(grid, other, 0.1)
        # an equal divisor built anew is the grid's own, which the
        # background reads
        same = Divisor([0.3, 0.6], [[0, 0, 1.0], [0, 0, -1.0]])
        assert geo.background_metric(grid, same, 0.1).grid.divisor == same

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
        rc = st.conical_curvature
        assert np.abs(rc - 0.5 * bg.chi() / bg.rho).max() < 1e-12
        assert geo.integrate(rc, st) == pytest.approx(bg.chi(), abs=1e-12)

    def test_full_total_curvature_second_order(self):
        d = Divisor([0.5], [[0.3, 0.4, 0.5]])
        errs = []
        for n in (32, 64, 128):
            grid = geo.build_grid(n, 2 * n, d)
            bg = geo.background_metric(grid, d, 0.1)
            st = geo.make_state(bg)
            errs.append(abs(geo.integrate(st.scalar_curvature, st) - 2.0))
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
            dist = distances_from(st, grid.marked_points[0])
            mass = st.scalar_curvature * st.mass
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
        dist = distances_from(st, grid.marked_points[0])
        mass = st.scalar_curvature * st.mass
        assert float(mass[dist <= 0.3].sum()) == pytest.approx(0.5, abs=0.05)


class TestCurvatureOps:
    def test_scalar_curvature_u_zero(self, round_state):
        assert np.allclose(round_state.scalar_curvature, 1.0)

    def test_conformal_scaling_constant(self, round_state):
        st = geo.make_state(round_state.background, np.full(round_state.grid.n, 0.7))
        assert np.abs(st.scalar_curvature - math.exp(-0.7)).max() < 1e-10

    def test_total_curvature_any_state(self, round_state):
        rng = np.random.default_rng(5)
        th = np.repeat(round_state.grid.theta, round_state.grid.n_lon)
        st = geo.make_state(round_state.background, 0.4 * np.cos(2 * th))
        assert geo.integrate(st.scalar_curvature, st) == pytest.approx(2.0, abs=1e-10)

    def test_oracle_agreement_smooth_state(self, round_state):
        grid = round_state.grid
        th = np.repeat(grid.theta, grid.n_lon)
        et = np.tile(grid.eta, grid.n_lat)
        st = geo.make_state(round_state.background, 0.3 * np.sin(th) * np.cos(et))
        R = st.scalar_curvature
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
    return float(distances_from(state, a)[nearest_node(state.grid, b)])


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
        d = {n: node_distances(st, int(n)) for n in nodes}
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
        d1 = node_distances(st1, 0)
        d2 = node_distances(st2, 0)
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
class TestStateContract:
    """A state is an immutable value whose derived fields are computed once
    and equal the curvature expressions written out from ``u``."""

    def test_curvature_fields_equal_expressions(self, make_state):
        st = make_state()
        R, R_cone = curvature_expressions(st)
        assert np.array_equal(st.scalar_curvature, R)
        assert np.array_equal(st.conical_curvature, R_cone)

    def test_fields_are_kept(self, make_state):
        st = make_state()
        for name in ("mass", "scalar_curvature", "conical_curvature", "distance_rows"):
            assert getattr(st, name) is getattr(st, name)
        assert st.background.mass is st.background.mass

    def test_state_is_read_only(self, make_state):
        st = make_state()
        with pytest.raises(ValueError, match="read-only"):
            st.u += 1
        with pytest.raises(ValueError, match="read-only"):
            st.u[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.t = 1

    def test_caller_array_stays_writable(self, make_state):
        st = make_state()
        u = st.u.copy()
        geo.make_state(st.background, u)
        u[0] = 0.0


@pytest.mark.parametrize("make_state", [_bumped_three_point_state, _bumped_axis_state])
class TestSharedRows:
    """A state's distance rows start from the marked nodes and from the
    diameter nodes that could raise the diameter, each row is a one-source
    Dijkstra pass on the edge-by-edge graph oracle, and the distance
    monitors read them by node."""

    @staticmethod
    def one_source_rows(st, nodes):
        graph = edge_graph(st)
        return {n: dijkstra(graph, directed=False, indices=n)[: st.grid.n] for n in nodes}

    def test_rows_equal_one_source_rows(self, make_state):
        st = make_state()
        grid = st.grid
        assert set(grid.marked_nodes) <= set(st.distance_rows) <= set(grid.diameter_nodes)
        assert list(st.distance_rows) == [s for s in grid.diameter_nodes if s in st.distance_rows]
        one = self.one_source_rows(st, grid.diameter_nodes)
        for s, row in st.distance_rows.items():
            assert np.array_equal(row, one[s])

    def test_monitors_equal_one_source_path(self, make_state, monkeypatch):
        st = make_state()
        grid = st.grid
        one = self.one_source_rows(st, grid.diameter_nodes)
        nodes = grid.marked_nodes
        d = np.array([[one[a][b] for b in nodes] for a in nodes])
        assert np.array_equal(geo.pairwise_marked_distances(st), 0.5 * (d + d.T))
        for n in nodes:
            for r in (0.1, 0.2, 0.5):
                monkeypatch.setattr(diag, "BALL_RADIUS", r)
                want = float(np.sum(st.mass[one[n] <= r]))
                want /= diag.model_cap_area(r, 1.0 - st.background.beta_max())
                assert diag.volume_ratio(st, st.distance_rows[n]) == want
        diameter = max(float(one[s].max()) for s in grid.diameter_nodes)
        assert geo.diameter_estimate(st) == diameter

    def test_far_from_marks_is_a_new_mask_from_one_source_rows(self, make_state):
        st = make_state()
        nodes = st.grid.marked_nodes
        one = self.one_source_rows(st, nodes)
        want = np.all([one[n] > 0.3 for n in nodes], axis=0)
        mask = st.far_from_marks(0.3)
        assert np.array_equal(mask, want) and 0 < mask.sum() < st.grid.n
        mask[:] = False  # the caller's to edit: the next call is unchanged
        assert np.array_equal(st.far_from_marks(0.3), want)


def _unmarked_state():
    grid = geo.build_grid(32, 64)
    u = 0.3 * np.random.default_rng(3).standard_normal(grid.n)
    return geo.make_state(geo.background_metric(grid, grid.divisor, 0.1), u)


def _axis_row_max_state():
    """Two marked points near the north pole and two bumps at the ends of
    the x axis: the x-axis rows reach 1.40, every other row at most 1.34."""
    div = Divisor([0.4, 0.4], [[0.0, 0.3, 0.95], [0.0, -0.3, 0.95]])
    grid = geo.build_grid(32, 64, div)
    x = grid.positions()[:, 0]
    u = 1.5 * (np.exp(-8.0 * (1.0 - x)) + np.exp(-8.0 * (1.0 + x)))
    return geo.make_state(geo.background_metric(grid, div, 0.2), u)


def _unreachable_node_state():
    """The axis-maximum state with u = inf at one node: every row is
    infinite there, so no bound is finite."""
    st = _axis_row_max_state()
    u = st.u.copy()
    u[100] = np.inf
    return geo.make_state(st.background, u)


class TestDiameterRows:
    """``distance_rows`` skips an axis row only when a triangle bound proves
    it cannot raise the diameter, so ``diameter_estimate`` equals the finite
    maximum over one-source rows from every diameter node."""

    @pytest.mark.parametrize("make_state", [
        _bumped_three_point_state, _bumped_axis_state, _unmarked_state,
        _axis_row_max_state, _unreachable_node_state,
    ])
    def test_diameter_equals_the_all_rows_maximum(self, make_state):
        st = make_state()
        grid = st.grid
        one = {s: node_distances(st, s) for s in grid.diameter_nodes}
        assert set(grid.marked_nodes) <= set(st.distance_rows) <= set(one)
        for s, row in st.distance_rows.items():
            assert np.array_equal(row, one[s])
        want = max(float(d[np.isfinite(d)].max()) for d in one.values())
        assert geo.diameter_estimate(st) == want

    def test_an_axis_row_holding_the_maximum_is_kept(self):
        st = _axis_row_max_state()
        marked = st.grid.marked_nodes
        peak = {s: float(d.max()) for s, d in st.distance_rows.items()}
        assert max(peak[s] for s in marked) < geo.diameter_estimate(st)
        assert max(peak, key=peak.get) not in marked
        assert len(peak) < len(st.grid.diameter_nodes)  # and the bound still skips

    def test_unmarked_grid_starts_from_its_first_diameter_node(self):
        st = _unmarked_state()
        assert st.grid.marked_nodes == []
        assert st.grid.diameter_nodes[0] in st.distance_rows

    @pytest.mark.parametrize("build", [lambda: geo.build_grid(16, 32),
                                       lambda: geo.build_axis_grid(64)],
                             ids=["round_16x32", "round_axis_64"])
    def test_bound_tied_with_the_maximum_keeps_its_row(self, build):
        # on the round sphere the last row's bound equals the maximum in
        # exact arithmetic; its rounding must not skip the row
        grid = build()
        st = geo.make_state(geo.background_metric(grid, grid.divisor, 0.1))
        assert list(st.distance_rows) == grid.diameter_nodes

    def test_infinite_bound_skips_nothing(self):
        st = _unreachable_node_state()
        assert list(st.distance_rows) == st.grid.diameter_nodes
        assert all(np.isinf(d[100]) for d in st.distance_rows.values())

    @pytest.mark.parametrize("name, most", [("semistable", 5), ("unstable", 4)])
    def test_shipped_bump_states_skip_axis_rows(self, name, most):
        # the benchmark's seed-0 start states at 64x128 keep 5 and 4 of 8
        cfg = shipped_config(name, initial="bump", seed=0)
        bg = fl.run_background(cfg)
        st, _ = fl.renormalize(geo.make_state(bg, fl._initial_field(cfg, bg)))
        assert (cfg.n_lat, cfg.n_lon, len(st.grid.diameter_nodes)) == (64, 128, 8)
        assert len(st.distance_rows) <= most


@pytest.mark.parametrize("make_state", [_bumped_three_point_state, _bumped_axis_state])
class TestFrozenValues:
    """A grid and a background are immutable values, built whole; what they
    derive is computed once per object."""

    def test_fields_cannot_be_assigned(self, make_state):
        bg = make_state().background
        for obj in (bg.grid, bg):
            for f in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))

    def test_h_and_grounded_factor_computed_once(self, make_state, monkeypatch):
        # the 1-D grid factors L[1:, 1:], a 2-D grid its longitude modes
        st = make_state()
        calls = []

        def splu(*args, **kwargs):
            calls.append("splu")
            return spla.splu(*args, **kwargs)

        def dpttrf(*args, **kwargs):
            calls.append("dpttrf")
            return lapack.dpttrf(*args, **kwargs)

        monkeypatch.setattr(geo, "spla", types.SimpleNamespace(splu=splu))
        monkeypatch.setattr(geo, "lapack", types.SimpleNamespace(dpttrf=dpttrf,
                                                                 dpttrs=lapack.dpttrs))
        bg = st.background
        factor = ["splu" if bg.grid.n_lon == 1 else "dpttrf"]
        h = fn.h_background(bg)
        fn.f_beta(st), fn.ricci_potential(st)
        assert fn.h_background(bg) is h and bg.h is h
        assert calls == factor
        other = geo.background_metric(bg.grid, bg.grid.divisor, 2 * bg.eps)
        assert not np.array_equal(other.h, h)
        assert calls == factor  # the grid's factor serves every background

    def test_graph_matches_the_edge_by_edge_oracle(self, make_state):
        st = make_state()
        got, want = geo._edge_graph(st), edge_graph(st)
        for name in ("indptr", "indices", "data"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and np.array_equal(g, w), name


def _on_node_32x64():
    """The position of node (8, 17) of the 32x64 grid."""
    grid = geo.build_grid(32, 64)
    return grid.positions()[8 * grid.n_lon + 17]


class TestMarkedNodes:
    """A grid finds its marked nodes once, after nudging: each is the
    nearest node of the (possibly nudged) marked point."""

    @pytest.mark.parametrize(
        "build, nudged",
        [
            # the north-pole point moves half a row south
            (lambda: geo.build_grid(32, 64, Divisor([0.3, 0.4], [[0, 0, 1.0], [1.0, 0, 0]])), [0]),
            # the on-node point moves half a cell in longitude
            (lambda: geo.build_grid(32, 64, Divisor([0.3, 0.4], [[1.0, 0, 0], _on_node_32x64()])),
             [1]),
            (lambda: geo.build_axis_grid(64, Divisor([0.3, 0.6], [[0, 0, 1.0], [0, 0, -1.0]])), []),
        ],
        ids=["pole_nudged", "on_node_nudged", "axis"],
    )
    def test_marked_nodes_are_nearest_nodes(self, build, nudged):
        grid = build()
        assert [i for i, _ in grid.nudges] == nudged
        want = [nearest_node(grid, p) for p in grid.marked_points]
        assert grid.marked_nodes == want
        assert len(set(want)) == grid.divisor.k
        axes = [nearest_node(grid, p) for p in geo.AXIS_POINTS]
        assert grid.diameter_nodes == list(dict.fromkeys(axes + want))


class TestBallVolume:
    """The geodesic ball's dg-area, the numerator of ``volume_ratio``."""

    @pytest.fixture()
    def north(self, round_state):
        return distances_from(round_state, [0, 0, 1.0])

    def test_whole_sphere(self, round_state, north, monkeypatch):
        r = float(north.max())
        monkeypatch.setattr(diag, "BALL_RADIUS", r)
        ball = diag.volume_ratio(round_state, north) * diag.model_cap_area(r, 1.0)
        assert ball == pytest.approx(2.0, abs=1e-10)

    def test_hemisphere(self, round_state, north, monkeypatch):
        # the model cap to the equator is the hemisphere, of area 1
        monkeypatch.setattr(diag, "BALL_RADIUS", 0.5 * math.sqrt(math.pi / 2.0))
        assert diag.volume_ratio(round_state, north) == pytest.approx(1.0, abs=0.05)


class TestSerialization:
    def test_field_round_trip_csv(self, tmp_path, round_state):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(round_state.grid.n)
        p = tmp_path / "field.csv"
        geo.save_field(str(p), f)
        assert np.array_equal(geo.load_field(str(p)), f)
