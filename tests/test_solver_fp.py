"""Tests for the alternating solver in the deformation-gradient pairing.

The two constrained Laplacian solves are pinned against hand-solved rod
and patch problems; the recovered stress field is required to satisfy
the discrete equilibrium identity, which the tests recompute
independently from the reported states.
"""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (NON_FINITE_BCS, count_factorizations, count_operator_builds,
                      end_load_bcs, fp_equilibrium_residual, non_finite_bcs, same_report,
                      scripted_search)
from ddfem import solver_fp
from ddfem.data_gen import Family, GeneratorSpec, generate
from ddfem.fem import (BoundaryConditions, ReducedSystem, divergence_rhs, factorize,
                       free_dofs, gradient_field, line_mesh, stiffness_vector)
from ddfem.phase_space import DataSet, PairingKind
from ddfem.solver_fp import FpConfig, recover_states, solve_fp


def fp_set(strains, stresses, mu0=1.0):
    strains = np.asarray(strains, dtype=float).reshape(-1, 1)
    stresses = np.asarray(stresses, dtype=float).reshape(-1, 1)
    return DataSet(PairingKind.FP, 1, strains, stresses, mu0=mu0,
                   validate=False)


def laplacian_solve(mesh, mu0, constraints, rhs):
    """One of FP's linear solves: the mu0-scaled Laplacian with the
    prescribed (dofs, values) of `constraints` eliminated."""
    fixed, values = constraints
    red = ReducedSystem(stiffness_vector(mesh, mu0), fixed)
    return red.expand(factorize(red.k_ff).solve(red.rhs(rhs, values)), values)


class TestSingleSystems:
    def test_identity_gradients_leave_the_body_at_rest(self, rod_mesh):
        bcs = end_load_bcs(rod_mesh, 0.0)
        quad = rod_mesh.quadrature()
        f_star = np.ones((rod_mesh.n_elements, quad.nqp, 1, 1))
        u = laplacian_solve(rod_mesh, 2.0, bcs.fixed_dofs(rod_mesh),
                            2.0 * divergence_rhs(rod_mesh, f_star - np.eye(1)))
        assert_allclose(u, 0.0, atol=1e-18)

    def test_uniform_stretch_data_gives_the_linear_ramp(self, rod_mesh):
        bcs = end_load_bcs(rod_mesh, 0.0)
        quad = rod_mesh.quadrature()
        f_star = np.full((rod_mesh.n_elements, quad.nqp, 1, 1), 1.1)
        u = laplacian_solve(rod_mesh, 2.0, bcs.fixed_dofs(rod_mesh),
                            2.0 * divergence_rhs(rod_mesh, f_star - np.eye(1)))
        assert_allclose(u, 0.1 * rod_mesh.nodes[:, 0], rtol=1e-12,
                        atol=1e-16)

    def test_constant_gradient_with_matching_boundary_is_affine(
            self, unit_square):
        f_bar = np.array([[1.05, 0.02], [0.01, 0.97]])
        grad = f_bar - np.eye(2)
        boundary = np.flatnonzero(
            np.isclose(unit_square.nodes[:, 0], 0.0)
            | np.isclose(unit_square.nodes[:, 0], 1.0)
            | np.isclose(unit_square.nodes[:, 1], 0.0)
            | np.isclose(unit_square.nodes[:, 1], 1.0))
        dirichlet = []
        for n in boundary:
            ux, uy = grad @ unit_square.nodes[n]
            dirichlet += [(int(n), 0, float(ux)), (int(n), 1, float(uy))]
        bcs = BoundaryConditions(dirichlet=dirichlet)
        quad = unit_square.quadrature()
        f_star = np.broadcast_to(
            f_bar, (unit_square.n_elements, quad.nqp, 2, 2))
        u = laplacian_solve(unit_square, 1.5, bcs.fixed_dofs(unit_square),
                            1.5 * divergence_rhs(unit_square, f_star - np.eye(2)))
        assert_allclose(gradient_field(unit_square, u),
                        np.broadcast_to(grad, f_star.shape), atol=1e-12)

    def test_balanced_stress_data_needs_no_multiplier(self, rod_mesh):
        n0 = 5.0
        bcs = end_load_bcs(rod_mesh, n0)
        quad = rod_mesh.quadrature()
        p_star = np.full((rod_mesh.n_elements, quad.nqp, 1, 1),
                         n0 / rod_mesh.area)
        fixed, _ = bcs.fixed_dofs(rod_mesh)
        lam = laplacian_solve(
            rod_mesh, 2.0, (fixed, np.zeros(fixed.size)),
            divergence_rhs(rod_mesh, p_star) - bcs.external_force(rod_mesh))
        assert_allclose(lam, 0.0, atol=1e-12)

    def test_zero_loads_zero_stress_data(self, rod_mesh):
        bcs = end_load_bcs(rod_mesh, 0.0)
        quad = rod_mesh.quadrature()
        p_star = np.zeros((rod_mesh.n_elements, quad.nqp, 1, 1))
        fixed, _ = bcs.fixed_dofs(rod_mesh)
        lam = laplacian_solve(
            rod_mesh, 2.0, (fixed, np.zeros(fixed.size)),
            divergence_rhs(rod_mesh, p_star) - bcs.external_force(rod_mesh))
        assert_allclose(lam, 0.0, atol=1e-18)

    def test_recovery_subtracts_the_scaled_multiplier_gradient(self):
        # P = P* - mu0 lam' = 3 - 2 * 0.5
        mesh = line_mesh(1.0, 4, area=1.0)
        u = 0.1 * mesh.nodes[:, 0]
        lam = 0.5 * mesh.nodes[:, 0]
        quad = mesh.quadrature()
        p_star = np.full((mesh.n_elements, quad.nqp, 1, 1), 3.0)
        f, p = recover_states(mesh, u, lam, p_star, mu0=2.0)
        assert_allclose(f, 1.1, rtol=1e-14)
        assert_allclose(p, 2.0, rtol=1e-14)

    def test_zero_multiplier_returns_the_data_stress(self, rod_mesh):
        quad = rod_mesh.quadrature()
        p_star = np.full((rod_mesh.n_elements, quad.nqp, 1, 1), 7.25)
        f, p = recover_states(rod_mesh, np.zeros(rod_mesh.n_dofs),
                              np.zeros(rod_mesh.n_dofs), p_star, mu0=3.0)
        assert np.array_equal(p, p_star)
        assert_allclose(f, 1.0, atol=1e-18)


class TestSolveFp:
    @pytest.mark.parametrize("entry, message", NON_FINITE_BCS)
    def test_non_finite_boundary_values_raise_before_the_first_search(
            self, rod_mesh, monkeypatch, entry, message):
        searches = []
        monkeypatch.setattr(solver_fp, "nearest_many", lambda *a, **kw: searches.append(a))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_fp(rod_mesh, non_finite_bcs(entry), fp_set([1.0, 1.5], [0.0, 1.0e5]))
        assert searches == []

    def test_consistent_data_fixed_point_in_two_iterations(self, rod_mesh):
        # the equilibrium state (1.25, 0.3 MPa) is in the set, so the
        # second pass reproduces its own assignment exactly
        p_exact = 0.3e6
        data = fp_set([1.0, 1.25, 1.6, 0.8],
                      [0.0, p_exact, 0.9e6, -0.4e6], mu0=1.0e6)
        bcs = end_load_bcs(rod_mesh, p_exact * rod_mesh.area)
        report = solve_fp(rod_mesh, bcs, data)
        assert report.converged
        assert report.termination == "fixed-point"
        assert report.data_iterations <= 2
        assert report.global_penalty <= 1e-20
        assert np.all(report.assigned == 1)
        assert_allclose(report.u, 0.25 * rod_mesh.nodes[:, 0], rtol=1e-12)
        assert_allclose(report.lam, 0.0, atol=1e-12 * 0.25)

    def test_two_solves_on_one_mesh_build_one_operator(self, rod_mesh, monkeypatch):
        builds = count_operator_builds(monkeypatch)
        data = fp_set([1.0, 1.25, 1.6, 0.8], [0.0, 0.3e6, 0.9e6, -0.4e6], mu0=1.0e6)
        bcs = end_load_bcs(rod_mesh, 0.3e6 * rod_mesh.area)
        first, second = (solve_fp(rod_mesh, bcs, data) for _ in range(2))
        assert first.converged and len(builds) == 1
        assert np.array_equal(first.u, second.u)

    def test_rest_state_converges_in_one_iteration(self, rod_mesh):
        data = fp_set([0.9, 1.0, 1.1], [-0.5, 0.0, 0.5])
        report = solve_fp(rod_mesh, end_load_bcs(rod_mesh, 0.0), data)
        assert report.converged
        assert report.data_iterations == 1
        assert np.all(report.assigned == 1)
        assert_allclose(report.u, 0.0, atol=1e-18)
        assert_allclose(report.lam, 0.0, atol=1e-18)
        assert report.global_penalty == 0.0

    def test_dense_data_recovers_the_rod_answer(self, rod_mesh):
        c1 = 1.0e6 / 6.0
        spec = GeneratorSpec(Family.NEOHOOKE, c1=c1, n=200,
                             stretch_range=(1.0, 3.2))
        data = generate(spec)
        load = 3.5 * c1 * rod_mesh.area  # P(lam=2)
        report = solve_fp(rod_mesh, end_load_bcs(rod_mesh, load), data)
        assert report.converged
        # the fixed point sits within one data spacing of the analytic lam
        spacing = 2.2 / 199
        assert_allclose(report.u[-1], 0.1, atol=0.1 * spacing)
        assert np.all(np.diff(report.u) > 0.0)

    def test_global_penalty_is_the_weighted_sum_of_the_local_ones(self, rod_mesh):
        c1 = 1.0e6 / 6.0
        data = generate(GeneratorSpec(Family.NEOHOOKE, c1=c1, n=40,
                                      stretch_range=(1.0, 3.2)))
        report = solve_fp(rod_mesh, end_load_bcs(rod_mesh, 3.5 * c1 * rod_mesh.area), data)
        weights = rod_mesh.quadrature().weights
        assert report.global_penalty > 0.0
        assert report.global_penalty == np.dot(weights.ravel(),
                                               report.local_penalties.ravel())
        assert report.penalty_history[-1] == report.global_penalty
        assert report.diagnostics["equilibrium_residual"] == report.residual_history[-1]
        assert report.timings["total"] > 0.0

    @pytest.mark.parametrize("penalty_tol", [0.0, -1e-12, np.inf, np.nan])
    def test_penalty_tol_must_be_positive_and_finite(self, penalty_tol):
        with pytest.raises(ValueError, match="^tolerances must be positive"):
            FpConfig(penalty_tol=penalty_tol)

    def test_recovered_stresses_balance_the_loads(self, rod_mesh):
        # coarse, inconsistent data: the penalty stays finite but the
        # multiplier construction still balances the recovered stresses
        data = fp_set([1.0, 1.4, 1.9, 2.6], [0.0, 0.35e6, 0.8e6, 1.5e6],
                      mu0=0.9e6)
        bcs = end_load_bcs(rod_mesh, 55.0)
        report = solve_fp(rod_mesh, bcs, data)
        assert report.global_penalty > 0.0
        res = fp_equilibrium_residual(rod_mesh, bcs, report)
        assert res <= 1e-9 * np.linalg.norm(bcs.external_force(rod_mesh))

    def test_plane_strain_patch_with_consistent_tuple(self, unit_square):
        t = 1000.0
        eps_xx, eps_yy = 8.0 / 9.0e3, -4.0 / 9.0e3
        exact_f = np.eye(2) + np.diag([eps_xx, eps_yy])
        exact_p = np.diag([t, 0.0])
        strains = [np.eye(2), exact_f, np.diag([1.002, 0.999]),
                   np.diag([0.998, 1.001])]
        stresses = [np.zeros((2, 2)), exact_p, np.diag([2.2e3, 0.3e3]),
                    np.diag([-1.9e3, -0.2e3])]
        data = DataSet(PairingKind.FP, 2,
                       np.array([s.ravel() for s in strains]),
                       np.array([s.ravel() for s in stresses]),
                       mu0=1.0e6)
        bcs = BoundaryConditions(
            dirichlet=[(int(n), 0, 0.0) for n in unit_square.nodesets["left"]]
            + [(int(n), 1, 0.0) for n in unit_square.nodesets["bottom"]],
            tractions=[(face, np.array([t, 0.0]))
                       for face in unit_square.facesets["right"]])
        report = solve_fp(unit_square, bcs, data)
        assert report.converged
        assert np.all(report.assigned == 1)
        assert report.global_penalty <= 1e-16
        expected = np.column_stack([eps_xx * unit_square.nodes[:, 0],
                                    eps_yy * unit_square.nodes[:, 1]])
        assert_allclose(report.u.reshape(-1, 2), expected, rtol=1e-10,
                        atol=1e-14)
        res = fp_equilibrium_residual(unit_square, bcs, report)
        assert res <= 1e-9 * np.linalg.norm(bcs.external_force(unit_square))

    def test_iteration_cap_reports_the_best_visited_state(self, rod_mesh):
        c1 = 1.0e6 / 6.0
        data = generate(GeneratorSpec(Family.NEOHOOKE, c1=c1, n=500,
                                      stretch_range=(1.0, 3.2)))
        config = FpConfig(max_data_iterations=1)
        report = solve_fp(rod_mesh, end_load_bcs(rod_mesh, 40.0), data,
                          config)
        assert not report.converged
        assert report.termination == "max-iterations"
        assert report.global_penalty == min(report.penalty_history)

    def test_penalty_history_reaches_a_fixed_point_monotonically(
            self, rod_mesh):
        c1 = 1.0e6 / 6.0
        data = generate(GeneratorSpec(Family.NEOHOOKE, c1=c1, n=50,
                                      stretch_range=(1.0, 3.2)))
        report = solve_fp(rod_mesh, end_load_bcs(rod_mesh, 40.0), data)
        assert report.converged
        assert len(report.penalty_history) == report.data_iterations
        diffs = np.diff(report.penalty_history)
        assert np.all(diffs <= 1e-12 * max(report.penalty_history))

    def test_one_factorization_per_solve(self, rod_mesh, monkeypatch):
        built = count_factorizations(monkeypatch)
        data = fp_set([1.0, 1.4, 1.9, 2.6], [0.0, 0.35e6, 0.8e6, 1.5e6],
                      mu0=0.9e6)
        bcs = end_load_bcs(rod_mesh, 55.0)
        report = solve_fp(rod_mesh, bcs, data)
        assert report.data_iterations > 1
        assert len(built) == 1
        assert np.all(report.lam[bcs.fixed_dofs(rod_mesh)[0]] == 0.0)
        res = fp_equilibrium_residual(rod_mesh, bcs, report)
        assert res <= 1e-9 * np.linalg.norm(bcs.external_force(rod_mesh))

    def test_an_equal_key_reuses_the_kept_factor(self, rod_mesh, monkeypatch):
        built = count_factorizations(monkeypatch)
        data = generate(GeneratorSpec(Family.NEOHOOKE, c1=1.0e6 / 6.0, n=60,
                                      stretch_range=(1.0, 3.2)))
        solve_fp(rod_mesh, end_load_bcs(rod_mesh, 45.0), data)
        kept = rod_mesh.quadrature().fp_system
        # another load, dataset and config with the same mu0 and Dirichlet set
        other = DataSet(PairingKind.FP, 1, data.strains[::2], data.stresses[::2],
                        mu0=data.mu0)
        bcs = end_load_bcs(rod_mesh, 30.0)
        second = solve_fp(rod_mesh, bcs, other, FpConfig(threads=2))
        assert len(built) == 1
        assert rod_mesh.quadrature().fp_system is kept
        fresh = solve_fp(line_mesh(0.1, 10, area=1.0e-4), bcs, other)
        assert len(built) == 2
        assert same_report(second, fresh)

    def test_another_mu0_or_dirichlet_set_replaces_the_kept_factor(
            self, rod_mesh, monkeypatch):
        built = count_factorizations(monkeypatch)
        data = generate(GeneratorSpec(Family.NEOHOOKE, c1=1.0e6 / 6.0, n=60,
                                      stretch_range=(1.0, 3.2)))
        load = end_load_bcs(rod_mesh, 45.0)
        # the tip is prescribed as well: one free dof fewer
        pulled = BoundaryConditions(dirichlet=[(0, 0, 0.0), (rod_mesh.n_nodes - 1, 0, 0.05)])
        cases = [(load, None), (load, 2.0 * data.mu0), (pulled, 2.0 * data.mu0),
                 (load, None)]
        keys = []
        for count, (bcs, mu0) in enumerate(cases, start=1):
            report = solve_fp(rod_mesh, bcs, data, FpConfig(mu0=mu0))
            assert len(built) == count
            key, red, _ = rod_mesh.quadrature().fp_system
            assert key == (report.mu0, bcs.fixed_dofs(rod_mesh)[0].tobytes())
            assert red.free.size == rod_mesh.n_dofs - len(bcs.dirichlet)
            keys.append(key)
            fresh = solve_fp(line_mesh(0.1, 10, area=1.0e-4), bcs, data, FpConfig(mu0=mu0))
            assert same_report(report, fresh)
            built.pop()                         # the fresh mesh's factor
        assert len(set(keys)) == 3 and keys[0] == keys[-1]

    def test_thread_count_does_not_change_the_result(self, rod_mesh):
        c1 = 1.0e6 / 6.0
        data = generate(GeneratorSpec(Family.NEOHOOKE, c1=c1, n=300,
                                      stretch_range=(1.0, 3.2)))
        bcs = end_load_bcs(rod_mesh, 45.0)
        one = solve_fp(rod_mesh, bcs, data, FpConfig(threads=1))
        four = solve_fp(rod_mesh, bcs, data, FpConfig(threads=4))
        assert np.array_equal(one.assigned, four.assigned)
        assert np.array_equal(one.u, four.u)
        assert np.array_equal(one.lam, four.lam)
        assert one.global_penalty == four.global_penalty

    def test_mu0_override_rescales_the_metric(self, rod_mesh):
        data = fp_set([1.0, 1.2], [0.0, 0.2e6], mu0=1.0e6)
        report = solve_fp(rod_mesh, end_load_bcs(rod_mesh, 10.0), data,
                          FpConfig(mu0=2.5e6))
        assert report.mu0 == 2.5e6

    def test_wrong_pairing_is_rejected(self, rod_mesh):
        data = DataSet(PairingKind.CS, 1, np.array([[1.0]]),
                       np.array([[0.0]]), mu0=1.0, validate=False)
        with pytest.raises(ValueError, match="FP"):
            solve_fp(rod_mesh, end_load_bcs(rod_mesh, 1.0), data)

    def test_dimension_mismatch_is_rejected(self, unit_square):
        data = fp_set([1.0, 1.1], [0.0, 1.0])
        bcs = BoundaryConditions(dirichlet=[(0, 0, 0.0), (0, 1, 0.0)])
        with pytest.raises(ValueError, match="dimension"):
            solve_fp(unit_square, bcs, data)

    def test_report_diagnostics_track_the_recovered_fields(self, rod_mesh):
        data = fp_set([1.0, 1.4, 1.9], [0.0, 0.4e6, 0.9e6], mu0=1.0e6)
        bcs = end_load_bcs(rod_mesh, 35.0)
        report = solve_fp(rod_mesh, bcs, data)
        res = fp_equilibrium_residual(rod_mesh, bcs, report)
        f_ext_norm = np.linalg.norm(bcs.external_force(rod_mesh))
        assert_allclose(report.diagnostics["equilibrium_residual"],
                        res / f_ext_norm, rtol=1e-10, atol=1e-15)
        # 1D states cannot violate angular momentum
        assert report.diagnostics["angular_momentum_defect"] == 0.0
        # the update the alternating scheme drops: mu0 div(F - F*) on free u dofs
        f_star = data.strains[report.assigned.ravel()].reshape(report.strains.shape)
        neglected = data.mu0 * divergence_rhs(rod_mesh, report.strains - f_star)
        free_u = free_dofs(rod_mesh.n_dofs, bcs.fixed_dofs(rod_mesh)[0])
        assert report.diagnostics["neglected_term"] == np.linalg.norm(neglected[free_u])


class TestTermination:
    """One test per way the assignment loop stops.

    A scripted search fixes the sequence of assignments; tuple 1 balances
    the end load exactly, so it is the best state every sequence visits.
    Tuple 4 duplicates tuple 1.
    """

    @pytest.fixture
    def problem(self, rod_mesh):
        data = fp_set([1.0, 1.25, 1.6, 0.8, 1.25],
                      [0.0, 0.3e6, 0.9e6, -0.4e6, 0.3e6], mu0=1.0e6)
        return rod_mesh, end_load_bcs(rod_mesh, 0.3e6 * rod_mesh.area), data

    def test_fixed_point(self, problem, monkeypatch):
        monkeypatch.setattr(solver_fp, "nearest_many", scripted_search(2, 1, 1))
        report = solve_fp(*problem)
        assert report.converged
        assert report.termination == "fixed-point"
        assert report.data_iterations == 2
        assert np.all(report.assigned == 1)

    def test_cycle_rolls_back_to_the_best_visited_state(self, problem,
                                                        monkeypatch):
        # passes visit 2, 1; the search then proposes the start 2 again
        monkeypatch.setattr(solver_fp, "nearest_many",
                            scripted_search(2, 1, 2, 1))
        report = solve_fp(*problem)
        assert report.converged
        assert report.termination == "cycle"
        assert report.data_iterations == 2
        assert np.all(report.assigned == 1)
        assert report.global_penalty == min(report.penalty_history[:2])
        assert report.penalty_history[-1] == report.global_penalty
        assert_allclose(report.u, 0.25 * problem[0].nodes[:, 0], rtol=1e-12)

    def test_cycle_back_to_the_start_rolls_back_to_it(self, problem,
                                                      monkeypatch):
        # passes visit 1, 2; the search then proposes the start 1 again
        monkeypatch.setattr(solver_fp, "nearest_many", scripted_search(1, 2, 1))
        report = solve_fp(*problem)
        assert report.termination == "cycle"
        assert report.data_iterations == 2
        assert np.all(report.assigned == 1)
        assert len(report.penalty_history) == 3
        assert report.penalty_history[-1] == report.penalty_history[0]
        assert_allclose(report.u, 0.25 * problem[0].nodes[:, 0], rtol=1e-12)

    def test_iteration_cap_rolls_back_to_the_best_visited_state(
            self, problem, monkeypatch):
        monkeypatch.setattr(solver_fp, "nearest_many",
                            scripted_search(2, 1, 3, 0))
        report = solve_fp(*problem, FpConfig(max_data_iterations=3))
        assert not report.converged
        assert report.termination == "max-iterations"
        assert report.data_iterations == 3
        assert np.all(report.assigned == 1)
        assert report.global_penalty == min(report.penalty_history)
        assert report.penalty_history[-1] == report.global_penalty
        assert_allclose(report.u, 0.25 * problem[0].nodes[:, 0], rtol=1e-12)

    def test_penalty_stagnation(self, problem, monkeypatch):
        # passes visit 2, 1 and its duplicate 4, so the last two penalties
        # are equal although the search still moves
        monkeypatch.setattr(solver_fp, "nearest_many",
                            scripted_search(2, 1, 4, 3))
        report = solve_fp(*problem)
        assert report.converged
        assert report.termination == "penalty-stagnation"
        assert report.data_iterations == 3
        assert np.all(report.assigned == 4)
