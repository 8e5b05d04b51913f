"""Tests for the nonlinear solver in the metric-tensor pairing.

Residuals and recovery are pinned against one-element hand calculations;
every tangent block is compared with a central finite-difference Jacobian
of the residuals themselves.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (end_load_bcs, fd_tangent_blocks, random_admissible_state,
                      relative_frobenius, scripted_search)
from ddfem import solver_cs
from ddfem.data_gen import Family, GeneratorSpec, generate
from ddfem.fem import (BoundaryConditions, line_mesh, rect_mesh,
                       stiffness_vector)
from ddfem.phase_space import DataSet, PairingKind
from ddfem.solver_cs import (CsConfig, NewtonError, newton_solve,
                             recover_states_cs, residual_lambda, residual_u,
                             solve_cs, tangent_blocks)


def cs_set(strains, stresses, mu0):
    strains = np.asarray(strains, dtype=float).reshape(-1, 1)
    stresses = np.asarray(stresses, dtype=float).reshape(-1, 1)
    return DataSet(PairingKind.CS, 1, strains, stresses, mu0=mu0,
                   validate=False)


def qp_field(mesh, tensor):
    quad = mesh.quadrature()
    tensor = np.asarray(tensor, dtype=float)
    return np.broadcast_to(tensor, (mesh.n_elements, quad.nqp)
                           + tensor.shape).copy()


class TestResiduals:
    def test_rest_state_with_reference_data_is_residual_free(self, rod_mesh):
        z = np.zeros(rod_mesh.n_dofs)
        c_star = qp_field(rod_mesh, np.eye(1))
        s_star = qp_field(rod_mesh, np.zeros((1, 1)))
        assert_allclose(residual_u(rod_mesh, z, z, c_star, s_star, 2.0), 0.0,
                        atol=1e-18)
        assert_allclose(
            residual_lambda(rod_mesh, z, z, s_star, 2.0, np.zeros_like(z)),
            0.0, atol=1e-18)

    def test_single_element_strain_mismatch_value(self):
        # u' = 0.1 against C* = 1: nodal force 2 mu0 F (C - C*) A
        mesh = line_mesh(1.0, 1, area=2.0)
        mu0 = 1.5
        u = 0.1 * mesh.nodes[:, 0]
        lam = np.zeros(mesh.n_dofs)
        r = residual_u(mesh, u, lam, qp_field(mesh, np.eye(1)),
                       qp_field(mesh, np.zeros((1, 1))), mu0)
        value = 2.0 * mu0 * 1.1 * 0.21 * 2.0
        assert_allclose(r, [-value, value], rtol=1e-13)

    def test_balanced_stress_data_is_in_equilibrium_on_free_dofs(
            self, rod_mesh):
        n0 = 12.0
        bcs = end_load_bcs(rod_mesh, n0)
        z = np.zeros(rod_mesh.n_dofs)
        s_star = qp_field(rod_mesh, np.array([[n0 / rod_mesh.area]]))
        r = residual_lambda(rod_mesh, z, z, s_star, 2.0,
                            bcs.external_force(rod_mesh))
        assert_allclose(r[1:], 0.0, atol=1e-12)
        # the fixed end carries the reaction
        assert_allclose(r[0], -n0, rtol=1e-14)

    def test_zero_stress_data_reflects_the_applied_load(self, rod_mesh):
        bcs = end_load_bcs(rod_mesh, 9.0)
        z = np.zeros(rod_mesh.n_dofs)
        f_ext = bcs.external_force(rod_mesh)
        r = residual_lambda(rod_mesh, z, z,
                            qp_field(rod_mesh, np.zeros((1, 1))), 2.0, f_ext)
        assert np.array_equal(r, -f_ext)


class TestRecovery:
    def test_zero_multiplier_returns_the_data_stress(self, rod_mesh):
        z = np.zeros(rod_mesh.n_dofs)
        s_star = qp_field(rod_mesh, np.array([[4.2e5]]))
        c, s = recover_states_cs(rod_mesh, z, z, s_star, 3.0)
        assert np.array_equal(s, s_star)
        assert_allclose(c, 1.0, atol=1e-18)

    def test_multiplier_gradient_shifts_the_stress(self):
        # S = S* + mu0 F lam' = 0 + 1 * 1.2 * 0.1
        mesh = line_mesh(1.0, 1, area=1.0)
        u = 0.2 * mesh.nodes[:, 0]
        lam = 0.1 * mesh.nodes[:, 0]
        c, s = recover_states_cs(mesh, u, lam,
                                 qp_field(mesh, np.zeros((1, 1))), 1.0)
        assert_allclose(c, 1.44, rtol=1e-14)
        assert_allclose(s, 0.12, rtol=1e-14)

    def test_metric_tensor_is_symmetric_in_2d(self, unit_square, rng):
        u = 0.1 * rng.normal(size=unit_square.n_dofs)
        lam = 0.05 * rng.normal(size=unit_square.n_dofs)
        s_star = qp_field(unit_square, np.zeros((2, 2)))
        c, _ = recover_states_cs(unit_square, u, lam, s_star, 1.0)
        assert_allclose(c, np.swapaxes(c, -1, -2), atol=1e-15)


class TestTangents:
    def test_reference_state_multiplier_block_is_the_scaled_laplacian(
            self, rod_mesh):
        mu0 = 2.0
        z = np.zeros(rod_mesh.n_dofs)
        c_star = qp_field(rod_mesh, np.eye(1))
        s_star = qp_field(rod_mesh, np.zeros((1, 1)))
        k_uu, k_ul, k_lu, k_ll = tangent_blocks(rod_mesh, z, z, c_star,
                                                s_star, mu0)
        laplacian = stiffness_vector(rod_mesh, mu0)
        assert_allclose(k_ll.toarray(), laplacian.toarray(), rtol=1e-13,
                        atol=1e-16)
        assert k_ul.count_nonzero() == 0 or np.max(np.abs(k_ul.toarray())) == 0.0
        assert np.max(np.abs(k_lu.toarray())) == 0.0

    @pytest.mark.parametrize("builder", [
        lambda: line_mesh(1.0, 3, area=0.7),
        lambda: rect_mesh(1.0, 0.8, 2, 2),
    ])
    def test_blocks_match_finite_differences(self, builder, rng):
        mesh = builder()
        mu0 = 1.7
        u, lam, c_star, s_star = random_admissible_state(mesh, rng, mu0)
        k_uu, k_ul, k_lu, k_ll = tangent_blocks(mesh, u, lam, c_star, s_star,
                                                mu0)
        fd_uu, fd_ul, fd_lu, fd_ll = fd_tangent_blocks(mesh, u, lam, c_star,
                                                       s_star, mu0)
        assert relative_frobenius(k_uu.toarray(), fd_uu) < 1e-6
        assert relative_frobenius(k_ul.toarray(), fd_ul) < 1e-6
        assert relative_frobenius(k_lu.toarray(), fd_lu) < 1e-6
        assert relative_frobenius(k_ll.toarray(), fd_ll) < 1e-6

    def test_block_structure(self, unit_square, rng):
        mu0 = 1.3
        u, lam, c_star, s_star = random_admissible_state(unit_square, rng,
                                                         mu0)
        k_uu, k_ul, k_lu, k_ll = tangent_blocks(unit_square, u, lam, c_star,
                                                s_star, mu0)
        k_uu = k_uu.toarray()
        k_ll = k_ll.toarray()
        scale = np.max(np.abs(k_uu))
        assert np.max(np.abs(k_uu - k_uu.T)) <= 1e-12 * scale
        assert np.max(np.abs(k_ll - k_ll.T)) <= 1e-12 * np.max(np.abs(k_ll))
        # the coupling blocks are exact negative transposes of each other
        coupling = k_ul.toarray() + k_lu.toarray().T
        assert np.max(np.abs(coupling)) <= 1e-12 * np.max(np.abs(k_ul.toarray()))
        eigs = np.linalg.eigvalsh(k_ll)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)


class TestNewton:
    def test_consistent_start_needs_zero_iterations(self, rod_mesh):
        c_star = qp_field(rod_mesh, np.eye(1))
        s_star = qp_field(rod_mesh, np.zeros((1, 1)))
        bcs = end_load_bcs(rod_mesh, 0.0)
        u, lam, iters, history = newton_solve(rod_mesh, bcs, c_star, s_star,
                                              2.0, CsConfig())
        assert iters == 0
        assert history == [0.0]
        assert_allclose(u, 0.0, atol=1e-18)

    def test_uniform_stretch_data_is_solved_to_machine_precision(
            self, rod_mesh):
        # C* = 1.21 with balanced S*: the exact answer is the linear ramp
        s_ex = 2.4e5
        f_ex = 1.1
        n0 = f_ex * s_ex * rod_mesh.area
        bcs = end_load_bcs(rod_mesh, n0)
        c_star = qp_field(rod_mesh, np.array([[f_ex ** 2]]))
        s_star = qp_field(rod_mesh, np.array([[s_ex]]))
        config = CsConfig(mu0=4.0e5)
        u, lam, iters, _ = newton_solve(rod_mesh, bcs, c_star, s_star, 4.0e5,
                                        config)
        assert_allclose(u, 0.1 * rod_mesh.nodes[:, 0], rtol=1e-7)
        assert_allclose(lam, 0.0, atol=1e-10)
        assert iters <= 6

    def test_unreachable_load_raises_with_history(self, rod_mesh):
        bcs = end_load_bcs(rod_mesh, 500.0)
        c_star = qp_field(rod_mesh, np.eye(1))
        s_star = qp_field(rod_mesh, np.zeros((1, 1)))
        config = CsConfig(newton_maxit=2, mu0=1.0e4)
        with pytest.raises(NewtonError, match="Newton") as excinfo:
            newton_solve(rod_mesh, bcs, c_star, s_star, 1.0e4, config)
        assert len(excinfo.value.history) >= 2
        assert all(np.isfinite(h) for h in excinfo.value.history)

    def test_backtracking_reaches_the_same_answer(self, rod_mesh):
        s_ex = 2.4e5
        n0 = 1.1 * s_ex * rod_mesh.area
        bcs = end_load_bcs(rod_mesh, n0)
        c_star = qp_field(rod_mesh, np.array([[1.21]]))
        s_star = qp_field(rod_mesh, np.array([[s_ex]]))
        plain = newton_solve(rod_mesh, bcs, c_star, s_star, 4.0e5, CsConfig())
        guarded = newton_solve(rod_mesh, bcs, c_star, s_star, 4.0e5,
                               CsConfig(line_search="backtracking"))
        assert_allclose(guarded[0], plain[0], rtol=1e-9, atol=1e-14)


class TestSolveCs:
    def test_rest_state_converges_without_newton_steps(self, rod_mesh):
        data = cs_set([1.0, 1.4, 0.7], [0.0, 2.0e5, -1.5e5], mu0=4.0e5)
        report = solve_cs(rod_mesh, end_load_bcs(rod_mesh, 0.0), data)
        assert report.converged
        assert report.data_iterations == 1
        assert report.newton_history == [0]
        assert report.global_penalty == 0.0
        assert np.all(report.assigned == 0)
        assert_allclose(report.u, 0.0, atol=1e-18)

    def test_consistent_data_fixed_point_in_two_passes(self, rod_mesh):
        # (C, S) = (1.5625, 0.24 MPa) balances the end load exactly
        s_ex, lam_ex = 2.4e5, 1.25
        n0 = lam_ex * s_ex * rod_mesh.area
        data = cs_set([1.0, lam_ex ** 2, 2.2, 0.82],
                      [0.0, s_ex, 6.0e5, -2.0e5], mu0=4.0e5)
        report = solve_cs(rod_mesh, end_load_bcs(rod_mesh, n0), data)
        assert report.converged
        assert report.termination == "fixed-point"
        assert report.data_iterations <= 2
        assert np.all(report.assigned == 1)
        assert report.global_penalty <= 1e-15
        assert_allclose(report.u, 0.25 * rod_mesh.nodes[:, 0], rtol=1e-8)
        assert_allclose(report.lam, 0.0, atol=1e-9)
        assert report.newton_history[-1] <= 6
        assert report.diagnostics["stress_asymmetry"] <= 1e-12

    def test_dense_data_recovers_the_large_stretch_answer(self, rod_mesh):
        c1 = 1.0e6 / 6.0
        spec = GeneratorSpec(Family.NEOHOOKE, c1=c1, n=200,
                             stretch_range=(1.0, 3.2),
                             pairing=PairingKind.CS)
        data = generate(spec)
        load = 3.5 * c1 * rod_mesh.area  # P at lam = 2
        report = solve_cs(rod_mesh, end_load_bcs(rod_mesh, load), data)
        assert report.converged
        spacing = 2.2 / 199
        assert_allclose(report.u[-1], 0.1, atol=0.15 * spacing)
        assert report.diagnostics["equilibrium_residual"] <= 1e-9

    def test_load_continuation_matches_the_single_step_answer(self, rod_mesh):
        c1 = 1.0e6 / 6.0
        spec = GeneratorSpec(Family.NEOHOOKE, c1=c1, n=150,
                             stretch_range=(1.0, 3.2),
                             pairing=PairingKind.CS)
        data = generate(spec)
        load = 3.5 * c1 * rod_mesh.area
        bcs = end_load_bcs(rod_mesh, load)
        one = solve_cs(rod_mesh, bcs, data, CsConfig(load_steps=1))
        ramped = solve_cs(rod_mesh, bcs, data, CsConfig(load_steps=4))
        assert ramped.converged
        assert len(ramped.newton_history) >= 4
        spacing = 2.2 / 149
        assert_allclose(ramped.u[-1], one.u[-1], atol=0.2 * spacing)

    def test_iteration_cap_reports_the_best_state_as_nonconverged(
            self, rod_mesh):
        c1 = 1.0e6 / 6.0
        spec = GeneratorSpec(Family.NEOHOOKE, c1=c1, n=400,
                             stretch_range=(1.0, 3.2),
                             pairing=PairingKind.CS)
        data = generate(spec)
        load = 3.5 * c1 * rod_mesh.area
        report = solve_cs(rod_mesh, end_load_bcs(rod_mesh, load), data,
                          CsConfig(max_data_iterations=1))
        assert not report.converged
        assert report.termination == "max-iterations"
        assert report.global_penalty == min(report.penalty_history)

    def test_thread_count_does_not_change_the_result(self, rod_mesh):
        c1 = 1.0e6 / 6.0
        spec = GeneratorSpec(Family.NEOHOOKE, c1=c1, n=250,
                             stretch_range=(1.0, 3.2),
                             pairing=PairingKind.CS)
        data = generate(spec)
        bcs = end_load_bcs(rod_mesh, 40.0)
        one = solve_cs(rod_mesh, bcs, data, CsConfig(threads=1))
        five = solve_cs(rod_mesh, bcs, data, CsConfig(threads=5))
        assert np.array_equal(one.assigned, five.assigned)
        assert np.array_equal(one.u, five.u)
        assert one.global_penalty == five.global_penalty

    def test_wrong_pairing_is_rejected(self, rod_mesh):
        data = DataSet(PairingKind.FP, 1, np.array([[1.0]]),
                       np.array([[0.0]]), mu0=1.0, validate=False)
        with pytest.raises(ValueError, match="CS"):
            solve_cs(rod_mesh, end_load_bcs(rod_mesh, 1.0), data)

    @pytest.mark.parametrize("kwargs", [
        dict(newton_tol=0.0),
        dict(load_steps=0),
        dict(newton_maxit=0),
        dict(line_search="bisection"),
        dict(ls_factor=1.0),
        dict(threads=0),
    ])
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            CsConfig(**kwargs)


class TestTermination:
    """One test per way the assignment loop stops.

    A scripted search fixes the sequence of assignments; tuple 1,
    (C, S) = (1.5625, 0.24 MPa), balances the end load exactly.
    """

    @pytest.fixture
    def problem(self, rod_mesh):
        data = cs_set([1.0, 1.5625, 2.2, 0.82], [0.0, 2.4e5, 6.0e5, -2.0e5],
                      mu0=4.0e5)
        return rod_mesh, end_load_bcs(rod_mesh, 1.25 * 2.4e5 * rod_mesh.area), data

    def test_fixed_point(self, problem, monkeypatch):
        monkeypatch.setattr(solver_cs, "nearest_many", scripted_search(2, 1, 1))
        report = solve_cs(*problem)
        assert report.converged
        assert report.termination == "fixed-point"
        assert report.data_iterations == 2
        assert np.all(report.assigned == 1)

    def test_cycle_rolls_back_to_the_best_visited_state(self, problem,
                                                        monkeypatch):
        # passes visit 2, 1, 2; the search then proposes 1 again
        monkeypatch.setattr(solver_cs, "nearest_many",
                            scripted_search(2, 1, 2, 1))
        report = solve_cs(*problem)
        assert report.converged
        assert report.termination == "cycle"
        assert report.data_iterations == 3
        assert np.all(report.assigned == 1)
        assert report.global_penalty == min(report.penalty_history[:3])
        assert report.penalty_history[-1] == report.global_penalty
        assert_allclose(report.u, 0.25 * problem[0].nodes[:, 0], rtol=1e-8)

    def test_cycle_rollback_warm_starts_the_next_load_step(self, rod_mesh,
                                                          monkeypatch):
        # tuple 1 balances half the load, so step 1 cycles 2, 1, 2 and
        # must hand tuple 1 and its fields to step 2
        data = cs_set([1.0, 1.5625, 2.2, 0.82], [0.0, 2.4e5, 6.0e5, -2.0e5],
                      mu0=4.0e5)
        bcs = end_load_bcs(rod_mesh, 2.0 * 1.25 * 2.4e5 * rod_mesh.area)
        calls = []
        newton = solver_cs.newton_solve

        def recording_newton(mesh, bcs, c_star, s_star, mu0, config, **kw):
            result = newton(mesh, bcs, c_star, s_star, mu0, config, **kw)
            calls.append((float(c_star[0, 0, 0, 0]), kw["u0"].copy(), result[0]))
            return result

        monkeypatch.setattr(solver_cs, "newton_solve", recording_newton)
        monkeypatch.setattr(solver_cs, "nearest_many",
                            scripted_search(2, 1, 2, 1, 1))
        report = solve_cs(rod_mesh, bcs, data, CsConfig(load_steps=2))
        assert report.termination == "fixed-point"
        assert [c for c, _, _ in calls] == [2.2, 1.5625, 2.2, 1.5625]
        # step 2 starts from the fields step 1 found with tuple 1
        assert np.array_equal(calls[3][1], calls[1][2])

    def test_iteration_cap_rolls_back_to_the_best_visited_state(
            self, problem, monkeypatch):
        monkeypatch.setattr(solver_cs, "nearest_many",
                            scripted_search(2, 1, 3, 0))
        report = solve_cs(*problem, CsConfig(max_data_iterations=3))
        assert not report.converged
        assert report.termination == "max-iterations"
        assert report.data_iterations == 3
        assert np.all(report.assigned == 1)
        assert report.global_penalty == min(report.penalty_history)
        assert_allclose(report.u, 0.25 * problem[0].nodes[:, 0], rtol=1e-8)
