"""Tests for the nonlinear solver in the metric-tensor pairing.

Residuals and recovery are pinned against one-element hand calculations;
every tangent block is compared with a central finite-difference Jacobian
of the residuals themselves.
"""

import re
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from conftest import (NON_FINITE_BCS, count_operator_builds, coupled_blocks, end_load_bcs,
                      fd_tangent_blocks, non_finite_bcs, random_admissible_state,
                      relative_frobenius, same_report, scripted_search)
from ddfem import fem, solver_cs
from ddfem.data_gen import Family, GeneratorSpec, generate
from ddfem.fem import (BoundaryConditions, box_mesh, free_dofs, gradient_field,
                       line_mesh, rect_mesh, stiffness_vector)
from ddfem.phase_space import DataSet, PairingKind
from ddfem.reference import LinearElasticLaw, solve_linear_elastic
from ddfem.solver_cs import (CsConfig, JacobianPattern, NewtonError,
                             newton_solve, residual_lambda, residual_u, solve_cs,
                             tangent_blocks)


def cs_set(strains, stresses, mu0):
    strains = np.asarray(strains, dtype=float).reshape(-1, 1)
    stresses = np.asarray(stresses, dtype=float).reshape(-1, 1)
    return DataSet(PairingKind.CS, 1, strains, stresses, mu0=mu0)


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


class TestResidualOperator:
    """The residuals use the mesh's one operator: repeated calls build it
    once, and a new mesh builds its own."""

    def calls(self, mesh, rng):
        u, lam, c_star, s_star = random_admissible_state(mesh, rng, 1.3)
        f_ext = np.zeros(mesh.n_dofs)
        return (lambda m: residual_u(m, u, lam, c_star, s_star, 1.3),
                lambda m: residual_lambda(m, u, lam, s_star, 1.3, f_ext))

    def test_repeated_calls_outside_a_solve_build_at_most_one(self, unit_square, rng,
                                                              monkeypatch):
        builds = count_operator_builds(monkeypatch)
        calls = self.calls(unit_square, rng)
        first = [call(unit_square) for call in calls]
        for call, want in zip(calls * 2, first * 2):
            assert np.array_equal(call(unit_square), want)
        assert len(builds) == 1

    def test_a_new_mesh_gets_its_own_operator(self, unit_square, rng, monkeypatch):
        builds = count_operator_builds(monkeypatch)
        thick = replace(unit_square, area=2.0)
        for call in self.calls(unit_square, rng):
            # the weights, and so the residuals, scale with the thickness
            assert np.array_equal(call(thick), 2.0 * call(unit_square))
        assert len(builds) == 2


class TestRecovery:
    def test_zero_multiplier_returns_the_data_stress(self, rod_mesh):
        z = np.zeros(rod_mesh.n_dofs)
        s_star = qp_field(rod_mesh, np.array([[4.2e5]]))
        c, s = solver_cs._kinematics(rod_mesh, z, z, s_star, 3.0)[2:]
        assert np.array_equal(s, s_star)
        assert_allclose(c, 1.0, atol=1e-18)

    def test_multiplier_gradient_shifts_the_stress(self):
        # S = S* + mu0 F lam' = 0 + 1 * 1.2 * 0.1
        mesh = line_mesh(1.0, 1, area=1.0)
        u = 0.2 * mesh.nodes[:, 0]
        lam = 0.1 * mesh.nodes[:, 0]
        c, s = solver_cs._kinematics(mesh, u, lam,
                                     qp_field(mesh, np.zeros((1, 1))), 1.0)[2:]
        assert_allclose(c, 1.44, rtol=1e-14)
        assert_allclose(s, 0.12, rtol=1e-14)

    def test_metric_tensor_is_symmetric_in_2d(self, unit_square, rng):
        u = 0.1 * rng.normal(size=unit_square.n_dofs)
        lam = 0.05 * rng.normal(size=unit_square.n_dofs)
        s_star = qp_field(unit_square, np.zeros((2, 2)))
        c, _ = solver_cs._kinematics(unit_square, u, lam, s_star, 1.0)[2:]
        assert_allclose(c, np.swapaxes(c, -1, -2), atol=1e-15)


class TestTangents:
    def test_reference_state_multiplier_block_is_the_scaled_laplacian(
            self, rod_mesh):
        mu0 = 2.0
        z = np.zeros(rod_mesh.n_dofs)
        c_star = qp_field(rod_mesh, np.eye(1))
        s_star = qp_field(rod_mesh, np.zeros((1, 1)))
        k_uu, k_ul, k_lu, k_ll = coupled_blocks(
            rod_mesh, tangent_blocks(rod_mesh, z, z, c_star, s_star, mu0))
        laplacian = stiffness_vector(rod_mesh, mu0)
        assert_allclose(k_ll, laplacian.toarray(), rtol=1e-13, atol=1e-16)
        assert np.max(np.abs(k_ul)) == 0.0
        assert np.max(np.abs(k_lu)) == 0.0

    @pytest.mark.parametrize("builder", [
        lambda: line_mesh(1.0, 3, area=0.7),
        lambda: rect_mesh(1.0, 0.8, 2, 2),
        lambda: box_mesh(1.0, 0.6, 0.5, 2, 1, 1),
    ])
    def test_blocks_match_finite_differences(self, builder, rng):
        mesh = builder()
        mu0 = 1.7
        u, lam, c_star, s_star = random_admissible_state(mesh, rng, mu0)
        k_uu, k_ul, k_lu, k_ll = coupled_blocks(
            mesh, tangent_blocks(mesh, u, lam, c_star, s_star, mu0))
        fd_uu, fd_ul, fd_lu, fd_ll = fd_tangent_blocks(mesh, u, lam, c_star,
                                                       s_star, mu0)
        assert relative_frobenius(k_uu, fd_uu) < 1e-6
        assert relative_frobenius(k_ul, fd_ul) < 1e-6
        assert relative_frobenius(k_lu, fd_lu) < 1e-6
        assert relative_frobenius(k_ll, fd_ll) < 1e-6

    @pytest.mark.parametrize("name", ["tangent_blocks", "residual_u", "residual_lambda"])
    @pytest.mark.parametrize("builder", [
        lambda: line_mesh(1.0, 3, area=0.7),
        lambda: rect_mesh(1.0, 0.8, 2, 2),
        lambda: box_mesh(1.0, 0.6, 0.5, 2, 1, 1),
    ])
    def test_passed_kinematics_give_the_same_bits(self, builder, name, rng):
        mesh = builder()
        mu0 = 1.7
        u, lam, c_star, s_star = random_admissible_state(mesh, rng, mu0)
        kin = solver_cs._kinematics(mesh, u, lam, s_star, mu0)
        f_ext = np.linspace(-1.0, 1.0, mesh.n_dofs)
        args = (s_star, mu0, f_ext) if name == "residual_lambda" else (c_star, s_star, mu0)
        call = getattr(solver_cs, name)
        assert np.array_equal(call(mesh, u, lam, *args, kin=kin), call(mesh, u, lam, *args))

    def test_contiguous_transposes_give_the_strided_bits(self, rng, monkeypatch):
        mesh = box_mesh(2.0, 1.0, 1.0, 3, 2, 2)
        mu0 = 1.7
        u, lam, c_star, s_star = random_admissible_state(mesh, rng, mu0)

        def outputs():
            kin = solver_cs._kinematics(mesh, u, lam, s_star, mu0)
            return (*kin, residual_u(mesh, u, lam, c_star, s_star, mu0, kin=kin),
                    tangent_blocks(mesh, u, lam, c_star, s_star, mu0))

        contiguous = outputs()
        # the swapaxes views every batched product took before
        monkeypatch.setattr(solver_cs, "transposed", lambda a: np.swapaxes(a, -1, -2))
        strided = outputs()
        assert all(np.array_equal(a, b) for a, b in zip(contiguous, strided))

    def test_block_structure(self, unit_square, rng):
        mu0 = 1.3
        for mesh in (unit_square, box_mesh(1.0, 0.6, 0.5, 2, 1, 1)):
            u, lam, c_star, s_star = random_admissible_state(mesh, rng, mu0)
            k_uu, k_ul, k_lu, k_ll = coupled_blocks(
                mesh, tangent_blocks(mesh, u, lam, c_star, s_star, mu0))
            scale = np.max(np.abs(k_uu))
            assert np.max(np.abs(k_uu - k_uu.T)) <= 1e-12 * scale
            assert np.max(np.abs(k_ll - k_ll.T)) <= 1e-12 * np.max(np.abs(k_ll))
            # the coupling blocks are exact negative transposes of each other
            coupling = k_ul + k_lu.T
            assert np.max(np.abs(coupling)) <= 1e-12 * np.max(np.abs(k_ul))
            eigs = np.linalg.eigvalsh(k_ll)
            assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)


class TestNewton:
    def test_consistent_start_needs_zero_iterations(self, rod_mesh):
        c_star = qp_field(rod_mesh, np.eye(1))
        s_star = qp_field(rod_mesh, np.zeros((1, 1)))
        bcs = end_load_bcs(rod_mesh, 0.0)
        u, lam, iters, history, _ = newton_solve(rod_mesh, bcs, c_star, s_star,
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
        solver = solver_cs._TangentSolver()
        u, lam, _, _, _ = newton_solve(rod_mesh, bcs, c_star, s_star, 4.0e5,
                                       config, solver=solver)
        assert_allclose(u, 0.1 * rod_mesh.nodes[:, 0], rtol=1e-7)
        assert_allclose(lam, 0.0, atol=1e-10)
        assert solver.tangent_evaluations <= 6

    def test_a_full_step_that_raises_the_residual_is_taken(self, rod_mesh):
        # F = 1.5 from a zero start: the first full step raises the residual
        # sevenfold, and plain Newton still reaches the exact linear ramp
        s_ex = 2.4e5
        bcs = end_load_bcs(rod_mesh, 1.5 * s_ex * rod_mesh.area)
        c_star = qp_field(rod_mesh, np.array([[2.25]]))
        s_star = qp_field(rod_mesh, np.array([[s_ex]]))
        u, lam, _, history, _ = newton_solve(rod_mesh, bcs, c_star, s_star, 4.0e5,
                                             CsConfig())
        assert history[1] > 5.0 * history[0]
        assert_allclose(u, 0.5 * rod_mesh.nodes[:, 0], rtol=1e-9, atol=1e-12)
        assert_allclose(lam, 0.0, atol=1e-10)

    def test_the_warm_start_is_copied_and_left_unchanged(self, rod_mesh):
        s_ex = 2.4e5
        bcs = end_load_bcs(rod_mesh, 1.1 * s_ex * rod_mesh.area)
        c_star = qp_field(rod_mesh, np.array([[1.21]]))
        s_star = qp_field(rod_mesh, np.array([[s_ex]]))
        # nonzero at the clamped dof; the multiplier start is an integer array
        u0 = 0.05 * rod_mesh.nodes[:, 0] + 1.0e-3
        lam0 = np.ones(rod_mesh.n_dofs, dtype=int)
        kept_u0, kept_lam0 = u0.copy(), lam0.copy()
        u, lam, _, _, _ = newton_solve(rod_mesh, bcs, c_star, s_star, 4.0e5,
                                       CsConfig(), u0=u0, lam0=lam0)
        assert np.array_equal(u0, kept_u0) and u0.dtype == kept_u0.dtype
        assert np.array_equal(lam0, kept_lam0) and lam0.dtype == kept_lam0.dtype
        assert u.dtype == lam.dtype == np.float64
        assert u[0] == lam[0] == 0.0
        assert_allclose(u, 0.1 * rod_mesh.nodes[:, 0], rtol=1e-9, atol=1e-12)

    def test_unreachable_load_raises_with_history(self, rod_mesh):
        bcs = end_load_bcs(rod_mesh, 500.0)
        c_star = qp_field(rod_mesh, np.eye(1))
        s_star = qp_field(rod_mesh, np.zeros((1, 1)))
        config = CsConfig(newton_maxit=2, mu0=1.0e4)
        with pytest.raises(NewtonError, match="Newton") as excinfo:
            newton_solve(rod_mesh, bcs, c_star, s_star, 1.0e4, config)
        assert len(excinfo.value.history) >= 2
        assert all(np.isfinite(h) for h in excinfo.value.history)


class TestSolveCs:
    @pytest.mark.parametrize("entry, message", NON_FINITE_BCS)
    def test_non_finite_boundary_values_raise_before_the_first_search(
            self, rod_mesh, monkeypatch, entry, message):
        # an input error, not a Newton residual that is not finite
        searches = []
        monkeypatch.setattr(solver_cs, "nearest_many", lambda *a, **kw: searches.append(a))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_cs(rod_mesh, non_finite_bcs(entry), cs_set([1.0, 1.5], [0.0, 1.0e5], 1.0e5))
        assert searches == []

    def test_rest_state_converges_without_newton_steps(self, rod_mesh):
        data = cs_set([1.0, 1.4, 0.7], [0.0, 2.0e5, -1.5e5], mu0=4.0e5)
        report = solve_cs(rod_mesh, end_load_bcs(rod_mesh, 0.0), data)
        assert report.converged
        assert report.data_iterations == 1
        assert report.newton_history == [0]
        assert report.global_penalty == 0.0
        assert np.all(report.assigned == 0)
        assert_allclose(report.u, 0.0, atol=1e-18)

    def test_newton_evaluates_its_residuals_through_the_public_functions(
            self, rod_mesh, monkeypatch):
        data = cs_set([1.0, 1.5625, 2.2, 0.82], [0.0, 2.4e5, 6.0e5, -2.0e5], mu0=4.0e5)
        bcs = end_load_bcs(rod_mesh, 1.25 * 2.4e5 * rod_mesh.area)
        config = CsConfig(load_steps=2)
        plain = solve_cs(rod_mesh, bcs, data, config)
        calls = {"_kinematics": 0, "residual_u": 0, "residual_lambda": 0}
        for name in calls:
            def spy(*args, real=getattr(solver_cs, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(solver_cs, name, spy)
        spied = solve_cs(rod_mesh, bcs, data, config)
        # one kinematics evaluation per trial (u, lam), and each residual
        # evaluated once on it
        assert calls["_kinematics"] > sum(plain.newton_history) > 0
        assert calls["residual_u"] == calls["residual_lambda"] == calls["_kinematics"]
        assert same_report(spied, plain)
        assert spied.newton_history == plain.newton_history

    def test_two_solves_on_one_mesh_build_one_operator(self, rod_mesh, monkeypatch):
        builds = count_operator_builds(monkeypatch)
        data = cs_set([1.0, 1.5625, 2.2, 0.82], [0.0, 2.4e5, 6.0e5, -2.0e5], mu0=4.0e5)
        bcs = end_load_bcs(rod_mesh, 1.25 * 2.4e5 * rod_mesh.area)
        first, second = (solve_cs(rod_mesh, bcs, data, CsConfig(load_steps=2))
                         for _ in range(2))
        # one operator served every load step of both solves
        assert first.converged and len(builds) == 1
        assert np.array_equal(first.u, second.u)

    def test_dirichlet_dofs_are_collected_once_per_solve(self, rng, monkeypatch):
        collect = fem._collect_dirichlet
        calls = []

        def counted(*args):
            calls.append(args)
            return collect(*args)

        monkeypatch.setattr(fem, "_collect_dirichlet", counted)
        mesh = rect_mesh(1.0, 0.5, 4, 2)
        bcs, data = clamped_tip_bcs(mesh, 0.1), svk_cs_set(2, 300, rng)
        counts = {}
        for cap in (1, 100):
            del calls[:]
            report = solve_cs(mesh, bcs, data,
                              CsConfig(load_steps=2, max_data_iterations=cap))
            counts[report.data_iterations] = len(calls)
        passes = sorted(counts)
        assert passes[0] == 1 and passes[1] > 4
        assert counts[passes[0]] == counts[passes[1]]

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
        assert report.diagnostics["tangent_evaluations"] <= 6
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

    def test_global_penalty_is_the_weighted_sum_of_the_local_ones(self, rod_mesh):
        c1 = 1.0e6 / 6.0
        data = generate(GeneratorSpec(Family.NEOHOOKE, c1=c1, n=40,
                                      stretch_range=(1.0, 3.2), pairing=PairingKind.CS))
        report = solve_cs(rod_mesh, end_load_bcs(rod_mesh, 3.5 * c1 * rod_mesh.area), data,
                          CsConfig(load_steps=2))
        weights = rod_mesh.quadrature().weights
        assert report.global_penalty > 0.0
        assert report.global_penalty == np.dot(weights.ravel(),
                                               report.local_penalties.ravel())
        assert report.penalty_history[-1] == report.global_penalty
        assert len(report.newton_history) >= report.data_iterations
        assert report.timings["total"] > 0.0

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
                       np.array([[0.0]]), mu0=1.0)
        with pytest.raises(ValueError, match="CS"):
            solve_cs(rod_mesh, end_load_bcs(rod_mesh, 1.0), data)

    @pytest.mark.parametrize("kwargs", [
        dict(newton_tol=0.0),
        dict(load_steps=0),
        dict(newton_maxit=0),
        dict(threads=0),
        dict(max_data_iterations=0),
        dict(penalty_tol=0.0),
    ])
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            CsConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [("line_search", "backtracking"),
                                             ("ls_factor", 0.5), ("ls_maxsteps", 8)])
    def test_line_search_fields_are_gone(self, name, value):
        # every full Newton step is the plain step: nothing tunes a line search
        assert name not in {f.name for f in fields(CsConfig)}
        with pytest.raises(TypeError, match=name):
            CsConfig(**{name: value})

    @pytest.mark.parametrize("kwargs", [
        dict(newton_tol=np.inf), dict(newton_tol=np.nan), dict(newton_tol=-1e-10),
        dict(penalty_tol=np.inf), dict(penalty_tol=np.nan)])
    def test_tolerances_must_be_positive_and_finite(self, kwargs):
        with pytest.raises(ValueError, match="^tolerances must be positive"):
            CsConfig(**kwargs)


class TestSiUnits:
    def test_hex8_cantilever_in_si_units_converges(self):
        """Metres and pascals with a prescribed tip deflection and no load:
        newton_tol is then an absolute bound on residuals of order 0.1 N,
        the regime where steps near round-off could stall."""
        e_mod, nu = 1.0e6, 0.3
        mesh = box_mesh(0.02, 0.004, 0.004, 5, 1, 1)
        bcs = clamped_tip_bcs(mesh, 1.0e-3)
        grad = gradient_field(mesh, solve_linear_elastic(mesh, bcs,
                                                         LinearElasticLaw(e_mod, nu)))
        # tuples of a Saint-Venant-Kirchhoff solid along the linear path
        rng = np.random.default_rng(5)
        eps = (0.5 * (grad + np.swapaxes(grad, -1, -2))).reshape(-1, 3, 3)
        f = np.eye(3) + rng.uniform(0.0, 1.2, size=(300, 1, 1)) * eps[
            rng.integers(len(eps), size=300)]
        green = 0.5 * (np.swapaxes(f, -1, -2) @ f - np.eye(3))
        lame = e_mod * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        s = (lame * np.trace(green, axis1=1, axis2=2)[:, None, None] * np.eye(3)
             + e_mod / (1.0 + nu) * green)
        data = DataSet(PairingKind.CS, 3, np.eye(3) + 2.0 * green, s)
        report = solve_cs(mesh, bcs, data, CsConfig(load_steps=2))
        assert not np.any(bcs.external_force(mesh))
        assert report.converged
        assert report.diagnostics["equilibrium_residual"] <= 1e-9


class TestTermination:
    """One test per way the assignment loop stops.

    A scripted search fixes the sequence of assignments; tuple 1,
    (C, S) = (1.5625, 0.24 MPa), balances the end load exactly.  Tuple 4
    duplicates tuple 1.
    """

    @pytest.fixture
    def problem(self, rod_mesh):
        data = cs_set([1.0, 1.5625, 2.2, 0.82, 1.5625],
                      [0.0, 2.4e5, 6.0e5, -2.0e5, 2.4e5], mu0=4.0e5)
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
        # passes visit 2, 1; the search then proposes the start 2 again
        monkeypatch.setattr(solver_cs, "nearest_many",
                            scripted_search(2, 1, 2, 1))
        report = solve_cs(*problem)
        assert report.converged
        assert report.termination == "cycle"
        assert report.data_iterations == 2
        assert np.all(report.assigned == 1)
        assert report.global_penalty == min(report.penalty_history[:2])
        assert report.penalty_history[-1] == report.global_penalty
        assert_allclose(report.u, 0.25 * problem[0].nodes[:, 0], rtol=1e-8)

    def test_cycle_back_to_the_start_rolls_back_to_it(self, problem,
                                                      monkeypatch):
        # passes visit 1, 2; the search then proposes the start 1 again
        monkeypatch.setattr(solver_cs, "nearest_many", scripted_search(1, 2, 1))
        report = solve_cs(*problem)
        assert report.termination == "cycle"
        assert report.data_iterations == 2
        assert np.all(report.assigned == 1)
        assert len(report.penalty_history) == 3
        assert report.penalty_history[-1] == report.penalty_history[0]
        assert_allclose(report.u, 0.25 * problem[0].nodes[:, 0], rtol=1e-8)

    def test_cycle_rollback_warm_starts_the_next_load_step(self, rod_mesh,
                                                          monkeypatch):
        # tuple 1 balances half the load, so step 1 visits 1, 2, cycles
        # back to its start 1 and must hand tuple 1 and the fields of its
        # first pass to step 2
        data = cs_set([1.0, 1.5625, 2.2, 0.82], [0.0, 2.4e5, 6.0e5, -2.0e5],
                      mu0=4.0e5)
        bcs = end_load_bcs(rod_mesh, 2.0 * 1.25 * 2.4e5 * rod_mesh.area)
        calls = []
        newton = solver_cs.newton_solve

        def recording_newton(mesh, bcs, c_star, s_star, mu0, config, **kw):
            result = newton(mesh, bcs, c_star, s_star, mu0, config, **kw)
            u0 = kw["u0"]
            calls.append((float(c_star[0, 0, 0, 0]), None if u0 is None else u0.copy(),
                          result[0]))
            return result

        monkeypatch.setattr(solver_cs, "newton_solve", recording_newton)
        monkeypatch.setattr(solver_cs, "nearest_many",
                            scripted_search(1, 2, 1, 1))
        report = solve_cs(rod_mesh, bcs, data, CsConfig(load_steps=2))
        assert report.termination == "fixed-point"
        assert [c for c, _, _ in calls] == [1.5625, 2.2, 1.5625]
        # the first pass starts from newton_solve's zero fields
        assert calls[0][1] is None
        # step 2 starts from the fields step 1 found with tuple 1
        assert np.array_equal(calls[2][1], calls[0][2])

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
        assert report.penalty_history[-1] == report.global_penalty
        assert_allclose(report.u, 0.25 * problem[0].nodes[:, 0], rtol=1e-8)

    def test_penalty_stagnation(self, problem, monkeypatch):
        # passes visit 2, 1 and its duplicate 4, so the last two penalties
        # are equal although the search still moves
        monkeypatch.setattr(solver_cs, "nearest_many",
                            scripted_search(2, 1, 4, 3))
        report = solve_cs(*problem)
        assert report.converged
        assert report.termination == "penalty-stagnation"
        assert report.data_iterations == 3
        assert np.all(report.assigned == 4)

    def test_penalty_stagnation_compares_passes_of_one_load_step(
            self, problem, monkeypatch):
        # without load both steps solve the same problem: step 1 stops on a
        # fixed point at tuple 1, and step 2's first pass repeats its
        # penalty, which must not end step 2 before its second pass
        mesh, _, data = problem
        monkeypatch.setattr(solver_cs, "nearest_many",
                            scripted_search(1, 1, 4, 3))
        report = solve_cs(mesh, end_load_bcs(mesh, 0.0), data,
                          CsConfig(load_steps=2))
        assert report.termination == "penalty-stagnation"
        assert report.data_iterations == 3
        assert np.all(report.assigned == 4)


def svk_cs_set(dim, n, rng, scale=0.02):
    """CS tuples of a dimensionless Saint-Venant-Kirchhoff solid.

    Strains are C = I + 2E for random symmetric E of size `scale`, with
    S = tr(E) I + 2E (both Lame constants 1).
    """
    e = rng.normal(scale=scale, size=(n, dim, dim))
    e = 0.5 * (e + np.swapaxes(e, -1, -2))
    eye = np.eye(dim)
    c = eye + 2.0 * e
    s = np.trace(e, axis1=1, axis2=2)[:, None, None] * eye + 2.0 * e
    return DataSet(PairingKind.CS, dim, c, s)


def face_nodes(mesh, axis, value):
    return np.flatnonzero(np.isclose(mesh.nodes[:, axis], value))


def clamped_tip_bcs(mesh, tip):
    """Clamp x = 0, prescribe the y-displacement `tip` at the far x face."""
    d = mesh.dim
    right = face_nodes(mesh, 0, mesh.nodes[:, 0].max())
    return BoundaryConditions(
        dirichlet=[(n, c, 0.0) for n in face_nodes(mesh, 0, 0.0) for c in range(d)]
        + [(n, 1, tip) for n in right])


def stretch_bcs(mesh, stretch):
    """Rollers at x = 0 and the x-displacement `stretch` at the far face;
    the multiplier is zero wherever u is prescribed.  The pinned origin,
    and in 3D the y component of the left-face corner above it, suppress
    the rigid modes the rollers leave."""
    d = mesh.dim
    left = face_nodes(mesh, 0, 0.0)
    right = face_nodes(mesh, 0, mesh.nodes[:, 0].max())
    corner = mesh.nodes.max(axis=0) * (np.arange(d) == 2)
    origin, above = (int(np.flatnonzero(np.all(np.isclose(mesh.nodes, x), axis=1))[0])
                     for x in (0.0, corner))
    return BoundaryConditions(
        dirichlet=[(n, 0, 0.0) for n in left]
        + [(origin, c, 0.0) for c in range(1, d)]
        + [(above, 1, 0.0)] * (d == 3)
        + [(n, 0, stretch) for n in right])


MIXED_MESHES = [
    lambda: rect_mesh(1.0, 0.8, 3, 2),
    lambda: box_mesh(1.0, 0.6, 0.5, 2, 2, 1),
]


def four_block_pattern(mesh, bcs):
    """(slot, indices, indptr, nnz) of the reduced Jacobian from one
    np.unique over the keys of all four blocks of every element matrix,
    each [u | lam] dof numbered on its own."""
    n, d = mesh.n_dofs, mesh.dim
    free = free_dofs(n, bcs.fixed_dofs(mesh)[0])
    size = 2 * free.size
    position = np.full((2, n), -1, dtype=np.int64)
    position[:, free] = np.arange(size).reshape(2, -1)
    dofs = (mesh.elements[:, :, None] * d + np.arange(d)).reshape(mesh.n_elements, -1)
    local = np.concatenate(position[:, dofs], axis=1)
    dropped = size * size
    key = np.where((local[:, :, None] >= 0) & (local[:, None, :] >= 0),
                   local[:, None, :] * size + local[:, :, None], dropped)
    keys, slot = np.unique(key.ravel(), return_inverse=True)
    nnz = int(np.searchsorted(keys, dropped))
    keys = keys[:nnz]
    return (slot.astype(np.int32), (keys % size).astype(np.int32),
            np.searchsorted(keys // size, np.arange(size + 1)).astype(np.int32), nnz)


class TestJacobianPattern:
    @pytest.mark.parametrize("make_mesh", MIXED_MESHES, ids=["QUAD4", "HEX8"])
    def test_pattern_equals_the_four_block_construction(self, make_mesh):
        mesh = make_mesh()
        for bcs in (stretch_bcs(mesh, 0.03), clamped_tip_bcs(mesh, 0.1)):
            pattern = JacobianPattern(mesh, bcs)
            slot, indices, indptr, nnz = four_block_pattern(mesh, bcs)
            assert pattern.nnz == nnz
            assert pattern.size == 2 * pattern.free.size
            for got, want in zip((pattern.slot, pattern.indices, pattern.indptr),
                                 (slot, indices, indptr)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("make_mesh", MIXED_MESHES, ids=["QUAD4", "HEX8"])
    def test_scatter_matches_the_sliced_full_blocks(self, make_mesh, rng):
        mesh = make_mesh()
        mu0 = 1.4
        bcs = stretch_bcs(mesh, 0.03)
        pattern = JacobianPattern(mesh, bcs)
        fixed, vals = bcs.fixed_dofs(mesh)
        free = free_dofs(mesh.n_dofs, fixed)
        for got, want in zip((pattern.fixed, pattern.vals, pattern.free),
                             (fixed, vals, free)):
            assert np.array_equal(got, want)
        assert np.any(vals != 0.0)
        u, lam, c_star, s_star = random_admissible_state(mesh, rng, mu0)
        u[fixed] = vals
        lam[fixed] = 0.0
        k_el = tangent_blocks(mesh, u, lam, c_star, s_star, mu0)

        def reduced(k_el):
            k_uu, k_ul, k_lu, k_ll = coupled_blocks(mesh, k_el)
            return np.block([[k_uu[np.ix_(free, free)], k_ul[np.ix_(free, free)]],
                             [k_lu[np.ix_(free, free)], k_ll[np.ix_(free, free)]]])

        want = reduced(k_el)
        got = pattern.assemble(k_el)
        assert got.format == "csc"
        assert got.has_canonical_format
        assert got.shape == want.shape
        assert_allclose(got.toarray(), want, rtol=0.0,
                        atol=1e-14 * np.max(np.abs(want)))
        # one stored slot per reduced dof pair that some element couples
        assert got.nnz == np.count_nonzero(reduced(np.ones_like(k_el)))

    @pytest.mark.parametrize("make_mesh", MIXED_MESHES, ids=["QUAD4", "HEX8"])
    def test_newton_meets_nonzero_prescribed_values(self, make_mesh, rng):
        mesh = make_mesh()
        data = svk_cs_set(mesh.dim, 200, rng)
        bcs = stretch_bcs(mesh, 0.01)
        assigned = np.arange(mesh.n_elements * mesh.quadrature().nqp) % len(data)
        shape = (mesh.n_elements, mesh.quadrature().nqp, mesh.dim, mesh.dim)
        c_star = data.strains[assigned].reshape(shape)
        s_star = data.stresses[assigned].reshape(shape)
        solver = solver_cs._TangentSolver()
        u, lam, iters, history, _ = newton_solve(mesh, bcs, c_star, s_star,
                                                 data.mu0, CsConfig(), solver=solver)
        fixed, vals = bcs.fixed_dofs(mesh)
        assert np.array_equal(u[fixed], vals)
        assert np.all(lam[fixed] == 0.0)
        assert history[-1] <= 1e-10
        assert iters >= 1 and 1 <= solver.tangent_evaluations <= 8

    @pytest.mark.parametrize("make_mesh", MIXED_MESHES, ids=["QUAD4", "HEX8"])
    def test_returned_kinematics_are_those_of_the_returned_fields(self, make_mesh,
                                                                  rng):
        mesh = make_mesh()
        data = svk_cs_set(mesh.dim, 200, rng)
        c_star, s_star = assigned_stars(mesh, data, 0)
        u, lam, iters, _, kin = newton_solve(mesh, stretch_bcs(mesh, 0.01), c_star,
                                             s_star, data.mu0, CsConfig())
        assert iters >= 1
        for got, want in zip(kin, solver_cs._kinematics(mesh, u, lam, s_star, data.mu0)):
            assert np.array_equal(got, want)


class FreshLU(solver_cs._TangentSolver):
    """Reference Newton: a new sparse LU of every step's Jacobian and,
    since no factor is kept, no chord steps."""

    def factor(self, jac):
        self.factorizations += 1
        return spla.splu(jac.tocsc())


def assigned_stars(mesh, data, shift):
    """(C*, S*) with point k assigned tuple (k + shift) mod len(data)."""
    quad = mesh.quadrature()
    ids = (np.arange(mesh.n_elements * quad.nqp) + shift) % len(data)
    shape = (mesh.n_elements, quad.nqp, mesh.dim, mesh.dim)
    return data.strains[ids].reshape(shape), data.stresses[ids].reshape(shape)


# Newton solves that stop at different iterates agree to about
# |J^-1| newton_tol; a tight tolerance makes a 1e-10 comparison test the
# solver rather than where it stopped.
TIGHT = dict(newton_tol=1e-13)


def assert_same_fields(got, want):
    for x, y in zip(got[:2], want[:2]):
        assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)


def two_solves(mesh, data, config, solver):
    """Newton at two assignments and loads, the second warm-started from
    the first and sharing its solver; the two results."""
    start = (None, None)
    results = []
    for shift, stretch in ((0, 0.01), (100, 0.02)):
        c_star, s_star = assigned_stars(mesh, data, shift)
        results.append(newton_solve(mesh, stretch_bcs(mesh, stretch), c_star, s_star,
                                    data.mu0, config, *start, solver=solver))
        start = results[-1][:2]
    return results


class TestKeptFactor:
    @pytest.mark.parametrize("make_mesh", MIXED_MESHES, ids=["QUAD4", "HEX8"])
    def test_reused_factor_matches_a_fresh_lu_per_step(self, make_mesh, rng):
        mesh = make_mesh()
        data = svk_cs_set(mesh.dim, 200, rng)
        solver, fresh = solver_cs._TangentSolver(), FreshLU()
        kept = two_solves(mesh, data, CsConfig(**TIGHT), solver)
        reference = two_solves(mesh, data, CsConfig(**TIGHT), fresh)
        for got, want in zip(kept, reference):
            assert_same_fields(got, want)
        # chord steps on the kept factor: fewer tangents than steps, each
        # tangent factored once; the reference evaluates one per step
        steps = sum(result[2] for result in kept)
        assert solver.tangent_evaluations == solver.factorizations < steps
        assert fresh.tangent_evaluations == fresh.factorizations == sum(
            result[2] for result in reference)

    @pytest.mark.parametrize("make_mesh", MIXED_MESHES, ids=["QUAD4", "HEX8"])
    def test_factor_of_an_unrelated_jacobian_is_replaced(self, make_mesh, rng):
        mesh = make_mesh()
        data = svk_cs_set(mesh.dim, 200, rng)
        bcs = stretch_bcs(mesh, 0.01)
        pattern = JacobianPattern(mesh, bcs)
        u, lam, c_far, s_far = random_admissible_state(mesh, rng, data.mu0,
                                                       u_scale=0.3, lam_scale=0.3)
        solver = solver_cs._TangentSolver()
        unrelated = solver.factor(pattern.assemble(
            tangent_blocks(mesh, u, lam, c_far, s_far, data.mu0)))

        c_star, s_star = assigned_stars(mesh, data, 0)
        args = (mesh, bcs, c_star, s_star, data.mu0, CsConfig(**TIGHT))
        kept = newton_solve(*args, pattern=pattern, solver=solver)
        fresh = newton_solve(*args, solver=FreshLU())
        # the chord step on the unrelated factor fails the contraction
        # test, so the first step is the Newton step
        assert_allclose(kept[3][:2], fresh[3][:2], rtol=1e-8)
        assert solver.lu is not unrelated and solver.factorizations >= 2
        assert_same_fields(kept, fresh)

    def test_singular_tangent_raises_with_or_without_a_kept_factor(self):
        # no displacement constraint: the tangent keeps every rigid mode
        mesh = rect_mesh(1.0, 0.5, 2, 1)
        bcs = BoundaryConditions(point_loads=[(mesh.n_nodes - 1, np.array([1.0, 0.0]))])
        c_star = qp_field(mesh, np.eye(2))
        s_star = qp_field(mesh, np.zeros((2, 2)))
        primed = solver_cs._TangentSolver()
        primed.factor(sp.identity(4 * mesh.n_nodes, format="csc"))
        for solver in (None, primed):
            with pytest.raises(ValueError, match="singular tangent matrix"):
                newton_solve(mesh, bcs, c_star, s_star, 1.0, CsConfig(), solver=solver)

    @pytest.mark.parametrize("make_mesh", MIXED_MESHES, ids=["QUAD4", "HEX8"])
    def test_rotation_free_tangent_at_the_solution_raises(self, make_mesh, rng):
        # only the origin's displacement is fixed, so a rigid rotation about
        # it is free and the tangent at the converged (u, lam) is singular;
        # its LU pivots stay far above the pivot test's 1e-13 ratio
        mesh = make_mesh()
        data = svk_cs_set(mesh.dim, 200, rng)
        c_star, s_star = assigned_stars(mesh, data, 0)
        origin = int(np.flatnonzero(np.all(mesh.nodes == 0.0, axis=1))[0])
        bcs = BoundaryConditions(dirichlet=[(origin, c, 0.0) for c in range(mesh.dim)])
        u, lam, iters, _, kin = newton_solve(mesh, bcs, c_star, s_star, data.mu0,
                                             CsConfig())
        jac = JacobianPattern(mesh, bcs).assemble(
            tangent_blocks(mesh, u, lam, c_star, s_star, data.mu0, kin=kin))
        pivots = np.abs(spla.splu(jac, permc_spec="MMD_AT_PLUS_A").U.diagonal())
        assert iters >= 1 and pivots.min() > 1e-13 * pivots.max()
        with pytest.raises(ValueError, match="singular tangent matrix"):
            fem.factorize(jac, "tangent", permc_spec="MMD_AT_PLUS_A")

    @pytest.mark.parametrize("make_mesh, plane", zip(MIXED_MESHES, ["x-y", ""]),
                             ids=["QUAD4", "HEX8"])
    def test_rotation_free_solve_raises_before_newton(self, make_mesh, plane, rng,
                                                      monkeypatch):
        # the fixture above: only the origin's displacement is fixed
        mesh = make_mesh()
        origin = int(np.flatnonzero(np.all(mesh.nodes == 0.0, axis=1))[0])
        bcs = BoundaryConditions(dirichlet=[(origin, c, 0.0) for c in range(mesh.dim)])

        def newton_solve(*args, **kwargs):
            raise AssertionError("Newton ran on a problem with a free rotation")

        monkeypatch.setattr(solver_cs, "newton_solve", newton_solve)
        with pytest.raises(ValueError, match=f"rigid rotation in the {plane}"):
            solve_cs(mesh, bcs, svk_cs_set(mesh.dim, 200, rng))

    @pytest.mark.parametrize("make_mesh", MIXED_MESHES, ids=["QUAD4", "HEX8"])
    def test_multiplier_translations_are_the_tangents_only_rigid_lam_modes(
            self, make_mesh, rng):
        # the tangent with no dof prescribed, at a generic state: a
        # translation of lam is a null vector, a rotation of lam is not
        mesh = make_mesh()
        n, d = mesh.n_dofs, mesh.dim
        u, lam, c_star, s_star = random_admissible_state(mesh, rng, 1.0)
        jac = JacobianPattern(mesh, BoundaryConditions()).assemble(
            tangent_blocks(mesh, u, lam, c_star, s_star, 1.0))
        scale = spla.norm(jac, 1)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        for k in range(d):
            mode = np.zeros((mesh.n_nodes, d))
            mode[:, k] = 1.0
            assert np.abs(jac @ np.r_[np.zeros(n), mode.ravel()]).max() < 1e-12 * scale
        rotation = np.zeros((mesh.n_nodes, d))
        rotation[:, 0], rotation[:, 1] = -y, x
        assert np.abs(jac @ np.r_[np.zeros(n), rotation.ravel()]).max() > 1e-3 * scale

    def test_multi_pass_solve_factors_rarely_and_one_factor_at_a_time(
            self, rng, monkeypatch):
        factorize = solver_cs.factorize
        built = []

        class TrackedLU:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                return self.lu.solve(rhs)

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in built), "two factors held at once"
            lu = TrackedLU(factorize(*args, **kwargs))
            built.append(weakref.ref(lu))
            return lu

        monkeypatch.setattr(solver_cs, "factorize", tracked)
        mesh = rect_mesh(1.0, 0.5, 4, 2)
        report = solve_cs(mesh, clamped_tip_bcs(mesh, 0.1), svk_cs_set(2, 300, rng),
                          CsConfig(load_steps=2))
        assert report.converged and report.data_iterations > 2
        factorizations = report.diagnostics["factorizations"]
        tangents = report.diagnostics["tangent_evaluations"]
        assert type(factorizations) is int and type(tangents) is int
        assert 2 <= len(built) == factorizations == tangents < sum(report.newton_history)


class TestSolvesShareAMesh:
    def test_two_bc_sets_on_one_mesh_match_separate_solves(self, rng):
        data = svk_cs_set(2, 300, rng)

        def solve(mesh, which):
            bcs = clamped_tip_bcs(mesh, 0.02) if which == "tip" else stretch_bcs(mesh, 0.01)
            return solve_cs(mesh, bcs, data)

        shared = rect_mesh(1.0, 0.5, 4, 2)
        together = [solve(shared, "tip"), solve(shared, "stretch")]
        for which, report in zip(("tip", "stretch"), together):
            alone = solve(rect_mesh(1.0, 0.5, 4, 2), which)
            assert report.converged and alone.converged
            assert np.array_equal(report.u, alone.u)
            assert np.array_equal(report.lam, alone.lam)
            assert np.array_equal(report.assigned, alone.assigned)
            assert report.global_penalty == alone.global_penalty
        assert not np.array_equal(together[0].u, together[1].u)
