"""Tests for the classical comparison solvers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import end_load_bcs
from ddfem.data_gen import Family, piola_stress_1d
from ddfem.fem import BoundaryConditions
from ddfem.reference import (LinearElasticLaw, elastic_stiffness, rod_analytic,
                             solve_linear_elastic)


class TestLinearElasticLaw:
    def test_lame_constants(self):
        law = LinearElasticLaw(e_mod=1.0e6, nu=1.0 / 3.0)
        lam, mu = law.lame
        assert_allclose(lam, 750_000.0, rtol=1e-14)
        assert_allclose(mu, 375_000.0, rtol=1e-14)

    def test_zero_poisson_has_no_volumetric_coupling(self):
        lam, mu = LinearElasticLaw(e_mod=2.0e9, nu=0.0).lame
        assert lam == 0.0
        assert mu == 1.0e9

    def test_stress_1d_is_bar_modulus(self):
        law = LinearElasticLaw(e_mod=200.0e9, nu=0.3)
        assert_allclose(law.stress(np.array([[1.0e-3]])), [[2.0e8]])

    def test_stress_3d_hand_value(self):
        # lam = 7.5e5, mu = 3.75e5, tr(eps) = 0.002
        law = LinearElasticLaw(e_mod=1.0e6, nu=1.0 / 3.0)
        eps = np.array([[0.001, 0.0005, 0.0],
                        [0.0005, -0.002, 0.0],
                        [0.0, 0.0, 0.003]])
        sig = law.stress(eps)
        expected = np.array([[2250.0, 375.0, 0.0],
                             [375.0, 0.0, 0.0],
                             [0.0, 0.0, 3750.0]])
        assert_allclose(sig, expected, rtol=1e-13, atol=1e-10)

    def test_stress_is_linear_in_strain(self, rng):
        law = LinearElasticLaw(e_mod=70.0e9, nu=0.33)
        a = rng.normal(size=(3, 3))
        a = 0.5 * (a + a.T)
        b = rng.normal(size=(3, 3))
        b = 0.5 * (b + b.T)
        assert_allclose(law.stress(2.0 * a - 0.5 * b),
                        2.0 * law.stress(a) - 0.5 * law.stress(b), rtol=1e-12)

    @pytest.mark.parametrize("e_mod,nu", [(0.0, 0.3), (-1.0, 0.3),
                                          (1.0e6, 0.5), (1.0e6, -1.0)])
    def test_invalid_parameters_raise(self, e_mod, nu):
        with pytest.raises(ValueError):
            LinearElasticLaw(e_mod=e_mod, nu=nu)


class TestElasticStiffness:
    def test_rod_matrix_is_ea_over_h_tridiagonal(self):
        from ddfem.fem import line_mesh
        mesh = line_mesh(1.0, 4, area=2.0e-4)
        law = LinearElasticLaw(e_mod=1.0e7, nu=0.0)
        k = elastic_stiffness(mesh, law).toarray()
        c = 1.0e7 * 2.0e-4 / 0.25  # EA / h
        expected = c * (np.diag([1.0, 2.0, 2.0, 2.0, 1.0])
                        - np.diag(np.ones(4), 1) - np.diag(np.ones(4), -1))
        assert_allclose(k, expected, rtol=1e-12)

    def test_matrix_is_symmetric(self, unit_square):
        law = LinearElasticLaw(e_mod=1.0e6, nu=1.0 / 3.0)
        k = elastic_stiffness(unit_square, law)
        asym = (k - k.T).toarray()
        assert np.max(np.abs(asym)) <= 1e-9 * np.max(np.abs(k.toarray()))

    def test_rigid_modes_lie_in_kernel(self, unit_square):
        # translations and the infinitesimal rotation (-y, x) cost nothing
        law = LinearElasticLaw(e_mod=1.0e6, nu=0.25)
        k = elastic_stiffness(unit_square, law)
        scale = np.max(np.abs(k.toarray()))
        tx = np.tile([1.0, 0.0], unit_square.n_nodes)
        ty = np.tile([0.0, 1.0], unit_square.n_nodes)
        rot = np.column_stack([-unit_square.nodes[:, 1],
                               unit_square.nodes[:, 0]]).ravel()
        for mode in (tx, ty, rot):
            assert np.max(np.abs(k @ mode)) <= 1e-9 * scale


class TestSolveLinearElastic:
    def test_end_loaded_rod_matches_hand_formula(self, rod_mesh):
        law = LinearElasticLaw(e_mod=200.0e9, nu=0.3)
        u = solve_linear_elastic(rod_mesh, end_load_bcs(rod_mesh, 100.0), law)
        # u(x) = N0 x / (E A), so u(L) = 100 * 0.1 / (200e9 * 1e-4)
        assert_allclose(u[-1], 5.0e-7, rtol=1e-12)
        assert_allclose(u, rod_mesh.nodes[:, 0] * 100.0 / (200.0e9 * 1.0e-4),
                        rtol=1e-12)

    def test_zero_load_gives_zero_displacement(self, rod_mesh):
        law = LinearElasticLaw(e_mod=200.0e9, nu=0.3)
        u = solve_linear_elastic(rod_mesh, end_load_bcs(rod_mesh, 0.0), law)
        assert_allclose(u, 0.0, atol=1e-18)

    def test_plane_strain_uniaxial_patch(self, unit_square):
        # rollers left and bottom, uniform traction t on the right edge:
        # the exact solution is the affine field of the uniform stress state
        # sigma_xx = t, sigma_yy = 0 under plane strain
        t = 1000.0
        e_mod, nu = 1.0e6, 1.0 / 3.0
        law = LinearElasticLaw(e_mod=e_mod, nu=nu)
        bcs = BoundaryConditions(
            dirichlet=[(int(n), 0, 0.0) for n in unit_square.nodesets["left"]]
            + [(int(n), 1, 0.0) for n in unit_square.nodesets["bottom"]],
            tractions=[(face, np.array([t, 0.0]))
                       for face in unit_square.facesets["right"]])
        u = solve_linear_elastic(unit_square, bcs, law).reshape(-1, 2)
        eps_xx = (1.0 - nu ** 2) / e_mod * t
        eps_yy = -nu * (1.0 + nu) / e_mod * t
        expected = np.column_stack([eps_xx * unit_square.nodes[:, 0],
                                    eps_yy * unit_square.nodes[:, 1]])
        assert_allclose(u, expected, rtol=1e-10, atol=1e-15)

    def test_unconstrained_problem_raises(self, rod_mesh):
        law = LinearElasticLaw(e_mod=200.0e9, nu=0.3)
        bcs = BoundaryConditions(point_loads=[(rod_mesh.n_nodes - 1,
                                               np.array([1.0]))])
        with pytest.raises(ValueError, match="rigid"):
            solve_linear_elastic(rod_mesh, bcs, law)


class TestRodAnalytic:
    def test_zero_load_zero_displacement(self):
        u = rod_analytic(Family.NEOHOOKE, c1=1.0e6 / 6.0, load=0.0,
                         length=0.1, area=1.0e-4)
        assert_allclose(u, 0.0, atol=1e-10)

    def test_neohooke_doubles_the_rod_at_the_matching_load(self):
        # P(2) = 2 c1 (2 - 1/4) = 7 c1 / 2; with c1 = 1e6/6 that is
        # 583333.33 Pa, and the rod stretches to lam = 2, i.e. u(L) = L
        c1 = 1.0e6 / 6.0
        area = 1.0e-4
        load = 3.5 * c1 * area
        u = rod_analytic(Family.NEOHOOKE, c1=c1, load=load, length=0.1,
                         area=area)
        assert_allclose(u, 0.1, rtol=1e-10)

    def test_inverts_the_stress_formula(self):
        # generator and inversion are mutual inverses on the tensile branch
        c1, c3, length, area = 2.5e5, 1.0e3, 0.4, 3.0e-4
        for family, c3_val in [(Family.NEOHOOKE, 0.0), (Family.YEOH, c3)]:
            for lam in np.linspace(1.05, 3.0, 7):
                p = float(piola_stress_1d(family, lam, c1, c3_val))
                u = rod_analytic(family, c1, p * area, length, area, c3=c3_val)
                assert_allclose(u, (lam - 1.0) * length, rtol=1e-9,
                                atol=1e-12)

    def test_yeoh_without_cubic_term_matches_neohooke(self):
        for load in (10.0, 35.0, 80.0):
            u_nh = rod_analytic(Family.NEOHOOKE, 1.0e6 / 6.0, load, 0.1, 1e-4)
            u_y = rod_analytic(Family.YEOH, 1.0e6 / 6.0, load, 0.1, 1e-4,
                               c3=0.0)
            assert u_nh == u_y

    def test_compressive_branch_resolves_too(self):
        c1 = 1.0e6 / 6.0
        p = float(piola_stress_1d(Family.NEOHOOKE, 0.8, c1))
        u = rod_analytic(Family.NEOHOOKE, c1, p * 1e-4, 0.1, 1e-4)
        assert_allclose(u, -0.02, rtol=1e-9)

    def test_unreachable_load_raises(self):
        # the LINEAR family has P = c1 lam > 0, so a zero target is below
        # the entire branch
        with pytest.raises(ValueError, match="monotone"):
            rod_analytic(Family.LINEAR, c1=1.0e6, load=0.0, length=0.1,
                         area=1.0e-4)


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    # rod_analytic imports it on first call, so a solve never pays for it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, ddfem.cli, ddfem.reference, ddfem.multilevel; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
