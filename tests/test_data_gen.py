"""Tests for the analytic generators, augmentation, and pairing conversion.

Closed-form stress values are frozen from hand evaluation of the family
formulas; the augmentation checks compare against explicit tensor algebra
done independently in the test body.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddfem.data_gen import (Family, GeneratorSpec, UnitLoadLibrary,
                            augment_rotations_2d, convert_pairing,
                            generate, isotropic_grid_from_two_states,
                            load_unit_loads, piola_stress_1d, save_unit_loads,
                            superpose_linear)
from ddfem.phase_space import DataSet, DataTuple, PairingKind
from ddfem.tensors import rotation_2d, tensor_to_voigt, voigt_to_tensor

C1_RUBBER = 1.0e6 / 6.0


class TestStressFormulas:
    def test_neohooke_is_stress_free_at_rest(self):
        assert piola_stress_1d(Family.NEOHOOKE, 1.0, C1_RUBBER) == 0.0

    def test_neohooke_at_double_stretch(self):
        # 2 c1 (2 - 1/4) = 3.5 c1
        p = piola_stress_1d(Family.NEOHOOKE, 2.0, C1_RUBBER)
        assert_allclose(p, 583333.3333333333, rtol=1e-13)

    def test_yeoh_at_double_stretch(self):
        # shifted invariant 4 + 1 - 3 = 2, factor c1 + 12 c3
        p = piola_stress_1d(Family.YEOH, 2.0, C1_RUBBER, c3=1.0e3)
        assert_allclose(p, 625333.3333333333, rtol=1e-13)

    def test_linear_family_is_proportional_to_stretch(self):
        assert piola_stress_1d(Family.LINEAR, 1.0, 1.0e6) == 1.0e6
        assert piola_stress_1d(Family.LINEAR, 2.5, 1.0e6) == 2.5e6

    def test_yeoh_reduces_to_neohooke_without_cubic_term(self):
        lam = np.linspace(0.7, 3.2, 41)
        nh = piola_stress_1d(Family.NEOHOOKE, lam, C1_RUBBER)
        yeoh = piola_stress_1d(Family.YEOH, lam, C1_RUBBER, c3=0.0)
        assert np.array_equal(nh, yeoh)

    def test_tensile_branch_is_monotone(self):
        lam = np.linspace(1.0, 3.2, 500)
        for family in (Family.LINEAR, Family.NEOHOOKE, Family.YEOH):
            p = piola_stress_1d(family, lam, C1_RUBBER, c3=1.0e3)
            assert np.all(np.diff(p) > 0.0)


class TestGeneratorSpec:
    def test_two_samples_are_the_endpoints(self):
        spec = GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=2,
                             stretch_range=(1.2, 2.5))
        assert np.array_equal(spec.stretches(), [1.2, 2.5])

    def test_log_spacing_is_geometric(self):
        spec = GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=5,
                             stretch_range=(1.0, 16.0), log_spacing=True)
        assert_allclose(spec.stretches(), [1.0, 2.0, 4.0, 8.0, 16.0],
                        rtol=1e-14)

    @pytest.mark.parametrize("kwargs", [
        dict(stretch_range=(0.0, 2.0)),
        dict(stretch_range=(-1.0, 2.0)),
        dict(stretch_range=(2.0, 1.0)),
        dict(n=1),
        dict(c1=0.0),
        dict(c1=-5.0),
    ])
    def test_invalid_spec_raises(self, kwargs):
        base = dict(family=Family.NEOHOOKE, c1=C1_RUBBER)
        base.update(kwargs)
        with pytest.raises(ValueError):
            GeneratorSpec(**base)


    @pytest.mark.parametrize("kwargs, message", [
        (dict(c1=np.nan), "c1 must be finite, got nan"),
        (dict(c1=np.inf), "c1 must be finite, got inf"),
        (dict(c3=np.nan), "c3 must be finite, got nan"),
        (dict(stretch_range=(1.0, np.inf)), "stretch_range must be finite, got (1.0, inf)"),
        (dict(stretch_range=(np.nan, 2.0)), "stretch_range must be finite, got (nan, 2.0)")])
    def test_non_finite_values_are_named(self, kwargs, message):
        # generate() does not validate its tuples, so a NaN here would reach the data
        base = dict(family=Family.YEOH, c1=C1_RUBBER)
        base.update(kwargs)
        with pytest.raises(ValueError) as err:
            GeneratorSpec(**base)
        assert str(err.value) == message


class TestGenerators1D:
    def test_neohooke_fp_tuples(self):
        spec = GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=3,
                             stretch_range=(1.0, 2.0))
        ds = generate(spec)
        assert ds.kind is PairingKind.FP
        assert ds.dim == 1
        assert_allclose(ds.strains.ravel(), [1.0, 1.5, 2.0], rtol=1e-15)
        assert ds.stresses[0, 0] == 0.0
        assert_allclose(ds.stresses[2, 0], 583333.3333333333, rtol=1e-13)

    def test_neohooke_cs_tuples_divide_by_stretch(self):
        spec = GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=3,
                             stretch_range=(1.0, 2.0),
                             pairing=PairingKind.CS)
        ds = generate(spec)
        assert_allclose(ds.strains.ravel(), [1.0, 2.25, 4.0], rtol=1e-15)
        assert_allclose(ds.stresses[2, 0], 291666.66666666666, rtol=1e-13)

    def test_linear_cs_pair_is_published_verbatim(self):
        # (lam^2, c1 lam^2), not the push-forward of (lam, c1 lam)
        spec = GeneratorSpec(Family.LINEAR, c1=1.0e6, n=2,
                             stretch_range=(1.0, 2.0),
                             pairing=PairingKind.CS)
        ds = generate(spec)
        assert_allclose(ds.strains.ravel(), [1.0, 4.0])
        assert_allclose(ds.stresses.ravel(), [1.0e6, 4.0e6])

    def test_yeoh_generator_with_zero_c3_matches_neohooke(self):
        kwargs = dict(c1=C1_RUBBER, n=50, stretch_range=(1.0, 3.2))
        nh = generate(GeneratorSpec(Family.NEOHOOKE, **kwargs))
        yeoh = generate(GeneratorSpec(Family.YEOH, c3=0.0, **kwargs))
        assert np.array_equal(nh.stresses, yeoh.stresses)

    def test_dispatch_matches_family_functions(self):
        for family in (Family.LINEAR, Family.NEOHOOKE, Family.YEOH):
            spec = GeneratorSpec(family, c1=C1_RUBBER, n=7, c3=2.0e3)
            ds = generate(spec)
            lam = spec.stretches()
            assert np.array_equal(ds.strains.ravel(), lam)
            assert np.array_equal(ds.stresses.ravel(),
                                  piola_stress_1d(family, lam, C1_RUBBER, 2.0e3))

    def test_eps_sigma_pairing_rejected(self):
        spec = GeneratorSpec(Family.LINEAR, c1=1.0,
                             pairing=PairingKind.EPS_SIGMA)
        with pytest.raises(ValueError, match="FP or CS"):
            generate(spec)

    def test_explicit_mu0_is_kept(self):
        spec = GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=9)
        assert generate(spec, mu0=7.5).mu0 == 7.5


def small_symmetric_set(rng, n=12):
    """Random 2D small-strain tuples, symmetric in both slots."""
    e = rng.normal(scale=0.02, size=(n, 2, 2))
    s = rng.normal(scale=1.0e4, size=(n, 2, 2))
    e = 0.5 * (e + np.swapaxes(e, 1, 2))
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    return DataSet(PairingKind.EPS_SIGMA, 2, e.reshape(n, 4), s.reshape(n, 4),
                   mu0=5.0e5, validate=False)


class TestRotationAugmentation:
    def test_zero_angles_returns_the_set_unchanged(self, rng):
        base = small_symmetric_set(rng)
        out = augment_rotations_2d(base, 0)
        assert np.array_equal(out.strains, base.strains)
        assert np.array_equal(out.stresses, base.stresses)

    def test_count_and_leading_block(self, rng):
        base = small_symmetric_set(rng, n=37)
        out = augment_rotations_2d(base, 5)
        assert len(out) == 37 * 6
        assert np.array_equal(out.strains[:37], base.strains)
        assert np.array_equal(out.stresses[:37], base.stresses)

    def test_blocks_are_co_rotated_copies(self, rng):
        base = small_symmetric_set(rng, n=4)
        out = augment_rotations_2d(base, 3)
        for j in range(1, 4):
            q = rotation_2d(j * np.pi / 4.0)
            for i in range(4):
                e = q @ base.strains[i].reshape(2, 2) @ q.T
                s = q @ base.stresses[i].reshape(2, 2) @ q.T
                assert_allclose(out.strains[4 * j + i], e.ravel(), atol=1e-12)
                assert_allclose(out.stresses[4 * j + i], s.ravel(),
                                atol=1e-8)

    def test_rotations_preserve_norms_and_symmetry(self, rng):
        base = small_symmetric_set(rng, n=20)
        out = augment_rotations_2d(base, 11)
        norm_e = np.linalg.norm(out.strains, axis=1).reshape(12, 20)
        norm_s = np.linalg.norm(out.stresses, axis=1).reshape(12, 20)
        assert_allclose(norm_e, np.tile(np.linalg.norm(base.strains, axis=1),
                                        (12, 1)), rtol=1e-10)
        assert_allclose(norm_s, np.tile(np.linalg.norm(base.stresses, axis=1),
                                        (12, 1)), rtol=1e-10)
        e = out.strains.reshape(-1, 2, 2)
        assert_allclose(e, np.swapaxes(e, 1, 2), atol=1e-18)

    def test_half_turn_is_the_identity_on_symmetric_pairs(self, rng):
        # Q A Q^T has period pi, which is why the angles stop short of it
        base = small_symmetric_set(rng, n=6)
        q = rotation_2d(np.pi)
        for i in range(6):
            a = base.strains[i].reshape(2, 2)
            assert_allclose(q @ a @ q.T, a, atol=1e-12)

    def test_mu0_carries_over_and_can_be_replaced(self, rng):
        base = small_symmetric_set(rng)
        assert augment_rotations_2d(base, 2).mu0 == base.mu0
        assert augment_rotations_2d(base, 2, mu0=1.25).mu0 == 1.25

    def test_fp_pairing_rejected(self, rng):
        e = rng.normal(size=(3, 4))
        ds = DataSet(PairingKind.FP, 2, e, e, mu0=1.0, validate=False)
        with pytest.raises(ValueError, match="symmetric"):
            augment_rotations_2d(ds, 2)

    def test_wrong_dimension_rejected(self, rng):
        e = rng.normal(size=(3, 9))
        ds = DataSet(PairingKind.EPS_SIGMA, 3, e, e, mu0=1.0, validate=False)
        with pytest.raises(ValueError, match="2D"):
            augment_rotations_2d(ds, 2)

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            augment_rotations_2d(small_symmetric_set(rng), -1)


class TestSuperposition:
    def test_lone_alpha_coefficient_reproduces_the_entry_exactly(self):
        lib = load_unit_loads()
        for k in range(6):
            coeff = np.zeros(6)
            coeff[k] = lib.alpha
            out = superpose_linear(lib, coeff)
            assert np.array_equal(tensor_to_voigt(out.strain), lib.strains[k])
            assert np.array_equal(tensor_to_voigt(out.stress), lib.stresses[k])

    def test_packaged_axial_probe_stress(self):
        out = superpose_linear(load_unit_loads(), (0.02, 0, 0, 0, 0, 0))
        assert np.array_equal(tensor_to_voigt(out.stress),
                              [91300.0, 38700.0, 39600.0, 0.0, 0.0, 0.0])

    def test_all_zero_coefficients_give_the_zero_state(self):
        out = superpose_linear(load_unit_loads(), np.zeros(6))
        assert np.array_equal(out.strain, np.zeros((3, 3)))
        assert np.array_equal(out.stress, np.zeros((3, 3)))

    def test_linearity(self, rng):
        lib = load_unit_loads()
        a = rng.normal(scale=0.01, size=6)
        b = rng.normal(scale=0.01, size=6)
        combined = superpose_linear(lib, 2.0 * a + 3.0 * b)
        sa = superpose_linear(lib, a)
        sb = superpose_linear(lib, b)
        assert_allclose(combined.strain, 2.0 * sa.strain + 3.0 * sb.strain,
                        rtol=1e-12, atol=1e-18)
        assert_allclose(combined.stress, 2.0 * sa.stress + 3.0 * sb.stress,
                        rtol=1e-12, atol=1e-12)

    def test_non_finite_coefficients_raise(self):
        lib = load_unit_loads()
        with pytest.raises(ValueError, match="finite"):
            superpose_linear(lib, [np.nan, 0, 0, 0, 0, 0])

    def test_library_round_trip(self, tmp_path, rng):
        strains = np.zeros((6, 6))
        np.fill_diagonal(strains, 0.03)
        lib = UnitLoadLibrary(0.03, strains, rng.normal(size=(6, 6)))
        path = tmp_path / "loads.txt"
        save_unit_loads(lib, path)
        back = load_unit_loads(path)
        assert back.alpha == lib.alpha
        assert np.array_equal(back.strains, lib.strains)
        assert np.array_equal(back.stresses, lib.stresses)

    def test_missing_magic_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("alpha=0.02\n")
        with pytest.raises(ValueError, match=r":1:"):
            load_unit_loads(path)

    def test_missing_alpha_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# dd-unitloads v1\nunits=SI\n")
        with pytest.raises(ValueError, match=r":2:.*alpha"):
            load_unit_loads(path)

    def test_magic_line_alone_names_line_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# dd-unitloads v1\n")
        with pytest.raises(ValueError, match=r"bad.txt:2: missing header line"):
            load_unit_loads(path)

    def test_malformed_number_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        rows = [" ".join(["0.0"] * 12)] * 6
        rows[3] = "0.0.1" + rows[3][3:]
        path.write_text("# dd-unitloads v1\nalpha=0.02\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"bad.txt:6: malformed number"):
            load_unit_loads(path)

    def test_wrong_component_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# dd-unitloads v1\nalpha=0.02\n1 2 3\n")
        with pytest.raises(ValueError, match="12 components"):
            load_unit_loads(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        row = " ".join(["0.0"] * 12)
        path.write_text("# dd-unitloads v1\nalpha=0.02\n" + row + "\n")
        with pytest.raises(ValueError, match="6 unit-load rows"):
            load_unit_loads(path)


def cyclic_relabel(voigt):
    """Axis relabeling x->y->z->x applied to a Voigt vector, via tensors."""
    r = np.array([[0.0, 0.0, 1.0],
                  [1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0]])
    t = voigt_to_tensor(np.asarray(voigt, dtype=float))
    return tensor_to_voigt(r @ t @ r.T)


class TestIsotropicGrid:
    @pytest.fixture
    def probes(self):
        lib = load_unit_loads()
        elong = DataTuple(voigt_to_tensor(lib.strains[0]),
                          voigt_to_tensor(lib.stresses[0]))
        shear = DataTuple(voigt_to_tensor(lib.strains[3]),
                          voigt_to_tensor(lib.stresses[3]))
        return elong, shear, lib.alpha

    def unit_response(self, probes, slot):
        elong, shear, alpha = probes
        values = [[0.0]] * 6
        values[slot] = [alpha]
        ds = isotropic_grid_from_two_states(elong, shear, values, alpha)
        assert len(ds) == 1
        return tensor_to_voigt(ds.stresses[0].reshape(3, 3))

    def test_probe_states_come_back_unscaled(self, probes):
        elong, shear, _ = probes
        assert_allclose(self.unit_response(probes, 0),
                        tensor_to_voigt(elong.stress), rtol=1e-14)
        assert_allclose(self.unit_response(probes, 3),
                        tensor_to_voigt(shear.stress), rtol=1e-14)

    def test_relabeled_axes_fill_the_other_slots(self, probes):
        # cyclic symmetry: slot 1 is the x-response with axes renamed, etc.
        elong, shear, _ = probes
        s1 = tensor_to_voigt(elong.stress)
        s4 = tensor_to_voigt(shear.stress)
        assert_allclose(self.unit_response(probes, 1), cyclic_relabel(s1),
                        atol=1e-9)
        assert_allclose(self.unit_response(probes, 2),
                        cyclic_relabel(cyclic_relabel(s1)), atol=1e-9)
        assert_allclose(self.unit_response(probes, 5), cyclic_relabel(s4),
                        atol=1e-9)
        assert_allclose(self.unit_response(probes, 4),
                        cyclic_relabel(cyclic_relabel(s4)), atol=1e-9)

    def test_all_zero_grid_point(self, probes):
        # a cloud sitting entirely at the reference cannot calibrate its
        # own metric scale, so it has to be supplied
        elong, shear, alpha = probes
        ds = isotropic_grid_from_two_states(elong, shear, [[0.0]] * 6, alpha,
                                            mu0=1.0e5)
        assert len(ds) == 1
        assert np.array_equal(ds.strains, np.zeros((1, 9)))
        assert np.array_equal(ds.stresses, np.zeros((1, 9)))

    def test_grid_is_the_cartesian_product(self, probes):
        elong, shear, alpha = probes
        values = [[-0.02, 0.0, 0.02], [0.0], [0.0], [-0.01, 0.01], [0.0],
                  [0.0]]
        ds = isotropic_grid_from_two_states(elong, shear, values, alpha)
        assert len(ds) == 6
        combos = list(itertools.product(*values))
        for i, combo in enumerate(combos):
            v = np.zeros(6)
            v[0], v[3] = combo[0], combo[3]
            assert_allclose(tensor_to_voigt(ds.strains[i].reshape(3, 3)), v,
                            atol=1e-18)

    def test_stress_matches_brute_force_stiffness(self, probes, rng):
        # assemble the 6x6 stiffness from the single-slot responses and
        # check every grid stress against a plain matrix product
        elong, shear, alpha = probes
        stiffness = np.array([self.unit_response(probes, k) / alpha
                              for k in range(6)])
        values = [rng.normal(scale=0.02, size=2) for _ in range(6)]
        ds = isotropic_grid_from_two_states(elong, shear, values, alpha)
        assert len(ds) == 64
        for i, combo in enumerate(itertools.product(*values)):
            expected = np.array(combo) @ stiffness
            assert_allclose(tensor_to_voigt(ds.stresses[i].reshape(3, 3)), expected,
                            rtol=1e-12, atol=1e-9)

    def test_deviation_scales_each_unit_response(self, probes):
        elong, shear, alpha = probes
        dev = np.array([1.0, 1.1, 0.9, 1.0, 1.05, 0.95])
        for slot in (1, 4):
            values = [[0.0]] * 6
            values[slot] = [alpha]
            ds = isotropic_grid_from_two_states(elong, shear, values, alpha,
                                                deviation=dev)
            assert_allclose(tensor_to_voigt(ds.stresses[0].reshape(3, 3)),
                            dev[slot] * self.unit_response(probes, slot),
                            rtol=1e-14)

    def test_in_plane_rotations_append_blocks(self, probes):
        elong, shear, alpha = probes
        values = [[0.015], [0.0], [0.0], [-0.01], [0.0], [0.0]]
        ds = isotropic_grid_from_two_states(elong, shear, values, alpha,
                                            n_angles=4)
        assert len(ds) == 5
        base_e = np.linalg.norm(ds.strains[0])
        base_s = np.linalg.norm(ds.stresses[0])
        for i in range(1, 5):
            assert_allclose(np.linalg.norm(ds.strains[i]), base_e, rtol=1e-12)
            assert_allclose(np.linalg.norm(ds.stresses[i]), base_s,
                            rtol=1e-12)
        assert ds.kind is PairingKind.EPS_SIGMA
        assert ds.dim == 3

    def test_misplaced_probe_amplitudes_raise(self, probes):
        elong, shear, alpha = probes
        with pytest.raises(ValueError, match="slot 0"):
            isotropic_grid_from_two_states(shear, shear, [[0.0]] * 6, alpha)
        with pytest.raises(ValueError, match="slot 3"):
            isotropic_grid_from_two_states(elong, elong, [[0.0]] * 6, alpha)

    def test_slot_values_must_have_six_entries(self, probes):
        elong, shear, alpha = probes
        with pytest.raises(ValueError, match="six"):
            isotropic_grid_from_two_states(elong, shear, [[0.0]] * 5, alpha)


class TestPairingConversion:
    def test_uniaxial_fp_to_cs(self):
        ds = DataSet(PairingKind.FP, 1, np.array([[1.2]]), np.array([[0.6]]),
                     mu0=1.0, validate=False)
        cs = convert_pairing(ds, PairingKind.CS)
        assert_allclose(cs.strains, [[1.44]], rtol=1e-15)
        assert_allclose(cs.stresses, [[0.5]], rtol=1e-15)

    def test_reference_state_is_a_fixed_point(self):
        eye = np.eye(2).reshape(1, 4)
        ds = DataSet(PairingKind.FP, 2, eye, np.zeros((1, 4)), mu0=1.0,
                     validate=False)
        cs = convert_pairing(ds, PairingKind.CS, mu0=1.0)
        assert np.array_equal(cs.strains, eye)
        assert np.array_equal(cs.stresses, np.zeros((1, 4)))

    def test_small_strain_identified_through_the_metric(self):
        eps = np.diag([0.02, 0.0, 0.0]).reshape(1, 9)
        sig = np.diag([100.0, 20.0, 20.0]).reshape(1, 9)
        ds = DataSet(PairingKind.EPS_SIGMA, 3, eps, sig, mu0=1.0,
                     validate=False)
        cs = convert_pairing(ds, PairingKind.CS)
        assert_allclose(cs.strains[0].reshape(3, 3), np.diag([1.04, 1.0, 1.0]),
                        rtol=1e-15)
        assert np.array_equal(cs.stresses, sig)
        back = convert_pairing(cs, PairingKind.EPS_SIGMA)
        assert_allclose(back.strains, eps, atol=1e-16)
        assert np.array_equal(back.stresses, sig)

    def test_symmetric_gradient_round_trips_through_cs(self, rng):
        n = 8
        f = np.empty((n, 2, 2))
        p = rng.normal(scale=2.0e4, size=(n, 2, 2))
        for i in range(n):
            a = rng.normal(scale=0.05, size=(2, 2))
            f[i] = np.eye(2) + 0.5 * (a + a.T)  # SPD for small a
        ds = DataSet(PairingKind.FP, 2, f.reshape(n, 4), p.reshape(n, 4),
                     mu0=3.0e5, validate=False)
        back = convert_pairing(convert_pairing(ds, PairingKind.CS),
                               PairingKind.FP)
        assert_allclose(back.strains, ds.strains, rtol=1e-12, atol=1e-14)
        assert_allclose(back.stresses, ds.stresses, rtol=1e-10, atol=1e-8)

    def test_rotational_part_is_dropped_but_cs_content_survives(self, rng):
        # F = Q U: the round trip through (C, S) returns U, and converting
        # both gradients forward again gives identical (C, S) data
        u_mat = np.array([[1.1, 0.04], [0.04, 0.95]])
        q = rotation_2d(0.7)
        f = q @ u_mat
        p = q @ np.array([[3.0e4, 1.0e3], [2.0e3, 2.5e4]])
        ds = DataSet(PairingKind.FP, 2, f.reshape(1, 4), p.reshape(1, 4),
                     mu0=1.0e5, validate=False)
        cs = convert_pairing(ds, PairingKind.CS)
        back = convert_pairing(cs, PairingKind.FP)
        assert_allclose(back.strains[0].reshape(2, 2), u_mat, rtol=1e-12)
        cs_again = convert_pairing(back, PairingKind.CS)
        assert_allclose(cs_again.strains, cs.strains, rtol=1e-12)
        assert_allclose(cs_again.stresses, cs.stresses, rtol=1e-10)

    def test_singular_gradient_raises(self):
        f = np.array([[1.0, 0.0, 0.0, 0.0]])
        ds = DataSet(PairingKind.FP, 2, f, np.zeros((1, 4)), mu0=1.0,
                     validate=False)
        with pytest.raises(ValueError, match="singular"):
            convert_pairing(ds, PairingKind.CS)

    def test_the_lowest_failing_tuple_is_named(self):
        eye = [1.0, 0.0, 0.0, 1.0]
        f = np.array([eye, [1.0, 0.0, 0.0, 0.0], eye, [0.0] * 4])
        ds = DataSet(PairingKind.FP, 2, f, np.zeros((4, 4)), mu0=1.0,
                     validate=False)
        with pytest.raises(ValueError,
                           match="^tuple 1: deformation gradient is singular$"):
            convert_pairing(ds, PairingKind.CS)
        c = np.array([eye, eye, [1.0, 0.0, 0.0, -0.5], [0.0, 1.0, 1.0, 0.0]])
        ds = DataSet(PairingKind.CS, 2, c, np.zeros((4, 4)), mu0=1.0,
                     validate=False)
        with pytest.raises(ValueError,
                           match="^tuple 2: strain tensor is not positive definite$"):
            convert_pairing(ds, PairingKind.FP)

    def test_same_kind_copies_and_honors_mu0(self):
        ds = DataSet(PairingKind.FP, 1, np.array([[1.1]]), np.array([[2.0]]),
                     mu0=4.0, validate=False)
        out = convert_pairing(ds, PairingKind.FP, mu0=9.0)
        assert np.array_equal(out.strains, ds.strains)
        assert out.mu0 == 9.0
        assert convert_pairing(ds, PairingKind.FP).mu0 == 4.0

    def test_metric_scale_recalibrates_on_converted_values(self):
        spec = GeneratorSpec(Family.NEOHOOKE, c1=C1_RUBBER, n=100,
                             stretch_range=(1.0, 2.0))
        ds = generate(spec)
        cs = convert_pairing(ds, PairingKind.CS)
        assert cs.mu0 != ds.mu0
        assert_allclose(cs.mu0, DataSet(PairingKind.CS, 1, cs.strains, cs.stresses).mu0,
                        rtol=1e-12)
