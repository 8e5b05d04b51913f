import numpy as np
import pytest
from numpy.testing import assert_allclose

from ddfem.tensors import (angular_momentum_defect, is_symmetric, rotation_2d,
                           rotation_z, sym, tensor_to_voigt, transposed, voigt_to_tensor)


def rotate_pair(strain, stress, q):
    """Co-rotate a (strain, stress) pair: A -> Q A Q^T for both tensors."""
    return q @ strain @ q.T, q @ stress @ q.T


class TestFrobenius:
    def test_identity_contraction(self):
        assert np.tensordot(np.eye(3), np.eye(3), axes=2) == 3.0

    def test_zero(self):
        b = np.arange(4.0).reshape(2, 2)
        assert np.tensordot(np.zeros((2, 2)), b, axes=2) == 0.0

    def test_hand_sum(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        # 5 + 12 + 21 + 32
        assert np.tensordot(a, b, axes=2) == 70.0

    def test_norm_is_root_of_self_inner(self, rng):
        a = rng.standard_normal((3, 3))
        assert_allclose(np.linalg.norm(a), np.sqrt(np.tensordot(a, a, axes=2)),
                        rtol=1e-15)


class TestRotations:
    def test_identity_leaves_pair_alone(self, rng):
        c = sym(rng.standard_normal((2, 2)))
        s = sym(rng.standard_normal((2, 2)))
        rc, rs = rotate_pair(c, s, np.eye(2))
        assert_allclose(rc, c)
        assert_allclose(rs, s)

    def test_quarter_turn_swaps_axes(self):
        strain = np.diag([4.0, 0.25])
        rc, _ = rotate_pair(strain, np.zeros((2, 2)), rotation_2d(np.pi / 2))
        assert_allclose(rc, np.diag([0.25, 4.0]), atol=1e-15)

    def test_45_degrees_explicit(self):
        strain = np.diag([2.0, 1.0])
        rc, _ = rotate_pair(strain, np.zeros((2, 2)), rotation_2d(np.pi / 4))
        assert_allclose(rc, [[1.5, 0.5], [0.5, 1.5]], atol=1e-15)

    def test_rotation_z_embeds_2d(self):
        q2 = rotation_2d(0.7)
        q3 = rotation_z(0.7)
        assert_allclose(q3[:2, :2], q2)
        assert_allclose(q3[2], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("angle", [0.1, 1.0, 2.9])
    def test_rotation_preserves_norms(self, angle, rng):
        c = sym(rng.standard_normal((2, 2)))
        s = sym(rng.standard_normal((2, 2)))
        rc, rs = rotate_pair(c, s, rotation_2d(angle))
        assert_allclose(np.linalg.norm(rc), np.linalg.norm(c), rtol=1e-13)
        assert_allclose(np.linalg.norm(rs), np.linalg.norm(s), rtol=1e-13)


class TestAngularMomentum:
    def test_identity_with_symmetric_stress(self):
        p = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert angular_momentum_defect(np.eye(2), p) <= 1e-8

    def test_identity_with_skew_stress(self):
        p = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not angular_momentum_defect(np.eye(2), p) <= 1e-9

    def test_diagonal_tensors_commute(self):
        assert angular_momentum_defect(np.diag([2.0, 1.0]), np.diag([3.0, 5.0])) <= 1e-8

    def test_rotation_preserves_consistency(self, rng):
        # P = F S with symmetric S always balances; so does any rotation of it
        f = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
        p = f @ sym(rng.standard_normal((2, 2)))
        q = rotation_2d(0.4)
        assert angular_momentum_defect(f, p) <= 1e-12
        assert angular_momentum_defect(q @ f, q @ p) <= 1e-12
        assert angular_momentum_defect(f, p + np.array([[0.0, 0.3], [0.0, 0.0]])) > 1e-3

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_gives_the_largest_pairwise_defect(self, d, rng):
        f = np.eye(d) + 0.1 * rng.standard_normal((4, 5, d, d))
        p = 3.0 * rng.standard_normal((4, 5, d, d))
        pairwise = [angular_momentum_defect(f[e, q], p[e, q])
                    for e in range(4) for q in range(5)]
        assert_allclose(angular_momentum_defect(f, p), max(pairwise), rtol=1e-14)
        assert angular_momentum_defect(f[:0], p[:0]) == 0.0


class TestTransposed:
    def test_contiguous_copy_with_the_strided_product_bits(self, rng):
        f = rng.standard_normal((90, 8, 3, 3))
        p = rng.standard_normal((90, 8, 3, 3))
        ft = transposed(f)
        assert ft.flags.c_contiguous
        assert np.array_equal(ft, np.swapaxes(f, -1, -2))
        assert np.array_equal(p @ ft, p @ np.swapaxes(f, -1, -2))


class TestVoigt:
    def test_round_trip(self, rng):
        m = sym(rng.standard_normal((3, 3)))
        assert_allclose(voigt_to_tensor(tensor_to_voigt(m)), m, atol=1e-15)

    def test_component_order(self):
        v = tensor_to_voigt(np.array([[1.0, 4.0, 5.0],
                                      [4.0, 2.0, 6.0],
                                      [5.0, 6.0, 3.0]]))
        assert_allclose(v, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            tensor_to_voigt(m)

    def test_is_symmetric_tolerance(self):
        m = np.eye(2)
        m[0, 1] = 1e-12
        assert is_symmetric(m, tol=1e-10)
        assert not is_symmetric(m, tol=1e-14)

    def test_sym_acts_on_the_trailing_axes_of_a_batch(self, rng):
        batch = rng.standard_normal((4, 3, 2, 2))
        out = sym(batch)
        assert out.shape == batch.shape
        for e in range(4):
            for q in range(3):
                assert_allclose(out[e, q],
                                0.5 * (batch[e, q] + batch[e, q].T),
                                rtol=1e-15)
