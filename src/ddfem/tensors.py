"""Small second-order tensor helpers shared across the package.

Tensors are plain numpy arrays of shape (d, d) with d in {1, 2, 3}.
Flattened copies are row-major (C order) throughout; Voigt-reduced
vectors appear only at file boundaries and use the component order
(11, 22, 33, 12, 13, 23).
"""

from __future__ import annotations

import numpy as np

# Voigt slot -> tensor index pair, order (11, 22, 33, 12, 13, 23)
VOIGT_3D = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def as_tensor(values, dim: int) -> np.ndarray:
    """Coerce `values` to a float (dim, dim) array, copying if needed."""
    a = np.asarray(values, dtype=float)
    if a.shape == (dim * dim,):
        a = a.reshape(dim, dim)
    if a.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} tensor, got shape {a.shape}")
    return a


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part over the trailing two axes (batch-safe)."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def transposed(a: np.ndarray) -> np.ndarray:
    """Contiguous transposes over the trailing two axes (batch-safe).

    numpy's stacked matmul of small matrices, such as 3x3 tensors or 8x3
    shape gradients, runs two to three times slower on a `swapaxes` view
    than on a contiguous operand, with the same bits.  Stacks of larger
    matrices go to BLAS, which takes a transposed view as it is: there
    the copy only costs time.
    """
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def is_symmetric(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a, dtype=float)
    return float(np.linalg.norm(a - a.T)) <= tol * max(1.0, float(np.linalg.norm(a)))


def rotation_2d(angle: float) -> np.ndarray:
    """In-plane rotation by `angle` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotation_z(angle: float) -> np.ndarray:
    """3D rotation about the z axis by `angle` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def angular_momentum_defect(f: np.ndarray, p: np.ndarray) -> float:
    """Largest relative asymmetry of P F^T over (..., d, d) batches of F and P.

    Each tensor pair contributes |P F^T - F P^T| / max(1, |P F^T|) in the
    Frobenius norm, which is zero exactly when P = F S with S = S^T.  An
    empty batch has defect 0.
    """
    m = p @ transposed(f)
    defect = np.linalg.norm(m - np.swapaxes(m, -1, -2), axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
    return float(np.max(defect / scale, initial=0.0))


def voigt_to_tensor(v) -> np.ndarray:
    """Expand a 6-vector in (11, 22, 33, 12, 13, 23) order to a symmetric 3x3."""
    v = np.asarray(v, dtype=float)
    if v.shape != (6,):
        raise ValueError(f"expected 6 components, got shape {v.shape}")
    m = np.zeros((3, 3))
    for slot, (i, j) in enumerate(VOIGT_3D):
        m[i, j] = v[slot]
        m[j, i] = v[slot]
    return m


def tensor_to_voigt(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Reduce a symmetric 3x3 tensor to the 6-vector (11, 22, 33, 12, 13, 23)."""
    m = as_tensor(m, 3)
    if not is_symmetric(m, tol):
        raise ValueError("tensor is not symmetric within tolerance")
    return np.array([m[i, j] for i, j in VOIGT_3D])
