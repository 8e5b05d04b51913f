"""Classical comparison solvers: linear elastic FEM and 1D rod inversion.

These produce the baseline solutions the data-driven results are measured
against: a standard small-strain displacement FEM on the same meshes, and
the closed-form uniaxial rod answer obtained by inverting the stress
formula P(lam) = N0/A on its monotone branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data_gen import Family, piola_stress_1d
from .fem import BoundaryConditions, Mesh, ReducedSystem, factorize, stiffness
from .tensors import sym


@dataclass(frozen=True)
class LinearElasticLaw:
    """Isotropic linear elasticity; 2D meshes are treated as plane strain."""

    e_mod: float
    nu: float

    def __post_init__(self):
        for name in ("e_mod", "nu"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.e_mod <= 0.0:
            raise ValueError("Young's modulus must be positive")
        if not -1.0 < self.nu < 0.5:
            raise ValueError("Poisson ratio must lie in (-1, 0.5)")

    @property
    def lame(self) -> tuple[float, float]:
        lam = self.e_mod * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))
        mu = self.e_mod / (2.0 * (1.0 + self.nu))
        return lam, mu

    def stress(self, eps: np.ndarray) -> np.ndarray:
        """Small-strain stress; 1D uses the bar modulus E directly."""
        eps = np.asarray(eps, dtype=float)
        d = eps.shape[-1]
        if d == 1:
            return self.e_mod * eps
        lam, mu = self.lame
        trace = np.trace(eps, axis1=-2, axis2=-1)
        return lam * trace[..., None, None] * np.eye(d) + 2.0 * mu * eps


def elastic_stiffness(mesh: Mesh, law: LinearElasticLaw) -> sp.csr_matrix:
    """Small-strain stiffness B^T (W D) B for the isotropic law.

    D[(ij),(kl)] = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk), and [[E]]
    for LINE2 bars: column (kl) is the stress of the unit displacement
    gradient e_k e_l^T.
    """
    d = mesh.dim
    units = np.eye(d * d).reshape(-1, d, d)
    return stiffness(mesh, law.stress(sym(units)).reshape(d * d, d * d).T)


def solve_linear_elastic(mesh: Mesh, bcs: BoundaryConditions,
                         law: LinearElasticLaw) -> np.ndarray:
    """Displacement FEM solution of the linear elastic problem."""
    k = elastic_stiffness(mesh, law)
    f = bcs.external_force(mesh)
    fixed, values = bcs.fixed_dofs(mesh)
    red = ReducedSystem(k, fixed)
    lu = factorize(red.k_ff, "elastic stiffness")
    return red.expand(lu.solve(red.rhs(f, values)), values)


def rod_analytic(family: Family, c1: float, load: float, length: float,
                 area: float, c3: float = 0.0) -> float:
    """End displacement of the uniform end-loaded rod, (lam - 1) * length.

    Inverts P(lam) = load/area by bisection to 1e-12 after bracketing the
    root on the monotone branch; loads outside that branch raise.
    """
    # scipy.optimize costs about 10 MB of resident memory on import, and
    # this is its only use in the package
    from scipy.optimize import bisect

    target = load / area

    def residual(lam: float) -> float:
        return float(piola_stress_1d(family, lam, c1, c3)) - target

    lo, hi = 1e-9, 2.0
    while residual(hi) < 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("load outside the monotone stress range")
    if residual(lo) > 0.0:
        raise ValueError("load outside the monotone stress range")
    lam = bisect(residual, lo, hi, xtol=1e-12)
    return (lam - 1.0) * length
