"""Alternating data-driven solver in the (F, P) pairing.

Each outer iteration solves two decoupled linear systems that share the
scaled Laplacian K = mu0 * integral B^T B dV: the displacement system

    K u = mu0 * integral B^T (F* - I) dV

and the multiplier system

    K lam = integral B^T P* dV - f_ext,

followed by state recovery F = I + grad u, P = P* - mu0 grad lam.  The
multiplier system's sign pairing is chosen so that the recovered P
satisfies the discrete weak equilibrium against every multiplier test
function identically.  Each system eliminates its own prescribed dofs
(`fem.ReducedSystem`), and its K_ff is factorized once and reused in
every iteration; the two systems share one LU when the multiplier's
constraint pattern equals the displacement's, which is the default.
One solve of the two systems is one pass of `assignment.assignment_loop`,
which FP runs as a single load step at the full load: it reassigns the
nearest tuples, stops on a fixed point, a cycle, penalty stagnation or
the iteration cap under the contract stated there, and builds the
SolveReport of the pass it returns.  The linear systems need no warm
start, so a pass ignores the load fraction and the previous payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .assignment import LoopConfig, assignment_loop, checked_dataset
from .fem import (BoundaryConditions, Mesh, ReducedSystem, divergence_rhs,
                  factorize, gradient_field, stiffness_vector)
from .phase_space import DataSet, PairingKind, nearest_many
from .report import SolveReport
from .tensors import angular_momentum_defect


@dataclass
class FpConfig(LoopConfig):
    """Knobs of the alternating scheme: the loop's alone, since both linear
    systems are solved on one sparse LU per constraint pattern."""

    default_passes = 200


def recover_states(mesh: Mesh, u: np.ndarray, lam: np.ndarray,
                   p_star: np.ndarray, mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-qp F = I + grad u and P = P* - mu0 grad lam."""
    f = gradient_field(mesh, u) + np.eye(mesh.dim)
    p = p_star - mu0 * gradient_field(mesh, lam)
    return f, p


def solve_fp(mesh: Mesh, bcs: BoundaryConditions, dataset: DataSet,
             config: FpConfig | None = None) -> SolveReport:
    """Run the alternating scheme under the assignment-loop contract."""
    config = config or FpConfig()
    dataset = checked_dataset(mesh, dataset, PairingKind.FP, config.mu0)
    mu0 = dataset.mu0
    t0 = time.perf_counter()

    quad = mesh.quadrature()
    d = mesh.dim
    fixed_u, vals_u = bcs.fixed_dofs(mesh)
    fixed_l, vals_l = bcs.lambda_fixed_dofs(mesh)
    f_ext = bcs.external_force(mesh)
    f_ext_norm = float(np.linalg.norm(f_ext))
    eye = np.eye(d)

    def solve_pass(ids: np.ndarray, scale: float, start):
        f_star = dataset.strains[ids].reshape(mesh.n_elements, quad.nqp, d, d)
        p_star = dataset.stresses[ids].reshape(mesh.n_elements, quad.nqp, d, d)
        rhs_u = red_u.rhs(mu0 * divergence_rhs(mesh, f_star - eye), vals_u)
        u = red_u.expand(lu_u.solve(rhs_u), vals_u)
        rhs_l = red_l.rhs(divergence_rhs(mesh, p_star) - f_ext, vals_l)
        lam = red_l.expand(lu_l.solve(rhs_l), vals_l)
        f_qp, p_qp = recover_states(mesh, u, lam, p_star, mu0)
        eq = divergence_rhs(mesh, p_qp) - f_ext
        eq_rel = float(np.linalg.norm(eq[red_l.free]))
        if f_ext_norm > 0.0:
            eq_rel /= f_ext_norm
        return f_qp, p_qp, eq_rel, (u, lam)

    k = stiffness_vector(mesh, mu0)
    red_u = ReducedSystem(k, fixed_u)
    lu_u = factorize(red_u.k_ff, "scaled Laplacian")
    if np.array_equal(fixed_l, fixed_u):
        red_l, lu_l = red_u, lu_u
    else:
        red_l = ReducedSystem(k, fixed_l)
        lu_l = factorize(red_l.k_ff, "scaled Laplacian")
    result = assignment_loop(solve_pass, nearest_many, mesh, dataset, config)
    final = result.final
    f_star = dataset.strains[final.assigned].reshape(final.strains.shape)
    neglected = mu0 * divergence_rhs(mesh, final.strains - f_star)[red_u.free]
    return result.report(
        "FP",
        {"equilibrium_residual": final.residual,
         "angular_momentum_defect": angular_momentum_defect(final.strains, final.stresses),
         "neglected_term": float(np.linalg.norm(neglected))}, t0)
