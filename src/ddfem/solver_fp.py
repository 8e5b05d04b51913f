"""Alternating data-driven solver in the (F, P) pairing.

Each outer iteration solves two decoupled linear systems that share the
scaled Laplacian K = mu0 * integral B^T B dV: the displacement system

    K u = mu0 * integral B^T (F* - I) dV

and the multiplier system

    K lam = integral B^T P* dV - f_ext,

followed by state recovery F = I + grad u, P = P* - mu0 grad lam.  The
multiplier system's sign pairing is chosen so that the recovered P
satisfies the discrete weak equilibrium against every multiplier test
function identically.  The multiplier is zero wherever u is prescribed,
so both systems eliminate the same dofs (`fem.ReducedSystem`) and are
solved on one LU.  K depends only on the mesh, mu0 and the prescribed
dofs, so the mesh keeps the reduced system and its LU
(`Quadrature.fp_system`, keyed by mu0 and the prescribed dof ids): the
first solve builds and factors them before its first iteration, and
every later solve on that mesh with an equal key, such as each level of
a multilevel run, reuses them.  A solve with another key replaces them.
One solve of the two systems is one pass of `assignment.assignment_loop`,
which FP runs as a single load step at the full load: it reassigns the
nearest tuples, stops on a fixed point, a cycle, penalty stagnation or
the iteration cap under the contract stated there, and builds the
SolveReport of the pass it returns.  The linear systems need no warm
start, so a pass ignores the load fraction and the previous fields.
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
    """Knobs of the alternating scheme: the loop's alone (both linear systems
    are solved on one sparse LU per mesh, mu0 and constraint set), with a
    pass cap of 200."""

    max_data_iterations: int = 200


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

    fixed, vals = bcs.fixed_dofs(mesh)
    zeros = np.zeros(fixed.size)
    f_ext = bcs.external_force(mesh)
    with np.errstate(over="ignore"):
        f_ext_norm = float(np.linalg.norm(f_ext))
    eye = np.eye(mesh.dim)

    def solve_pass(f_star: np.ndarray, p_star: np.ndarray, scale: float, start):
        # a load too large for floats overflows here; the search that
        # follows names the first state it made non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            rhs_u = red.rhs(mu0 * divergence_rhs(mesh, f_star - eye), vals)
            u = red.expand(lu.solve(rhs_u), vals)
            rhs_l = red.rhs(divergence_rhs(mesh, p_star) - f_ext, zeros)
            lam = red.expand(lu.solve(rhs_l), zeros)
            f_qp, p_qp = recover_states(mesh, u, lam, p_star, mu0)
            eq = divergence_rhs(mesh, p_qp) - f_ext
            eq_rel = float(np.linalg.norm(eq[red.free]))
            if f_ext_norm > 0.0:
                eq_rel /= f_ext_norm
        return u, lam, f_qp, p_qp, eq_rel

    quad = mesh.quadrature()
    key = (mu0, fixed.tobytes())
    if quad.fp_system is None or quad.fp_system[0] != key:
        quad.fp_system = None           # hold one factor at a time
        red = ReducedSystem(stiffness_vector(mesh, mu0), fixed)
        quad.fp_system = key, red, factorize(red.k_ff, "scaled Laplacian")
    _, red, lu = quad.fp_system
    report = assignment_loop(solve_pass, nearest_many, mesh, dataset, config)
    f_star = dataset.strains[report.assigned].reshape(report.strains.shape)
    neglected = mu0 * divergence_rhs(mesh, report.strains - f_star)[red.free]
    report.diagnostics = {
        "equilibrium_residual": report.residual_history[-1],
        "angular_momentum_defect": angular_momentum_defect(report.strains, report.stresses),
        "neglected_term": float(np.linalg.norm(neglected))}
    report.timings = {"total": time.perf_counter() - t0}
    return report
