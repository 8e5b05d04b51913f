"""Alternating data-driven solver in the (F, P) pairing.

Each outer iteration solves two decoupled linear systems that share the
scaled Laplacian K = mu0 * integral B^T B dV: the displacement system

    K u = mu0 * integral B^T (F* - I) dV

and the multiplier system

    K lam = integral B^T P* dV - f_ext,

followed by state recovery F = I + grad u, P = P* - mu0 grad lam and a
nearest-tuple reassignment.  The multiplier system's sign pairing is
chosen so that the recovered P satisfies the discrete weak equilibrium
against every multiplier test function identically; the assignment loop
stops on a fixed point, penalty stagnation, or a detected cycle.
K is factorized once and reused for both fields and all iterations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .fem import (BoundaryConditions, Mesh, divergence_rhs, expand_solution,
                  factorize, free_dofs, gradient_field, stiffness_vector)
from .phase_space import DataSet, PairingKind, nearest_many, penalty_many
from .report import SolveReport
from .tensors import angular_momentum_defect


@dataclass
class FpConfig:
    """Knobs of the alternating scheme.

    mu0 = None defers to the dataset's stored scale.  threads is the
    number of workers the nearest-tuple k-d tree queries run on; every
    query is independent, so results are identical for every value.
    linear_solver is "direct" (sparse LU) or "cg".
    """

    max_data_iterations: int = 200
    penalty_tol: float = 1e-12
    mu0: float | None = None
    linear_solver: str = "direct"
    cg_tol: float = 1e-12
    cg_maxit: int = 20_000
    threads: int = 1

    def __post_init__(self):
        if self.max_data_iterations < 1:
            raise ValueError("max_data_iterations must be at least 1")
        if self.penalty_tol <= 0.0 or self.cg_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.linear_solver not in ("direct", "cg"):
            raise ValueError(f"unknown linear solver '{self.linear_solver}'")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


class _SharedSystem:
    """One stiffness matrix, two constraint patterns, reusable solves."""

    def __init__(self, mesh: Mesh, bcs: BoundaryConditions, mu0: float,
                 config: FpConfig):
        self.mesh = mesh
        self.k = stiffness_vector(mesh, mu0)
        self.config = config
        self.fixed_u, self.vals_u = bcs.fixed_dofs(mesh)
        self.fixed_l, self.vals_l = bcs.lambda_fixed_dofs(mesh)
        self._solvers: dict = {}
        self._prep("u", self.fixed_u)
        if (self.fixed_l.size == self.fixed_u.size
                and np.array_equal(self.fixed_l, self.fixed_u)):
            self._solvers["l"] = self._solvers["u"]
        else:
            self._prep("l", self.fixed_l)

    def _prep(self, tag: str, fixed: np.ndarray) -> None:
        free = free_dofs(self.k.shape[0], fixed)
        k_ff = self.k[free][:, free].tocsr()
        k_fc = self.k[free][:, fixed].tocsr() if fixed.size else None
        if self.config.linear_solver == "direct":
            solver = factorize(k_ff, "scaled Laplacian")
            solve = solver.solve
        else:
            def solve(rhs, _k=k_ff):
                x, info = spla.cg(_k, rhs, rtol=self.config.cg_tol,
                                  atol=0.0, maxiter=self.config.cg_maxit)
                if info != 0:
                    raise RuntimeError(f"cg failed to converge (info={info})")
                return x
        self._solvers[tag] = (free, k_fc, solve)

    def solve(self, tag: str, rhs: np.ndarray, fixed: np.ndarray,
              values: np.ndarray) -> np.ndarray:
        free, k_fc, solve = self._solvers[tag]
        rhs_f = rhs[free]
        if k_fc is not None and np.any(values != 0.0):
            rhs_f = rhs_f - k_fc @ values
        return expand_solution(self.k.shape[0], free, solve(rhs_f), fixed, values)

    def solve_u(self, rhs: np.ndarray) -> np.ndarray:
        return self.solve("u", rhs, self.fixed_u, self.vals_u)

    def solve_lambda(self, rhs: np.ndarray) -> np.ndarray:
        return self.solve("l", rhs, self.fixed_l, self.vals_l)

    def lambda_free(self) -> np.ndarray:
        return self._solvers["l"][0]

    def u_free(self) -> np.ndarray:
        return self._solvers["u"][0]


def _check_inputs(mesh: Mesh, dataset: DataSet) -> None:
    if dataset.kind is not PairingKind.FP:
        raise ValueError(f"solver expects an FP dataset, got {dataset.kind.value}")
    if dataset.dim != mesh.dim:
        raise ValueError(f"dataset dimension {dataset.dim} does not match mesh "
                         f"dimension {mesh.dim}")


def solve_u_system(mesh: Mesh, bcs: BoundaryConditions, f_star: np.ndarray,
                   mu0: float, config: FpConfig | None = None) -> np.ndarray:
    """One displacement solve against assigned deformation gradients F*."""
    sys = _SharedSystem(mesh, bcs, mu0, config or FpConfig())
    rhs = mu0 * divergence_rhs(mesh, f_star - np.eye(mesh.dim))
    return sys.solve_u(rhs)


def solve_lambda_system(mesh: Mesh, bcs: BoundaryConditions, p_star: np.ndarray,
                        f_ext: np.ndarray, mu0: float,
                        config: FpConfig | None = None) -> np.ndarray:
    """One multiplier solve against assigned stresses P* and loads."""
    sys = _SharedSystem(mesh, bcs, mu0, config or FpConfig())
    rhs = divergence_rhs(mesh, p_star) - f_ext
    return sys.solve_lambda(rhs)


def recover_states(mesh: Mesh, u: np.ndarray, lam: np.ndarray,
                   p_star: np.ndarray, mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-qp F = I + grad u and P = P* - mu0 grad lam."""
    f = gradient_field(mesh, u) + np.eye(mesh.dim)
    p = p_star - mu0 * gradient_field(mesh, lam)
    return f, p


def solve_fp(mesh: Mesh, bcs: BoundaryConditions, dataset: DataSet,
             config: FpConfig | None = None) -> SolveReport:
    """Run the alternating scheme to an assignment fixed point."""
    config = config or FpConfig()
    _check_inputs(mesh, dataset)
    if config.mu0 is not None:
        dataset = dataset.with_mu0(config.mu0)
    mu0 = dataset.mu0
    t0 = time.perf_counter()

    quad = mesh.quadrature()
    d = mesh.dim
    n_states = quad.total_points
    weights = quad.weights.ravel()
    sys = _SharedSystem(mesh, bcs, mu0, config)
    f_ext = bcs.external_force(mesh)
    f_ext_norm = float(np.linalg.norm(f_ext))
    lam_free = sys.lambda_free()
    eye = np.eye(d)

    # deterministic load-free start: every point looks at (I, 0)
    seed_id = int(nearest_many(eye.reshape(1, -1), np.zeros((1, d * d)), dataset)[0])
    assigned = np.full(n_states, seed_id, dtype=np.int64)

    penalty_history: list[float] = []
    residual_history: list[float] = []
    seen: dict[bytes, int] = {}
    best = None
    termination = "max-iterations"
    converged = False
    iteration = 0

    def run_pass(ids: np.ndarray):
        f_star = dataset.strains[ids].reshape(mesh.n_elements, quad.nqp, d, d)
        p_star = dataset.stresses[ids].reshape(mesh.n_elements, quad.nqp, d, d)
        u = sys.solve_u(mu0 * divergence_rhs(mesh, f_star - eye))
        lam = sys.solve_lambda(divergence_rhs(mesh, p_star) - f_ext)
        f_qp, p_qp = recover_states(mesh, u, lam, p_star, mu0)
        locals_ = penalty_many(f_qp.reshape(n_states, -1),
                               p_qp.reshape(n_states, -1), ids, dataset)
        penalty = float(np.dot(weights, locals_))
        eq = divergence_rhs(mesh, p_qp) - f_ext
        eq_rel = float(np.linalg.norm(eq[lam_free]))
        if f_ext_norm > 0.0:
            eq_rel /= f_ext_norm
        neglected = mu0 * divergence_rhs(mesh, f_qp - f_star)
        return u, lam, f_qp, p_qp, locals_, penalty, eq_rel, float(
            np.linalg.norm(neglected[sys.u_free()]))

    state = run_pass(assigned)
    while True:
        u, lam, f_qp, p_qp, locals_, penalty, eq_rel, neglected = state
        penalty_history.append(penalty)
        residual_history.append(eq_rel)
        if best is None or penalty < best[0]:
            best = (penalty, assigned, state)
        iteration += 1

        new_assigned = nearest_many(f_qp.reshape(n_states, -1),
                                    p_qp.reshape(n_states, -1), dataset,
                                    workers=config.threads)
        if np.array_equal(new_assigned, assigned):
            termination, converged = "fixed-point", True
            break
        key = new_assigned.tobytes()
        if key in seen:
            termination, converged = "cycle", True
            # settle on the best assignment the cycle visited
            if not np.array_equal(best[1], assigned):
                assigned = best[1]
                state = best[2]
                u, lam, f_qp, p_qp, locals_, penalty, eq_rel, neglected = state
                penalty_history.append(penalty)
                residual_history.append(eq_rel)
            break
        seen[key] = iteration
        if (len(penalty_history) >= 2
                and abs(penalty_history[-1] - penalty_history[-2])
                <= config.penalty_tol * max(penalty_history[-2], 1e-300)):
            termination, converged = "penalty-stagnation", True
            break
        if iteration >= config.max_data_iterations:
            if penalty > best[0]:
                assigned, state = best[1], best[2]
                u, lam, f_qp, p_qp, locals_, penalty, eq_rel, neglected = state
            termination, converged = "max-iterations", False
            break
        assigned = new_assigned
        state = run_pass(assigned)

    am_defect = max(
        (angular_momentum_defect(f_qp[e, q], p_qp[e, q])
         for e in range(mesh.n_elements) for q in range(quad.nqp)), default=0.0)
    return SolveReport(
        formulation="FP",
        mesh=mesh,
        mu0=mu0,
        u=u,
        lam=lam,
        strains=f_qp,
        stresses=p_qp,
        assigned=assigned.reshape(mesh.n_elements, quad.nqp),
        local_penalties=locals_.reshape(mesh.n_elements, quad.nqp),
        global_penalty=penalty,
        penalty_history=penalty_history,
        residual_history=residual_history,
        data_iterations=iteration,
        converged=converged,
        termination=termination,
        diagnostics={"equilibrium_residual": eq_rel,
                     "angular_momentum_defect": am_defect,
                     "neglected_term": neglected},
        timings={"total": time.perf_counter() - t0},
    )
