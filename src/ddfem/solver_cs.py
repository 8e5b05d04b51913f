"""Nonlinear data-driven solver in the (C, S) pairing.

States are measured by C = F^T F against assigned tuples (C*, S*); the
multiplier field enters the recovered stress as

    S = S* + mu0 F^T grad(lam),

which makes the weak equilibrium of P = F S the multiplier residual.  At
fixed assignment the coupled residuals

    R_u = integral (2 mu0 F (C - C*) - grad(lam) S^T) : grad(du) dV
    R_l = integral (F S) : grad(dl) dV - f_ext(dl)

are driven to zero by Newton iteration with the exact tangent blocks
(assembled in closed form below and cross-checked against finite
differences in the test suite).  The outer loop alternates Newton solves
with nearest-tuple reassignment, optionally inside a load continuation
ramp.  Note K_ul = -K_lu^T: the coupled system is not symmetric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import (BoundaryConditions, Mesh, divergence_rhs, factorize,
                  free_dofs, gradient_field)
from .phase_space import DataSet, PairingKind, nearest_many, penalty_many
from .report import SolveReport


@dataclass
class CsConfig:
    """Newton and outer-loop knobs.

    line_search "backtracking" guards Newton with residual-decrease
    backtracking (factor ls_factor, at most ls_maxsteps cuts); the
    default "none" takes plain full steps.  load_steps > 1 ramps the
    external load (and prescribed displacements) linearly with warm
    starts.  threads is the number of workers the nearest-tuple k-d tree
    queries run on; every query is independent, so results are identical
    for every value.
    """

    max_data_iterations: int = 100
    newton_tol: float = 1e-10
    newton_maxit: int = 30
    line_search: str = "none"
    ls_factor: float = 0.5
    ls_maxsteps: int = 8
    load_steps: int = 1
    mu0: float | None = None
    penalty_tol: float = 1e-12
    threads: int = 1

    def __post_init__(self):
        if self.newton_tol <= 0.0 or self.penalty_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.load_steps < 1:
            raise ValueError("load_steps must be at least 1")
        if self.max_data_iterations < 1 or self.newton_maxit < 1:
            raise ValueError("iteration limits must be at least 1")
        if self.line_search not in ("none", "backtracking"):
            raise ValueError(f"unknown line search '{self.line_search}'")
        if not 0.0 < self.ls_factor < 1.0:
            raise ValueError("ls_factor must lie in (0, 1)")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


class NewtonError(RuntimeError):
    """Newton divergence; carries the residual-norm history."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


def _kinematics(mesh: Mesh, u: np.ndarray, lam: np.ndarray):
    d = mesh.dim
    f = gradient_field(mesh, u) + np.eye(d)
    lgrad = gradient_field(mesh, lam)
    c = np.einsum("eqki,eqkj->eqij", f, f)
    return f, lgrad, c


def recover_states_cs(mesh: Mesh, u: np.ndarray, lam: np.ndarray,
                      s_star: np.ndarray, mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-qp C = F^T F (symmetric by construction) and S = S* + mu0 F^T grad(lam)."""
    f, lgrad, c = _kinematics(mesh, u, lam)
    s = s_star + mu0 * np.einsum("eqki,eqkj->eqij", f, lgrad)
    return c, s


def residual_u(mesh: Mesh, u: np.ndarray, lam: np.ndarray, c_star: np.ndarray,
               s_star: np.ndarray, mu0: float) -> np.ndarray:
    """Unconstrained nodal residual of the strain-matching equation."""
    f, lgrad, c = _kinematics(mesh, u, lam)
    s_rec = s_star + mu0 * np.einsum("eqki,eqkj->eqij", f, lgrad)
    r_qp = (2.0 * mu0 * np.einsum("eqik,eqkj->eqij", f, c - c_star)
            - np.einsum("eqik,eqjk->eqij", lgrad, s_rec))
    return divergence_rhs(mesh, r_qp)


def residual_lambda(mesh: Mesh, u: np.ndarray, lam: np.ndarray,
                    s_star: np.ndarray, mu0: float,
                    f_ext: np.ndarray) -> np.ndarray:
    """Unconstrained nodal equilibrium residual of P = F S."""
    f, lgrad, _ = _kinematics(mesh, u, lam)
    s_rec = s_star + mu0 * np.einsum("eqki,eqkj->eqij", f, lgrad)
    p_qp = np.einsum("eqik,eqkj->eqij", f, s_rec)
    return divergence_rhs(mesh, p_qp) - f_ext


def tangent_blocks(mesh: Mesh, u: np.ndarray, lam: np.ndarray,
                   c_star: np.ndarray, s_star: np.ndarray, mu0: float):
    """Exact derivative blocks (K_uu, K_ul, K_lu, K_ll) as sparse csr.

    K_uu is symmetric, K_ll is symmetric positive semidefinite (a Gram
    form weighted by F F^T), and K_ul = -K_lu^T.
    """
    quad = mesh.quadrature()
    d = mesh.dim
    nper = mesh.etype.nodes_per_element
    g = quad.dndx
    w = quad.weights
    eye = np.eye(d)

    f, lgrad, c = _kinematics(mesh, u, lam)
    s_rec = s_star + mu0 * np.einsum("eqki,eqkj->eqij", f, lgrad)
    a = c - c_star
    fg = np.einsum("eqij,eqaj->eqai", f, g)
    lg = np.einsum("eqij,eqaj->eqai", lgrad, g)
    gg = np.einsum("eqaj,eqbj->eqab", g, g)
    gag = np.einsum("eqai,eqij,eqbj->eqab", g, a, g)
    gsg = np.einsum("eqai,eqij,eqbj->eqab", g, s_rec, g)
    fft = np.einsum("eqia,eqka->eqik", f, f)
    llt = np.einsum("eqia,eqka->eqik", lgrad, lgrad)

    k_uu = (2.0 * mu0 * np.einsum("eq,eqab,ik->eaibk", w, gag, eye)
            + 2.0 * mu0 * np.einsum("eq,eqbi,eqak->eaibk", w, fg, fg)
            + np.einsum("eq,eqik,eqab->eaibk", w, 2.0 * mu0 * fft - mu0 * llt, gg))
    k_ul = (-np.einsum("eq,eqab,ik->eaibk", w, gsg, eye)
            - mu0 * np.einsum("eq,eqbi,eqak->eaibk", w, lg, fg))
    k_lu = (np.einsum("eq,eqba,ik->eaibk", w, gsg, eye)
            + mu0 * np.einsum("eq,eqbi,eqak->eaibk", w, fg, lg))
    k_ll = mu0 * np.einsum("eq,eqik,eqab->eaibk", w, fft, gg)

    dofs = (mesh.elements[:, :, None] * d + np.arange(d)[None, None, :])
    dofs = dofs.reshape(mesh.n_elements, nper * d)
    rows = np.repeat(dofs, nper * d, axis=1).ravel()
    cols = np.tile(dofs, (1, nper * d)).ravel()
    n = mesh.n_dofs

    def build(block: np.ndarray) -> sp.csr_matrix:
        data = block.reshape(mesh.n_elements, nper * d, nper * d).ravel()
        m = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        m.sum_duplicates()
        return m

    return build(k_uu), build(k_ul), build(k_lu), build(k_ll)


def newton_solve(mesh: Mesh, bcs: BoundaryConditions, c_star: np.ndarray,
                 s_star: np.ndarray, mu0: float, config: CsConfig,
                 u0: np.ndarray | None = None, lam0: np.ndarray | None = None,
                 f_ext: np.ndarray | None = None, bc_scale: float = 1.0):
    """Newton iteration at fixed assignment; returns (u, lam, iters, norms).

    Residuals are reduced to the free dofs; convergence is declared at
    norm <= newton_tol * (1 + |f_ext|).  Raises NewtonError on divergence
    or when newton_maxit is exhausted.
    """
    n = mesh.n_dofs
    if f_ext is None:
        f_ext = bcs.external_force(mesh) * bc_scale
    fixed_u, vals_u = bcs.fixed_dofs(mesh)
    fixed_l, vals_l = bcs.lambda_fixed_dofs(mesh)
    free_u = free_dofs(n, fixed_u)
    free_l = free_dofs(n, fixed_l)

    u = np.zeros(n) if u0 is None else u0.astype(float).copy()
    lam = np.zeros(n) if lam0 is None else lam0.astype(float).copy()
    u[fixed_u] = vals_u * bc_scale
    lam[fixed_l] = vals_l

    scale = max(1.0, 1.0 + float(np.linalg.norm(f_ext)))

    def reduced_residual(u_try, lam_try):
        ru = residual_u(mesh, u_try, lam_try, c_star, s_star, mu0)[free_u]
        rl = residual_lambda(mesh, u_try, lam_try, s_star, mu0, f_ext)[free_l]
        return np.concatenate([ru, rl])

    history: list[float] = []
    res = reduced_residual(u, lam)
    norm = float(np.linalg.norm(res))
    history.append(norm)
    for it in range(config.newton_maxit + 1):
        if not np.isfinite(norm):
            raise NewtonError("Newton residual is not finite", history)
        if norm <= config.newton_tol * scale:
            return u, lam, it, history
        if it == config.newton_maxit:
            break
        k_uu, k_ul, k_lu, k_ll = tangent_blocks(mesh, u, lam, c_star, s_star, mu0)
        jac = sp.bmat([[k_uu[free_u][:, free_u], k_ul[free_u][:, free_l]],
                       [k_lu[free_l][:, free_u], k_ll[free_l][:, free_l]]],
                      format="csc")
        dx = factorize(jac, "tangent").solve(-res)
        du, dl = dx[:free_u.size], dx[free_u.size:]

        if config.line_search == "backtracking":
            alpha = 1.0
            accepted = False
            for _ in range(config.ls_maxsteps + 1):
                u_try = u.copy()
                lam_try = lam.copy()
                u_try[free_u] += alpha * du
                lam_try[free_l] += alpha * dl
                res_try = reduced_residual(u_try, lam_try)
                norm_try = float(np.linalg.norm(res_try))
                if np.isfinite(norm_try) and norm_try < norm * (1.0 - 1e-4 * alpha):
                    accepted = True
                    break
                alpha *= config.ls_factor
            if not accepted:
                raise NewtonError("line search could not reduce the residual", history)
            u, lam, res, norm = u_try, lam_try, res_try, norm_try
        else:
            u[free_u] += du
            lam[free_l] += dl
            res = reduced_residual(u, lam)
            norm = float(np.linalg.norm(res))
            if norm > 1e8 * scale + 1e4 * history[0]:
                raise NewtonError("Newton iteration diverged", history + [norm])
        history.append(norm)
    raise NewtonError(
        f"no convergence in {config.newton_maxit} Newton iterations "
        f"(residual {norm:.3e})", history)


def solve_cs(mesh: Mesh, bcs: BoundaryConditions, dataset: DataSet,
             config: CsConfig | None = None) -> SolveReport:
    """Outer data-assignment loop around Newton, with load continuation."""
    config = config or CsConfig()
    if dataset.kind is not PairingKind.CS:
        raise ValueError(f"solver expects a CS dataset, got {dataset.kind.value}")
    if dataset.dim != mesh.dim:
        raise ValueError(f"dataset dimension {dataset.dim} does not match mesh "
                         f"dimension {mesh.dim}")
    if config.mu0 is not None:
        dataset = dataset.with_mu0(config.mu0)
    mu0 = dataset.mu0
    t0 = time.perf_counter()

    quad = mesh.quadrature()
    d = mesh.dim
    n_states = quad.total_points
    weights = quad.weights.ravel()
    f_ext_full = bcs.external_force(mesh)

    seed = int(nearest_many(np.eye(d).reshape(1, -1), np.zeros((1, d * d)),
                            dataset)[0])
    assigned = np.full(n_states, seed, dtype=np.int64)
    u = np.zeros(mesh.n_dofs)
    lam = np.zeros(mesh.n_dofs)

    penalty_history: list[float] = []
    residual_history: list[float] = []
    newton_history: list[int] = []
    termination = "fixed-point"
    converged = True
    data_iterations = 0
    current = None  # (u, lam, assigned, c_qp, s_qp, locals_, residual, penalty)

    for step in range(1, config.load_steps + 1):
        bc_scale = step / config.load_steps
        f_step = f_ext_full * bc_scale
        seen: dict[bytes, int] = {}
        step_converged = False
        best = None
        for _ in range(config.max_data_iterations):
            c_star = dataset.strains[assigned].reshape(mesh.n_elements, quad.nqp, d, d)
            s_star = dataset.stresses[assigned].reshape(mesh.n_elements, quad.nqp, d, d)
            u, lam, iters, norms = newton_solve(
                mesh, bcs, c_star, s_star, mu0, config,
                u0=u, lam0=lam, f_ext=f_step, bc_scale=bc_scale)
            newton_history.append(iters)
            data_iterations += 1

            c_qp, s_qp = recover_states_cs(mesh, u, lam, s_star, mu0)
            locals_ = penalty_many(c_qp.reshape(n_states, -1),
                                   s_qp.reshape(n_states, -1), assigned, dataset)
            penalty = float(np.dot(weights, locals_))
            penalty_history.append(penalty)
            residual_history.append(norms[-1])
            current = (u, lam, assigned, c_qp, s_qp, locals_, norms[-1], penalty)
            if best is None or penalty < best[-1]:
                best = current

            new_assigned = nearest_many(c_qp.reshape(n_states, -1),
                                        s_qp.reshape(n_states, -1), dataset,
                                        workers=config.threads)
            if np.array_equal(new_assigned, assigned):
                termination, step_converged = "fixed-point", True
                break
            key = new_assigned.tobytes()
            if key in seen:
                termination, step_converged = "cycle", True
                # settle on the best assignment the cycle visited; the
                # next load step warm-starts from it
                if not np.array_equal(best[2], assigned):
                    current = best
                    u, lam, assigned = current[:3]
                    penalty_history.append(current[-1])
                    residual_history.append(current[-2])
                break
            seen[key] = data_iterations
            if (len(penalty_history) >= 2
                    and abs(penalty_history[-1] - penalty_history[-2])
                    <= config.penalty_tol * max(penalty_history[-2], 1e-300)):
                termination, step_converged = "penalty-stagnation", True
                break
            assigned = new_assigned
        if not step_converged:
            termination, converged = "max-iterations", False
            current = best
            break

    u, lam, assigned, c_qp, s_qp, locals_, _, penalty = current

    asym = s_qp - np.swapaxes(s_qp, -1, -2)
    s_scale = max(1.0, float(np.abs(s_qp).max()))
    fixed_l = bcs.lambda_fixed_dofs(mesh)[0]
    free_l = free_dofs(mesh.n_dofs, fixed_l)
    f_qp = gradient_field(mesh, u) + np.eye(d)
    p_qp = np.einsum("eqik,eqkj->eqij", f_qp, s_qp)
    eq = (divergence_rhs(mesh, p_qp) - f_ext_full)[free_l]
    f_norm = float(np.linalg.norm(f_ext_full))
    eq_rel = float(np.linalg.norm(eq)) / f_norm if f_norm > 0 else float(np.linalg.norm(eq))

    return SolveReport(
        formulation="CS",
        mesh=mesh,
        mu0=mu0,
        u=u,
        lam=lam,
        strains=c_qp,
        stresses=s_qp,
        assigned=assigned.reshape(mesh.n_elements, quad.nqp),
        local_penalties=locals_.reshape(mesh.n_elements, quad.nqp),
        global_penalty=penalty,
        penalty_history=penalty_history,
        residual_history=residual_history,
        newton_history=newton_history,
        data_iterations=data_iterations,
        converged=converged,
        termination=termination,
        diagnostics={"equilibrium_residual": eq_rel,
                     "stress_asymmetry": float(np.linalg.norm(asym) / s_scale)},
        timings={"total": time.perf_counter() - t0},
    )
