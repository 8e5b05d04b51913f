"""Nonlinear data-driven solver in the (C, S) pairing.

States are measured by C = F^T F against assigned tuples (C*, S*); the
multiplier field enters the recovered stress as

    S = S* + mu0 F^T grad(lam),

which makes the weak equilibrium of P = F S the multiplier residual.  At
fixed assignment the coupled residuals

    R_u = integral (2 mu0 F (C - C*) - grad(lam) S^T) : grad(du) dV
    R_l = integral (F S) : grad(dl) dV - f_ext(dl)

are driven to zero by Newton's method with the exact tangent
(cross-checked against finite differences in the test suite).  The
tangent is one closed-form element kernel, `tangent_blocks`, which
returns the coupled element matrices over [u | lam] dofs as
batched matmuls over the quadrature points.  A `JacobianPattern`, built
once per `solve_cs` from the mesh and the boundary conditions, holds the
prescribed dofs (u's values, zero for lam) and maps every element entry
to its slot in the CSC data of the reduced Jacobian, so assembly is one
bincount.  Note K_ul = -K_lu^T: the coupled system is not symmetric, but
its sparsity is, so it is factored by sparse LU with the minimum-degree
ordering of A^T + A.  One factor is kept for the whole `solve_cs`,
across Newton steps, passes and load steps, because the Jacobian drifts
slowly between them.  Each step first tries a chord (simplified-Newton)
step on the kept factor and accepts it when it cuts the residual norm by
at least `CHORD_RATE`; otherwise it drops the factor, evaluates and
factors the exact tangent at the current iterate and takes a full
Newton step, under the line search when one is configured.  Most steps
therefore cost one triangular solve and one residual.  Kinematics (F,
grad(lam), C and S) are computed once per Newton iterate: both residuals
of a trial (u, lam) come from one evaluation, and the accepted iterate's
evaluation also feeds its tangent and, at convergence, the pass's state
recovery.  Gradients and divergences are products with the mesh's sparse
discrete gradient, which the mesh builds once and keeps.  One Newton solve is
one pass of `assignment.assignment_loop`, which runs the load steps of
the continuation ramp, reassigns the nearest tuples under the
termination contract stated there, and builds the SolveReport.  Each
pass loads to its step's fraction of the external load and prescribed
displacements, and warm-starts Newton from the (u, lam) the loop hands
it, or from zero fields on the first pass.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assignment import LoopConfig, assignment_loop, checked_dataset
from .fem import (BoundaryConditions, Mesh, divergence_rhs, factorize,
                  free_dofs, gradient_field)
from .phase_space import DataSet, PairingKind, nearest_many
from .report import SolveReport
from .tensors import transposed

_AXES = "xyz"


@dataclass
class CsConfig(LoopConfig):
    """The assignment loop's knobs plus Newton's and the load ramp's.

    line_search "backtracking" guards each full Newton step with
    residual-decrease backtracking (factor ls_factor, at most ls_maxsteps
    cuts); the default "none" takes plain full steps.  Chord steps are
    accepted only on a CHORD_RATE contraction in either mode.
    newton_maxit caps the steps of one Newton solve, chord and full
    Newton steps together.  load_steps > 1 ramps the external load (and
    prescribed displacements) linearly: the assignment loop runs one
    load step per increment, and each step's first Newton solve starts
    from the (u, lam) the previous step returned.
    """

    newton_tol: float = 1e-10
    newton_maxit: int = 30
    line_search: str = "none"
    ls_factor: float = 0.5
    ls_maxsteps: int = 8
    load_steps: int = 1

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.newton_tol < np.inf:
            raise ValueError("tolerances must be positive and finite")
        if self.load_steps < 1:
            raise ValueError("load_steps must be at least 1")
        if self.newton_maxit < 1:
            raise ValueError("newton_maxit must be at least 1")
        if self.line_search not in ("none", "backtracking"):
            raise ValueError(f"unknown line search '{self.line_search}'")
        if not 0.0 < self.ls_factor < 1.0:
            raise ValueError("ls_factor must lie in (0, 1)")
        if self.ls_maxsteps < 0:
            raise ValueError("ls_maxsteps must be at least 0")


class NewtonError(RuntimeError):
    """Newton divergence; carries the residual-norm history."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


def _kinematics(mesh: Mesh, u: np.ndarray, lam: np.ndarray, s_star: np.ndarray,
                mu0: float):
    """Per-qp F, grad(lam), C = F^T F and S = S* + mu0 F^T grad(lam)."""
    f = gradient_field(mesh, u) + np.eye(mesh.dim)
    lgrad = gradient_field(mesh, lam)
    ft = transposed(f)
    return f, lgrad, ft @ f, s_star + mu0 * (ft @ lgrad)


def _strain_matching(kin, c_star: np.ndarray, mu0: float) -> np.ndarray:
    """Per-qp integrand 2 mu0 F (C - C*) - grad(lam) S^T of R_u."""
    f, lgrad, c, s = kin
    return 2.0 * mu0 * (f @ (c - c_star)) - lgrad @ transposed(s)


def _first_piola(kin) -> np.ndarray:
    """Per-qp integrand P = F S of R_l."""
    f, _, _, s = kin
    return f @ s


def recover_states_cs(mesh: Mesh, u: np.ndarray, lam: np.ndarray,
                      s_star: np.ndarray, mu0: float,
                      kin=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-qp C = F^T F (symmetric by construction) and S = S* + mu0 F^T grad(lam).

    `kin` is the kinematics already evaluated at (u, lam), if any.
    """
    if kin is None:
        kin = _kinematics(mesh, u, lam, s_star, mu0)
    _, _, c, s = kin
    return c, s


def residual_u(mesh: Mesh, u: np.ndarray, lam: np.ndarray, c_star: np.ndarray,
               s_star: np.ndarray, mu0: float) -> np.ndarray:
    """Unconstrained nodal residual of the strain-matching equation."""
    kin = _kinematics(mesh, u, lam, s_star, mu0)
    return divergence_rhs(mesh, _strain_matching(kin, c_star, mu0))


def residual_lambda(mesh: Mesh, u: np.ndarray, lam: np.ndarray,
                    s_star: np.ndarray, mu0: float,
                    f_ext: np.ndarray) -> np.ndarray:
    """Unconstrained nodal equilibrium residual of P = F S."""
    kin = _kinematics(mesh, u, lam, s_star, mu0)
    return divergence_rhs(mesh, _first_piola(kin)) - f_ext


def _node_pairs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_q x_q y_q^T over the quadrature points: (e,q,r,s), (e,q,t,s) -> (e,r,t)."""
    nel, nqp, r, s = x.shape
    x = np.swapaxes(x, 1, 2).reshape(nel, r, nqp * s)
    y = np.swapaxes(y, 1, 2).reshape(nel, -1, nqp * s)
    return x @ np.swapaxes(y, 1, 2)


def tangent_blocks(mesh: Mesh, u: np.ndarray, lam: np.ndarray,
                   c_star: np.ndarray, s_star: np.ndarray, mu0: float,
                   kin=None) -> np.ndarray:
    """Exact coupled element tangents, shape (n_el, 2 nper d, 2 nper d).

    Rows and columns are ordered [u dofs | lam dofs], each node-major
    like the global numbering.  Assembled, the four blocks satisfy:
    K_uu is symmetric, K_ll is symmetric positive semidefinite (a Gram
    form weighted by F F^T), and K_ul = -K_lu^T.  `kin` is the
    kinematics already evaluated at (u, lam); omitted, it is computed.
    """
    quad = mesh.quadrature()
    g = quad.dndx                                   # (e, q, a, j)
    w = quad.weights
    nel, nqp, nper, d = g.shape
    m = nper * d

    if kin is None:
        kin = _kinematics(mesh, u, lam, s_star, mu0)
    f, lgrad, c, s_rec = kin
    ft, lt = transposed(f), transposed(lgrad)

    # outer products of F g and grad(lam) g, summed as [X a k, Y b i]
    # over the [u | lam] blocks X, Y and stored with i and k exchanged
    v = np.concatenate([(g @ ft).reshape(nel, nqp, m),
                        (g @ lt).reshape(nel, nqp, m)], axis=2)
    outer = (np.swapaxes(w[:, :, None] * v, 1, 2) @ v).reshape(nel, 2, nper, d, 2, nper, d)
    coef = np.array([[2.0 * mu0, -mu0], [mu0, 0.0]]).reshape(1, 2, 1, 1, 2, 1, 1)
    k = np.empty((nel, 2, nper, d, 2, nper, d))
    np.multiply(outer.transpose(0, 1, 2, 6, 4, 5, 3), coef, out=k)

    # (F F^T, grad(lam) grad(lam)^T) (x) (g g^T) on the diagonal blocks
    fft, llt = f @ ft, lgrad @ lt
    metrics = np.stack([2.0 * mu0 * fft - mu0 * llt, mu0 * fft], axis=2)
    ggw = (w[:, :, None, None] * (g @ transposed(g))).reshape(nel, nqp, nper * nper)
    kron = (np.swapaxes(ggw, 1, 2) @ metrics.reshape(nel, nqp, 2 * d * d)).reshape(
        nel, nper, nper, 2, d, d)
    for x in range(2):
        k[:, x, :, :, x] += kron[:, :, :, x].transpose(0, 1, 3, 2, 4)

    # delta_ik terms: node-pair scalars g (C - C*) g^T and g S g^T
    wg = w[:, :, None, None] * g
    gag = _node_pairs(wg @ (c - c_star), g)
    gsg = _node_pairs(wg @ s_rec, g)
    for i in range(d):
        k[:, 0, :, i, 0, :, i] += 2.0 * mu0 * gag
        k[:, 0, :, i, 1, :, i] -= gsg
        k[:, 1, :, i, 0, :, i] += np.swapaxes(gsg, 1, 2)
    return k.reshape(nel, 2 * m, 2 * m)


class JacobianPattern:
    """Constrained dofs of one solve and the scatter map from coupled
    element tangents to the free-dof Jacobian.

    `fixed`/`vals` are the prescribed u dofs with their values, collected
    once; the multiplier is zero at the same dofs, so both blocks share
    the free dofs `free`.  The reduced Jacobian [[K_uu, K_ul], [K_lu,
    K_ll]] keeps the rows and columns of the free u dofs (first) and the
    free multiplier dofs.  Every flattened element-matrix entry gets the
    CSC data slot it adds into, or the spare slot nnz when it touches a
    prescribed dof, so assembly is one bincount.  Build it once per mesh
    and constraint set.
    """

    def __init__(self, mesh: Mesh, bcs: BoundaryConditions):
        n, d = mesh.n_dofs, mesh.dim
        self.fixed, self.vals = bcs.fixed_dofs(mesh)
        self.free = free = free_dofs(n, self.fixed)
        nf = free.size
        # reduced position of each u (and lam) dof, -1 where it is prescribed
        position = np.full(n, -1, dtype=np.int64)
        position[free] = np.arange(nf)
        dofs = (mesh.elements[:, :, None] * d + np.arange(d)).reshape(mesh.n_elements, -1)
        local = position[dofs]
        dropped = nf * nf
        # the pattern of one block, which all four share; column-major
        # key, so sorted keys are the CSC order
        key = np.where((local[:, :, None] >= 0) & (local[:, None, :] >= 0),
                       local[:, None, :] * nf + local[:, :, None], dropped)
        keys, block_slot = np.unique(key.ravel(), return_inverse=True)
        nnz = int(np.searchsorted(keys, dropped))
        col, row = np.divmod(keys[:nnz], nf)
        ptr = np.searchsorted(col, np.arange(nf + 1))
        # Column c of the reduced Jacobian holds the block's rows of c for
        # u, then the same rows for lam: block entry k lands at ptr[c] + k
        # or at ptr[c + 1] + k, and 2 nnz further on in a lam column.
        # to_slot[row block, column block] maps every block slot, the
        # spare one included.
        k = np.arange(nnz)
        to_slot = np.full((2, 2, nnz + 1), 4 * nnz, dtype=np.int32)
        to_slot[..., :nnz] = (np.stack([ptr[col] + k, ptr[col + 1] + k])[:, None]
                              + 2 * nnz * np.arange(2)[:, None])
        # (row block, column block, element, i, j) to the element
        # tangent's (element, row block, i, column block, j)
        self.slot = to_slot[..., block_slot.reshape(key.shape)].transpose(2, 0, 3, 1, 4).ravel()
        self.indices = np.empty(4 * nnz, dtype=np.int32)
        self.indices[to_slot[..., :nnz]] = row + nf * np.arange(2)[:, None, None]
        self.indptr = np.concatenate([2 * ptr[:-1], 2 * nnz + 2 * ptr]).astype(np.int32)
        self.nnz = 4 * nnz
        self.size = 2 * nf

    def assemble(self, k_el: np.ndarray) -> sp.csc_matrix:
        """Reduced Jacobian from element tangents ordered like tangent_blocks."""
        data = np.bincount(self.slot, weights=k_el.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(self.size, self.size))


def check_rigid_modes(mesh: Mesh, pattern: JacobianPattern) -> None:
    """Raise when the prescribed dofs leave a rigid mode of (u, lam) free.

    The d translations and d(d-1)/2 infinitesimal rotations, evaluated at
    the prescribed dofs, must have full column rank; without it Newton's
    chord steps can converge to one of a family of solutions.  Rotations
    are taken about the prescribed nodes' centroid and scaled by their
    extent, which leaves the rank alone.  lam enters the residuals only
    through its gradient: its translations are null modes of the tangent
    and need a prescribed dof, its rotations are not.  lam is zero
    wherever u is prescribed, so u's translation test covers lam's.
    """
    d = mesh.dim
    node, comp = np.divmod(pattern.fixed, d)
    x = mesh.nodes[node]
    if x.size:
        x = x - x.mean(axis=0)
        x = x / max(np.abs(x).max(), 1.0e-300)
    modes = [(f"translation along {_AXES[k]}", comp == k) for k in range(d)]
    modes += [(f"rotation in the {_AXES[i]}-{_AXES[j]} plane",
               np.where(comp == i, -x[:, j], 0.0) + np.where(comp == j, x[:, i], 0.0))
              for i, j in itertools.combinations(range(d), 2)]
    m = np.column_stack([values for _, values in modes]).astype(float)
    w, v = np.linalg.eigh(m.T @ m)
    if w[0] <= 1e-12 * w[-1]:
        name = modes[int(np.argmax(np.abs(v[:, 0])))][0]
        raise ValueError(f"the prescribed displacements leave a rigid {name} free; "
                         f"prescribe enough displacement components to suppress it")


# A chord step on the kept factor is accepted when it cuts the residual
# norm to at most this fraction; a slower step refactors.  The bound is
# stricter than the line search's sufficient-decrease test, so a chord
# step needs no line search.
CHORD_RATE = 0.25


class _TangentSolver:
    """The sparse LU kept across the Newton solves of one `solve_cs`.

    Jacobians of one solve share a pattern and drift slowly between
    Newton steps, passes and load steps, so `newton_solve` takes chord
    steps on `lu` while they contract and calls `factor` when one does
    not.  Counts the tangents `newton_solve` evaluated and the
    factorizations.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.tangent_evaluations = 0

    def factor(self, jac: sp.csc_matrix):
        """Replace the kept LU by one of `jac` and return it."""
        # hold one factor at a time: release the old one before building
        self.lu = None
        # the coupled Jacobian is structurally symmetric
        self.lu = factorize(jac, "tangent", permc_spec="MMD_AT_PLUS_A")
        self.factorizations += 1
        return self.lu


def newton_solve(mesh: Mesh, bcs: BoundaryConditions, c_star: np.ndarray,
                 s_star: np.ndarray, mu0: float, config: CsConfig,
                 u0: np.ndarray | None = None, lam0: np.ndarray | None = None,
                 f_ext: np.ndarray | None = None, bc_scale: float = 1.0,
                 pattern: JacobianPattern | None = None,
                 solver: _TangentSolver | None = None):
    """Newton iteration at fixed assignment; returns (u, lam, iters, norms, kin).

    `iters` counts the accepted steps, chord and Newton alike, and `kin`
    is the kinematics (F, grad(lam), C, S) of the returned (u, lam).

    (u0, lam0) is the warm start, zero when omitted; at its prescribed
    dofs u is overwritten by the Dirichlet values scaled by `bc_scale`,
    and lam by 0.

    Residuals are reduced to the free dofs; convergence is declared at
    norm <= newton_tol * (1 + |f_ext|).  `pattern` must have been built
    for the same mesh and constraints; it is built here when omitted.
    `solver` holds the factor chord steps use and may carry one over
    from earlier solves on the same pattern; a fresh one is made when
    omitted.  Raises NewtonError on divergence or when newton_maxit is
    exhausted.
    """
    n = mesh.n_dofs
    if f_ext is None:
        f_ext = bcs.external_force(mesh) * bc_scale
    if pattern is None:
        pattern = JacobianPattern(mesh, bcs)
    free = pattern.free
    if solver is None:
        solver = _TangentSolver()

    u = np.zeros(n) if u0 is None else u0.astype(float).copy()
    lam = np.zeros(n) if lam0 is None else lam0.astype(float).copy()
    u[pattern.fixed] = pattern.vals * bc_scale
    lam[pattern.fixed] = 0.0

    scale = max(1.0, 1.0 + float(np.linalg.norm(f_ext)))

    def evaluate(u_try, lam_try):
        """(u, lam, reduced residual, its norm, kinematics) at (u_try, lam_try)."""
        kin_try = _kinematics(mesh, u_try, lam_try, s_star, mu0)
        ru = divergence_rhs(mesh, _strain_matching(kin_try, c_star, mu0))[free]
        rl = (divergence_rhs(mesh, _first_piola(kin_try)) - f_ext)[free]
        res_try = np.concatenate([ru, rl])
        return u_try, lam_try, res_try, float(np.linalg.norm(res_try)), kin_try

    def trial(dx, alpha=1.0):
        u_try, lam_try = u.copy(), lam.copy()
        u_try[free] += alpha * dx[:free.size]
        lam_try[free] += alpha * dx[free.size:]
        return evaluate(u_try, lam_try)

    u, lam, res, norm, kin = evaluate(u, lam)
    history = [norm]
    for it in range(config.newton_maxit + 1):
        if not np.isfinite(norm):
            raise NewtonError("Newton residual is not finite", history)
        if norm <= config.newton_tol * scale:
            return u, lam, it, history, kin
        if it == config.newton_maxit:
            break
        # step = (u, lam, res, norm, kin) of the accepted trial
        step = None
        if solver.lu is not None:
            step = trial(solver.lu.solve(-res))
            if not step[3] <= CHORD_RATE * norm:     # a NaN norm fails too
                step = None
        if step is None:
            jac = pattern.assemble(tangent_blocks(mesh, u, lam, c_star, s_star, mu0,
                                                  kin=kin))
            solver.tangent_evaluations += 1
            dx = solver.factor(jac).solve(-res)
            if config.line_search == "backtracking":
                alpha = 1.0
                for _ in range(config.ls_maxsteps + 1):
                    step = trial(dx, alpha)
                    if np.isfinite(step[3]) and step[3] < norm * (1.0 - 1e-4 * alpha):
                        break
                    alpha *= config.ls_factor
                else:
                    raise NewtonError("line search could not reduce the residual",
                                      history)
            else:
                step = trial(dx)
                if step[3] > 1e8 * scale + 1e4 * history[0]:
                    raise NewtonError("Newton iteration diverged", history + [step[3]])
        u, lam, res, norm, kin = step
        history.append(norm)
    raise NewtonError(
        f"no convergence in {config.newton_maxit} Newton iterations "
        f"(residual {norm:.3e})", history)


def solve_cs(mesh: Mesh, bcs: BoundaryConditions, dataset: DataSet,
             config: CsConfig | None = None) -> SolveReport:
    """Newton inside the assignment loop, which runs the load steps.

    Raises ValueError before the first Newton step when the prescribed
    dofs leave a rigid mode free (`check_rigid_modes`), or when the
    residual is not finite there, at the first load step's fields: an
    input error, where a non-finite residual after a step is a
    divergence (NewtonError).
    """
    config = config or CsConfig()
    dataset = checked_dataset(mesh, dataset, PairingKind.CS, config.mu0)
    mu0 = dataset.mu0
    t0 = time.perf_counter()

    f_ext = bcs.external_force(mesh)
    pattern = JacobianPattern(mesh, bcs)
    check_rigid_modes(mesh, pattern)
    solver = _TangentSolver()
    zeros = np.zeros(mesh.n_dofs)
    newton_history: list[int] = []

    def solve_pass(c_star: np.ndarray, s_star: np.ndarray, scale: float, start):
        u0, lam0 = (zeros, zeros) if start is None else start
        try:
            # an overflow shows as a non-finite residual norm, which
            # newton_solve rejects
            with np.errstate(over="ignore", invalid="ignore"):
                u, lam, iters, norms, kin = newton_solve(
                    mesh, bcs, c_star, s_star, mu0, config, u0=u0, lam0=lam0,
                    f_ext=f_ext * scale, bc_scale=scale, pattern=pattern, solver=solver)
        except NewtonError as err:
            # before any step of the first pass, Newton stands at the
            # load-free fields: only the loads can have made it non-finite
            if start is None and not np.isfinite(err.history[0]):
                raise ValueError(f"Newton residual is not finite at the start of the "
                                 f"solve, load scale {scale:g}: the loads or "
                                 f"prescribed displacements are too large") from None
            raise
        newton_history.append(iters)
        c_qp, s_qp = recover_states_cs(mesh, u, lam, s_star, mu0, kin=kin)
        return u, lam, c_qp, s_qp, norms[-1]

    report = assignment_loop(solve_pass, nearest_many, mesh, dataset, config,
                             config.load_steps)
    s_qp = report.stresses
    f_qp = gradient_field(mesh, report.u) + np.eye(mesh.dim)
    eq = (divergence_rhs(mesh, f_qp @ s_qp) - f_ext)[pattern.free]

    asym = s_qp - np.swapaxes(s_qp, -1, -2)
    s_scale = max(1.0, float(np.abs(s_qp).max()))
    f_norm = float(np.linalg.norm(f_ext))
    eq_rel = float(np.linalg.norm(eq)) / f_norm if f_norm > 0 else float(np.linalg.norm(eq))
    report.newton_history = newton_history
    report.diagnostics = {
        "equilibrium_residual": eq_rel,
        "stress_asymmetry": float(np.linalg.norm(asym) / s_scale),
        "factorizations": solver.factorizations,
        "tangent_evaluations": solver.tangent_evaluations}
    report.timings = {"total": time.perf_counter() - t0}
    return report
