"""The load-step driver both solvers run, and its termination contract.

`assignment_loop` runs every load step of a solve; step k of n applies
the load fraction k/n.  Every quadrature point is assigned a tuple; on
the first step each point takes the tuple nearest the load-free state
(I, 0), and a later step starts from the assignment and the fields of
the pass the previous step returned.  A pass solves at the current
assignment, warm-started from the fields of the pass before it, records
the weighted global penalty and the equilibrium residual as one history
row, and searches for the tuple nearest each recovered state.  A step
stops at the first of these that holds, in this order:

1. ``fixed-point``: the search returns the current assignment.
2. ``cycle``: the search returns an assignment this step already solved
   at: the step's start assignment or one it proposed earlier.
3. ``penalty-stagnation``: the penalties of the last two passes of this
   step differ by at most ``penalty_tol`` relative to the earlier one.
4. ``max-iterations``: the step has run ``max_data_iterations`` passes.
   Only this exit is not converged, and it ends the solve: no later
   step runs.

The best pass is the first pass with the smallest penalty.  On a cycle
or at the cap, the step returns the best pass, and when that is not the
last pass its penalty and residual are appended as one more history
row.  A fixed point or stagnation returns the last pass.  Either way the
last history row belongs to the returned pass.  The loop returns the
SolveReport of the pass its last step returned, with the history rows
of every step; the report is converged unless its termination is
``max-iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .fem import Mesh
from .phase_space import DataSet, PairingKind, penalty_many
from .report import SolveReport


@dataclass
class LoopConfig:
    """The assignment loop's knobs, which both solvers' configs share.

    max_data_iterations = None takes the formulation's `default_passes`,
    and mu0 = None the dataset's stored scale.  threads caps the workers of
    the nearest-tuple queries, one per 4,096 queries of a search; every
    query is independent, so results are identical for every value.
    """

    default_passes: ClassVar[int] = 100

    max_data_iterations: int | None = None
    penalty_tol: float = 1e-12
    mu0: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.max_data_iterations is None:
            self.max_data_iterations = self.default_passes
        if self.max_data_iterations < 1:
            raise ValueError("max_data_iterations must be at least 1")
        if not 0.0 < self.penalty_tol < np.inf:
            raise ValueError("tolerances must be positive and finite")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


@dataclass
class Pass:
    """One solve at a fixed assignment, its fields and the states it recovered."""

    assigned: np.ndarray
    u: np.ndarray
    lam: np.ndarray
    strains: np.ndarray
    stresses: np.ndarray
    residual: float
    local_penalties: np.ndarray
    penalty: float


def checked_dataset(mesh: Mesh, dataset: DataSet, kind: PairingKind,
                    mu0: float | None) -> DataSet:
    """Reject a dataset of the wrong pairing or dimension; apply a mu0 override it lacks."""
    if dataset.kind is not kind:
        raise ValueError(f"solver expects the {kind.value} pairing, got "
                         f"{dataset.kind.value}")
    if dataset.dim != mesh.dim:
        raise ValueError(f"dataset dimension {dataset.dim} does not match mesh "
                         f"dimension {mesh.dim}")
    return dataset if mu0 is None or mu0 == dataset.mu0 else dataset.with_mu0(mu0)


def assignment_loop(solve_pass: Callable, search: Callable, mesh: Mesh,
                    dataset: DataSet, config: LoopConfig,
                    load_steps: int = 1) -> SolveReport:
    """Run every load step of a solve under the module's termination contract.

    `solve_pass(strain_star, stress_star, scale, start)` solves at the
    assigned tuples, both gathered and indexed (element, qp, d, d), under
    the load fraction `scale`, warm-started from the (u, lam) `start` of
    an earlier pass (None on the first pass of the solve).  It returns
    (u, lam, strains, stresses, residual): the nodal fields, the recovered
    states indexed like the tuples, and the equilibrium residual.  Every
    search, the seed query included, is `search(strains, stresses,
    dataset, workers=config.threads)` on flat per-point states, as
    `phase_space.nearest_many` takes them.  Penalties are weighted by the
    mesh's quadrature weights.  Returns the SolveReport of the returned
    pass, whose formulation is the dataset's pairing; the caller adds its
    diagnostics and timings.
    """
    weights = mesh.quadrature().weights
    points, weights = weights.shape, weights.ravel()
    n, d = weights.size, dataset.dim
    seed = int(search(np.eye(d).reshape(1, -1), np.zeros((1, d * d)), dataset,
                      workers=config.threads)[0])
    assigned = np.full(n, seed, dtype=np.int64)
    start = None
    penalties: list[float] = []
    residuals: list[float] = []
    passes = 0
    for step in range(1, load_steps + 1):
        first = len(penalties)          # this step's rows are penalties[first:]
        seen = {assigned.tobytes()}
        best = termination = None
        while termination is None:
            u, lam, strains, stresses, residual = solve_pass(
                dataset.strains[assigned].reshape(*points, d, d),
                dataset.stresses[assigned].reshape(*points, d, d), step / load_steps, start)
            start = u, lam
            strains_flat, stresses_flat = strains.reshape(n, -1), stresses.reshape(n, -1)
            local = penalty_many(strains_flat, stresses_flat, assigned, dataset)
            current = Pass(assigned, u, lam, strains, stresses, residual, local,
                           float(np.dot(weights, local)))
            penalties.append(current.penalty)
            residuals.append(residual)
            if best is None or current.penalty < best.penalty:
                best = current

            proposed = search(strains_flat, stresses_flat, dataset, workers=config.threads)
            key = proposed.tobytes()
            step_passes = len(penalties) - first
            if np.array_equal(proposed, assigned):
                termination = "fixed-point"
            elif key in seen:
                termination = "cycle"
            elif (step_passes >= 2 and abs(penalties[-1] - penalties[-2])
                  <= config.penalty_tol * max(penalties[-2], 1e-300)):
                termination = "penalty-stagnation"
            elif step_passes >= config.max_data_iterations:
                termination = "max-iterations"
            else:
                seen.add(key)
                assigned = proposed

        passes += step_passes
        if termination in ("cycle", "max-iterations") and best is not current:
            current = best
            penalties.append(best.penalty)
            residuals.append(best.residual)
        if termination == "max-iterations":
            break
        # the next step starts from the pass this one returned
        assigned, start = current.assigned, (current.u, current.lam)
    return SolveReport(
        formulation=dataset.kind.value, mesh=mesh, mu0=dataset.mu0, u=current.u,
        lam=current.lam, strains=current.strains, stresses=current.stresses,
        assigned=current.assigned.reshape(points),
        local_penalties=current.local_penalties.reshape(points),
        global_penalty=current.penalty, penalty_history=penalties,
        residual_history=residuals, data_iterations=passes, termination=termination)
