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
last history row belongs to the returned pass.  The solve returns the
pass its last step returned, with the history rows of every step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .fem import Mesh
from .phase_space import DataSet, PairingKind, penalty_many
from .report import SolveReport


@dataclass
class Pass:
    """One solve at a fixed assignment and the states it recovered."""

    assigned: np.ndarray
    strains: np.ndarray
    stresses: np.ndarray
    residual: float
    payload: Any
    local_penalties: np.ndarray
    penalty: float


@dataclass
class LoopResult:
    """The pass a solve returns, how its last load step stopped, and the
    history rows of every step."""

    final: Pass
    termination: str
    passes: int
    penalty_history: list
    residual_history: list

    @property
    def converged(self) -> bool:
        return self.termination != "max-iterations"

    def report(self, formulation: str, mesh: Mesh, mu0: float, diagnostics: dict,
               t0: float, newton_history: list | None = None) -> SolveReport:
        """The SolveReport of the returned pass, whose payload is (u, lam).

        `t0` is the `time.perf_counter()` reading at the start of the solve.
        """
        final = self.final
        u, lam = final.payload
        points = final.strains.shape[:2]
        return SolveReport(
            formulation=formulation, mesh=mesh, mu0=mu0, u=u, lam=lam,
            strains=final.strains, stresses=final.stresses,
            assigned=final.assigned.reshape(points),
            local_penalties=final.local_penalties.reshape(points),
            global_penalty=final.penalty, penalty_history=self.penalty_history,
            residual_history=self.residual_history, newton_history=newton_history,
            data_iterations=self.passes, converged=self.converged,
            termination=self.termination, diagnostics=diagnostics,
            timings={"total": time.perf_counter() - t0})


def checked_dataset(mesh: Mesh, dataset: DataSet, kind: PairingKind,
                    mu0: float | None) -> DataSet:
    """Reject a dataset of the wrong pairing or dimension; apply a mu0 override."""
    if dataset.kind is not kind:
        raise ValueError(f"solver expects the {kind.value} pairing, got "
                         f"{dataset.kind.value}")
    if dataset.dim != mesh.dim:
        raise ValueError(f"dataset dimension {dataset.dim} does not match mesh "
                         f"dimension {mesh.dim}")
    return dataset if mu0 is None else dataset.with_mu0(mu0)


def assignment_loop(solve_pass: Callable, search: Callable, dataset: DataSet,
                    weights: np.ndarray, config, load_steps: int = 1) -> LoopResult:
    """Run every load step of a solve under the module's termination contract.

    `solve_pass(ids, scale, start)` solves at the assignment `ids` under
    the load fraction `scale`, warm-started from the payload `start` of
    an earlier pass (None on the first pass of the solve).  It returns
    the recovered (strains, stresses), both indexed (element, qp, d, d),
    the equilibrium residual and an opaque payload.  `search(strains,
    stresses)` maps flat per-point states to tuple ids.  `weights` are
    the flat quadrature weights; `config` supplies max_data_iterations
    and penalty_tol, which hold per load step.
    """
    n, d = weights.size, dataset.dim
    seed = int(search(np.eye(d).reshape(1, -1), np.zeros((1, d * d)))[0])
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
            strains, stresses, residual, start = solve_pass(assigned, step / load_steps,
                                                            start)
            strains_flat, stresses_flat = strains.reshape(n, -1), stresses.reshape(n, -1)
            local = penalty_many(strains_flat, stresses_flat, assigned, dataset)
            current = Pass(assigned, strains, stresses, residual, start, local,
                           float(np.dot(weights, local)))
            penalties.append(current.penalty)
            residuals.append(residual)
            if best is None or current.penalty < best.penalty:
                best = current

            proposed = search(strains_flat, stresses_flat)
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
        assigned, start = current.assigned, current.payload
    return LoopResult(current, termination, passes, penalties, residuals)
