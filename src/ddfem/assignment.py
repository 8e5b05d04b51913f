"""The data-assignment loop both solvers run, and its termination contract.

One call of `assignment_loop` runs one load step.  Every quadrature
point is assigned a tuple; on the first step each point takes the tuple
nearest the load-free state (I, 0), and a later step starts from the
assignment the previous step returned.  A pass solves at the current
assignment, records the weighted global penalty and the equilibrium
residual as one history row, and searches for the tuple nearest each
recovered state.  The step stops at the first of these that holds, in
this order:

1. ``fixed-point``: the search returns the current assignment.
2. ``cycle``: the search returns an assignment this step already solved
   at: the step's start assignment or one it proposed earlier.
3. ``penalty-stagnation``: the penalties of the last two passes of this
   step differ by at most ``penalty_tol`` relative to the earlier one.
4. ``max-iterations``: the step has run ``max_data_iterations`` passes.
   Only this exit is not converged.

The best pass is the first pass with the smallest penalty.  On a cycle
or at the cap, the step returns the best pass, and when that is not the
last pass its penalty and residual are appended as one more history
row.  A fixed point or stagnation returns the last pass.  Either way the
last history row belongs to the returned pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .fem import Mesh
from .phase_space import DataSet, PairingKind, penalty_many


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
class StepResult:
    """The pass a load step returns, how it stopped, and its history rows."""

    final: Pass
    termination: str
    passes: int
    penalty_history: list
    residual_history: list

    @property
    def converged(self) -> bool:
        return self.termination != "max-iterations"


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
                    weights: np.ndarray, config,
                    assigned: np.ndarray | None = None) -> StepResult:
    """Run one load step under the module's termination contract.

    `solve_pass(ids)` solves at the assignment `ids` and returns the
    recovered (strains, stresses), both indexed (element, qp, d, d), the
    equilibrium residual and an opaque payload.  `search(strains,
    stresses)` maps flat per-point states to tuple ids.  `weights` are
    the flat quadrature weights; `config` supplies max_data_iterations and
    penalty_tol.  `assigned` is the starting assignment; None starts from
    the tuple nearest (I, 0).
    """
    n = weights.size
    if assigned is None:
        d = dataset.dim
        seed = int(search(np.eye(d).reshape(1, -1), np.zeros((1, d * d)))[0])
        assigned = np.full(n, seed, dtype=np.int64)

    penalties: list[float] = []
    residuals: list[float] = []
    seen = {assigned.tobytes()}
    best = None
    termination = None
    while termination is None:
        strains, stresses, residual, payload = solve_pass(assigned)
        strains_flat, stresses_flat = strains.reshape(n, -1), stresses.reshape(n, -1)
        local = penalty_many(strains_flat, stresses_flat, assigned, dataset)
        current = Pass(assigned, strains, stresses, residual, payload, local,
                       float(np.dot(weights, local)))
        penalties.append(current.penalty)
        residuals.append(residual)
        if best is None or current.penalty < best.penalty:
            best = current

        proposed = search(strains_flat, stresses_flat)
        key = proposed.tobytes()
        if np.array_equal(proposed, assigned):
            termination = "fixed-point"
        elif key in seen:
            termination = "cycle"
        elif (len(penalties) >= 2 and abs(penalties[-1] - penalties[-2])
              <= config.penalty_tol * max(penalties[-2], 1e-300)):
            termination = "penalty-stagnation"
        elif len(penalties) >= config.max_data_iterations:
            termination = "max-iterations"
        else:
            seen.add(key)
            assigned = proposed

    passes = len(penalties)
    if termination in ("cycle", "max-iterations") and best is not current:
        current = best
        penalties.append(best.penalty)
        residuals.append(best.residual)
    return StepResult(current, termination, passes, penalties, residuals)
