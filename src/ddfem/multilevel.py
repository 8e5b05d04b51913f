"""Multi-level data refinement driver.

Runs the data-driven solver on a coarse dataset, collects the support
(the tuples actually assigned to quadrature points), densifies the
dataset around that support, and re-solves.  Levels continue until the
support stops growing or ``max_levels`` is reached.  Every level solves
on the same mesh and boundary conditions with the first level's mu0, so
FP levels share the factored Laplacian the mesh keeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import textio
from .fem import BoundaryConditions, Mesh
from .phase_space import DataSet, refine_around
from .report import SolveReport
from .solver_cs import CsConfig, solve_cs
from .solver_fp import FpConfig, solve_fp


@dataclass
class LevelRecord:
    """Summary of one refinement level."""

    level: int
    n_data: int
    n_support: int
    penalty: float
    solver_iterations: int
    wall_time: float


def _solve(mesh, bcs, dataset, config):
    if isinstance(config, FpConfig):
        return solve_fp(mesh, bcs, dataset, config=config)
    if isinstance(config, CsConfig):
        return solve_cs(mesh, bcs, dataset, config=config)
    raise TypeError(f"config must be FpConfig or CsConfig, got {type(config).__name__}")


def run_multilevel(mesh: Mesh, bcs: BoundaryConditions, source, config,
                   max_levels: int = 5, stop_delta: float = 0.02,
                   initial: DataSet | None = None, radius: float | None = None,
                   keep_all: bool = False,
                   penalty_floor: float = 1e-16) -> tuple[list[LevelRecord], SolveReport]:
    """Iterated solve / refine loop over progressively denser datasets.

    Parameters
    ----------
    source : DataSet or callable
        Pool the refinement draws from, or a generator of fresh tuples:
        ``source(centers, radius)`` gets the used tuples as a DataSet and
        the refinement radius, and returns an iterable of
        ``(strain, stress)`` pairs, each of d*d values in any shape.
    config : FpConfig or CsConfig
        Picks the solver formulation for every level.
    initial : DataSet, optional
        Level-1 dataset.  Defaults to ``source`` itself when the source is
        a plain DataSet; required for a generator source.
    stop_delta : float
        Relative support growth below which the loop stops: after level
        ``l`` the loop ends when ``(|S_l| - |S_{l-1}|) / max(1, |S_{l-1}|)``
        falls below it.  Must be finite.
    radius : float, optional
        Refinement radius, positive and finite; None takes twice the
        current level's median nearest-neighbour spacing.
    keep_all : bool
        Keep every tuple of the previous level instead of pruning the ones
        no quadrature point was assigned to.
    penalty_floor : float
        Global penalty at or below this value ends the loop early; a
        consistent dataset stops at level 1.  Must be finite.

    Returns
    -------
    (records, report)
        One :class:`LevelRecord` per completed level, and the final level's
        :class:`~ddfem.report.SolveReport`.  A nonconverged level ends the
        loop; the records so far are returned with that level's report,
        whose ``converged`` is False.
    """
    if max_levels < 1:
        raise ValueError(f"max_levels must be >= 1, got {max_levels}")
    if radius is not None and not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    for name, value in (("stop_delta", stop_delta), ("penalty_floor", penalty_floor)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if initial is None:
        if not isinstance(source, DataSet):
            raise ValueError("initial dataset is required when source is a generator")
        dataset = source
    else:
        dataset = initial
    if isinstance(source, DataSet) and source.mu0 != dataset.mu0:
        # every level keeps the first level's mu0: convert the pool once
        # so that refine_around reuses its tree
        source = source.with_mu0(dataset.mu0)

    records: list[LevelRecord] = []
    report = None
    prev_support = None
    for level in range(1, max_levels + 1):
        t0 = time.perf_counter()
        report = _solve(mesh, bcs, dataset, config)
        wall = time.perf_counter() - t0
        support = np.unique(report.assigned)
        records.append(LevelRecord(
            level=level,
            n_data=len(dataset),
            n_support=support.size,
            penalty=report.global_penalty,
            solver_iterations=report.data_iterations,
            wall_time=wall,
        ))
        if not report.converged:
            break
        if report.global_penalty <= penalty_floor:
            break
        if prev_support is not None:
            growth = (support.size - prev_support) / max(1, prev_support)
            if growth < stop_delta:
                break
        if level == max_levels:
            break
        dataset = refine_around(source, support, dataset,
                                radius=radius, keep_all=keep_all)
        prev_support = support.size
    return records, report


def write_level_table(records: list[LevelRecord], path) -> None:
    """Write the per-level summary as a tab-separated text table.

    Wall times stay in the in-memory records: emitted files must be
    bit-identical across reruns.
    """
    rows = textio.format_rows([(r.level, r.n_data, r.n_support) for r in records],
                              [r.penalty for r in records],
                              [r.solver_iterations for r in records], sep="\t")
    textio.write(path, ["# dd-levels v1", "level\tn_data\tn_support\tpenalty\titerations",
                        *rows])
