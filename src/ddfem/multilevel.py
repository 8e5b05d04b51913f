"""Multi-level data refinement driver.

Runs the data-driven solver on a coarse dataset, collects the support
(the tuples actually assigned to quadrature points), densifies the
dataset around that support, and re-solves, as `MultilevelOptions` sets.
Every level solves on one mesh and boundary conditions in one metric,
the solver config's mu0 or else the level-1 dataset's: the pool, its
spacing, the refinement and each solve measure in it, and FP levels
share the factored Laplacian the mesh keeps.
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


@dataclass(frozen=True)
class MultilevelOptions:
    """Refinement and stopping settings of :func:`run_multilevel`, checked here.

    The loop ends after max_levels levels, once the support grows by less
    than stop_delta relative to the level before, or once the global
    penalty is at most penalty_floor.  keep_all keeps the previous level's
    unused tuples; a radius of None takes twice the level's median
    nearest-neighbour spacing.
    """

    max_levels: int = 5
    stop_delta: float = 0.02
    keep_all: bool = False
    radius: float | None = None
    penalty_floor: float = 1e-16

    def __post_init__(self):
        if self.max_levels < 1:
            raise ValueError(f"max_levels must be >= 1, got {self.max_levels}")
        if self.radius is not None and not 0.0 < self.radius < np.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        for name in ("stop_delta", "penalty_floor"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def _solver(config):
    if isinstance(config, FpConfig):
        return solve_fp
    if isinstance(config, CsConfig):
        return solve_cs
    raise TypeError(f"config must be FpConfig or CsConfig, got {type(config).__name__}")


def run_multilevel(mesh: Mesh, bcs: BoundaryConditions, pool: DataSet, config,
                   options: MultilevelOptions | None = None,
                   initial: DataSet | None = None) -> tuple[list[LevelRecord], SolveReport]:
    """Iterated solve / refine loop over progressively denser datasets.

    Parameters
    ----------
    pool : DataSet
        Tuples the refinement draws from (the ``[multilevel] source`` file).
    config : FpConfig or CsConfig
        Picks the solver formulation and, when it sets mu0, every level's metric.
    options : MultilevelOptions, optional
        Refinement and stopping settings; None takes the defaults.
    initial : DataSet, optional
        Level-1 dataset.  Defaults to the pool itself.

    Returns
    -------
    (records, report)
        One :class:`LevelRecord` per completed level, and the final level's
        :class:`~ddfem.report.SolveReport`.  A nonconverged level ends the
        loop; the records so far are returned with that level's report,
        whose ``converged`` is False.
    """
    options = options or MultilevelOptions()
    solve = _solver(config)
    dataset = pool if initial is None else initial
    if config.mu0 is not None and config.mu0 != dataset.mu0:
        dataset = dataset.with_mu0(config.mu0)
    if pool.mu0 != dataset.mu0:
        # every level keeps the first level's mu0: convert the pool once
        # so that refine_around reuses its tree
        pool = pool.with_mu0(dataset.mu0)

    records: list[LevelRecord] = []
    prev_support = None
    for level in range(1, options.max_levels + 1):
        t0 = time.perf_counter()
        report = solve(mesh, bcs, dataset, config=config)
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
        if report.global_penalty <= options.penalty_floor:
            break
        if prev_support is not None:
            growth = (support.size - prev_support) / max(1, prev_support)
            if growth < options.stop_delta:
                break
        if level == options.max_levels:
            break
        dataset = refine_around(pool, support, dataset,
                                radius=options.radius, keep_all=options.keep_all)
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
