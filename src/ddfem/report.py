"""Solve reports and their on-disk form.

Both solvers return a SolveReport; the CLI turns it into three
tab-separated files (nodal fields, per-point states, iteration history)
plus an optional legacy VTK unstructured-grid file for visualization.
Emitted files are deterministic: floats are written with repr (shortest
round-trip form) and no timestamps appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import textio
from .fem import Mesh

_VTK_CELL = {"LINE2": 3, "QUAD4": 9, "HEX8": 12}


@dataclass
class SolveReport:
    """Everything a data-driven solve produces.

    strains/stresses/assigned/local_penalties are indexed (element, qp);
    u and lam are flat nodal vectors (node-major, dim components each).
    `assignment.assignment_loop` builds the report of a data-driven solve,
    and the solver adds its diagnostics and timings.  `termination` says
    why the outer loop stopped, and `converged` follows from it: only a
    max-iterations exit is not converged.  `residual_history` holds one entry
    per penalty row: for FP the weak-equilibrium residual over the free
    multiplier dofs relative to |f_ext| (absolute when there is no
    load), for CS the absolute Newton residual norm of the reduced
    coupled system at the pass's converged iterate.
    """

    formulation: str
    mesh: Mesh
    mu0: float
    u: np.ndarray
    lam: np.ndarray
    strains: np.ndarray
    stresses: np.ndarray
    assigned: np.ndarray
    local_penalties: np.ndarray
    global_penalty: float
    penalty_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    newton_history: list | None = None
    data_iterations: int = 0
    termination: str = "fixed-point"
    diagnostics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.termination != "max-iterations"


def _write_table(path, name: str, report: SolveReport, config_hash: str,
                 cols: list[str], *blocks) -> None:
    """The magic line, the config line, the column names, then the rows."""
    status = "CONVERGED" if report.converged else "NONCONVERGED"
    textio.write(path, [f"# dd-{name} v1",
                        f"# config={config_hash} mu0={report.mu0!r} status={status} "
                        f"termination={report.termination}",
                        "\t".join(cols), *textio.format_rows(*blocks, sep="\t")])


def write_fields(report: SolveReport, path, config_hash: str = "none") -> None:
    d = report.mesh.dim
    cols = ["node"] + [f"u_{i}" for i in range(d)] + [f"lambda_{i}" for i in range(d)]
    _write_table(path, "fields", report, config_hash, cols, np.arange(report.mesh.n_nodes),
                 report.u.reshape(-1, d), report.lam.reshape(-1, d))


def write_states(report: SolveReport, path, config_hash: str = "none") -> None:
    d = report.mesh.dim
    comps = [f"{i}{j}" for i in range(d) for j in range(d)]
    cols = (["element", "qp"] + [f"strain_{c}" for c in comps]
            + [f"stress_{c}" for c in comps] + ["assigned", "penalty"])
    n_el, nqp = report.assigned.shape
    _write_table(path, "states", report, config_hash, cols,
                 *np.divmod(np.arange(n_el * nqp), nqp), report.strains.reshape(-1, d * d),
                 report.stresses.reshape(-1, d * d), report.assigned.ravel(),
                 report.local_penalties.ravel())


def write_history(report: SolveReport, path, config_hash: str = "none") -> None:
    n = len(report.penalty_history)
    residual = (list(report.residual_history) + [float("nan")] * n)[:n]
    _write_table(path, "history", report, config_hash, ["iteration", "penalty", "residual"],
                 np.arange(n), np.asarray(report.penalty_history, dtype=float),
                 np.asarray(residual, dtype=float))


def write_vtk(report: SolveReport, path, config_hash: str = "none") -> None:
    """Legacy ASCII unstructured grid with u and lambda as point vectors."""
    mesh = report.mesh
    nper = mesh.etype.nodes_per_element
    status = "CONVERGED" if report.converged else "NONCONVERGED"

    def xyz(v):
        return textio.format_rows(np.pad(np.reshape(v, (mesh.n_nodes, -1)),
                                         ((0, 0), (0, 3 - mesh.dim))))

    textio.write(path, [
        "# vtk DataFile Version 3.0", f"dd solve config={config_hash} status={status}",
        "ASCII", "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_nodes} double", *xyz(mesh.nodes),
        f"CELLS {mesh.n_elements} {mesh.n_elements * (nper + 1)}",
        *textio.format_rows(np.full(mesh.n_elements, nper), mesh.elements),
        f"CELL_TYPES {mesh.n_elements}", *[str(_VTK_CELL[mesh.etype.value])] * mesh.n_elements,
        f"POINT_DATA {mesh.n_nodes}", "VECTORS displacement double", *xyz(report.u),
        "VECTORS multiplier double", *xyz(report.lam)])


def emit_report(report: SolveReport, outdir, config_hash: str = "none",
                vtk: bool = False) -> list[Path]:
    """Write fields.tsv, states.tsv, history.tsv and, with `vtk`,
    solution.vtk into `outdir`; returns their paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    writers = [("fields.tsv", write_fields), ("states.tsv", write_states),
               ("history.tsv", write_history)]
    if vtk:
        writers.append(("solution.vtk", write_vtk))
    for name, writer in writers:
        writer(report, outdir / name, config_hash)
    return [outdir / name for name, _ in writers]
