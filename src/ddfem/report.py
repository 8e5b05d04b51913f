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

from .fem import Mesh

_VTK_CELL = {"LINE2": 3, "QUAD4": 9, "HEX8": 12}


@dataclass
class SolveReport:
    """Everything a data-driven solve produces.

    strains/stresses/assigned/local_penalties are indexed (element, qp);
    u and lam are flat nodal vectors (node-major, dim components each).
    `termination` says why the outer loop stopped; `converged` is False
    only for max-iterations exits.  `residual_history` holds one entry
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
    converged: bool = True
    termination: str = "fixed-point"
    diagnostics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


def _header(name: str, config_hash: str, report: SolveReport) -> list[str]:
    status = "CONVERGED" if report.converged else "NONCONVERGED"
    return [f"# dd-{name} v1",
            f"# config={config_hash} mu0={report.mu0!r} status={status} "
            f"termination={report.termination}"]


def write_fields(report: SolveReport, path, config_hash: str = "none") -> None:
    mesh = report.mesh
    d = mesh.dim
    cols = (["node"] + [f"u_{i}" for i in range(d)] + [f"lambda_{i}" for i in range(d)])
    lines = _header("fields", config_hash, report)
    lines.append("\t".join(cols))
    u = report.u.reshape(-1, d)
    lam = report.lam.reshape(-1, d)
    for n in range(mesh.n_nodes):
        row = [str(n)] + [repr(float(x)) for x in u[n]] + [repr(float(x)) for x in lam[n]]
        lines.append("\t".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_states(report: SolveReport, path, config_hash: str = "none") -> None:
    d = report.mesh.dim
    comps = [f"{i}{j}" for i in range(d) for j in range(d)]
    cols = (["element", "qp"] + [f"strain_{c}" for c in comps]
            + [f"stress_{c}" for c in comps] + ["assigned", "penalty"])
    lines = _header("states", config_hash, report)
    lines.append("\t".join(cols))
    n_el, nqp = report.assigned.shape
    for e in range(n_el):
        for q in range(nqp):
            row = ([str(e), str(q)]
                   + [repr(float(x)) for x in report.strains[e, q].ravel()]
                   + [repr(float(x)) for x in report.stresses[e, q].ravel()]
                   + [str(int(report.assigned[e, q])),
                      repr(float(report.local_penalties[e, q]))])
            lines.append("\t".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_history(report: SolveReport, path, config_hash: str = "none") -> None:
    lines = _header("history", config_hash, report)
    lines.append("\t".join(["iteration", "penalty", "residual"]))
    for i, penalty in enumerate(report.penalty_history):
        residual = (report.residual_history[i]
                    if i < len(report.residual_history) else float("nan"))
        lines.append("\t".join([str(i), repr(float(penalty)), repr(float(residual))]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_vtk(report: SolveReport, path, config_hash: str = "none") -> None:
    """Legacy ASCII unstructured grid with u and lambda as point vectors."""
    mesh = report.mesh
    d = mesh.dim
    pts = np.zeros((mesh.n_nodes, 3))
    pts[:, :d] = mesh.nodes
    status = "CONVERGED" if report.converged else "NONCONVERGED"
    lines = ["# vtk DataFile Version 3.0",
             f"dd solve config={config_hash} status={status}",
             "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_nodes} double"]
    for p in pts:
        lines.append(" ".join(repr(float(x)) for x in p))
    nper = mesh.etype.nodes_per_element
    lines.append(f"CELLS {mesh.n_elements} {mesh.n_elements * (nper + 1)}")
    for row in mesh.elements:
        lines.append(" ".join([str(nper)] + [str(int(n)) for n in row]))
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend([str(_VTK_CELL[mesh.etype.value])] * mesh.n_elements)
    lines.append(f"POINT_DATA {mesh.n_nodes}")
    for name, vec in (("displacement", report.u), ("multiplier", report.lam)):
        lines.append(f"VECTORS {name} double")
        full = np.zeros((mesh.n_nodes, 3))
        full[:, :d] = vec.reshape(-1, d)
        for p in full:
            lines.append(" ".join(repr(float(x)) for x in p))
    Path(path).write_text("\n".join(lines) + "\n")


def emit_report(report: SolveReport, outdir, config_hash: str = "none",
                fields: bool = True, states: bool = True, history: bool = True,
                vtk: bool = False) -> list[Path]:
    """Write the selected output files into `outdir`; returns their paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if fields:
        p = outdir / "fields.tsv"
        write_fields(report, p, config_hash)
        written.append(p)
    if states:
        p = outdir / "states.tsv"
        write_states(report, p, config_hash)
        written.append(p)
    if history:
        p = outdir / "history.tsv"
        write_history(report, p, config_hash)
        written.append(p)
    if vtk:
        p = outdir / "solution.vtk"
        write_vtk(report, p, config_hash)
        written.append(p)
    return written
