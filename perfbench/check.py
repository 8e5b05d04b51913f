"""Output checks that do not trust the solver's own diagnostics.

The weak-equilibrium residual is recomputed from the emitted tables with
an element loop written here, so a rewrite of the package's assembly
cannot hide an error by making the solver and its check agree.  Only the
external load vector and the Dirichlet dofs come from the package's
boundary-condition code, which the solver does not share with its
assembly.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

EQUILIBRIUM_BOUND = 1e-9      # acceptance criterion 06, relative
OUTPUT_TABLES = ("fields.tsv", "states.tsv", "history.tsv")

_G = 1.0 / np.sqrt(3.0)
# parent-element vertices in the mesh file's connectivity order
_VERTS = {
    1: np.array([[-1.0], [1.0]]),
    2: np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
    3: np.array([[-1.0, -1.0, -1.0], [1.0, -1.0, -1.0], [1.0, 1.0, -1.0],
                 [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0],
                 [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]]),
}


def read_table(path: Path) -> np.ndarray:
    """Numeric body of a `# dd-...` table (two comment lines, one header)."""
    return np.loadtxt(path, comments="#", skiprows=3, ndmin=2)


def output_digest(outdir: Path) -> str:
    """One hash over the bit-identical output tables."""
    h = hashlib.sha256()
    for name in OUTPUT_TABLES:
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


def _element_gradients(nodes: np.ndarray, elements: np.ndarray, thickness: float):
    """dN/dX (nel, nqp, nper, d) and weights (nel, nqp), 2-point Gauss."""
    d = nodes.shape[1]
    verts = _VERTS[d]
    grids = np.meshgrid(*([np.array([-_G, _G])] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)            # (nqp, d)
    terms = 1.0 + verts[None, :, :] * pts[:, None, :]             # (nqp, nper, d)
    dn = np.empty_like(terms)
    for j in range(d):
        others = np.prod(np.delete(terms, j, axis=2), axis=2)
        dn[:, :, j] = verts[None, :, j] * others / 2.0 ** d
    coords = nodes[elements]                                      # (nel, nper, d)
    jac = np.einsum("eaj,qak->eqjk", coords, dn)
    dndx = np.einsum("qak,eqkj->eqaj", dn, np.linalg.inv(jac))
    weights = np.linalg.det(jac) * (thickness if d < 3 else 1.0)
    return dndx, weights


def equilibrium_residual(outdir: Path, mesh, bcs, formulation: str) -> float:
    """Relative weak-equilibrium residual of the emitted stress field.

    FP tables carry P directly; CS tables carry S, and P = F S with
    F = I + grad u from the emitted displacements.  The residual is
    taken on the dofs where the multiplier is free, relative to the
    external load, or to the reaction forces when no load is applied
    (a displacement-driven problem).
    """
    d = mesh.dim
    fields = read_table(outdir / "fields.tsv")
    states = read_table(outdir / "states.tsv")
    dndx, weights = _element_gradients(mesh.nodes, mesh.elements, mesh.area)
    nel, nqp = weights.shape
    dd = d * d
    stress = states[:, 2 + dd:2 + 2 * dd].reshape(nel, nqp, d, d)
    if formulation == "CS":
        u_el = fields[:, 1:1 + d][mesh.elements]                  # (nel, nper, d)
        f = np.eye(d) + np.einsum("eai,eqaj->eqij", u_el, dndx)
        stress = np.einsum("eqik,eqkj->eqij", f, stress)
    internal = np.zeros((mesh.n_nodes, d))
    contrib = np.einsum("eq,eqij,eqaj->eai", weights, stress, dndx)
    np.add.at(internal, mesh.elements, contrib)
    residual = internal.ravel() - bcs.external_force(mesh)
    fixed, _ = bcs.lambda_fixed_dofs(mesh)
    free = np.ones(residual.size, dtype=bool)
    free[fixed] = False
    scale = float(np.linalg.norm(bcs.external_force(mesh)))
    if scale == 0.0:
        scale = float(np.linalg.norm(residual[~free]))
    return float(np.linalg.norm(residual[free])) / scale


def displacement(outdir: Path, dim: int) -> np.ndarray:
    return read_table(outdir / "fields.tsv")[:, 1:1 + dim].ravel()


def rod_exact(nodes_x: np.ndarray, c1: float, traction: float, body: float,
              length: float, samples: int = 20_001) -> np.ndarray:
    """End-loaded Neo-Hookean rod under a uniform body force.

    P(x) = traction + body (L - x) fixes the stretch lam(x) through
    2 c1 (lam - lam^-2) = P; u(x) is the integral of lam - 1.
    """
    s = np.linspace(0.0, length, samples)
    target = traction + body * (length - s)
    lam = np.full_like(s, 2.0)
    for _ in range(50):
        g = 2.0 * c1 * (lam - lam ** -2) - target
        lam -= g / (2.0 * c1 * (1.0 + 2.0 * lam ** -3))
    strain = lam - 1.0
    u = np.concatenate([[0.0], np.cumsum(0.5 * (strain[1:] + strain[:-1]) * np.diff(s))])
    return np.interp(nodes_x, s, u)


def displacement_error(u: np.ndarray, u_ref: np.ndarray) -> float:
    """Max-norm deviation relative to the largest reference displacement."""
    return float(np.abs(u - u_ref).max() / np.abs(u_ref).max())
