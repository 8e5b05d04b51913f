"""Finite element core: meshes, quadrature, assembly, boundary conditions.

Supported elements are 2-node bars (LINE2), 4-node plane-strain
quadrilaterals (QUAD4) and 8-node hexahedra (HEX8), all with full 2-point
Gauss quadrature per direction.  Displacement dofs are numbered
node-major: dof = node * dim + component.  All loads are dead loads on
the reference configuration.

Gradients and weak divergences go through one sparse discrete gradient
`B` (`GradientOperator`).  Its rows are the quadrature-point tensor
components in (element, qp, i, j) order and its columns the dofs; row
(e, q, i, j) holds dN_a/dX_j at column node_a * dim + i for the element's
nper nodes, with int32 indices.  Then grad(u) is `B u` reshaped to
(nel, nqp, d, d), and the divergence of a qp tensor field T is
`B^T (w T)`, taken from a stored CSR copy of the transpose because
`B.T @ x` builds a new matrix object on every call.  A mesh's
`Quadrature` builds the operator at the first gradient or divergence
and keeps it for the mesh's lifetime, like its shape gradients and
weights, so every solve and every residual on one mesh shares one.
Next to `B` it keeps the FP solver's reduced Laplacian and its LU
(`fp_system`) for the last mu0 and constraint set solved on the mesh.  A
stiffness matrix is `B^T (W D) B` for a linear law with (d*d, d*d)
moduli D (`stiffness`), formed from a B that is dropped after the
product, so a mesh that is only assembled keeps no operator.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import textio

_G = 1.0 / np.sqrt(3.0)


class ElementType(enum.Enum):
    LINE2 = "LINE2"
    QUAD4 = "QUAD4"
    HEX8 = "HEX8"

    @property
    def dim(self) -> int:
        return {"LINE2": 1, "QUAD4": 2, "HEX8": 3}[self.value]

    @property
    def nodes_per_element(self) -> int:
        return {"LINE2": 2, "QUAD4": 4, "HEX8": 8}[self.value]


# parent-element vertex coordinates, matching the connectivity order
_VERTS = {
    ElementType.LINE2: np.array([[-1.0], [1.0]]),
    ElementType.QUAD4: np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
    ElementType.HEX8: np.array([
        [-1.0, -1.0, -1.0], [1.0, -1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]]),
}

def shape_functions(etype: ElementType, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N (nper,) and dN/dxi (nper, dim) at one parent-space point."""
    verts = _VERTS[etype]
    terms = 1.0 + verts * xi  # (nper, dim)
    n = np.prod(terms, axis=1) / 2.0 ** etype.dim
    dn = np.empty_like(verts)
    for j in range(etype.dim):
        others = np.prod(np.delete(terms, j, axis=1), axis=1)
        dn[:, j] = verts[:, j] * others / 2.0 ** etype.dim
    return n, dn


def gauss_points(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product 2-point Gauss rule: points (nqp, dim), weights (nqp,)."""
    pts_1d = np.array([-_G, _G])
    grids = np.meshgrid(*([pts_1d] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return pts, np.ones(pts.shape[0])


@dataclass
class Mesh:
    """Reference-configuration mesh.

    `area` is the bar cross-section for LINE2 meshes and the out-of-plane
    thickness for QUAD4; HEX8 ignores it.  It scales every volume and
    boundary integral.  Named node and face sets are optional targeting
    handles for boundary conditions.
    """

    nodes: np.ndarray
    elements: np.ndarray
    etype: ElementType
    area: float = 1.0
    nodesets: dict = field(default_factory=dict)
    facesets: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float).reshape(-1, self.etype.dim)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64).reshape(
            -1, self.etype.nodes_per_element)
        if self.elements.size and (self.elements.min() < 0 or self.elements.max() >= len(self.nodes)):
            raise ValueError("element connectivity references missing nodes")
        if not 0.0 < self.area < np.inf:
            raise ValueError("area must be positive and finite")
        self._quad = None

    @property
    def dim(self) -> int:
        return self.etype.dim

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_dofs(self) -> int:
        return self.n_nodes * self.dim

    def quadrature(self) -> "Quadrature":
        if self._quad is None:
            self._quad = Quadrature(self)
        return self._quad


class Quadrature:
    """Per-mesh cache of shape values, gradients, scaled weights, the
    discrete gradient and the FP solver's factored Laplacian.

    weights already carry det(J), the Gauss weight and the section
    area/thickness, so `sum(weights)` is the mesh volume measure.
    `fp_system` is None or the `(key, ReducedSystem, LU)` that
    `solver_fp.solve_fp` built last on this mesh, keyed by mu0 and the
    prescribed dof ids.
    """

    def __init__(self, mesh: Mesh):
        etype = mesh.etype
        dim, nper = etype.dim, etype.nodes_per_element
        pts, w = gauss_points(dim)
        nqp = pts.shape[0]
        self.n = np.empty((nqp, nper))
        dn = np.empty((nqp, nper, dim))
        for q in range(nqp):
            self.n[q], dn[q] = shape_functions(etype, pts[q])
        coords = mesh.nodes[mesh.elements]  # (nel, nper, dim)
        # J_jk = d x_j / d xi_k at each (element, qp)
        jac = np.einsum("eaj,qak->eqjk", coords, dn)
        det = np.linalg.det(jac)
        bad = np.argwhere(det <= 0.0)
        if bad.size:
            e, q = bad[0]
            raise ValueError(f"element {e} has non-positive jacobian at qp {q}")
        jinv = np.linalg.inv(jac)
        self.dndx = np.einsum("qak,eqkj->eqaj", dn, jinv)
        scale = mesh.area if dim < 3 else 1.0
        self.weights = det * w[None, :] * scale
        self.nqp = nqp
        # what B needs of the mesh, but no reference back to it: a dropped
        # mesh is freed at once, with its operator, not by a cycle collection
        self.elements, self.n_dofs = mesh.elements, mesh.n_dofs
        self.fp_system = None

    @functools.cached_property
    def operator(self) -> "GradientOperator":
        """The mesh's GradientOperator, built on first use and kept."""
        return GradientOperator(self)


def _gradient_matrix(quad: Quadrature) -> sp.csr_matrix:
    """The discrete gradient B of the quadrature's mesh."""
    nel, nqp, nper, d = quad.dndx.shape
    n_rows = nel * nqp * d * d
    # entry (e, q, i, j, a): dN_a/dX_j at dof node_a * d + i; scipy
    # narrows the indices to int32 whenever they fit
    dofs = quad.elements[:, None, :] * d + np.arange(d)[None, :, None]  # (e, i, a)
    cols = np.broadcast_to(dofs[:, None, :, None, :], (nel, nqp, d, d, nper))
    vals = np.broadcast_to(np.swapaxes(quad.dndx, 2, 3)[:, :, None],
                           (nel, nqp, d, d, nper))
    return sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, n_rows * nper + 1, nper)),
                         shape=(n_rows, quad.n_dofs))


class GradientOperator:
    """The discrete gradient B of one mesh and its stored CSR transpose."""

    def __init__(self, quad: Quadrature):
        self.b = _gradient_matrix(quad)
        self.bt = self.b.T.tocsr()
        self.shape = quad.dndx.shape[:2] + quad.dndx.shape[-1:] * 2
        self.weights = quad.weights[:, :, None, None]


def gradient_field(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """(nel, nqp, d, d) gradients of a nodal vector field, G_ij = dv_i/dX_j.

    Works for the displacement u and for the displacement-like multiplier
    field alike; both carry dim components per node.
    """
    op = mesh.quadrature().operator
    return (op.b @ u.reshape(-1)).reshape(op.shape)


def divergence_rhs(mesh: Mesh, tensor_qp: np.ndarray) -> np.ndarray:
    """Assemble R[(a,i)] = integral A_ij dN_a/dX_j for a qp tensor field."""
    op = mesh.quadrature().operator
    return op.bt @ (op.weights * tensor_qp).ravel()


def stiffness(mesh: Mesh, moduli: np.ndarray) -> sp.csr_matrix:
    """K = B^T (W D) B for a linear law taking grad(u) to D grad(u).

    `moduli` is D, one (d*d, d*d) matrix over the row-major tensor
    components for every quadrature point, and W holds the weights.  An
    assembly is a one-off product, so it builds a B of its own and keeps
    none: a mesh that is only assembled holds no GradientOperator.
    """
    quad = mesh.quadrature()
    b = _gradient_matrix(quad)
    wd = sp.kron(sp.diags(quad.weights.ravel()), moduli, format="csr")
    return (b.T.tocsr() @ (wd @ b)).tocsr()


def stiffness_vector(mesh: Mesh, mu0: float = 1.0) -> sp.csr_matrix:
    """Scaled vector Laplacian mu0 B^T W B, each component on its own.

    The same matrix drives both linear systems of the alternating solver.
    """
    return stiffness(mesh, mu0 * np.eye(mesh.dim ** 2))


# -- boundary conditions ----------------------------------------------


def _collect_dirichlet(triples, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    seen: dict[int, float] = {}
    for node, comp, value in triples:
        node, comp = int(node), int(comp)
        if not 0 <= node < mesh.n_nodes:
            raise ValueError(f"dirichlet node {node} outside mesh")
        if not 0 <= comp < mesh.dim:
            raise ValueError(f"dirichlet component {comp} outside dimension {mesh.dim}")
        dof, value = node * mesh.dim + comp, float(value)
        if not math.isfinite(value):
            raise ValueError(f"dirichlet value at node {node} component {comp} is not finite")
        if dof in seen and seen[dof] != value:
            raise ValueError(f"conflicting dirichlet values at node {node} component {comp}")
        seen[dof] = value
    if not seen:
        return np.empty(0, dtype=np.int64), np.empty(0)
    dofs = np.array(sorted(seen), dtype=np.int64)
    return dofs, np.array([seen[d] for d in dofs])


@dataclass
class BoundaryConditions:
    """Dead loads and prescribed displacements for one solve.

    The multiplier lives in the displacements' test space, so it is zero
    at every prescribed displacement dof and free at every other dof; it
    has no constraints of its own.

    dirichlet   : (node, component, value) triples for u.
    tractions   : (global-node-id tuple naming a face, traction vector)
                  pairs; LINE2 faces are single nodes and the traction
                  acts on the bar cross-section.
    point_loads : (node, force vector) pairs.
    body_force  : force per unit reference volume, shape (dim,) or one
                  row per element.
    """

    dirichlet: list = field(default_factory=list)
    tractions: list = field(default_factory=list)
    point_loads: list = field(default_factory=list)
    body_force: np.ndarray | None = None

    def fixed_dofs(self, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
        """Sorted u dof ids and values; duplicate dofs must agree."""
        return _collect_dirichlet(self.dirichlet, mesh)

    def lambda_fixed_dofs(self, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
        """Multiplier constraints: u's pattern with value 0."""
        dofs, _ = self.fixed_dofs(mesh)
        return dofs, np.zeros(dofs.size)

    def external_force(self, mesh: Mesh) -> np.ndarray:
        """Dead-load vector on displacement dofs; a non-finite load raises."""
        f = np.zeros((mesh.n_nodes, mesh.dim))
        if self.body_force is not None:
            b = _finite_load(self.body_force, "body force")
            quad = mesh.quadrature()
            if b.ndim == 1:
                contrib = np.einsum("eq,qa,i->eai", quad.weights, quad.n,
                                    b.reshape(mesh.dim))
            else:
                contrib = np.einsum("eq,qa,ei->eai", quad.weights, quad.n,
                                    b.reshape(mesh.n_elements, mesh.dim))
            np.add.at(f, mesh.elements, contrib)
        for face, traction in self.tractions:
            face = tuple(int(n) for n in np.atleast_1d(face))
            t = _finite_load(traction, f"traction on face {face}").reshape(mesh.dim)
            for node, share in _face_shares(mesh, face):
                f[node] += share * t
        for node, force in self.point_loads:
            node = int(node)
            f[node] += _finite_load(force, f"point load on node {node}").reshape(mesh.dim)
        return f.ravel()


def _finite_load(value, name: str) -> np.ndarray:
    """`value` as a float array; raises naming the load when it is not finite."""
    value = np.asarray(value, dtype=float)
    if not np.isfinite(value).all():
        raise ValueError(f"{name} is not finite")
    return value


def _face_shares(mesh: Mesh, face: tuple[int, ...]):
    """(node, integral of its shape function over the face) pairs."""
    coords = mesh.nodes[list(face)]
    if mesh.dim == 1:
        if len(face) != 1:
            raise ValueError("LINE2 faces are single nodes")
        yield face[0], mesh.area
    elif mesh.dim == 2:
        if len(face) != 2:
            raise ValueError("QUAD4 faces are 2-node edges")
        length = float(np.linalg.norm(coords[1] - coords[0]))
        for node in face:
            yield node, 0.5 * length * mesh.area
    else:
        if len(face) != 4:
            raise ValueError("HEX8 faces are 4-node quads")
        pts, w = gauss_points(2)
        for q in range(pts.shape[0]):
            n, dn = shape_functions(ElementType.QUAD4, pts[q])
            tang = dn.T @ coords  # (2, 3)
            da = float(np.linalg.norm(np.cross(tang[0], tang[1])))
            for a, node in enumerate(face):
                yield node, w[q] * n[a] * da


# -- constrained linear algebra -----------------------------------------


def free_dofs(n_total: int, fixed: np.ndarray) -> np.ndarray:
    mask = np.ones(n_total, dtype=bool)
    mask[fixed] = False
    return np.nonzero(mask)[0]


class ReducedSystem:
    """K with its prescribed dofs eliminated, for any prescribed values.

    Holds the free dofs, K_ff and K_fc.  `rhs` lifts the prescribed
    values into a free right-hand side and `expand` rebuilds the full
    vector from a free solution.  Factoring K_ff is left to the caller.
    """

    def __init__(self, k: sp.spmatrix, fixed: np.ndarray):
        self.n_total = k.shape[0]
        self.fixed = fixed
        self.free = free_dofs(self.n_total, fixed)
        rows = k.tocsr()[self.free]
        self.k_ff = rows[:, self.free].tocsr()
        self.k_fc = rows[:, fixed].tocsr() if fixed.size else None

    def rhs(self, b: np.ndarray, values: np.ndarray) -> np.ndarray:
        b_f = b[self.free]
        if self.k_fc is not None and np.any(values != 0.0):
            b_f = b_f - self.k_fc @ values
        return b_f

    def expand(self, x_free: np.ndarray, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_total)
        out[self.free] = x_free
        if self.fixed.size:
            out[self.fixed] = values
        return out


def _singular_error(k_ff: sp.spmatrix, context: str) -> ValueError:
    n = k_ff.shape[0]
    detail = ""
    if 0 < n <= 2000:
        # singular values: a coupled tangent is not symmetric
        w = np.linalg.svd(k_ff.toarray(), compute_uv=False)
        tol = max(1e-12, 1e-10 * w.max())
        detail = f" ({int(np.sum(w <= tol))} near-zero modes)"
    return ValueError(
        f"singular {context} matrix{detail}; check that boundary conditions "
        f"suppress every rigid mode")


# 1-norm condition number above which `factorize` calls a matrix
# singular: about four of the sixteen digits of a solve would survive
MAX_CONDITION = 1e12


def factorize(k_ff: sp.csr_matrix, context: str = "stiffness",
              permc_spec: str = "COLAMD"):
    """Sparse LU with an informative error when the operator is singular.

    SuperLU happily factors a semidefinite matrix into a near-zero pivot
    instead of failing, so the U diagonal is checked explicitly.  Pivots
    can also stay moderate on a numerically singular matrix, so the
    1-norm condition number is estimated from solves with the factor
    (Hager's estimator, `onenormest` with one column: it draws no random
    vectors, so the estimate repeats exactly) and checked against
    MAX_CONDITION.  `permc_spec` is SuperLU's column ordering.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=spla.MatrixRankWarning)
            lu = spla.splu(k_ff.tocsc(), permc_spec=permc_spec)
    except RuntimeError as err:
        raise _singular_error(k_ff, context) from err
    pivots = np.abs(lu.U.diagonal())
    if pivots.size and pivots.min() <= 1e-13 * max(pivots.max(), 1e-300):
        raise _singular_error(k_ff, context)
    if pivots.size:
        def solve_t(x):
            return lu.solve(x, trans="T")

        inverse = spla.LinearOperator(k_ff.shape, matvec=lu.solve, rmatvec=solve_t,
                                      matmat=lu.solve, rmatmat=solve_t, dtype=float)
        if spla.onenormest(inverse, t=1) * spla.norm(k_ff, 1) > MAX_CONDITION:
            raise _singular_error(k_ff, context)
    return lu


# -- structured meshes ---------------------------------------------------


def line_mesh(length: float, n_elements: int, area: float = 1.0) -> Mesh:
    """Uniform bar on [0, length]."""
    nodes = np.linspace(0.0, length, n_elements + 1)
    elements = np.stack([np.arange(n_elements), np.arange(1, n_elements + 1)], axis=1)
    return Mesh(nodes, elements, ElementType.LINE2, area=area)


def rect_mesh(lx: float, ly: float, nx: int, ny: int, thickness: float = 1.0) -> Mesh:
    """Structured QUAD4 grid on [0,lx] x [0,ly], x-fastest node order."""
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    xg, yg = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.stack([xg.ravel(), yg.ravel()], axis=1)
    elems = []
    for iy in range(ny):
        for ix in range(nx):
            n0 = iy * (nx + 1) + ix
            elems.append([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])
    return Mesh(nodes, np.array(elems), ElementType.QUAD4, area=thickness)


def box_mesh(lx: float, ly: float, lz: float, nx: int, ny: int, nz: int) -> Mesh:
    """Structured HEX8 grid on [0,lx] x [0,ly] x [0,lz]."""
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    zs = np.linspace(0.0, lz, nz + 1)
    nodes = np.array([(x, y, z) for z in zs for y in ys for x in xs])
    nxy = (nx + 1) * (ny + 1)

    def nid(ix, iy, iz):
        return iz * nxy + iy * (nx + 1) + ix

    elems = []
    for iz in range(nz):
        for iy in range(ny):
            for ix in range(nx):
                elems.append([nid(ix, iy, iz), nid(ix + 1, iy, iz),
                              nid(ix + 1, iy + 1, iz), nid(ix, iy + 1, iz),
                              nid(ix, iy, iz + 1), nid(ix + 1, iy, iz + 1),
                              nid(ix + 1, iy + 1, iz + 1), nid(ix, iy + 1, iz + 1)])
    return Mesh(nodes, np.array(elems), ElementType.HEX8)


# -- mesh files ----------------------------------------------------------

_MAGIC = "# dd-mesh v1"


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh file (see "File formats" in docs/config.md)."""
    lines = [_MAGIC, f"dim={mesh.dim} etype={mesh.etype.value}",
             f"nodes {mesh.n_nodes}", *textio.format_rows(mesh.nodes),
             f"elements {mesh.n_elements}", *textio.format_rows(mesh.elements)]
    for name, ids in mesh.nodesets.items():
        lines += [f"nodeset {name} {len(ids)}", *textio.format_rows([ids])]
    for name, faces in mesh.facesets.items():
        lines += [f"faceset {name} {len(faces)}", *textio.format_rows(faces)]
    textio.write(path, lines)


def load_mesh(path, area: float = 1.0) -> Mesh:
    """Parse a mesh file; the section area/thickness comes from the caller."""
    src = textio.read(path, _MAGIC)
    dim, etype = src.field("dim"), src.field("etype", ElementType)
    if dim != str(etype.dim):
        raise src.error(src.header_line, f"dim={dim} contradicts {etype.value}")
    body = iter(src.numbered())

    def take(n: int, expect: str) -> list[tuple[int, str]]:
        got = list(itertools.islice(body, n))
        if len(got) < n:
            raise ValueError(f"{src.name}: missing '{expect}' section")
        return got

    def count(ln: int, text: str, grammar: str) -> tuple[list[str], int]:
        """The tokens of a line that must read `grammar`, and its count."""
        parts, words = text.split(), grammar.split()
        ok = len(parts) == len(words) and parts[0] in words[0].split("|")
        n = src.numbers(ln, parts[-1:])[0] if ok else -1
        if n < 0:
            raise src.error(ln, f"expected '{grammar}'")
        return parts, n

    def block(keyword: str, width: int, dtype) -> np.ndarray:
        [(ln, text)] = take(1, keyword)
        got = take(count(ln, text, f"{keyword} <count>")[1], f"{keyword[:-1]} line")
        return src.rows(width, dtype, got)

    def node_ids(ln: int, text: str, kind: str, name: str) -> list[int]:
        ids = src.numbers(ln, text.split())
        if any(not 0 <= i < len(nodes) for i in ids):
            raise src.error(ln, f"{kind} '{name}' references missing nodes")
        return ids

    nodes = block("nodes", etype.dim, float)
    elements = block("elements", etype.nodes_per_element, int)
    sets: dict = {"nodeset": {}, "faceset": {}}
    for ln, text in body:
        (kind, name, _), n = count(ln, text, "nodeset|faceset <name> <count>")
        if kind == "faceset":
            sets[kind][name] = [tuple(node_ids(*row, kind, name)) for row in take(n, "face line")]
            continue
        ids: list[int] = []
        while len(ids) < n:
            [(ln, text)] = take(1, "nodeset ids")
            ids += node_ids(ln, text, kind, name)
        if len(ids) != n:
            raise src.error(ln, f"nodeset '{name}' id count mismatch")
        sets[kind][name] = np.array(ids, dtype=np.int64)
    return Mesh(nodes, elements, etype, area=area,
                nodesets=sets["nodeset"], facesets=sets["faceset"])
