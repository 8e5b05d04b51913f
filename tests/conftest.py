import contextlib
from unittest import mock

import numpy as np
import pytest

from ddfem import phase_space
from ddfem.fem import BoundaryConditions, line_mesh, rect_mesh


@contextlib.contextmanager
def unchecked_tuples():
    """Build DataSets without their tuple checks inside the block.

    For tests of search and refinement geometry, which place raw points
    in phase space (random rows, say) that need not be valid tuples.
    """
    with mock.patch.object(phase_space, "_validate"):
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def rod_mesh():
    """100 mm bar, 10 linear elements, 1 cm^2 cross-section."""
    mesh = line_mesh(0.1, 10, area=1.0e-4)
    mesh.nodesets["left"] = np.array([0])
    mesh.nodesets["right"] = np.array([mesh.n_nodes - 1])
    mesh.facesets["right"] = [(mesh.n_nodes - 1,)]
    return mesh


@pytest.fixture
def unit_square():
    """4x4 quad patch on the unit square, unit thickness."""
    mesh = rect_mesh(1.0, 1.0, 4, 4)
    nodes = mesh.nodes
    mesh.nodesets["left"] = np.flatnonzero(np.isclose(nodes[:, 0], 0.0))
    mesh.nodesets["bottom"] = np.flatnonzero(np.isclose(nodes[:, 1], 0.0))
    right = np.flatnonzero(np.isclose(nodes[:, 0], 1.0))
    right = right[np.argsort(nodes[right, 1])]
    mesh.nodesets["right"] = right
    mesh.facesets["right"] = [(int(a), int(b)) for a, b in zip(right[:-1], right[1:])]
    return mesh


# one non-finite value in each kind of BoundaryConditions entry, on the
# rod mesh with its left end fixed, and the message that names it
NON_FINITE_BCS = [
    pytest.param(dict(dirichlet=[(0, 0, 0.0), (10, 0, np.nan)]),
                 "dirichlet value at node 10 component 0 is not finite", id="dirichlet"),
    pytest.param(dict(tractions=[((10,), [np.inf])]),
                 "traction on face (10,) is not finite", id="traction"),
    pytest.param(dict(point_loads=[(10, [-np.inf])]),
                 "point load on node 10 is not finite", id="point-load"),
    pytest.param(dict(body_force=np.array([np.nan])), "body force is not finite",
                 id="body-force"),
]


def non_finite_bcs(entry):
    """BoundaryConditions fixing the rod's left end, plus `entry`."""
    return BoundaryConditions(**{"dirichlet": [(0, 0, 0.0)], **entry})


def end_load_bcs(mesh, force):
    """Fix the left end of a rod, pull the last node with `force` [N]."""
    return BoundaryConditions(
        dirichlet=[(0, 0, 0.0)],
        point_loads=[(mesh.n_nodes - 1, np.array([force]))])


def scripted_search(*tuple_ids):
    """Stand-in for a solver's nearest_many that ignores the states.

    Call k (the seed query included) assigns every point to
    tuple_ids[k]; calls past the end repeat the last id.
    """
    calls = []

    def search(strains, stresses, dataset, workers=1):
        tuple_id = tuple_ids[min(len(calls), len(tuple_ids) - 1)]
        calls.append(tuple_id)
        return np.full(len(strains), tuple_id, dtype=np.int64)

    return search


def count_operator_builds(monkeypatch):
    """List that gains an entry per GradientOperator built from here on.

    The entries hold no reference to the quadrature or the operator.
    """
    from ddfem import fem

    builds = []

    class Counted(fem.GradientOperator):
        def __init__(self, quad):
            builds.append(None)
            super().__init__(quad)

    monkeypatch.setattr(fem, "GradientOperator", Counted)
    return builds


def count_factorizations(monkeypatch):
    """List that gains the matrix shape of every `solver_fp.factorize`
    call from here on."""
    from ddfem import solver_fp

    calls = []
    factorize = solver_fp.factorize

    def spy(k_ff, *args, **kwargs):
        calls.append(k_ff.shape)
        return factorize(k_ff, *args, **kwargs)

    monkeypatch.setattr(solver_fp, "factorize", spy)
    return calls


def same_report(a, b) -> bool:
    """Whether two solve reports hold bit-identical results."""
    arrays = ("u", "lam", "strains", "stresses", "assigned", "local_penalties")
    return (all(np.array_equal(getattr(a, k), getattr(b, k)) for k in arrays)
            and (a.global_penalty, a.penalty_history, a.residual_history,
                 a.data_iterations, a.termination, a.diagnostics)
            == (b.global_penalty, b.penalty_history, b.residual_history,
                b.data_iterations, b.termination, b.diagnostics))


def random_admissible_state(mesh, rng, mu0, u_scale=0.05, lam_scale=0.04):
    """Random nodal fields plus compatible-ish symmetric data states.

    The assigned strains sit near the actual C(u) so the state is the kind
    the solver visits; stresses are arbitrary symmetric tensors.
    """
    from ddfem.fem import gradient_field

    d = mesh.dim
    quad = mesh.quadrature()
    u = u_scale * rng.normal(size=mesh.n_dofs)
    lam = lam_scale * rng.normal(size=mesh.n_dofs)
    f = gradient_field(mesh, u) + np.eye(d)
    c = np.einsum("eqki,eqkj->eqij", f, f)
    noise = rng.normal(scale=0.03, size=c.shape)
    c_star = c + 0.5 * (noise + np.swapaxes(noise, -1, -2))
    noise = rng.normal(scale=0.2 * mu0, size=c.shape)
    s_star = 0.5 * (noise + np.swapaxes(noise, -1, -2))
    return u, lam, c_star, s_star


def fd_tangent_blocks(mesh, u, lam, c_star, s_star, mu0, h=1e-6):
    """Central-difference Jacobian blocks of the two coupled residuals.

    The 8 n residual evaluations share the mesh's one discrete gradient.
    """
    from ddfem.solver_cs import residual_lambda, residual_u

    n = mesh.n_dofs
    f_ext = np.zeros(n)

    def ru(uu, ll):
        return residual_u(mesh, uu, ll, c_star, s_star, mu0)

    def rl(uu, ll):
        return residual_lambda(mesh, uu, ll, s_star, mu0, f_ext)

    k_uu = np.empty((n, n))
    k_ul = np.empty((n, n))
    k_lu = np.empty((n, n))
    k_ll = np.empty((n, n))
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = h
        k_uu[:, j] = (ru(u + dx, lam) - ru(u - dx, lam)) / (2.0 * h)
        k_ul[:, j] = (ru(u, lam + dx) - ru(u, lam - dx)) / (2.0 * h)
        k_lu[:, j] = (rl(u + dx, lam) - rl(u - dx, lam)) / (2.0 * h)
        k_ll[:, j] = (rl(u, lam + dx) - rl(u, lam - dx)) / (2.0 * h)
    return k_uu, k_ul, k_lu, k_ll


def coupled_blocks(mesh, k_el):
    """Dense (K_uu, K_ul, K_lu, K_ll) over all dofs from element tangents.

    `k_el` is ordered like `solver_cs.tangent_blocks`: [u dofs | lam
    dofs] per element, node-major.  The scatter is a plain np.add.at, so
    it serves as the reference for the solver's reduced pattern.
    """
    n, d = mesh.n_dofs, mesh.dim
    dofs = (mesh.elements[:, :, None] * d + np.arange(d)).reshape(mesh.n_elements, -1)
    local = np.concatenate([dofs, n + dofs], axis=1)
    full = np.zeros((2 * n, 2 * n))
    np.add.at(full, (local[:, :, None], local[:, None, :]), k_el)
    return full[:n, :n], full[:n, n:], full[n:, :n], full[n:, n:]


def relative_frobenius(actual, desired):
    denom = max(np.linalg.norm(desired), 1e-300)
    return np.linalg.norm(actual - desired) / denom


def fp_equilibrium_residual(mesh, bcs, report):
    """Independent check of the weak balance of the recovered stresses."""
    from ddfem.fem import divergence_rhs, free_dofs

    eq = divergence_rhs(mesh, report.stresses) - bcs.external_force(mesh)
    fixed, _ = bcs.fixed_dofs(mesh)
    return np.linalg.norm(eq[free_dofs(mesh.n_dofs, fixed)])
