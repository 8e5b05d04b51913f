"""Elements, quadrature, assembly, boundary data, and mesh file IO.

The patch-style checks (affine reproduction on a distorted mesh, rigid
modes in the stiffness kernel) are the load-bearing ones: everything the
solvers do reduces to gradient_field / divergence_rhs / stiffness being
exact for affine fields.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import count_operator_builds
from ddfem.fem import (BoundaryConditions, ElementType, Mesh, ReducedSystem,
                       box_mesh, divergence_rhs, factorize, free_dofs,
                       gauss_points, gradient_field, line_mesh, load_mesh,
                       rect_mesh, save_mesh, shape_functions, stiffness_vector)


@pytest.fixture
def distorted_quad():
    """Single bilinear quad, deliberately non-rectangular."""
    nodes = np.array([[0.0, 0.0], [1.3, 0.1], [1.1, 0.9], [-0.2, 1.2]])
    return Mesh(nodes, np.array([[0, 1, 2, 3]]), ElementType.QUAD4)


class TestShapeFunctions:
    def test_line2_midpoint(self):
        n, _ = shape_functions(ElementType.LINE2, np.array([0.0]))
        assert_allclose(n, [0.5, 0.5])

    def test_quad4_corner_is_unit_vector(self):
        n, _ = shape_functions(ElementType.QUAD4, np.array([-1.0, -1.0]))
        assert_allclose(n, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("etype", list(ElementType))
    def test_partition_of_unity(self, etype, rng):
        xi = rng.uniform(-1.0, 1.0, etype.dim)
        n, dn = shape_functions(etype, xi)
        assert_allclose(n.sum(), 1.0, rtol=1e-14)
        assert_allclose(dn.sum(axis=0), np.zeros(etype.dim), atol=1e-14)

    def test_gauss_weights_sum_to_cell_measure(self):
        for dim in (1, 2, 3):
            _, w = gauss_points(dim)
            assert_allclose(w.sum(), 2.0 ** dim)


class TestQuadrature:
    def test_volumes(self):
        assert_allclose(line_mesh(2.0, 7, area=3.0).quadrature().weights.sum(), 6.0)
        assert_allclose(rect_mesh(2.0, 0.5, 4, 2, thickness=2.0).quadrature().weights.sum(), 2.0)
        assert_allclose(box_mesh(1.0, 2.0, 3.0, 2, 2, 2).quadrature().weights.sum(), 6.0)

    def test_total_points(self):
        mesh = rect_mesh(1.0, 1.0, 3, 2)
        quad = mesh.quadrature()
        assert quad.weights.size == 6 * 4
        assert mesh.n_elements * quad.nqp == 6 * 4

    def test_inverted_element_is_reported(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = Mesh(nodes, np.array([[0, 3, 2, 1]]), ElementType.QUAD4)
        with pytest.raises(ValueError, match="jacobian"):
            mesh.quadrature()


class TestGradientField:
    def test_zero_displacement(self, distorted_quad):
        grad = gradient_field(distorted_quad, np.zeros(8))
        assert_allclose(grad, 0.0, atol=1e-15)

    def test_1d_uniform_stretch(self):
        mesh = line_mesh(2.0, 4)
        u = 0.1 * mesh.nodes[:, 0]
        grad = gradient_field(mesh, u)
        assert_allclose(grad, 0.1, rtol=1e-13)

    def test_affine_reproduction_distorted(self, distorted_quad, rng):
        a = rng.standard_normal((2, 2))
        u = (distorted_quad.nodes @ a.T).ravel()
        grad = gradient_field(distorted_quad, u)
        assert_allclose(grad, np.broadcast_to(a, grad.shape), atol=1e-10)

    def test_quad_patch_example(self):
        mesh = rect_mesh(1.0, 1.0, 2, 2)
        u = np.zeros((mesh.n_nodes, 2))
        u[:, 0] = 0.02 * mesh.nodes[:, 0]
        grad = gradient_field(mesh, u.ravel())
        expected = np.array([[0.02, 0.0], [0.0, 0.0]])
        assert_allclose(grad, np.broadcast_to(expected, grad.shape), atol=1e-14)

    def test_hex_affine(self, rng):
        mesh = box_mesh(1.0, 1.0, 1.0, 2, 2, 2)
        a = rng.standard_normal((3, 3))
        u = (mesh.nodes @ a.T).ravel()
        grad = gradient_field(mesh, u)
        assert_allclose(grad, np.broadcast_to(a, grad.shape), atol=1e-12)


def einsum_gradient(mesh, u):
    """The element-loop gradient the sparse operator replaced: the oracle."""
    quad = mesh.quadrature()
    u_el = u.reshape(mesh.n_nodes, mesh.dim)[mesh.elements]
    return np.einsum("eai,eqaj->eqij", u_el, quad.dndx)


def einsum_divergence(mesh, tensor_qp):
    """The element-loop weak divergence the sparse operator replaced."""
    quad = mesh.quadrature()
    contrib = np.einsum("eq,eqij,eqaj->eai", quad.weights, tensor_qp, quad.dndx)
    out = np.zeros((mesh.n_nodes, mesh.dim))
    np.add.at(out, mesh.elements, contrib)
    return out.ravel()


OPERATOR_MESHES = {
    "LINE2": lambda: line_mesh(2.0, 7, area=3.0),
    "QUAD4": lambda: rect_mesh(1.3, 0.8, 4, 3, thickness=0.7),
    "distorted QUAD4": lambda: Mesh(
        np.array([[0.0, 0.0], [1.3, 0.1], [2.4, -0.1], [-0.2, 1.2], [1.1, 0.9],
                  [2.2, 1.3]]),
        np.array([[0, 1, 4, 3], [1, 2, 5, 4]]), ElementType.QUAD4),
    "HEX8": lambda: box_mesh(1.0, 0.6, 0.5, 3, 2, 2),
}


@pytest.mark.parametrize("make_mesh", OPERATOR_MESHES.values(),
                         ids=OPERATOR_MESHES.keys())
class TestGradientOperator:
    def random_pair(self, mesh, rng):
        shape = (mesh.n_elements, mesh.quadrature().nqp, mesh.dim, mesh.dim)
        return rng.standard_normal(mesh.n_dofs), rng.standard_normal(shape)

    def test_matches_the_element_loop_formulas(self, make_mesh, rng):
        mesh = make_mesh()
        u, t = self.random_pair(mesh, rng)
        grad, div = gradient_field(mesh, u), divergence_rhs(mesh, t)
        want_grad, want_div = einsum_gradient(mesh, u), einsum_divergence(mesh, t)
        assert np.max(np.abs(grad - want_grad)) <= 1e-14 * np.max(np.abs(want_grad))
        assert np.max(np.abs(div - want_div)) <= 1e-14 * np.max(np.abs(want_div))

    def test_divergence_is_the_adjoint_of_the_gradient(self, make_mesh, rng):
        # u . div(T) = sum over points of w grad(u) : T
        mesh = make_mesh()
        u, t = self.random_pair(mesh, rng)
        weights = mesh.quadrature().weights[:, :, None, None]
        assert_allclose(u @ divergence_rhs(mesh, t),
                        np.sum(weights * gradient_field(mesh, u) * t), rtol=1e-13)

    def test_operator_is_built_on_first_use_and_kept(self, make_mesh, rng,
                                                     monkeypatch):
        builds = count_operator_builds(monkeypatch)
        mesh = make_mesh()
        u, t = self.random_pair(mesh, rng)
        # an assembly builds a B of its own and leaves no operator behind
        stiffness_vector(mesh)
        assert len(builds) == 0
        grad = gradient_field(mesh, u)
        op = mesh.quadrature().operator
        assert op.b.indices.dtype == np.int32
        assert np.all(np.diff(op.b.indptr) == mesh.etype.nodes_per_element)
        divergence_rhs(mesh, t)
        stiffness_vector(mesh)
        assert len(builds) == 1 and mesh.quadrature().operator is op
        # a new mesh gets its own operator, with its own weights
        other = replace(mesh, area=2.0 * mesh.area)
        assert np.array_equal(gradient_field(other, u), grad)
        assert len(builds) == 2 and other.quadrature().operator is not op
        scale = 1.0 if mesh.dim == 3 else 2.0      # HEX8 ignores the area
        assert np.array_equal(divergence_rhs(other, t), scale * divergence_rhs(mesh, t))
        # no reference cycle keeps a dropped mesh: its operator goes with it
        kept = weakref.ref(op)
        del mesh, op
        assert kept() is None


def scalar_laplacian(mesh, mu0):
    """Oracle K[a,b] = mu0 * integral dN_a . dN_b dV, assembled element by element."""
    quad = mesh.quadrature()
    k_el = np.einsum("eq,eqaj,eqbj->eab", mu0 * quad.weights, quad.dndx, quad.dndx)
    k = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for nodes, block in zip(mesh.elements, k_el):
        k[np.ix_(nodes, nodes)] += block
    return k


class TestStiffness:
    def test_single_line2_block(self):
        mesh = line_mesh(0.4, 1, area=2.5)
        k = stiffness_vector(mesh, mu0=3.0).toarray()
        c = 3.0 * 2.5 / 0.4
        assert_allclose(k, c * np.array([[1.0, -1.0], [-1.0, 1.0]]), rtol=1e-13)

    def test_two_element_rows_sum_to_zero(self):
        k = stiffness_vector(line_mesh(1.0, 2)).toarray()
        assert_allclose(k.sum(axis=1), 0.0, atol=1e-13)
        assert k[0, 2] == 0.0  # tridiagonal: no end-to-end coupling

    def test_vector_form_is_blockwise_scalar(self):
        mesh = rect_mesh(1.0, 2.0, 2, 3)
        ks = scalar_laplacian(mesh, mu0=1.7)
        kv = stiffness_vector(mesh, mu0=1.7).toarray()
        assert_allclose(kv[0::2, 0::2], ks, atol=1e-13)
        assert_allclose(kv[1::2, 1::2], ks, atol=1e-13)
        assert_allclose(kv[0::2, 1::2], 0.0, atol=1e-15)

    def test_rigid_translation_in_kernel(self, distorted_quad):
        k = stiffness_vector(distorted_quad)
        for comp in range(2):
            u = np.zeros((4, 2))
            u[:, comp] = 1.0
            assert_allclose(k @ u.ravel(), 0.0, atol=1e-13)

    def test_matches_divergence_of_gradient(self, rng):
        # K u must equal the assembled divergence of mu0 * grad(u)
        mesh = rect_mesh(1.3, 0.8, 3, 2, thickness=0.7)
        u = rng.standard_normal(mesh.n_dofs)
        k = stiffness_vector(mesh, mu0=2.2)
        rhs = divergence_rhs(mesh, 2.2 * gradient_field(mesh, u))
        assert_allclose(k @ u, rhs, atol=1e-12)

    def test_factorize_reports_rigid_modes(self):
        mesh = rect_mesh(1.0, 1.0, 2, 2)
        k = stiffness_vector(mesh).tocsr()
        with pytest.raises(ValueError, match="near-zero"):
            factorize(k, "unconstrained stiffness")

    def test_factorize_condition_check_draws_no_random_numbers(self):
        # the 1-norm estimate uses no random start vectors, so it repeats
        # exactly and leaves numpy's global generator alone
        mesh = rect_mesh(1.0, 1.0, 4, 4)
        k = stiffness_vector(mesh).tocsr()[2:, 2:]
        state = np.random.get_state()
        factorize(k, "pinned stiffness")
        after = np.random.get_state()
        assert state[0] == after[0] and np.array_equal(state[1], after[1])
        assert state[2:] == after[2:]


class TestBoundaryConditions:
    def test_zero_loads(self, distorted_quad):
        f = BoundaryConditions().external_force(distorted_quad)
        assert_allclose(f, 0.0)

    def test_rod_end_traction(self):
        # 1 MPa on 1 mm^2 -> 1 N against the end node
        mesh = line_mesh(0.1, 5, area=1.0e-6)
        bcs = BoundaryConditions(tractions=[((mesh.n_nodes - 1,), [1.0e6])])
        f = bcs.external_force(mesh)
        assert_allclose(f[-1], 1.0)
        assert_allclose(f[:-1], 0.0)

    def test_uniform_body_force_shares(self):
        mesh = line_mesh(1.0, 4, area=2.0)
        f = BoundaryConditions(body_force=np.array([3.0])).external_force(mesh)
        # total force = b * volume, interior nodes get the double share
        assert_allclose(f.sum(), 3.0 * 2.0, rtol=1e-13)
        assert_allclose(f[1:-1], f[1], rtol=1e-13)
        assert_allclose(f[0], 0.5 * f[1], rtol=1e-13)

    def test_quad_edge_traction_total(self, unit_square):
        t = np.array([5.0, -2.0])
        bcs = BoundaryConditions(tractions=[
            (face, t) for face in unit_square.facesets["right"]])
        f = bcs.external_force(unit_square).reshape(-1, 2)
        assert_allclose(f.sum(axis=0), t, rtol=1e-13)  # edge has unit length
        assert_allclose(f[unit_square.nodesets["left"]], 0.0)

    def test_hex_face_traction_total(self):
        mesh = box_mesh(1.0, 1.0, 1.0, 2, 2, 1)
        top = np.flatnonzero(np.isclose(mesh.nodes[:, 2], 1.0))
        # four quad faces tiling the top surface
        def face_at(i, j):
            def nid(a, b):
                return int(top[np.flatnonzero(
                    np.isclose(mesh.nodes[top, 0], a * 0.5)
                    & np.isclose(mesh.nodes[top, 1], b * 0.5))[0]])
            return (nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1))

        t = np.array([0.0, 0.0, 7.0])
        faces = [face_at(i, j) for i in range(2) for j in range(2)]
        f = BoundaryConditions(tractions=[(fc, t) for fc in faces]).external_force(mesh)
        assert_allclose(f.reshape(-1, 3).sum(axis=0), [0.0, 0.0, 7.0], rtol=1e-13)

    def test_fixed_dofs_sorted_and_merged(self, unit_square):
        bcs = BoundaryConditions(dirichlet=[(3, 1, 0.5), (0, 0, 0.0), (3, 1, 0.5)])
        dofs, vals = bcs.fixed_dofs(unit_square)
        assert dofs.tolist() == [0, 7]
        assert vals.tolist() == [0.0, 0.5]

    def test_conflicting_duplicate_raises(self, unit_square):
        bcs = BoundaryConditions(dirichlet=[(3, 1, 0.5), (3, 1, -0.5)])
        with pytest.raises(ValueError, match="conflict"):
            bcs.fixed_dofs(unit_square)

    def test_lambda_defaults_to_u_pattern(self, unit_square):
        bcs = BoundaryConditions(dirichlet=[(2, 0, 0.25)])
        dofs, vals = bcs.lambda_fixed_dofs(unit_square)
        assert dofs.tolist() == [4]
        assert vals.tolist() == [0.0]


class TestSolvePath:
    def test_reduce_and_expand_round_trip(self, rng):
        mesh = line_mesh(1.0, 6)
        k = stiffness_vector(mesh)
        fixed = np.array([0])
        vals = np.array([0.3])
        rhs = np.zeros(mesh.n_nodes)
        red = ReducedSystem(k, fixed)
        x = factorize(red.k_ff, "rod").solve(red.rhs(rhs, vals))
        full = red.expand(x, vals)
        # pure Dirichlet problem with zero interior source: constant field
        assert_allclose(full, 0.3, rtol=1e-12)

    def test_free_dofs_complement(self):
        free = free_dofs(6, np.array([1, 4]))
        assert free.tolist() == [0, 2, 3, 5]


class TestMeshFiles:
    def test_round_trip(self, tmp_path, unit_square):
        path = tmp_path / "patch.mesh"
        save_mesh(unit_square, path)
        back = load_mesh(path)
        assert np.array_equal(back.nodes, unit_square.nodes)
        assert np.array_equal(back.elements, unit_square.elements)
        assert back.etype is ElementType.QUAD4
        assert set(back.nodesets) == set(unit_square.nodesets)
        assert back.facesets["right"] == unit_square.facesets["right"]

    def test_missing_magic_names_line_1(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("dim=1 etype=LINE2\nnodes 0\nelements 0\n")
        with pytest.raises(ValueError, match=r"bad.mesh:1"):
            load_mesh(path)

    def test_unknown_etype_names_line_2(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("# dd-mesh v1\ndim=2 etype=TRI3\nnodes 0\nelements 0\n")
        with pytest.raises(ValueError, match=r"bad.mesh:2"):
            load_mesh(path)

    def test_bad_coordinate_names_its_line(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("# dd-mesh v1\ndim=1 etype=LINE2\nnodes 2\n0.0\nxyz\n"
                        "elements 1\n0 1\n")
        with pytest.raises(ValueError, match=r"bad.mesh:5"):
            load_mesh(path)

    def test_element_out_of_range(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("# dd-mesh v1\ndim=1 etype=LINE2\nnodes 2\n0.0\n1.0\n"
                        "elements 1\n0 5\n")
        with pytest.raises(ValueError):
            load_mesh(path)

    @pytest.mark.parametrize("body, line", [
        ("nodes two\n0.0\n1.0\nelements 1\n0 1\n", 3),
        ("nodes 2\n0.0\n1.0\nelements 1\n0 1\nnodeset end 1\nzero\n", 9),
        ("nodes 2\n0.0\n1.0\nelements 1\n0 1\nfaceset right x\n1\n", 8),
        ("nodes 99999999999999999999\n0.0\n1.0\nelements 1\n0 1\n", 3),
    ], ids=["node count", "nodeset id", "faceset count", "node count beyond int64"])
    def test_malformed_integer_names_its_line(self, tmp_path, body, line):
        path = tmp_path / "bad.mesh"
        path.write_text("# dd-mesh v1\ndim=1 etype=LINE2\n" + body)
        with pytest.raises(ValueError, match=rf"bad.mesh:{line}: "):
            load_mesh(path)

    def test_element_id_beyond_int64_names_its_line(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("# dd-mesh v1\ndim=1 etype=LINE2\nnodes 2\n0.0\n1.0\n"
                        "elements 1\n0 99999999999999999999\n")
        with pytest.raises(ValueError, match=r"bad.mesh:7: malformed number$"):
            load_mesh(path)

    def test_every_int_token_and_interleaved_comments_are_accepted(self, tmp_path):
        # the batched parse rejects "1_0" and the comment lines; the line
        # loop reads the block without them, each token like int()
        nodes = "\n".join(repr(float(i)) for i in range(11))
        path = tmp_path / "rod.mesh"
        path.write_text("# dd-mesh v1\n\n# LINE2 rod\ndim=1 etype=LINE2\nnodes 11\n"
                        + nodes + "\nelements 2\n0 1\n# the last element\n\n9 1_0\n")
        mesh = load_mesh(path)
        assert np.array_equal(mesh.nodes[:, 0], np.arange(11.0))
        assert mesh.elements.tolist() == [[0, 1], [9, 10]]

    def test_nodeset_out_of_range(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("# dd-mesh v1\ndim=1 etype=LINE2\nnodes 2\n0.0\n1.0\n"
                        "elements 1\n0 1\nnodeset end 1\n9\n")
        with pytest.raises(ValueError, match=":9: nodeset 'end' references missing nodes"):
            load_mesh(path)
