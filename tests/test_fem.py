import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from elastprec.fem import (ManufacturedProblem, apply_dirichlet,
                           assemble_div, assemble_epsilon_stiffness,
                           assemble_load,
                           assemble_pressure_mass, assemble_system,
                           build_space, compute_errors, interpolate)
from elastprec.mesh import build_uniform_mesh
from elastprec.quadrature import RULE_DEGREE5, RULE_DEGREE6
from elastprec.fem import (p1_values, p2_grads, p2_values, _cell_shapes,  # noqa: F401  (oracle use)
                           _det_inv_t, _jacobians, _physical_grads)


# ---------------------------------------------------------------------------
# symbolic oracle for the manufactured problem

def _symbolic_problem():
    x, y = sympy.symbols("x y")
    u = sympy.Matrix([sympy.sin(sympy.pi * x) * sympy.cos(sympy.pi * y),
                      -sympy.cos(sympy.pi * x) * sympy.sin(sympy.pi * y)])
    e11 = sympy.diff(u[0], x)
    e22 = sympy.diff(u[1], y)
    e12 = (sympy.diff(u[0], y) + sympy.diff(u[1], x)) / 2
    f = sympy.Matrix([-(sympy.diff(e11, x) + sympy.diff(e12, y)),
                      -(sympy.diff(e12, x) + sympy.diff(e22, y))])
    return (x, y), u, f, e11 + e22


def test_manufactured_solution_symbolically():
    (x, y), u, f, divu = _symbolic_problem()
    assert sympy.simplify(divu) == 0
    # the body force reduces to pi^2 times the displacement
    assert sympy.simplify(f[0] - sympy.pi**2 * u[0]) == 0
    assert sympy.simplify(f[1] - sympy.pi**2 * u[1]) == 0


def test_body_force_matches_symbolic_derivation():
    (x, y), u, f, _ = _symbolic_problem()
    f_num = sympy.lambdify((x, y), f, "numpy")
    problem = ManufacturedProblem()
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(50, 2))
    expected = np.array([f_num(*p).ravel() for p in pts])
    np.testing.assert_allclose(problem.body_force(pts), expected, atol=1e-12)
    # f at (1/2, 0) is (pi^2, 0)
    val = problem.body_force(np.array([[0.5, 0.0]]))[0]
    np.testing.assert_allclose(val, [np.pi**2, 0.0], atol=1e-14)


def test_displacement_gradient_matches_symbolic():
    (x, y), u, _, _ = _symbolic_problem()
    grads = [[sympy.lambdify((x, y), sympy.diff(u[i], var), "numpy")
              for var in (x, y)] for i in range(2)]
    problem = ManufacturedProblem()
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, size=(20, 2))
    got = problem.displacement_and_gradient(pts)[1]
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(got[:, i, j],
                                       grads[i][j](pts[:, 0], pts[:, 1]),
                                       atol=1e-12)


def test_displacement_and_gradient_equal_the_separate_fields():
    pts = np.random.default_rng(9).uniform(0, 1, size=(40, 2))
    for problem in (ManufacturedProblem(), _QuadraticProblem()):
        u, grad = problem.displacement_and_gradient(pts)
        np.testing.assert_array_equal(u, problem.displacement(pts))
        np.testing.assert_array_equal(grad, problem.displacement_and_gradient(pts)[1])


# ---------------------------------------------------------------------------
# dof spaces

def test_dof_counts_l2():
    mesh = build_uniform_mesh(2)
    assert build_space(mesh, "p2v").dof_count == 2 * (25 + 56)  # 162
    assert build_space(mesh, "p0").dof_count == 32
    assert build_space(mesh, "p1").dof_count == 25


def test_unsupported_kind():
    mesh = build_uniform_mesh(1)
    with pytest.raises(ValueError, match="unsupported"):
        build_space(mesh, "p3")


def test_dirichlet_mask_counts():
    mesh = build_uniform_mesh(2)
    V = build_space(mesh, "p2v")
    # both components of 16 boundary vertices and 16 boundary edges
    assert int(V.dirichlet_mask.sum()) == 2 * (16 + 16)
    assert build_space(mesh, "p1").dirichlet_mask is None


def test_p2_dof_points_are_nodes():
    mesh = build_uniform_mesh(1)
    V = build_space(mesh, "p2v")
    np.testing.assert_array_equal(V.dof_points[:mesh.num_vertices], mesh.vertices)
    np.testing.assert_array_equal(V.dof_points[mesh.num_vertices:],
                                  mesh.edge_midpoints())


# ---------------------------------------------------------------------------
# strain stiffness

def test_stiffness_exactly_symmetric():
    V = build_space(build_uniform_mesh(2), "p2v")
    A = assemble_epsilon_stiffness(V)
    assert (A - A.T).count_nonzero() == 0


def test_stiffness_nullspace_is_rigid_motions():
    # dense eigensolve of the unconstrained operator at L=1
    V = build_space(build_uniform_mesh(1), "p2v")
    A = assemble_epsilon_stiffness(V).toarray()
    vals = np.linalg.eigvalsh(A)
    assert np.sum(vals < 1e-10 * vals[-1]) == 3


def test_rotation_field_has_no_strain_energy():
    # the interpolant of (-y, x) is exact (linear field), so its strain
    # vanishes; the quadrature energy hits the 1e-24 scale while the
    # assembled quadratic form carries the eps*||A||*||v||^2 rounding floor
    mesh = build_uniform_mesh(2)
    V = build_space(mesh, "p2v")
    A = assemble_epsilon_stiffness(V)
    v = interpolate(V, lambda p: np.column_stack([-p[:, 1], p[:, 0]]))
    norm_a = np.max(np.abs(A.data))
    scale = norm_a * (v @ v)

    rule = RULE_DEGREE6
    det, inv_t = _det_inv_t(_jacobians(mesh)[1])
    grads = np.einsum("tab,qib->tqia", inv_t, p2_grads(rule.points))
    w = rule.weights[None, :] * det[:, None]
    cx = v[V.cell_dofs[:, :6]]
    cy = v[V.cell_dofs[:, 6:]]
    gx = np.einsum("ti,tqia->tqa", cx, grads)
    gy = np.einsum("ti,tqia->tqa", cy, grads)
    strain_sq = gx[..., 0]**2 + gy[..., 1]**2 + 0.5 * (gx[..., 1] + gy[..., 0])**2
    assert np.sum(w * strain_sq) <= 1e-24 * scale

    assert abs(v @ (A @ v)) <= 1e-13 * scale


def test_stiffness_value_oracle():
    # u = (x, 0) has eps = diag(1, 0) and unit strain energy on the square
    V = build_space(build_uniform_mesh(3), "p2v")
    A = assemble_epsilon_stiffness(V)
    v = interpolate(V, lambda p: np.column_stack([p[:, 0], np.zeros(len(p))]))
    assert abs(v @ (A @ v) - 1.0) <= 1e-13
    # u = (y, 0) has eps = offdiag(1/2) and energy 1/2
    w = interpolate(V, lambda p: np.column_stack([p[:, 1], np.zeros(len(p))]))
    assert abs(w @ (A @ w) - 0.5) <= 1e-13


def test_stiffness_positive_semidefinite():
    V = build_space(build_uniform_mesh(1), "p2v")
    A = assemble_epsilon_stiffness(V).toarray()
    assert np.linalg.eigvalsh(A)[0] >= -1e-12


# ---------------------------------------------------------------------------
# divergence coupling

@pytest.mark.parametrize("pressure", ["p0", "p1"])
def test_div_of_constant_field_is_zero(pressure):
    mesh = build_uniform_mesh(2)
    V = build_space(mesh, "p2v")
    B = assemble_div(V, build_space(mesh, pressure))
    v = interpolate(V, lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]))
    assert np.max(np.abs(B @ v)) <= 1e-15


@pytest.mark.parametrize("pressure", ["p0", "p1"])
def test_divergence_theorem(pressure):
    # zero-boundary velocity against constant pressure: total divergence vanishes
    mesh = build_uniform_mesh(3)
    V = build_space(mesh, "p2v")
    B = assemble_div(V, build_space(mesh, pressure))
    rng = np.random.default_rng(5)
    v = rng.standard_normal(V.dof_count)
    v[V.dirichlet_mask] = 0.0
    assert abs(np.sum(B @ v)) <= 1e-13 * np.linalg.norm(v)


def test_div_matches_per_cell_quadrature_oracle():
    mesh = build_uniform_mesh(2)
    V = build_space(mesh, "p2v")
    Q = build_space(mesh, "p0")
    B = assemble_div(V, Q)
    problem = ManufacturedProblem()
    u = interpolate(V, problem.displacement)

    # independent path: integrate div(u_h) per cell with the degree-6 rule
    rule = RULE_DEGREE6
    det, inv_t = _det_inv_t(_jacobians(mesh)[1])
    grads = np.einsum("tab,qib->tqia", inv_t, p2_grads(rule.points))
    w = rule.weights[None, :] * det[:, None]
    cx = u[V.cell_dofs[:, :6]]
    cy = u[V.cell_dofs[:, 6:]]
    div = np.einsum("ti,tqi->tq", cx, grads[..., 0]) + \
        np.einsum("ti,tqi->tq", cy, grads[..., 1])
    expected = np.sum(w * div, axis=1)

    got = B @ u
    np.testing.assert_allclose(got, expected, atol=1e-14)
    assert np.max(np.abs(got)) > 1e-6  # nonzero interpolation divergence


def test_div_requires_matching_mesh():
    V = build_space(build_uniform_mesh(1), "p2v")
    Q = build_space(build_uniform_mesh(2), "p0")
    with pytest.raises(ValueError, match="different meshes"):
        assemble_div(V, Q)


def test_p0_projection_is_elementwise_mean():
    mesh = build_uniform_mesh(2)
    V = build_space(mesh, "p2v")
    Q = build_space(mesh, "p0")
    B = assemble_div(V, Q)
    D = assemble_pressure_mass(Q).diagonal()
    rule = RULE_DEGREE6
    det, inv_t = _det_inv_t(_jacobians(mesh)[1])
    grads = np.einsum("tab,qib->tqia", inv_t, p2_grads(rule.points))
    w = rule.weights[None, :] * det[:, None]
    rng = np.random.default_rng(6)
    for _ in range(10):
        v = rng.standard_normal(V.dof_count)
        cx = v[V.cell_dofs[:, :6]]
        cy = v[V.cell_dofs[:, 6:]]
        div = np.einsum("ti,tqi->tq", cx, grads[..., 0]) + \
            np.einsum("ti,tqi->tq", cy, grads[..., 1])
        mean = np.sum(w * div, axis=1) / mesh.cell_areas()
        np.testing.assert_allclose((B @ v) / D, mean, atol=1e-12)


# ---------------------------------------------------------------------------
# pressure mass

def test_p0_mass_is_cell_areas():
    Q = build_space(build_uniform_mesh(2), "p0")
    MQ = assemble_pressure_mass(Q)
    D = MQ.diagonal()
    np.testing.assert_allclose(D, 1.0 / 32.0, rtol=0, atol=1e-16)
    assert (MQ - MQ.T).count_nonzero() == 0
    assert MQ.nnz == Q.dof_count  # diagonal


def test_p1_mass_partition_of_unity():
    Q = build_space(build_uniform_mesh(3), "p1")
    MQ = assemble_pressure_mass(Q)
    assert abs(MQ.sum() - 1.0) <= 1e-13
    assert np.all(MQ.diagonal() > 0)


def test_p1_mass_interior_diagonal():
    mesh = build_uniform_mesh(2)
    Q = build_space(mesh, "p1")
    D = assemble_pressure_mass(Q).diagonal()
    interior = ~mesh.boundary_vertex_flags
    # six incident triangles, each contributing area/6
    np.testing.assert_allclose(D[interior], mesh.h**2 / 2, rtol=1e-14)


# ---------------------------------------------------------------------------
# one local matrix per cell shape

def _jittered_mesh(level, seed=0):
    # interior vertices move by up to 0.15 h per coordinate, so every cell
    # gets its own Jacobian and all stay counterclockwise
    mesh = build_uniform_mesh(level)
    shift = np.random.default_rng(seed).uniform(-0.15, 0.15, mesh.vertices.shape) * mesh.h
    shift[mesh.boundary_vertex_flags] = 0.0
    return dataclasses.replace(mesh, vertices=mesh.vertices + shift)


def _per_cell_scatter(local, rows, cols, shape):
    return sp.coo_array((local.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def _per_cell_reference(mesh):
    """A, B (P0 and P1) and the P1 MQ, one local matrix per cell."""
    V = build_space(mesh, "p2v")
    rule = RULE_DEGREE5
    det, inv_t = _det_inv_t(_jacobians(mesh)[1])
    grads = np.einsum("tab,qib->tqia", inv_t, p2_grads(rule.points))
    w = rule.weights[None, :] * det[:, None]
    gx, gy = grads[..., 0], grads[..., 1]
    sxx = np.einsum("tq,tqi,tqj->tij", w, gx, gx)
    syy = np.einsum("tq,tqi,tqj->tij", w, gy, gy)
    syx = np.einsum("tq,tqi,tqj->tij", w, gy, gx)
    local = np.empty((mesh.num_cells, 12, 12))
    local[:, :6, :6] = sxx + 0.5 * syy
    local[:, 6:, 6:] = syy + 0.5 * sxx
    local[:, :6, 6:] = 0.5 * syx
    local[:, 6:, :6] = 0.5 * syx.transpose(0, 2, 1)
    local = 0.5 * (local + local.transpose(0, 2, 1))
    dofs = V.cell_dofs
    ref = {"A": _per_cell_scatter(local, np.repeat(dofs, 12, axis=1),
                                  np.tile(dofs, (1, 12)), (V.dof_count,) * 2)}
    for kind in ("p0", "p1"):
        Q = build_space(mesh, kind)
        psi = np.ones((rule.num_points, 1)) if kind == "p0" else p1_values(rule.points)
        local = np.empty((mesh.num_cells, psi.shape[1], 12))
        local[:, :, :6] = np.einsum("tq,qk,tqi->tki", w, psi, gx)
        local[:, :, 6:] = np.einsum("tq,qk,tqi->tki", w, psi, gy)
        ref["B" + kind] = _per_cell_scatter(
            local, np.repeat(Q.cell_dofs, 12, axis=1),
            np.tile(dofs, (1, psi.shape[1])), (Q.dof_count, V.dof_count))
    psi = p1_values(rule.points)
    local = np.einsum("tq,qk,ql->tkl", w, psi, psi)
    local = 0.5 * (local + local.transpose(0, 2, 1))
    cells = mesh.cells
    ref["MQp1"] = _per_cell_scatter(local, np.repeat(cells, 3, axis=1),
                                    np.tile(cells, (1, 3)), (mesh.num_vertices,) * 2)
    return ref


def _assert_bitwise_equal(got, want):
    assert got.format == want.format == "csr"
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_uniform_mesh_has_two_cell_shapes():
    mesh = build_uniform_mesh(4)
    jac, shape = _cell_shapes(mesh)
    assert jac.shape == (2, 2, 2)
    assert shape.shape == (mesh.num_cells,)
    np.testing.assert_array_equal(shape[0::2], shape[0])
    np.testing.assert_array_equal(shape[1::2], shape[1])


@pytest.mark.parametrize("jitter,level", [(True, 2), (True, 3), (False, 4)])
def test_assembly_matches_per_cell_reference(jitter, level):
    mesh = _jittered_mesh(level) if jitter else build_uniform_mesh(level)
    assert np.all(mesh.cell_areas() > 0)
    # on the jittered mesh every cell is its own shape
    assert _cell_shapes(mesh)[0].shape[0] == (mesh.num_cells if jitter else 2)
    ref = _per_cell_reference(mesh)
    V = build_space(mesh, "p2v")
    _assert_bitwise_equal(assemble_epsilon_stiffness(V), ref["A"])
    for kind in ("p0", "p1"):
        _assert_bitwise_equal(assemble_div(V, build_space(mesh, kind)), ref["B" + kind])
    _assert_bitwise_equal(assemble_pressure_mass(build_space(mesh, "p1")), ref["MQp1"])


# ---------------------------------------------------------------------------
# the modified operator

def _small_system(pressure="p0", level=2):
    problem = ManufacturedProblem()
    return apply_dirichlet(assemble_system(build_uniform_mesh(level), problem),
                           problem).couple(pressure)


def test_lambda_operator_at_zero():
    system = _small_system()
    rng = np.random.default_rng(7)
    v = rng.standard_normal(system.dim)
    np.testing.assert_array_equal(system.apply_lambda(0.0, v), system.A @ v)


def test_lambda_operator_on_divergence_free_field(case_p2p0_l2):
    # the Stokes projection of any field is discretely divergence-free
    system = case_p2p0_l2.reduced
    rng = np.random.default_rng(7)
    v = case_p2p0_l2.projector.project(rng.standard_normal(system.dim))
    av = system.A @ v
    # an absolute bound on the scale of A v (the deviation seen is 5e-12
    # at lam = 2499.5 against max |A v| = 7.9); rtol=0, so it is not widened
    for lam in (0.0, 1.0, 2499.5):
        np.testing.assert_allclose(system.apply_lambda(lam, v), av, rtol=0,
                                   atol=1e-10 * np.abs(av).max())


@pytest.mark.parametrize("pressure", ["p0", "p1"])
def test_lambda_quadratic_form_identity(pressure):
    system = _small_system(pressure)
    rng = np.random.default_rng(8)
    lam = 249.5
    for _ in range(5):
        v = rng.standard_normal(system.dim)
        lhs = v @ system.apply_lambda(lam, v)
        bv = system.B @ v
        rhs = v @ (system.A @ v) + lam * (bv @ (bv / system.D))
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)
        assert lhs - v @ (system.A @ v) >= -1e-13 * abs(lhs)


def test_lambda_operator_matrix_matches_application():
    system = _small_system("p1")
    rng = np.random.default_rng(9)
    v = rng.standard_normal(system.dim)
    mat = system.lambda_matrix(3.5, "diagonal")
    np.testing.assert_allclose(
        mat @ v, system.apply_lambda(3.5, v, "diagonal"),
        rtol=1e-12, atol=1e-12)
    # the exact projection's A_lam is dense: it is only applied
    with pytest.raises(ValueError, match="apply_lambda"):
        system.lambda_matrix(3.5, "exact")


@pytest.mark.parametrize("fixture", ["case_p2p0_l2", "case_p2p1_l2"])
def test_lambda_operator_caches_csr_transpose(fixture, request):
    red = request.getfixturevalue(fixture).reduced
    bt = red.BT
    assert bt is red.BT and bt.format == "csr"
    _assert_bitwise_equal(bt, red.B.T.tocsr())
    # the cached CSR transpose gives the same bits as the CSC view B.T
    rng = np.random.default_rng(12)
    for v in (rng.standard_normal(red.dim), rng.standard_normal((red.dim, 3))):
        pv = red.pressure_projection_apply(red.B @ v)
        want = red.A @ v + 2499.5 * (red.B.T @ pv)
        assert red.apply_lambda(2499.5, v).tobytes() == want.tobytes()


def test_exact_projection_equals_diagonal_for_p0():
    system = _small_system("p0")
    rng = np.random.default_rng(10)
    v = rng.standard_normal(system.dim)
    np.testing.assert_allclose(system.apply_lambda(5.0, v, "exact"),
                               system.apply_lambda(5.0, v, "diagonal"),
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("projection", ["diagonal", "exact"])
@pytest.mark.parametrize("fixture", ["case_p2p0_l2", "case_p2p1_l2"])
def test_lambda_operator_on_column_block(fixture, projection, request):
    # k == number of pressure dofs is the shape a wrong-axis scaling hides in
    red = request.getfixturevalue(fixture).reduced
    rng = np.random.default_rng(11)
    for k in (3, red.Q.dof_count):
        block = rng.standard_normal((red.dim, k))
        expected = np.column_stack([red.apply_lambda(2499.5, block[:, j], projection)
                                    for j in range(k)])
        np.testing.assert_allclose(red.apply_lambda(2499.5, block, projection),
                                   expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("fixture", ["case_p2p0_l2", "case_p2p1_l2"])
def test_projection_diagonal_is_mass_diagonal(fixture, request):
    red = request.getfixturevalue(fixture).reduced
    np.testing.assert_array_equal(red.D, red.MQ.diagonal())
    if red.Q.kind == "p0":
        np.testing.assert_array_equal(red.D, red.V.mesh.cell_areas())


def test_negative_lambda_rejected():
    system = _small_system()
    with pytest.raises(ValueError, match="nonnegative"):
        system.apply_lambda(-1.0, np.zeros(system.dim))
    with pytest.raises(ValueError, match="projection"):
        system.pressure_projection_apply(np.zeros(system.Q.dof_count), "weird")


# ---------------------------------------------------------------------------
# load vector

def test_load_of_zero_force_is_zero():
    class NoForce(ManufacturedProblem):
        def body_force(self, points):
            return np.zeros((points.shape[0], 2))

    V = build_space(build_uniform_mesh(2), "p2v")
    assert np.max(np.abs(assemble_load(NoForce(), V))) == 0.0


def test_load_pairing_with_interpolant():
    # <f, u> = pi^2 * int |u|^2 = pi^2 / 2; interpolation error below 1% at L=4
    problem = ManufacturedProblem()
    V = build_space(build_uniform_mesh(4), "p2v")
    f = assemble_load(problem, V)
    u = interpolate(V, problem.displacement)
    assert abs(f @ u - np.pi**2 / 2) <= 0.01 * np.pi**2 / 2


# ---------------------------------------------------------------------------
# Dirichlet elimination

def test_homogeneous_dirichlet_keeps_rhs():
    class ZeroBoundary(ManufacturedProblem):
        def boundary_values(self, points):
            return np.zeros((points.shape[0], 2))

    mesh = build_uniform_mesh(2)
    problem = ZeroBoundary()
    system = assemble_system(mesh, problem)
    reduced = apply_dirichlet(system, problem).couple("p0")
    assert np.max(np.abs(reduced.lift)) == 0.0
    np.testing.assert_array_equal(reduced.rhs(0.0), system.rhs[reduced.free])
    np.testing.assert_array_equal(reduced.rhs(100.0), system.rhs[reduced.free])


def test_dirichlet_corner_value():
    mesh = build_uniform_mesh(2)
    problem = ManufacturedProblem()
    system = assemble_system(mesh, problem)
    reduced = apply_dirichlet(system, problem)
    ns = system.V.dof_points.shape[0]
    # vertex 0 sits at the origin where the displacement vanishes
    assert reduced.lift[0] == 0.0 and reduced.lift[ns] == 0.0
    # boundary values match the field at the quadratic nodes
    vals = problem.displacement(system.V.dof_points)
    lift_x = reduced.lift[:ns][system.V.dirichlet_mask[:ns]]
    np.testing.assert_allclose(lift_x, vals[system.V.dirichlet_mask[:ns], 0])


def test_reduced_operator_symmetry_and_spd():
    from elastprec.sparse_linalg import factor_spd

    reduced = _small_system("p1")
    rng = np.random.default_rng(11)
    lam = 249.5
    x = rng.standard_normal(reduced.dim)
    y = rng.standard_normal(reduced.dim)
    kx, ky = reduced.apply_lambda(lam, x), reduced.apply_lambda(lam, y)
    scale = np.linalg.norm(kx) * np.linalg.norm(y)
    assert abs(kx @ y - x @ ky) <= 1e-12 * scale
    factor_spd(reduced.lambda_matrix(lam), np.arange(reduced.dim))  # raises if not SPD


def test_expand_roundtrip():
    reduced = _small_system("p0", 1)
    x = np.arange(reduced.dim, dtype=float)
    full = reduced.expand(x)
    np.testing.assert_array_equal(full[reduced.free], x)
    mask = reduced.V.dirichlet_mask
    np.testing.assert_array_equal(full[mask], reduced.lift[mask])


# ---------------------------------------------------------------------------
# error evaluation

def test_errors_of_interpolant_scale_cubically():
    problem = ManufacturedProblem()
    l2s, h1s = [], []
    for level in (2, 3, 4):
        V = build_space(build_uniform_mesh(level), "p2v")
        u = interpolate(V, problem.displacement)
        l2, h1 = compute_errors(u, problem, V)
        l2s.append(l2)
        h1s.append(h1)
    assert l2s[0] / l2s[1] >= 7.0 and l2s[1] / l2s[2] >= 7.0   # ~O(h^3)
    assert h1s[0] / h1s[1] >= 3.5 and h1s[1] / h1s[2] >= 3.5   # ~O(h^2)


class _QuadraticProblem(ManufacturedProblem):
    """A quadratic field, which the P2 space represents exactly."""

    def displacement_and_gradient(self, points):
        x, y = points[:, 0], points[:, 1]
        g = np.empty((points.shape[0], 2, 2))
        g[:, 0, 0] = 2 * x
        g[:, 0, 1] = 0.0
        g[:, 1, 0] = y
        g[:, 1, 1] = x
        return np.column_stack([x * x, x * y]), g


def test_errors_zero_for_exact_coefficients():
    problem = _QuadraticProblem()
    V = build_space(build_uniform_mesh(2), "p2v")
    u = interpolate(V, problem.displacement)
    l2, h1 = compute_errors(u, problem, V)
    assert l2 <= 1e-14 and h1 <= 1e-13


def _per_cell_errors(u_coeffs, problem, V):
    """L2 and H1 errors with physical gradients formed per cell."""
    rule = RULE_DEGREE6
    p0, jac = _jacobians(V.mesh)
    grads, det = _physical_grads(jac, rule)
    w = rule.weights[None, :] * det[:, None]
    phi = p2_values(rule.points)
    cx = u_coeffs[V.cell_dofs[:, :6]]
    cy = u_coeffs[V.cell_dofs[:, 6:]]
    uh = np.stack([np.einsum("ti,qi->tq", cx, phi),
                   np.einsum("ti,qi->tq", cy, phi)], axis=-1)
    guh = np.stack([np.einsum("ti,tqia->tqa", cx, grads),
                    np.einsum("ti,tqia->tqa", cy, grads)], axis=-2)
    flat = (p0[:, None, :] + np.einsum("tab,qb->tqa", jac, rule.points)).reshape(-1, 2)
    shape = (V.mesh.num_cells, rule.num_points)
    u = problem.displacement(flat).reshape(shape + (2,))
    gu = problem.displacement_and_gradient(flat)[1].reshape(shape + (2, 2))
    l2 = np.sqrt(np.sum(w * np.sum((uh - u) ** 2, axis=-1)))
    h1 = np.sqrt(np.sum(w * np.sum((guh - gu) ** 2, axis=(-2, -1))))
    return l2, h1


@pytest.mark.parametrize("jitter,level", [(True, 2), (True, 3), (False, 4)])
def test_errors_match_per_cell_reference(jitter, level):
    mesh = _jittered_mesh(level) if jitter else build_uniform_mesh(level)
    V = build_space(mesh, "p2v")
    problem = ManufacturedProblem()
    rng = np.random.default_rng(level)
    for u in (rng.standard_normal(V.dof_count),
              interpolate(V, problem.displacement) + 1e-3 * rng.standard_normal(V.dof_count)):
        np.testing.assert_allclose(compute_errors(u, problem, V),
                                   _per_cell_errors(u, problem, V), rtol=1e-12)


def test_errors_of_two_problems_on_one_space():
    mesh = _jittered_mesh(2)
    problems = (ManufacturedProblem(), _QuadraticProblem())
    rng = np.random.default_rng(5)
    V = build_space(mesh, "p2v")
    u = rng.standard_normal(V.dof_count)
    want = [_per_cell_errors(u, p, V) for p in problems]
    for order in ((0, 1), (1, 0)):
        V = build_space(mesh, "p2v")
        got = {k: compute_errors(u, problems[k], V) for k in order}
        cached = V._degree6_rule
        for k in order:
            np.testing.assert_allclose(got[k], want[k], rtol=1e-12)
            # a second call reads the same mesh data and gets the same errors
            assert compute_errors(u, problems[k], V) == got[k]
            # the load reads the same rule data and keeps it
            assemble_load(problems[k], V)
        assert V._degree6_rule is cached
    assert want[0][0] != pytest.approx(want[1][0], rel=1e-3)
