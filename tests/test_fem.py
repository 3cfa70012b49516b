import numpy as np
import pytest
import sympy

from elastprec.fem import (ManufacturedProblem, apply_dirichlet,
                           assemble_div, assemble_epsilon_stiffness,
                           assemble_load,
                           assemble_pressure_mass, assemble_system,
                           build_space, compute_errors, interpolate)
from elastprec.mesh import build_uniform_mesh
from elastprec.quadrature import RULE_DEGREE6
from elastprec.fem import p2_grads, _geometry  # noqa: F401  (oracle use)


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
    got = problem.displacement_gradient(pts)
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(got[:, i, j],
                                       grads[i][j](pts[:, 0], pts[:, 1]),
                                       atol=1e-12)


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
    _, _, det, inv_t = _geometry(mesh)
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
    _, _, det, inv_t = _geometry(mesh)
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
    _, D = assemble_pressure_mass(Q)
    rule = RULE_DEGREE6
    _, _, det, inv_t = _geometry(mesh)
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
    MQ, D = assemble_pressure_mass(Q)
    np.testing.assert_allclose(D, 1.0 / 32.0, rtol=0, atol=1e-16)
    assert (MQ - MQ.T).count_nonzero() == 0
    np.testing.assert_allclose(MQ.diagonal(), D)


def test_p1_mass_partition_of_unity():
    Q = build_space(build_uniform_mesh(3), "p1")
    MQ, D = assemble_pressure_mass(Q)
    assert abs(MQ.sum() - 1.0) <= 1e-13
    np.testing.assert_allclose(D, MQ.diagonal())
    assert np.all(D > 0)


def test_p1_mass_interior_diagonal():
    mesh = build_uniform_mesh(2)
    Q = build_space(mesh, "p1")
    _, D = assemble_pressure_mass(Q)
    interior = ~mesh.boundary_vertex_flags
    # six incident triangles, each contributing area/6
    np.testing.assert_allclose(D[interior], mesh.h**2 / 2, rtol=1e-14)


# ---------------------------------------------------------------------------
# the modified operator

def _small_system(pressure="p0", level=2):
    return assemble_system(build_uniform_mesh(level), pressure)


def test_lambda_operator_at_zero():
    system = _small_system()
    rng = np.random.default_rng(7)
    v = rng.standard_normal(system.V.dof_count)
    np.testing.assert_array_equal(system.apply_lambda(0.0, v), system.A @ v)


def test_lambda_operator_on_divergence_free_field():
    # the rotation (-y, x) is linear, interpolated exactly, pointwise div-free
    system = _small_system()
    v = interpolate(system.V, lambda p: np.column_stack([-p[:, 1], p[:, 0]]))
    for lam in (0.0, 1.0, 2499.5):
        np.testing.assert_allclose(system.apply_lambda(lam, v),
                                   system.A @ v, atol=1e-12)


@pytest.mark.parametrize("pressure", ["p0", "p1"])
def test_lambda_quadratic_form_identity(pressure):
    system = _small_system(pressure)
    rng = np.random.default_rng(8)
    lam = 249.5
    for _ in range(5):
        v = rng.standard_normal(system.V.dof_count)
        lhs = v @ system.apply_lambda(lam, v)
        bv = system.B @ v
        rhs = v @ (system.A @ v) + lam * (bv @ (bv / system.D))
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)
        assert lhs - v @ (system.A @ v) >= -1e-13 * abs(lhs)


def test_lambda_operator_matrix_matches_application():
    system = _small_system("p1")
    rng = np.random.default_rng(9)
    v = rng.standard_normal(system.V.dof_count)
    for projection in ("diagonal", "exact"):
        mat = system.lambda_matrix(3.5, projection)
        np.testing.assert_allclose(
            mat @ v, system.apply_lambda(3.5, v, projection),
            rtol=1e-12, atol=1e-12)


def test_exact_projection_equals_diagonal_for_p0():
    system = _small_system("p0")
    rng = np.random.default_rng(10)
    v = rng.standard_normal(system.V.dof_count)
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


def test_negative_lambda_rejected():
    system = _small_system()
    with pytest.raises(ValueError, match="nonnegative"):
        system.apply_lambda(-1.0, np.zeros(system.V.dof_count))
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
    system = assemble_system(mesh, "p0", problem)
    reduced = apply_dirichlet(system, problem)
    assert np.max(np.abs(reduced.lift)) == 0.0
    np.testing.assert_array_equal(reduced.rhs(0.0), system.rhs[reduced.free])
    np.testing.assert_array_equal(reduced.rhs(100.0), system.rhs[reduced.free])


def test_dirichlet_corner_value():
    mesh = build_uniform_mesh(2)
    problem = ManufacturedProblem()
    system = assemble_system(mesh, "p0", problem)
    reduced = apply_dirichlet(system, problem)
    ns = system.V.num_scalar_dofs
    # vertex 0 sits at the origin where the displacement vanishes
    assert reduced.lift[0] == 0.0 and reduced.lift[ns] == 0.0
    # boundary values match the field at the quadratic nodes
    vals = problem.displacement(system.V.dof_points)
    lift_x = reduced.lift[:ns][system.V.dirichlet_mask[:ns]]
    np.testing.assert_allclose(lift_x, vals[system.V.dirichlet_mask[:ns], 0])


def test_reduced_operator_symmetry_and_spd():
    from elastprec.sparse_linalg import factor_spd

    mesh = build_uniform_mesh(2)
    problem = ManufacturedProblem()
    system = assemble_system(mesh, "p1", problem)
    reduced = apply_dirichlet(system, problem)
    rng = np.random.default_rng(11)
    lam = 249.5
    x = rng.standard_normal(reduced.dim)
    y = rng.standard_normal(reduced.dim)
    kx, ky = reduced.apply_lambda(lam, x), reduced.apply_lambda(lam, y)
    scale = np.linalg.norm(kx) * np.linalg.norm(y)
    assert abs(kx @ y - x @ ky) <= 1e-12 * scale
    factor_spd(reduced.lambda_matrix(lam))  # raises if not SPD


def test_expand_roundtrip():
    mesh = build_uniform_mesh(1)
    problem = ManufacturedProblem()
    reduced = apply_dirichlet(assemble_system(mesh, "p0", problem), problem)
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


def test_errors_zero_for_exact_coefficients():
    # a quadratic field is represented exactly by the space
    class Quadratic(ManufacturedProblem):
        def displacement(self, points):
            x, y = points[:, 0], points[:, 1]
            return np.column_stack([x * x, x * y])

        def displacement_gradient(self, points):
            x, y = points[:, 0], points[:, 1]
            g = np.empty((points.shape[0], 2, 2))
            g[:, 0, 0] = 2 * x
            g[:, 0, 1] = 0.0
            g[:, 1, 0] = y
            g[:, 1, 1] = x
            return g

    problem = Quadratic()
    V = build_space(build_uniform_mesh(2), "p2v")
    u = interpolate(V, problem.displacement)
    l2, h1 = compute_errors(u, problem, V)
    assert l2 <= 1e-14 and h1 <= 1e-13
