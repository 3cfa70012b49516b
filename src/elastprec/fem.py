"""Finite-element spaces and assembly for the elasticity/Stokes forms.

Velocity fields live in a continuous piecewise-quadratic vector space (P2),
the auxiliary pressure in piecewise constants (P0) or continuous piecewise
linears (P1).  Assembled operators:

* ``A``  -- strain stiffness, ``(eps(u), eps(v))``
* ``B``  -- divergence coupling, ``(div v, q)``
* ``MQ`` -- pressure mass matrix, from which ``D = diag(MQ)``, the diagonal
  realization of the pressure projection, is derived (exact for P0)

The scaled operator ``A_lam = A + lam * B^T D^{-1} B`` is the matrix form of
the modified bilinear form ``(eps(u),eps(v)) + lam*(div v, Pi_h div u)``.
For continuous pressures the projection can alternatively be applied through
the exact mass inverse (``projection="exact"``), which solves with a
factorization of ``MQ`` instead of dividing by its diagonal; for piecewise
constants the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, nested_dissection
from .quadrature import RULE_DEGREE5, RULE_DEGREE6, TriangleRule
from .sparse_linalg import Factorization, factor_spd

ELEMENT_KINDS = ("p0", "p1", "p2v")

_GRAD_BARY = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
# edge dof 3+i sits opposite vertex i, between the other two vertices
_EDGE_PAIRS = ((1, 2), (0, 2), (0, 1))


def p1_values(points: np.ndarray) -> np.ndarray:
    x, y = points[:, 0], points[:, 1]
    return np.column_stack([1.0 - x - y, x, y])


def p2_values(points: np.ndarray) -> np.ndarray:
    lam = p1_values(points)
    vals = np.empty((points.shape[0], 6))
    for i in range(3):
        vals[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
    for i, (j, k) in enumerate(_EDGE_PAIRS):
        vals[:, 3 + i] = 4.0 * lam[:, j] * lam[:, k]
    return vals


def p2_grads(points: np.ndarray) -> np.ndarray:
    lam = p1_values(points)
    grads = np.empty((points.shape[0], 6, 2))
    for i in range(3):
        grads[:, i, :] = (4.0 * lam[:, i, None] - 1.0) * _GRAD_BARY[i]
    for i, (j, k) in enumerate(_EDGE_PAIRS):
        grads[:, 3 + i, :] = 4.0 * (lam[:, j, None] * _GRAD_BARY[k]
                                    + lam[:, k, None] * _GRAD_BARY[j])
    return grads


@dataclass(frozen=True)
class DofSpace:
    """Degree-of-freedom layout of one finite-element space.

    For vector spaces the scalar dofs are blocked by component: dof ``s``
    carries the x-component and ``len(dof_points) + s`` the y-component.
    ``dirichlet_mask`` flags dofs attached to boundary vertices/edges and is
    populated for vector spaces only (pressures carry no constraints).
    """

    mesh: Mesh
    kind: str
    dof_count: int
    cell_dofs: np.ndarray
    dof_points: np.ndarray
    dirichlet_mask: np.ndarray | None = None

    @cached_property
    def _degree6_rule(self):
        """Degree-6 rule data of the mesh, computed on first use and kept.

        Per cell: the scaled weights ``(nt, nq)`` and the inverse-transpose
        Jacobian ``(nt, 2, 2)``; and the physical rule points, flattened
        to ``(nt * nq, 2)``.  Problem-free, so the load and the errors share it.
        Jacobian data is computed per cell shape and gathered by its index.
        """
        rule = RULE_DEGREE6
        jac, shape = _cell_shapes(self.mesh)
        det, inv_t = _det_inv_t(jac)
        p0 = self.mesh.vertices[self.mesh.cells[:, 0]]
        points = p0[:, None, :] + np.einsum("tab,qb->tqa", jac[shape], rule.points)
        return _scaled_weights(rule, det[shape]), inv_t[shape], points.reshape(-1, 2)


def build_space(mesh: Mesh, kind: str) -> DofSpace:
    """Build a dof space of the given kind ("p0", "p1" or "p2v")."""
    if kind not in ELEMENT_KINDS:
        raise ValueError(f"unsupported element kind {kind!r}; expected one of {ELEMENT_KINDS}")

    if kind == "p0":
        nt = mesh.num_cells
        centroids = mesh.vertices[mesh.cells].mean(axis=1)
        return DofSpace(mesh, kind, nt,
                        np.arange(nt, dtype=np.int64)[:, None], centroids)
    if kind == "p1":
        nv = mesh.num_vertices
        return DofSpace(mesh, kind, nv, mesh.cells.copy(), mesh.vertices.copy())

    nv = mesh.num_vertices
    scalar_dofs = nv + mesh.num_edges
    scalar_cell_dofs = np.hstack([mesh.cells, nv + mesh.cell_edges])
    points = np.vstack([mesh.vertices, mesh.edge_midpoints()])
    scalar_boundary = np.concatenate([mesh.boundary_vertex_flags, mesh.boundary_edge_flags])
    return DofSpace(
        mesh, kind, 2 * scalar_dofs,
        np.hstack([scalar_cell_dofs, scalar_cell_dofs + scalar_dofs]),
        points,
        dirichlet_mask=np.concatenate([scalar_boundary, scalar_boundary]),
    )


class ManufacturedProblem:
    """Smooth divergence-free benchmark displacement on the unit square.

    ``u = (sin(pi x) cos(pi y), -cos(pi x) sin(pi y))`` has ``div u = 0``,
    so the body force ``f = -div eps(u) = pi^2 u`` is independent of the
    compressibility parameter and the same forcing drives every ``lam``.
    Boundary data is the trace of ``u``.  ``displacement_and_gradient`` is
    the one definition of the field; a problem with another field overrides
    it alone.
    """

    def displacement_and_gradient(self, points: np.ndarray):
        """``u`` and its gradient tensor ``G[n, i, j] = d u_i / d x_j``.

        One evaluation of the sines and cosines serves both.
        """
        x, y = points[:, 0], points[:, 1]
        sx, cx = np.sin(np.pi * x), np.cos(np.pi * x)
        sy, cy = np.sin(np.pi * y), np.cos(np.pi * y)
        grad = np.empty((points.shape[0], 2, 2))
        grad[:, 0, 0] = np.pi * cx * cy
        grad[:, 0, 1] = -np.pi * sx * sy
        grad[:, 1, 0] = np.pi * sx * sy
        grad[:, 1, 1] = -np.pi * cx * cy
        return np.column_stack([sx * cy, -cx * sy]), grad

    def displacement(self, points: np.ndarray) -> np.ndarray:
        return self.displacement_and_gradient(points)[0]

    def body_force(self, points: np.ndarray) -> np.ndarray:
        return np.pi**2 * self.displacement(points)

    def boundary_values(self, points: np.ndarray) -> np.ndarray:
        return self.displacement(points)


def interpolate(space: DofSpace, func) -> np.ndarray:
    """Nodal interpolation at the dof points (vectors blocked by component)."""
    vals = np.asarray(func(space.dof_points), dtype=float)
    return vals.reshape(space.dof_points.shape[0], -1).T.ravel()


def _jacobians(mesh: Mesh):
    """First vertex and Jacobian ``[p1 - p0, p2 - p0]`` of every cell."""
    p0 = mesh.vertices[mesh.cells[:, 0]]
    p1 = mesh.vertices[mesh.cells[:, 1]]
    p2 = mesh.vertices[mesh.cells[:, 2]]
    jac = np.empty((mesh.num_cells, 2, 2))
    jac[:, :, 0] = p1 - p0
    jac[:, :, 1] = p2 - p0
    return p0, jac


def _cell_shapes(mesh: Mesh):
    """Distinct cell Jacobians and, per cell, the index of its own.

    Local matrices depend on a cell only through its Jacobian, so they are
    computed once per distinct Jacobian (two on the uniform mesh) and
    gathered per cell by the returned index.  Jacobians are compared
    exactly, so a mesh whose cells all differ gets one shape per cell.
    """
    _, jac = _jacobians(mesh)
    _, first, inverse = np.unique(jac.reshape(-1, 4), axis=0,
                                  return_index=True, return_inverse=True)
    return jac[first], inverse.reshape(-1)


def _det_inv_t(jac: np.ndarray):
    """Determinant and inverse transpose of a stack of 2x2 Jacobians."""
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv_t = np.empty_like(jac)
    inv_t[:, 0, 0] = jac[:, 1, 1]
    inv_t[:, 0, 1] = -jac[:, 1, 0]
    inv_t[:, 1, 0] = -jac[:, 0, 1]
    inv_t[:, 1, 1] = jac[:, 0, 0]
    inv_t /= det[:, None, None]
    return det, inv_t


def _physical_grads(jac: np.ndarray, rule: TriangleRule):
    """Physical P2 gradients at the rule points, shape (nt, nq, 6, 2)."""
    det, inv_t = _det_inv_t(jac)
    ref = p2_grads(rule.points)
    return np.einsum("tab,qib->tqia", inv_t, ref), det


def _scaled_weights(rule: TriangleRule, det: np.ndarray) -> np.ndarray:
    return rule.weights[None, :] * det[:, None]


def _scatter(vals, rows, cols, shape) -> sp.csr_array:
    # tocsr() sums duplicates and sorts the indices
    return sp.coo_array((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def _square_scatter(local, cell_dofs, n) -> sp.csr_array:
    nl = cell_dofs.shape[1]
    rows = np.repeat(cell_dofs, nl, axis=1)
    cols = np.tile(cell_dofs, (1, nl))
    return _scatter(local, rows, cols, (n, n))


def assemble_epsilon_stiffness(V: DofSpace) -> sp.csr_array:
    """Assemble the strain stiffness ``A[i, j] = (eps(phi_j), eps(phi_i))``.

    The integrand is quadratic, so the bundled degree-5 rule integrates it
    exactly.  Local blocks are mirrored before scatter, which makes the
    global matrix symmetric to the last bit.  One block is computed per
    distinct cell Jacobian.
    """
    if V.kind != "p2v":
        raise ValueError("strain stiffness requires the quadratic vector space")
    jac, shape = _cell_shapes(V.mesh)
    grads, det = _physical_grads(jac, RULE_DEGREE5)
    w = _scaled_weights(RULE_DEGREE5, det)
    gx = grads[..., 0]
    gy = grads[..., 1]

    sxx = np.einsum("tq,tqi,tqj->tij", w, gx, gx)
    syy = np.einsum("tq,tqi,tqj->tij", w, gy, gy)
    syx = np.einsum("tq,tqi,tqj->tij", w, gy, gx)

    local = np.empty((jac.shape[0], 12, 12))
    local[:, :6, :6] = sxx + 0.5 * syy
    local[:, 6:, 6:] = syy + 0.5 * sxx
    local[:, :6, 6:] = 0.5 * syx
    local[:, 6:, :6] = 0.5 * syx.transpose(0, 2, 1)
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return _square_scatter(local[shape], V.cell_dofs, V.dof_count)


def assemble_div(V: DofSpace, Q: DofSpace) -> sp.csr_array:
    """Assemble the divergence coupling ``B[k, i] = (div phi_i, psi_k)``.

    One local block is computed per distinct cell Jacobian.
    """
    if V.kind != "p2v":
        raise ValueError("divergence form requires the quadratic vector space")
    if Q.kind not in ("p0", "p1"):
        raise ValueError("pressure space must be p0 or p1")
    if Q.mesh is not V.mesh:
        raise ValueError("velocity and pressure spaces live on different meshes")

    rule = RULE_DEGREE5
    jac, shape = _cell_shapes(V.mesh)
    grads, det = _physical_grads(jac, rule)
    w = _scaled_weights(rule, det)
    psi = np.ones((rule.num_points, 1)) if Q.kind == "p0" else p1_values(rule.points)

    local = np.empty((jac.shape[0], psi.shape[1], 12))
    local[:, :, :6] = np.einsum("tq,qk,tqi->tki", w, psi, grads[..., 0])
    local[:, :, 6:] = np.einsum("tq,qk,tqi->tki", w, psi, grads[..., 1])

    nl = local.shape[1]
    rows = np.repeat(Q.cell_dofs, 12, axis=1)
    cols = np.tile(V.cell_dofs, (1, nl))
    return _scatter(local[shape], rows, cols, (Q.dof_count, V.dof_count))


def assemble_pressure_mass(Q: DofSpace) -> sp.csr_array:
    """Assemble the pressure mass matrix (diagonal for P0).

    The P1 local block is computed once per distinct cell Jacobian.
    """
    if Q.kind == "p0":
        return sp.diags_array(Q.mesh.cell_areas(), format="csr")
    if Q.kind != "p1":
        raise ValueError("pressure space must be p0 or p1")

    rule = RULE_DEGREE5
    jac, shape = _cell_shapes(Q.mesh)
    det, _ = _det_inv_t(jac)
    w = _scaled_weights(rule, det)
    psi = p1_values(rule.points)
    local = np.einsum("tq,qk,ql->tkl", w, psi, psi)
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return _square_scatter(local[shape], Q.cell_dofs, Q.dof_count)


def assemble_load(problem: ManufacturedProblem, V: DofSpace) -> np.ndarray:
    """Load vector ``F[i] = (f, phi_i)`` with the degree-6 rule.

    The body force is trigonometric, so the integral is not exact; the
    degree-6 rule keeps the consistency error far below discretization
    error on every supported level.  Its mesh data is cached on ``V``.
    """
    if V.kind != "p2v":
        raise ValueError("load assembly requires the quadratic vector space")
    w, _, points = V._degree6_rule
    f = problem.body_force(points).reshape(*w.shape, 2)
    phi = p2_values(RULE_DEGREE6.points)

    contrib = np.empty((V.mesh.num_cells, 12))
    contrib[:, :6] = np.einsum("tq,tq,qi->ti", w, f[..., 0], phi)
    contrib[:, 6:] = np.einsum("tq,tq,qi->ti", w, f[..., 1], phi)

    out = np.zeros(V.dof_count)
    np.add.at(out, V.cell_dofs, contrib)
    return out


PROJECTION_MODES = ("diagonal", "exact")
# the realization of the pressure projection that every signature defaults to
DEFAULT_PROJECTION = "diagonal"


@dataclass
class AssembledSystem:
    """Stiffness and load on the full dof set, read by ``apply_dirichlet``."""

    V: DofSpace
    A: sp.csr_array
    rhs: np.ndarray


def assemble_system(mesh: Mesh,
                    problem: ManufacturedProblem | None = None) -> AssembledSystem:
    """Assemble the strain stiffness and the load of ``problem``.

    Both are pressure-free; ``ReducedStiffness.couple`` adds a pressure space.
    """
    problem = problem if problem is not None else ManufacturedProblem()
    V = build_space(mesh, "p2v")
    return AssembledSystem(V=V, A=assemble_epsilon_stiffness(V),
                           rhs=assemble_load(problem, V))


@dataclass
class ReducedStiffness:
    """Stiffness, load and boundary lift on the Dirichlet-free velocity dofs.

    None of it depends on the pressure space, so the systems of both
    element pairs on one mesh share one: ``couple`` adds a pressure space.
    ``rhs_const`` is the load minus ``A`` applied to the lift.
    """

    V: DofSpace
    free: np.ndarray
    lift: np.ndarray
    A: sp.csr_array
    rhs_const: np.ndarray = field(repr=False)

    def couple(self, pressure_kind: str) -> ReducedSystem:
        """The reduced system with a pressure space of ``pressure_kind``
        ("p0" or "p1") on this mesh: builds the space, assembles ``B`` and
        ``MQ`` and reduces ``B`` against the free dofs and the lift.  The
        system holds this stiffness's arrays themselves, not copies."""
        Q = build_space(self.V.mesh, pressure_kind)
        B = assemble_div(self.V, Q)
        return ReducedSystem(V=self.V, free=self.free, lift=self.lift, A=self.A,
                             rhs_const=self.rhs_const, Q=Q, B=B[:, self.free].tocsr(),
                             MQ=assemble_pressure_mass(Q), _b_lift=B @ self.lift)


@dataclass
class ReducedSystem(ReducedStiffness):
    """A reduced stiffness coupled to a pressure space ``Q``.

    Carries ``A_lam = A + lam * B^T Pi B``; ``Pi`` divides by ``D``, which
    is derived from ``MQ``, or solves with ``MQ``.  The reduced right-hand
    side depends on the compressibility parameter through the lift, so it
    is exposed as ``rhs(lam)``; the lam-independent pieces are precomputed.
    """

    Q: DofSpace
    B: sp.csr_array
    MQ: sp.csr_array
    _b_lift: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.free.size

    @cached_property
    def D(self) -> np.ndarray:
        """``diag(MQ)``, computed on first use."""
        return self.MQ.diagonal()

    @cached_property
    def BT(self) -> sp.csr_array:
        """``B^T`` as CSR, computed on first use and shared by every apply."""
        return self.B.T.tocsr()

    @cached_property
    def mq_factor(self) -> Factorization:
        """Factorization of the pressure mass in the nested-dissection order
        of the pressure nodes, computed on first use."""
        order = nested_dissection(self.Q.dof_points, self.Q.mesh.h).order
        return factor_spd(self.MQ, order)

    def pressure_projection_apply(self, w: np.ndarray,
                                  projection: str = DEFAULT_PROJECTION) -> np.ndarray:
        if projection == "diagonal":
            # scale rows, so a block of columns (nq, k) is handled per column
            return (w.T / self.D).T
        if projection == "exact":
            return self.mq_factor.solve(w)
        raise ValueError(f"unknown projection mode {projection!r}; "
                         f"expected one of {PROJECTION_MODES}")

    def apply_lambda(self, lam: float, v: np.ndarray,
                     projection: str = DEFAULT_PROJECTION) -> np.ndarray:
        """Apply ``A_lam`` without forming the product."""
        if lam < 0.0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
        pv = self.pressure_projection_apply(self.B @ v, projection)
        return self.A @ v + lam * (self.BT @ pv)

    def lambda_matrix(self, lam: float,
                      projection: str = DEFAULT_PROJECTION) -> sp.csr_array:
        """Explicit sparse ``A_lam`` of the diagonal projection.

        The exact projection's ``B^T MQ^{-1} B`` is dense, so that operator
        is applied by ``apply_lambda`` alone and asking for it here raises
        ``ValueError``.
        """
        if lam < 0.0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
        if projection != "diagonal":
            raise ValueError(f"A_lam is formed for the diagonal projection only; "
                             f"apply the {projection!r} one with apply_lambda")
        scaled = sp.diags_array(1.0 / self.D) @ self.B
        return (self.A + lam * (self.BT @ scaled)).tocsr()

    def rhs(self, lam: float, projection: str = DEFAULT_PROJECTION) -> np.ndarray:
        if lam < 0.0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
        lift_term = self.BT @ self.pressure_projection_apply(self._b_lift, projection)
        return self.rhs_const - lam * lift_term

    def expand(self, x_free: np.ndarray) -> np.ndarray:
        """Recombine free-dof coefficients with the boundary lift."""
        full = self.lift.copy()
        full[self.free] = x_free
        return full


def apply_dirichlet(system: AssembledSystem,
                    problem: ManufacturedProblem) -> ReducedStiffness:
    """Eliminate boundary dofs against the interpolated boundary data.

    Boundary values are interpolated at the quadratic nodes (vertices and
    edge midpoints); the reduced operator acts on free dofs only and stays
    symmetric positive definite.
    """
    mask = system.V.dirichlet_mask
    free = np.flatnonzero(~mask)
    constrained = np.flatnonzero(mask)

    lift = np.zeros(system.V.dof_count)
    boundary_all = interpolate(system.V, problem.boundary_values)
    lift[constrained] = boundary_all[constrained]

    return ReducedStiffness(
        V=system.V,
        free=free,
        lift=lift,
        A=system.A[free][:, free].tocsr(),
        rhs_const=(system.rhs - system.A @ lift)[free],
    )


def compute_errors(u_coeffs: np.ndarray, problem: ManufacturedProblem,
                   V: DofSpace):
    """L2 and H1-seminorm errors of a coefficient vector (lift included).

    Both integrals use the degree-6 rule; returns ``(l2, h1_seminorm)``.
    The cell coefficients meet the reference P2 values and gradients in
    one matmul each, and each cell maps its reference gradients with its
    own inverse-transpose Jacobian.  The mesh data is cached on ``V``; the
    exact field and its gradient are evaluated together, once per call,
    since they belong to ``problem``.
    """
    if V.kind != "p2v":
        raise ValueError("error evaluation requires the quadratic vector space")
    rule = RULE_DEGREE6
    w, inv_t, points = V._degree6_rule
    nt, nq = w.shape
    # block-diagonal in the component: row (c, i) of a cell's 12 dofs feeds
    # column (q, c), and column (q, c, b) for the reference derivative b
    eye = np.eye(2)
    values = np.einsum("qi,cd->ciqd", p2_values(rule.points), eye).reshape(12, 2 * nq)
    grads = np.einsum("qib,cd->ciqdb", p2_grads(rule.points), eye).reshape(12, 4 * nq)
    coeffs = u_coeffs[V.cell_dofs]
    uh = (coeffs @ values).reshape(nt, nq, 2)
    guh = (coeffs @ grads).reshape(nt, 2 * nq, 2) @ inv_t.transpose(0, 2, 1)

    u, grad = problem.displacement_and_gradient(points)
    du = uh - u.reshape(nt, nq, 2)
    dg = (guh - grad.reshape(nt, 2 * nq, 2)).reshape(nt, nq, 4)
    l2 = np.sqrt(np.einsum("tq,tqc,tqc->", w, du, du))
    h1 = np.sqrt(np.einsum("tq,tqk,tqk->", w, dg, dg))
    return float(l2), float(h1)
