"""Finite-element spaces and assembly for the elasticity/Stokes forms.

Velocity fields live in a continuous piecewise-quadratic vector space (P2),
the auxiliary pressure in piecewise constants (P0) or continuous piecewise
linears (P1).  Assembled operators:

* ``A``  -- strain stiffness, ``(eps(u), eps(v))``
* ``B``  -- divergence coupling, ``(div v, q)``
* ``MQ`` -- pressure mass matrix
* ``D``  -- diagonal realization of the pressure projection: ``MQ`` itself
  for P0 (already diagonal), ``diag(MQ)`` for P1

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

from .mesh import Mesh
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
    carries the x-component and ``num_scalar_dofs + s`` the y-component.
    ``dirichlet_mask`` flags dofs attached to boundary vertices/edges and is
    populated for vector spaces only (pressures carry no constraints).
    """

    mesh: Mesh
    kind: str
    components: int
    num_scalar_dofs: int
    dof_count: int
    cell_dofs: np.ndarray
    dof_points: np.ndarray
    dirichlet_mask: np.ndarray | None = None


def build_space(mesh: Mesh, kind: str) -> DofSpace:
    """Build a dof space of the given kind ("p0", "p1" or "p2v")."""
    if kind not in ELEMENT_KINDS:
        raise ValueError(f"unsupported element kind {kind!r}; expected one of {ELEMENT_KINDS}")

    if kind == "p0":
        nt = mesh.num_cells
        centroids = mesh.vertices[mesh.cells].mean(axis=1)
        return DofSpace(mesh, kind, 1, nt, nt,
                        np.arange(nt, dtype=np.int64)[:, None], centroids)
    if kind == "p1":
        nv = mesh.num_vertices
        return DofSpace(mesh, kind, 1, nv, nv, mesh.cells.copy(), mesh.vertices.copy())

    nv = mesh.num_vertices
    scalar_dofs = nv + mesh.num_edges
    scalar_cell_dofs = np.hstack([mesh.cells, nv + mesh.cell_edges])
    points = np.vstack([mesh.vertices, mesh.edge_midpoints()])
    scalar_boundary = np.concatenate([mesh.boundary_vertex_flags, mesh.boundary_edge_flags])
    return DofSpace(
        mesh, kind, 2, scalar_dofs, 2 * scalar_dofs,
        np.hstack([scalar_cell_dofs, scalar_cell_dofs + scalar_dofs]),
        points,
        dirichlet_mask=np.concatenate([scalar_boundary, scalar_boundary]),
    )


class ManufacturedProblem:
    """Smooth divergence-free benchmark displacement on the unit square.

    ``u = (sin(pi x) cos(pi y), -cos(pi x) sin(pi y))`` has ``div u = 0``,
    so the body force ``f = -div eps(u) = pi^2 u`` is independent of the
    compressibility parameter and the same forcing drives every ``lam``.
    Boundary data is the trace of ``u``.
    """

    def displacement(self, points: np.ndarray) -> np.ndarray:
        x, y = points[:, 0], points[:, 1]
        return np.column_stack([
            np.sin(np.pi * x) * np.cos(np.pi * y),
            -np.cos(np.pi * x) * np.sin(np.pi * y),
        ])

    def displacement_gradient(self, points: np.ndarray) -> np.ndarray:
        """Gradient tensor ``G[n, i, j] = d u_i / d x_j``."""
        x, y = points[:, 0], points[:, 1]
        sx, cx = np.sin(np.pi * x), np.cos(np.pi * x)
        sy, cy = np.sin(np.pi * y), np.cos(np.pi * y)
        grad = np.empty((points.shape[0], 2, 2))
        grad[:, 0, 0] = np.pi * cx * cy
        grad[:, 0, 1] = -np.pi * sx * sy
        grad[:, 1, 0] = np.pi * sx * sy
        grad[:, 1, 1] = -np.pi * cx * cy
        return grad

    def body_force(self, points: np.ndarray) -> np.ndarray:
        return np.pi**2 * self.displacement(points)

    def boundary_values(self, points: np.ndarray) -> np.ndarray:
        return self.displacement(points)


def interpolate(space: DofSpace, func) -> np.ndarray:
    """Nodal interpolation: evaluate ``func`` at the dof points."""
    vals = np.asarray(func(space.dof_points))
    if space.components == 1:
        return vals.reshape(-1).astype(float)
    return np.concatenate([vals[:, 0], vals[:, 1]])


def _geometry(mesh: Mesh):
    p0 = mesh.vertices[mesh.cells[:, 0]]
    p1 = mesh.vertices[mesh.cells[:, 1]]
    p2 = mesh.vertices[mesh.cells[:, 2]]
    jac = np.empty((mesh.num_cells, 2, 2))
    jac[:, :, 0] = p1 - p0
    jac[:, :, 1] = p2 - p0
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv_t = np.empty_like(jac)
    inv_t[:, 0, 0] = jac[:, 1, 1]
    inv_t[:, 0, 1] = -jac[:, 1, 0]
    inv_t[:, 1, 0] = -jac[:, 0, 1]
    inv_t[:, 1, 1] = jac[:, 0, 0]
    inv_t /= det[:, None, None]
    return p0, jac, det, inv_t


def _physical_grads(mesh: Mesh, rule: TriangleRule):
    """Physical P2 gradients at the rule points, shape (nt, nq, 6, 2)."""
    _, _, det, inv_t = _geometry(mesh)
    ref = p2_grads(rule.points)
    return np.einsum("tab,qib->tqia", inv_t, ref), det


def _scaled_weights(rule: TriangleRule, det: np.ndarray) -> np.ndarray:
    return rule.weights[None, :] * det[:, None]


def _scatter(vals, rows, cols, shape) -> sp.csr_array:
    mat = sp.coo_array((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    out = mat.tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def _square_scatter(local, cell_dofs, n) -> sp.csr_array:
    nl = cell_dofs.shape[1]
    rows = np.repeat(cell_dofs, nl, axis=1)
    cols = np.tile(cell_dofs, (1, nl))
    return _scatter(local, rows, cols, (n, n))


def assemble_epsilon_stiffness(V: DofSpace) -> sp.csr_array:
    """Assemble the strain stiffness ``A[i, j] = (eps(phi_j), eps(phi_i))``.

    The integrand is quadratic, so the bundled degree-5 rule integrates it
    exactly.  Local blocks are mirrored before scatter, which makes the
    global matrix symmetric to the last bit.
    """
    if V.kind != "p2v":
        raise ValueError("strain stiffness requires the quadratic vector space")
    grads, det = _physical_grads(V.mesh, RULE_DEGREE5)
    w = _scaled_weights(RULE_DEGREE5, det)
    gx = grads[..., 0]
    gy = grads[..., 1]

    sxx = np.einsum("tq,tqi,tqj->tij", w, gx, gx)
    syy = np.einsum("tq,tqi,tqj->tij", w, gy, gy)
    syx = np.einsum("tq,tqi,tqj->tij", w, gy, gx)

    nt = V.mesh.num_cells
    local = np.empty((nt, 12, 12))
    local[:, :6, :6] = sxx + 0.5 * syy
    local[:, 6:, 6:] = syy + 0.5 * sxx
    local[:, :6, 6:] = 0.5 * syx
    local[:, 6:, :6] = 0.5 * syx.transpose(0, 2, 1)
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return _square_scatter(local, V.cell_dofs, V.dof_count)


def assemble_div(V: DofSpace, Q: DofSpace) -> sp.csr_array:
    """Assemble the divergence coupling ``B[k, i] = (div phi_i, psi_k)``."""
    if V.kind != "p2v":
        raise ValueError("divergence form requires the quadratic vector space")
    if Q.kind not in ("p0", "p1"):
        raise ValueError("pressure space must be p0 or p1")
    if Q.mesh is not V.mesh:
        raise ValueError("velocity and pressure spaces live on different meshes")

    rule = RULE_DEGREE5
    grads, det = _physical_grads(V.mesh, rule)
    w = _scaled_weights(rule, det)
    psi = np.ones((rule.num_points, 1)) if Q.kind == "p0" else p1_values(rule.points)

    local = np.empty((V.mesh.num_cells, psi.shape[1], 12))
    local[:, :, :6] = np.einsum("tq,qk,tqi->tki", w, psi, grads[..., 0])
    local[:, :, 6:] = np.einsum("tq,qk,tqi->tki", w, psi, grads[..., 1])

    nl = local.shape[1]
    rows = np.repeat(Q.cell_dofs, 12, axis=1)
    cols = np.tile(V.cell_dofs, (1, nl))
    return _scatter(local, rows, cols, (Q.dof_count, V.dof_count))


def assemble_pressure_mass(Q: DofSpace):
    """Assemble the pressure mass matrix and its diagonal surrogate.

    Returns
    -------
    (MQ, D)
        ``MQ`` is the pressure mass matrix.  ``D`` holds the diagonal used
        to apply the pressure projection: for P0 the mass matrix is already
        diagonal and ``D`` equals it exactly; for P1 ``D = diag(MQ)``.
    """
    if Q.kind == "p0":
        areas = Q.mesh.cell_areas()
        mq = sp.diags_array(areas, format="csr")
        return mq, areas
    if Q.kind != "p1":
        raise ValueError("pressure space must be p0 or p1")

    rule = RULE_DEGREE5
    _, _, det, _ = _geometry(Q.mesh)
    w = _scaled_weights(rule, det)
    psi = p1_values(rule.points)
    local = np.einsum("tq,qk,ql->tkl", w, psi, psi)
    local = 0.5 * (local + local.transpose(0, 2, 1))
    mq = _square_scatter(local, Q.cell_dofs, Q.dof_count)
    return mq, mq.diagonal().copy()


def assemble_load(problem: ManufacturedProblem, V: DofSpace) -> np.ndarray:
    """Load vector ``F[i] = (f, phi_i)`` with the degree-6 rule.

    The body force is trigonometric, so the integral is not exact; the
    degree-6 rule keeps the consistency error far below discretization
    error on every supported level.
    """
    if V.kind != "p2v":
        raise ValueError("load assembly requires the quadratic vector space")
    rule = RULE_DEGREE6
    p0, jac, det, _ = _geometry(V.mesh)
    w = _scaled_weights(rule, det)
    phys = p0[:, None, :] + np.einsum("tab,qb->tqa", jac, rule.points)
    f = problem.body_force(phys.reshape(-1, 2)).reshape(V.mesh.num_cells, rule.num_points, 2)
    phi = p2_values(rule.points)

    contrib = np.empty((V.mesh.num_cells, 12))
    contrib[:, :6] = np.einsum("tq,tq,qi->ti", w, f[..., 0], phi)
    contrib[:, 6:] = np.einsum("tq,tq,qi->ti", w, f[..., 1], phi)

    out = np.zeros(V.dof_count)
    np.add.at(out, V.cell_dofs, contrib)
    return out


PROJECTION_MODES = ("diagonal", "exact")


class _LambdaOperator:
    """``A_lam = A + lam * B^T Pi B`` on the operators ``A``, ``B``, ``MQ``, ``D``."""

    @cached_property
    def mq_factor(self) -> Factorization:
        """Factorization of the pressure mass, computed on first use."""
        return factor_spd(self.MQ)

    def pressure_projection_apply(self, w: np.ndarray,
                                  projection: str = "diagonal") -> np.ndarray:
        if projection == "diagonal":
            # scale rows, so a block of columns (nq, k) is handled per column
            return (w.T / self.D).T
        if projection == "exact":
            return self.mq_factor.solve(w)
        raise ValueError(f"unknown projection mode {projection!r}; "
                         f"expected one of {PROJECTION_MODES}")

    def apply_lambda(self, lam: float, v: np.ndarray,
                     projection: str = "diagonal") -> np.ndarray:
        """Apply ``A_lam`` without forming the product."""
        if lam < 0.0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
        av = self.A @ v
        if lam == 0.0:
            return av
        return av + lam * (self.B.T @ self.pressure_projection_apply(self.B @ v, projection))

    def lambda_matrix(self, lam: float,
                      projection: str = "diagonal") -> sp.csr_array:
        """Explicit sparse ``A_lam`` (only needed for direct factorization).

        With ``projection="exact"`` the triple product fills in; that path is
        meant for small dense diagnostics only.
        """
        if lam < 0.0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
        if projection == "diagonal":
            scaled = sp.diags_array(1.0 / self.D) @ self.B
        else:
            scaled = sp.csr_array(
                self.pressure_projection_apply(self.B.toarray(), projection))
        out = (self.A + lam * (self.B.T @ scaled)).tocsr()
        out.sum_duplicates()
        out.sort_indices()
        return out


@dataclass
class AssembledSystem(_LambdaOperator):
    """All operators of the discretized problem on the full dof set."""

    V: DofSpace
    Q: DofSpace
    A: sp.csr_array
    B: sp.csr_array
    MQ: sp.csr_array
    D: np.ndarray
    rhs: np.ndarray


def assemble_system(mesh: Mesh, pressure_kind: str = "p0",
                    problem: ManufacturedProblem | None = None) -> AssembledSystem:
    """Assemble stiffness, divergence, pressure mass and load in one go."""
    problem = problem if problem is not None else ManufacturedProblem()
    V = build_space(mesh, "p2v")
    Q = build_space(mesh, pressure_kind)
    A = assemble_epsilon_stiffness(V)
    B = assemble_div(V, Q)
    MQ, D = assemble_pressure_mass(Q)
    rhs = assemble_load(problem, V)
    return AssembledSystem(V=V, Q=Q, A=A, B=B, MQ=MQ, D=D, rhs=rhs)


@dataclass
class ReducedSystem(_LambdaOperator):
    """System restricted to the Dirichlet-free dofs, with boundary lift.

    The reduced right-hand side depends on the compressibility parameter
    through the lift, so it is exposed as ``rhs(lam)``; the lam-independent
    pieces are precomputed.
    """

    V: DofSpace
    Q: DofSpace
    free: np.ndarray
    lift: np.ndarray
    A: sp.csr_array
    B: sp.csr_array
    MQ: sp.csr_array
    D: np.ndarray
    _rhs_const: np.ndarray = field(repr=False)
    _b_lift: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.free.size

    def rhs(self, lam: float, projection: str = "diagonal") -> np.ndarray:
        if lam < 0.0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
        if lam == 0.0:
            return self._rhs_const.copy()
        lift_term = self.B.T @ self.pressure_projection_apply(self._b_lift, projection)
        return self._rhs_const - lam * lift_term

    def expand(self, x_free: np.ndarray) -> np.ndarray:
        """Recombine free-dof coefficients with the boundary lift."""
        full = self.lift.copy()
        full[self.free] = x_free
        return full


def apply_dirichlet(system: AssembledSystem,
                    problem: ManufacturedProblem) -> ReducedSystem:
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

    return ReducedSystem(
        V=system.V,
        Q=system.Q,
        free=free,
        lift=lift,
        A=system.A[free][:, free].tocsr(),
        B=system.B[:, free].tocsr(),
        MQ=system.MQ,
        D=system.D,
        _rhs_const=(system.rhs - system.A @ lift)[free],
        _b_lift=system.B @ lift,
    )


def compute_errors(u_coeffs: np.ndarray, problem: ManufacturedProblem,
                   V: DofSpace):
    """L2 and H1-seminorm errors of a coefficient vector (lift included).

    Both integrals use the degree-6 rule; returns ``(l2, h1_seminorm)``.
    """
    if V.kind != "p2v":
        raise ValueError("error evaluation requires the quadratic vector space")
    rule = RULE_DEGREE6
    p0, jac, det, _ = _geometry(V.mesh)
    grads, _ = _physical_grads(V.mesh, rule)
    w = _scaled_weights(rule, det)
    phi = p2_values(rule.points)

    cx = u_coeffs[V.cell_dofs[:, :6]]
    cy = u_coeffs[V.cell_dofs[:, 6:]]
    uh = np.stack([
        np.einsum("ti,qi->tq", cx, phi),
        np.einsum("ti,qi->tq", cy, phi),
    ], axis=-1)
    guh = np.stack([
        np.einsum("ti,tqia->tqa", cx, grads),
        np.einsum("ti,tqia->tqa", cy, grads),
    ], axis=-2)

    phys = p0[:, None, :] + np.einsum("tab,qb->tqa", jac, rule.points)
    flat = phys.reshape(-1, 2)
    shape = (V.mesh.num_cells, rule.num_points)
    u = problem.displacement(flat).reshape(shape + (2,))
    gu = problem.displacement_gradient(flat).reshape(shape + (2, 2))

    l2 = np.sqrt(np.sum(w * np.sum((uh - u) ** 2, axis=-1)))
    h1 = np.sqrt(np.sum(w * np.sum((guh - gu) ** 2, axis=(-2, -1))))
    return l2, h1
