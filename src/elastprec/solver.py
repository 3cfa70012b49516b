"""Projection preconditioner and preconditioned conjugate gradients.

The preconditioner approximating ``A_lam^{-1}`` is the convex combination

    M = lam/(1+lam) * P A^{-1} + 1/(1+lam) * A^{-1},

where ``P`` is the strain-orthogonal projection onto discretely
divergence-free fields.  ``P A^{-1} g`` is exactly the velocity block of one
Stokes saddle solve with momentum data ``g``, so the whole preconditioner is
independent of ``lam`` up to the two scalar weights: one stiffness
factorization and one saddle factorization serve every material parameter.
The same holds for its spectrum: ``1`` on the divergence-free fields and
``(1 + lam theta) / (1 + lam)`` elsewhere, with theta over the nonzero
eigenvalues of the lam-free pencil ``B A^{-1} B^T q = theta Pi^{-1} q``.
``schur_pencil_bounds`` reads both ends of that spectrum off one Lanczos
run in the pressure space, one stiffness solve per step.

PCG needs the saddle solve only once.  ``A_lam - A = lam B^T Pi B`` maps
into the range of ``B^T``, and ``P A^{-1} B^T = 0`` (a saddle solve with
momentum ``B^T q`` returns zero velocity; the pinned pressure does not
change that, because ``B^T 1 = 0``).  So ``P A^{-1} A_lam = P`` for either
pressure projection ``Pi`` and every lam, and with ``w = lam/(1+lam)``

    M A_lam p = w P p + (1 - w) A^{-1} (A_lam p),    P M A_lam p = P p.

``pcg_solve`` therefore carries ``P z`` and ``P p`` by the recurrences of
``z`` and ``p``: each step makes one stiffness back-substitution, and the
saddle is solved once, for the initial residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .fem import DEFAULT_PROJECTION, ReducedSystem
from .mesh import NestedDissection
from .sparse_linalg import (Factorization, factor_symmetric_indefinite,
                            saddle_order)

# Relative residual of the Ritz pair at which a Schur-pencil run stops, and
# the seed of its standard normal start vector (so reruns repeat bit for bit).
_PENCIL_TOL = 1e-8
_PENCIL_SEED = 0
# Lanczos steps after which a Schur-pencil run gives up.  The run's basis, one
# pressure vector per step, is one array of min(cap, n - 1) rows allocated up
# front, of which only the rows written are committed: at L7 it reserves 262 MB
# of address space for p2p0 (32,768 pressures) and 133 MB for p2p1 (16,641).
_PENCIL_MAX_STEPS = 1000
# PCG steps after which a run gives up.
_PCG_MAX_ITERATIONS = 500
# How far below zero either side of the norm equivalence may fall.
_NORM_SLACK = 1e-10

# Largest dimension the dense preconditioner diagnostics accept.
_DENSE_LIMIT = 2200


class PcgConvergenceError(RuntimeError):
    """PCG hit its iteration cap or broke down; carries the partial report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class SpectrumError(ValueError):
    """The Schur pencil behind the condition numbers and the inf-sup
    constant has no positive spectrum, or its eigensolve did not converge."""


class NormEquivalenceError(AssertionError):
    """A computed divergence/strain ratio violates the two-sided bound."""


@dataclass
class SolveReport:
    """Outcome of one PCG run."""

    iterations: int
    residual_history: np.ndarray


@dataclass(frozen=True)
class PencilBounds:
    """Extreme nonzero Schur-pencil eigenvalues read off one Lanczos run.

    ``theta_max`` is ``None`` where the run was not asked for it; ``steps``
    is the run's Lanczos steps, each one ``A`` solve.
    """

    theta_min: float
    theta_max: float | None
    steps: int


class StokesProjector:
    """Strain-orthogonal projection onto discretely divergence-free fields.

    Implemented through the saddle system ``[[A, B^T], [B, 0]]`` with one
    pressure dof pinned to zero (the constant-pressure nullspace of the
    pure-Dirichlet problem); the velocity block is unaffected by the pin.
    The saddle is factored once, and reused by every application, in the
    order of ``saddle_order``: the velocities in ``dissection.dof_order``,
    the order ``A`` is factored in (``dissection`` is the nested dissection
    of the velocity nodes), and each pressure inside one of its subtrees.
    """

    def __init__(self, A: sp.csr_array, B: sp.csr_array,
                 dissection: NestedDissection):
        self.A = A
        self.n_velocity = A.shape[1]
        self.n_pressure = B.shape[0]
        b_pinned = B[:-1]
        saddle = sp.block_array([[A, b_pinned.T], [b_pinned, None]], format="csc")
        self.factorization: Factorization = factor_symmetric_indefinite(
            saddle, saddle_order(b_pinned, dissection))

    def project_dual(self, g: np.ndarray) -> np.ndarray:
        """Velocity block of the saddle solve with momentum data ``g``.

        For ``g`` in the dual space this equals ``P A^{-1} g``; accepts a
        vector or a dense block of columns.
        """
        g = np.asarray(g, dtype=float)
        pad = (self.n_pressure - 1,) + g.shape[1:]
        rhs = np.concatenate([g, np.zeros(pad)])
        return self.factorization.solve(rhs)[: self.n_velocity]

    def project(self, w: np.ndarray) -> np.ndarray:
        """Apply the projection ``P`` to primal coefficients ``w``."""
        return self.project_dual(self.A @ w)


def build_projector(reduced: ReducedSystem,
                    dissection: NestedDissection) -> StokesProjector:
    """Stokes projector on the Dirichlet-free space of a reduced system.

    ``dissection`` is the nested dissection of the free velocity nodes,
    whose dof order ``reduced.A`` is factored in; the saddle keeps it.
    """
    return StokesProjector(reduced.A, reduced.B, dissection)


class Preconditioner:
    """Convex combination of the plain and the projected stiffness inverse.

    ``apply`` makes one saddle and one stiffness back-substitution.  On the
    image of ``A_lam`` it acts as ``M A_lam p = w P p + (1 - w) A^{-1} A_lam p``
    with ``w = projected_weight``, because ``P A^{-1} A_lam = P`` (see the
    module docstring); ``pcg_solve`` applies it that way, from ``P p`` and
    ``A_lam p``, with the stiffness factor alone.
    """

    def __init__(self, lam: float, a_factor: Factorization,
                 projector: StokesProjector):
        if lam < 0.0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
        self.a_factor = a_factor
        self.projector = projector
        self.projected_weight = lam / (1.0 + lam)
        self.plain_weight = 1.0 / (1.0 + lam)

    def apply(self, g: np.ndarray) -> np.ndarray:
        return (self.projected_weight * self.projector.project_dual(g)
                + self.plain_weight * self.a_factor.solve(g))


def pcg_solve(op, rhs: np.ndarray, preconditioner, tol: float = 1e-6):
    """Conjugate gradients preconditioned with ``M`` of ``Preconditioner``.

    The iteration stops on the true relative residual ``||b - A x|| / ||b||``,
    recomputed every step.  ``z = M r`` and ``P z`` are updated by
    ``M A_lam p = w P p + (1 - w) A^{-1} (A_lam p)`` and ``P M A_lam p = P p``
    (see the module docstring), so a run of ``k`` steps makes one saddle
    solve and ``k + 1`` stiffness back-substitutions.  An ``op`` that is not
    ``A`` plus a term in the range of ``B^T`` breaks that identity; the run
    then converges slowly or raises, but never stops early, because the
    stopping test reads only the true residual.

    Parameters
    ----------
    op : callable
        Application of the SPD system operator ``A_lam``.
    rhs : array
        Right-hand side; a zero right-hand side returns immediately.
    preconditioner : Preconditioner
        Its weights, ``projector`` and ``a_factor`` are read.
    tol : float
        Relative residual tolerance.

    Returns
    -------
    (x, SolveReport)

    Raises
    ------
    PcgConvergenceError
        If ``_PCG_MAX_ITERATIONS`` steps (or as many as ``rhs`` has
        entries) do not reach the tolerance, if ``p'Ap`` or
        ``r'z`` is not positive, or at the first step whose ``p'Ap``, ``r'z``
        or residual is not finite.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")

    rhs = np.asarray(rhs, dtype=float)
    norm_b = np.linalg.norm(rhs)
    x = np.zeros_like(rhs)
    if norm_b == 0.0:
        return x, SolveReport(0, np.array([0.0]))

    history = [1.0]

    def failure(message):
        return PcgConvergenceError(message, SolveReport(len(history) - 1,
                                                        np.array(history)))

    w, w_plain = preconditioner.projected_weight, preconditioner.plain_weight
    a_solve = preconditioner.a_factor.solve
    r = rhs.copy()
    z_hat = preconditioner.projector.project_dual(r)
    z = w * z_hat + w_plain * a_solve(r)
    rz = float(r @ z)
    p, p_hat = z.copy(), z_hat.copy()
    target = min(_PCG_MAX_ITERATIONS, rhs.size)

    for k in range(target):
        ap = op(p)
        pap = float(p @ ap)
        if not pap > 0.0:
            what = ("operator is not positive definite on the Krylov space"
                    if math.isfinite(pap) else "non-finite value")
            raise failure(f"{what} at PCG step {k + 1} (p'Ap = {pap:.3e})")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap

        z -= alpha * (w * p_hat + w_plain * a_solve(ap))
        z_hat -= alpha * p_hat
        rz_next = float(r @ z)

        res = float(np.linalg.norm(rhs - op(x)) / norm_b)
        history.append(res)
        if not (math.isfinite(rz_next) and math.isfinite(res)):
            raise failure(f"non-finite value at PCG step {k + 1} "
                          f"(r'z = {rz_next:.3e}, residual {res:.3e})")
        if res <= tol:
            break
        if rz_next <= 0.0:
            raise failure(f"preconditioner is not positive definite on the Krylov "
                          f"space at PCG step {k + 1} (r'z = {rz_next:.3e}, "
                          f"residual {res:.3e})")

        beta = rz_next / rz
        p = z + beta * p
        p_hat = z_hat + beta * p_hat
        rz = rz_next

    if not history[-1] <= tol:
        raise failure(f"PCG did not reach tolerance {tol:g} within {target} iterations "
                      f"(last relative residual {history[-1]:.3e})")
    return x, SolveReport(len(history) - 1, np.array(history))


def schur_pencil_bounds(reduced: ReducedSystem, a_factor: Factorization,
                        projection: str = DEFAULT_PROJECTION,
                        largest: bool = False) -> PencilBounds:
    """Extreme nonzero eigenvalues of the pencil ``B A^{-1} B^T q = theta W q``.

    ``W`` is the inverse of the pressure projection ``Pi`` of ``projection``:
    ``MQ`` for ``"exact"``, ``D = diag(MQ)`` for ``"diagonal"``.  One Lanczos
    run on ``q -> Pi B A^{-1} B^T q`` in the ``W`` inner product returns
    theta_min, and theta_max too where ``largest``; each step makes one
    ``A`` solve through ``a_factor``, the factor of ``reduced.A``.  The run
    starts from a seeded standard normal vector (so reruns repeat bit for
    bit) and keeps its whole basis, reorthogonalized twice per step.  It
    reads the Ritz residual ``beta_j |s_j|`` of each asked end at every
    step and stops once each is at most ``_PENCIL_TOL`` times its Ritz
    value, or where the Krylov space is exhausted (the Ritz values are then
    exact).

    ``B^T 1 = 0``, so the constant pressure is an eigenvector with theta 0,
    and the operator maps into its ``W``-orthogonal complement.  Rounding
    brings it back, and Lanczos would amplify it, so the start vector and
    every reorthogonalization pass drop their ``W``-component along it.

    Raises ``SpectrumError`` if the run meets a non-finite value, does not
    converge within ``_PENCIL_MAX_STEPS`` steps, or theta_min is not
    positive (an unstable pair).
    """
    if projection == "exact":
        mq = reduced.MQ

        def weigh(q):
            return mq @ q
    else:
        d = reduced.D

        def weigh(q):
            return d * q
    n = reduced.B.shape[0]
    w_one = weigh(np.ones(n))
    mass = float(w_one.sum())
    max_steps = _PENCIL_MAX_STEPS
    # the W-orthogonal complement of the constant has n - 1 dimensions
    basis = np.empty((min(max_steps, n - 1), n))
    alphas, betas = np.empty(max_steps), np.empty(max_steps)
    ends = (0, -1) if largest else (0,)
    found = {}      # end -> its Ritz value, once converged

    u = np.random.default_rng(_PENCIL_SEED).standard_normal(n)
    u -= (w_one @ u) / mass
    beta = math.sqrt(u @ weigh(u))
    for k in range(basis.shape[0]):
        basis[k] = u / beta
        u = reduced.pressure_projection_apply(
            reduced.B @ a_factor.solve(reduced.BT @ basis[k]), projection)
        alpha = 0.0
        for _ in range(2):
            h = basis[:k + 1] @ weigh(u)
            u -= h @ basis[:k + 1]
            u -= (w_one @ u) / mass
            alpha += h[k]
        beta = math.sqrt(u @ weigh(u))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise SpectrumError(f"Schur pencil ({projection} projection) met a "
                                f"non-finite value at Lanczos step {k + 1}")
        alphas[k], betas[k] = alpha, beta
        exact = beta == 0.0 or k + 1 == n - 1
        worst = 0.0
        for end in ends:
            if end in found:
                continue
            index = end % (k + 1)
            theta, s = eigh_tridiagonal(alphas[:k + 1], betas[:k], select="i",
                                        select_range=(index, index),
                                        check_finite=False)
            residual = beta * abs(s[-1, 0])
            if exact or residual <= _PENCIL_TOL * abs(theta[0]):
                found[end] = float(theta[0])
            else:
                worst = max(worst, residual)
        if len(found) == len(ends):
            break
    else:
        raise SpectrumError(f"Schur pencil ({projection} projection) did not "
                            f"converge in {max_steps} Lanczos steps (Ritz "
                            f"residual {worst:.3e})")
    if not found[0] > 0.0:
        raise SpectrumError(f"Schur pencil has a nonpositive eigenvalue "
                            f"{found[0]:.3e}; the pair is unstable")
    return PencilBounds(theta_min=found[0], theta_max=found.get(-1), steps=k + 1)


def verify_norm_equivalence(reduced: ReducedSystem, projector: StokesProjector,
                            beta_h: float, v: np.ndarray):
    """Check ``beta_h <= ||Pi_h div v|| / ||eps(v - P v)|| <= sqrt(2)``.

    ``beta_h`` is the inf-sup constant, the square root of theta_min of
    ``schur_pencil_bounds`` with the exact projection.  Returns the two
    slack values ``(dv - beta_h * e, sqrt(2) * e - dv)``; both must be at
    least ``-_NORM_SLACK``, otherwise ``NormEquivalenceError`` is raised.
    The pressure mass is factored once per system and reused.
    """
    bv = reduced.B @ v
    dv = float(np.sqrt(bv @ reduced.mq_factor.solve(bv)))
    d = v - projector.project(v)
    e = float(np.sqrt(d @ (reduced.A @ d)))

    lower_slack = dv - beta_h * e
    upper_slack = np.sqrt(2.0) * e - dv
    if lower_slack < -_NORM_SLACK or upper_slack < -_NORM_SLACK:
        raise NormEquivalenceError(
            f"divergence/strain ratio violates [{beta_h:.6f}, sqrt(2)]: "
            f"dv={dv:.6e}, e={e:.6e}")
    return lower_slack, upper_slack


def dense_preconditioner_matrix(lam: float, a_factor: Factorization,
                                projector: StokesProjector) -> np.ndarray:
    """The preconditioner as a dense matrix of ``A``'s size (small problems only)."""
    n = projector.n_velocity
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense preconditioner limited to {_DENSE_LIMIT} dofs, got {n}")
    m = Preconditioner(lam, a_factor, projector).apply(np.eye(n))
    return 0.5 * (m + m.T)


def dense_preconditioned_spectrum(reduced: ReducedSystem, lam: float,
                                  a_factor: Factorization,
                                  projector: StokesProjector,
                                  projection: str = DEFAULT_PROJECTION) -> np.ndarray:
    """Eigenvalues of the preconditioned operator ``M A_lam``, ascending.

    Uses the congruence ``eig(M A_lam) = eig(R^T A_lam R)`` with
    ``M = R R^T``, which keeps the problem symmetric.  ``A_lam`` is
    ``apply_lambda`` of the identity.
    """
    m = dense_preconditioner_matrix(lam, a_factor, projector)
    chol = np.linalg.cholesky(m)
    a_lam = reduced.apply_lambda(lam, np.eye(reduced.dim), projection)
    return np.linalg.eigvalsh(chol.T @ a_lam @ chol)
