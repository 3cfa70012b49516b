"""Projection preconditioner and preconditioned conjugate gradients.

The preconditioner approximating ``A_lam^{-1}`` is the convex combination

    M = lam/(1+lam) * P A^{-1} + 1/(1+lam) * A^{-1},

where ``P`` is the strain-orthogonal projection onto discretely
divergence-free fields.  ``P A^{-1} g`` is exactly the velocity block of one
Stokes saddle solve with momentum data ``g``, so the whole preconditioner is
independent of ``lam`` up to the two scalar weights: one stiffness
factorization and one saddle factorization serve every material parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import ReducedSystem
from .sparse_linalg import (_DENSE_LIMIT, Factorization,
                            dense_symmetric_generalized_eigs, factor_spd,
                            factor_symmetric_indefinite, tridiagonal_eigs)

# Relative residual below which a Krylov run has hit the noise floor.
_BREAKDOWN_RTOL = 1e-15

# A solve shorter than this many steps gets a forced rerun of
# _CONDEST_ITERATIONS steps for its condition estimate.
_CONDEST_REUSE_MIN = 10
_CONDEST_ITERATIONS = 30


class PcgConvergenceError(RuntimeError):
    """PCG hit its iteration cap; carries the partial report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class NormEquivalenceError(AssertionError):
    """A computed divergence/strain ratio violates the two-sided bound."""


@dataclass
class SolveReport:
    """Outcome of one PCG run."""

    iterations: int
    residual_history: np.ndarray
    lanczos_diag: np.ndarray
    lanczos_offdiag: np.ndarray


@dataclass(frozen=True)
class InfSupReport:
    beta_h: float
    theta_max: float


class StokesProjector:
    """Strain-orthogonal projection onto discretely divergence-free fields.

    Implemented through the saddle system ``[[A, B^T], [B, 0]]`` with one
    pressure dof pinned to zero (the constant-pressure nullspace of the
    pure-Dirichlet problem); the velocity block is unaffected by the pin.
    The factorization is computed once and reused by every application.
    """

    def __init__(self, A: sp.csr_array, B: sp.csr_array, MQ: sp.csr_array):
        self.A = A
        self.n_velocity = A.shape[1]
        self.n_pressure = B.shape[0]
        self.pinned_dof = self.n_pressure - 1
        self._mq = MQ
        keep = np.arange(self.n_pressure - 1)
        b_pinned = B[keep]
        saddle = sp.block_array([[A, b_pinned.T], [b_pinned, None]], format="csc")
        self.factorization: Factorization = factor_symmetric_indefinite(saddle)

    def _solve(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        pad = (self.n_pressure - 1,) + g.shape[1:]
        rhs = np.concatenate([g, np.zeros(pad)])
        return self.factorization.solve(rhs)

    def project_dual(self, g: np.ndarray) -> np.ndarray:
        """Velocity block of the saddle solve with momentum data ``g``.

        For ``g`` in the dual space this equals ``P A^{-1} g``; accepts a
        vector or a dense block of columns.
        """
        return self._solve(g)[: self.n_velocity]

    def project(self, w: np.ndarray) -> np.ndarray:
        """Apply the projection ``P`` to primal coefficients ``w``."""
        return self.project_dual(self.A @ w)

    def solve_with_pressure(self, g: np.ndarray):
        """Return ``(velocity, multiplier)`` with zero-mean multiplier."""
        sol = self._solve(g)
        v = sol[: self.n_velocity]
        p = np.insert(sol[self.n_velocity:], self.pinned_dof, 0.0, axis=0)
        ones = np.ones(self.n_pressure)
        p = p - ones @ (self._mq @ p)  # domain has unit measure
        return v, p


def build_projector(reduced: ReducedSystem) -> StokesProjector:
    """Stokes projector on the Dirichlet-free space of a reduced system."""
    return StokesProjector(reduced.A, reduced.B, reduced.MQ)


class Preconditioner:
    """Convex combination of the plain and the projected stiffness inverse."""

    def __init__(self, lam: float, a_factor: Factorization,
                 projector: StokesProjector):
        if lam < 0.0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
        self.lam = lam
        self.a_factor = a_factor
        self.projector = projector

    @property
    def weights(self) -> tuple[float, float]:
        """(projected, plain) weights ``lam/(1+lam)`` and ``1/(1+lam)``."""
        return self.lam / (1.0 + self.lam), 1.0 / (1.0 + self.lam)

    def apply(self, g: np.ndarray) -> np.ndarray:
        w_proj, w_plain = self.weights
        if w_proj == 0.0:
            return self.a_factor.solve(g)
        return w_proj * self.projector.project_dual(g) + w_plain * self.a_factor.solve(g)


def pcg_solve(op, rhs: np.ndarray, preconditioner=None, tol: float = 1e-6,
              max_iterations: int = 500, force_iterations: int | None = None):
    """Preconditioned conjugate gradients with Lanczos bookkeeping.

    The iteration stops on the true relative residual ``||b - A x|| / ||b||``,
    recomputed every step.

    Parameters
    ----------
    op : callable
        Application of the SPD system operator.
    rhs : array
        Right-hand side; a zero right-hand side returns immediately.
    preconditioner : Preconditioner or None
    tol : float
        Relative residual tolerance.
    force_iterations : int, optional
        Run exactly this many iterations (stopping only at the round-off
        floor), regardless of the tolerance.  Used to sharpen spectrum
        estimates.  A forced run re-orthogonalizes each residual against
        all previous ones, which keeps the Lanczos recurrence faithful past
        convergence.

    Returns
    -------
    (x, SolveReport)

    Raises
    ------
    PcgConvergenceError
        If the iteration cap is hit before the tolerance (tolerance-driven
        runs only).
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    apply_m = (lambda r: r) if preconditioner is None else preconditioner.apply

    rhs = np.asarray(rhs, dtype=float)
    norm_b = np.linalg.norm(rhs)
    x = np.zeros_like(rhs)
    if norm_b == 0.0:
        return x, SolveReport(0, np.array([0.0]), np.array([]), np.array([]))

    r = rhs.copy()
    z = apply_m(r)
    rz = float(r @ z)
    p = z.copy()

    history = [1.0]
    alphas: list[float] = []
    betas: list[float] = []
    forced = force_iterations is not None
    # (r, z, r'z) of every step so far; kept by forced runs only
    basis = [(r.copy(), z.copy(), rz)] if forced else None

    target = force_iterations if forced else max_iterations
    target = min(target, rhs.size)

    for k in range(target):
        ap = op(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise PcgConvergenceError(
                f"operator is not positive definite on the Krylov space (p'Ap = {pap:.3e})",
                SolveReport(len(alphas), np.array(history), *_lanczos(alphas, betas)))
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        alphas.append(alpha)

        z = apply_m(r)
        if forced:
            for _ in range(2):
                for r_j, z_j, rz_j in basis:
                    c = float(z_j @ r) / rz_j
                    r -= c * r_j
                    z -= c * z_j
        rz_next = float(r @ z)

        res = float(np.linalg.norm(rhs - op(x)) / norm_b)
        history.append(res)

        if ((not forced and res <= tol) or res <= _BREAKDOWN_RTOL
                or rz_next <= 0.0 or k + 1 == target):
            break

        beta = rz_next / rz
        betas.append(beta)
        rz = rz_next
        p = z + beta * p
        if forced:
            basis.append((r.copy(), z.copy(), rz))

    diag, offdiag = _lanczos(alphas, betas)
    report = SolveReport(len(alphas), np.array(history), diag, offdiag)
    if not forced and not history[-1] <= tol:
        raise PcgConvergenceError(
            f"PCG did not reach tolerance {tol:g} within {target} iterations "
            f"(last relative residual {history[-1]:.3e})", report)
    return x, report


def _lanczos(alphas, betas):
    k = len(alphas)
    diag = np.empty(k)
    offdiag = np.empty(max(k - 1, 0))
    for i in range(k):
        diag[i] = 1.0 / alphas[i]
        if i > 0:
            diag[i] += betas[i - 1] / alphas[i - 1]
        if i < k - 1:
            offdiag[i] = np.sqrt(betas[i]) / alphas[i]
    return diag, offdiag


def estimate_condition(report: SolveReport) -> float:
    """Extreme-eigenvalue ratio of the Lanczos matrix of a PCG run."""
    if report.lanczos_diag.size == 0:
        raise ValueError("report holds no Lanczos data (zero iterations?)")
    vals = tridiagonal_eigs(report.lanczos_diag, report.lanczos_offdiag)
    if vals[0] <= 0.0:
        raise ValueError(f"Lanczos matrix is not positive definite ({vals[0]:.3e})")
    return float(vals[-1] / vals[0])


def sharpened_condition_estimate(op, rhs, preconditioner,
                                 report: SolveReport | None = None) -> float:
    """Condition estimate, rerunning PCG when the solve was too short.

    A run that converged in fewer than ``_CONDEST_REUSE_MIN`` steps carries
    too small a Lanczos matrix; in that case the iteration is restarted,
    forced through up to ``_CONDEST_ITERATIONS`` re-orthogonalized steps, and
    the estimate is read off the longer recurrence.
    """
    if report is not None and report.iterations >= _CONDEST_REUSE_MIN:
        return estimate_condition(report)
    _, forced = pcg_solve(op, rhs, preconditioner,
                          force_iterations=_CONDEST_ITERATIONS)
    return estimate_condition(forced)


def measure_inf_sup(A, B, MQ) -> InfSupReport:
    """Inf-sup constant of a velocity/pressure pair by dense eigensolve.

    Solves ``B A^{-1} B^T q = theta MQ q``; the inf-sup constant is the
    square root of the smallest eigenvalue after dropping the
    constant-pressure mode (theta ~ 0 under pure Dirichlet conditions).
    """
    n = A.shape[0]
    if n > _DENSE_LIMIT:
        raise ValueError(
            f"inf-sup measurement uses a dense path limited to {_DENSE_LIMIT} "
            f"velocity dofs, got {n}")
    a_factor = factor_spd(A)
    bt = B.T.toarray() if sp.issparse(B) else np.asarray(B).T
    schur = np.asarray(B @ a_factor.solve(bt))
    schur = 0.5 * (schur + schur.T)
    mq = MQ.toarray() if sp.issparse(MQ) else np.asarray(MQ)
    vals = dense_symmetric_generalized_eigs(schur, mq)

    # drop the constant-pressure nullspace mode when present
    start = 1 if vals[0] < 1e-6 * max(vals[-1], 1.0) else 0
    beta = float(np.sqrt(vals[start]))
    if beta <= 0.0:
        raise ValueError("inf-sup constant is not positive; pair is unstable")
    return InfSupReport(beta_h=beta, theta_max=float(vals[-1]))


def verify_norm_equivalence(reduced: ReducedSystem, projector: StokesProjector,
                            beta_h: float, v: np.ndarray, slack: float = 1e-10):
    """Check ``beta_h <= ||Pi_h div v|| / ||eps(v - P v)|| <= sqrt(2)``.

    Returns the two slack values ``(dv - beta_h * e, sqrt(2) * e - dv)``;
    both must be at least ``-slack``, otherwise ``NormEquivalenceError``
    is raised.  The pressure mass is factored once per system and reused.
    """
    bv = reduced.B @ v
    dv = float(np.sqrt(bv @ reduced.mq_factor.solve(bv)))
    d = v - projector.project(v)
    e = float(np.sqrt(d @ (reduced.A @ d)))

    lower_slack = dv - beta_h * e
    upper_slack = np.sqrt(2.0) * e - dv
    if lower_slack < -slack or upper_slack < -slack:
        raise NormEquivalenceError(
            f"divergence/strain ratio violates [{beta_h:.6f}, sqrt(2)]: "
            f"dv={dv:.6e}, e={e:.6e}")
    return lower_slack, upper_slack


def dense_preconditioner_matrix(reduced: ReducedSystem, lam: float,
                                a_factor: Factorization,
                                projector: StokesProjector) -> np.ndarray:
    """The preconditioner as a dense matrix (small problems only)."""
    n = reduced.dim
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense preconditioner limited to {_DENSE_LIMIT} dofs, got {n}")
    m = Preconditioner(lam, a_factor, projector).apply(np.eye(n))
    return 0.5 * (m + m.T)


def dense_preconditioned_spectrum(reduced: ReducedSystem, lam: float,
                                  a_factor: Factorization,
                                  projector: StokesProjector,
                                  projection: str = "diagonal") -> np.ndarray:
    """Eigenvalues of the preconditioned operator ``M A_lam``, ascending.

    Uses the congruence ``eig(M A_lam) = eig(R^T A_lam R)`` with
    ``M = R R^T``, which keeps the problem symmetric.
    """
    m = dense_preconditioner_matrix(reduced, lam, a_factor, projector)
    chol = np.linalg.cholesky(m)
    a_lam = reduced.lambda_matrix(lam, projection).toarray()
    return np.linalg.eigvalsh(chol.T @ a_lam @ chol)
