"""Direct sparse factorizations and small dense eigenvalue utilities.

Factorizations wrap SuperLU: the SPD path runs it in symmetric mode with a
fill-reducing symmetric ordering and checks the pivots, the indefinite path
uses threshold pivoting adequate for saddle-point matrices.  Both expose a
``solve`` that also accepts blocks of right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Largest matrix dimension the dense diagnostics (eigensolves, dense
# preconditioner matrices) accept.
_DENSE_LIMIT = 2200

# Relative pivot threshold below which an "indefinite" factorization is
# declared numerically singular.
_SINGULAR_PIVOT_RTOL = 1e-12


class NotSpdError(ValueError):
    """Raised when a claimed-SPD matrix produces a nonpositive pivot."""


class SingularMatrixError(ValueError):
    """Raised when a factorization meets a (numerically) singular matrix."""


@dataclass
class Factorization:
    """Direct factorization wrapping a SuperLU object."""

    _lu: object

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``K x = rhs``; ``rhs`` may be a vector or a dense block."""
        return self._lu.solve(np.asarray(rhs, dtype=float))


def _as_csc(matrix) -> sp.csc_array:
    if not sp.issparse(matrix):
        matrix = sp.csc_array(np.asarray(matrix, dtype=float))
    return matrix.tocsc()


def factor_spd(matrix) -> Factorization:
    """Factor a symmetric positive definite sparse matrix.

    Uses a symmetric fill-reducing ordering with no row pivoting, so the
    pivot sequence is exactly the diagonal of the triangular factor; any
    nonpositive pivot disproves positive definiteness and raises
    ``NotSpdError`` naming the offending index.
    """
    csc = _as_csc(matrix)
    if csc.shape[0] != csc.shape[1]:
        raise ValueError(f"square matrix required, got shape {csc.shape}")
    try:
        lu = splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularMatrixError(f"SPD factorization failed: {exc}") from exc
    pivots = lu.U.diagonal()
    bad = np.flatnonzero(pivots <= 0.0)
    if bad.size:
        k = int(bad[0])
        raise NotSpdError(
            f"matrix is not SPD: pivot {k} (original row {int(lu.perm_r[k])}) "
            f"is {pivots[k]:.3e}"
        )
    return Factorization(lu)


def factor_symmetric_indefinite(matrix) -> Factorization:
    """Factor a symmetric indefinite (e.g. saddle-point) sparse matrix.

    Threshold partial pivoting keeps the factorization stable for saddle
    matrices.  A vanishing pivot relative to the largest one signals a
    singular system, as happens when the constant-pressure nullspace of a
    pure-Dirichlet Stokes matrix has not been pinned.
    """
    csc = _as_csc(matrix)
    if csc.shape[0] != csc.shape[1]:
        raise ValueError(f"square matrix required, got shape {csc.shape}")
    try:
        lu = splu(csc)
    except RuntimeError as exc:
        raise SingularMatrixError(
            f"factorization failed, matrix is singular (did you forget to "
            f"remove a nullspace such as constant pressures?): {exc}"
        ) from exc
    pivots = lu.U.diagonal()
    largest = np.max(np.abs(pivots))
    if largest == 0.0 or np.min(np.abs(pivots)) <= _SINGULAR_PIVOT_RTOL * largest:
        raise SingularMatrixError(
            "matrix is numerically singular: smallest pivot "
            f"{np.min(np.abs(pivots)):.3e} vs largest {largest:.3e} "
            "(unpinned constant-pressure mode?)"
        )
    return Factorization(lu)


def dense_symmetric_generalized_eigs(K, M) -> np.ndarray:
    """All eigenvalues of ``K x = theta M x`` with ``M`` SPD, ascending."""
    K = np.asarray(K, dtype=float)
    M = np.asarray(M, dtype=float)
    if K.shape[0] > _DENSE_LIMIT:
        raise ValueError(f"dense eigensolve limited to {_DENSE_LIMIT} rows, got {K.shape[0]}")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("mass matrix of the generalized problem is not SPD") from exc
    return scipy.linalg.eigh(K, M, eigvals_only=True)


def tridiagonal_eigs(diag, offdiag) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix, ascending."""
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if diag.size == 0:
        raise ValueError("empty tridiagonal data")
    if offdiag.size != diag.size - 1:
        raise ValueError(
            f"offdiagonal length {offdiag.size} does not match diagonal length {diag.size}"
        )
    if diag.size == 1:
        return diag.copy()
    return scipy.linalg.eigh_tridiagonal(diag, offdiag, eigvals_only=True)

