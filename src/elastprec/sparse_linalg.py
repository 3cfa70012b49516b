"""Direct sparse factorizations.

Factorizations wrap SuperLU in symmetric mode and share one body; they
differ only in the pivot threshold and the pivot check.  SuperLU permutes
no column: each matrix is factored in the elimination order it is given.
Every order comes from a geometric nested dissection of the mesh
(``mesh.nested_dissection``).  The SPD path factors the stiffness matrix in
its dissection's dof order and the pressure mass in the dissection of the
pressure nodes.  The saddle path factors ``[[A, B^T], [B, 0]]`` in a
constrained order built from the dissection of the velocity nodes: the
velocities keep its dof order, and each pressure is eliminated inside the
smallest dissection subtree that holds at least two of its velocity nodes,
right after its last-eliminated neighbour there, so by the time a zero
diagonal entry of the pressure block is reached it has filled in, and a
separator's dense block is not widened by the pressures of the cells that
merely touch it.  Its diagonal pivot threshold (``1e-4``) keeps the
diagonal pivots (and the factor symmetric) unless one is tiny against its
column.  Both expose a ``solve`` that also accepts blocks of right-hand
sides.

Both pivot checks read the pivots off the diagonal of ``U``.  SciPy gives
them only through CSC copies of ``L`` and ``U``, which it builds on the
first read and would keep for the factor's lifetime, about doubling its
memory; the check empties both copies once it has the pivots, so a factor
holds only SuperLU's own storage (``solve`` never reads the copies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .mesh import NestedDissection

# Relative pivot threshold below which an "indefinite" factorization is
# declared numerically singular.
_SINGULAR_PIVOT_RTOL = 1e-12

# SuperLU keeps a diagonal pivot of the saddle factorization unless it is
# smaller than this fraction of the largest entry of its column.  A larger
# threshold (0.01) swaps rows on the P2-P1 saddle and adds fill.
_SADDLE_PIVOT_THRESH = 1e-4

# A pressure is eliminated inside a dissection subtree only if at least this
# many of its velocity nodes lie there.  Two P2-P0 cells that share a
# diagonal can have only its midpoint inside their leaf, where their rows of
# B are b and -b: with a minimum of 1 the second pressure's pivot is exactly
# zero.
_SADDLE_MIN_NODES = 2


class NotSpdError(ValueError):
    """Raised when a claimed-SPD matrix produces a nonpositive pivot."""


class SingularMatrixError(ValueError):
    """Raised when a factorization meets a (numerically) singular matrix."""


@dataclass
class Factorization:
    """Direct factorization wrapping a SuperLU object.

    ``order`` is the elimination order the matrix was permuted by before
    SuperLU saw it (``K[order][:, order]``).
    """

    _lu: object
    order: np.ndarray

    @property
    def nnz(self) -> int:
        """Fill of the factor: nonzeros of L and U together."""
        return int(self._lu.nnz)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``K x = rhs``; ``rhs`` may be a vector or a dense block."""
        rhs = np.asarray(rhs, dtype=float)
        x = np.empty_like(rhs)
        x[self.order] = self._lu.solve(rhs[self.order])
        return x


def _factor(matrix, order, diag_pivot_thresh: float) -> Factorization:
    """SuperLU in symmetric mode on ``matrix[order][:, order]``, with no
    column order of its own."""
    csc = sp.csc_array(matrix)
    if csc.shape[0] != csc.shape[1]:
        raise ValueError(f"square matrix required, got shape {csc.shape}")
    order = np.asarray(order)
    csc = csc[order][:, order]
    try:
        lu = splu(csc, permc_spec="NATURAL", diag_pivot_thresh=diag_pivot_thresh,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    return Factorization(lu, order)


def _read_pivots(lu) -> np.ndarray:
    """The pivot sequence of ``lu``, the diagonal of its ``U``.

    Reading ``lu.U`` makes SciPy build CSC copies of ``L`` and ``U`` and
    cache them on ``lu``; both are emptied here (shape kept), so that only
    the pivots outlive the read.
    """
    lower, upper = lu.L, lu.U
    pivots = upper.diagonal()
    for copy in (lower, upper):
        copy.data = np.empty(0, dtype=copy.data.dtype)
        copy.indices = np.empty(0, dtype=copy.indices.dtype)
        copy.indptr = np.zeros(copy.shape[1] + 1, dtype=copy.indptr.dtype)
    return pivots


def factor_spd(matrix, order) -> Factorization:
    """Factor a symmetric positive definite sparse matrix.

    Factors ``matrix[order][:, order]`` in that order.  SuperLU permutes no
    column and pivots no row, so pivot ``k`` eliminates row ``order[k]``
    and the pivot sequence is exactly the diagonal of the triangular
    factor; any nonpositive pivot disproves positive definiteness and
    raises ``NotSpdError`` naming the offending index.  The check reads, then
    frees, SciPy's copies of ``L`` and ``U`` (``_read_pivots``), so
    ``_lu.L`` and ``_lu.U`` of the result are empty.
    """
    factor = _factor(matrix, order, 0.0)
    pivots = _read_pivots(factor._lu)
    bad = np.flatnonzero(pivots <= 0.0)
    if bad.size:
        k = int(bad[0])
        raise NotSpdError(f"matrix is not SPD: pivot {k} (original row "
                          f"{factor.order[k]}) is {pivots[k]:.3e}")
    return factor


def saddle_order(b, dissection: NestedDissection) -> np.ndarray:
    """Elimination order of the saddle ``[[A, B^T], [B, 0]]``.

    ``b`` is the (pinned) constraint matrix, one row per pressure, and
    ``dissection`` the nested dissection of the ``m`` velocity nodes.  The
    velocities keep its ``dof_order``, the order ``A`` is factored in: the
    subtree rule below holds for that order only.  The velocity dofs are
    blocked by component, so dof ``j`` belongs to node ``j % m``.

    The neighbours of a pressure are the nodes of its row of ``b``.  It is
    placed in the smallest subtree of the dissection (a leaf included) that
    holds at least ``_SADDLE_MIN_NODES`` of them while every other one lies
    on a separator enclosing the subtree, or in the whole tree if no subtree
    does; it follows its last-eliminated neighbour in that subtree.
    Pressures with the same predecessor keep their index order, so the order
    is deterministic.  Returns indices into the saddle's rows: velocities
    ``0..n-1``, then the pressures from ``n`` on.
    """
    b = sp.csr_array(b)
    # an empty row makes the saddle singular (and reduceat misreads it)
    neighbours = np.diff(b.indptr)
    if np.any(neighbours == 0):
        raise SingularMatrixError("a pressure dof has no velocity neighbour, "
                                  "so the saddle matrix is singular")
    num_nodes = dissection.path.size
    velocity_pos = np.empty(2 * num_nodes, dtype=np.int64)
    velocity_pos[dissection.dof_order] = np.arange(velocity_pos.size)
    # one (pressure, node) pair per neighbour node, at its last-eliminated dof
    pair = (np.repeat(np.arange(b.shape[0], dtype=np.int64), neighbours) * num_nodes
            + b.indices % num_nodes)
    pos = velocity_pos[b.indices]
    by_pair = np.lexsort((pos, pair))
    pair, pos = pair[by_pair], pos[by_pair]
    last = np.append(pair[1:] != pair[:-1], True)
    pair, pos = pair[last], pos[last]
    pressure, node = np.divmod(pair, num_nodes)
    path = dissection.path[node]
    depth = dissection.depth[node]
    digits = dissection.digits
    # a node's home is its leaf, or the subtree its separator cuts
    on_separator = path // 3 ** (digits - depth) % 3 == 2
    home = depth - on_separator
    # descend from the root while one child holds every node not on the
    # separators passed, and at least _SADDLE_MIN_NODES of them
    inside = np.ones(pair.size, dtype=bool)
    descending = np.ones(b.shape[0], dtype=bool)
    for k in range(digits):
        below = inside & (home > k)
        child = path // 3 ** (digits - k - 1) % 3
        left = np.bincount(pressure[below & (child == 0)], minlength=b.shape[0])
        right = np.bincount(pressure[below & (child == 1)], minlength=b.shape[0])
        descending &= (np.minimum(left, right) == 0) & (left + right >= _SADDLE_MIN_NODES)
        if not descending.any():
            break
        inside = np.where(descending[pressure], below, inside)
    starts = np.flatnonzero(np.append(True, pressure[1:] != pressure[:-1]))
    pressure_key = np.maximum.reduceat(np.where(inside, pos, -1), starts)
    # stable: a velocity precedes the pressures keyed to its position
    return np.argsort(np.concatenate([velocity_pos, pressure_key]), kind="stable")


def factor_symmetric_indefinite(matrix, order) -> Factorization:
    """Factor a symmetric indefinite (e.g. saddle-point) sparse matrix.

    Factors ``matrix[order][:, order]`` in exactly that order (no column
    reordering), with SuperLU in symmetric mode and diagonal pivot threshold
    ``_SADDLE_PIVOT_THRESH``: a diagonal pivot is kept unless it is smaller
    than that fraction of its column's largest entry, in which case a row
    swap replaces it.  With the order of ``saddle_order`` no row swaps on the
    discrete Stokes saddles; an exactly zero pivot still swaps.  A failed
    factorization, or a pivot that vanishes relative to the largest one,
    raises ``SingularMatrixError``.  As in ``factor_spd``, the check reads,
    then frees, SciPy's copies of ``L`` and ``U``.
    """
    factor = _factor(matrix, order, _SADDLE_PIVOT_THRESH)
    pivots = _read_pivots(factor._lu)
    largest = np.max(np.abs(pivots))
    if largest == 0.0 or np.min(np.abs(pivots)) <= _SINGULAR_PIVOT_RTOL * largest:
        raise SingularMatrixError(
            "matrix is numerically singular: smallest pivot "
            f"{np.min(np.abs(pivots)):.3e} vs largest {largest:.3e}"
        )
    return factor
