import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from elastprec import bench
from elastprec.bench import prepare_case
from elastprec.solver import build_projector
from elastprec.sparse_linalg import (NotSpdError, SingularMatrixError,
                                     factor_spd, factor_symmetric_indefinite,
                                     saddle_order)


def test_spd_identity():
    f = factor_spd(sp.eye_array(5, format="csc"), np.arange(5))
    b = np.arange(5.0)
    np.testing.assert_allclose(f.solve(b), b)


def test_spd_2x2_hand_elimination():
    K = sp.csc_array(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x = factor_spd(K, np.arange(2)).solve(np.array([1.0, 1.0]))
    np.testing.assert_allclose(x, [2.0 / 11.0, 3.0 / 11.0], rtol=1e-14)


def test_spd_rejects_indefinite_matrix():
    K = sp.csc_array(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(NotSpdError, match="pivot"):
        factor_spd(K, np.arange(2))


def test_spd_names_original_row_in_given_order():
    K = sp.csc_array(np.diag([1.0, 2.0, -1.0, 4.0, 5.0]))
    with pytest.raises(NotSpdError, match=r"pivot 4 \(original row 2\)"):
        factor_spd(K, [4, 0, 3, 1, 2])


def test_spd_backward_stability(case_p2p0_l2):
    A = case_p2p0_l2.reduced.A
    f = factor_spd(A, np.arange(A.shape[0]))
    rng = np.random.default_rng(12)
    for _ in range(20):
        b = rng.standard_normal(A.shape[0])
        x = f.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("factor", [factor_spd, factor_symmetric_indefinite])
@pytest.mark.parametrize("matrix,error,match", [
    (np.ones((2, 3)), ValueError, r"square matrix required, got shape \(2, 3\)"),
    (np.array([[1.0, 0.0], [0.0, 0.0]]), SingularMatrixError, "exactly singular"),
], ids=["non-square", "exactly-singular"])
def test_factor_rejects_unfactorable_matrix(factor, matrix, error, match):
    with pytest.raises(error, match=match):
        factor(sp.csc_array(matrix), np.arange(2))


def test_indefinite_swap():
    K = sp.csc_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    f = factor_symmetric_indefinite(K, np.arange(2))
    np.testing.assert_allclose(f.solve(np.array([1.0, 2.0])), [2.0, 1.0])


def test_unpinned_stokes_matrix_is_singular(case_p2p0_l2):
    red = case_p2p0_l2.reduced
    saddle = sp.block_array([[red.A, red.B.T], [red.B, None]], format="csc")
    with pytest.raises(SingularMatrixError):
        factor_symmetric_indefinite(saddle, saddle_order(red.B, red.dissection))


def test_saddle_solve_matches_dense_oracle(case_p2p0_l2):
    red = case_p2p0_l2.reduced
    keep = np.arange(red.B.shape[0] - 1)
    saddle = sp.block_array([[red.A, red.B[keep].T], [red.B[keep], None]],
                            format="csc")
    order = saddle_order(red.B[keep], red.dissection)
    f = factor_symmetric_indefinite(saddle, order)
    rng = np.random.default_rng(13)
    b = rng.standard_normal(saddle.shape[0])
    x = f.solve(b)
    x_dense = np.linalg.solve(saddle.toarray(), b)
    assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)
    for _ in range(20):
        b = rng.standard_normal(saddle.shape[0])
        x = f.solve(b)
        assert np.linalg.norm(saddle @ x - b) <= 1e-10 * np.linalg.norm(b)


def _node_cuts(dissection, node):
    """Cut digits of a node (left 0, right 1, separator 2), as a tuple."""
    digits = dissection.digits
    return tuple(int(dissection.path[node] // 3 ** (digits - 1 - i) % 3)
                 for i in range(dissection.depth[node]))


def _home(cuts):
    """The leaf of a node, or the subtree its separator cuts."""
    return cuts[:-1] if cuts and cuts[-1] == 2 else cuts


def _encloses(cuts, subtree):
    """Whether a node lies on a separator enclosing ``subtree``."""
    home = _home(cuts)
    return home != cuts and len(subtree) > len(home) and subtree[:len(home)] == home


def _positions(order):
    """Position at which ``order`` eliminates each index."""
    positions = np.empty_like(order)
    positions[order] = np.arange(order.size)
    return positions


def _reference_saddle_order(case, dissection, b):
    """The subtree rule, one pressure at a time, as stated.

    Take the smallest subtree that holds every neighbour node except those
    on separators enclosing it; while it holds fewer than 2 of them, widen
    it to the subtree of the first-eliminated (deepest) enclosing separator
    that holds one; follow the last neighbour inside.
    """
    m = case.reduced.dim // 2
    velocity_pos = _positions(case.a_factor.order)
    b = sp.csr_array(b)
    keys = []
    for q in range(b.shape[0]):
        dofs = b.indices[b.indptr[q]:b.indptr[q + 1]]
        cuts = {int(j) % m: _node_cuts(dissection, int(j) % m) for j in dofs}
        homes = {_home(c) for c in cuts.values()}
        candidates = {h[:k] for h in homes for k in range(len(h) + 1)}

        def inside(subtree):
            return [k for k, c in cuts.items() if c[:len(subtree)] == subtree
                    and not _encloses(c, subtree)]

        valid = [t for t in candidates if all(
            c[:len(t)] == t or _encloses(c, t) for c in cuts.values())]
        subtree = max(valid, key=len)
        while len(inside(subtree)) < 2:
            enclosing = [_home(c) for c in cuts.values() if _encloses(c, subtree)]
            if not enclosing:
                break
            subtree = max(enclosing, key=len)
        nodes = inside(subtree)
        keys.append(max(velocity_pos[j] for j in dofs if int(j) % m in nodes))
    return np.argsort(np.concatenate([velocity_pos, keys]), kind="stable")


@pytest.mark.parametrize("fixture", ["case_p2p0_l3", "case_p2p1_l3"])
def test_saddle_order_respects_velocity_order(fixture, request):
    case = request.getfixturevalue(fixture)
    red = case.reduced
    n, m = red.dim, red.dim // 2
    b_pinned = red.B[np.arange(red.B.shape[0] - 1)]
    dissection = red.dissection
    order = saddle_order(b_pinned, dissection)
    np.testing.assert_array_equal(np.sort(order), np.arange(n + b_pinned.shape[0]))
    # velocities in the order the factorization of A eliminates them
    velocities = order[order < n]
    np.testing.assert_array_equal(_positions(case.a_factor.order)[velocities],
                                  np.arange(n))
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    b_csr = sp.csr_array(b_pinned)
    for q in range(b_csr.shape[0]):
        neighbours = b_csr.indices[b_csr.indptr[q]:b_csr.indptr[q + 1]]
        assert neighbours.size > 0
        before = {int(j) % m for j in neighbours if position[j] < position[n + q]}
        after = {int(j) % m for j in neighbours if position[j] > position[n + q]}
        # after at least 2 neighbour nodes (a cell in a corner of the domain
        # has only one free node), and right after one of them
        assert len(before - after) >= min(2, len(before | after))
        previous = order[:position[n + q]]
        assert previous[previous < n][-1] in neighbours
        # a neighbour eliminated later lies on a separator enclosing the
        # smallest subtree of those eliminated earlier
        common = os.path.commonprefix([_node_cuts(dissection, k) for k in before])
        for k in after:
            assert _encloses(_node_cuts(dissection, k), common)
    np.testing.assert_array_equal(order, _reference_saddle_order(case, dissection, b_pinned))


def test_saddle_order_rejects_pressure_without_neighbour(case_p2p0_l2):
    red = case_p2p0_l2.reduced
    b = sp.vstack([red.B, sp.csr_array((1, red.dim))])
    with pytest.raises(SingularMatrixError, match="no velocity neighbour"):
        saddle_order(b, red.dissection)


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize("pair", ["p2p0", "p2p1"])
def test_saddle_factor_swaps_no_row(pair, level):
    lu = prepare_case(level, pair).projector.factorization._lu
    np.testing.assert_array_equal(lu.perm_r, np.arange(lu.shape[0]))


def test_ordered_solve_of_column_block(case_p2p1_l2):
    f = case_p2p1_l2.projector.factorization
    assert f.order is not None
    rng = np.random.default_rng(15)
    block = rng.standard_normal((f.order.size, 3))
    columns = np.column_stack([f.solve(block[:, j]) for j in range(3)])
    np.testing.assert_allclose(f.solve(block), columns, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("pair", ["p2p0", "p2p1"])
def test_saddle_fill_guard_l5(pair):
    # the constrained order keeps the saddle factor within 1.7x the fill of A
    # (measured 1.25 for P2-P0 and 1.50 for P2-P1 at L5)
    case = prepare_case(5, pair)
    ratio = case.projector.factorization._lu.nnz / case.a_factor._lu.nnz
    assert ratio <= 1.7, ratio


@pytest.mark.parametrize("level", [3, 4])
def test_nested_dissection_order_of_a(level):
    case = prepare_case(level, "p2p0")
    red, order = case.reduced, case.a_factor.order
    n, m = red.dim, red.dim // 2
    np.testing.assert_array_equal(np.sort(order), np.arange(n))
    # the x and y dofs of each free node (k and m + k) are adjacent
    np.testing.assert_array_equal(order[1::2], order[0::2] + m)
    # the top-level cut is the mesh line x = 1/2: its nodes separate the two
    # halves in A and are eliminated after both
    x = red.V.dof_points[red.free % red.V.dof_points.shape[0], 0]
    left, right = np.flatnonzero(x < 0.5), np.flatnonzero(x > 0.5)
    separator = np.flatnonzero(x == 0.5)
    assert left.size and right.size and separator.size
    assert red.A[left][:, right].nnz == 0
    np.testing.assert_array_equal(np.sort(order[-separator.size:]), separator)


@pytest.mark.parametrize("pair,saddle_mmd_fill", [("p2p0", 1_968_162),
                                                  ("p2p1", 1_636_350)])
def test_nested_dissection_fill_guard_l5(pair, saddle_mmd_fill):
    # nnz(L+U) in the minimum-degree order of A and the saddle order
    # derived from it, and of the saddle in the nested-dissection order with
    # each pressure after its last velocity neighbour; nested dissection with
    # each pressure inside its subtree measured 0.80M, 0.995M and 1.19M
    last_neighbour_fill = {"p2p0": 1_716_740, "p2p1": 1_465_086}[pair]
    case = prepare_case(5, pair)
    assert case.a_factor._lu.nnz < 871_358
    saddle_fill = case.projector.factorization._lu.nnz
    assert saddle_fill < saddle_mmd_fill
    assert saddle_fill < last_neighbour_fill


@pytest.mark.parametrize("level", [3, 5])
def test_stiffness_factor_keeps_its_order(level):
    # the saddle order and the pivot report read positions off the given
    # order, so SuperLU must not permute its columns
    lu = bench._LevelPart(level).a_factor._lu
    np.testing.assert_array_equal(lu.perm_c, np.arange(lu.shape[0]))
    np.testing.assert_array_equal(lu.perm_r, np.arange(lu.shape[0]))


def test_factorization_deterministic(case_p2p0_l2):
    A = case_p2p0_l2.reduced.A
    order = np.arange(A.shape[0])
    f1, f2 = factor_spd(A, order), factor_spd(A, order)
    np.testing.assert_array_equal(f1._lu.perm_c, f2._lu.perm_c)
    b = np.ones(A.shape[0])
    np.testing.assert_array_equal(f1.solve(b), f2.solve(b))


def _held_mib(build):
    """``build()`` under tracemalloc: its result, and the traced MiB that
    are still held once it has returned."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        kept = build()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept, (after - before) / 2**20


@pytest.mark.parametrize("pressure", ["p0", "p1"])
def test_factor_keeps_no_copy_of_its_triangles(pressure):
    # the pivot check reads U's diagonal through SciPy's CSC copies of L and
    # U; kept on the factor they held 1.64 MiB (A) and 2.17 / 2.48 MiB (the
    # P2-P0 / P2-P1 saddle) at L4, against at most 0.05 MiB without them
    part = bench._LevelPart(4)
    order = part.stiffness.dissection.dof_order
    reduced = part.stiffness.couple(pressure, "diagonal")
    factor, held = _held_mib(lambda: factor_spd(reduced.A, order))
    assert held < 0.1, held
    projector, held = _held_mib(lambda: build_projector(reduced))
    assert held < 0.1, held
    # emptied, shape kept; the fill and the solves are SuperLU's own
    for f in (factor, projector.factorization):
        lu = f._lu
        assert lu.L.nnz == 0 and lu.U.nnz == 0
        assert lu.L.shape == lu.U.shape == lu.shape
        assert f.nnz > lu.shape[0]
    b = np.random.default_rng(16).standard_normal(reduced.dim)
    x = factor.solve(b)
    assert np.linalg.norm(reduced.A @ x - b) <= 1e-12 * np.linalg.norm(b)
    pv = projector.project(b)
    assert np.linalg.norm(reduced.B @ pv) <= 1e-10 * np.sqrt(pv @ (reduced.A @ pv))
