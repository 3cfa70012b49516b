import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from elastprec import solver
from elastprec.bench import (NU_DEFAULT, ExperimentConfig, poisson_to_lambda,
                             prepare_case, run_table_experiment,
                             sharpened_condition_estimate, solve_cell)
from elastprec.sparse_linalg import factor_spd
from elastprec.solver import (NormEquivalenceError, PcgConvergenceError,
                              Preconditioner, dense_preconditioned_spectrum,
                              dense_preconditioner_matrix, pcg_solve,
                              schur_pencil_bounds, verify_norm_equivalence)


def _anorm(reduced, v):
    return np.sqrt(v @ (reduced.A @ v))


def _exact(reduced):
    """``reduced``'s stiffness and pressure space coupled with the exact projection."""
    return reduced.couple(reduced.Q.kind, "exact")


def _inf_sup_bounds(case):
    """Bounds of the exact-projection pencil; beta_h is sqrt(theta_min)."""
    return schur_pencil_bounds(_exact(case.reduced), case.a_factor, largest=True)


# ---------------------------------------------------------------------------
# projection

def test_projection_fixes_divergence_free_fields(case_p2p0_l2):
    red = case_p2p0_l2.reduced
    proj = case_p2p0_l2.projector
    rng = np.random.default_rng(21)
    w = proj.project(rng.standard_normal(red.dim))  # div-free by construction
    g = red.A @ w
    v = proj.project_dual(g)
    assert _anorm(red, v - w) <= 1e-10 * _anorm(red, w)


def test_projection_idempotent(cases_l23):
    rng = np.random.default_rng(22)
    for case in cases_l23:
        red = case.reduced
        v = rng.standard_normal(red.dim)
        pv = case.projector.project(v)
        ppv = case.projector.project(pv)
        assert _anorm(red, ppv - pv) <= 1e-10 * _anorm(red, pv)


def test_projection_output_discretely_divergence_free(cases_l23):
    rng = np.random.default_rng(23)
    for case in cases_l23:
        red = case.reduced
        pv = case.projector.project(rng.standard_normal(red.dim))
        assert np.linalg.norm(red.B @ pv) <= 1e-10 * _anorm(red, pv)


def test_one_step_solve_equals_two_step_definition(case_p2p0_l2):
    # P A^{-1} g  ==  project(A^{-1} g) computed through the definition
    red = case_p2p0_l2.reduced
    proj = case_p2p0_l2.projector
    rng = np.random.default_rng(24)
    for _ in range(5):
        g = rng.standard_normal(red.dim)
        one = proj.project_dual(g)
        two = proj.project(case_p2p0_l2.a_factor.solve(g))
        assert _anorm(red, one - two) <= 1e-10 * _anorm(red, one)


# ---------------------------------------------------------------------------
# preconditioner

def test_preconditioner_lambda_zero_is_plain_inverse(case_p2p0_l2):
    red = case_p2p0_l2.reduced
    rng = np.random.default_rng(26)
    g = rng.standard_normal(red.dim)
    m = case_p2p0_l2.preconditioner(0.0)
    np.testing.assert_array_equal(m.apply(g), case_p2p0_l2.a_factor.solve(g))


def test_preconditioner_huge_lambda_is_projected_inverse(case_p2p0_l2):
    red = case_p2p0_l2.reduced
    rng = np.random.default_rng(27)
    g = rng.standard_normal(red.dim)
    m = case_p2p0_l2.preconditioner(1e12)
    pure = case_p2p0_l2.projector.project_dual(g)
    assert np.linalg.norm(m.apply(g) - pure) <= 1e-6 * np.linalg.norm(pure)


def test_preconditioner_symmetric_bilinear(case_p2p1_l2):
    red = case_p2p1_l2.reduced
    m = case_p2p1_l2.preconditioner(poisson_to_lambda(0.499))
    rng = np.random.default_rng(28)
    for _ in range(10):
        g1 = rng.standard_normal(red.dim)
        g2 = rng.standard_normal(red.dim)
        left, right = g2 @ m.apply(g1), g1 @ m.apply(g2)
        assert abs(left - right) <= 1e-12 * max(abs(left), abs(right))


def test_preconditioner_rejects_negative_lambda(case_p2p0_l2):
    with pytest.raises(ValueError):
        case_p2p0_l2.preconditioner(-0.5)


# ---------------------------------------------------------------------------
# PCG

def test_pcg_exact_preconditioner_one_iteration(case_p2p0_l3):
    case = case_p2p0_l3
    x, report = pcg_solve(case.operator(0.0), case.rhs(0.0),
                          case.preconditioner(0.0), tol=1e-6)
    assert report.iterations == 1
    assert report.residual_history[-1] < 1e-6


def test_pcg_zero_rhs_guard(case_p2p0_l2):
    case = case_p2p0_l2
    x, report = pcg_solve(case.operator(1.0), np.zeros(case.reduced.dim),
                          case.preconditioner(1.0), tol=1e-6)
    assert report.iterations == 0
    assert np.max(np.abs(x)) == 0.0


def test_pcg_solves_the_system(case_p2p1_l3):
    case = case_p2p1_l3
    lam = poisson_to_lambda(0.4999)
    rhs = case.rhs(lam)
    x, report = pcg_solve(case.operator(lam), rhs, case.preconditioner(lam),
                          tol=1e-6)
    res = np.linalg.norm(rhs - case.operator(lam)(x)) / np.linalg.norm(rhs)
    assert res <= 1e-6
    assert report.residual_history[-1] <= 1e-6


def test_pcg_iteration_cap_raises_with_history(case_p2p0_l2, monkeypatch):
    case = case_p2p0_l2
    lam = poisson_to_lambda(0.4999)
    rhs = case.rhs(lam)
    monkeypatch.setattr(solver, "_PCG_MAX_ITERATIONS", 3)
    with pytest.raises(PcgConvergenceError) as err:
        pcg_solve(case.operator(lam), rhs, case.preconditioner(lam), tol=1e-12)
    report = err.value.report
    assert report.iterations == 3
    assert len(report.residual_history) == 4
    with pytest.raises(ValueError):
        pcg_solve(case.operator(lam), rhs, case.preconditioner(lam), tol=2.0)


def test_pcg_nan_rhs_raises_at_once(case_p2p0_l3):
    case = case_p2p0_l3
    lam = poisson_to_lambda(0.4999)
    rhs = case.rhs(lam)
    rhs[0] = np.nan
    with pytest.raises(PcgConvergenceError, match="non-finite") as err:
        pcg_solve(case.operator(lam), rhs, case.preconditioner(lam), tol=1e-6)
    assert err.value.report.iterations <= 1


class _FaultyFactor:
    """A stiffness factor whose ``solve`` result is altered at one PCG step.

    PCG solves with the stiffness factor once for the initial residual
    (step 0) and once in each step, so call ``step + 1`` belongs to ``step``.
    """

    def __init__(self, factor, step, fault):
        self.factor, self.faulty_call, self.fault = factor, step + 1, fault
        self.calls = 0

    def solve(self, g):
        self.calls += 1
        z = self.factor.solve(g)
        return self.fault(z) if self.calls == self.faulty_call else z


def test_pcg_nan_preconditioner_raises_at_its_step(case_p2p0_l2):
    case = case_p2p0_l2
    lam = poisson_to_lambda(0.4999)
    nan_at_3 = _FaultyFactor(case.a_factor, 3, lambda z: np.full_like(z, np.nan))
    precond = Preconditioner(lam, nan_at_3, case.projector)
    with pytest.raises(PcgConvergenceError, match="non-finite.*step 3") as err:
        pcg_solve(case.operator(lam), case.rhs(lam), precond, tol=1e-12)
    assert err.value.report.iterations == 3


def test_pcg_breakdown_names_its_step(case_p2p0_l2):
    # With lam = 0 the preconditioner is A^{-1}, so a sign flip of the step-2
    # solve makes z = A^{-1}(2 r_1 - r_2) and r_2'z = -r_2'A^{-1}r_2 < 0
    # (r_2'A^{-1}r_1 = 0); the operator's large lam keeps PCG far from tol.
    case = case_p2p0_l2
    lam = poisson_to_lambda(0.4999)
    flip_at_2 = _FaultyFactor(case.a_factor, 2, np.negative)
    precond = Preconditioner(0.0, flip_at_2, case.projector)
    with pytest.raises(PcgConvergenceError,
                       match=r"not positive definite .* step 2 \(r'z = -") as err:
        pcg_solve(case.operator(lam), case.rhs(lam), precond, tol=1e-6)
    assert err.value.report.iterations == 2
    assert err.value.report.residual_history[-1] > 1e-6


@pytest.mark.parametrize("lam", [0.0, 2499.5])
@pytest.mark.parametrize("pair", ["p2p0", "p2p1"])
def test_pcg_makes_one_saddle_solve(pair, lam):
    # a case of its own: its factors' solves are replaced for good
    case = prepare_case(3, pair)
    calls = {"A": 0, "saddle": 0}
    for role, factor in (("A", case.a_factor), ("saddle", case.projector.factorization)):
        def counted(g, solve=factor.solve, role=role):
            calls[role] += 1
            return solve(g)
        factor.solve = counted
    _, report = pcg_solve(case.operator(lam), case.rhs(lam), case.preconditioner(lam),
                          tol=1e-6)
    assert calls == {"A": report.iterations + 1, "saddle": 1}


def _reference_pcg(op, rhs, preconditioner, tol):
    """Textbook PCG: ``z = M r`` by ``apply``, one saddle solve per step."""
    norm_b = np.linalg.norm(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = preconditioner.apply(r)
    rz = r @ z
    p = z.copy()
    history = [1.0]
    for _ in range(rhs.size):
        ap = op(p)
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        z = preconditioner.apply(r)
        rz_next = r @ z
        history.append(np.linalg.norm(rhs - op(x)) / norm_b)
        if history[-1] <= tol:
            break
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, np.array(history)


@pytest.mark.parametrize("projection", ["exact", "diagonal"])
@pytest.mark.parametrize("pair", ["p2p0", "p2p1"])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_pcg_matches_reference_pcg(level, pair, projection):
    case = prepare_case(level, pair, projection)
    for lam in (0.0, 1.0, 2499.5):
        op, rhs, precond = case.operator(lam), case.rhs(lam), case.preconditioner(lam)
        x, report = pcg_solve(op, rhs, precond, tol=1e-6)
        x_ref, history_ref = _reference_pcg(op, rhs, precond, 1e-6)
        assert report.iterations == len(history_ref) - 1, lam
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref), lam
        above = history_ref > 1e-12
        np.testing.assert_allclose(report.residual_history[above], history_ref[above],
                                   rtol=1e-6, err_msg=f"lam={lam}")


def test_pcg_energy_error_monotone(case_p2p0_l2):
    case = case_p2p0_l2
    lam = poisson_to_lambda(0.499)
    rhs = case.rhs(lam)
    a_lam = case.reduced.lambda_matrix(lam)
    exact = factor_spd(a_lam, np.arange(a_lam.shape[0])).solve(rhs)
    op, precond = case.operator(lam), case.preconditioner(lam)
    _, report = pcg_solve(op, rhs, precond, tol=1e-10)
    energies = []
    for k in range(1, report.iterations + 1):
        # a rerun repeats the history, so it stops at step k on its residual
        xk, report_k = pcg_solve(op, rhs, precond,
                                 tol=report.residual_history[k])
        assert report_k.iterations == k
        d = xk - exact
        energies.append(d @ (a_lam @ d))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * max(energies))


# ---------------------------------------------------------------------------
# condition estimation

def test_condition_estimate_identity_preconditioning(case_p2p0_l3):
    case = case_p2p0_l3
    est = sharpened_condition_estimate(case, 0.0)
    assert abs(est - 1.0) <= 1e-8


@pytest.mark.parametrize("fixture", ["case_p2p0_l2", "case_p2p0_l3"])
def test_lanczos_matches_dense_spectrum(fixture, request):
    case = request.getfixturevalue(fixture)
    lam = poisson_to_lambda(0.4999)
    est = sharpened_condition_estimate(case, lam)
    spectrum = dense_preconditioned_spectrum(case.reduced, lam,
                                             case.a_factor, case.projector)
    dense = spectrum[-1] / spectrum[0]
    assert abs(est - dense) / dense <= 0.05


@pytest.mark.parametrize("fixture", ["case_p2p0_l2", "case_p2p1_l2",
                                     "case_p2p0_l3", "case_p2p1_l3"])
def test_table_condition_matches_dense_spectrum(fixture, request):
    case = request.getfixturevalue(fixture)
    for nu in NU_DEFAULT:
        cell = solve_cell(case, nu)
        assert cell.error is None, cell.error
        spectrum = dense_preconditioned_spectrum(case.reduced, cell.lam,
                                                 case.a_factor, case.projector)
        dense = spectrum[-1] / spectrum[0]
        assert abs(cell.condition - dense) / dense <= 0.01, (nu, cell.condition, dense)


def test_lambda_uniformity_of_condition(case_p2p0_l3, case_p2p1_l3):
    for case in (case_p2p0_l3, case_p2p1_l3):
        conds = {lam: sharpened_condition_estimate(case, lam)
                 for lam in (1.0, 1e2, 1e4, 1e6)}
        bound = 1.2 * conds[1e6]
        assert all(c <= bound for c in conds.values()), conds


@pytest.mark.parametrize("projection", ["exact", "diagonal"])
@pytest.mark.parametrize("pair", ["p2p0", "p2p1"])
@pytest.mark.parametrize("level", [1, 2])
def test_schur_pencil_matches_dense(level, pair, projection):
    case = prepare_case(level, pair)
    red = case.reduced.couple(case.reduced.Q.kind, projection)
    schur = red.B @ np.linalg.solve(red.A.toarray(), red.BT.toarray())
    w = red.MQ.toarray() if projection == "exact" else np.diag(red.D)
    # the smallest eigenvalue is the constant pressure's zero
    dense = scipy.linalg.eigh(0.5 * (schur + schur.T), w, eigvals_only=True)
    assert abs(dense[0]) <= 1e-12 * dense[-1]
    # both ends from one run
    bounds = schur_pencil_bounds(red, case.a_factor, largest=True)
    np.testing.assert_allclose([bounds.theta_min, bounds.theta_max],
                               [dense[1], dense[-1]], rtol=1e-8)
    assert schur_pencil_bounds(red, case.a_factor, largest=True) == bounds
    low = schur_pencil_bounds(red, case.a_factor)
    assert low.theta_max is None
    np.testing.assert_allclose(low.theta_min, dense[1], rtol=1e-8)


def test_coarse_condition_cells_match_dense_spectrum():
    # L0 has 2 pressures and one nonzero theta; L1 has 8
    result = run_table_experiment(ExperimentConfig(pairs=("p2p0",), levels=(0, 1)))
    for level in (0, 1):
        case = prepare_case(level, "p2p0")
        for nu in NU_DEFAULT:
            cell = result.cell("p2p0", level, nu)
            spectrum = dense_preconditioned_spectrum(case.reduced, cell.lam,
                                                     case.a_factor, case.projector)
            np.testing.assert_allclose(cell.condition, spectrum[-1] / spectrum[0],
                                       rtol=1e-8)


@pytest.fixture(scope="module")
def table_l45():
    return run_table_experiment(ExperimentConfig(levels=(4, 5)))


def test_iterations_within_cg_bound(table_l45):
    # k <= ceil(sqrt(kappa)/2 * ln(2/tol)) steps reach tol in the A_lam-norm
    tol = table_l45.config.tolerance
    for cell in table_l45.cells:
        assert cell.error is None, cell.error
        bound = math.ceil(0.5 * math.sqrt(cell.condition) * math.log(2.0 / tol))
        assert cell.iterations <= bound, (cell.pair, cell.level, cell.nu,
                                          cell.iterations, cell.condition)


# ---------------------------------------------------------------------------
# inf-sup and norm equivalence

def test_inf_sup_positive_and_bounded(cases_l23):
    for case in cases_l23:
        bounds = _inf_sup_bounds(case)
        assert 0.0 < np.sqrt(bounds.theta_min) <= 1.0
        assert bounds.theta_max <= 2.0 + 1e-8


def test_inf_sup_mesh_independence(case_p2p0_l2, case_p2p0_l3,
                                   case_p2p1_l2, case_p2p1_l3):
    for coarse, fine in ((case_p2p0_l2, case_p2p0_l3),
                         (case_p2p1_l2, case_p2p1_l3)):
        b2 = np.sqrt(_inf_sup_bounds(coarse).theta_min)
        b3 = np.sqrt(_inf_sup_bounds(fine).theta_min)
        assert abs(b3 - b2) / b3 < 0.2


def test_norm_equivalence_divergence_free_input(case_p2p0_l2):
    case = case_p2p0_l2
    red = case.reduced
    rng = np.random.default_rng(31)
    v = case.projector.project(rng.standard_normal(red.dim))
    mq_factor = factor_spd(red.MQ, np.arange(red.MQ.shape[0]))
    bv = red.B @ v
    dv = np.sqrt(bv @ mq_factor.solve(bv))
    d = v - case.projector.project(v)
    e = np.sqrt(d @ (red.A @ d))
    assert dv <= 1e-10 and e <= 1e-10


def test_norm_equivalence_ratio_bounds(cases_l23):
    rng = np.random.default_rng(32)
    for case in cases_l23:
        red = case.reduced
        beta = np.sqrt(_inf_sup_bounds(case).theta_min)
        for _ in range(50):
            v = rng.standard_normal(red.dim)
            lower, upper = verify_norm_equivalence(red, case.projector, beta, v)
            assert lower >= -1e-10 and upper >= -1e-10


def test_norm_equivalence_detects_violation(case_p2p0_l2):
    case = case_p2p0_l2
    rng = np.random.default_rng(33)
    v = rng.standard_normal(case.reduced.dim)
    with pytest.raises(NormEquivalenceError):
        # beta_h = 2 exceeds the provable upper constant sqrt(2)
        verify_norm_equivalence(case.reduced, case.projector, 2.0, v)


# ---------------------------------------------------------------------------
# dense identities

def test_exact_inverse_identity(case_p2p0_l2):
    # the preconditioner inverse equals A + lam * A (I - P)
    case = case_p2p0_l2
    red = case.reduced
    lam = 7.5
    n = red.dim
    m = dense_preconditioner_matrix(lam, case.a_factor, case.projector)
    a = red.A.toarray()
    p = case.projector.project_dual(red.A @ np.eye(n))
    expected = a + lam * (a @ (np.eye(n) - p))
    expected = 0.5 * (expected + expected.T)
    rel = np.linalg.norm(np.linalg.inv(m) - expected) / np.linalg.norm(expected)
    assert rel <= 1e-8


@pytest.mark.parametrize("projection", ["diagonal", "exact"])
@pytest.mark.parametrize("pair", ["p2p0", "p2p1"])
def test_dense_spectrum_of_applied_operator_equals_formed_matrix(pair, projection):
    # A_lam is read as apply_lambda of the identity; the reference forms it
    # as a matrix, with the projection applied to the densified B
    case = prepare_case(2, pair, projection)
    red = case.reduced
    scaled = sp.csr_array(red.pressure_projection_apply(red.B.toarray()))
    for nu in (0.0, 0.25, 0.4999):
        lam = poisson_to_lambda(nu)
        a_lam = (red.A + lam * (red.BT @ scaled)).toarray()
        m = dense_preconditioner_matrix(lam, case.a_factor, case.projector)
        chol = np.linalg.cholesky(m)
        expected = np.linalg.eigvalsh(chol.T @ a_lam @ chol)
        got = dense_preconditioned_spectrum(red, lam, case.a_factor, case.projector)
        np.testing.assert_allclose(got, expected, rtol=1e-12, err_msg=f"nu={nu}")


def test_dense_diagnostics_refuse_large_problems(case_p2p0_l2, monkeypatch):
    monkeypatch.setattr(solver, "_DENSE_LIMIT", case_p2p0_l2.reduced.dim - 1)
    with pytest.raises(ValueError, match="dense preconditioner limited"):
        dense_preconditioner_matrix(1.0, case_p2p0_l2.a_factor, case_p2p0_l2.projector)


def test_dense_spectrum_bounds(case_p2p1_l2):
    # spectrum of the preconditioned operator sits inside (0, 2]
    case = case_p2p1_l2
    for nu in (0.25, 0.4, 0.49, 0.499, 0.4999):
        lam = poisson_to_lambda(nu)
        spec = dense_preconditioned_spectrum(_exact(case.reduced), lam,
                                             case.a_factor, case.projector)
        assert spec[0] > 0.0
        assert spec[-1] <= 2.0 + 1e-8
