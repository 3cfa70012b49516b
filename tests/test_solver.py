import numpy as np
import pytest

from elastprec.bench import poisson_to_lambda
from elastprec.sparse_linalg import factor_spd
from elastprec.solver import (NormEquivalenceError, PcgConvergenceError,
                              dense_preconditioned_spectrum,
                              dense_preconditioner_matrix, estimate_condition,
                              measure_inf_sup, pcg_solve,
                              sharpened_condition_estimate,
                              verify_norm_equivalence)


def _anorm(reduced, v):
    return np.sqrt(v @ (reduced.A @ v))


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


def test_saddle_solution_with_pressure(case_p2p1_l2):
    red = case_p2p1_l2.reduced
    proj = case_p2p1_l2.projector
    rng = np.random.default_rng(25)
    g = rng.standard_normal(red.dim)
    v, p = proj.solve_with_pressure(g)
    # momentum equation and zero-mean multiplier
    res = red.A @ v + red.B.T @ p - g
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(g)
    assert abs(np.ones(len(p)) @ (red.MQ @ p)) <= 1e-12 * np.linalg.norm(p)


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
                          case.preconditioner(1.0))
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
    assert report.iterations == len(report.lanczos_diag)
    assert len(report.lanczos_offdiag) == report.iterations - 1


def test_pcg_iteration_cap_raises_with_history(case_p2p0_l2):
    case = case_p2p0_l2
    lam = poisson_to_lambda(0.4999)
    rhs = case.rhs(lam)
    with pytest.raises(PcgConvergenceError) as err:
        pcg_solve(case.operator(lam), rhs, preconditioner=None,
                  tol=1e-12, max_iterations=3)
    report = err.value.report
    assert report.iterations == 3
    assert len(report.residual_history) == 4
    with pytest.raises(ValueError):
        pcg_solve(case.operator(lam), rhs, tol=2.0)


def test_pcg_energy_error_monotone(case_p2p0_l2):
    case = case_p2p0_l2
    lam = poisson_to_lambda(0.499)
    rhs = case.rhs(lam)
    a_lam = case.reduced.lambda_matrix(lam)
    exact = factor_spd(a_lam).solve(rhs)
    op, precond = case.operator(lam), case.preconditioner(lam)
    _, report = pcg_solve(op, rhs, precond, tol=1e-10)
    energies = []
    for k in range(1, report.iterations + 1):
        xk, _ = pcg_solve(op, rhs, precond, force_iterations=k)
        d = xk - exact
        energies.append(d @ (a_lam @ d))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * max(energies))


# ---------------------------------------------------------------------------
# condition estimation

def test_condition_estimate_identity_preconditioning(case_p2p0_l3):
    case = case_p2p0_l3
    rhs = case.rhs(0.0)
    est = sharpened_condition_estimate(case.operator(0.0), rhs,
                                       case.preconditioner(0.0))
    assert abs(est - 1.0) <= 1e-8


def test_condition_estimate_empty_report_rejected():
    from elastprec.solver import SolveReport

    empty = SolveReport(0, np.array([0.0]), np.array([]), np.array([]))
    with pytest.raises(ValueError):
        estimate_condition(empty)


@pytest.mark.parametrize("fixture", ["case_p2p0_l2", "case_p2p0_l3"])
def test_lanczos_matches_dense_spectrum(fixture, request):
    case = request.getfixturevalue(fixture)
    lam = poisson_to_lambda(0.4999)
    rhs = case.rhs(lam)
    est = sharpened_condition_estimate(case.operator(lam), rhs,
                                       case.preconditioner(lam))
    spectrum = dense_preconditioned_spectrum(case.reduced, lam,
                                             case.a_factor, case.projector)
    dense = spectrum[-1] / spectrum[0]
    assert abs(est - dense) / dense <= 0.05


def test_lambda_uniformity_of_condition(case_p2p0_l3, case_p2p1_l3):
    for case in (case_p2p0_l3, case_p2p1_l3):
        conds = {}
        for lam in (1.0, 1e2, 1e4, 1e6):
            rhs = case.rhs(lam)
            conds[lam] = sharpened_condition_estimate(
                case.operator(lam), rhs, case.preconditioner(lam))
        bound = 1.2 * conds[1e6]
        assert all(c <= bound for c in conds.values()), conds


# ---------------------------------------------------------------------------
# inf-sup and norm equivalence

def test_inf_sup_positive_and_bounded(cases_l23):
    for case in cases_l23:
        red = case.reduced
        report = measure_inf_sup(red.A, red.B, red.MQ)
        assert 0.0 < report.beta_h <= 1.0
        assert report.theta_max <= 2.0 + 1e-8


def test_inf_sup_mesh_independence(case_p2p0_l2, case_p2p0_l3,
                                   case_p2p1_l2, case_p2p1_l3):
    for coarse, fine in ((case_p2p0_l2, case_p2p0_l3),
                         (case_p2p1_l2, case_p2p1_l3)):
        b2 = measure_inf_sup(coarse.reduced.A, coarse.reduced.B,
                             coarse.reduced.MQ).beta_h
        b3 = measure_inf_sup(fine.reduced.A, fine.reduced.B,
                             fine.reduced.MQ).beta_h
        assert abs(b3 - b2) / b3 < 0.2


def test_inf_sup_respects_dense_limit(case_p2p0_l2):
    import scipy.sparse as sp

    big = sp.eye_array(5000, format="csr")
    with pytest.raises(ValueError, match="dense"):
        measure_inf_sup(big, big, big)


def test_norm_equivalence_divergence_free_input(case_p2p0_l2):
    case = case_p2p0_l2
    red = case.reduced
    rng = np.random.default_rng(31)
    v = case.projector.project(rng.standard_normal(red.dim))
    mq_factor = factor_spd(red.MQ)
    bv = red.B @ v
    dv = np.sqrt(bv @ mq_factor.solve(bv))
    d = v - case.projector.project(v)
    e = np.sqrt(d @ (red.A @ d))
    assert dv <= 1e-10 and e <= 1e-10


def test_norm_equivalence_ratio_bounds(cases_l23):
    rng = np.random.default_rng(32)
    for case in cases_l23:
        red = case.reduced
        beta = measure_inf_sup(red.A, red.B, red.MQ).beta_h
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
    m = dense_preconditioner_matrix(red, lam, case.a_factor, case.projector)
    a = red.A.toarray()
    p = case.projector.project_dual(red.A @ np.eye(n))
    expected = a + lam * (a @ (np.eye(n) - p))
    expected = 0.5 * (expected + expected.T)
    rel = np.linalg.norm(np.linalg.inv(m) - expected) / np.linalg.norm(expected)
    assert rel <= 1e-8


def test_dense_spectrum_bounds(case_p2p1_l2):
    # spectrum of the preconditioned operator sits inside (0, 2]
    case = case_p2p1_l2
    for nu in (0.25, 0.4, 0.49, 0.499, 0.4999):
        lam = poisson_to_lambda(nu)
        spec = dense_preconditioned_spectrum(case.reduced, lam,
                                             case.a_factor, case.projector,
                                             projection="exact")
        assert spec[0] > 0.0
        assert spec[-1] <= 2.0 + 1e-8
