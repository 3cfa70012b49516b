"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  The frozen reference iteration counts and condition
numbers are the target values for this benchmark configuration; every
tolerance is fixed here and nowhere else.
"""

import time

import numpy as np
import pytest

from elastprec import fourier
from elastprec.bench import poisson_to_lambda, prepare_case, solve_cell
from elastprec.solver import (dense_preconditioned_spectrum, measure_inf_sup,
                              pcg_solve, sharpened_condition_estimate)
from elastprec.sparse_linalg import factor_spd

NUS = (0.25, 0.4, 0.49, 0.499, 0.4999)

REFERENCE_ITERATIONS_P2P0 = {
    2: (4, 5, 6, 6, 6),
    3: (3, 4, 6, 7, 7),
    4: (3, 4, 6, 7, 7),
    5: (3, 4, 6, 7, 7),
}
REFERENCE_CONDITION_P2P0 = {
    2: (1.15, 1.48, 2.52, 2.84, 2.88),
    3: (1.14, 1.44, 2.47, 2.98, 3.03),
    4: (1.13, 1.44, 2.55, 2.90, 2.94),
}
REFERENCE_ITERATIONS_P2P1 = {
    2: (4, 5, 5, 5, 5),
    3: (4, 6, 11, 12, 12),
    4: (4, 6, 12, 15, 15),
    5: (4, 6, 12, 15, 15),
}
REFERENCE_CONDITION_P2P1 = {
    2: (1.20, 1.71, 4.31, 5.69, 5.89),
    3: (1.20, 1.71, 4.38, 5.81, 6.02),
    4: (1.19, 1.71, 4.38, 5.81, 6.02),
    5: (1.18, 1.71, 4.38, 5.81, 6.02),
}


def _report(number, label, ok, detail):
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


@pytest.fixture(scope="module")
def table_p2p0():
    started = time.perf_counter()
    cells = {}
    for level in (2, 3, 4, 5):
        case = prepare_case(level, "p2p0")
        for nu in NUS:
            cells[(level, nu)] = solve_cell(case, nu)
    return cells, time.perf_counter() - started


@pytest.fixture(scope="module")
def table_p2p1():
    cells = {}
    for level in (2, 3, 4, 5):
        case = prepare_case(level, "p2p1", projection="diagonal")
        for nu in NUS:
            cells[(level, nu)] = solve_cell(case, nu)
    return cells


def test_criterion_1_p2p0_iterations(table_p2p0):
    cells, elapsed = table_p2p0
    worst = 0
    for level, row in REFERENCE_ITERATIONS_P2P0.items():
        for nu, expected in zip(NUS, row):
            got = cells[(level, nu)].iterations
            worst = max(worst, abs(got - expected))
    ok = worst <= 2 and elapsed < 120.0
    _report(1, "iteration counts, piecewise-constant pressure", ok,
            f"max deviation {worst} iterations (allowed 2), "
            f"runtime {elapsed:.1f}s (allowed 120s)")


def test_criterion_2_p2p0_condition(table_p2p0):
    cells, _ = table_p2p0
    worst = 0.0
    for level, row in REFERENCE_CONDITION_P2P0.items():
        for nu, expected in zip(NUS, row):
            got = cells[(level, nu)].condition
            worst = max(worst, abs(got - expected) / expected)
    # dense eigensolve cross-check against the Lanczos estimate
    worst_cross = 0.0
    for level in (2, 3):
        case = prepare_case(level, "p2p0")
        for nu in NUS:
            lam = poisson_to_lambda(nu)
            rhs = case.rhs(lam)
            est = sharpened_condition_estimate(case.operator(lam), rhs,
                                               case.preconditioner(lam))
            spec = dense_preconditioned_spectrum(case.reduced, lam,
                                                 case.a_factor, case.projector)
            dense = spec[-1] / spec[0]
            worst_cross = max(worst_cross, abs(est - dense) / dense)
    ok = worst <= 0.20 and worst_cross <= 0.05
    _report(2, "condition numbers, piecewise-constant pressure", ok,
            f"max table deviation {worst:.1%} (allowed 20%), "
            f"max dense/Lanczos gap {worst_cross:.2%} (allowed 5%)")


def test_criterion_3a_p2p1_iterations(table_p2p1):
    worst = 0
    for level, row in REFERENCE_ITERATIONS_P2P1.items():
        for nu, expected in zip(NUS, row):
            got = table_p2p1[(level, nu)].iterations
            worst = max(worst, abs(got - expected))
    ok = worst <= 3
    _report("3a", "iteration counts, continuous linear pressure", ok,
            f"max deviation {worst} iterations (allowed 3)")


def test_criterion_3b_p2p1_condition(table_p2p1):
    # Known-red: with the diagonal-mass realization of the pressure
    # projection the true condition numbers of the preconditioned operator
    # sit near 10-15 at nu -> 0.5 on this mesh, far from the reference
    # column around 6; the reference values are reproduced (to ~3%) only
    # when the projection is applied through the exact mass inverse
    # (projection="exact"), which however shifts the iteration counts
    # below the reference.  The assertion keeps the criterion as stated.
    devs = {}
    for level, row in REFERENCE_CONDITION_P2P1.items():
        for nu, expected in zip(NUS, row):
            got = table_p2p1[(level, nu)].condition
            devs[(level, nu)] = abs(got - expected) / expected
    worst = max(devs.values())
    ok = worst <= 0.25
    _report("3b", "condition numbers, continuous linear pressure", ok,
            f"max table deviation {worst:.1%} (allowed 25%)")


def test_criterion_3c_p2p1_plateau(table_p2p1):
    # Known-red companion of 3b: the plateau of the diagonal-mass operator
    # is bounded but not flat to 10% across levels (the exact-mass
    # realization is: ~6.18 with 0.5% spread).
    plateau = [table_p2p1[(level, 0.4999)].condition for level in (3, 4, 5)]
    spread = (max(plateau) - min(plateau)) / max(plateau)
    bounded = max(plateau) <= 2.0 * 6.0
    ok = spread < 0.10 and bounded
    _report("3c", "large-lambda plateau, continuous linear pressure", ok,
            f"plateau {['%.2f' % p for p in plateau]}, spread {spread:.1%} "
            f"(allowed 10%)")


def test_criterion_4_lambda_robustness():
    worst = 0.0
    details = []
    for pair in ("p2p0", "p2p1"):
        case = prepare_case(3, pair)
        conds = {}
        for lam in (1.0, 1e2, 1e4, 1e6):
            rhs = case.rhs(lam)
            conds[lam] = sharpened_condition_estimate(
                case.operator(lam), rhs, case.preconditioner(lam))
        rel = abs(conds[1e4] - conds[1e6]) / conds[1e6]
        worst = max(worst, rel)
        details.append(f"{pair}: {rel:.2%}")
    ok = worst < 0.20
    _report(4, "condition uniform in lambda", ok,
            "variation between lambda=1e4 and 1e6: " + ", ".join(details))


def test_criterion_5_exact_limits():
    # lambda = 0: the preconditioner is the exact inverse
    case = prepare_case(3, "p2p0")
    rhs = case.rhs(0.0)
    x, report = pcg_solve(case.operator(0.0), rhs, case.preconditioner(0.0),
                          tol=1e-6)
    cond = sharpened_condition_estimate(case.operator(0.0), rhs,
                                        case.preconditioner(0.0), report=report)
    one_step = report.iterations == 1 and abs(cond - 1.0) <= 1e-6

    # mode-space convex combination over 1000 random modes
    rng = np.random.default_rng(0)
    worst_convex = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 4))
        xi = rng.uniform(-10, 10, size=dim)
        while np.linalg.norm(xi) < 0.5:
            xi = rng.uniform(-10, 10, size=dim)
        fhat = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        lam = float(rng.choice([0.0, 10.0 ** rng.uniform(-2, 8)]))
        worst_convex = max(worst_convex,
                           fourier.verify_convex_combination(xi, lam, fhat))

    # projector-inverse identity over random t, residual relative to 1 + |t|
    worst_idem = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 4))
        xi = rng.uniform(-10, 10, size=dim)
        while np.linalg.norm(xi) < 0.5:
            xi = rng.uniform(-10, 10, size=dim)
        t = float(rng.choice([rng.uniform(-0.99, 2.0),
                              10.0 ** rng.uniform(0, 6)]))
        worst_idem = max(worst_idem,
                         fourier.verify_inverse_idempotent(t, xi) / (1.0 + abs(t)))

    ok = one_step and worst_convex <= 1e-12 and worst_idem <= 1e-12
    _report(5, "exact limits", ok,
            f"lambda=0: {report.iterations} iteration, condition {cond:.9f}; "
            f"convex residual {worst_convex:.2e}, idempotent residual "
            f"{worst_idem:.2e} (allowed 1e-12)")


def test_criterion_6_projection_properties():
    rng = np.random.default_rng(1)
    worst_idem = worst_div = 0.0
    for pair in ("p2p0", "p2p1"):
        for level in (2, 3, 4):
            case = prepare_case(level, pair)
            red = case.reduced
            for _ in range(20):
                v = rng.standard_normal(red.dim)
                pv = case.projector.project(v)
                ppv = case.projector.project(pv)
                anorm = np.sqrt(pv @ (red.A @ pv))
                d = ppv - pv
                worst_idem = max(worst_idem,
                                 np.sqrt(d @ (red.A @ d)) / anorm)
                worst_div = max(worst_div,
                                np.linalg.norm(red.B @ pv) / anorm)
    ok = worst_idem <= 1e-10 and worst_div <= 1e-10
    _report(6, "projection idempotency and divergence", ok,
            f"idempotency defect {worst_idem:.2e}, divergence {worst_div:.2e} "
            f"(allowed 1e-10)")


def test_criterion_7_norm_equivalence():
    rng = np.random.default_rng(2)
    details = []
    ok = True
    for pair in ("p2p0", "p2p1"):
        for level in (2, 3):
            case = prepare_case(level, pair)
            red = case.reduced
            beta = measure_inf_sup(red.A, red.B, red.MQ).beta_h
            mq_factor = factor_spd(red.MQ)
            ratios = []
            for _ in range(50):
                v = rng.standard_normal(red.dim)
                bv = red.B @ v
                dv = np.sqrt(bv @ mq_factor.solve(bv))
                d = v - case.projector.project(v)
                e = np.sqrt(d @ (red.A @ d))
                ratios.append(dv / e)
            lo, hi = min(ratios), max(ratios)
            ok = ok and lo >= beta - 1e-8 and hi <= np.sqrt(2.0) + 1e-8
            details.append(f"{pair}@L{level}: [{lo:.4f}, {hi:.4f}] vs "
                           f"[{beta:.4f}, {np.sqrt(2):.4f}]")
    _report(7, "divergence/strain norm equivalence", ok, "; ".join(details))


def test_criterion_8_locking_free_errors():
    details = []
    ok = True
    for pair in ("p2p0", "p2p1"):
        h1 = {}
        l2 = {}
        for level in (2, 3, 4):
            case = prepare_case(level, pair)
            for nu in (0.25, 0.4999):
                cell = solve_cell(case, nu)
                assert cell.error is None, cell.error
                h1[(level, nu)] = cell.h1_error
                l2[(level, nu)] = cell.l2_error
        ratio = h1[(4, 0.4999)] / h1[(4, 0.25)]
        monotone = all(h1[(l + 1, nu)] < h1[(l, nu)] and l2[(l + 1, nu)] < l2[(l, nu)]
                       for l in (2, 3) for nu in (0.25, 0.4999))
        ok = ok and ratio <= 2.0 and monotone
        details.append(f"{pair}: H1 ratio {ratio:.3f}, monotone={monotone}")
    _report(8, "locking-free discretization errors", ok, "; ".join(details))
