"""Benchmark tables and the release verification suite.

``run_table_experiment`` sweeps (element pair, level, Poisson ratio) cells,
solving the manufactured problem with the projection preconditioner and
recording iteration counts, condition estimates and discretization errors.
``run_verification_suite`` executes the analytic and algebraic identity
checks that gate a release.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, fourier
from .fem import (PROJECTION_MODES, ManufacturedProblem, apply_dirichlet,
                  assemble_system, compute_errors)
from .mesh import MAX_LEVEL, build_uniform_mesh
from .solver import (PcgConvergenceError, Preconditioner, build_projector,
                     dense_preconditioned_spectrum, dense_preconditioner_matrix,
                     measure_inf_sup, pcg_solve, sharpened_condition_estimate,
                     verify_norm_equivalence)
from .sparse_linalg import SingularMatrixError, NotSpdError, factor_spd

PAIRS = ("p2p0", "p2p1")
LEVELS_DEFAULT = (2, 3, 4, 5)
NU_DEFAULT = (0.25, 0.4, 0.49, 0.499, 0.4999)


def poisson_to_lambda(nu: float) -> float:
    """Scaled Lame parameter ``lam = nu / (1 - 2 nu)`` of a Poisson ratio.

    The shear modulus is scaled out of the problem; near-incompressibility
    is ``nu -> 1/2``, that is ``lam -> inf``.
    """
    if not 0.0 <= nu < 0.5:
        raise ValueError(f"Poisson ratio must lie in [0, 0.5), got {nu}")
    return nu / (1.0 - 2.0 * nu)


@dataclass(frozen=True)
class ExperimentConfig:
    pairs: tuple = PAIRS
    levels: tuple = LEVELS_DEFAULT
    nu_values: tuple = NU_DEFAULT
    tolerance: float = 1e-6
    max_level_guard: int = 6
    projection: str = "diagonal"

    def __post_init__(self):
        if self.projection not in PROJECTION_MODES:
            raise ValueError(f"unknown projection mode {self.projection!r}")
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(self, "levels", tuple(int(l) for l in self.levels))
        object.__setattr__(self, "nu_values", tuple(float(n) for n in self.nu_values))
        for pair in self.pairs:
            if pair not in PAIRS:
                raise ValueError(f"unknown element pair {pair!r}; expected one of {PAIRS}")
        if not self.levels:
            raise ValueError("at least one level is required")
        guard = min(self.max_level_guard, MAX_LEVEL)
        for level in self.levels:
            if level < 0 or level > guard:
                raise ValueError(
                    f"level {level} outside the allowed range [0, {guard}] "
                    f"(raise --max-level-guard for deeper meshes)")
        for nu in self.nu_values:
            poisson_to_lambda(nu)
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance}")


@dataclass
class BenchCell:
    pair: str
    level: int
    nu: float
    lam: float
    iterations: int | None = None
    condition: float | None = None
    l2_error: float | None = None
    h1_error: float | None = None
    wall_time: float | None = None
    residual_history: list = field(default_factory=list)
    error: str | None = None


@dataclass
class BenchResult:
    config: ExperimentConfig
    cells: list
    version: str = __version__

    def cell(self, pair: str, level: int, nu: float) -> BenchCell:
        for c in self.cells:
            if c.pair == pair and c.level == level and np.isclose(c.nu, nu):
                return c
        raise KeyError(f"no cell for ({pair}, L={level}, nu={nu})")


@dataclass
class PreparedCase:
    """Assembled, factored and ready-to-solve problem for one (pair, level)."""

    pair: str
    level: int
    reduced: object
    a_factor: object
    projector: object
    problem: ManufacturedProblem
    projection: str = "diagonal"

    def operator(self, lam: float):
        return lambda v: self.reduced.apply_lambda(lam, v, self.projection)

    def preconditioner(self, lam: float) -> Preconditioner:
        return Preconditioner(lam, self.a_factor, self.projector)

    def rhs(self, lam: float):
        return self.reduced.rhs(lam, self.projection)


def pressure_kind(pair: str) -> str:
    if pair not in PAIRS:
        raise ValueError(f"unknown element pair {pair!r}")
    return "p0" if pair == "p2p0" else "p1"


def prepare_case(level: int, pair: str = "p2p0",
                 problem: ManufacturedProblem | None = None,
                 projection: str = "diagonal") -> PreparedCase:
    """Assemble and factor everything lam-independent for one case."""
    problem = problem if problem is not None else ManufacturedProblem()
    # the full-dof system is a temporary, freed before the factorizations run
    reduced = apply_dirichlet(
        assemble_system(build_uniform_mesh(level), pressure_kind(pair), problem),
        problem)
    return PreparedCase(
        pair=pair, level=level, reduced=reduced,
        a_factor=factor_spd(reduced.A), projector=build_projector(reduced),
        problem=problem, projection=projection)


def solve_cell(case: PreparedCase, nu: float, tolerance: float = 1e-6) -> BenchCell:
    """Solve one (pair, level, nu) cell and fill in its statistics."""
    lam = poisson_to_lambda(nu)
    cell = BenchCell(pair=case.pair, level=case.level, nu=nu, lam=lam)
    started = time.perf_counter()
    try:
        op = case.operator(lam)
        precond = case.preconditioner(lam)
        rhs = case.rhs(lam)
        x, report = pcg_solve(op, rhs, precond, tol=tolerance)
        cell.iterations = report.iterations
        cell.residual_history = [float(r) for r in report.residual_history]
        cell.condition = sharpened_condition_estimate(op, rhs, precond, report=report)
        full = case.reduced.expand(x)
        cell.l2_error, cell.h1_error = compute_errors(full, case.problem, case.reduced.V)
    except (PcgConvergenceError, SingularMatrixError, NotSpdError) as exc:
        cell.error = str(exc)
    cell.wall_time = time.perf_counter() - started
    return cell


def run_table_experiment(config: ExperimentConfig,
                         problem: ManufacturedProblem | None = None) -> BenchResult:
    """Fill the full (pair, level, nu) grid of the configuration."""
    cells = []
    for pair in config.pairs:
        for level in config.levels:
            case = prepare_case(level, pair, problem, config.projection)
            for nu in config.nu_values:
                cells.append(solve_cell(case, nu, config.tolerance))
    return BenchResult(config=config, cells=cells)


# ---------------------------------------------------------------------------
# report emission


def emit_report(result: BenchResult, fmt: str) -> str:
    """Render a result as ``"markdown"``, ``"csv"`` or ``"json"``."""
    if fmt == "markdown":
        return _emit_markdown(result)
    if fmt == "csv":
        return _emit_csv(result)
    if fmt == "json":
        return _emit_json(result)
    raise ValueError(f"unknown report format {fmt!r}")


def _cell_text(cell: BenchCell, kind: str) -> str:
    if cell.error is not None:
        return "failed"
    if kind == "iterations":
        return str(cell.iterations)
    return f"{cell.condition:.2f}"


def _emit_markdown(result: BenchResult) -> str:
    cfg = result.config
    out = [f"# Preconditioned elasticity benchmark (tol = {cfg.tolerance:g})", ""]
    for pair in cfg.pairs:
        for kind, title in (("iterations", "Iterations"),
                            ("condition", "Condition number of the preconditioned operator")):
            out.append(f"## {title} ({pair})")
            out.append("")
            header = ["h = 2^-L"] + [f"ν = {nu:g}" for nu in cfg.nu_values]
            out.append("| " + " | ".join(header) + " |")
            out.append("|" + "---|" * len(header))
            for level in cfg.levels:
                row = [f"L = {level}"]
                for nu in cfg.nu_values:
                    row.append(_cell_text(result.cell(pair, level, nu), kind))
                out.append("| " + " | ".join(row) + " |")
            out.append("")
    return "\n".join(out)


def _emit_csv(result: BenchResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pair", "level", "nu", "lambda", "iterations",
                     "condition", "l2_error", "h1_error", "error"])
    for c in result.cells:
        writer.writerow([
            c.pair, c.level, repr(c.nu), repr(c.lam),
            "" if c.iterations is None else c.iterations,
            "" if c.condition is None else repr(c.condition),
            "" if c.l2_error is None else repr(c.l2_error),
            "" if c.h1_error is None else repr(c.h1_error),
            c.error or "",
        ])
    return buf.getvalue()


def _emit_json(result: BenchResult) -> str:
    payload = {
        "version": result.version,
        "config": asdict(result.config),
        "cells": [asdict(c) for c in result.cells],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# verification suite


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def _random_modes(rng: np.random.Generator, count: int, dim: int):
    for _ in range(count):
        xi = rng.uniform(-10.0, 10.0, size=dim)
        while np.linalg.norm(xi) < 0.5:
            xi = rng.uniform(-10.0, 10.0, size=dim)
        fhat = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        yield xi, fhat


def _check_fourier_convex(rng) -> str:
    worst_raw = worst_scaled = 0.0
    for dim in (2, 3):
        lams = 10.0 ** rng.uniform(-2.0, 8.0, size=500)
        lams[:10] = 0.0
        for (xi, fhat), lam in zip(_random_modes(rng, 500, dim), lams):
            res = fourier.verify_convex_combination(xi, lam, fhat)
            scale = np.linalg.norm(fhat) / (xi @ xi)
            worst_raw = max(worst_raw, res)
            worst_scaled = max(worst_scaled, res / scale)
    assert worst_raw <= 1e-12, f"raw residual {worst_raw:.3e} exceeds 1e-12"
    assert worst_scaled <= 1e-13, f"scaled residual {worst_scaled:.3e} exceeds 1e-13"
    return f"max residual {worst_raw:.3e} (scaled {worst_scaled:.3e}) over 1000 modes"


def _check_fourier_idempotent(rng) -> str:
    worst = 0.0
    for dim in (2, 3):
        for xi, _ in _random_modes(rng, 250, dim):
            t = float(rng.choice([rng.uniform(-0.99, 2.0), 10.0 ** rng.uniform(0.0, 6.0)]))
            res = fourier.verify_inverse_idempotent(t, xi)
            worst = max(worst, res / (1.0 + abs(t)))
    assert worst <= 1e-13, f"scaled idempotent residual {worst:.3e} exceeds 1e-13"
    return f"max scaled residual {worst:.3e} over 500 draws"


def _check_fourier_stokes(rng) -> str:
    worst = 0.0
    for dim in (2, 3):
        for xi, fhat in _random_modes(rng, 250, dim):
            res = fourier.stokes_symbol_residual(xi, fhat)
            worst = max(worst, res / np.linalg.norm(fhat))
            uhat, _ = fourier.solve_mode_stokes(xi, fhat)
            incompress = abs(xi @ uhat) / np.linalg.norm(fhat)
            worst = max(worst, incompress)
    assert worst <= 1e-13, f"Stokes symbol residual {worst:.3e} exceeds 1e-13"
    return f"max scaled residual {worst:.3e} over 500 modes"


def _check_fourier_symbol_inverse(rng) -> str:
    worst = 0.0
    for dim in (2, 3):
        for xi, fhat in _random_modes(rng, 250, dim):
            lam = float(10.0 ** rng.uniform(-2.0, 8.0))
            uhat = fourier.solve_mode_elasticity(xi, lam, fhat)
            res = np.linalg.norm(fourier.elasticity_symbol(xi, lam) @ uhat - fhat)
            # scale by the symbol norm ~ (2 lam + 2) |xi|^2 / |xi|^2
            worst = max(worst, res / ((2.0 * lam + 2.0) * np.linalg.norm(fhat)))
    assert worst <= 1e-13, f"scaled symbol inverse residual {worst:.3e} exceeds 1e-13"
    return f"max scaled residual {worst:.3e} over 500 modes"


def _check_projection(cases, rng) -> str:
    worst_idem = worst_div = 0.0
    for case in cases:
        reduced = case.reduced
        for _ in range(20):
            v = rng.standard_normal(reduced.dim)
            pv = case.projector.project(v)
            ppv = case.projector.project(pv)
            anorm = np.sqrt(pv @ (reduced.A @ pv))
            diff = ppv - pv
            worst_idem = max(worst_idem, np.sqrt(diff @ (reduced.A @ diff)) / anorm)
            worst_div = max(worst_div, np.linalg.norm(reduced.B @ pv) / anorm)
    assert worst_idem <= 1e-10, f"projection idempotency defect {worst_idem:.3e}"
    assert worst_div <= 1e-10, f"projected divergence {worst_div:.3e}"
    return f"idempotency {worst_idem:.3e}, divergence {worst_div:.3e}"


def _check_one_step_projection(case, rng) -> str:
    reduced = case.reduced
    worst = 0.0
    for _ in range(10):
        g = rng.standard_normal(reduced.dim)
        one = case.projector.project_dual(g)
        two = case.projector.project(case.a_factor.solve(g))
        scale = np.sqrt(one @ (reduced.A @ one))
        diff = one - two
        worst = max(worst, np.sqrt(diff @ (reduced.A @ diff)) / scale)
    assert worst <= 1e-10, f"one-step vs two-step projection differ by {worst:.3e}"
    return f"max A-norm difference {worst:.3e}"


def _check_norm_equivalence(cases, inf_sup, rng) -> str:
    details = []
    for case in cases:
        reduced = case.reduced
        report = inf_sup[case.pair][case.level]
        for _ in range(50):
            v = rng.standard_normal(reduced.dim)
            verify_norm_equivalence(reduced, case.projector, report.beta_h, v)
        details.append(f"{case.pair}@L{case.level}: beta_h={report.beta_h:.4f}")
    return "; ".join(details)


def _check_inf_sup(inf_sup) -> str:
    details = []
    for pair, reports in inf_sup.items():
        betas = {}
        for level, r in reports.items():
            assert r.beta_h > 0.0, f"{pair}: inf-sup constant not positive"
            assert r.theta_max <= 2.0 + 1e-8, \
                f"{pair}@L{level}: theta_max {r.theta_max:.6f} exceeds 2"
            betas[level] = r.beta_h
        levels = sorted(betas)
        spread = abs(betas[levels[-1]] - betas[levels[0]]) / betas[levels[-1]]
        assert spread < 0.2, f"{pair}: inf-sup varies by {spread:.1%} across levels"
        details.append(f"{pair}: " + ", ".join(f"L{l}={betas[l]:.4f}" for l in levels))
    return "; ".join(details)


def _check_preconditioner_symmetry(case, rng) -> str:
    reduced = case.reduced
    precond = case.preconditioner(poisson_to_lambda(0.4999))
    worst = 0.0
    for _ in range(10):
        g1 = rng.standard_normal(reduced.dim)
        g2 = rng.standard_normal(reduced.dim)
        left = g2 @ precond.apply(g1)
        right = g1 @ precond.apply(g2)
        worst = max(worst, abs(left - right) / max(abs(left), abs(right)))
    assert worst <= 1e-12, f"preconditioner asymmetry {worst:.3e}"
    return f"max relative asymmetry {worst:.3e}"


def _check_dense_cross_check(cases) -> str:
    details = []
    for case in cases:
        cell = solve_cell(case, 0.4999)
        assert cell.error is None, f"{case.pair}@L{case.level}: {cell.error}"
        lanczos = cell.condition
        spectrum = dense_preconditioned_spectrum(case.reduced, cell.lam,
                                                 case.a_factor, case.projector,
                                                 case.projection)
        dense = spectrum[-1] / spectrum[0]
        rel = abs(lanczos - dense) / dense
        assert rel <= 0.05, (
            f"{case.pair}@L{case.level}: Lanczos {lanczos:.4f} vs dense {dense:.4f} "
            f"differ by {rel:.1%}")
        details.append(f"{case.pair}@L{case.level}: {lanczos:.3f} vs {dense:.3f}")
    return "; ".join(details)


def _check_exact_inverse_identity(case) -> str:
    reduced = case.reduced
    lam = 7.5
    n = reduced.dim
    m = dense_preconditioner_matrix(reduced, lam, case.a_factor, case.projector)
    m_inv = np.linalg.inv(m)
    a = reduced.A.toarray()
    p = case.projector.project_dual(reduced.A @ np.eye(n))
    expected = a + lam * (a @ (np.eye(n) - p))
    expected = 0.5 * (expected + expected.T)
    rel = np.linalg.norm(m_inv - expected) / np.linalg.norm(expected)
    assert rel <= 1e-8, f"inverse identity defect {rel:.3e}"
    return f"relative defect {rel:.3e}"


def _check_lambda_zero(case) -> str:
    cell = solve_cell(case, 0.0)
    assert cell.error is None, f"{case.pair}@L{case.level}: {cell.error}"
    assert cell.iterations == 1, \
        f"exact-inverse preconditioning took {cell.iterations} iterations"
    cond = cell.condition
    assert abs(cond - 1.0) <= 1e-6, f"condition at lambda=0 is {cond}"
    return f"1 iteration, condition {cond:.12f}"


def _check_lambda_uniformity(cases) -> str:
    details = []
    for case in cases:
        conds = {}
        for lam in (1.0, 1e2, 1e4, 1e6):
            rhs = case.rhs(lam)
            conds[lam] = sharpened_condition_estimate(case.operator(lam), rhs,
                                                      case.preconditioner(lam))
        bound = 1.2 * conds[1e6]
        assert all(c <= bound for c in conds.values()), \
            f"{case.pair}: condition not uniformly bounded: {conds}"
        details.append(f"{case.pair}: " +
                       ", ".join(f"{lam:g}->{c:.3f}" for lam, c in conds.items()))
    return "; ".join(details)


def _fourier_checks(rng) -> list:
    return [
        ("fourier-convex-combination", lambda: _check_fourier_convex(rng)),
        ("fourier-inverse-idempotent", lambda: _check_fourier_idempotent(rng)),
        ("fourier-stokes-symbol", lambda: _check_fourier_stokes(rng)),
        ("fourier-symbol-inverse", lambda: _check_fourier_symbol_inverse(rng)),
    ]


def _run_checks(checks) -> list[CheckOutcome]:
    outcomes = []
    for name, fn in checks:
        try:
            outcomes.append(CheckOutcome(name, True, fn()))
        except AssertionError as exc:
            outcomes.append(CheckOutcome(name, False, str(exc)))
    return outcomes


def run_fourier_checks(seed: int = 0) -> list[CheckOutcome]:
    """Run the periodic-mode checks that open the verification suite."""
    return _run_checks(_fourier_checks(np.random.default_rng(seed)))


def run_verification_suite(seed: int = 0) -> list[CheckOutcome]:
    """Run every identity/property check; returns one outcome per check."""
    rng = np.random.default_rng(seed)
    cases = {(pair, level): prepare_case(level, pair)
             for pair in PAIRS for level in (2, 3)}
    l2 = [cases[("p2p0", 2)], cases[("p2p1", 2)]]
    l23 = list(cases.values())
    l3 = [cases[("p2p0", 3)], cases[("p2p1", 3)]]
    inf_sup = {pair: {} for pair in PAIRS}
    for (pair, level), case in cases.items():
        red = case.reduced
        inf_sup[pair][level] = measure_inf_sup(red.A, red.B, red.MQ)

    return _run_checks(_fourier_checks(rng) + [
        ("projection-idempotent-and-divergence", lambda: _check_projection(l23, rng)),
        ("projection-one-step-equals-two-step",
         lambda: _check_one_step_projection(cases[("p2p0", 2)], rng)),
        ("norm-equivalence", lambda: _check_norm_equivalence(l23, inf_sup, rng)),
        ("inf-sup", lambda: _check_inf_sup(inf_sup)),
        ("preconditioner-symmetry",
         lambda: _check_preconditioner_symmetry(cases[("p2p1", 2)], rng)),
        ("dense-spectrum-cross-check", lambda: _check_dense_cross_check(l2)),
        ("exact-inverse-identity",
         lambda: _check_exact_inverse_identity(cases[("p2p0", 2)])),
        ("lambda-zero-exact", lambda: _check_lambda_zero(cases[("p2p0", 3)])),
        ("lambda-uniformity", lambda: _check_lambda_uniformity(l3)),
    ])
