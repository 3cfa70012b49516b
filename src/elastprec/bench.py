"""Benchmark tables and the release verification suite.

``run_table_experiment`` sweeps (element pair, level, Poisson ratio) cells,
solving the manufactured problem with the projection preconditioner and
recording iteration counts, condition numbers and discretization errors.
``run_verification_suite`` executes the analytic and algebraic identity
checks that gate a release.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import __version__, fourier
from .fem import (DEFAULT_PROJECTION, PROJECTION_MODES, ManufacturedProblem,
                  ReducedStiffness, apply_dirichlet, assemble_system,
                  compute_errors)
from .mesh import MAX_LEVEL, build_uniform_mesh, check_memory
from .solver import (PcgConvergenceError, PencilBounds, Preconditioner,
                     SpectrumError, build_projector, dense_preconditioned_spectrum,
                     dense_preconditioner_matrix, pcg_solve, schur_pencil_bounds,
                     verify_norm_equivalence)
from .sparse_linalg import (Factorization, NotSpdError, SingularMatrixError,
                            factor_spd)

PAIRS = ("p2p0", "p2p1")
LEVELS_DEFAULT = (2, 3, 4, 5)
NU_DEFAULT = (0.25, 0.4, 0.49, 0.499, 0.4999)
# levels at which ``verify`` measures the inf-sup constant of both pairs
_INF_SUP_LEVELS = (2, 3, 4, 5)

# Typed numerical failures: a bench cell records them, a verify check fails.
_NUMERICAL_ERRORS = (PcgConvergenceError, SingularMatrixError, NotSpdError,
                     SpectrumError)

# Peak RSS of a bench run, at its finest level since a level's part is freed
# before the next: the imports (62 MiB), then the factors of A and of one
# saddle, whose fill grows like cells * log2(cells).  Fresh processes of
# ``bench --levels L..L --nu 0.4999`` peaked (RUSAGE_CHILDREN) at 67, 74, 110,
# 297-303 and 1097-1162 MiB at L3-L7; these constants predict 1.1-1.3x at L5-L7.
_RUN_BASE_BYTES = 70 * 2**20
_RUN_BYTES_PER_CELL_LOG = 2800


def _check_run_level(level: int) -> None:
    """Raise ``ValueError`` for a level outside ``[0, MAX_LEVEL]`` or whose
    predicted bench-run peak does not fit in physical memory."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level {level} outside the allowed range [0, {MAX_LEVEL}]")
    cells = 2 * 4**level  # log2(cells) = 2 level + 1
    check_memory(_RUN_BASE_BYTES + _RUN_BYTES_PER_CELL_LOG * cells * (2 * level + 1),
                 f"a level-{level} bench run")


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
    projection: str = DEFAULT_PROJECTION

    def __post_init__(self):
        if self.projection not in PROJECTION_MODES:
            raise ValueError(f"unknown projection mode {self.projection!r}")
        object.__setattr__(self, "pairs", tuple(self.pairs))
        levels = tuple(self.levels)
        for level in levels:
            if isinstance(level, (bool, np.bool_)) or not float(level).is_integer():
                raise ValueError(f"level {level!r} is not an integer")
        object.__setattr__(self, "levels", tuple(int(l) for l in levels))
        object.__setattr__(self, "nu_values", tuple(float(n) for n in self.nu_values))
        for pair in self.pairs:
            if pair not in PAIRS:
                raise ValueError(f"unknown element pair {pair!r}; expected one of {PAIRS}")
        # a repeated entry would solve its cells twice and print them twice
        for name, values in (("element pair", self.pairs), ("level", self.levels),
                             ("Poisson ratio", self.nu_values)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} {repeated[0]!r} is listed more than once")
        if not self.levels:
            raise ValueError("at least one level is required")
        for level in self.levels:
            _check_run_level(level)
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
class BenchSetup:
    """Set-up time, factor fill, nnz(L+U), and Schur-pencil bounds of one
    (pair, level).

    ``setup_s`` is the wall time of ``prepare_case``.  The first pair of a
    level builds the level part that both pairs share (mesh, ``A``, load,
    nested dissection and ``A`` factor), so a later pair's ``setup_s``
    excludes it: only ``B``, ``MQ`` and its saddle factor are built there.
    ``theta_min`` and ``theta_max`` are ``PreparedCase.theta_bounds``, and
    ``pencil_steps`` the Lanczos steps of its run, which equal its ``A``
    solves.  Every field is ``None`` where set-up failed, the pencil fields
    also where the pencil failed or no cell asked for a condition number.
    """

    pair: str
    level: int
    setup_s: float | None = None
    fill_a_nnz: int | None = None
    fill_saddle_nnz: int | None = None
    theta_min: float | None = None
    theta_max: float | None = None
    pencil_steps: int | None = None


@dataclass
class BenchResult:
    config: ExperimentConfig
    cells: list
    setups: list = field(default_factory=list)
    version: str = __version__

    def cell(self, pair: str, level: int, nu: float) -> BenchCell:
        for c in self.cells:
            if c.pair == pair and c.level == level and c.nu == nu:
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

    @property
    def projection(self) -> str:
        """The realization of ``Pi`` that ``reduced`` was coupled with."""
        return self.reduced.projection

    def operator(self, lam: float):
        return lambda v: self.reduced.apply_lambda(lam, v)

    def preconditioner(self, lam: float) -> Preconditioner:
        return Preconditioner(lam, self.a_factor, self.projector)

    def rhs(self, lam: float):
        return self.reduced.rhs(lam)

    @cached_property
    def theta_bounds(self) -> PencilBounds:
        """theta_min and theta_max of ``B A^{-1} B^T q = theta Pi^{-1} q``.

        Computed on the first condition request by one pencil run, and
        kept: one pair serves every lam.  Where ``Pi`` is the L2 projection
        (``reduced.projection_is_l2``), ``||Pi div v|| <= ||eps(v)||`` on
        H^1_0 bounds theta_max by 1, which makes the upper factor of every
        condition number 1, so the run asks only for theta_min and 1.0
        stands in for theta_max.
        """
        l2_projection = self.reduced.projection_is_l2
        bounds = schur_pencil_bounds(self.reduced, self.a_factor, largest=not l2_projection)
        return replace(bounds, theta_max=1.0) if l2_projection else bounds


def pressure_kind(pair: str) -> str:
    if pair not in PAIRS:
        raise ValueError(f"unknown element pair {pair!r}")
    return "p0" if pair == "p2p0" else "p1"


class _LevelPart:
    """The pressure-free set-up of one level, which both pairs share.

    The manufactured problem, the reduced stiffness and load and the factor
    of ``A`` in the stiffness's dissection order, each built the first time
    it is read and then kept.  A build that raises keeps nothing, so the
    next read tries again.  It holds no pressure space and no saddle factor.
    A level whose run would not fit in memory is refused before anything
    is built.
    """

    def __init__(self, level: int):
        _check_run_level(level)
        self.level = level
        self.problem = ManufacturedProblem()

    @cached_property
    def stiffness(self) -> ReducedStiffness:
        # the full-dof system is a temporary, freed before the factorizations run
        return apply_dirichlet(
            assemble_system(build_uniform_mesh(self.level), self.problem), self.problem)

    @cached_property
    def a_factor(self) -> Factorization:
        return factor_spd(self.stiffness.A, self.stiffness.dissection.dof_order)


def prepare_case(level: int, pair: str, projection: str = DEFAULT_PROJECTION, *,
                 _shared: _LevelPart | None = None) -> PreparedCase:
    """Assemble and factor everything lam-independent for one case.

    ``_shared`` is the level part of ``level`` that other pairs' cases
    share; without it the case builds one of its own.  Whatever of the
    part is not built yet, the stiffness factor included, is built here.
    The case's system is coupled with the pressure projection ``projection``.

    The saddle is factored before the part's ``A`` factor is read: its
    order needs only the stiffness's dissection, and its pivot check
    briefly holds SciPy's CSC copies of the saddle's triangular factors.
    On a new part that spike then comes before ``A``'s factor exists,
    which lowers the peak memory of the set-up.
    """
    kind = pressure_kind(pair)
    part = _shared if _shared is not None else _LevelPart(level)
    reduced = part.stiffness.couple(kind, projection)
    projector = build_projector(reduced)
    return PreparedCase(pair=pair, level=level, reduced=reduced, a_factor=part.a_factor,
                        projector=projector, problem=part.problem)


def sharpened_condition_estimate(case: PreparedCase, lam: float) -> float:
    """Condition number of ``M_lam A_lam``, in closed form.

    The spectrum of ``M_lam A_lam`` is ``{1}`` (on ``ker B``) and
    ``(1 + lam theta) / (1 + lam)`` for theta over ``case.theta_bounds``'s
    pencil, so the ratio of its extremes needs only theta_min and
    theta_max.  The name is that of the forced-PCG estimate this
    replaced: the traced mode of ``perfbench`` wraps this module global by
    name to time the condition numbers.
    """
    bounds = case.theta_bounds
    theta_min, theta_max = bounds.theta_min, bounds.theta_max
    return (max(1.0, (1.0 + lam * theta_max) / (1.0 + lam))
            / min(1.0, (1.0 + lam * theta_min) / (1.0 + lam)))


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
        cell.condition = sharpened_condition_estimate(case, lam)
        full = case.reduced.expand(x)
        cell.l2_error, cell.h1_error = compute_errors(full, case.problem, case.reduced.V)
    except _NUMERICAL_ERRORS as exc:
        cell.error = str(exc)
    cell.wall_time = time.perf_counter() - started
    return cell


def _run_pair(config: ExperimentConfig, part: _LevelPart,
              pair: str) -> tuple[BenchSetup, list]:
    """Set up one (pair, level) on the level part ``part`` and solve its cells.

    The case dies on return, so its saddle factor is freed before the next
    pair's is built.
    """
    level = part.level
    setup = BenchSetup(pair=pair, level=level)
    started = time.perf_counter()
    try:
        case = prepare_case(level, pair, config.projection, _shared=part)
    except _NUMERICAL_ERRORS as exc:
        return setup, [BenchCell(pair=pair, level=level, nu=nu,
                                 lam=poisson_to_lambda(nu),
                                 error=f"set-up failed: {exc}")
                       for nu in config.nu_values]
    setup.setup_s = time.perf_counter() - started
    setup.fill_a_nnz = case.a_factor.nnz
    setup.fill_saddle_nnz = case.projector.factorization.nnz
    cells = [solve_cell(case, nu, config.tolerance) for nu in config.nu_values]
    # read without computing: None unless a cell asked for it
    bounds = vars(case).get("theta_bounds")
    if bounds is not None:
        setup.theta_min, setup.theta_max = bounds.theta_min, bounds.theta_max
        setup.pencil_steps = bounds.steps
    return setup, cells


def run_table_experiment(config: ExperimentConfig) -> BenchResult:
    """Fill the full (pair, level, nu) grid of the configuration.

    Levels run outermost.  Every pair of a level is handed one level part,
    which the first pair's ``prepare_case`` builds (mesh, ``A``, load,
    dissection and the factor of ``A``), so ``A`` is factored once per
    level and at most one saddle factor is alive.  Cells and set-ups are
    still listed pair by pair.  Each (pair, level) records one set-up.  A
    (pair, level) whose set-up fails records that error on each of its
    cells, and the sweep goes on.
    """
    grid = [[None] * len(config.levels) for _ in config.pairs]
    for j, level in enumerate(config.levels):
        part = _LevelPart(level)
        for i, pair in enumerate(config.pairs):
            grid[i][j] = _run_pair(config, part, pair)
    runs = [run for row in grid for run in row]
    return BenchResult(config=config, cells=[c for _, cells in runs for c in cells],
                       setups=[setup for setup, _ in runs])


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
            header = ["h = 2^-L"] + [f"ν = {nu!r}" for nu in cfg.nu_values]
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
        "setups": [asdict(s) for s in result.setups],
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


def _require(ok: bool, message: str) -> None:
    """Fail a check with ``message``; unlike ``assert``, also under ``-O``."""
    if not ok:
        raise AssertionError(message)


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
    _require(worst_raw <= 1e-12, f"raw residual {worst_raw:.3e} exceeds 1e-12")
    _require(worst_scaled <= 1e-13, f"scaled residual {worst_scaled:.3e} exceeds 1e-13")
    return f"max residual {worst_raw:.3e} (scaled {worst_scaled:.3e}) over 1000 modes"


def _check_fourier_idempotent(rng) -> str:
    worst = 0.0
    for dim in (2, 3):
        for xi, _ in _random_modes(rng, 250, dim):
            t = float(rng.choice([rng.uniform(-0.99, 2.0), 10.0 ** rng.uniform(0.0, 6.0)]))
            res = fourier.verify_inverse_idempotent(t, xi)
            worst = max(worst, res / (1.0 + abs(t)))
    _require(worst <= 1e-13, f"scaled idempotent residual {worst:.3e} exceeds 1e-13")
    return f"max scaled residual {worst:.3e} over 500 draws"


def _check_fourier_stokes(rng) -> str:
    worst = 0.0
    for dim in (2, 3):
        for xi, fhat in _random_modes(rng, 250, dim):
            # the residual's root-sum-square holds |xi . uhat| as well
            res = fourier.stokes_symbol_residual(xi, fhat)
            worst = max(worst, res / np.linalg.norm(fhat))
    _require(worst <= 1e-13, f"Stokes symbol residual {worst:.3e} exceeds 1e-13")
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
    _require(worst <= 1e-13, f"scaled symbol inverse residual {worst:.3e} exceeds 1e-13")
    return f"max scaled residual {worst:.3e} over 500 modes"


def _a_norm_defect(reduced, x, reference) -> float:
    """``||x - reference||_A / ||reference||_A``."""
    diff = x - reference
    return float(np.sqrt(diff @ (reduced.A @ diff) / (reference @ (reduced.A @ reference))))


def _check_projection(cases, rng) -> str:
    worst_idem = worst_div = 0.0
    for case in cases:
        reduced = case.reduced
        for _ in range(20):
            v = rng.standard_normal(reduced.dim)
            pv = case.projector.project(v)
            worst_idem = max(worst_idem, _a_norm_defect(
                reduced, case.projector.project(pv), pv))
            anorm = np.sqrt(pv @ (reduced.A @ pv))
            worst_div = max(worst_div, np.linalg.norm(reduced.B @ pv) / anorm)
    _require(worst_idem <= 1e-10, f"projection idempotency defect {worst_idem:.3e}")
    _require(worst_div <= 1e-10, f"projected divergence {worst_div:.3e}")
    return f"idempotency {worst_idem:.3e}, divergence {worst_div:.3e}"


def _check_one_step_projection(case, rng) -> str:
    reduced = case.reduced
    worst = 0.0
    for _ in range(10):
        g = rng.standard_normal(reduced.dim)
        one = case.projector.project_dual(g)
        two = case.projector.project(case.a_factor.solve(g))
        worst = max(worst, _a_norm_defect(reduced, two, one))
    _require(worst <= 1e-10, f"one-step vs two-step projection differ by {worst:.3e}")
    return f"max A-norm difference {worst:.3e}"


def _check_projected_operator(cases, rng) -> str:
    """The identities PCG's recurrences rest on: ``P A^{-1} A_lam v = P v``
    and, since the lam-part of the load lies in the range of ``B^T``,
    ``P A^{-1} rhs(lam) = P A^{-1} rhs_const``."""
    worst = dict.fromkeys((0.5, 2499.5), 0.0)
    worst_load = dict.fromkeys(worst, 0.0)
    for lam in worst:
        for case in cases:
            reduced = case.reduced
            for _ in range(5):
                v = rng.standard_normal(reduced.dim)
                worst[lam] = max(worst[lam], _a_norm_defect(
                    reduced, case.projector.project_dual(
                        reduced.apply_lambda(lam, v)),
                    case.projector.project(v)))
            worst_load[lam] = max(worst_load[lam], _a_norm_defect(
                reduced, case.projector.project_dual(case.rhs(lam)),
                case.projector.project_dual(reduced.rhs_const)))
    detail = ", ".join(f"{defect:.3e} at lambda {lam:g}" for lam, defect in worst.items())
    detail_load = ", ".join(f"{defect:.3e} at lambda {lam:g}"
                            for lam, defect in worst_load.items())
    _require(max(worst.values()) <= 1e-10, f"P A^-1 A_lam v differs from P v by {detail}")
    _require(max(worst_load.values()) <= 1e-10,
             f"P A^-1 rhs(lam) differs from P A^-1 rhs_const by {detail_load}")
    levels = sorted({case.level for case in cases})
    return (f"max relative A-norm defect {detail} "
            f"({len(cases)} cases at L{levels[0]}-L{levels[-1]}, 5 vectors each); "
            f"load P A^-1 rhs(lambda) vs P A^-1 rhs_const: {detail_load}")


def _check_norm_equivalence(cases, exact, pencil, rng) -> str:
    """The two-sided bound on every case; ``||Pi_h div v||`` and beta_h both
    read the exact-projection system ``exact(pair, level)``."""
    details = []
    for case in cases:
        reduced = exact(case.pair, case.level)
        beta_h = float(np.sqrt(pencil(case.pair, case.level).theta_min))
        for _ in range(50):
            v = rng.standard_normal(reduced.dim)
            verify_norm_equivalence(reduced, case.projector, beta_h, v)
        details.append(f"{case.pair}@L{case.level}: beta_h={beta_h:.4f}")
    return "; ".join(details)


def _check_inf_sup(pencil) -> str:
    """beta_h of both pairs at ``_INF_SUP_LEVELS`` and theta_max <= 1.

    beta_h is ``sqrt(theta_min)`` of the exact-projection pencil
    ``B A^{-1} B^T q = theta MQ q``, and ``pencil(pair, level)`` its bounds,
    theta_max included at L2-L3 only.  Beyond L3 the top end of the pencil
    crowds towards 1, and a run that also reads theta_max is costly: 329 /
    226 ``A`` solves at L4 and 1185 / 752 at L5 (p2p0 / p2p1), the last
    past the run's step cap.  So the finer levels read beta_h alone, from a
    run that asks only for the low end (34 / 30 solves at L5); no saddle is
    factored for them.  theta_max <= 1 is ``||Pi div v|| <= ||eps(v)||``,
    which ``PreparedCase.theta_bounds`` assumes on every L2-projection system.
    """
    details = []
    for pair in PAIRS:
        bounds = [pencil(pair, level) for level in _INF_SUP_LEVELS]
        tops = {level: b.theta_max for level, b in zip(_INF_SUP_LEVELS, bounds)
                if b.theta_max is not None}
        for level, top in tops.items():
            _require(top <= 1.0 + 1e-8, f"{pair}@L{level}: theta_max {top:.6f} exceeds 1")
        betas = [float(np.sqrt(b.theta_min)) for b in bounds]
        spread = abs(betas[-1] - betas[0]) / betas[-1]
        _require(spread < 0.2, f"{pair}: inf-sup varies by {spread:.1%} across levels")
        details.append(f"{pair}: beta_h " +
                       ", ".join(f"L{l}={b:.4f}" for l, b in zip(_INF_SUP_LEVELS, betas)) +
                       f", theta_max <= {max(tops.values()):.6f}"
                       f" at L{min(tops)}-L{max(tops)}")
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
    _require(worst <= 1e-12, f"preconditioner asymmetry {worst:.3e}")
    return f"max relative asymmetry {worst:.3e}"


def _check_dense_cross_check(cases) -> str:
    details = []
    for case in cases:
        cell = solve_cell(case, 0.4999)
        _require(cell.error is None, f"{case.pair}@L{case.level}: {cell.error}")
        spectrum = dense_preconditioned_spectrum(case.reduced, cell.lam,
                                                 case.a_factor, case.projector)
        dense = spectrum[-1] / spectrum[0]
        rel = abs(cell.condition - dense) / dense
        _require(rel <= 0.05,
                 f"{case.pair}@L{case.level}: pencil {cell.condition:.4f} vs dense "
                 f"{dense:.4f} differ by {rel:.1%}")
        details.append(f"{case.pair}@L{case.level} ({case.reduced.dim} dofs): "
                       f"{cell.condition:.3f} vs {dense:.3f}")
    return "; ".join(details)


def _check_exact_inverse_identity(case) -> str:
    reduced = case.reduced
    lam = 7.5
    n = reduced.dim
    m = dense_preconditioner_matrix(lam, case.a_factor, case.projector)
    m_inv = np.linalg.inv(m)
    a = reduced.A.toarray()
    p = case.projector.project_dual(reduced.A @ np.eye(n))
    expected = a + lam * (a @ (np.eye(n) - p))
    expected = 0.5 * (expected + expected.T)
    rel = np.linalg.norm(m_inv - expected) / np.linalg.norm(expected)
    _require(rel <= 1e-8, f"inverse identity defect {rel:.3e}")
    return f"relative defect {rel:.3e}"


def _check_lambda_zero(case) -> str:
    cell = solve_cell(case, 0.0)
    _require(cell.error is None, f"{case.pair}@L{case.level}: {cell.error}")
    _require(cell.iterations == 1,
             f"exact-inverse preconditioning took {cell.iterations} iterations")
    cond = cell.condition
    _require(abs(cond - 1.0) <= 1e-6, f"condition at lambda=0 is {cond}")
    return f"1 iteration, condition {cond:.12f}"


def _check_lambda_uniformity(cases) -> str:
    details = []
    for case in cases:
        conds = {lam: sharpened_condition_estimate(case, lam)
                 for lam in (1.0, 1e2, 1e4, 1e6)}
        bound = 1.2 * conds[1e6]
        _require(all(c <= bound for c in conds.values()),
                 f"{case.pair}: condition not uniformly bounded: {conds}")
        details.append(f"{case.pair}: " +
                       ", ".join(f"{lam:g}->{c:.3f}" for lam, c in conds.items()))
    return "; ".join(details)


def _run_checks(checks) -> list[CheckOutcome]:
    outcomes = []
    for name, fn in checks:
        try:
            outcomes.append(CheckOutcome(name, True, fn()))
        except (AssertionError, *_NUMERICAL_ERRORS) as exc:
            outcomes.append(CheckOutcome(name, False, str(exc)))
    return outcomes


def run_verification_suite(seed: int) -> list[CheckOutcome]:
    """Run every identity/property check; returns one outcome per check."""
    rng = np.random.default_rng(seed)
    parts = {level: _LevelPart(level) for level in _INF_SUP_LEVELS}
    cases = {(pair, level): prepare_case(level, pair, _shared=parts[level])
             for pair in PAIRS for level in (2, 3)}
    l23 = list(cases.values())
    l3 = [cases[("p2p0", 3)], cases[("p2p1", 3)]]

    @functools.cache
    def exact(pair, level):
        # the L2-projection system that every beta_h is read off
        return parts[level].stiffness.couple(pressure_kind(pair), "exact")

    @functools.cache
    def pencil(pair, level):
        # read once for both checks that use it; a failure is not cached, so
        # each of them reports it.  theta_max only at the levels of the cases
        return schur_pencil_bounds(exact(pair, level), parts[level].a_factor,
                                   largest=(pair, level) in cases)

    def inf_sup():
        try:
            return _check_inf_sup(pencil)
        finally:  # no later check reads the exact systems or the L4-L5 parts
            exact.cache_clear()
            del parts[4], parts[5]

    return _run_checks([
        ("fourier-convex-combination", lambda: _check_fourier_convex(rng)),
        ("fourier-inverse-idempotent", lambda: _check_fourier_idempotent(rng)),
        ("fourier-stokes-symbol", lambda: _check_fourier_stokes(rng)),
        ("fourier-symbol-inverse", lambda: _check_fourier_symbol_inverse(rng)),
        ("projection-idempotent-and-divergence", lambda: _check_projection(l23, rng)),
        ("projection-one-step-equals-two-step",
         lambda: _check_one_step_projection(cases[("p2p0", 2)], rng)),
        ("norm-equivalence", lambda: _check_norm_equivalence(l23, exact, pencil, rng)),
        ("inf-sup", inf_sup),
        ("preconditioner-symmetry",
         lambda: _check_preconditioner_symmetry(cases[("p2p1", 2)], rng)),
        ("dense-spectrum-cross-check", lambda: _check_dense_cross_check(l23)),
        ("exact-inverse-identity",
         lambda: _check_exact_inverse_identity(cases[("p2p0", 2)])),
        ("lambda-zero-exact", lambda: _check_lambda_zero(cases[("p2p0", 3)])),
        ("lambda-uniformity", lambda: _check_lambda_uniformity(l3)),
        # last, so that the random vectors of the checks above do not move
        ("projected-operator-identity", lambda: _check_projected_operator(l23, rng)),
    ])
