"""The benchmark workloads and the correctness gate that checks their output.

Each workload is a function of its inputs that calls the public elastprec
API, and an input generator that takes the workload seed.  Why each workload
exists is written down in perfbench/README.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import elastprec.bench as bench
import elastprec.solver as solver
from elastprec.solver import PcgConvergenceError
from elastprec.sparse_linalg import NotSpdError, SingularMatrixError

TOLERANCE = 1e-6
SOLVE_LEVEL = 6
SOLVE_NU = 0.4999
SWEEP_LEVEL = 5
SWEEP_COUNT = 16
SWEEP_NU_RANGE = (0.25, 0.4999)
# Locking-free: the H1 error of one (pair, level) may vary this much with nu,
# and may differ this much from the reference of the seed commit.
H1_REL_TOL = 0.01

_REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "reference.json")


@dataclass
class Solve:
    """One gated unit of work: a table cell, or one tolerance-driven solve."""

    pair: str
    level: int
    nu: float
    lam: float
    error: str | None
    x: np.ndarray | None = None
    rhs: np.ndarray | None = None
    h1_error: float | None = None
    iterations: int | None = None
    condition: float | None = None


@dataclass(frozen=True)
class SolveInputs:
    """Fixed inputs of ``solve-L6``: one tolerance-driven solve per pair."""

    level: int = SOLVE_LEVEL
    nu: float = SOLVE_NU
    pairs: tuple = bench.PAIRS
    tolerance: float = TOLERANCE


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object        # seed -> workload inputs
    run: object           # inputs -> raw output (the timed library calls)
    solves: object        # (raw output, recorder) -> list[Solve], untimed
    solve_span: str       # the span whose time is ``solve_s``
    seeded: bool


def sweep_nu_values(seed: int) -> tuple:
    """``SWEEP_COUNT`` Poisson ratios with lam log-uniform over the range.

    One draw per equal-width stratum of log(lam), so every seed covers the
    whole range and the share of cells below PCG's 10-step condition-rerun
    threshold barely moves between seeds.
    """
    rng = np.random.default_rng(seed)
    lo, hi = (np.log(bench.poisson_to_lambda(nu)) for nu in SWEEP_NU_RANGE)
    edges = np.linspace(lo, hi, SWEEP_COUNT + 1)
    lam = np.exp(edges[:-1] + rng.uniform(size=SWEEP_COUNT) * np.diff(edges))
    return tuple(float(v) for v in lam / (1.0 + 2.0 * lam))


def _table_solves(result, recorder) -> list:
    if len(recorder.solved) != len(result.cells):
        raise RuntimeError(f"{len(result.cells)} cells but "
                           f"{len(recorder.solved)} solve_cell calls were seen")
    out = []
    for cell, solution in recorder.solved:
        x, rhs = solution if solution is not None else (None, None)
        out.append(Solve(cell.pair, cell.level, cell.nu, cell.lam, cell.error,
                         x, rhs, cell.h1_error, cell.iterations, cell.condition))
    return out


def _run_solve(inputs: SolveInputs) -> list:
    out = []
    lam = bench.poisson_to_lambda(inputs.nu)
    for pair in inputs.pairs:
        case = bench.prepare_case(inputs.level, pair)
        rhs = case.rhs(lam)
        try:
            x, report = solver.pcg_solve(case.operator(lam), rhs,
                                         case.preconditioner(lam), tol=inputs.tolerance)
        except (PcgConvergenceError, SingularMatrixError, NotSpdError) as exc:
            out.append(Solve(pair, inputs.level, inputs.nu, lam, str(exc)))
        else:
            out.append(Solve(pair, inputs.level, inputs.nu, lam, None, x, rhs,
                             iterations=report.iterations))
        del case
    return out


def _solve_solves(solves, recorder) -> list:
    for s in solves:
        if s.x is not None:
            case = recorder.cases[(s.pair, s.level)]
            full = case["reduced"].expand(s.x)
            _, s.h1_error = bench.compute_errors(full, case["problem"],
                                                 case["reduced"].V)
    return solves


WORKLOADS = {
    w.name: w for w in (
        Workload("table", lambda seed: bench.ExperimentConfig(),
                 bench.run_table_experiment, _table_solves,
                 "bench.solve_cell", seeded=False),
        Workload("solve-L6", lambda seed: SolveInputs(), _run_solve, _solve_solves,
                 "solver.pcg_solve", seeded=False),
        Workload("sweep-L5",
                 lambda seed: bench.ExperimentConfig(
                     levels=(SWEEP_LEVEL,), nu_values=sweep_nu_values(seed)),
                 bench.run_table_experiment, _table_solves,
                 "bench.solve_cell", seeded=True),
    )
}


def warm_up() -> None:
    """Finish lazy imports and first-call set-up on the smallest case."""
    for pair in bench.PAIRS:
        bench.solve_cell(bench.prepare_case(2, pair), SOLVE_NU, TOLERANCE)


def load_reference() -> dict:
    with open(_REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["h1_error"]


def gate(solves, recorder, reference) -> list:
    """Reasons each solve fails the correctness gate (empty list: it passed).

    A solve fails if it raised or did not converge, if its recomputed
    relative residual ``||b - A_lam x|| / ||b||`` exceeds the tolerance, if
    its H1 error is off the reference for its (pair, level), or if the H1
    errors of its (pair, level) are not uniform in nu.
    """
    reasons = [[] for _ in solves]
    groups: dict = {}
    for s, why in zip(solves, reasons):
        if s.error is not None or s.x is None:
            why.append(f"did not converge: {s.error}")
            continue
        case = recorder.cases[(s.pair, s.level)]
        a_lam = case["reduced"].lambda_matrix(s.lam, case["projection"])
        residual = np.linalg.norm(s.rhs - a_lam @ s.x) / np.linalg.norm(s.rhs)
        if not residual <= TOLERANCE:
            why.append(f"relative residual {residual:.3e} > {TOLERANCE:g}")
        ref = reference.get(s.pair, {}).get(str(s.level))
        if ref is None:
            why.append("no reference H1 error for this (pair, level)")
        elif not abs(s.h1_error / ref - 1.0) <= H1_REL_TOL:
            why.append(f"H1 error {s.h1_error:.6e} vs reference {ref:.6e}")
        groups.setdefault((s.pair, s.level), []).append(s.h1_error)
    for s, why in zip(solves, reasons):
        h1 = groups.get((s.pair, s.level))
        if h1 and not max(h1) <= (1.0 + H1_REL_TOL) * min(h1):
            why.append(f"H1 error not uniform in nu: {min(h1):.6e}..{max(h1):.6e}")
    return reasons
