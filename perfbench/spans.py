"""In-memory span recording around elastprec's public functions.

The recorder patches a function where its caller looks it up (a module
global such as ``elastprec.bench.prepare_case`` or a class attribute such as
``Factorization.solve``), records one span per call and restores every
original on ``restore``.  Spans stay in memory; run.py writes them out
when the run ends.  A span is the list
``[name, start, end, parent, run_id, extra]`` where ``parent`` is the index
of the enclosing span in the same recorder (``None`` at top level) and
``extra`` holds counts read off the call (fill, columns, iterations).
"""

from __future__ import annotations

import time
from collections import defaultdict

import elastprec.bench as bench
import elastprec.fem as fem
import elastprec.solver as solver
import elastprec.sparse_linalg as sparse_linalg

NAME, START, END, PARENT, RUN, EXTRA = range(6)


class Recorder:
    """Spans of one workload repetition, plus what the correctness gate needs."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list = []
        self.cases: dict = {}        # (pair, level) -> case facts, no factors
        self.solved: list = []       # (BenchCell, (x, rhs) or None), call order
        self.last_solution = None    # (x, rhs) of the latest tolerance solve
        self.roles: dict = {}        # id(Factorization) -> "A" | "saddle"
        self._stack: list = []
        self._patched: list = []

    def patch(self, owner, attr: str, name, hook=None) -> None:
        """Wrap ``owner.attr``; ``name`` is a string or ``f(recorder, args) -> str``."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        run_id = self.run_id

        def wrapper(*args, **kwargs):
            span = [name(self, args) if callable(name) else name,
                    time.perf_counter(), None,
                    stack[-1] if stack else None, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def install(self, traced: bool) -> None:
        """Stage spans always; every layer boundary when ``traced``."""
        self.patch(bench, "prepare_case", "bench.prepare_case", _on_case)
        self.patch(bench, "solve_cell", "bench.solve_cell", _on_cell)
        self.patch(bench, "pcg_solve", "solver.pcg_solve", _on_pcg)
        self.patch(solver, "pcg_solve", "solver.pcg_solve", _on_pcg)
        if not traced:
            return
        self.patch(bench, "build_uniform_mesh", "mesh.build")
        self.patch(bench, "assemble_system", "fem.assemble")
        self.patch(bench, "apply_dirichlet", "fem.dirichlet")
        self.patch(bench, "factor_spd", "sparse_linalg.factor_A", _factor_hook("A"))
        self.patch(bench, "build_projector", "solver.build_projector")
        self.patch(solver, "factor_symmetric_indefinite",
                   "sparse_linalg.factor_saddle", _factor_hook("saddle"))
        self.patch(bench, "sharpened_condition_estimate", "solver.condest")
        self.patch(bench, "compute_errors", "fem.errors")
        self.patch(sparse_linalg.Factorization, "solve", _solve_name, _on_solve)
        self.patch(solver.Preconditioner, "apply", "solver.precond_apply")
        self.patch(fem.ReducedSystem, "apply_lambda", "fem.op_apply")


def _on_case(rec, span, args, kwargs, case):
    rec.cases[(case.pair, case.level)] = {
        "reduced": case.reduced, "problem": case.problem,
        "projection": case.projection, "velocity_dofs": int(case.reduced.dim),
        "fill_A_nnz": int(case.a_factor._lu.nnz),
        "fill_saddle_nnz": int(case.projector.factorization._lu.nnz)}


def _on_pcg(rec, span, args, kwargs, result):
    x, report = result
    forced = kwargs.get("force_iterations") is not None
    span[EXTRA] = {"forced": forced, "iterations": int(report.iterations)}
    if not forced:
        rec.last_solution = (x, args[1] if len(args) > 1 else kwargs["rhs"])


def _on_cell(rec, span, args, kwargs, cell):
    rec.solved.append((cell, rec.last_solution))
    rec.last_solution = None


def _factor_hook(role):
    def hook(rec, span, args, kwargs, factorization):
        rec.roles[id(factorization)] = role
        span[EXTRA] = {"nnz": int(factorization._lu.nnz)}
    return hook


def _solve_name(rec, args):
    return "sparse_linalg.solve_" + rec.roles.get(id(args[0]), "other")


def _on_solve(rec, span, args, kwargs, result):
    span[EXTRA] = {"cols": 1 if result.ndim == 1 else int(result.shape[1])}


def self_times(spans) -> list:
    """Duration of each span minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def stage_seconds(spans, name: str) -> float:
    """Seconds in top-level spans of one name."""
    return sum(s[END] - s[START] for s in spans
               if s[NAME] == name and s[PARENT] is None)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced repetition (see perfbench/README.md)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s[NAME]] += s[END] - s[START]
        calls[s[NAME]] += 1
    selfs = self_times(spans)
    pcg = [s for s in spans if s[NAME] == "solver.pcg_solve" and s[EXTRA]]
    forced = [s for s in pcg if s[EXTRA]["forced"]]
    tolerance = [s for s in pcg if not s[EXTRA]["forced"]]

    def fill(name):
        return max((s[EXTRA]["nnz"] for s in spans if s[NAME] == name), default=0)

    return {
        "mesh.build_s": total["mesh.build"],
        "fem.assemble_s": total["fem.assemble"],
        "fem.dirichlet_s": total["fem.dirichlet"],
        "fem.op_apply_calls": calls["fem.op_apply"],
        "fem.op_apply_s": total["fem.op_apply"],
        "fem.errors_s": total["fem.errors"],
        "sparse_linalg.factor_A_s": total["sparse_linalg.factor_A"],
        "sparse_linalg.factor_saddle_s": total["sparse_linalg.factor_saddle"],
        "sparse_linalg.fill_A_nnz": fill("sparse_linalg.factor_A"),
        "sparse_linalg.fill_saddle_nnz": fill("sparse_linalg.factor_saddle"),
        "sparse_linalg.solve_A_calls": calls["sparse_linalg.solve_A"],
        "sparse_linalg.solve_A_s": total["sparse_linalg.solve_A"],
        "sparse_linalg.solve_saddle_calls": calls["sparse_linalg.solve_saddle"],
        "sparse_linalg.solve_saddle_s": total["sparse_linalg.solve_saddle"],
        "sparse_linalg.solve_cols": sum(s[EXTRA]["cols"] for s in spans
                                        if s[NAME].startswith("sparse_linalg.solve_")),
        "solver.build_projector_s": total["solver.build_projector"],
        "solver.pcg_iterations": sum(s[EXTRA]["iterations"] for s in tolerance),
        "solver.precond_apply_calls": calls["solver.precond_apply"],
        "solver.precond_apply_s": total["solver.precond_apply"],
        "solver.pcg_self_s": sum(t for s, t in zip(spans, selfs)
                                 if s[NAME] == "solver.pcg_solve"),
        "solver.condest_s": total["solver.condest"],
        "solver.condest_forced_runs": len(forced),
        "solver.condest_forced_iterations": sum(s[EXTRA]["iterations"] for s in forced),
    }


def self_time_summary(spans) -> dict:
    """Total and self seconds and call count per span name."""
    out: dict = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += self_s
    return out
