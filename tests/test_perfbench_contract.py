"""The library surface that perfbench patches and calls still holds.

perfbench (the benchmark harness next to ``src/``) wraps module globals and
class attributes of elastprec by name and reads facts off the cases it sees.
These tests run its two benchmark workloads on a small mesh with every
layer traced, so a rename or a signature change in ``src/`` fails here
rather than only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

from elastprec import bench, fem, solver, sparse_linalg

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_INPUTS = {
    "table": bench.ExperimentConfig(levels=(2,)),
    "solve-L6": workloads.SolveInputs(level=2),
}
PATCHED_CLASS_ATTRIBUTES = ((sparse_linalg.Factorization, "solve"),
                            (solver.Preconditioner, "apply"),
                            (fem.ReducedSystem, "apply_lambda"))


def _snapshot():
    """Every global of ``bench`` and ``solver`` and each patched attribute."""
    return ([dict(vars(bench)), dict(vars(solver))]
            + [vars(owner)[attr] for owner, attr in PATCHED_CLASS_ATTRIBUTES])


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(a[k] is b[k] for k in a)
    return a is b


@pytest.mark.parametrize("name", sorted(WORKLOAD_INPUTS))
def test_traced_workload_passes_gate_and_restores(name):
    workload = workloads.WORKLOADS[name]
    before = _snapshot()
    recorder = spans.Recorder(0)
    recorder.install(traced=True)
    try:
        raw = workload.run(WORKLOAD_INPUTS[name])
    finally:
        recorder.restore()

    assert all(_same(a, b) for a, b in zip(_snapshot(), before))

    solves = workload.solves(raw, recorder)
    assert solves
    reasons = workloads.gate(solves, recorder, workloads.load_reference())
    assert reasons == [[] for _ in solves]

    metrics = spans.layer_metrics(recorder.spans)
    assert metrics["fem.assemble_s"] > 0.0
    assert metrics["sparse_linalg.factor_A_s"] > 0.0


def test_table_times_each_stiffness_factor_inside_a_set_up():
    # setup_s sums the top-level prepare_case spans, so the level part that
    # both pairs share must be built inside one of them to be timed
    config = bench.ExperimentConfig(levels=(2, 3))
    recorder = spans.Recorder(0)
    recorder.install(traced=True)
    try:
        workloads.WORKLOADS["table"].run(config)
    finally:
        recorder.restore()

    names = [s[spans.NAME] for s in recorder.spans]
    assert names.count("bench.prepare_case") == len(config.pairs) * len(config.levels)
    assert sorted(recorder.cases) == sorted((pair, level) for pair in config.pairs
                                            for level in config.levels)
    factors = [s for s in recorder.spans if s[spans.NAME] == "sparse_linalg.factor_A"]
    assert len(factors) == len(config.levels)
    for span in factors:
        ancestors = []
        while span[spans.PARENT] is not None:
            span = recorder.spans[span[spans.PARENT]]
            ancestors.append(span[spans.NAME])
        assert "bench.prepare_case" in ancestors


def test_table_condition_estimates_time_exactly_the_pencil():
    # traced condest_s measures the Schur-pencil run: all its A solves lie
    # inside the condest span of a case's first cell, and no later cell's
    # condest span holds any
    config = bench.ExperimentConfig(levels=(2, 3))
    recorder = spans.Recorder(0)
    recorder.install(traced=True)
    try:
        result = workloads.WORKLOADS["table"].run(config)
    finally:
        recorder.restore()

    def enclosing(index, name):
        while index is not None and recorder.spans[index][spans.NAME] != name:
            index = recorder.spans[index][spans.PARENT]
        return index

    solves_in = {}
    for i, span in enumerate(recorder.spans):
        if span[spans.NAME] == "sparse_linalg.solve_A":
            condest = enclosing(span[spans.PARENT], "solver.condest")
            solves_in[condest] = solves_in.get(condest, 0) + 1
    cell_spans = [i for i, s in enumerate(recorder.spans)
                  if s[spans.NAME] == "bench.solve_cell"]
    assert len(cell_spans) == len(recorder.solved) == len(result.cells)
    per_case = {}
    for i, (cell, _) in zip(cell_spans, recorder.solved):
        (condest,) = [j for j, s in enumerate(recorder.spans)
                      if s[spans.NAME] == "solver.condest" and s[spans.PARENT] == i]
        per_case.setdefault((cell.pair, cell.level), []).append(solves_in.get(condest, 0))
    for setup in result.setups:
        first, *later = per_case[(setup.pair, setup.level)]
        assert first == setup.pencil_steps > 0
        assert later == [0] * (len(config.nu_values) - 1)
