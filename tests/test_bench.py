import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from elastprec.bench import (ExperimentConfig, emit_report, poisson_to_lambda,
                             run_table_experiment, run_verification_suite)
from elastprec.fem import ReducedSystem
from elastprec.solver import PcgConvergenceError, SpectrumError
from elastprec.sparse_linalg import NotSpdError
from elastprec import bench, cli, mesh, solver, sparse_linalg


SMALL = ExperimentConfig(pairs=("p2p0",), levels=(2,), nu_values=(0.25, 0.4999),
                         tolerance=1e-6)


@pytest.fixture(scope="module")
def small_result():
    return run_table_experiment(SMALL)


def test_lambda_from_poisson_values():
    assert poisson_to_lambda(0.0) == 0.0
    assert poisson_to_lambda(0.25) == 0.5
    assert poisson_to_lambda(0.4) == pytest.approx(2.0, rel=1e-14)
    assert poisson_to_lambda(0.4999) == pytest.approx(2499.5, rel=1e-12)
    with pytest.raises(ValueError):
        poisson_to_lambda(0.5)


def test_config_validation():
    with pytest.raises(ValueError, match="pair"):
        ExperimentConfig(pairs=("p9p9",))
    with pytest.raises(ValueError, match="Poisson"):
        ExperimentConfig(nu_values=(0.6,))
    with pytest.raises(ValueError, match="level"):
        ExperimentConfig(levels=(9,))
    ExperimentConfig(levels=(7,), max_level_guard=8)  # guard can be raised
    with pytest.raises(ValueError, match="tolerance"):
        ExperimentConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="projection"):
        ExperimentConfig(projection="magic")


@pytest.mark.parametrize("field,values,repeated", [
    ("pairs", ("p2p0", "p2p1", "p2p0"), "element pair 'p2p0'"),
    ("levels", (2, 3, 2.0), "level 2"),
    ("nu_values", (0.25, 0.4, "0.25"), "Poisson ratio 0.25"),
])
def test_config_rejects_repeated_entry(field, values, repeated):
    with pytest.raises(ValueError, match=f"^{repeated} is listed more than once$"):
        ExperimentConfig(**{field: values})


def test_result_grid_complete(small_result):
    cfg = small_result.config
    assert len(small_result.cells) == len(cfg.pairs) * len(cfg.levels) * len(cfg.nu_values)
    for cell in small_result.cells:
        assert cell.error is None
        assert cell.iterations >= 1
        assert cell.condition >= 1.0
        assert cell.l2_error > 0 and cell.h1_error > 0
        assert cell.residual_history[-1] <= cfg.tolerance


def test_markdown_layout(small_result):
    text = emit_report(small_result, "markdown")
    assert "ν = 0.25" in text and "ν = 0.4999" in text
    assert text.count("## Iterations") == 1
    assert text.count("## Condition number") == 1
    assert "| L = 2 |" in text


def test_markdown_two_tables_per_pair():
    config = ExperimentConfig(levels=(2,), nu_values=(0.4999,))
    text = emit_report(run_table_experiment(config), "markdown")
    assert text.count("## Iterations") == 2
    assert text.count("## Condition number") == 2


def test_csv_row_count(small_result):
    lines = emit_report(small_result, "csv").strip().splitlines()
    assert len(lines) == 1 + len(small_result.cells)
    assert lines[0].startswith("pair,level,nu,lambda,iterations,condition")


def test_csv_numbers_parse(small_result):
    rows = list(csv.DictReader(io.StringIO(emit_report(small_result, "csv"))))
    assert len(rows) == len(small_result.cells)
    for row in rows:
        for key in ("nu", "lambda", "condition", "l2_error", "h1_error"):
            float(row[key])


def test_json_round_trip(small_result):
    payload = json.loads(emit_report(small_result, "json"))
    assert payload["version"]
    assert payload["config"]["tolerance"] == SMALL.tolerance
    assert len(payload["cells"]) == len(small_result.cells)
    cell = payload["cells"][0]
    assert cell["residual_history"][-1] <= SMALL.tolerance
    assert cell["wall_time"] >= 0.0
    # one set-up record per (pair, level), with the fill of both factors
    (setup,) = payload["setups"]
    assert (setup["pair"], setup["level"]) == ("p2p0", 2)
    # the wall seconds of its prepare_case
    assert isinstance(setup["setup_s"], float) and 0.0 < setup["setup_s"] < 60.0
    assert setup["fill_a_nnz"] == 3094
    assert setup["fill_saddle_nnz"] == 4588
    # P0 mass is diagonal, so Pi is the L2 projection and theta_max its bound
    assert setup["theta_min"] == pytest.approx(0.4305595181, rel=1e-9)
    assert setup["theta_max"] == 1.0
    # the Lanczos steps of its one pencil run, which asked for theta_min alone
    assert setup["pencil_steps"] == 22


def test_setup_seconds_time_prepare_case(monkeypatch):
    original = bench.prepare_case

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return original(*args, **kwargs)

    monkeypatch.setattr(bench, "prepare_case", slow)
    result = run_table_experiment(ExperimentConfig(pairs=("p2p0",), levels=(1,),
                                                   nu_values=(0.25,)))
    (setup,) = result.setups
    assert setup.setup_s >= 0.2


def test_json_theta_max_of_diagonal_p1_projection():
    config = ExperimentConfig(pairs=("p2p1",), levels=(2,), nu_values=(0.4999,))
    payload = json.loads(emit_report(run_table_experiment(config), "json"))
    (setup,) = payload["setups"]
    assert setup["theta_min"] == pytest.approx(0.1275802308, rel=1e-9)
    assert setup["theta_max"] == pytest.approx(1.3397079942, rel=1e-9)
    # both ends from one run
    assert setup["pencil_steps"] == 24


def _record_pencil_runs(monkeypatch) -> list:
    """Wrap ``bench.schur_pencil_bounds``; each run appends (pressures, bounds)."""
    runs = []
    original = bench.schur_pencil_bounds

    def recorded(reduced, *args, **kwargs):
        bounds = original(reduced, *args, **kwargs)
        runs.append((reduced.B.shape[0], bounds))
        return bounds

    monkeypatch.setattr(bench, "schur_pencil_bounds", recorded)
    return runs


@pytest.mark.parametrize("pair, most_solves", [("p2p0", 36), ("p2p1", 60)])
def test_theta_bounds_is_one_pencil_run(monkeypatch, pair, most_solves):
    case = bench.prepare_case(4, pair)
    runs = _record_pencil_runs(monkeypatch)
    solves = []
    solve = case.a_factor.solve

    def counted(rhs):
        solves.append(rhs.shape)
        return solve(rhs)

    monkeypatch.setattr(case.a_factor, "solve", counted)
    bounds = case.theta_bounds
    assert case.theta_bounds is bounds
    ((_, run),) = runs
    assert (run.theta_min, run.steps) == (bounds.theta_min, bounds.steps)
    # each Lanczos step is one A solve
    assert len(solves) == bounds.steps <= most_solves
    assert 0.0 < bounds.theta_min < bounds.theta_max


def test_table_runs_one_pencil_per_pair_and_level(monkeypatch):
    runs = _record_pencil_runs(monkeypatch)
    result = run_table_experiment(ExperimentConfig(levels=(2, 3)))
    # p2p0 has one pressure per cell, p2p1 one per vertex
    case_of = {32: ("p2p0", 2), 128: ("p2p0", 3), 25: ("p2p1", 2), 81: ("p2p1", 3)}
    assert sorted(case_of[n] for n, _ in runs) == sorted(case_of.values())
    assert {case_of[n]: b.steps for n, b in runs} == {
        (s.pair, s.level): s.pencil_steps for s in result.setups}


def test_deterministic_reports(small_result):
    again = run_table_experiment(SMALL)
    assert emit_report(small_result, "markdown") == emit_report(again, "markdown")
    assert emit_report(small_result, "csv") == emit_report(again, "csv")


def test_cell_lookup(small_result):
    cell = small_result.cell("p2p0", 2, 0.4999)
    assert cell.lam == pytest.approx(2499.5)
    with pytest.raises(KeyError):
        small_result.cell("p2p0", 2, 0.3)


def test_cell_lookup_and_header_tell_close_nu_apart():
    # 0.4999999 lies within np.isclose's default rtol of 0.499999, and the
    # general format would print it as 0.5, a value the config rejects
    config = ExperimentConfig(pairs=("p2p1",), levels=(3,),
                              nu_values=(0.499999, 0.4999999))
    result = run_table_experiment(config)
    for nu in config.nu_values:
        cell = result.cell("p2p1", 3, nu)
        assert cell.nu == nu and cell.lam == poisson_to_lambda(nu)
    text = emit_report(result, "markdown")
    assert text.count("| h = 2^-L | ν = 0.499999 | ν = 0.4999999 |") == 2
    zero = run_table_experiment(ExperimentConfig(pairs=("p2p0",), levels=(2,),
                                                 nu_values=(0.0,)))
    assert zero.cell("p2p0", 2, 0.0).lam == 0.0
    with pytest.raises(KeyError):
        zero.cell("p2p0", 2, 1e-9)


# the default markdown of levels 2-3; every condition number printed here
# lies at least 4e-5 from a rounding boundary of its two decimals
TABLE_L23 = """\
# Preconditioned elasticity benchmark (tol = 1e-06)

## Iterations (p2p0)

| h = 2^-L | ν = 0.25 | ν = 0.4 | ν = 0.49 | ν = 0.499 | ν = 0.4999 |
|---|---|---|---|---|---|
| L = 2 | 4 | 5 | 6 | 6 | 6 |
| L = 3 | 4 | 5 | 6 | 6 | 6 |

## Condition number of the preconditioned operator (p2p0)

| h = 2^-L | ν = 0.25 | ν = 0.4 | ν = 0.49 | ν = 0.499 | ν = 0.4999 |
|---|---|---|---|---|---|
| L = 2 | 1.23 | 1.61 | 2.21 | 2.31 | 2.32 |
| L = 3 | 1.25 | 1.67 | 2.38 | 2.50 | 2.52 |

## Iterations (p2p1)

| h = 2^-L | ν = 0.25 | ν = 0.4 | ν = 0.49 | ν = 0.499 | ν = 0.4999 |
|---|---|---|---|---|---|
| L = 2 | 5 | 5 | 5 | 5 | 5 |
| L = 3 | 6 | 9 | 12 | 12 | 12 |

## Condition number of the preconditioned operator (p2p1)

| h = 2^-L | ν = 0.25 | ν = 0.4 | ν = 0.49 | ν = 0.499 | ν = 0.4999 |
|---|---|---|---|---|---|
| L = 2 | 1.57 | 2.93 | 8.20 | 10.21 | 10.47 |
| L = 3 | 1.76 | 3.59 | 10.67 | 13.38 | 13.73 |
"""


def test_markdown_of_levels_2_3_is_pinned():
    result = run_table_experiment(ExperimentConfig(levels=(2, 3)))
    assert emit_report(result, "markdown") == TABLE_L23


def test_unknown_format_rejected(small_result):
    with pytest.raises(ValueError):
        emit_report(small_result, "yaml")


def test_verification_suite_all_green(monkeypatch):
    factored = _count_stiffness_factors(monkeypatch)
    saddles = []
    original_saddle = solver.factor_symmetric_indefinite

    def counting_saddle(matrix, order):
        saddles.append(matrix.shape[0])
        return original_saddle(matrix, order)

    monkeypatch.setattr(solver, "factor_symmetric_indefinite", counting_saddle)
    orders = _record_factor_orders(monkeypatch)
    outcomes = run_verification_suite(seed=0)
    names = {o.name for o in outcomes}
    assert {"fourier-convex-combination", "inf-sup", "norm-equivalence",
            "dense-spectrum-cross-check", "lambda-zero-exact",
            "lambda-uniformity", "projected-operator-identity"} <= names
    failures = [f"{o.name}: {o.detail}" for o in outcomes if not o.passed]
    assert not failures, failures
    # beta_h at L2-L5 of both pairs
    (inf_sup,) = [o for o in outcomes if o.name == "inf-sup"]
    assert inf_sup.detail.count("L5=") == 2 and inf_sup.detail.count("L4=") == 2
    # both identities PCG rests on: A_lam's and the load's
    (identity,) = [o for o in outcomes if o.name == "projected-operator-identity"]
    assert "P A^-1 rhs(lambda) vs P A^-1 rhs_const" in identity.detail
    # both pairs share one factor of A per level: L2-L3 for the suite, L4-L5
    # for the inf-sup check
    assert len(factored) == 4 and len(set(factored)) == 4
    # one saddle per pair at L2-L3; beta_h at L4-L5 needs none
    assert len(saddles) == 4
    # every factor, MQ's included, in an order of the program's own
    assert len(orders) == 4 + 4 + 8
    assert all(order is not None for order in orders)


def _record_factor_orders(monkeypatch) -> list:
    """Wrap ``sparse_linalg._factor``; the list gets the order of each call."""
    orders = []
    original = sparse_linalg._factor

    def recording(matrix, order, diag_pivot_thresh):
        orders.append(order)
        return original(matrix, order, diag_pivot_thresh)

    monkeypatch.setattr(sparse_linalg, "_factor", recording)
    return orders


@pytest.mark.parametrize("projection,factors", [("diagonal", 2 + 4), ("exact", 2 + 4 + 4)])
def test_table_gives_every_factor_an_order(monkeypatch, projection, factors):
    # A per level, a saddle per (pair, level), and MQ where the exact
    # projection solves with it
    orders = _record_factor_orders(monkeypatch)
    run_table_experiment(ExperimentConfig(levels=(2, 3), projection=projection))
    assert len(orders) == factors
    assert all(order is not None for order in orders)


# ---------------------------------------------------------------------------
# the level part that both pairs share

def _count_stiffness_factors(monkeypatch) -> list:
    """Wrap ``bench.factor_spd``; the list gets the size of each matrix."""
    sizes = []
    original = bench.factor_spd

    def counting(matrix, order):
        sizes.append(matrix.shape[0])
        return original(matrix, order)

    monkeypatch.setattr(bench, "factor_spd", counting)
    return sizes


def test_table_factors_stiffness_once_per_level(monkeypatch):
    factored = _count_stiffness_factors(monkeypatch)
    result = run_table_experiment(ExperimentConfig(levels=(2, 3), nu_values=(0.4999,)))
    assert all(c.error is None for c in result.cells)
    assert len(factored) == 2 and factored[0] < factored[1]
    # listed pair by pair, as before the levels ran outermost
    order = [("p2p0", 2), ("p2p0", 3), ("p2p1", 2), ("p2p1", 3)]
    assert [(c.pair, c.level) for c in result.cells] == order
    assert [(s.pair, s.level) for s in result.setups] == order


def _record_factor_roles(monkeypatch) -> list:
    """Wrap ``bench.factor_spd`` and ``solver.factor_symmetric_indefinite``;
    the list gets ``"A"`` or ``"saddle"`` for each call, in call order."""
    calls = []
    original_a = bench.factor_spd
    original_saddle = solver.factor_symmetric_indefinite

    def stiffness(matrix, order):
        calls.append("A")
        return original_a(matrix, order)

    def saddle(matrix, order):
        calls.append("saddle")
        return original_saddle(matrix, order)

    monkeypatch.setattr(bench, "factor_spd", stiffness)
    monkeypatch.setattr(solver, "factor_symmetric_indefinite", saddle)
    return calls


@pytest.mark.parametrize("pair", ["p2p0", "p2p1"])
def test_lone_case_factors_saddle_before_stiffness(monkeypatch, pair):
    # the saddle's pivot check then peaks before the factor of A exists
    calls = _record_factor_roles(monkeypatch)
    bench.prepare_case(3, pair)
    assert calls == ["saddle", "A"]


def test_table_factors_first_saddle_of_a_level_before_stiffness(monkeypatch):
    calls = _record_factor_roles(monkeypatch)
    run_table_experiment(ExperimentConfig(levels=(2, 3), nu_values=(0.4999,)))
    assert calls == ["saddle", "A", "saddle"] * 2


def _assert_same_csr(a, b):
    a, b = a.tocsr(), b.tocsr()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("level", [2, 3])
def test_handed_off_case_equals_lone_case(level):
    part = bench._LevelPart(level)
    first = bench.prepare_case(level, "p2p0", _shared=part)
    shared = bench.prepare_case(level, "p2p1", _shared=part)
    lone = bench.prepare_case(level, "p2p1")
    assert shared.a_factor is first.a_factor is part.a_factor
    for name in ("A", "rhs_const", "lift", "free"):
        assert (getattr(shared.reduced, name) is getattr(first.reduced, name)
                is getattr(part.stiffness, name))
    for name in ("A", "B", "MQ"):
        _assert_same_csr(getattr(shared.reduced, name), getattr(lone.reduced, name))
    for lam in (0.0, 2499.5):
        np.testing.assert_array_equal(shared.rhs(lam), lone.rhs(lam))
    np.testing.assert_array_equal(shared.a_factor.order, lone.a_factor.order)
    np.testing.assert_array_equal(shared.projector.factorization.order,
                                  lone.projector.factorization.order)
    assert shared.a_factor.nnz == lone.a_factor.nnz
    assert shared.projector.factorization.nnz == lone.projector.factorization.nnz
    for nu in (0.25, 0.4999):
        got, want = (dataclasses.asdict(bench.solve_cell(case, nu))
                     for case in (shared, lone))
        got.pop("wall_time")
        want.pop("wall_time")
        assert got == want


def test_stiffness_failure_fails_both_pairs_of_its_level(monkeypatch):
    original = bench.factor_spd
    l2_size = bench.prepare_case(2).reduced.dim

    def indefinite_at_l2(matrix, order):
        return original(-matrix if matrix.shape[0] == l2_size else matrix, order)

    monkeypatch.setattr(bench, "factor_spd", indefinite_at_l2)
    with pytest.raises(NotSpdError) as lone:
        bench.prepare_case(2, "p2p1")
    config = ExperimentConfig(levels=(2, 3), nu_values=(0.25, 0.4999))
    result = run_table_experiment(config)
    for pair in config.pairs:
        for nu in config.nu_values:
            assert result.cell(pair, 2, nu).error == f"set-up failed: {lone.value}"
            assert result.cell(pair, 3, nu).error is None
    assert [s.setup_s is None for s in result.setups] == [True, False, True, False]


def test_second_pair_saddle_failure_keeps_first_pair():
    # the L0 Taylor-Hood saddle is singular; p2p0 at L0 and L1 is not
    result = run_table_experiment(ExperimentConfig(levels=(0, 1), nu_values=(0.25,)))
    errors = {(c.pair, c.level): c.error for c in result.cells}
    assert errors[("p2p1", 0)].startswith("set-up failed: matrix is numerically singular")
    assert all(errors[key] is None for key in errors if key != ("p2p1", 0))


# ---------------------------------------------------------------------------
# command line

def test_cli_mesh_info(capsys):
    assert cli.main(["mesh-info", "--level", "2"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "25 vertices" in out and "56 edges" in out


def test_cli_mesh_info_dump(tmp_path):
    out = tmp_path / "mesh.txt"
    assert cli.main(["mesh-info", "--level", "0", "--dump",
                     "--out", str(out)]) == cli.EXIT_OK
    text = out.read_text()
    assert text.count("vertex ") == 4
    assert text.count("cell ") == 2
    assert text.count("edge ") == 5


def test_cli_mesh_info_bad_level():
    assert cli.main(["mesh-info", "--level", "99"]) == cli.EXIT_CONFIG


def test_cli_mesh_info_refuses_mesh_beyond_memory(monkeypatch, capsys):
    # a fake 64 MiB machine: L9 (524,288 cells) cannot fit, L2 can; were
    # the guard broken, L9 would still build in a few hundred MB
    monkeypatch.setattr(mesh, "_physical_memory_bytes", lambda: 64 * 2**20)
    assert cli.main(["mesh-info", "--level", "9"]) == cli.EXIT_CONFIG
    assert "physical memory" in capsys.readouterr().err
    assert cli.main(["mesh-info", "--level", "2"]) == cli.EXIT_OK
    with pytest.raises(ValueError, match="physical memory"):
        ExperimentConfig(levels=(9,), max_level_guard=9)


def test_cli_bench_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = cli.main(["bench", "--pair", "p2p0", "--levels", "2",
                     "--nu", "0.25,0.4999", "--format", "csv",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


def test_cli_bench_level_range_parsing(tmp_path):
    out = tmp_path / "t.csv"
    code = cli.main(["bench", "--pair", "p2p0", "--levels", "2..3",
                     "--nu", "0.25", "--format", "csv", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert len(out.read_text().strip().splitlines()) == 3


def test_cli_bench_config_error():
    assert cli.main(["bench", "--levels", "12", "--nu", "0.25"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("grid", [["--levels", "2,2", "--nu", "0.25"],
                                  ["--levels", "2", "--nu", "0.25,0.25"]])
def test_cli_bench_repeated_entry_is_config_error(grid, capsys):
    assert cli.main(["bench", "--pair", "p2p0", *grid]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is listed more than once" in captured.err


def _refuse_run(*args, **kwargs):
    raise AssertionError("the run started")


_CLI_RUNS = ("run_table_experiment", "run_verification_suite", "run_fourier_checks")


@pytest.mark.parametrize("argv", [["bench", "--pair", "p2p0", "--levels", "2..2"],
                                  ["verify"], ["fourier-check"],
                                  ["mesh-info", "--level", "2"]])
def test_cli_unwritable_out_is_config_error_before_any_run(argv, tmp_path, monkeypatch,
                                                           capsys):
    for name in _CLI_RUNS:
        monkeypatch.setattr(cli, name, _refuse_run)
    out = tmp_path / "missing" / "report.txt"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(out) in lines[0]


def test_cli_config_error_leaves_existing_out_untouched(tmp_path):
    out = tmp_path / "table.md"
    out.write_text("kept\n")
    assert cli.main(["bench", "--levels", "12", "--out", str(out)]) == cli.EXIT_CONFIG
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["verify", "fourier-check"])
def test_cli_negative_seed_is_config_error(command, monkeypatch, capsys):
    for name in _CLI_RUNS:
        monkeypatch.setattr(cli, name, _refuse_run)
    with pytest.raises(SystemExit) as exited:
        cli.main([command, "--seed", "-1"])
    assert exited.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--seed" in err and "Traceback" not in err


def _diverge(op, rhs, *args, **kwargs):
    raise PcgConvergenceError("forced divergence", None)


def test_verify_checks_fail_on_solver_error(monkeypatch, case_p2p0_l2):
    monkeypatch.setattr(bench, "pcg_solve", _diverge)
    with pytest.raises(AssertionError, match="forced divergence"):
        bench._check_lambda_zero(case_p2p0_l2)
    with pytest.raises(AssertionError, match="forced divergence"):
        bench._check_dense_cross_check([case_p2p0_l2])


def test_cli_bench_solver_failure(monkeypatch, capsys):
    monkeypatch.setattr(bench, "pcg_solve", _diverge)
    code = cli.main(["bench", "--pair", "p2p0", "--levels", "2", "--nu", "0.25"])
    assert code == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert "| L = 2 | failed |" in captured.out
    assert "forced divergence" in captured.err


def test_cli_bench_nan_rhs(monkeypatch, capsys):
    def nan_rhs(self, lam, projection="diagonal"):
        return np.full(self.dim, np.nan)

    monkeypatch.setattr(ReducedSystem, "rhs", nan_rhs)
    assert cli.main(["bench", "--pair", "p2p0", "--levels", "2..2"]) == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert "| L = 2 | failed | failed | failed | failed | failed |" in captured.out
    assert "non-finite" in captured.err


def test_cli_bench_defaults_are_experiment_defaults(monkeypatch):
    class Built(Exception):
        pass

    def record(config):
        raise Built(config)

    monkeypatch.setattr(cli, "run_table_experiment", record)
    with pytest.raises(Built) as built:
        cli.main(["bench"])
    assert built.value.args[0] == ExperimentConfig()


def test_cli_bench_condition_estimate_failure(monkeypatch, capsys):
    def unstable(*args, **kwargs):
        raise SpectrumError("forced unstable pencil")

    monkeypatch.setattr(bench, "schur_pencil_bounds", unstable)
    code = cli.main(["bench", "--pair", "p2p0", "--levels", "2", "--nu", "0.25"])
    assert code == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert "| L = 2 | failed |" in captured.out
    assert "forced unstable pencil" in captured.err


def test_cli_bench_pencil_no_convergence(monkeypatch, capsys):
    monkeypatch.setattr(solver, "_PENCIL_MAX_STEPS", 1)
    code = cli.main(["bench", "--pair", "p2p0", "--levels", "2", "--nu", "0.25",
                     "--format", "json"])
    assert code == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["cells"][0]["error"].startswith("Schur pencil")
    assert payload["setups"][0]["theta_min"] is None
    assert "did not converge" in captured.err and "in 1 Lanczos steps" in captured.err


def test_pencil_nonpositive_eigenvalue_raises(monkeypatch, case_p2p0_l2):
    # a zero stiffness inverse makes the Schur operator zero
    a_factor = case_p2p0_l2.a_factor
    monkeypatch.setattr(a_factor, "solve", lambda rhs: np.zeros_like(rhs))
    with pytest.raises(SpectrumError, match="nonpositive"):
        solver.schur_pencil_bounds(case_p2p0_l2.reduced, a_factor)


def test_cli_verify_pencil_failure(monkeypatch, capsys):
    monkeypatch.setattr(solver, "_PENCIL_MAX_STEPS", 1)
    assert cli.main(["verify"]) == cli.EXIT_VERIFY
    failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert failed == ["FAIL norm-equivalence", "FAIL inf-sup",
                      "FAIL dense-spectrum-cross-check", "FAIL lambda-zero-exact",
                      "FAIL lambda-uniformity"]


def test_cli_bench_setup_failure(capsys):
    # the L0 Taylor-Hood saddle is singular: 2 velocity dofs, 3 free pressures
    code = cli.main(["bench", "--pair", "p2p1", "--levels", "0..0"])
    assert code == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert "| L = 0 | failed | failed | failed | failed | failed |" in captured.out
    assert captured.err.count("set-up failed") == 5
    assert "singular" in captured.err
    assert "constant-pressure" not in captured.err


def test_json_setup_record_of_failed_setup(capsys):
    code = cli.main(["bench", "--pair", "p2p1", "--levels", "0..0", "--nu", "0.25",
                     "--format", "json"])
    assert code == cli.EXIT_SOLVER
    payload = json.loads(capsys.readouterr().out)
    assert payload["setups"] == [{"pair": "p2p1", "level": 0, "setup_s": None,
                                  "fill_a_nnz": None, "fill_saddle_nnz": None,
                                  "theta_min": None, "theta_max": None,
                                  "pencil_steps": None}]


def test_cli_verify_inf_sup_failure(monkeypatch, capsys):
    original = bench.schur_pencil_bounds

    def unstable_exact(reduced, a_factor, projection, largest=False):
        # only the inf-sup constant reads the exact-projection pencil here
        if projection == "exact":
            raise SpectrumError("forced unstable pair")
        return original(reduced, a_factor, projection, largest)

    monkeypatch.setattr(bench, "schur_pencil_bounds", unstable_exact)
    assert cli.main(["verify"]) == cli.EXIT_VERIFY
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert failed == ["FAIL norm-equivalence: forced unstable pair",
                      "FAIL inf-sup: forced unstable pair"]


def test_cli_verify_failure(monkeypatch, capsys):
    def defect(case):
        raise AssertionError("forced defect")

    monkeypatch.setattr(bench, "_check_lambda_zero", defect)
    assert cli.main(["verify"]) == cli.EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL lambda-zero-exact: forced defect" in lines
    assert sum(line.startswith("FAIL") for line in lines) == 1


def test_cli_fourier_check(capsys):
    assert cli.main(["fourier-check", "--seed", "7"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS fourier-") for line in lines)
    assert cli.main(["verify", "--seed", "7"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[:4] == lines


def test_cli_fourier_check_fails_under_optimize():
    # python -O strips assert statements; a failing check must still fail
    script = ("import sys\n"
              "import elastprec.fourier as fourier\n"
              "fourier.verify_convex_combination = lambda *args: 1.0\n"
              "from elastprec import cli\n"
              "sys.exit(cli.main(['fourier-check']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == cli.EXIT_VERIFY, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert lines[0] == ("FAIL fourier-convex-combination: "
                        "raw residual 1.000e+00 exceeds 1e-12")
    assert all(line.startswith("PASS fourier-") for line in lines[1:])


def test_cli_exit_codes_distinct():
    codes = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_SOLVER, cli.EXIT_VERIFY}
    assert len(codes) == 4
