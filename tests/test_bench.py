import json

import pytest

from elastprec.bench import (ExperimentConfig, emit_report, poisson_to_lambda,
                             run_table_experiment, run_verification_suite)
from elastprec.solver import PcgConvergenceError
from elastprec import bench, cli


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


def test_json_round_trip(small_result):
    payload = json.loads(emit_report(small_result, "json"))
    assert payload["version"]
    assert payload["config"]["tolerance"] == SMALL.tolerance
    assert len(payload["cells"]) == len(small_result.cells)
    cell = payload["cells"][0]
    assert cell["residual_history"][-1] <= SMALL.tolerance
    assert cell["wall_time"] >= 0.0


def test_deterministic_reports(small_result):
    again = run_table_experiment(SMALL)
    assert emit_report(small_result, "markdown") == emit_report(again, "markdown")
    assert emit_report(small_result, "csv") == emit_report(again, "csv")


def test_cell_lookup(small_result):
    cell = small_result.cell("p2p0", 2, 0.4999)
    assert cell.lam == pytest.approx(2499.5)
    with pytest.raises(KeyError):
        small_result.cell("p2p0", 2, 0.3)


def test_unknown_format_rejected(small_result):
    with pytest.raises(ValueError):
        emit_report(small_result, "yaml")


def test_verification_suite_all_green():
    outcomes = run_verification_suite(seed=0)
    names = {o.name for o in outcomes}
    assert {"fourier-convex-combination", "inf-sup", "norm-equivalence",
            "dense-spectrum-cross-check", "lambda-zero-exact",
            "lambda-uniformity"} <= names
    failures = [f"{o.name}: {o.detail}" for o in outcomes if not o.passed]
    assert not failures, failures


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


def test_cli_exit_codes_distinct():
    codes = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_SOLVER, cli.EXIT_VERIFY}
    assert len(codes) == 4
