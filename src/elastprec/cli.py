"""Command-line front end: bench, fourier-check, verify and mesh-info."""

from __future__ import annotations

import argparse
import contextlib
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _parse_levels(text: str):
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(part) for part in text.split(","))


def _parse_floats(text: str):
    return tuple(float(part) for part in text.split(","))


@contextlib.contextmanager
def _output(path):
    """Yield ``sys.stdout``, or the file ``path`` opened for writing."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as stream:
            yield stream


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastprec",
        description="Benchmarks and verification for the projection-preconditioned "
                    "nearly-incompressible elasticity solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="reproduce the iteration/condition tables")
    bench.add_argument("--pair", choices=["p2p0", "p2p1", "both"], default="both")
    bench.add_argument("--levels", type=_parse_levels, default=(2, 3, 4, 5),
                       metavar="LO..HI|L1,L2,...")
    bench.add_argument("--nu", type=_parse_floats,
                       default=(0.25, 0.4, 0.49, 0.499, 0.4999), metavar="NU1,NU2,...")
    bench.add_argument("--tol", type=float, default=1e-6)
    bench.add_argument("--format", choices=["md", "csv", "json"], default="md")
    bench.add_argument("--max-level-guard", type=int, default=6)
    bench.add_argument("--projection", choices=["diagonal", "exact"],
                       default="diagonal",
                       help="pressure-projection realization in the operator")
    bench.add_argument("--out", default=None, metavar="FILE")

    fourier = sub.add_parser("fourier-check",
                             help="run the verification suite's periodic-mode checks")
    fourier.add_argument("--seed", type=int, default=0)
    fourier.add_argument("--out", default=None, metavar="FILE")

    verify = sub.add_parser("verify", help="run the release verification suite")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=None, metavar="FILE")

    info = sub.add_parser("mesh-info", help="mesh statistics and optional dump")
    info.add_argument("--level", type=int, required=True)
    info.add_argument("--dump", action="store_true")
    info.add_argument("--out", default=None, metavar="FILE")

    return parser


def _cmd_bench(args) -> int:
    from .bench import ExperimentConfig, emit_report, run_table_experiment

    pairs = ("p2p0", "p2p1") if args.pair == "both" else (args.pair,)
    fmt = {"md": "markdown", "csv": "csv", "json": "json"}[args.format]
    try:
        config = ExperimentConfig(pairs=pairs, levels=args.levels,
                                  nu_values=args.nu, tolerance=args.tol,
                                  max_level_guard=args.max_level_guard,
                                  projection=args.projection)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    result = run_table_experiment(config)
    with _output(args.out) as stream:
        stream.write(emit_report(result, fmt))
        stream.write("\n")
    if any(cell.error for cell in result.cells):
        failures = [f"({c.pair}, L={c.level}, nu={c.nu}): {c.error}"
                    for c in result.cells if c.error]
        print("solver failures:\n  " + "\n  ".join(failures), file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _write_outcomes(outcomes, path) -> int:
    with _output(path) as stream:
        for outcome in outcomes:
            status = "PASS" if outcome.passed else "FAIL"
            stream.write(f"{status} {outcome.name}: {outcome.detail}\n")
    return EXIT_OK if all(o.passed for o in outcomes) else EXIT_VERIFY


def _cmd_fourier(args) -> int:
    from .bench import run_fourier_checks

    return _write_outcomes(run_fourier_checks(seed=args.seed), args.out)


def _cmd_verify(args) -> int:
    from .bench import run_verification_suite

    return _write_outcomes(run_verification_suite(seed=args.seed), args.out)


def _cmd_mesh_info(args) -> int:
    from .mesh import build_uniform_mesh, dump_mesh

    try:
        mesh = build_uniform_mesh(args.level)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with _output(args.out) as stream:
        stream.write(f"level {mesh.level}: h = {mesh.h}, "
                     f"{mesh.num_vertices} vertices, {mesh.num_cells} cells, "
                     f"{mesh.num_edges} edges, "
                     f"{int(mesh.boundary_vertex_flags.sum())} boundary vertices, "
                     f"{int(mesh.boundary_edge_flags.sum())} boundary edges\n")
        if args.dump:
            dump_mesh(mesh, stream)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "bench": _cmd_bench,
        "fourier-check": _cmd_fourier,
        "verify": _cmd_verify,
        "mesh-info": _cmd_mesh_info,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
