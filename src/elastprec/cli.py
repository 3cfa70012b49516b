"""Command-line front end: bench, verify and mesh-info."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .bench import (PAIRS, ExperimentConfig, emit_report, run_table_experiment,
                    run_verification_suite)
from .fem import PROJECTION_MODES
from .mesh import build_uniform_mesh, dump_mesh

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


def _parse_seed(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


class _ConfigError(Exception):
    """A configuration error: ``main`` prints it and returns ``EXIT_CONFIG``."""


@contextlib.contextmanager
def _output(path):
    """``sys.stdout``, or the file ``path`` opened for writing, as a context
    manager, entered once the inputs are validated and before any work.  An
    ``OSError`` while it is opened, written or closed is a ``_ConfigError``;
    stdout then points at the null device, so that the interpreter's exit
    flush cannot fail again on what is left in its buffer."""
    try:
        with (contextlib.nullcontext(sys.stdout) if path is None
              else open(path, "w")) as stream:
            yield stream
            stream.flush()
    except OSError as exc:
        if path is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = "standard output" if path is None else f"--out {path}"
        raise _ConfigError(f"cannot write {where}: {exc.strerror or exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastprec",
        description="Benchmarks and verification for the projection-preconditioned "
                    "nearly-incompressible elasticity solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = ExperimentConfig  # its field defaults, without an instance's memory check
    bench = sub.add_parser("bench", help="reproduce the iteration/condition tables")
    bench.add_argument("--pair", choices=[*PAIRS, "both"], default="both")
    bench.add_argument("--levels", type=_parse_levels, default=defaults.levels,
                       metavar="LO..HI|L1,L2,...")
    bench.add_argument("--nu", type=_parse_floats,
                       default=defaults.nu_values, metavar="NU1,NU2,...")
    bench.add_argument("--tol", type=float, default=defaults.tolerance)
    bench.add_argument("--format", choices=["md", "csv", "json"], default="md")
    bench.add_argument("--projection", choices=PROJECTION_MODES,
                       default=defaults.projection,
                       help="pressure-projection realization in the operator")
    bench.add_argument("--out", default=None, metavar="FILE")

    verify = sub.add_parser("verify", help="run the release verification suite")
    verify.add_argument("--seed", type=_parse_seed, default=0)
    verify.add_argument("--out", default=None, metavar="FILE")

    info = sub.add_parser("mesh-info", help="mesh statistics and optional dump")
    info.add_argument("--level", type=int, required=True)
    info.add_argument("--dump", action="store_true")
    info.add_argument("--out", default=None, metavar="FILE")

    return parser


def _cmd_bench(args) -> int:
    pairs = PAIRS if args.pair == "both" else (args.pair,)
    fmt = {"md": "markdown", "csv": "csv", "json": "json"}[args.format]
    try:
        config = ExperimentConfig(pairs=pairs, levels=args.levels,
                                  nu_values=args.nu, tolerance=args.tol,
                                  projection=args.projection)
    except ValueError as exc:
        raise _ConfigError(exc) from exc
    with _output(args.out) as stream:
        result = run_table_experiment(config)
        stream.write(emit_report(result, fmt))
        stream.write("\n")
    if any(cell.error for cell in result.cells):
        failures = [f"({c.pair}, L={c.level}, nu={c.nu}): {c.error}"
                    for c in result.cells if c.error]
        print("solver failures:\n  " + "\n  ".join(failures), file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_verify(args) -> int:
    with _output(args.out) as stream:
        outcomes = run_verification_suite(seed=args.seed)
        for outcome in outcomes:
            status = "PASS" if outcome.passed else "FAIL"
            stream.write(f"{status} {outcome.name}: {outcome.detail}\n")
    return EXIT_OK if all(o.passed for o in outcomes) else EXIT_VERIFY


def _cmd_mesh_info(args) -> int:
    try:
        mesh = build_uniform_mesh(args.level)
    except ValueError as exc:
        raise _ConfigError(exc) from exc
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
        "verify": _cmd_verify,
        "mesh-info": _cmd_mesh_info,
    }[args.command]
    try:
        return handler(args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
