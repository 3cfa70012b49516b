"""Run one elastprec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {table,solve-L6,sweep-L5} \
        --seed N --seconds S --trace {0,1}

The workload is repeated, each repetition set up from scratch, for about
``--seconds`` seconds in this one process; reported times are medians over
the repetitions.  Every repetition passes the correctness gate outside its
timed region.  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` untraced and traced repetitions alternate, the per-layer
metrics come from the traced ones and ``trace.overhead_s`` is the difference
of the two medians.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every gated solve passed.  The library is imported from ``src/`` next
to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table", "solve-L6", "sweep-L5"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _source_identity() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "elastprec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _run_rep(workload, inputs, rep_index, traced, reference):
    from spans import Recorder, stage_seconds
    from workloads import gate

    recorder = Recorder(rep_index)
    recorder.install(traced)
    try:
        started = time.perf_counter()
        raw = workload.run(inputs)
        wall = time.perf_counter() - started
    finally:
        recorder.restore()
    solves = workload.solves(raw, recorder)
    reasons = gate(solves, recorder, reference)
    return {
        "traced": traced,
        "wall_s": wall,
        "setup_s": stage_seconds(recorder.spans, "bench.prepare_case"),
        "solve_s": stage_seconds(recorder.spans, workload.solve_span),
        "spans": recorder.spans,
        "cases": {f"{pair}@L{level}": {k: v for k, v in facts.items()
                                       if k in ("velocity_dofs", "fill_A_nnz",
                                                "fill_saddle_nnz")}
                  for (pair, level), facts in recorder.cases.items()},
        "solves": [{"pair": s.pair, "level": s.level, "nu": s.nu,
                    "iterations": s.iterations, "condition": s.condition,
                    "h1_error": s.h1_error, "failed": why}
                   for s, why in zip(solves, reasons)],
    }


def _layer_report(reps) -> dict:
    """Per-layer metrics: medians of times and the (repeating) counts."""
    from spans import layer_metrics

    traced = [r for r in reps if r["traced"]]
    per_rep = [layer_metrics(r["spans"]) for r in traced]
    metrics = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        else:
            if len(set(values)) != 1:
                print(f"warning: count {name} differs between repetitions: {values}",
                      file=sys.stderr)
            metrics[name] = (values[0], "count")
    metrics["bench.cells"] = (len(reps[0]["solves"]), "count")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in reps if not r["traced"]), "s")
    return metrics


def _write_trace(reps, workload: str, seed: int) -> None:
    """Write every repetition's spans and per-name self times to ``out/``."""
    from spans import self_time_summary

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "span_fields": ["name", "start", "end", "parent", "run", "extra"],
                   "runs": [{"run": i, "traced": r["traced"], "wall_s": r["wall_s"],
                             "self_times": self_time_summary(r["spans"]),
                             "spans": r["spans"]} for i, r in enumerate(reps)]},
                  fh, separators=(",", ":"))


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "elastprec", "__init__.py")):
        print(f"error: library source {SRC}/elastprec not found", file=sys.stderr)
        return 2
    nproc = _cap_blas_threads()
    sys.path[:0] = [SRC, HERE]

    import numpy
    import scipy
    import elastprec
    from workloads import WORKLOADS, load_reference, warm_up

    if os.path.dirname(os.path.abspath(elastprec.__file__)) != os.path.join(SRC, "elastprec"):
        print(f"error: elastprec imported from {elastprec.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    reference = load_reference()
    warm_up()

    reps = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep_started = time.perf_counter()
        reps.append(_run_rep(workload, inputs, len(reps), traced, reference))
        longest = max(longest, time.perf_counter() - rep_started)
        have_traced = not args.trace or any(r["traced"] for r in reps)
        if have_traced and time.perf_counter() - started + longest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(r["solves"]) for r in reps)
    failures = [(r_i, s) for r_i, r in enumerate(reps) for s in r["solves"] if s["failed"]]

    if args.trace:
        metrics = _layer_report(reps)
        _write_trace(reps, args.workload, args.seed)
    else:
        metrics = {name: (statistics.median(r[name] for r in reps), "s")
                   for name in ("wall_s", "setup_s", "solve_s")}
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.seeded,
        "inputs": dataclasses.asdict(inputs),
        "repetitions": len(reps),
        "traced_repetitions": sum(r["traced"] for r in reps),
        "rep_wall_s": [r["wall_s"] for r in reps],
        "rep_setup_s": [r["setup_s"] for r in reps],
        "rep_solve_s": [r["solve_s"] for r in reps],
        **_source_identity(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_cap": nproc,
        "nproc": nproc,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "cases": reps[0]["cases"],
        "solves": [{k: v for k, v in s.items() if k != "failed"} for s in reps[0]["solves"]],
        "failed_frac": len(failures) / attempted,
    }
    for rep_index, s in failures[:10]:
        print(f"gate failure (repetition {rep_index}) {s['pair']}@L{s['level']} "
              f"nu={s['nu']}: {'; '.join(s['failed'])}", file=sys.stderr)

    print(json.dumps({"meta": meta}))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r:>24} {unit}")
    print(f"{'failed_frac':40s} {meta['failed_frac']!r:>24} 1  ({len(failures)}/{attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
