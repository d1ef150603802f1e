#!/usr/bin/env python3
"""Seeded closed-loop benchmark of hamlearn, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload learn-n8 --seed 1 --seconds 50 --trace 0

One caller runs one job at a time through the public ``hamlearn`` API; each
job starts when the previous one returns. A run

1. sets up ``SETUP_REPEATS`` times, before the fixed job list and at even
   steps through it, by running one warm-up job of the workload on a fixed
   seed, so every run sets up the same amount of work (``setup_s`` is the
   time to import numpy and hamlearn plus the median set-up; the harness's
   own modules and the output checks are not timed);
2. with ``--trace 0`` runs the fixed job list, whose job seeds derive from
   ``--seed`` (``wall_s``), then further jobs from the same seeded stream
   until ``--seconds`` have passed (``job_p50_s`` is the median over all of
   them);
3. with ``--trace 1`` runs the fixed job list once untraced and once with
   the probes of ``bench_trace`` installed, reports per-layer figures over
   the traced pass and the tracing overhead, and requires both passes to
   give identical determinism records and every probe to record calls
   (both workloads exercise every layer);
4. checks every job's output (``bench_jobs``), compares the determinism
   records of the fixed jobs that returned with those of an earlier clean
   run of the same seed and sources, and writes everything to
   ``--out-dir`` (default ``.perfbench_out/``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A job that raises
counts in ``failed``. A learning trial that misses the paper's guarantee,
which the paper allows with probability delta, only lowers
``learner.success_rate``. An output that fails a check, or determinism records
that differ, also count there, set ``correct`` to false and make the exit
code 1. The exit code is 2, with no result line, when the sources of
``hamlearn`` are missing. OpenBLAS runs with one thread.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WARMUP_SEED = 0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests"
    )
    parser.add_argument(
        "--out-dir", type=Path, default=ROOT / ".perfbench_out",
        help="where results, spans and determinism records go",
    )
    return parser.parse_args(argv)


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "hamlearn_workers": os.environ.get("HAMLEARN_WORKERS", "unset (bench default 1)"),
        "loadavg_start": os.getloadavg(),
    }


_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads(np) -> int | None:
    """Thread count OpenBLAS runs with, asked of the library numpy loaded."""
    import ctypes

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in _OPENBLAS_THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def attempt(wl, index, seed, tracer=None):
    """Run and check one job.

    Returns (seconds, output, determinism record, error, problems). A job
    that raises is a failed operation (``error``); a job whose output fails
    a check makes the run incorrect (``problems``).
    """
    if tracer is not None:
        tracer.job = index
    start = time.perf_counter()
    try:
        out = wl.run(seed)
    except Exception as exc:  # counted as a failed job; the loop goes on
        return time.perf_counter() - start, None, None, f"job {index} raised {exc!r}", []
    seconds = time.perf_counter() - start
    det, problems = wl.check(out)
    return seconds, out, det, None, problems


def records_differ(a: list, b: list) -> bool:
    """Whether two lists of determinism records differ on a job both ran.

    A job that raised has the record None and is left out of the comparison.
    """
    return any(x is not None and y is not None and x != y for x, y in zip(a, b))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hamlearn" / "__init__.py").is_file():
        print(f"perfbench: hamlearn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One BLAS thread, set before numpy loads OpenBLAS: the loop has a single
    # caller, idle OpenBLAS workers spin and make timings depend on other
    # load on the cores, and threaded reductions would tie the rounding of
    # eigh, and so the seeded Pauli draws, to the machine's core count.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t_import = time.perf_counter()
    import numpy as np

    import hamlearn
    import hamlearn.bench

    import_s = time.perf_counter() - t_import
    import bench_jobs
    import bench_trace

    if Path(hamlearn.__file__).resolve().parent != ROOT / "src" / "hamlearn":
        print(f"perfbench: hamlearn came from {hamlearn.__file__}, not src/", file=sys.stderr)
        return 2

    table = bench_jobs.workloads(smoke=args.smoke)
    if args.workload not in table:
        print(f"perfbench: no workload {args.workload!r} in {sorted(table)}", file=sys.stderr)
        return 2
    wl = table[args.workload]
    env = environment(np)
    problems: list[str] = []
    errors: list[str] = []

    setup_times: list[float] = []

    def set_up():
        """Run the warm-up job, timed."""
        start = time.perf_counter()
        try:
            warm_out = wl.run(WARMUP_SEED)
        except Exception as exc:  # counted like a raising job
            warm_out, warm_error = None, f"warm-up raised {exc!r}"
        setup_times.append(time.perf_counter() - start)
        if warm_out is None:
            errors.append(warm_error)
        else:
            problems.extend(wl.check(warm_out)[1])

    # -- fixed job list (untraced), then the stream until --seconds -----------
    # The set-up repeats are spread over the fixed list: the machine's speed
    # drifts over tens of seconds, and back-to-back repeats would all sample
    # the same few seconds of it.
    set_up()
    repeat_at = [wl.fixed_jobs * k // SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    times, dets, outputs = [], [], []
    failed = 0
    loop_start = time.perf_counter()
    index = 0
    while index < wl.fixed_jobs or (
        not args.trace and time.perf_counter() - loop_start < args.seconds
    ):
        for _ in range(repeat_at.count(index)):
            set_up()
        seconds, out, det, error, job_problems = attempt(
            wl, index, bench_jobs.job_seed(args.seed, index)
        )
        times.append(seconds)
        failed += bool(error or job_problems)
        errors += [error] if error else []
        problems += job_problems
        if index < wl.fixed_jobs:
            dets.append(det)
            outputs.append(out)
        index += 1
    wall_s = sum(times[: wl.fixed_jobs])
    setup_s = import_s + statistics.median(setup_times)
    attempted = len(times)
    produced = [out for out in outputs if out is not None]
    summary = bench_jobs.summarize(produced) if produced else {}

    # -- traced pass over the same fixed list -------------------------------
    layers = {}
    spans = []
    if args.trace:
        tracer = bench_trace.Tracer()
        with bench_trace.installed(tracer):
            traced = [
                attempt(wl, j, bench_jobs.job_seed(args.seed, j), tracer)
                for j in range(wl.fixed_jobs)
            ]
        for _, _, _, error, job_problems in traced:
            failed += bool(error or job_problems)
            errors += [error] if error else []
            problems += job_problems
        attempted += len(traced)
        if records_differ([det for _, _, det, _, _ in traced], dets):
            problems.append("traced and untraced passes gave different determinism records")
        layers = bench_trace.layer_metrics(tracer)
        layers["trace.overhead_ratio"] = sum(t for t, *_ in traced) / wall_s
        for name, *_ in bench_trace.PROBES:
            if not layers[f"{name}.calls"]:
                problems.append(f"layer {name} recorded no calls on {wl.name}")
        spans = tracer.spans

    # -- determinism against an earlier clean run of the same seed and sources
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    size = "smoke" if args.smoke else "full"
    record_path = out_dir / f"determinism-{wl.name}-{size}-seed{args.seed}-{source_digest()}.json"
    if record_path.exists():
        earlier = json.loads(record_path.read_text())
        if records_differ(json.loads(json.dumps(dets)), earlier):
            problems.append(f"determinism records differ from the earlier {record_path.name}")
    elif not errors and not problems:
        record_path.write_text(json.dumps(dets))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "job_p50_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "size": size,
        "closed_loop": "1 caller",
        "fixed_jobs": wl.fixed_jobs,
        "jobs": attempted,
        "failed_frac": failed / attempted,
        "end_to_end": end_to_end,
        "summary": summary,
        "per_layer": layers,
        "spans": len(spans),
        "setup_times_s": setup_times,
        "import_s": import_s,
        "job_times_s": times,
        "determinism": dets,
        "environment": env,
        "errors": errors,
        "problems": problems,
    }
    stem = f"{wl.name}-{size}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if spans:
        with gzip.open(out_dir / f"{stem}-spans.json.gz", "wt") as fh:
            fields = ["name", "start_ns", "end_ns", "parent", "job"]
            json.dump({"fields": fields, "spans": spans}, fh)

    if args.trace:
        values = {**summary, **layers}
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in bench_trace.per_layer_spec()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }
    for line in errors + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    shown = ("workload", "seed", "jobs", "failed_frac", "summary", "environment")
    print("report: " + json.dumps({k: report[k] for k in shown}))
    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
