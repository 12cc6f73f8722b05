#!/usr/bin/env python3
"""Benchmark of the melvq codec.

Run from the repository root:

    python3 bench/run.py --workload codec-long --seed 1 --seconds 10 --trace 0

Workloads are codec-long, cli-short and train-prod (see bench/NOTES.md).
With --trace 0 the run reports every end-to-end metric; with --trace 1 it
reports the per-layer metrics of a traced run. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

The program is imported from src/ of the same checkout. Generated inputs are
cached in .bench_cache/, and each run writes its result (and, traced, its
spans) to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

THREAD_VARS = ("MELVQ_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("codec-long", "cli-short", "train-prod")


def pin_environment() -> int:
    """Pin melvq's worker count and every BLAS pool to the usable CPU count,
    for this process (before numpy loads) and every child it starts."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = str(SRC)
    return nproc


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            found = subprocess.run(["getconf", name], capture_output=True, text=True)
            caches[name.lower()] = found.stdout.strip() or None
        except OSError:  # no getconf on this system
            caches[name.lower()] = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True)
        commit = found.stdout.strip() if found.returncode == 0 else commit
    return {
        "cpu": cpu, "nproc": nproc, "caches_bytes": caches, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "commit": commit,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def generate(seed: int) -> None:
    """Make the seed's inputs in a child process, so generation neither
    counts towards this process's peak memory nor is ever timed."""
    code = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "from inputs import make_inputs; make_inputs(Path(sys.argv[2]), int(sys.argv[3]))")
    subprocess.run([sys.executable, "-c", code, str(BENCH), str(CACHE), str(seed)],
                   cwd=ROOT, check=True)


def unit_of(metric: str) -> str:
    for suffix, unit in (("_pct", "%"), ("_share", "ratio"), ("_ms", "ms"), ("_s", "s"),
                         ("_bytes", "bytes")):
        if metric.endswith(suffix) or f"{suffix}." in metric:
            return unit
    return "us" if "_us_" in metric else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = pin_environment()
    if not (SRC / "melvq" / "__init__.py").is_file():
        print(f"error: no melvq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import melvq

    if not Path(melvq.__file__).resolve().is_relative_to(SRC):
        print(f"error: melvq imported from {melvq.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from inputs import make_inputs
    from workloads import Run, run_workload

    env = environment(nproc)
    generate(args.seed)
    inputs = make_inputs(CACHE, args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, inputs, work, ROOT, args.seed)
        result = run_workload(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"env {json.dumps(env)}")
    if args.trace:
        metrics = {name: (value, unit_of(name)) for name, value in result["layers"].items()}
        spans_path = OUT / f"spans-{tag}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start_ns", "end_ns", "request", "attrs"],
             "spans": result["spans"]}))
        print(f"spans {len(result['spans'])} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = result["metrics"]
        for name, dist in result["distributions"].items():
            tail = dist["tail"]
            tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail
                         else "no percentile with 10 samples beyond it")
            print(f"  {name}: median {dist['median']:.4f} s, {tail_text}, n={dist['count']}")
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for failure in run.checker.report()[:20]:
        print(f"FAILED {failure}")
    summary = {
        "correct": run.checker.failed == 0 and finite,
        "attempted": run.checker.attempted,
        "failed": run.checker.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({**summary, "env": env}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
