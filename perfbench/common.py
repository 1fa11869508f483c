"""Shared pieces of the paper-workload benchmark.

Paths, the thread pinning every run applies before numpy loads, the
run environment recorded with each result, and the order statistics
the metrics are built from (median, quartiles, tail percentile).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"

#: BLAS/OpenMP pools are pinned to one thread: each workload runs
#: serially in one process, so a thread-count change cannot pass for a
#: speed change.
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Percentiles the tail metric may report, lowest first. A step is
#: taken from 10 / (1 - p) samples on (20, 40, 100, 200, 10000), so
#: p95 holds from 200 to ~10000 samples. A service-mixed run completes
#: 270-920 jobs, depending on the machine's speed; with p98 and p99
#: steps (from 500 and 1000 jobs) its tail switched percentile from
#: run to run.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.9)
#: Samples a tail percentile must have beyond it.
TAIL_MIN_BEYOND = 10

#: Units of the metrics each run reports, by trace flag. BENCHMARK.json
#: declares the same names (the harness tests check that they agree).
END_TO_END_UNITS = {
    "iteration_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "datasets.make_s": "s",
    "lang.init_s": "s",
    "model.fit_s": "s",
    "lang.refine_s": "s",
    "lang.mask_of_calls": "count",
    "lang.refinements": "count",
    "lang.yield_ratio": "ratio",
    "beam.run_s": "s",
    "beam.self_s": "s",
    "beam.candidates": "count",
    "beam.admit_ratio": "ratio",
    "beam.candidates_per_s": "1/s",
    "beam.phase.candidate_gen_s": "s",
    "beam.phase.score_s": "s",
    "beam.phase.merge_s": "s",
    "beam.phase.prune_s": "s",
    "score.s": "s",
    "score.calls": "count",
    "score.rows": "count",
    "score.us_per_row": "us",
    "score.slow_path_rows": "count",
    "score.slow_path_s": "s",
    "model.assimilate_s": "s",
    "model.assimilations": "count",
    "model.blocks": "count",
    "spread.find_s": "s",
    "spread.objective_evals": "count",
    "spread.starts": "count",
    "spread.ascent_iterations": "count",
    "service.queue_wait_s": "s",
    "service.mine_s": "s",
    "wire.overhead_s": "s",
    "job.cold_s_p50": "s",
    "job.resubmit_s_p50": "s",
    "job.extend_s_p50": "s",
    "server.requests_per_job": "count",
    "server.http_errors": "count",
    "cache.result_hit_ratio": "ratio",
    "cache.belief_hit_ratio": "ratio",
    "store.put_s": "s",
    "store.puts": "count",
    "trace.op_s": "s",
    "trace.overhead_frac": "ratio",
}


#: Clock of setup_s: CPU seconds of the whole process, all threads.
#: A server boot lasts milliseconds, and its wall time swung 2x between
#: runs with the disk and scheduler latency of a shared 2-core box. CPU
#: time leaves those waits out and still shows work moved into set-up.
setup_clock = time.process_time


def pin_threads() -> None:
    """Pin native thread pools; must run before numpy is imported."""
    for name in THREAD_VARS:
        os.environ[name] = str(BLAS_THREADS)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_rev() -> str | None:
    """Short commit of the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    """What a result must carry to be compared with another."""
    import numpy

    return {
        "blas_threads": BLAS_THREADS,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Order statistics
# ---------------------------------------------------------------------- #
def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values) -> tuple[str, float]:
    """The highest ladder percentile with ten samples beyond it.

    Returns ``(label, value)``, e.g. ``("p95", 0.21)``. With fewer
    samples than any ladder step needs, the tail is the maximum and the
    label is ``"max"``.
    """
    values = list(values)
    for p in reversed(TAIL_LADDER):
        cut = percentile(values, p)
        if sum(1 for v in values if v > cut) >= TAIL_MIN_BEYOND:
            return f"p{p:g}", cut
    return "max", max(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def load_benchmark_spec() -> dict:
    """BENCHMARK.json at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
