"""Worker-pool helpers honoring the MELVQ_THREADS environment variable.

Parallelism is only used for independent per-file work, and results are
collected in input order, so outputs are bit-identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

THREADS_ENV_VAR = "MELVQ_THREADS"
MAX_THREADS = 64


def worker_count() -> int:
    """Worker cap: MELVQ_THREADS clamped to 1..MAX_THREADS, else up to 4 threads."""
    value = os.environ.get(THREADS_ENV_VAR)
    if value is not None:
        try:
            requested = int(value)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {value!r}") from exc
        return max(1, min(MAX_THREADS, requested))
    return max(1, min(4, os.cpu_count() or 1))


def ordered_map(fn, items):
    """Apply fn to each item, preserving input order in the result list."""
    items = list(items)
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
