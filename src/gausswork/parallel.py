"""Deterministic fan-out of per-index work across processes.

Sample streams are keyed by index, so any contiguous partition of the
index range produces identical values; chunks are merged in index order,
making results independent of the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from .errors import InvalidConfig, WorkerFailure


def split_ranges(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) index ranges covering range(n_items)."""
    n_chunks = max(1, min(n_chunks, n_items))
    bounds = [round(i * n_items / n_chunks) for i in range(n_chunks + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(n_chunks) if bounds[i] < bounds[i + 1]]


def run_chunked(
    worker: Callable, jobs: Sequence[tuple[Sequence, int]], threads: int
) -> list:
    """Apply ``worker(*args, lo, hi)`` over index chunks of every job
    ``(args, n_items)`` and return its results.

    One worker count, ``threads`` capped by the CPU count, cuts every job in
    one chunk per worker and sizes the pool, which gets no more workers than
    chunks (a pool forks all its workers at once).  With one worker or one
    chunk the work runs inline.  The results are in job-then-index order
    either way; a dead worker raises WorkerFailure.
    """
    if threads < 1:
        raise InvalidConfig(f"threads must be >= 1, got {threads}")
    workers = min(threads, os.cpu_count() or 1)
    tasks = [(args, lo, hi) for args, n_items in jobs for lo, hi in split_ranges(n_items, workers)]
    if workers == 1 or len(tasks) == 1:
        return [worker(*args, lo, hi) for args, lo, hi in tasks]
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(worker, *args, lo, hi) for args, lo, hi in tasks]
            return [fut.result() for fut in futures]
    except BrokenProcessPool as exc:
        raise WorkerFailure(f"a worker process died: {exc}") from exc
