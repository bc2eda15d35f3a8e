"""Deterministic fan-out of per-index work across processes.

Sample streams are keyed by index, so any contiguous partition of the
index range produces identical values; chunks are merged in index order,
making results independent of the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidConfig


def split_ranges(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) index ranges covering range(n_items)."""
    n_chunks = max(1, min(n_chunks, n_items))
    bounds = [round(i * n_items / n_chunks) for i in range(n_chunks + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(n_chunks) if bounds[i] < bounds[i + 1]]


def run_chunked(
    worker: Callable, jobs: Sequence[tuple[Sequence, int]], threads: int
) -> np.ndarray:
    """Apply ``worker(*args, lo, hi) -> array`` over index chunks of every
    job ``(args, n_items)``.

    With one thread runs inline; otherwise every job's range is split in
    ``threads`` chunks and the chunks of all jobs go to one process pool of
    at most one worker per chunk and per CPU (a pool forks all its workers
    at once).  The result is the concatenation in job-then-index order
    either way.
    """
    if threads < 1:
        raise InvalidConfig(f"threads must be >= 1, got {threads}")
    tasks = [(args, lo, hi) for args, n_items in jobs for lo, hi in split_ranges(n_items, threads)]
    if threads == 1 or len(tasks) == 1:
        return np.concatenate([worker(*args, lo, hi) for args, lo, hi in tasks])
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, *args, lo, hi) for args, lo, hi in tasks]
        return np.concatenate([fut.result() for fut in futures])
