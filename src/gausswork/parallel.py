"""Deterministic fan-out of per-index work across processes.

Sample streams are keyed by index, so any contiguous partition of the
index range produces identical values; chunks are merged in index order,
making results independent of the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence


def split_ranges(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) index ranges covering range(n_items)."""
    n_chunks = max(1, min(n_chunks, n_items))
    bounds = [round(i * n_items / n_chunks) for i in range(n_chunks + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(n_chunks) if bounds[i] < bounds[i + 1]]


def run_chunked(worker: Callable, jobs: Sequence[tuple[Sequence, int]], threads: int) -> list:
    """Apply ``worker(*args, lo, hi) -> list`` over index chunks of every
    job ``(args, n_items)``.

    With threads <= 1 runs inline; otherwise every job's range is split in
    ``threads`` chunks and the chunks of all jobs go to one process pool.
    The result is the concatenation in job-then-index order either way.
    """
    n_chunks = threads if threads > 1 else 1
    tasks = [(args, lo, hi) for args, n_items in jobs for lo, hi in split_ranges(n_items, n_chunks)]
    if threads <= 1 or len(tasks) <= 1:
        out: list = []
        for args, lo, hi in tasks:
            out.extend(worker(*args, lo, hi))
        return out
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, *args, lo, hi) for args, lo, hi in tasks]
        out = []
        for fut in futures:
            out.extend(fut.result())
        return out
