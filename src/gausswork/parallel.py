"""Deterministic fan-out of per-index work across forked processes.

Sample streams are keyed by index, so any contiguous partition of the
index range produces identical values; chunks are merged in index order,
making results independent of the process count.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, Sequence

from .errors import WorkerFailure, config_int


def split_ranges(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) index ranges covering range(n_items)."""
    n_chunks = max(1, min(n_chunks, n_items))
    bounds = [round(i * n_items / n_chunks) for i in range(n_chunks + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(n_chunks) if bounds[i] < bounds[i + 1]]


def run_chunked(worker: Callable, args: Sequence, n_items: int, threads: int) -> list:
    """Apply ``worker(*args, lo, hi)`` over contiguous index chunks of
    range(n_items) and return its results in index order.

    ``threads``, an integer of at least 1 (:func:`config_int`), caps the
    processes, the calling one included: it is capped by the CPU count, and
    cuts the range in one chunk per process.  With one chunk, or where the
    platform has no ``os.fork``, the work runs inline; otherwise
    :func:`_fork_chunks` runs it.
    """
    threads = config_int("threads", threads, 1)
    processes = min(threads, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    ranges = split_ranges(n_items, processes)
    if len(ranges) <= 1:
        return [worker(*args, lo, hi) for lo, hi in ranges]
    return _fork_chunks(worker, args, ranges)


def _fork_chunks(worker: Callable, args: Sequence, ranges: list[tuple[int, int]]) -> list:
    """Fork one child per chunk but the first, run the first chunk here,
    then read the children's results in chunk order.

    The error of the lowest failing chunk is raised; a child that dies, or
    sends an empty or truncated result, raises WorkerFailure.  Once a chunk
    has failed, the children still running are killed; every child is
    reaped before this returns or raises.
    """
    children = []  # (pid, read end of its pipe, lo, hi), until reaped
    try:
        for lo, hi in ranges[1:]:
            children.append(_fork(worker, args, lo, hi))
        results = [worker(*args, *ranges[0])]
        while children:
            pid, pipe, lo, hi = children[0]
            with pipe:
                payload = pipe.read()
            del children[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            try:
                ok, value = pickle.loads(payload)
            except Exception:
                how = f"killed by signal {-status}" if status < 0 else f"exit status {status}"
                raise WorkerFailure(
                    f"the worker process of indices {lo}..{hi - 1} returned no result ({how})"
                ) from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe, _, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(worker: Callable, args: Sequence, lo: int, hi: int):
    """Fork a child that pickles ``(True, worker(*args, lo, hi))``, or
    ``(False, exception)``, to a pipe and leaves through ``os._exit``;
    return (its pid, the pipe's read end, lo, hi)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise WorkerFailure(f"cannot fork a worker process: {exc}") from exc
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = (True, worker(*args, lo, hi))
            except Exception as exc:
                payload = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb"), lo, hi


def __getattr__(name: str):
    # Read only by the benchmark's pool counter (bench/spans.py) until
    # ROADMAP item 8 retargets it at the forks; no pool is started, so it
    # counts none.  Imported on use, so that no command imports it.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
