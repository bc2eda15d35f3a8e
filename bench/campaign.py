"""One benchmark campaign in a fresh interpreter.

Usage: python3 bench/campaign.py SPEC.json

SPEC holds the ``cli.main`` argument lists to run in order, the number of
processes they keep busy, whether to trace, whether to count process
pools, and where to write the result.
The result records the moment ``gausswork.cli`` finished importing (on the
system-wide monotonic clock, so the parent can subtract its spawn time),
each call's exit code, wall time and captured output, and the peak RSS of
this process and of its worker children.

The host's speed drifts (on a shared machine by up to half over seconds),
so the campaign also times a fixed calibration kernel, the benchmark's own
numpy code, before its first call and again whenever half a second of
calls has passed.  Each call's wall time is scaled by
``REFERENCE_S / kernel time``, the kernel time being the mean of the two
calibrations around the call, into ``ref_wall_s``: its time on a machine
where the kernel takes ``REFERENCE_S``.
"""

# The package import comes first so that the set-up time the benchmark
# reports covers interpreter start plus ``import gausswork.cli`` only.
import time

from gausswork import cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

# Nominal time of one calibration round: the speed calls are scaled to.
REFERENCE_S = 0.0075
CALIBRATE_EVERY_S = 0.5
_KERNEL_INPUT = np.random.default_rng(20240917).standard_normal((6, 6))


def _kernel_round() -> float:
    """One round of the calibration kernel, in seconds.  It mixes two kinds
    of work the campaigns do: small dense linear algebra, and formatting
    and parsing floats."""
    start = time.perf_counter()
    for _ in range(100):
        s = _KERNEL_INPUT @ _KERNEL_INPUT.T
        np.linalg.eigvalsh(s)
        np.linalg.qr(s)
    for _ in range(10):
        text = "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in _KERNEL_INPUT)
        [[float(x) for x in line.split()] for line in text.splitlines()]
    return time.perf_counter() - start


def _median_round() -> float:
    return sorted(_kernel_round() for _ in range(5))[2]


def calibrate(procs: int) -> float:
    """Seconds per kernel round: the median of five rounds.  A campaign
    whose calls keep ``procs`` > 1 processes busy is calibrated with the
    kernel running in that many processes at once (forked here, started
    together through a pipe); the mean of their medians is returned."""
    children, start_read, start_write = [], *os.pipe()
    for _ in range(procs - 1):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(start_write)
                os.read(start_read, 1)
                os.write(write_end, repr(_median_round()).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        children.append((pid, read_end))
    os.close(start_read)
    os.write(start_write, b"x" * len(children))
    os.close(start_write)
    times = [_median_round()]
    for pid, read_end in children:
        with os.fdopen(read_end) as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return sum(times) / len(times)


def run_call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is reported as a failed call, not a dead campaign
        rc = "raised"
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return {"rc": rc, "wall_s": wall, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def run_calls(argvs: list[list[str]], procs: int) -> list[dict]:
    """Run the calls in order, calibrating between them (module docstring)."""
    results: list[dict] = []
    pending: list[dict] = []
    before, mark = calibrate(procs), time.perf_counter()
    for i, argv in enumerate(argvs):
        pending.append(run_call(argv))
        if time.perf_counter() - mark >= CALIBRATE_EVERY_S or i == len(argvs) - 1:
            after = calibrate(procs)
            scale = REFERENCE_S / ((before + after) / 2.0)
            for res in pending:
                res["ref_wall_s"] = res["wall_s"] * scale
            results.extend(pending)
            pending, before, mark = [], after, time.perf_counter()
    return results


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"] or spec["count_pools"]:
        from spans import Tracer

        tracer = Tracer()
        if spec["trace"]:
            tracer.install()
        if spec["count_pools"]:
            tracer.count_pools()
    calls = run_calls(spec["calls"], spec["procs"])
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {"ready": READY, "calls": calls, "peak_rss_kb": peak_kb}
    if tracer is not None:
        size, items = tracer.result_bytes()
        result["trace"] = {
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "missing": tracer.missing,
            "result_bytes": size,
            "result_items": items,
        }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
