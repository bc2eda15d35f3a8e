"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the gausswork modules from outside:
the package itself is not edited.  Each call becomes a span
``[name, start, end, parent]`` kept in a list; the campaign process writes
the list out when its campaign ends, and :func:`layer_totals` turns it
into per-layer self and inclusive times.

This module must not import gausswork at import time: ``run.py``
imports it only for :func:`layer_totals`.
"""

from __future__ import annotations

import builtins
import importlib
import pathlib
import pickle
import sys
import time
from collections import Counter

# (module, attribute, span name).  A function can be reached under several
# names (``from .sampling import draw_sample``); every module-level
# reference to the same object inside the package is replaced.
TARGETS = (
    ("sampling", "sample_rng", "sampling.stream"),
    ("sampling", "draw_squeezing", "sampling.squeeze"),
    ("sampling", "haar_isometry", "sampling.haar"),
    ("sampling", "draw_sample", "sampling.draw"),
    ("stats", "evaluate_record", "stats.record"),
    ("phasespace", "symplectic_eigenvalues", "phasespace.sympl"),
    ("phasespace", "check_covariance", "phasespace.check"),
    ("phasespace", "purify", "phasespace.purify"),
    ("phasespace", "write_covariance_text", "cli.write"),
    ("weingarten", "mc_moment", "weingarten.moment"),
    ("weingarten", "measure_tr_gamma", "weingarten.measure"),
    ("weingarten", "measure_tr_gamma_sq", "weingarten.measure"),
    ("weingarten", "measure_tr_omega_gamma_sq", "weingarten.measure"),
    ("harness", "run_sweep", "harness.sweep"),
    ("harness", "compute_records", "harness.compute"),
    ("harness", "records_csv", "harness.csv"),
    ("parallel", "run_chunked", "parallel.run"),
)

# The ten checks of ``validate.run_suite``, by function name.
VALIDATE_CHECKS = (
    "symplectic_form",
    "embedding",
    "eigensolver_crosscheck",
    "williamson_reconstruction",
    "purification",
    "proof_chain",
    "symplectic_trace_invariance",
    "bound_chain",
    "lipschitz",
    "sampler_basics",
)


class Tracer:
    """Records spans and counts for one single-threaded campaign."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._results: list[list] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            span = spans[index]
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target; a target missing from the package is noted
        and skipped, so a renamed function only zeroes its metric."""
        for module, attr, name in TARGETS:
            self._replace(module, attr, lambda fn, name=name: self.wrap(name, fn))
        for check in VALIDATE_CHECKS:
            self._replace(
                "validate", f"check_{check}",
                lambda fn, check=check: self.wrap(f"validate.{check}", fn),
            )
        self._replace("parallel", "run_chunked", self._keep_results)
        pathlib.Path.write_text = self.wrap("cli.write", pathlib.Path.write_text)
        sampling = importlib.import_module("gausswork.sampling")
        sampling.open = self._counting_open

    def count_pools(self) -> None:
        """Count process pools created by the fan-out layer."""
        parallel = importlib.import_module("gausswork.parallel")
        base = parallel.ProcessPoolExecutor
        counts = self.counts

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                counts["parallel.pools_started"] += 1
                super().__init__(*args, **kwargs)

        parallel.ProcessPoolExecutor = CountingPool

    def _counting_open(self, *args, **kwargs):
        self.counts["sampling.profile_reads"] += 1
        return builtins.open(*args, **kwargs)

    def _keep_results(self, fn):
        kept = self._results

        def keeping(*args, **kwargs):
            out = fn(*args, **kwargs)
            kept.append(out)
            return out

        return keeping

    def result_bytes(self) -> tuple[int, int]:
        """(pickled bytes, items) over every fan-out result of the campaign,
        measured after the campaign so pickling is not inside any span."""
        size = items = 0
        for out in self._results:
            size += len(pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL))
            items += len(out)
        return size, items

    def _replace(self, module: str, attr: str, make) -> None:
        target = importlib.import_module(f"gausswork.{module}")
        original = getattr(target, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "gausswork" and not name.startswith("gausswork."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    # dispatch tables such as weingarten's quantity -> measure map
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; spans of one single-threaded campaign nest without overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _), children in zip(spans, child_time):
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children
    return totals


def count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    hits = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                hits += 1
                break
            parent = spans[parent][3]
    return hits
