"""Monte Carlo campaign drivers: record arrays, sweeps and moment tables.

All aggregation happens on index-ordered columns with compensated
summation, so outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import math

import numpy as np

from . import parallel, sampling, stats
from .errors import InvalidConfig, NumericalFailure, config_int
from .sampling import RandomStateConfig, ZProfile

DEFAULT_EPSILONS = (0.01, 0.05, 0.1, 0.2)

# Validity thresholds of the concentration statements; runs outside them
# are legal but get flagged in sweep summaries.
EIGEN_DISPERSION_BETA_MAX = 0.25
WORK_TAIL_BETA_MAX = 0.125


def _join(chunks) -> np.ndarray:
    """The :data:`stats.RECORD_DTYPE` arrays ``chunks``, in order, as one
    array, copied as bytes: ``np.concatenate`` copies a structured dtype
    field by field, about ten times slower."""
    joined = np.empty(sum(map(len, chunks)), stats.RECORD_DTYPE)
    np.concatenate([chunk.view(np.uint8) for chunk in chunks], out=joined.view(np.uint8))
    return joined


def _record_chunk(configs, lo: int, hi: int) -> list[np.ndarray]:
    """The records of indices lo..hi-1 at each config of a grid."""
    stacks = [[] for _ in configs]
    for g, first, gammas, nu in sampling.iter_blocks(configs, lo, hi):
        stacks[g].append(stats.evaluate_block(gammas, nu, configs[g], first))
    return [_join(records) for records in stacks]


# Rows formatted from one template, so that the template and its value
# list do not grow with a chunk
_CSV_SLICE = 2048


def _csv_rows(records: np.ndarray, config: RandomStateConfig) -> str:
    """The CSV rows of ``records``, byte for byte ``",".join(map(str, row))``
    of each :func:`stats.record_rows` row.

    Rows are formatted ``_CSV_SLICE`` at a time, from one ``%`` template.
    A column whose bits are the same in every row of the slice (the
    config's profile and seed, and per-config values such as
    ``n_modes_full`` or a deterministic profile's ``nu_th``) is formatted
    once, into the template; the others go through ``%r`` in one ``%``
    call over their values, row by row.  Bits decide, not ``==``: 0.0 and
    -0.0 print differently.
    """
    text = []
    for lo in range(0, len(records), _CSV_SLICE):
        rows = records[lo:lo + _CSV_SLICE]
        cells, varying = [], []
        for column in stats.record_columns(rows, config):
            if isinstance(column, np.ndarray):
                bits = column.view(np.uint64)
                if (bits != bits[0]).any():
                    cells.append("%r")
                    varying.append(column.tolist())
                    continue
                column = column[0].item()
            # str of a Python float is its shortest round-trip repr
            cells.append(str(column).replace("%", "%%"))
        values = [None] * (len(rows) * len(varying))
        for k, column in enumerate(varying):
            values[k::len(varying)] = column
        text.append((",".join(cells) + "\n") * len(rows) % tuple(values))
    return "".join(text)


def _chunk(configs, csv: bool, lo: int, hi: int) -> list[tuple[np.ndarray, str]]:
    """Per config of a grid, the records of indices lo..hi-1, and with
    ``csv`` their CSV rows, formatted in the worker process."""
    return [(records, _csv_rows(records, config) if csv else "")
            for config, records in zip(configs, _record_chunk(configs, lo, hi))]


def _records(configs, samples: int, threads: int, csv: bool) -> tuple[np.recarray, str]:
    """Records of sample indices 0..samples-1 of every config, in
    config-then-index order, as one :data:`stats.RECORD_DTYPE` array, and
    with ``csv`` their :func:`records_csv` text.  The configs share one
    fan-out: a chunk of indices covers every config.  ``samples`` runs
    from 1 to the most records of every config that one array can hold."""
    most = np.iinfo(np.intp).max // (len(configs) * stats.RECORD_DTYPE.itemsize)
    samples = config_int("samples", samples, 1, most)
    chunks = parallel.run_chunked(_chunk, (configs, csv), samples, threads)
    parts = [chunk[g] for g in range(len(configs)) for chunk in chunks]
    records = _join([records for records, _ in parts]).view(np.recarray)
    return records, stats.CSV_HEADER + "\n" + "".join([rows for _, rows in parts])


def compute_records(
    config: RandomStateConfig, n_samples: int, threads: int = 1, return_csv: bool = False
):
    """Records for sample indices 0..n_samples-1, in index order, as one
    :data:`stats.RECORD_DTYPE` array; with ``return_csv``, the pair
    (records, ``records_csv(records, config)``), the rows formatted by the
    workers."""
    records, text = _records([config], n_samples, threads, return_csv)
    return (records, text) if return_csv else records


def records_csv(records: np.ndarray, config: RandomStateConfig) -> str:
    """CSV text of the records of ``config`` (or of configs that share its
    profile and seed): the header, then one row per record."""
    return stats.CSV_HEADER + "\n" + _csv_rows(records, config)


def _quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` of the sorted ``values``, bit for bit (its
    default linear method).  np.quantile itself calls np.unique, whose
    first call imports numpy.ma, about 15 ms of every sweep command."""
    if np.isnan(ordered[-1]):  # NaNs sort last, and np.quantile returns NaN
        return math.nan
    virtual = (ordered.size - 1) * q
    lo = math.floor(virtual)
    a, b = float(ordered[lo]), float(ordered[min(lo + 1, ordered.size - 1)])
    t, diff = virtual - lo, b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def _value_block(values: np.ndarray) -> dict:
    ordered = np.sort(values)
    q50, q90, q99 = (_quantile(ordered, q) for q in (0.5, 0.9, 0.99))
    return {
        "mean": math.fsum(values.tolist()) / len(values),
        "median": q50,
        "q50": q50,
        "q90": q90,
        "q99": q99,
    }


# Mean dispersions below this are round-off dust, not signal: dispersions
# are sums of squared spectral deviations, so pure float noise sits at
# ~(1e-15)^2.  A vacuum sweep lands here and gets no slope fit.
_SLOPE_FLOOR = 1e-24


def fit_loglog_slope(ns, means) -> dict | None:
    """OLS slope of log(mean) against log(n), with its standard error.

    Returns None when any mean is not meaningfully positive (at or below
    the round-off floor), e.g. for vacuum sweeps where every dispersion is
    zero up to rounding.
    """
    if len(ns) < 2 or any(m <= _SLOPE_FLOOR for m in means):
        return None
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    x_bar, y_bar = float(np.mean(x)), float(np.mean(y))
    sxx = float(np.sum((x - x_bar) ** 2))
    slope = float(np.sum((x - x_bar) * (y - y_bar)) / sxx)
    intercept = y_bar - slope * x_bar
    dof = len(ns) - 2
    if dof > 0:
        rss = float(np.sum((y - intercept - slope * x) ** 2))
        stderr = math.sqrt(rss / dof / sxx)
    else:
        stderr = None
    return {"slope": slope, "stderr": stderr, "intercept": intercept}


def beta_warnings(beta: float) -> list[str]:
    warnings = []
    if beta >= WORK_TAIL_BETA_MAX:
        warnings.append(
            f"beta={beta!r} is outside the validity range of the symplectic-spectrum "
            f"and work-tail bounds (requires beta < {WORK_TAIL_BETA_MAX})"
        )
    if beta >= EIGEN_DISPERSION_BETA_MAX:
        warnings.append(
            f"beta={beta!r} is outside the validity range of the eigenspectrum "
            f"bound (requires beta < {EIGEN_DISPERSION_BETA_MAX})"
        )
    return warnings


def run_sweep(
    n_grid,
    m_sys: int,
    profile: ZProfile,
    samples: int,
    master_seed: int,
    pipeline: str = "purified",
    epsilons=DEFAULT_EPSILONS,
    threads: int = 1,
    return_csv: bool = False,
):
    """Sample every grid point and build the sweep summary.

    Returns (one record array of every grid point in grid-then-index
    order, summary dict ready for JSON serialization), and with
    ``return_csv`` the records' CSV text third, as :func:`compute_records`.
    """
    n_grid = [config_int("n_grid", n, 1) for n in n_grid]
    if len(n_grid) < 1 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise InvalidConfig(f"n grid must be strictly increasing, got {n_grid}")
    epsilons = [stats.tail_threshold(e) for e in epsilons]
    if not all(0.0 < e < math.inf for e in epsilons):  # also rejects NaN
        raise InvalidConfig(f"epsilon values must be finite and > 0, got {epsilons}")

    configs = [
        RandomStateConfig(
            n_full=n_full,
            m_sys=m_sys,
            profile=profile,
            master_seed=master_seed,
            pipeline=pipeline,
        )
        for n_full in n_grid
    ]
    # one fan-out for the whole grid: each process's chunk covers every point
    all_records, csv_text = _records(configs, samples, threads, return_csv)
    samples = len(all_records) // len(configs)  # the plain int _records read
    per_n = []
    mean_deltas = []
    for g, n_full in enumerate(n_grid):
        records = all_records[g * samples:(g + 1) * samples]
        works, deltas = records.work, records.stat_delta
        try:
            block = {
                "n": n_full,
                "samples": samples,
                "work": _value_block(works),
                "delta": _value_block(deltas),
                "tails": [stats.tail_probability(works, eps) for eps in epsilons],
            }
        except OverflowError as exc:
            # finite records can still overflow the exact sum that fsum forms
            raise NumericalFailure(f"sweep summary overflows at n = {n_full}: {exc}") from exc
        per_n.append(block)
        mean_deltas.append(block["delta"]["mean"])

    slope = fit_loglog_slope(n_grid, mean_deltas)
    warnings = beta_warnings(profile.degree)
    if slope is None:
        warnings.append("delta slope undefined: " + (
            f"the n grid {n_grid} has one point" if len(n_grid) < 2
            else "some per-n mean delta is not positive"
        ))
    summary = {
        "config": {
            "n_grid": n_grid,
            "m": configs[0].m_sys,
            "z_profile": profile.canonical(),
            "samples": samples,
            "master_seed": configs[0].master_seed,
            "pipeline": pipeline,
            "epsilons": epsilons,
        },
        "per_n": per_n,
        "delta_slope": slope,
        "warnings": warnings,
    }
    return (all_records, summary, csv_text) if return_csv else (all_records, summary)
