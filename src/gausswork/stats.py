"""Concentration statistics of the reduced random states.

Each sample yields an m-mode covariance matrix whose eigenvalues and
symplectic eigenvalues both cluster around the same thermal value nu_th
(the mean energy per ambient mode).  The dispersions quantifying the two
distances, their sum, and the resulting cap on extractable work are
the columns of one :data:`RECORD_DTYPE` record per sample.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import phasespace
from .errors import DimensionMismatch, EmptyInput, InvalidConfig, NonPositiveDefinite, NumericalFailure
from .sampling import RandomStateConfig, SqueezingSpec, state_from_unitary

WORK_BOUND_SLACK = 1e-9

# One record per sample, of per-sample numbers only; the record CSV adds
# the config's profile and seed, constant per config, after beta.
RECORD_DTYPE = np.dtype([
    ("sample_index", np.int64),
    ("n_modes_full", np.int64),
    ("n_modes_sys", np.int64),
    ("beta", float),
    ("energy", float),
    ("sum_sympl", float),
    ("work", float),
    ("stat_T", float),
    ("stat_frakT", float),
    ("stat_delta", float),
    ("nu_th", float),
])
_AFTER_BETA = RECORD_DTYPE.names.index("beta") + 1
CSV_COLUMNS = (RECORD_DTYPE.names[:_AFTER_BETA] + ("z_profile", "master_seed")
               + RECORD_DTYPE.names[_AFTER_BETA:])
CSV_HEADER = ",".join(CSV_COLUMNS)


def record_rows(records: np.ndarray, config: RandomStateConfig) -> list[tuple]:
    """Each record's :data:`CSV_COLUMNS` values, as Python numbers: the
    config's canonical profile and master seed (an int of any size) are
    spliced in after ``beta``."""
    constant = (config.profile.canonical(), config.master_seed)
    return [row[:_AFTER_BETA] + constant + row[_AFTER_BETA:] for row in records.tolist()]


def record_columns(records: np.ndarray, config: RandomStateConfig) -> list:
    """The :data:`CSV_COLUMNS` of ``records``: each record field as an
    array, and the config's canonical profile and master seed as one
    value each."""
    fields = [records[name] for name in RECORD_DTYPE.names]
    constant = [config.profile.canonical(), config.master_seed]
    return fields[:_AFTER_BETA] + constant + fields[_AFTER_BETA:]


def work_bound(m_sys: int, delta):
    """Cap sqrt(m * delta) on the extractable work implied by the
    dispersions, for one delta or an array of them."""
    return np.sqrt(m_sys * np.maximum(delta, 0.0))


def spectral_statistics(gammas: np.ndarray, nu) -> tuple:
    """(energy, sum_sympl, work, stat_T, stat_frakT) of each matrix of a
    (..., 2m, 2m) stack against the thermal value nu_th ``nu``, one value
    or one per matrix: energy = Tr Gamma / 2, sum_sympl the sum of the
    symplectic spectrum, work = energy - sum_sympl, the eigen-dispersion
    stat_T = sum_k (lambda_k - nu_th)^2 and the symplectic dispersion
    stat_frakT = 2 sum_k (nu_k^2 - nu_th^2)^2.  A matrix that is not
    positive definite raises :class:`NonPositiveDefinite` naming the first.

    At m = 1, in closed form and without BLAS: with h = (G11 + G22) / 2 and
    s = hypot((G11 - G22) / 2, G21), the eigenvalues are h -+ s, the
    symplectic eigenvalue is nu with nu^2 = (h - s)(h + s), and the work
    h - nu is s^2 / (h + nu), which does not cancel.  G11 - G22 is exact
    wherever s << h (Sterbenz), so W keeps full relative precision at weak
    squeezing; a vacuum's s = 0 gives nu = h, W = 0 and, at h = nu_th, zero
    dispersions exactly.  stat_T = 2 (h - nu_th)^2 + 2 s^2 and
    stat_frakT = 2 (nu^2 - nu_th^2)^2; nu^2 overflows only where stat_frakT
    would.  At m >= 2, from the symplectic spectrum; stat_T is
    |Gamma - nu_th I|_F^2 and needs no eigensolver.
    """
    nu = np.asarray(nu)
    if gammas.shape[-1] == 2:
        g11, g22, g21 = gammas[..., 0, 0], gammas[..., 1, 1], gammas[..., 1, 0]
        h = 0.5 * (g11 + g22)
        s = np.hypot(0.5 * (g11 - g22), g21)
        phasespace.check_positive(h - s)
        nu_sq = (h - s) * (h + s)
        nus = np.sqrt(nu_sq)
        return (h, nus, s * s / (h + nus), 2.0 * (h - nu) ** 2 + 2.0 * (s * s),
                2.0 * (nu_sq - np.square(nu)) ** 2)
    nus = phasespace.symplectic_eigenvalues(gammas)
    energy = 0.5 * np.trace(gammas, axis1=-2, axis2=-1)
    shifted = gammas - nu[..., None, None] * np.eye(gammas.shape[-1])
    stat_t = np.sum(shifted * shifted, axis=(-2, -1))
    sum_sympl = np.sum(nus, axis=-1)
    stat_frak = 2.0 * np.sum((nus ** 2 - np.square(nu)[..., None]) ** 2, axis=-1)
    return energy, sum_sympl, energy - sum_sympl, stat_t, stat_frak


# overflow yields inf or NaN statistics, which the block's check refuses
@np.errstate(over="ignore", invalid="ignore")
def evaluate_block(
    gammas: np.ndarray,
    nu: np.ndarray,
    config: RandomStateConfig,
    first_index: int,
) -> np.recarray:
    """Records (one :data:`RECORD_DTYPE` row each) for a (N, 2m, 2m) stack
    of sampled states, with their thermal values nu_th and the sample
    indices first_index.. in order.

    The statistics are :func:`spectral_statistics`.  A state that
    rounding left without positive definiteness, a non-finite work or
    delta, or a violation of the per-sample work bound
    ``work <= sqrt(m * delta)`` (an exact consequence of physicality)
    beyond 1e-9 indicates a numerical breakdown and raises
    :class:`NumericalFailure` naming the first such sample index, checked
    in that order.
    Round-off-negative work is clamped to zero in the record only.
    """
    if len(nu) != len(gammas):
        raise DimensionMismatch(f"{len(gammas)} states but {len(nu)} thermal values")
    try:
        energy, sum_sympl, raw, stat_t, stat_frak = spectral_statistics(gammas, nu)
    except NonPositiveDefinite as exc:
        # a sampled state is positive definite in exact arithmetic: losing
        # that to rounding is a breakdown of its statistics, not bad input
        raise NumericalFailure(f"sample {first_index + exc.index}: {exc}") from exc
    delta = stat_t + stat_frak
    bound = np.broadcast_to(work_bound(config.m_sys, delta), raw.shape)
    finite = np.isfinite(raw) & np.isfinite(delta)
    over = np.flatnonzero(~finite | (raw > bound + WORK_BOUND_SLACK))
    if over.size:
        k = over[0]
        if not finite[k]:
            raise NumericalFailure(
                f"non-finite statistics at sample {first_index + k}: "
                f"work={float(raw[k])!r}, delta={float(delta[k])!r}"
            )
        raise NumericalFailure(
            f"work bound violated at sample {first_index + k}: "
            f"work={float(raw[k])!r} > sqrt(m*delta)={float(bound[k])!r}"
        )
    columns = {
        "sample_index": np.arange(first_index, first_index + len(gammas)),
        "n_modes_full": config.n_full,
        "n_modes_sys": config.m_sys,
        "beta": config.profile.degree,
        "energy": energy,
        "sum_sympl": sum_sympl,
        # max(raw, 0.0) elementwise, keeping -0.0 and NaN as max does
        "work": np.where(0.0 > raw, 0.0, raw),
        "stat_T": stat_t,
        "stat_frakT": stat_frak,
        "stat_delta": delta,
        "nu_th": nu,
    }
    records = np.empty(len(gammas), RECORD_DTYPE)
    for name in RECORD_DTYPE.names:
        records[name] = columns[name]
    return records.view(np.recarray)


def extractable_work(gamma: np.ndarray):
    """Maximum mean-energy decrease E - sum(nu_k) under Gaussian unitaries
    of one covariance matrix (a float) or of a stack: the work column of
    :func:`spectral_statistics`.  Round-off negatives are kept here."""
    gamma = np.asarray(gamma, dtype=float)
    phasespace.stack_mode_count(gamma)
    work = spectral_statistics(gamma, 0.0)[2]
    return float(work) if work.ndim == 0 else work


def lipschitz_witnesses(u: np.ndarray, v: np.ndarray, spec: SqueezingSpec, m_sys: int) -> tuple:
    """(lhs, rhs) of the eigen-dispersion Lipschitz inequality, then of
    the symplectic-dispersion one, for one pair of unitaries or pair by
    pair for two (..., d, d) stacks, from one build of the pair's states.

    lhs is the dispersion difference between the states of u and v; rhs is
    c sqrt(2m) |J|_inf^k |u - v|_2 (Frobenius norm), c = 4, k = 2 for
    stat_T and c = 10, k = 4 for stat_frakT.  Each lhs <= rhs is a proven
    bound and must hold for every pair.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim < 2:
        raise DimensionMismatch(f"need two unitaries or stacks of one shape: {u.shape}, {v.shape}")
    gammas = state_from_unitary(np.stack([u, v]), spec, m_sys)
    _, _, _, stat_t, stat_frak = spectral_statistics(gammas, spec.nu)
    # Frobenius norm per pair, summed in the order of np.linalg.norm
    diff = (u - v).reshape(*u.shape[:-2], -1)
    norm = np.sqrt(np.vecdot(diff.real, diff.real) + np.vecdot(diff.imag, diff.imag))
    j_max = float(np.max(spec.z)) ** 2
    root = math.sqrt(2.0 * m_sys)
    eigen_rhs = 4.0 * root * j_max * norm
    symplectic_rhs = 10.0 * root * j_max ** 2 * norm
    return abs(stat_t[0] - stat_t[1]), eigen_rhs, abs(stat_frak[0] - stat_frak[1]), symplectic_rhs


# Standard-normal quantile of a two-sided 95% interval.
Z_95 = 1.96


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial fraction."""
    if total <= 0:
        raise EmptyInput("wilson_interval needs at least one trial")
    p_hat = successes / total
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / total
    center = (p_hat + z2 / (2.0 * total)) / denom
    half = Z_95 * math.sqrt(p_hat * (1.0 - p_hat) / total + z2 / (4.0 * total * total)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def tail_threshold(epsilon) -> float:
    """A tail threshold as a float; a bool or a non-real raises :class:`InvalidConfig`."""
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real):
        raise InvalidConfig(f"epsilon must be a real number, got {epsilon!r}")
    return float(epsilon)


def tail_probability(works, epsilon: float) -> dict:
    """A sweep's ``tails`` entry: the fraction of work values exceeding
    epsilon with its Wilson interval, as ``{epsilon, fraction, wilson_low,
    wilson_high}``; ``works`` is a sequence or array of work values, such
    as a record array's ``work`` column.  epsilon is read through
    :func:`tail_threshold`."""
    epsilon = tail_threshold(epsilon)
    values = np.asarray(works, dtype=float)
    if not values.size:
        raise EmptyInput("tail_probability needs at least one record")
    if not epsilon >= 0.0:  # also rejects NaN
        raise InvalidConfig(f"epsilon must be >= 0, got {epsilon}")
    hits = int(np.count_nonzero(values > epsilon))
    low, high = wilson_interval(hits, values.size)
    return {"epsilon": epsilon, "fraction": hits / values.size,
            "wilson_low": low, "wilson_high": high}
