"""Exact degree-2 Haar moments of the sampled covariance matrices.

Fourth-moment averages over the ambient unitary group reduce to Weingarten
sums; at degree 2 the closed forms below give the exact expectations of
Tr[Gamma_m], Tr[Gamma_m^2] and Tr[(Omega Gamma_m)^2] at any finite
dimension.  They serve as analytic ground truth for the Monte Carlo
sampler.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import parallel, sampling
from .errors import BadDimension, DimensionMismatch, InvalidConfig, NumericalFailure, config_int
from .sampling import RandomStateConfig, SqueezingSpec, draw_squeezing

_Z_RATIO_NOISE = 1e-12


def _check_length(spec: SqueezingSpec, config: RandomStateConfig) -> None:
    """Refuse a squeezing vector that is not one z per ambient mode of
    ``config``: every moment below assumes it is."""
    if spec.n_modes != config.ambient_modes:
        raise DimensionMismatch(
            f"squeezing has {spec.n_modes} modes, ambient dimension is {config.ambient_modes}"
        )


def expected_tr_gamma(spec: SqueezingSpec, config: RandomStateConfig) -> float:
    """Haar mean of Tr[Gamma_m]: exactly 2 m nu_th at any dimension."""
    _check_length(spec, config)
    return 2.0 * config.m_sys * spec.nu


def _second_moment_terms(
    spec: SqueezingSpec, config: RandomStateConfig
) -> tuple[float, float, float]:
    """(m, B term, A term): both second moments are +-m/2 (B term +- A term),
    with Tr[B^2] coefficient d m - 1 in the B term; A, B = (J -+ J^-1)/2
    for the ambient squeeze spectrum J = diag(z^2), the Gram diagonal (J, J^-1)."""
    _check_length(spec, config)
    d = float(config.ambient_modes)
    if d < 2:
        raise BadDimension("second moments need ambient dimension >= 2")
    m = float(config.m_sys)
    j, j_inv = np.split(spec.gram, 2)
    a, b = (j - j_inv) / 2.0, (j + j_inv) / 2.0
    term_b1 = (d - m) * float(np.sum(b)) ** 2 / (d * (d * d - 1.0))
    term_b2 = (d * m - 1.0) * float(np.sum(b * b)) / (d * (d * d - 1.0))
    term_a = (m + 1.0) * float(np.sum(a * a)) / (d * (d + 1.0))
    return m, term_b1 + term_b2, term_a


def expected_tr_gamma_sq(spec: SqueezingSpec, config: RandomStateConfig) -> float:
    """Haar mean of Tr[Gamma_m^2] at ambient unitary dimension d."""
    m, term_b, term_a = _second_moment_terms(spec, config)
    return 0.5 * m * (term_b + term_a)


def expected_tr_omega_gamma_sq(spec: SqueezingSpec, config: RandomStateConfig) -> float:
    """Haar mean of Tr[(Omega Gamma_m)^2]; always negative."""
    m, term_b, term_a = _second_moment_terms(spec, config)
    return -0.5 * m * (term_b - term_a)


# Each measure takes one covariance matrix or a (..., 2m, 2m) stack.

def measure_tr_gamma(gamma: np.ndarray) -> np.ndarray:
    return np.trace(gamma, axis1=-2, axis2=-1)


def measure_tr_gamma_sq(gamma: np.ndarray) -> np.ndarray:
    # Gamma is symmetric, so Tr[Gamma^2] is its squared Frobenius norm.
    return np.sum(gamma * gamma, axis=(-2, -1))


def measure_tr_omega_gamma_sq(gamma: np.ndarray) -> np.ndarray:
    # Omega Gamma, Omega = [[0, I], [-I, 0]], is Gamma's lower rows over its
    # negated upper rows: the matrix product's entries, with no BLAS call
    m = gamma.shape[-1] // 2
    og = np.concatenate([gamma[..., m:, :], -gamma[..., :m, :]], axis=-2)
    return np.sum(og * np.swapaxes(og, -1, -2), axis=(-2, -1))


_MEASURES = {
    "tr_gamma": measure_tr_gamma,
    "tr_gamma_sq": measure_tr_gamma_sq,
    "tr_omega_gamma_sq": measure_tr_omega_gamma_sq,
}

_ANALYTIC = {
    "tr_gamma": expected_tr_gamma,
    "tr_gamma_sq": expected_tr_gamma_sq,
    "tr_omega_gamma_sq": expected_tr_omega_gamma_sq,
}

QUANTITIES = tuple(_MEASURES)


def _moment_chunk(config: RandomStateConfig, lo: int, hi: int) -> np.ndarray:
    """One draw per sample index, measured for every quantity: an
    (hi - lo, len(QUANTITIES)) array."""
    # looked up per call, so that a wrapper put into _MEASURES (a tracer's) is called
    fns = [_MEASURES[q] for q in QUANTITIES]
    return np.concatenate([
        np.stack([fn(gammas) for fn in fns], axis=-1)
        for _, _, gammas, _ in sampling.iter_blocks([config], lo, hi)
    ])


def _z_ratio(analytic: float, estimate: float, std_error: float) -> float:
    diff = abs(analytic - estimate)
    if diff <= _Z_RATIO_NOISE * max(1.0, abs(analytic)):
        return 0.0
    if std_error == 0.0:
        return math.inf
    return diff / std_error


@np.errstate(over="ignore", invalid="ignore")
def mc_moments(config: RandomStateConfig, n_samples: int, threads: int = 1) -> list[dict]:
    """Monte Carlo estimates of the moments next to their analytic values:
    the ``moments`` command's entries ``{quantity, analytic, estimate,
    std_error, n_samples, z_ratio}``, one per entry of ``QUANTITIES``, in
    that order.

    ``z_ratio`` is |analytic - estimate| / std_error, reported as exactly 0
    when the difference is below the deterministic noise floor (relevant
    for the vacuum profile, where every draw gives the same value).

    Every sample is drawn once and measured for all quantities.
    Deterministic under a fixed master seed for any thread count; the mean
    and standard error are accumulated with compensated summation.
    """
    n_samples = config_int("n_samples", n_samples, 2)
    if config.profile.is_random:
        raise InvalidConfig(
            "analytic moments need a deterministic profile; the flat measure "
            "would require averaging over squeezing vectors as well"
        )
    spec = draw_squeezing(config.profile, config.ambient_modes)
    try:
        analytics = [_ANALYTIC[q](spec, config) for q in QUANTITIES]
        rows = np.concatenate(parallel.run_chunked(_moment_chunk, (config,), n_samples, threads))
        reports = []
        for quantity, analytic, values in zip(QUANTITIES, analytics, rows.T):
            mean = math.fsum(values.tolist()) / n_samples
            # pow(x, 2) is x ** 2, libm's pow, which rounds some squares
            # differently from numpy's x * x
            squares = map(pow, (values - mean).tolist(), itertools.repeat(2))
            var = math.fsum(squares) / (n_samples - 1)
            std_error = math.sqrt(var / n_samples)
            if not all(map(math.isfinite, (analytic, mean, std_error))):
                raise OverflowError(
                    f"analytic={analytic!r}, estimate={mean!r}, std_error={std_error!r}"
                )
            reports.append({"quantity": quantity, "analytic": analytic, "estimate": mean,
                            "std_error": std_error, "n_samples": n_samples,
                            "z_ratio": _z_ratio(analytic, mean, std_error)})
    except OverflowError as exc:
        # squeezing that SqueezingSpec accepts can still overflow the squares
        # of the moments: Python floats raise, numpy turns them into inf
        raise NumericalFailure(
            f"moments overflow at max z = {float(spec.z.max())!r}: {exc.args[-1]}"
        ) from exc
    return reports
