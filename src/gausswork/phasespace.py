"""Covariance-matrix algebra for zero-mean multimode Gaussian states.

Conventions used everywhere in this package:

* quadrature ordering is (q_1..q_n, p_1..p_n), so the symplectic form is
  the block matrix [[0, I], [-I, 0]];
* hbar = 1 and unit mode frequencies, so the vacuum covariance is I/2 and
  the mean energy of a zero-mean state is Tr[Gamma]/2;
* a physical covariance matrix is symmetric, positive definite and has
  every symplectic eigenvalue >= 1/2 (up to a small slack).
"""

from __future__ import annotations

import functools
from typing import TextIO

import numpy as np

from .errors import (
    BadModeCount,
    InvalidCovariance,
    MalformedFile,
    NonPositiveDefinite,
    NumericalFailure,
)

# Tolerances, sized for double precision at dimensions up to 2n ~ 1024.
SYMMETRY_TOL = 1e-10
SYMPLECTIC_TOL = 1e-10
PHYSICAL_SLACK = 1e-9
RECONSTRUCTION_TOL = 1e-8
ROUNDTRIP_TOL = 1e-10
PURITY_TOL = 1e-8


@functools.lru_cache(maxsize=16)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form [[0, I], [-I, 0]], read-only:
    one array per n is shared by every caller."""
    if n_modes < 1:
        raise BadModeCount(f"n_modes must be >= 1, got {n_modes}")
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    omega = np.block([[zero, eye], [-eye, zero]])
    omega.flags.writeable = False
    return omega


def mode_count(matrix: np.ndarray) -> int:
    """Mode count of a 2n x 2n phase-space matrix."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise BadModeCount(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] % 2 != 0 or matrix.shape[0] == 0:
        raise BadModeCount(f"matrix dimension {matrix.shape[0]} is not a positive even number")
    return matrix.shape[0] // 2


def check_covariance(gamma: np.ndarray) -> int:
    """Validate the covariance-matrix invariants and return the mode count.

    Checks, in order: finite entries, symmetry (max asymmetry <= 1e-10),
    positive definiteness (from the eigendecomposition behind the
    symplectic spectrum) and the uncertainty relation nu_k >= 1/2 - 1e-9.
    Raises :class:`InvalidCovariance` (or the :class:`NonPositiveDefinite`
    subclass) naming the violated invariant.
    """
    return _checked_kernel(np.asarray(gamma, dtype=float))[0]


def _checked_kernel(gamma: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """:func:`check_covariance` on a float array, returning the mode count
    with the square root and the kernel it decomposed, for reuse."""
    n = mode_count(gamma)
    if not np.all(np.isfinite(gamma)):
        raise InvalidCovariance("finite: Gamma has a non-finite entry")
    asym = float(np.max(np.abs(gamma - gamma.T)))
    if asym > SYMMETRY_TOL:
        raise InvalidCovariance(f"symmetry: max |Gamma - Gamma^T| = {asym:.3e} exceeds {SYMMETRY_TOL}")
    root, kernel = _williamson_kernel(gamma, n)
    nus = _kernel_nus(kernel, n)
    if nus[-1] < 0.5 - PHYSICAL_SLACK:
        raise InvalidCovariance(f"uncertainty: smallest symplectic eigenvalue {nus[-1]:.12g} < 1/2")
    return n, root, kernel


def energy(gamma: np.ndarray) -> float:
    """Mean energy Tr[Gamma]/2 of a zero-mean state."""
    gamma = np.asarray(gamma, dtype=float)
    mode_count(gamma)
    return 0.5 * float(np.trace(gamma))


def check_positive(lowest) -> None:
    """Raise :class:`NonPositiveDefinite` for the first matrix of a stack
    whose smallest eigenvalue, in ``lowest``, is <= 0 (NaN passes)."""
    lowest = np.ravel(lowest)
    bad = np.flatnonzero(lowest <= 0.0)
    if bad.size:
        raise NonPositiveDefinite(
            f"positive-definite: smallest eigenvalue {lowest[bad[0]]:.3e} <= 0", int(bad[0])
        )


def _sqrt_spd(gamma: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric positive-definite matrix, or of
    each matrix in a (..., k, k) stack."""
    try:
        evals, vecs = np.linalg.eigh(gamma)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK breakdown
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    check_positive(evals[..., 0])
    return (vecs * np.sqrt(evals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _williamson_kernel(gamma: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(G^{1/2}, G^{1/2} Omega G^{1/2}) of one matrix or of a stack."""
    root = _sqrt_spd(gamma)
    return root, root @ symplectic_form(n) @ root


def _kernel_nus(kernel: np.ndarray, n: int) -> np.ndarray:
    """Descending symplectic spectra from the eigenvalues of i * kernel."""
    try:
        evals = np.linalg.eigvalsh(1j * kernel)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    # Hermitian spectrum is {-nu_n..-nu_1, nu_1..nu_n}; take the positive half.
    return evals[..., n:][..., ::-1].copy()


def _williamson_factor(root: np.ndarray, kernel: np.ndarray, n: int) -> tuple:
    """Spectrum and factor S with Gamma = S D S^T from the eigenvectors of
    the Hermitian i * kernel of one matrix."""
    try:
        evals, vecs = np.linalg.eigh(1j * kernel)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK breakdown
        raise NumericalFailure(f"eigensolver did not converge: {exc}") from exc
    nus = evals[n:][::-1].copy()
    if np.any(nus <= 0.0):
        raise NumericalFailure("non-positive symplectic eigenvalue in Hermitian spectrum")
    vecs = vecs[:, n:][:, ::-1]
    # Fix each eigenvector's phase: its largest q entry is positive
    # imaginary, which makes S = I for a one-mode thermal state.
    top = vecs[np.argmax(np.abs(vecs[:n]), axis=0), np.arange(n)]
    vecs = vecs * (1j * np.exp(-1j * np.angle(top)))
    # An eigenvector (a + ib)/sqrt(2) of nu gives K b = -nu a and K a = nu b,
    # so b is the q column and a the p column of an orthogonal Q with
    # Q^T K Q = [[0, diag(nu)], [-diag(nu), 0]].
    q_orth = np.sqrt(2.0) * np.concatenate([vecs.imag, vecs.real], axis=1)
    factor = (root @ q_orth) * np.concatenate([nus, nus]) ** -0.5
    return nus, factor


def symplectic_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    """Williamson symplectic spectrum nu_1 >= .. >= nu_n of a
    positive-definite matrix, or (..., n) of a (..., 2n, 2n) stack.

    The eigenvalues of Omega @ Gamma are {+-i nu_k}; the nu_k are computed
    from the Hermitian matrix i * G^{1/2} Omega G^{1/2}, which is the
    numerically robust route.
    """
    gamma = np.asarray(gamma, dtype=float)
    # the first matrix of a stack stands for the shape of all of them
    n = mode_count(gamma[(0,) * (gamma.ndim - 2)])
    return _kernel_nus(_williamson_kernel(gamma, n)[1], n)


def williamson(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Williamson decomposition Gamma = S D S^T of one positive-definite
    matrix, D = diag(nus) (+) diag(nus): the pair (nus, S), the spectrum of
    :func:`symplectic_eigenvalues` and a symplectic S, from the eigenvectors
    of the same Hermitian matrix.  S is unique only up to a phase-space
    rotation of each mode (and a mixing of modes with equal nu); a fixed
    phase gauge picks one, and S = I for a one-mode thermal state.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
    return _williamson_factor(*_williamson_kernel(gamma, n), n)


def symplectic_eigenvalues_direct(gamma: np.ndarray) -> np.ndarray:
    """Cross-check spectrum from the imaginary parts of eig(Omega @ Gamma).

    Independent of the symmetric-kernel route; used to validate it.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
    evals = np.linalg.eigvals(symplectic_form(n) @ gamma)
    return np.sort(np.abs(evals.imag))[::-1][0::2].copy()


def symplectic_trace(gamma: np.ndarray) -> float:
    """Sum of symplectic eigenvalues over the doubled spectrum, 2 * sum(nu)."""
    return 2.0 * float(np.sum(symplectic_eigenvalues(gamma)))


def extractable_work(gamma: np.ndarray) -> float:
    """Maximum mean-energy decrease under Gaussian unitaries.

    Equals Tr[Gamma]/2 - sum(nu_k), i.e. half the gap between the trace and
    the symplectic trace.  Zero for thermal states.  Round-off can make the
    result slightly negative; it is clamped only in reports, never here.
    """
    gamma = np.asarray(gamma, dtype=float)
    nus = symplectic_eigenvalues(gamma)
    return 0.5 * float(np.trace(gamma)) - float(np.sum(nus))


def purify(gamma_m: np.ndarray) -> np.ndarray:
    """Two-copy pure extension of a physical m-mode covariance matrix.

    Williamson-factor the input as S D S^T, attach one two-mode-squeezed
    partner per thermal mode, and apply S on the original half.  The result
    is a 2m-mode pure state (all nu = 1/2) whose first-m-mode partial trace
    reproduces the input, with Tr of the output <= 2 Tr of the input.  The
    round trip (``ROUNDTRIP_TOL``) and the purity (``PURITY_TOL``) are
    checked before returning; a breach raises :class:`NumericalFailure`.
    """
    gamma_m = np.asarray(gamma_m, dtype=float)
    # the uncertainty check and the factor share one decomposition
    m, root, kernel = _checked_kernel(gamma_m)
    nus, factor = _williamson_factor(root, kernel, m)
    # The square root amplifies eigenvalue round-off near nu = 1/2 (an
    # excess of 1e-16 becomes a 1e-8 cross term); sub-noise excesses mean
    # the mode is pure and needs no partner.
    excess = nus * nus - 0.25
    excess[excess <= 1e-12] = 0.0
    cross = np.sqrt(excess)

    # The pure state in (q, p) x (original, partner) x mode ordering: S D S^T
    # on the original half, D = diag(nu) (+) diag(nu) on the partner half,
    # and the two-mode-squeezed correlations diag(cross) (+) diag(-cross)
    # carried by S into the original rows.  The + 0.0 turns a -0.0 product
    # into 0.0, so that a zero correlation is written as 0.0.
    diag = np.concatenate([nus, nus])
    kept = (factor * diag) @ factor.T
    link = (factor * np.concatenate([cross, -cross]) + 0.0).reshape(2, m, 2, m)
    pure = np.zeros((2, 2, m, 2, 2, m))
    pure[:, 0, :, :, 0] = kept.reshape(2, m, 2, m)
    pure[:, 0, :, :, 1] = link
    pure[:, 1, :, :, 0] = link.transpose(2, 3, 0, 1)
    pure[:, 1, :, :, 1] = np.diag(diag).reshape(2, m, 2, m)
    pure = pure.reshape(4 * m, 4 * m)

    roundtrip = float(np.max(np.abs(kept - gamma_m)))
    if roundtrip > ROUNDTRIP_TOL:
        raise NumericalFailure(f"purification round trip error {roundtrip:.3e} exceeds 1e-10")
    purity = float(np.max(np.abs(symplectic_eigenvalues(pure) - 0.5)))
    if purity > PURITY_TOL:
        raise NumericalFailure(f"purification impurity {purity:.3e} exceeds 1e-8")
    return pure


def is_symplectic(matrix: np.ndarray, tol: float = SYMPLECTIC_TOL) -> bool:
    matrix = np.asarray(matrix, dtype=float)
    n = mode_count(matrix)
    omega = symplectic_form(n)
    return float(np.max(np.abs(matrix @ omega @ matrix.T - omega))) <= tol


def williamson_reconstruction_error(gamma: np.ndarray, nus: np.ndarray, s: np.ndarray) -> float:
    """Relative spectral-norm error of Gamma - S D S^T, for (nus, S) of
    :func:`williamson`."""
    delta = gamma - (s * np.concatenate([nus, nus])) @ s.T
    return float(np.linalg.norm(delta, 2) / np.linalg.norm(gamma, 2))


# Text format: first line is the mode count n, then 2n rows of 2n
# whitespace-separated decimals in (q..q, p..p) ordering.

def read_covariance_text(stream: TextIO) -> np.ndarray:
    lines = [line.strip() for line in stream if line.strip()]
    if not lines:
        raise MalformedFile("empty covariance file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise MalformedFile(f"first line must be the mode count, got {lines[0]!r}") from exc
    if n < 1:
        raise MalformedFile(f"mode count must be >= 1, got {n}")
    if len(lines) != 1 + 2 * n:
        raise MalformedFile(f"expected {2 * n} matrix rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            row = list(map(float, line.split()))
        except ValueError as exc:
            raise MalformedFile(f"non-numeric entry in row: {line!r}") from exc
        if len(row) != 2 * n:
            raise MalformedFile(f"expected {2 * n} entries per row, found {len(row)}")
        rows.append(row)
    return np.array(rows, dtype=float)


def write_covariance_text(gamma: np.ndarray, stream: TextIO) -> None:
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
    stream.write(f"{n}\n")
    for row in gamma.tolist():
        stream.write(" ".join(map(repr, row)) + "\n")
