"""Samplers for Haar unitaries, squeezing profiles and random Gaussian states.

A random state is built by squeezing n vacua with a z-profile, scrambling
them with a Haar-random passive interferometer (an orthogonal symplectic
matrix obtained from a Haar unitary) and tracing out all but the first m
modes.  The default ``purified`` pipeline doubles the ambient mode count
before the trace, so the ambient unitary lives in U(2 n_full).
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadModeCount,
    DimensionMismatch,
    EmptyConstraintSet,
    InvalidConfig,
    InvalidProfile,
    NotUnitary,
    NumericalFailure,
    RejectionTimeout,
)

UNITARY_TOL = 1e-10

_REJECTION_BATCH = 256
_REJECTION_MAX_DRAWS = 2_000_000


# numpy.random.SeedSequence's hash (numpy/random/bit_generator.pyx): a pool
# of 4 32-bit words and its constants
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words32(value: int) -> list[int]:
    """32-bit words of a non-negative int, least significant first; none for 0."""
    return [(value >> shift) & _MASK32 for shift in range(0, value.bit_length(), 32)]


@functools.lru_cache(maxsize=64)
def _call_consts(first: int, count: int, init: int = _INIT_A, mult: int = _MULT_A):
    """uint64 arrays of the xor and the multiply constants of hash calls
    first..first+count-1: init * mult^k mod 2^32 for call k, and for k + 1."""
    consts = [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + count + 1)]
    consts = np.array(consts, np.uint64)
    consts.flags.writeable = False  # shared by every caller through the cache
    return consts[:-1], consts[1:]


def _hashmix(value, xor_const, mul_const):
    """SeedSequence's hashmix of words: ints, or uint64 arrays that broadcast."""
    value = (value ^ xor_const) * mul_const & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32  # uint64 wrap-around keeps the low word
    return value ^ value >> 16


@functools.lru_cache(maxsize=16)
def _seed_pool(master_seed: int) -> tuple[np.ndarray, int]:
    """SeedSequence's pool after mixing in the seed alone, the part shared
    by every index's stream, and the number of hash calls made, 4 per seed
    word: numpy's own pool for the seed's words, zero-padded to 4 as a
    spawn key pads them."""
    words = _words32(master_seed) or [0]
    words += [0] * (_POOL - len(words))
    pool = np.random.SeedSequence(words).pool.astype(np.uint64)
    pool.flags.writeable = False  # shared by every caller through the cache
    return pool, _POOL * len(words)


_STATE_CONSTS = _call_consts(0, 2 * _POOL, _INIT_B, _MULT_B)


def _pcg64_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, 4) uint64: ``SeedSequence(master_seed, spawn_key=(i,))
    .generate_state(4, np.uint64)`` for each index i in lo..hi-1, computed
    for all of them at once.  Each index word mixes into the 4 pool words
    by 4 successive hash calls.  A range across a multiple of 2^32 is
    hashed as its two sides; within one side the indices differ in their
    lowest word only, so the rounds are that column, then the shared
    high words."""
    split = min(hi, ((lo >> 32) + 1) << 32)
    if split < hi:
        return np.concatenate([_pcg64_seeds(master_seed, lo, split),
                               _pcg64_seeds(master_seed, split, hi)])
    pool, calls = _seed_pool(master_seed)
    low = np.arange(lo & _MASK32, (lo & _MASK32) + hi - lo, dtype=np.uint64)[:, None]
    for word in [low, *_words32(lo >> 32)]:
        pool = _mix(pool, _hashmix(word, *_call_consts(calls, _POOL)))
        calls += _POOL
    # generate_state: 8 words cycling through the pool, read as 4 little-endian
    # 64-bit words; C order, as PCG64 reads each row's buffer
    state = _hashmix(np.concatenate([pool, pool], axis=1), *_STATE_CONSTS)
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _GivenState(np.random.bit_generator.ISeedSequence):
    """Seed sequence of one index's precomputed PCG64 seed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def block_streams(master_seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """Independent, reproducible streams of the sample indices lo..hi-1,
    in index order; each is built when the iterator reaches it.

    The stream of index i is ``default_rng(SeedSequence(master_seed,
    spawn_key=(i,)))`` bit for bit, with the SeedSequence hash computed
    for the whole range at once.  Streams are keyed by (master_seed, i),
    so any partitioning of indices across blocks or workers yields
    bit-identical draws.
    """
    master_seed, lo, hi = map(operator.index, (master_seed, lo, hi))
    if master_seed < 0:
        raise InvalidConfig(f"master_seed must be >= 0, got {master_seed}")
    if lo < 0:
        raise InvalidConfig(f"sample_index must be >= 0, got {lo}")
    seeds = _pcg64_seeds(master_seed, lo, hi)
    return (np.random.Generator(np.random.PCG64(_GivenState(words))) for words in seeds)


def _ginibre(re: np.ndarray, im: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Complex standard-Gaussian entries, E|Z_ij|^2 = 1, from their real
    and imaginary parts, written into ``out``: (re + 1j * im) / sqrt(2)
    by the same ufunc loops, in place."""
    np.multiply(1j, im, out=out)
    np.add(re, out, out=out)
    out /= math.sqrt(2.0)
    return out


def _haar_columns(z: np.ndarray) -> np.ndarray:
    """Phase-corrected QR (Mezzadri 2007) of a stack of Ginibre matrices
    (..., dim, cols): orthonormal columns distributed as the first columns
    of a Haar unitary of size dim (the raw QR alone is not Haar)."""
    try:
        q, r = np.linalg.qr(z, mode="reduced")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK breakdown
        raise NumericalFailure(f"QR factorization failed: {exc}") from exc
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    # A zero diagonal entry has probability zero; keep the phase finite.
    diag[diag == 0] = 1.0
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def haar_unitary(dim: int, rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-distributed unitary of size ``dim``, or a ``(*shape, dim, dim)``
    stack of them from one Ginibre draw that equals successive single draws."""
    if dim < 1:
        raise BadModeCount(f"invalid unitary size {dim}")
    parts = rng.standard_normal((*shape, 2, dim, dim))
    z = np.empty((*shape, dim, dim), complex)
    return _haar_columns(_ginibre(parts[..., 0, :, :], parts[..., 1, :, :], z))


def _check_unitary(u: np.ndarray) -> int:
    """Size d of a unitary, or of each unitary of a (..., d, d) stack."""
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
        raise NotUnitary(f"expected a square matrix, got shape {u.shape}")
    d = u.shape[-1]
    residue = np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(d)), initial=0.0)
    if not residue <= max(UNITARY_TOL, 1e-13 * d):  # also rejects NaN
        raise NotUnitary(f"max |U^dag U - I| = {residue:.3e}")
    return d


def unitary_to_symplectic(u: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic image [[Re U, Im U], [-Im U, Re U]] of a unitary.

    This is the closed real form of the conjugation
    P diag(U, U*) P^{-1} with P = [[I, iI], [iI, I]]/sqrt(2); the two agree
    to machine precision.
    The map is a group homomorphism from U(d) onto the passive phase-space
    transformations of d modes.
    """
    u = np.asarray(u, dtype=complex)
    _check_unitary(u)
    return np.block([[u.real, u.imag], [-u.imag, u.real]])


# kind -> None for a kind without parameter, else (its field, the parser of
# its text, the test its value must pass, what an error says it needs)
_PROFILE_PARAMETERS = {
    "vacuum": None,
    "uniform": ("z0", float, lambda v: v >= 1.0, "z0 >= 1, got {}"),
    "power": ("beta", float, lambda v: v >= 0.0, "beta >= 0, got {}"),
    "flat": ("energy", float, lambda v: v > 0.0, "a positive energy bound, got {}"),
    "file": ("path", str, bool, "a path"),
}


@dataclass(frozen=True)
class ZProfile:
    """Squeezing profile for the ambient modes.

    Kinds: ``vacuum`` (all ones), ``uniform`` (all z0), ``power`` (the
    first ceil(n/4) modes squeezed to n^(beta/2), rest 1, so the largest
    squeeze-spectrum entry grows like n^beta), ``flat`` (flat Lebesgue
    measure on the energy ball, by rejection) and ``file`` (one z per line,
    ambient-dimension many entries).
    """

    kind: str
    z0: float | None = None
    beta: float | None = None
    energy: float | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _PROFILE_PARAMETERS:
            raise InvalidProfile(f"unknown profile kind {self.kind!r}")
        param = _PROFILE_PARAMETERS[self.kind]
        own = param and param[0]
        for field in ("z0", "beta", "energy", "path"):
            value = getattr(self, field)
            if value is not None and field != own:
                raise InvalidProfile(f"{self.kind} profile takes no {field}, got {value!r}")
        for value in (self.z0, self.beta, self.energy):
            if value is not None and not math.isfinite(value):
                raise InvalidProfile(f"{self.kind} profile parameter must be finite, got {value}")
        if param is not None:
            _, _, valid, needs = param
            value = getattr(self, own)
            if value is None or not valid(value):
                raise InvalidProfile(f"{self.kind} profile needs {needs.format(value)}")

    @classmethod
    def parse(cls, text: str) -> "ZProfile":
        """Parse 'vacuum | uniform:<z0> | power:<beta> | flat:<E> | file:<path>'."""
        head, _, tail = text.strip().partition(":")
        if head not in _PROFILE_PARAMETERS:
            raise InvalidProfile(f"unknown profile {text!r}")
        param = _PROFILE_PARAMETERS[head]
        try:
            if param is None:
                if tail:
                    raise InvalidProfile(f"{head} takes no parameter")
                return cls(head)
            field, parse_value, _, _ = param
            return cls(head, **{field: parse_value(tail)})
        except ValueError as exc:
            raise InvalidProfile(f"bad profile parameter in {text!r}") from exc

    def canonical(self) -> str:
        param = _PROFILE_PARAMETERS[self.kind]
        if param is None:
            return self.kind
        value = getattr(self, param[0])
        return f"{self.kind}:{value if isinstance(value, str) else repr(value)}"

    @property
    def degree(self) -> float:
        """Polynomial growth degree of the squeeze spectrum (beta for
        power profiles, 0 for every bounded profile)."""
        return float(self.beta) if self.kind == "power" else 0.0

    @property
    def is_random(self) -> bool:
        return self.kind == "flat"


@dataclass(frozen=True, eq=False)
class SqueezingSpec:
    """Vector of per-mode squeezing values z_i >= 1.

    ``energy_bound`` marks membership in the energy ball
    sum(z^2 + z^-2) <= 4E; profile-generated vectors carry None.
    """

    z: np.ndarray
    energy_bound: float | None = None

    def __post_init__(self) -> None:
        z = np.atleast_1d(np.asarray(self.z, dtype=float)).copy()
        if z.ndim != 1 or z.size == 0:
            raise InvalidProfile("squeezing vector must be a nonempty 1-D array")
        if not (z >= 1.0).all():  # also rejects NaN
            raise InvalidProfile(f"squeezing values must be >= 1, min is {z.min()}")
        z_max = float(z.max())
        if not math.isfinite(z.size * z_max * z_max):  # bounds sum(z^2 + z^-2)
            raise InvalidProfile(f"squeezing too large: n * max(z)^2 overflows, max z is {z_max}")
        if self.energy_bound is not None:
            budget = float(np.sum(z * z + z ** -2.0))
            if budget > 4.0 * self.energy_bound:
                raise InvalidProfile(
                    f"energy-ball violation: sum(z^2 + z^-2) = {budget} > 4E = {4 * self.energy_bound}"
                )
        z.flags.writeable = False
        object.__setattr__(self, "z", z)

    @property
    def n_modes(self) -> int:
        return int(self.z.size)


def flat_z_max(energy: float) -> float:
    """Largest single z compatible with the ball: solves z^2 + z^-2 = 4E."""
    if energy < 0.5:
        raise EmptyConstraintSet(f"energy bound {energy} admits no z >= 1")
    return math.sqrt(2.0 * energy + math.sqrt(4.0 * energy * energy - 1.0))


def _profile_file_values(path: str) -> np.ndarray:
    """The z values of a ``file:`` profile, read-only.  Read once per
    version of the file (absolute path, mtime, size), not once per sample."""
    try:
        st = os.stat(path)
    except OSError as exc:
        raise InvalidProfile(f"cannot read profile file {path}: {exc}") from exc
    return _read_profile_file(path, (os.path.abspath(path), st.st_mtime_ns, st.st_size))


@functools.lru_cache(maxsize=8)
def _read_profile_file(path: str, key: tuple) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = np.array([float(line) for line in fh if line.strip()])
    except OSError as exc:
        raise InvalidProfile(f"cannot read profile file {path}: {exc}") from exc
    except ValueError as exc:
        raise InvalidProfile(f"profile file {path} has a non-numeric line: {exc}") from exc
    if not np.isfinite(values).all():
        raise InvalidProfile(f"profile file {path} has a non-finite value")
    values.flags.writeable = False
    return values


def draw_squeezing(
    profile: ZProfile, n_modes: int, rng: np.random.Generator | None = None
) -> SqueezingSpec:
    """Squeezing vector for ``n_modes`` ambient modes under a profile.

    Deterministic profiles ignore ``rng``.  The flat profile rejection
    samples: each z_i uniform on [1, z_max], accepted iff the vector lies
    in the energy ball, so accepted vectors satisfy the bound exactly.
    """
    if n_modes < 1:
        raise BadModeCount(f"n_modes must be >= 1, got {n_modes}")
    if profile.kind == "vacuum":
        return SqueezingSpec(np.ones(n_modes))
    if profile.kind == "uniform":
        return SqueezingSpec(np.full(n_modes, float(profile.z0)))
    if profile.kind == "power":
        z = np.ones(n_modes)
        try:
            z[: math.ceil(n_modes / 4)] = float(n_modes) ** (profile.beta / 2.0)
        except OverflowError as exc:
            raise InvalidProfile(f"power profile overflows: {n_modes}^({profile.beta}/2)") from exc
        return SqueezingSpec(z)
    if profile.kind == "file":
        values = _profile_file_values(profile.path)
        if len(values) != n_modes:
            raise DimensionMismatch(
                f"profile file has {len(values)} entries, ambient dimension is {n_modes}"
            )
        return SqueezingSpec(values)

    # flat measure on the energy ball
    energy = float(profile.energy)
    if 4.0 * energy < 2.0 * n_modes:
        raise EmptyConstraintSet(
            f"4E = {4 * energy} < 2n = {2 * n_modes}: the constraint set is empty"
        )
    if rng is None:
        raise InvalidConfig("flat profile needs an RNG stream")
    z_hi = flat_z_max(energy)
    drawn = 0
    while drawn < _REJECTION_MAX_DRAWS:
        batch = rng.uniform(1.0, z_hi, size=(_REJECTION_BATCH, n_modes))
        drawn += _REJECTION_BATCH
        cost = np.sum(batch * batch + batch ** -2.0, axis=1)
        hits = np.nonzero(cost <= 4.0 * energy)[0]
        if hits.size:
            return SqueezingSpec(batch[hits[0]], energy_bound=energy)
    raise RejectionTimeout(
        f"no acceptance in {_REJECTION_MAX_DRAWS} draws (rate < 1e-6); "
        "use a deterministic profile (uniform/power) instead"
    )


def squeeze_gram_diagonal(spec: SqueezingSpec) -> np.ndarray:
    """Diagonal (z_1^2..z_n^2, z_1^-2..z_n^-2) of the squeeze-layer Gram matrix."""
    zsq = spec.z * spec.z
    return np.concatenate([zsq, 1.0 / zsq])


@dataclass(frozen=True)
class RandomStateConfig:
    """Configuration of the random-state pipeline.

    ``n_full`` is the mode count of the pre-trace system; the ``purified``
    pipeline doubles it before applying the ambient interferometer, the
    ``direct`` pipeline does not.  ``m_sys`` modes are kept.
    """

    n_full: int
    m_sys: int
    profile: ZProfile
    master_seed: int
    pipeline: str = "purified"

    def __post_init__(self) -> None:
        if self.n_full < 1:
            raise InvalidConfig(f"n_full must be >= 1, got {self.n_full}")
        if not 1 <= self.m_sys <= self.n_full:
            raise InvalidConfig(f"m_sys={self.m_sys} out of range 1..{self.n_full}")
        if self.pipeline not in ("direct", "purified"):
            raise InvalidConfig(f"pipeline must be 'direct' or 'purified', got {self.pipeline!r}")
        if self.master_seed < 0:
            raise InvalidConfig(f"master_seed must be >= 0, got {self.master_seed}")

    @property
    def ambient_modes(self) -> int:
        return 2 * self.n_full if self.pipeline == "purified" else self.n_full


def _gamma_from_rows(
    rows: np.ndarray, gram_diag: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Reduced covariance from the kept rows of the ambient unitary.

    ``rows`` holds the first m rows of U in U(d), or a stack of them
    (..., m, d); the corresponding rows of the embedded interferometer are
    [Re W, Im W] and [-Im W, Re W], and the kept covariance block is half
    their Gram matrix through the squeeze diagonal (which broadcasts
    against the stack).  The selector and its product with the diagonal
    are built in ``scratch``, a float buffer of at least 8 * rows.size
    entries, or in fresh memory without one.
    """
    *stack, m, d = rows.shape
    buffers = np.empty(8 * rows.size) if scratch is None else scratch[: 8 * rows.size]
    # The selector is laid out as np.block([[re, im], [-im, re]]) lays it
    # out, column-major per matrix where the rows are (the sampling
    # kernel's at m >= 2), else C order: matmul's BLAS route, and with it
    # the last bits of Gamma, follow the layout.
    if m > 1 and abs(rows.strides[-2]) < abs(rows.strides[-1]):
        sel, w = buffers.reshape(2, *stack, 2 * d, 2 * m).swapaxes(-1, -2)
    else:
        sel, w = buffers.reshape(2, *stack, 2 * m, 2 * d)
    re, im = rows.real, rows.imag
    sel[..., :m, :d] = re
    sel[..., :m, d:] = im
    np.negative(im, out=sel[..., m:, :d])
    sel[..., m:, d:] = re
    np.multiply(sel, gram_diag, out=w)
    w *= 0.5
    return w @ np.swapaxes(sel, -1, -2)


def state_from_unitary(u: np.ndarray, spec: SqueezingSpec, m_sys: int) -> np.ndarray:
    """Kept-mode covariance produced by an explicit ambient unitary, or one
    per unitary of a (..., d, d) stack.

    Equals the full pipeline: embed u, conjugate the squeeze Gram matrix,
    halve, and keep the first ``m_sys`` modes.
    """
    u = np.asarray(u, dtype=complex)
    d = _check_unitary(u)
    if d != spec.n_modes:
        raise DimensionMismatch(f"unitary is {d}-dimensional, squeezing has {spec.n_modes} modes")
    if not 1 <= m_sys <= d:
        raise BadModeCount(f"m_sys={m_sys} out of range 1..{d}")
    return _gamma_from_rows(u[..., :m_sys, :], squeeze_gram_diagonal(spec))


# Largest number of complex Ginibre entries (samples x d x m) in one block
# of the QR and Gamma kernel, and of covariance entries (samples x 2m x 2m,
# 64 KB) in one stack.  Blocks of 2^13 to 2^15 entries gave the same
# per-sample time on a sweep; 2^15 raised the peak memory of a moment grid
# by about 3 MB, 2^13 by about 1 MB.  A sample larger than the budget
# (d = 4096, m = 8) is a block of its own.
BLOCK_ENTRIES = 1 << 13
# Largest number of complex entries (samples x d_max x m) of one draw that
# a grid's configs share: 2^18 normals, 2 MiB.  Up to d_max / d_min = 16 the
# grid's smallest config still gets kernel blocks of the full budget.
# Each thread keeps one set of kernel buffers (_block_buffers), 80 bytes
# per entry: 0.625 MiB at the budget, 2.5 MiB after a d = 4096, m = 8
# sample; and one draw buffer, 16 bytes per entry: 128 KiB for a single
# config at the budget, 2 MiB at the cap.
DRAW_ENTRIES = 1 << 17

_SCRATCH = threading.local()

# glibc's mallopt parameters, and the thresholds set once one sample fills
# a block: 32 MiB is glibc's 64-bit ceiling for its dynamic mmap
# threshold, and glibc keeps the trim threshold at twice that
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20


@functools.cache
def _keep_freed_memory() -> None:
    """Pin glibc's mmap and trim thresholds, once per process (forked
    children inherit them), so that the QR's fresh arrays of a sample that
    fills a block, 128 KiB per matrix at d m = 2^13 and 512 KiB at 2^15,
    come from memory that stays mapped when they are freed instead of
    being faulted back in on every sample.  A no-op where libc has no
    ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _block_buffers(entries: int, draws: int):
    """The thread's flat buffers: the Gaussian parts of a draw of up to
    ``draws`` complex entries (2 floats each), and for kernel blocks of up
    to ``entries`` complex entries the Ginibre block (1 complex each) and
    the selector with its weighted copy (8 floats each).

    The buffers are reused from draw to draw, so that blocks do not map
    and unmap fresh memory (a budget-sized complex block is 128 KiB,
    glibc's initial mmap threshold), and each grows to the largest size
    asked for: at most its budget, or one sample past it.  They are
    private to the thread: ``Generator.standard_normal`` releases the GIL,
    so threads sharing them would overwrite each other's draws.
    """
    if getattr(_SCRATCH, "entries", -1) < entries:
        _SCRATCH.entries = entries
        _SCRATCH.kernel = np.empty(entries, complex), np.empty(8 * entries)
    if getattr(_SCRATCH, "draws", -1) < draws:
        _SCRATCH.draws = draws
        _SCRATCH.parts = np.empty(2 * draws)
    return _SCRATCH.parts, *_SCRATCH.kernel


def _draw_block(
    configs, lo: int, hi: int, streams: Iterator[np.random.Generator], shared
) -> list[tuple[list[np.ndarray], list[SqueezingSpec]]]:
    """Per config of a grid, the covariance blocks and squeezing vectors
    of indices lo..hi-1, from one draw of the next hi - lo of ``streams``;
    ``shared`` holds per config a deterministic profile's vector and Gram
    diagonal, or is [None] for a random profile's one config.  See
    :func:`iter_blocks`."""
    width = 2 * max(config.ambient_modes for config in configs) * configs[0].m_sys
    rows = _block_buffers(0, (hi - lo) * width // 2)[0][: (hi - lo) * width].reshape(hi - lo, -1)
    drawn = []
    for row, rng in zip(rows, streams):
        if shared[0] is None:
            drawn.append(draw_squeezing(configs[0].profile, configs[0].ambient_modes, rng))
        rng.standard_normal(out=row)
    if drawn:
        shared = [(None, np.stack([squeeze_gram_diagonal(s) for s in drawn])[:, None, :])]
    return [(gammas, drawn or [share[0]] * (hi - lo))
            for gammas, share in zip(_kernel(configs, rows, shared), shared)]


def _kernel(configs, rows: np.ndarray, shared) -> list[list[np.ndarray]]:
    """Per config of a grid, the covariance blocks of the samples whose
    Gaussian parts are ``rows``, one row of 2 d_max m normals per sample, of
    which a config of ambient dimension d reads the first 2 d m; ``shared``
    holds per config a pair whose second entry is the Gram diagonal, or a
    (rows, 1, 2d) stack of one per sample."""
    m, dims = configs[0].m_sys, [config.ambient_modes for config in configs]
    widest = max(dims) * m
    if widest >= BLOCK_ENTRIES:  # one sample fills a block: keep its QR's arrays mapped
        _keep_freed_memory()
    _, ginibre, gamma = _block_buffers(max(BLOCK_ENTRIES, widest), 0)
    blocks = []
    for d, (_, gram) in zip(dims, shared):
        step = max(1, BLOCK_ENTRIES // (d * m))
        gammas = []
        for k in range(0, len(rows), step):
            block = rows[k:k + step, : 2 * d * m].reshape(-1, 2, d, m)
            z = _ginibre(block[:, 0], block[:, 1], ginibre[: block[:, 0].size].reshape(-1, d, m))
            weights = gram if gram.ndim == 1 else gram[k:k + step]
            gammas.append(_gamma_from_rows(np.swapaxes(_haar_columns(z), -1, -2), weights, gamma))
        blocks.append(gammas)
    return blocks


def iter_blocks(configs, lo: int, hi: int):
    """Covariances (2m x 2m) and squeezing vectors of the samples with
    indices lo..hi-1 at each config of a grid, deterministic in (seed,
    index): yields (grid position, first index, covariances, squeezing
    vectors) per config and stack of at most ``BLOCK_ENTRIES`` covariance
    entries, each config's stacks in index order.  The one path from seed
    to covariances; one config is a grid of one.

    The configs share master seed, m and profile.  Every index has its own
    stream, all opened by one :func:`block_streams` call, and draws from it
    in a fixed order: a random profile's squeezing vector, then the real
    and the imaginary part of a d x m Ginibre block, in one call.  So a
    sample does not depend on its block, stack or grid.  A deterministic
    profile draws no vector, so its grid draws each index's 2 d_max m
    normals once, and a config of ambient dimension d reads the first
    2 d m, the normals it would draw alone
    (``Generator.standard_normal(out=...)`` fills in sequence); its vector
    and Gram diagonal are built once per config.  A random profile's
    vector has d entries, so each config of its grid is a grid of one.

    A draw spans at most ``DRAW_ENTRIES`` Ginibre entries of the largest
    config and ``BLOCK_ENTRIES`` of the smallest (at least one sample).
    The QR, its phase correction and the Gamma build run per config on
    blocks of at most ``BLOCK_ENTRIES`` entries of a draw (at least one
    sample).  Only the kept m rows of the ambient Haar unitary are
    generated (their marginal distribution is exact): O(d m^2) per
    sample, not O(d^3).  The Gaussian parts, the Ginibre block, the
    selector and its product with the squeeze diagonal are views of the
    thread's reused buffers (:func:`_block_buffers`), and the phase
    correction scales the QR's Q in place.  A stack gathers the many
    small blocks of a large d, since its statistics cost about 0.2 ms per
    call whatever its size.
    """
    if len({(c.master_seed, c.m_sys, c.profile) for c in configs}) != 1:
        raise InvalidConfig("the configs of a grid must share master seed, m and profile")
    profile = configs[0].profile
    if profile.is_random and len(configs) > 1:
        for g, config in enumerate(configs):
            for _, first, gammas, specs in iter_blocks([config], lo, hi):
                yield g, first, gammas, specs
        return
    m, dims = configs[0].m_sys, [config.ambient_modes for config in configs]
    step = max(1, min(BLOCK_ENTRIES // (min(dims) * m), DRAW_ENTRIES // (max(dims) * m)))
    stack = max(1, BLOCK_ENTRIES // (4 * m * m))
    streams = block_streams(configs[0].master_seed, lo, hi)
    shared = [None] if profile.is_random else [
        (spec, squeeze_gram_diagonal(spec)) for spec in (draw_squeezing(profile, d) for d in dims)
    ]
    for first in range(lo, hi, stack):
        last = min(first + stack, hi)
        gammas, specs = [[] for _ in configs], [[] for _ in configs]
        for k in range(first, last, step):
            for g, (blocks, block_specs) in enumerate(
                _draw_block(configs, k, min(k + step, last), streams, shared)
            ):
                gammas[g] += blocks
                specs[g] += block_specs
        for g in range(len(configs)):
            yield g, first, np.concatenate(gammas[g]), specs[g]


def sample_block(
    config: RandomStateConfig, lo: int, hi: int
) -> tuple[np.ndarray, list[SqueezingSpec]]:
    """Covariances (hi - lo, 2m, 2m) and squeezing vectors of the samples
    with indices lo..hi-1: the stacks of :func:`iter_blocks`, joined."""
    if hi <= lo:
        raise InvalidConfig(f"empty sample range [{lo}, {hi})")
    _, _, gammas, specs = zip(*iter_blocks([config], lo, hi))
    return np.concatenate(gammas), [spec for stack in specs for spec in stack]


def sample_random_state(config: RandomStateConfig, sample_index: int) -> np.ndarray:
    """Covariance matrix of one random reduced Gaussian state."""
    return sample_block(config, sample_index, sample_index + 1)[0][0]


def random_symplectic(
    n_modes: int, rng: np.random.Generator, max_squeeze: float = 1.5
) -> np.ndarray:
    """Generic symplectic matrix: interferometer, squeeze layer, interferometer."""
    o_left, o_right = unitary_to_symplectic(haar_unitary(n_modes, rng, (2,)))
    z = rng.uniform(1.0, max_squeeze, n_modes)
    diag = np.concatenate([z, 1.0 / z])
    return (o_left * diag) @ o_right


def random_covariance(
    n_modes: int,
    rng: np.random.Generator,
    nu_max: float = 2.0,
    max_squeeze: float = 1.5,
) -> np.ndarray:
    """Random physical covariance matrix S D S^T with nu in [1/2, nu_max]."""
    s = random_symplectic(n_modes, rng, max_squeeze)
    nus = rng.uniform(0.5, nu_max, n_modes)
    return (s * np.concatenate([nus, nus])) @ s.T
