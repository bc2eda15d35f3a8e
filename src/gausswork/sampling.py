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
import glob
import itertools
import math
import numbers
import os
from collections.abc import Iterator
# the in-place re-seed's types, bound apart from the library lookups through ctypes.CDLL
from ctypes import c_uint64, c_void_p
from dataclasses import dataclass, field

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
    config_int,
)

UNITARY_TOL = 1e-10

# float64 entries of the largest array numpy can shape: its size in bytes must fit np.intp
MAX_ENTRIES = np.iinfo(np.intp).max // 8

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


# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h), high and low word
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products a b of uint64s, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    mid = (a0 * b0 >> 32) + (a0 * b1 & _MASK32) + (a1 * b0 & _MASK32)
    return a1 * b1 + (a0 * b1 >> 32) + (a1 * b0 >> 32) + (mid >> 32)


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """(N, 4) uint64: the 128-bit (state, inc) that numpy's
    ``pcg64_set_seed`` sets from each row w0..w3 of the (N, 4) uint64 seed
    words ``seeds`` (:func:`_pcg64_seeds`), as state low, state high, inc
    low, inc high: inc = 2 (w2 2^64 + w3) + 1 and
    state = ((w0 2^64 + w1) + inc) M + inc mod 2^128, M PCG64's multiplier."""
    w0, w1, w2, w3 = seeds.T
    inc_lo, inc_hi = w3 << 1 | 1, w2 << 1 | w3 >> 63
    x_lo = w1 + inc_lo
    x_hi = w0 + inc_hi + (x_lo < w1)  # the carry of the low words' sum
    state_lo = x_lo * _PCG_MULT_LO + inc_lo
    state_hi = (_mulhi64(x_lo, _PCG_MULT_LO) + x_lo * _PCG_MULT_HI + x_hi * _PCG_MULT_LO
                + inc_hi + (state_lo < inc_lo))
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


class _GivenStates(np.random.bit_generator.ISeedSequence):
    """Seed sequence of precomputed PCG64 seed words, an iterable of one
    row per index: each PCG64 seeded from it takes the next index's row."""

    def __init__(self, seeds):
        self.rows = iter(seeds)

    def generate_state(self, n_words, dtype=np.uint32):
        return next(self.rows)


def block_streams(master_seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """Independent, reproducible streams of the sample indices lo..hi-1,
    in index order; each is built when the iterator reaches it.

    The stream of index i is ``default_rng(SeedSequence(master_seed,
    spawn_key=(i,)))`` bit for bit, with the SeedSequence hash computed
    for ``BLOCK_ENTRIES`` indices at once, when the iterator reaches
    them, so a range of any length holds one block's seed words.
    Streams are keyed by (master_seed, i), so any partitioning of indices
    across blocks or workers yields bit-identical draws.
    """
    master_seed = config_int("master_seed", master_seed, 0)
    lo, hi = config_int("sample_index", lo, 0), config_int("hi", hi)
    blocks = (_pcg64_seeds(master_seed, k, min(k + BLOCK_ENTRIES, hi))
              for k in range(lo, hi, BLOCK_ENTRIES))
    seeds = _GivenStates(itertools.chain.from_iterable(blocks))
    return (np.random.Generator(np.random.PCG64(seeds)) for _ in range(lo, hi))


# seed words of the layout check: four distinct words whose low-word sums
# carry and whose w3 has its top bit set
_PROBE_SEEDS = np.array([[0x0123456789ABCDEF, 0xF0E1D2C3B4A59687,
                          0xFEDCBA9876543210, 0x8F1E2D3C4B5A6978]], np.uint64)


@functools.cache
def _pcg64_state_offset() -> int | None:
    """Offset of the 32 bytes of (state, inc) in a ``np.random.PCG64``
    object, once per process, or None where this numpy lays them out
    otherwise.  Read-only: the pointer at the head of the bit generator's
    C state must point inside the object, and the 4 words there must be
    :func:`_pcg64_states`' for a PCG64 that numpy seeds from the same
    seed words."""
    bit_generator = np.random.PCG64(_GivenStates(_PROBE_SEEDS))
    offset = (c_void_p.from_address(bit_generator.ctypes.state_address).value or 0) - id(bit_generator)
    if not 0 <= offset <= type(bit_generator).__basicsize__ - 32:
        return None
    words = list((c_uint64 * 4).from_address(id(bit_generator) + offset))
    return offset if words == _pcg64_states(_PROBE_SEEDS)[0].tolist() else None


def _index_streams(master_seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """The streams of indices lo..hi-1 as :func:`iter_blocks` draws from
    them, each bit for bit :func:`block_streams`': one Generator, yielded
    per index once that index's (state, inc) is written into its PCG64,
    which costs less than a PCG64 and a Generator per index; where
    :func:`_pcg64_state_offset` finds no offset, :func:`block_streams`'
    own.  A stream is valid until the next is taken; the draws use
    PCG64's 64-bit output only, so no buffered 32-bit word carries over."""
    streams = block_streams(master_seed, lo, hi)  # refuses a bad seed or range
    offset = _pcg64_state_offset()
    if offset is None:
        yield from streams
        return
    # seeded from given words, which costs less than hashing a seed
    rng = np.random.Generator(np.random.PCG64(_GivenStates(_PROBE_SEEDS)))
    state = memoryview((c_uint64 * 4).from_address(id(rng.bit_generator) + offset)).cast("B")
    for k in range(int(lo), int(hi), BLOCK_ENTRIES):
        # native-order bytes, 32 per index: a slice copies faster than 4 ints
        seeds = _pcg64_seeds(int(master_seed), k, min(k + BLOCK_ENTRIES, int(hi)))
        words = _pcg64_states(seeds).tobytes()
        for j in range(0, len(words), 32):
            state[:] = words[j:j + 32]
            yield rng


def haar_unitary(dim: int, rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-distributed unitary of size ``dim``, or a ``(*shape, dim, dim)``
    stack of them from one Ginibre draw that equals successive single draws:
    the QR of complex standard-Gaussian entries (re + i im) / sqrt(2), each
    column's phase fixed by R's diagonal (Mezzadri 2007; the raw QR alone
    is not Haar)."""
    if config_int("dim", dim) < 1:
        raise BadModeCount(f"invalid unitary size {dim}")
    parts = rng.standard_normal((*shape, 2, dim, dim))
    z = (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / math.sqrt(2.0)
    try:
        q, r = np.linalg.qr(z)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK breakdown
        raise NumericalFailure(f"QR factorization failed: {exc}") from exc
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    # A zero diagonal entry has probability zero; keep the phase finite.
    diag[diag == 0] = 1.0
    q *= (diag / np.abs(diag))[..., None, :]
    return q


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


# kind -> None for a kind without parameter, else (the type its value must
# have and what an error calls it, the test its value must pass, what an
# error says it needs); text is read as a float for a number, as it is
# for a path
_PROFILE_PARAMETERS = {
    "vacuum": None,
    "uniform": (numbers.Real, "a number", lambda v: v >= 1.0, "z0 >= 1, got {}"),
    "power": (numbers.Real, "a number", lambda v: v >= 0.0, "beta >= 0, got {}"),
    "flat": (numbers.Real, "a number", lambda v: v > 0.0, "a positive energy bound, got {}"),
    "file": (str, "a path string", bool, "a path"),
}


@dataclass(frozen=True)
class ZProfile:
    """Squeezing profile for the ambient modes.

    Kinds and their ``param``: ``vacuum`` (none; all ones), ``uniform``
    (all z0), ``power`` (beta: the first ceil(n/4) modes squeezed to
    n^(beta/2), rest 1, so the largest squeeze-spectrum entry grows like
    n^beta), ``flat`` (energy E: flat Lebesgue measure on the energy ball,
    by rejection) and ``file`` (a path: one z per line, ambient-dimension
    many entries).
    """

    kind: str
    param: float | str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _PROFILE_PARAMETERS:
            raise InvalidProfile(f"unknown profile kind {self.kind!r}")
        rule, value = _PROFILE_PARAMETERS[self.kind], self.param
        if rule is None:
            if value is not None:
                raise InvalidProfile(f"{self.kind} takes no parameter, got {value!r}")
            return
        kind_type, type_name, valid, needs = rule
        # a bool is an int, so a number type alone would take it
        if value is not None and (isinstance(value, bool) or not isinstance(value, kind_type)):
            raise InvalidProfile(f"{self.kind} profile parameter must be {type_name}, got {value!r}")
        # compared, not converted (math.isfinite would raise OverflowError):
        # an int or a Fraction past the largest float is not finite either
        if kind_type is not str and value is not None and not abs(value) <= float(np.finfo(float).max):
            raise InvalidProfile(f"{self.kind} profile parameter must be finite, got {value}")
        if value is None or not valid(value):
            raise InvalidProfile(f"{self.kind} profile needs {needs.format(value)}")

    @classmethod
    def parse(cls, text: str) -> "ZProfile":
        """Parse 'vacuum | uniform:<z0> | power:<beta> | flat:<E> | file:<path>'."""
        head, sep, tail = text.strip().partition(":")
        if head not in _PROFILE_PARAMETERS:
            raise InvalidProfile(f"unknown profile {text!r}")
        rule, param = _PROFILE_PARAMETERS[head], tail if sep else None
        if rule is not None and rule[0] is not str:
            try:
                param = float(tail)
            except ValueError as exc:
                raise InvalidProfile(f"bad profile parameter in {text!r}") from exc
        # the constructor refuses a parameter that converts but breaks the kind's rule
        return cls(head, param)

    def canonical(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param if isinstance(self.param, str) else repr(self.param)}"

    @property
    def degree(self) -> float:
        """Polynomial growth degree of the squeeze spectrum (beta for
        power profiles, 0 for every bounded profile)."""
        return float(self.param) if self.kind == "power" else 0.0

    @property
    def is_random(self) -> bool:
        return self.kind == "flat"


@dataclass(frozen=True, eq=False)
class SqueezingSpec:
    """Vector of per-mode squeezing values z_i >= 1, with its squeeze-layer
    Gram diagonal ``gram`` = (z_1^2..z_n^2, z_1^-2..z_n^-2) and the thermal
    value ``nu`` = sum(gram) / 4n, the mean energy per mode (1/2 at vacuum)."""

    z: np.ndarray
    gram: np.ndarray = field(init=False, repr=False)
    nu: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        z = np.atleast_1d(np.asarray(self.z, dtype=float)).copy()
        if z.ndim != 1 or z.size == 0:
            raise InvalidProfile("squeezing vector must be a nonempty 1-D array")
        if not (z >= 1.0).all():  # also rejects NaN
            raise InvalidProfile(f"squeezing values must be >= 1, min is {z.min()}")
        z_max = float(z.max())
        if not math.isfinite(z.size * z_max * z_max):  # bounds sum(z^2 + z^-2)
            raise InvalidProfile(f"squeezing too large: n * max(z)^2 overflows, max z is {z_max}")
        zsq = z * z
        gram = np.concatenate([zsq, 1.0 / zsq])
        z.flags.writeable = gram.flags.writeable = False
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "nu", float(np.sum(gram) / (2.0 * gram.size)))

    @property
    def n_modes(self) -> int:
        return int(self.z.size)


def flat_z_max(energy: float) -> float:
    """Largest single z compatible with the ball: solves z^2 + z^-2 = 4E."""
    if energy < 0.5:
        raise EmptyConstraintSet(f"energy bound {energy} admits no z >= 1")
    z_max = math.sqrt(2.0 * energy + math.sqrt(4.0 * energy * energy - 1.0))
    if not math.isfinite(z_max):  # 4E^2 overflows
        raise InvalidProfile(f"energy bound {energy} too large: z_max overflows")
    return z_max


def _profile_file_values(path: str) -> np.ndarray:
    """The z values of a ``file:`` profile, one per non-blank line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = np.array([float(line) for line in fh if line.strip()])
    except (OSError, UnicodeDecodeError) as exc:  # a decode error is a ValueError too
        raise InvalidProfile(f"cannot read profile file {path}: {exc}") from exc
    except ValueError as exc:
        raise InvalidProfile(f"profile file {path} has a non-numeric line: {exc}") from exc
    if not np.isfinite(values).all():
        raise InvalidProfile(f"profile file {path} has a non-finite value")
    return values


def draw_squeezing(
    profile: ZProfile, n_modes: int, rng: np.random.Generator | None = None
) -> SqueezingSpec:
    """Squeezing vector for ``n_modes`` ambient modes under a profile.

    Deterministic profiles ignore ``rng``.  The flat profile rejection
    samples: each z_i uniform on [1, z_max], accepted iff the vector lies
    in the energy ball, so accepted vectors satisfy the bound exactly.
    """
    if config_int("n_modes", n_modes) < 1:
        raise BadModeCount(f"n_modes must be >= 1, got {n_modes}")
    if profile.kind == "vacuum":
        return SqueezingSpec(np.ones(n_modes))
    if profile.kind == "uniform":
        return SqueezingSpec(np.full(n_modes, float(profile.param)))
    if profile.kind == "power":
        z = np.ones(n_modes)
        try:
            z[: math.ceil(n_modes / 4)] = float(n_modes) ** (profile.param / 2.0)
        except OverflowError as exc:
            raise InvalidProfile(f"power profile overflows: {n_modes}^({profile.param}/2)") from exc
        return SqueezingSpec(z)
    if profile.kind == "file":
        values = _profile_file_values(profile.param)
        if len(values) != n_modes:
            raise DimensionMismatch(
                f"profile file has {len(values)} entries, ambient dimension is {n_modes}"
            )
        return SqueezingSpec(values)

    # flat measure on the energy ball
    energy = float(profile.param)
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
            return SqueezingSpec(batch[hits[0]])
    raise RejectionTimeout(
        f"no acceptance in {_REJECTION_MAX_DRAWS} draws (rate < 1e-6); "
        "use a deterministic profile (uniform/power) instead"
    )


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
        for name, minimum in (("n_full", 1), ("m_sys", None)):
            object.__setattr__(self, name, config_int(name, getattr(self, name), minimum))
        if not 1 <= self.m_sys <= self.n_full:
            raise InvalidConfig(f"m_sys={self.m_sys} out of range 1..{self.n_full}")
        if self.pipeline not in ("direct", "purified"):
            raise InvalidConfig(f"pipeline must be 'direct' or 'purified', got {self.pipeline!r}")
        object.__setattr__(self, "master_seed", config_int("master_seed", self.master_seed, 0))
        if 2 * self.ambient_modes * self.m_sys > MAX_ENTRIES:  # a sample's row of Ginibre normals
            raise InvalidConfig(f"n_full={self.n_full}, m_sys={self.m_sys} exceed numpy's array size")

    @property
    def ambient_modes(self) -> int:
        return 2 * self.n_full if self.pipeline == "purified" else self.n_full


# Signs of V's blocks by half (z, 1/z) and part (Re, Im); see _gamma_from_rows
_SIGNS = np.array([[1.0, -1.0], [1.0, 1.0]])[:, :, None, None]


def _gamma_from_rows(parts: np.ndarray, gram_diag: np.ndarray) -> np.ndarray:
    """1/2 S(W) G S(W)^T, S(W) = [[Re W, Im W], [-Im W, Re W]], for m x d
    matrices W given as ``parts`` = (..., 2, m, d), Re W then Im W, and the
    squeeze Gram diagonal G, which broadcasts against the stack: the kept
    covariance block where W holds the first m rows of a unitary.  One
    syrk V^T V per matrix, V = [[z a, -z b], [b / z, a / z]] / sqrt(2) for
    W^T = a + ib."""
    *stack, _, m, d = parts.shape
    weights = np.sqrt(0.5 * gram_diag).reshape(*gram_diag.shape[:-1], 2, 1, 1, d) * _SIGNS
    v = np.empty((*stack, 2, m, 2, d))
    np.multiply(parts, weights[..., 0, :, :, :], out=v[..., 0, :])
    np.multiply(parts[..., ::-1, :, :], weights[..., 1, :, :, :], out=v[..., 1, :])
    v = v.reshape(*stack, 2 * m, 2 * d)
    return v @ v.mT


def state_from_unitary(u: np.ndarray, spec: SqueezingSpec, m_sys: int) -> np.ndarray:
    """Kept-mode covariance produced by an explicit ambient unitary, or one
    per unitary of a (..., d, d) stack.

    Equals the full pipeline: embed u, conjugate the squeeze Gram matrix,
    halve, and keep the first ``m_sys`` modes.  It is the sampling
    kernel's Gamma build (:func:`_gamma_from_rows`) on the kept rows of u,
    with no transform T to apply.
    """
    u = np.asarray(u, dtype=complex)
    d = _check_unitary(u)
    if d != spec.n_modes:
        raise DimensionMismatch(f"unitary is {d}-dimensional, squeezing has {spec.n_modes} modes")
    if not 1 <= config_int("m_sys", m_sys) <= d:
        raise BadModeCount(f"m_sys={m_sys} out of range 1..{d}")
    rows = u[..., :m_sys, :]
    parts = np.stack([rows.real, rows.imag], axis=-3)
    return _gamma_from_rows(parts, spec.gram)


# Largest number of complex Ginibre entries (samples x d x m) in one block
# of the m >= 2 Gamma kernel, of covariance entries (samples x 2m x 2m,
# 64 KB) in one stack, and of indices whose seed words block_streams
# hashes at once (about 1.8 MB transient).  Blocks of 2^13 to 2^15
# entries gave the same per-sample time on a sweep; 2^15 raised the peak
# memory of a moment grid by about 3 MB, 2^13 by about 1 MB.  A sample
# larger than the budget (d = 4096, m = 8) is a block of its own.
BLOCK_ENTRIES = 1 << 13
# Largest number of complex entries (samples x d_max x m) of one draw that
# a grid's configs share: 2^18 normals, 2 MiB, 16 bytes per entry; a single
# config at the block budget draws 128 KiB.  Up to d_max / d_min = 16 the
# grid's smallest config still gets kernel blocks of the full budget.
DRAW_ENTRIES = 1 << 17

# glibc's mallopt parameters, and the thresholds pinned before the first
# block: 32 MiB is glibc's 64-bit ceiling for its dynamic mmap threshold,
# and glibc keeps the trim threshold at twice that
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
# OpenBLAS's thread-count setter: the name in the OpenBLAS that numpy's
# wheels bundle (scipy-openblas, 64-bit integers), then a plain build's
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def _bundled_blas() -> list[str]:
    """Paths of the OpenBLAS libraries a numpy wheel bundles: numpy.libs
    beside the package (Linux), numpy/.dylibs (macOS); none for a numpy
    built against a system BLAS."""
    root = os.path.dirname(np.__file__)
    return sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))
                  + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))


def _pin_blas_threads() -> None:
    """Set OpenBLAS to one thread, looked up by name: in numpy's bundled
    library, then in the process's global symbols.  OpenBLAS may split a
    product across its threads (a direct d = m = 64 sample rounded
    differently at 1 and 2 threads); at one thread no sample's bytes
    depend on ``OPENBLAS_NUM_THREADS``, and forked chunks do not
    multiply into processes x BLAS threads.  A no-op where no setter is
    found."""
    for path in (*_bundled_blas(), None):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                setter(1)
                return


@functools.cache
def _keep_freed_memory() -> None:
    """Pin glibc's mmap and trim thresholds, once per process (forked
    children inherit them), so that a block's fresh arrays, up to 256 KiB
    per matrix at d m = 2^13 and 1 MiB at 2^15, come from memory that stays
    mapped when they are freed instead of being faulted back in on every
    block; and pin OpenBLAS to one thread (:func:`_pin_blas_threads`).
    The allocator pin is a no-op where libc has no ``mallopt``."""
    _pin_blas_threads()
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _one_mode_gammas(parts: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """(N, 2, 2) covariances of one kept mode from the (N, 2d) Gaussian
    parts of its Ginibre columns, the real halves a, then the imaginary
    halves b, and the Gram diagonal, shared (1, 2d) or per sample (N, 2d).

    The kept row is the column's direction up to a phase, and a phase
    only rotates the kept mode, which no recorded statistic sees.  So
    Gamma = 1/2 [[Q1, Q3], [Q3, Q2]] / Q0 (ROADMAP item 10) with
    Q0 = sum(a^2 + b^2), Q1 = sum(z^2 a^2 + z^-2 b^2),
    Q2 = sum(z^-2 a^2 + z^2 b^2) and Q3 = sum((z^-2 - z^2) a b), written
    as h I + [[p, q], [q, -p]] from four quadratic forms with
    e = z^2 + z^-2 and c = z^2 - z^-2:

        h = sum(e (a^2 + b^2)) / 4 Q0,  p = sum(c (a^2 - b^2)) / 4 Q0,
        q = -sum(c a b) / 2 Q0.

    The forms are einsum's own loops, three operands each, which sum each
    sample in one order whatever the block and call no BLAS; Q0 takes
    unit weights, so a vacuum (c = 0) gives h = 1/2 and p = q = 0
    exactly.
    """
    d = parts.shape[-1] // 2
    zsq, zinv = gram[..., :d], gram[..., d:]
    e, c = zsq + zinv, zsq - zinv
    a, b = parts[:, :d], parts[:, d:]

    def form(x, y, weights):
        return np.einsum("...j,...j,...j->...", x, y, weights)

    q0 = form(parts, parts, np.ones(2 * d))
    h = form(parts, parts, np.concatenate([e, e], axis=-1)) / (4.0 * q0)
    p = form(parts, parts, np.concatenate([c, -c], axis=-1)) / (4.0 * q0)
    gammas = np.empty((len(parts), 2, 2))
    gammas[:, 0, 0] = h + p
    gammas[:, 1, 1] = h - p
    gammas[:, 0, 1] = gammas[:, 1, 0] = form(a, b, -c) / (2.0 * q0)
    return gammas


def _phase_fixed_transform(parts: np.ndarray, first: int) -> np.ndarray:
    """S(T), T = R^-T, for each d x m block X = a + ib of ``parts`` =
    (N, 2, d, m), with R the positive-diagonal Cholesky factor of
    H = X^H X: the R of X's QR with Mezzadri's phase fix (Notices AMS 54,
    592 (2007)), so the kept rows are Q^T = T X^T and Q is never formed.
    Re H is a syrk of [a; b], Im H = a^T b - b^T a, and T = conj(L^-1) for
    numpy's factor L = R^H.  An H that is not numerically positive
    definite raises :class:`NumericalFailure` naming the first such
    sample, the stack's first being ``first``."""
    n, _, d, m = parts.shape
    cross = parts[:, 0].mT @ parts[:, 1]
    flat = parts.reshape(n, 2 * d, m)
    gram = np.empty((n, m, m), complex)
    gram.real = flat.mT @ flat
    np.subtract(cross, cross.mT, out=gram.imag)
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        for k, one in enumerate(gram):
            try:
                np.linalg.cholesky(one)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"sample {first + k}: the Gram matrix X^H X of its "
                                       "Ginibre block is not numerically positive definite") from exc
        raise
    # L^-1 by forward substitution over the whole stack, row k from the
    # rows above it, added in order whatever the stack's size;
    # np.linalg.inv, one LAPACK solve per matrix, would map about 0.4 MB
    # more of OpenBLAS into the process
    inverse = np.zeros_like(low)
    inverse.reshape(n, -1)[:, :: m + 1] = 1.0
    for k in range(m):
        inverse[:, k] -= np.sum(low[:, k, :k, None] * inverse[:, :k], axis=1)
        inverse[:, k] /= low[:, k, k, None]
    transform = np.empty((n, 2, m, 2, m))
    transform[:, 0, :, 0] = transform[:, 1, :, 1] = inverse.real
    np.negative(inverse.imag, out=transform[:, 0, :, 1])
    transform[:, 1, :, 0] = inverse.imag
    return transform.reshape(n, 2 * m, 2 * m)


def _kernel(config: RandomStateConfig, rows: np.ndarray, gram: np.ndarray,
            first: int) -> list[np.ndarray]:
    """The covariance blocks at ``config`` of the samples whose Gaussian
    parts are ``rows``, one row per sample, of which the config's ambient
    dimension d reads the first 2 d m; ``gram`` is the Gram diagonal,
    (1, 2d) when the samples share it and (rows, 2d) with one per sample;
    ``first`` is the index of the first row's sample, which an error names.

    One kept mode takes the closed form of :func:`_one_mode_gammas`, one
    block.  More take, on blocks of at most ``BLOCK_ENTRIES`` Ginibre
    entries, S(Q^T) = S(T) S(X^T) (S is a homomorphism):
    Gamma = S(T) Gamma_X S(T)^T, with Gamma_X the Gamma build of
    :func:`_gamma_from_rows` on the raw block's rows X^T and S(T) from
    :func:`_phase_fixed_transform`; exact in exact arithmetic, within
    about eps kappa(X)^2 |Gamma| in floating point.  Scaling X scales T
    inversely, so the Ginibre 1/sqrt(2) is left out."""
    m, d = config.m_sys, config.ambient_modes
    if m == 1:
        return [_one_mode_gammas(rows[:, : 2 * d], gram)]
    step, gammas = max(1, BLOCK_ENTRIES // (d * m)), []
    for k in range(0, len(rows), step):
        parts = rows[k:k + step, : 2 * d * m].reshape(-1, 2, d, m)
        transform = _phase_fixed_transform(parts, first + k)
        gamma_x = _gamma_from_rows(parts.swapaxes(-1, -2),
                                   gram if len(gram) == 1 else gram[k:k + step])
        gammas.append(transform @ gamma_x @ transform.mT)
    return gammas


def iter_blocks(configs, lo: int, hi: int):
    """Covariances (2m x 2m) and thermal values nu of the samples with
    indices lo..hi-1 at each config of a grid: yields (grid position,
    first index, covariances, nu) per config and stack of at most
    ``BLOCK_ENTRIES`` covariance entries, each config's stacks in index
    order; nu is a float array, the :class:`SqueezingSpec` ``nu`` of each
    sample's squeezing.  The one path from seed to covariances; one
    config is a grid of one, and the configs share master seed, m and
    profile.

    Deterministic in (seed, index): index i draws from its own
    :func:`block_streams` stream, set in place (:func:`_index_streams`),
    in a fixed order, a random profile's squeezing vector, then 2 d m
    normals, the real and the imaginary part
    of its d x m Ginibre block.  A deterministic profile's grid draws the
    2 d_max m normals once and a config of dimension d reads the first
    2 d m (``standard_normal(out=...)`` fills in sequence); a random
    profile's vector has d entries, so each of its configs draws alone.
    So a sample does not depend on its draw, stack or grid.

    A draw spans at most ``DRAW_ENTRIES`` Ginibre entries of the largest
    config and ``BLOCK_ENTRIES`` of the smallest, a kernel block
    (:func:`_kernel`) at most ``BLOCK_ENTRIES``, each at least one sample;
    each draw gets fresh arrays.  glibc's thresholds and OpenBLAS's thread
    count are pinned before the first draw (:func:`_keep_freed_memory`).
    """
    _keep_freed_memory()
    if len({(c.master_seed, c.m_sys, c.profile) for c in configs}) != 1:
        raise InvalidConfig("the configs of a grid must share master seed, m and profile")
    profile, m = configs[0].profile, configs[0].m_sys
    # a stack gathers the many small blocks of a large d: its statistics
    # cost about 0.2 ms per call whatever its size
    stack = max(1, BLOCK_ENTRIES // (4 * m * m))
    groups = [[g] for g in range(len(configs))] if profile.is_random else [range(len(configs))]
    for group in groups:
        dims = [configs[g].ambient_modes for g in group]
        step = max(1, min(BLOCK_ENTRIES // (min(dims) * m), DRAW_ENTRIES // (max(dims) * m)))
        streams = _index_streams(configs[0].master_seed, lo, hi)
        fixed = [] if profile.is_random else [draw_squeezing(profile, d) for d in dims]
        for first in range(lo, hi, stack):
            last = min(first + stack, hi)
            gammas, nus = [[] for _ in group], [[] for _ in group]
            for k in range(first, last, step):
                rows = np.empty((min(k + step, last) - k, 2 * max(dims) * m))
                if profile.is_random:
                    specs = []
                    for row, rng in zip(rows, streams):
                        specs.append(draw_squeezing(profile, dims[0], rng))
                        rng.standard_normal(out=row)
                    drawn = [(np.array([s.gram for s in specs]), np.array([s.nu for s in specs]))]
                else:
                    for row, rng in zip(rows, streams):
                        rng.standard_normal(out=row)
                    drawn = [(spec.gram[None], np.full(len(rows), spec.nu)) for spec in fixed]
                for j, (gram, nu) in enumerate(drawn):
                    gammas[j] += _kernel(configs[group[j]], rows, gram, k)
                    nus[j].append(nu)
            for j, g in enumerate(group):
                yield g, first, np.concatenate(gammas[j]), np.concatenate(nus[j])


def sample_block(config: RandomStateConfig, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Covariances (hi - lo, 2m, 2m) and thermal values nu (hi - lo) of the
    samples with indices lo..hi-1: the stacks of :func:`iter_blocks`,
    joined."""
    if hi <= lo:
        raise InvalidConfig(f"empty sample range [{lo}, {hi})")
    if (hi - lo) * 4 * config.m_sys ** 2 > MAX_ENTRIES:  # the joined covariances
        raise InvalidConfig(f"sample range [{lo}, {hi}) exceeds numpy's array size")
    _, _, gammas, nus = zip(*iter_blocks([config], lo, hi))
    return np.concatenate(gammas), np.concatenate(nus)


def random_symplectic(
    n_modes: int, rng: np.random.Generator, max_squeeze: float = 1.5
) -> np.ndarray:
    """Generic symplectic matrix: interferometer, squeeze layer, interferometer."""
    n_modes = config_int("n_modes", n_modes)
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
