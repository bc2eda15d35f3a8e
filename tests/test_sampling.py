import ctypes
import dataclasses
import functools
import hashlib
import math
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest

from gausswork import cli, harness
from gausswork import phasespace as ps
from gausswork import sampling as sm
from gausswork.errors import (
    BadModeCount,
    DimensionMismatch,
    EmptyConstraintSet,
    InvalidConfig,
    InvalidProfile,
    NotUnitary,
    NumericalFailure,
    RejectionTimeout,
)
from gausswork.sampling import RandomStateConfig, SqueezingSpec, ZProfile
from gausswork.validate import check_embedding

from test_phasespace import keep_indices

EMBED_IMAG_TOL = 1e-12


def unitary_to_symplectic_reference(u):
    """Reference embedding via the explicit P-conjugation, the convention
    anchor of unitary_to_symplectic; checks that the imaginary residue it
    discards is below 1e-12."""
    u = np.asarray(u, dtype=complex)
    d = sm._check_unitary(u)
    eye = np.eye(d)
    p = np.block([[eye, 1j * eye], [1j * eye, eye]]) / math.sqrt(2.0)
    block = np.zeros((*u.shape[:-2], 2 * d, 2 * d), dtype=complex)
    block[..., :d, :d] = u
    block[..., d:, d:] = u.conj()
    out = p @ block @ p.conj().T
    assert float(np.max(np.abs(out.imag))) <= EMBED_IMAG_TOL
    return out.real


class TestStreams:
    # numpy's SeedSequence + PCG64 is the oracle for every index's stream
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 12345, 2**128 - 1, 2**128, 2**200 + 3]
    RANGES = [(0, 600), (2**32 - 3, 2**32 + 3), (2**64 - 3, 2**64 + 3),
              (3 * 2**32 - 2, 3 * 2**32 + 2)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_seed_sequence(self, seed):
        for lo, hi in self.RANGES:
            words = sm._pcg64_seeds(seed, lo, hi)
            streams = list(sm.block_streams(seed, lo, hi))
            assert words.shape == (hi - lo, 4) and len(streams) == hi - lo
            for index, own_words, stream in zip(range(lo, hi), words, streams):
                oracle = np.random.SeedSequence(seed, spawn_key=(index,))
                assert np.array_equal(own_words, oracle.generate_state(4, np.uint64))
                expected = np.random.Generator(np.random.PCG64(oracle)).standard_normal(16)
                assert np.array_equal(stream.standard_normal(16), expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_match_pcg64(self, seed):
        # the (state, inc) written in place are those numpy's own seeding sets
        for lo, hi in self.RANGES:
            states = sm._pcg64_states(sm._pcg64_seeds(seed, lo, hi))
            for index, words in zip(range(lo, hi), states.tolist()):
                oracle = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,)))
                state = oracle.state["state"]
                assert words[0] | words[1] << 64 == state["state"]
                assert words[2] | words[3] << 64 == state["inc"]

    def test_one_index_block(self):
        for seed, index in [(3, 0), (3, 7), (2**70 + 12345, 2**32), (np.int64(3), np.int64(7))]:
            oracle = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(index),)))
            (one,) = sm.block_streams(seed, index, index + 1)
            block = next(sm.block_streams(seed, index, index + 3))
            expected = oracle.random(8)
            assert np.array_equal(one.random(8), expected)
            assert np.array_equal(block.random(8), expected)

    @pytest.mark.parametrize("seed", [0, 2**64 + 5])
    def test_standard_normal_fills_in_sequence(self, seed):
        # a grid draws each index's normals once: the (2, d, m) block of a
        # smaller d is the prefix of a row of the largest d's draw
        for m in (1, 2, 3):
            row = np.empty(2 * 65 * m)
            next(sm.block_streams(seed, 9, 10)).standard_normal(out=row)
            for d in (1, 4, 33, 65):
                block = np.empty((2, d, m))
                next(sm.block_streams(seed, 9, 10)).standard_normal(out=block)
                assert np.array_equal(block.ravel(), row[: 2 * d * m])
                assert np.array_equal(row[: 2 * d * m].reshape(2, d, m), block)

    def test_live_iterators_keep_their_own_indices(self):
        # every call seeds its PCG64s from its own range's words: two calls
        # on one range, one from lo > 0 and one across 2^32, advanced in turn
        seed = 2**64 + 5
        ranges = [(7, 13), (7, 13), (2**32 - 3, 2**32 + 3)]
        iterators = [sm.block_streams(seed, lo, hi) for lo, hi in ranges]
        for k in range(6):
            for (lo, _), streams in zip(ranges, iterators):
                oracle = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(lo + k,)))
                assert np.array_equal(next(streams).random(4), oracle.random(4))
        assert all(next(streams, None) is None for streams in iterators)

    @pytest.mark.parametrize("seed, lo", [(-1, 0), (-(2**70), 5), (3, -1), (-2, -2)])
    def test_negative_seed_or_index(self, seed, lo):
        with pytest.raises(InvalidConfig):
            sm.block_streams(seed, lo, lo + 2)
        with pytest.raises(InvalidConfig):
            sm.block_streams(seed, lo, lo + 1)


    @pytest.mark.parametrize("seed, lo, message", [
        (-1, 0, r"^master_seed must be >= 0, got -1$"),
        (3, -1, r"^sample_index must be >= 0, got -1$"),
    ])
    def test_range_messages(self, seed, lo, message):
        with pytest.raises(InvalidConfig, match=message):
            sm.block_streams(seed, lo, lo + 2)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("value", [True, 2.5])
    def test_bools_and_non_integers_refused(self, position, value):
        args = [3, 4, 6]
        args[position] = value
        with pytest.raises(InvalidConfig, match="must be an integer"):
            sm.block_streams(*args)


class TestStreamBlocks:
    # block_streams hashes the seed words of BLOCK_ENTRIES indices at a time

    def test_first_stream_holds_one_block(self):
        next(sm.block_streams(7, 0, 10))  # fills the seed's cached pool
        tracemalloc.start()
        try:
            next(sm.block_streams(7, 0, 10 ** 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_hash_calls_span_one_block(self, monkeypatch):
        lo, hi = 5, 20_005
        calls = []
        pcg64_seeds = sm._pcg64_seeds

        def counting(master_seed, first, last):
            calls.append((first, last))
            return pcg64_seeds(master_seed, first, last)

        monkeypatch.setattr(sm, "_pcg64_seeds", counting)
        streams = sm.block_streams(7, lo, hi)
        assert calls == []  # nothing is hashed before the first stream
        for index, stream in zip(range(lo, hi), streams):
            oracle = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(index,)))
            assert np.array_equal(stream.random(2), oracle.random(2))
        assert next(streams, None) is None
        assert calls == [(k, min(k + sm.BLOCK_ENTRIES, hi))
                         for k in range(lo, hi, sm.BLOCK_ENTRIES)]


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 4, 9):
            u = sm.haar_unitary(d, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10

    @pytest.mark.parametrize("dim", [True, np.True_, 2.0, "2"])
    def test_dim_refuses_bools_and_non_integers(self, dim):
        with pytest.raises(InvalidConfig, match="^dim must be an integer"):
            sm.haar_unitary(dim, np.random.default_rng(0))

    @pytest.mark.parametrize("n_modes", [True, 2.0, "2"])
    def test_random_symplectic_refuses_bools_and_non_integers(self, n_modes):
        with pytest.raises(InvalidConfig, match="^n_modes must be an integer"):
            sm.random_symplectic(n_modes, np.random.default_rng(0))

    @pytest.mark.parametrize("n_modes", [True, 2.0, "2"])
    def test_random_covariance_refuses_bools_and_non_integers(self, n_modes):
        with pytest.raises(InvalidConfig, match="^n_modes must be an integer"):
            sm.random_covariance(n_modes, np.random.default_rng(0))

    def test_dim_one_is_a_phase(self):
        rng = np.random.default_rng(2)
        phases = np.array([sm.haar_unitary(1, rng)[0, 0] for _ in range(4000)])
        assert np.max(np.abs(np.abs(phases) - 1.0)) <= 1e-12
        # uniform phase: the mean vanishes like 1/sqrt(N)
        assert abs(phases.mean()) <= 4.0 / math.sqrt(len(phases))

    def test_entry_moments(self):
        d, n_draws = 4, 20000
        rng = np.random.default_rng(3)
        draws = np.stack([sm.haar_unitary(d, rng) for _ in range(n_draws)])
        mean = draws.mean(axis=0)
        se_re = draws.real.std(axis=0, ddof=1) / math.sqrt(n_draws)
        se_im = draws.imag.std(axis=0, ddof=1) / math.sqrt(n_draws)
        assert np.all(np.abs(mean.real) <= 4.5 * se_re)
        assert np.all(np.abs(mean.imag) <= 4.5 * se_im)
        sq = np.abs(draws) ** 2
        se_sq = sq.std(axis=0, ddof=1) / math.sqrt(n_draws)
        assert np.all(np.abs(sq.mean(axis=0) - 1.0 / d) <= 4.5 * se_sq)

    def test_left_invariance(self):
        # statistics of Tr(VU) match Tr(U) for a fixed V
        d, n_draws = 4, 10000
        rng = np.random.default_rng(5)
        v = sm.haar_unitary(d, rng)
        tr_u = np.array([np.trace(sm.haar_unitary(d, rng)) for _ in range(n_draws)])
        tr_vu = np.array([np.trace(v @ sm.haar_unitary(d, rng)) for _ in range(n_draws)])
        se = math.sqrt(tr_u.var(ddof=1) / n_draws + tr_vu.var(ddof=1) / n_draws)
        assert abs(tr_u.mean() - tr_vu.mean()) <= 4.0 * se

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("shape", [(), (1,), (2,), (5, 2), (64, 2)])
    def test_stack_equals_successive_draws(self, d, shape):
        stacked_rng, single_rng = np.random.default_rng(17), np.random.default_rng(17)
        stack = sm.haar_unitary(d, stacked_rng, shape)
        assert stack.shape == (*shape, d, d)
        singles = [sm.haar_unitary(d, single_rng) for _ in range(math.prod(shape))]
        assert np.array_equal(stack.reshape(-1, d, d), singles)
        # the stream is left where the single calls leave it
        assert np.array_equal(stacked_rng.standard_normal(3), single_rng.standard_normal(3))

    def test_random_covariance_stream_pinned(self):
        # validate and the acceptance tests draw their inputs from this stream
        digests = {
            (1, 0): "8bb89395c1323d25282ad81adb9bf5229a47411b98ceeb6003dd99fa48a344f6",
            (1, 7): "2a53cb41106d4952357b1a9be9f70bd5a4cb1630e4c56212f9e8fa905ac07885",
            (1, 2024): "e34b0a55851470cf57eac6f1aa153ebc8743a6bfc264905169df94bb9cbb19ab",
            (2, 0): "e0708b64de94c82632d971ea8b6de0010bf7b5353e4bb3d02a1fe522b84e9f9e",
            (2, 7): "35112ccdf9f25ab7b2676f791d9eadf733e585172bf22d72d135d172dc7098eb",
            (2, 2024): "22b3202f43053bc19831c859017e4740f34c3c5d5396bb8fccd29b578e59673f",
            (3, 0): "25a62226ad1807ecca658fe751d104af0625019d65794088f95b5b7ab48e81d0",
            (3, 7): "f0d28b08ba32391ea84d842491cb2e3e10f3ff896da73e4fb344453b5db71c38",
            (3, 2024): "977e9be5aadeed545fb07c2155c5f3875107d10263566cbe642216157b30e14e",
        }
        for (m, seed), digest in digests.items():
            gamma = sm.random_covariance(m, np.random.default_rng(seed))
            assert hashlib.sha256(gamma.tobytes()).hexdigest() == digest, (m, seed)


class TestEmbedding:
    def test_identity(self):
        for d in (1, 3):
            assert np.array_equal(sm.unitary_to_symplectic(np.eye(d)), np.eye(2 * d))

    def test_phase_i_regression(self):
        # sign convention frozen by the P-conjugation formula
        o = sm.unitary_to_symplectic(np.array([[1j]]))
        assert np.array_equal(o, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_matches_reference_conjugation(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 5):
            u = sm.haar_unitary(d, rng)
            closed = sm.unitary_to_symplectic(u)
            reference = unitary_to_symplectic_reference(u)
            assert np.max(np.abs(closed - reference)) <= 1e-13
        stack = np.array([[sm.haar_unitary(3, rng) for _ in range(2)] for _ in range(2)])
        closed = sm.unitary_to_symplectic(stack)
        assert closed.shape == (2, 2, 6, 6)
        assert np.array_equal(closed[1, 0], sm.unitary_to_symplectic(stack[1, 0]))
        assert np.max(np.abs(closed - unitary_to_symplectic_reference(stack))) <= 1e-13

    def test_orthogonal_symplectic(self):
        check_embedding((3,), 10, np.random.default_rng(11))

    def test_functorial(self):
        rng = np.random.default_rng(13)
        u1, u2 = sm.haar_unitary(4, rng), sm.haar_unitary(4, rng)
        lhs = sm.unitary_to_symplectic(u1 @ u2)
        rhs = sm.unitary_to_symplectic(u1) @ sm.unitary_to_symplectic(u2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            sm.unitary_to_symplectic(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(NotUnitary):
            sm.unitary_to_symplectic(np.full((2, 2), np.nan))


class TestZProfile:
    def test_parse_and_canonical(self):
        assert ZProfile.parse("vacuum").kind == "vacuum"
        assert ZProfile.parse("uniform:1.5").param == 1.5
        assert ZProfile.parse("power:0.25").param == 0.25
        assert ZProfile.parse("flat:4").param == 4.0
        assert ZProfile.parse("file:/tmp/z.txt").param == "/tmp/z.txt"
        assert ZProfile.parse("uniform:1.5").canonical() == "uniform:1.5"

    @pytest.mark.parametrize("text, canonical", [
        ("vacuum", "vacuum"),
        ("uniform:2", "uniform:2.0"),
        ("power:0.3", "power:0.3"),
        ("flat:6", "flat:6.0"),
        ("file:/tmp/a:b%r%%.txt", "file:/tmp/a:b%r%%.txt"),
    ])
    def test_canonical_round_trip(self, text, canonical):
        profile = ZProfile.parse(text)
        assert profile.canonical() == canonical
        assert ZProfile.parse(canonical) == profile

    @pytest.mark.parametrize("text", [
        "box", "uniform", "uniform:0.5", "power:-1", "flat:0", "vacuum:2", "vacuum:",
        "uniform:nan", "uniform:inf", "power:nan", "power:inf", "flat:nan", "flat:inf",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(InvalidProfile):
            ZProfile.parse(text)

    @pytest.mark.parametrize("kind, param, message", [
        ("uniform", None, "needs z0"),
        ("flat", math.inf, "must be finite"),
        ("power", -1.0, "needs beta"),
        # reals past the largest float, which no float conversion takes
        pytest.param("uniform", 10 ** 400, "must be finite", id="uniform-int-past-floats"),
        pytest.param("power", 10 ** 400, "must be finite", id="power-int-past-floats"),
        pytest.param("flat", 10 ** 400, "must be finite", id="flat-int-past-floats"),
        pytest.param("power", -(10 ** 400), "must be finite", id="power-negative-int-past-floats"),
        pytest.param("flat", Fraction(10 ** 400), "must be finite", id="flat-fraction-past-floats"),
    ])
    def test_constructor_rejects(self, kind, param, message):
        with pytest.raises(InvalidProfile, match=message):
            ZProfile(kind, param)

    @pytest.mark.parametrize("kind, param", [
        ("uniform", True), ("uniform", "2"), ("power", np.bool_(True)), ("flat", 1j),
        ("file", 3.0), ("file", b"z.txt"),
    ])
    def test_wrongly_typed_parameter_rejected(self, kind, param):
        # each kind takes one type: a number, or a path string; a bool is
        # not a number here, although Python's bool is an int
        with pytest.raises(InvalidProfile, match=f"^{kind} profile parameter must be a "):
            ZProfile(kind, param)

    def test_numbers_of_any_real_type_accepted(self):
        assert ZProfile("uniform", 2).canonical() == "uniform:2"
        assert ZProfile.parse(ZProfile("uniform", 2).canonical()) == ZProfile("uniform", 2)
        assert ZProfile("power", np.float64(0.3)) == ZProfile.parse("power:0.3")
        assert ZProfile("power", sys.float_info.max).param == sys.float_info.max

    def test_stray_parameter_rejected(self):
        with pytest.raises(InvalidProfile, match="vacuum takes no parameter"):
            ZProfile("vacuum", 5.0)

    def test_degree(self):
        assert ZProfile.parse("power:0.3").degree == 0.3
        assert ZProfile.parse("uniform:2").degree == 0.0


class TestDrawSqueezing:
    @pytest.mark.parametrize("n_modes", [True, 2.0, "2"])
    def test_n_modes_refuses_bools_and_non_integers(self, n_modes):
        with pytest.raises(InvalidConfig, match="^n_modes must be an integer"):
            sm.draw_squeezing(ZProfile("uniform", 1.3), n_modes)

    def test_vacuum(self):
        assert np.array_equal(sm.draw_squeezing(ZProfile("vacuum"), 4).z, np.ones(4))

    def test_uniform(self):
        spec = sm.draw_squeezing(ZProfile("uniform", 1.3), 5)
        assert np.array_equal(spec.z, np.full(5, 1.3))

    def test_power_profile(self):
        spec = sm.draw_squeezing(ZProfile("power", 0.25), 16)
        assert spec.z.max() == pytest.approx(16.0 ** 0.125, abs=1e-12)
        assert np.sum(spec.z > 1.0) == 4  # ceil(16/4) modes carry the squeezing
        assert np.all(spec.z[4:] == 1.0)

    def test_flat_membership_exact(self):
        energy = 1.0
        rng = np.random.default_rng(17)
        z_hi = sm.flat_z_max(energy)
        assert z_hi == pytest.approx(math.sqrt(2.0 + math.sqrt(3.0)), abs=1e-12)
        for _ in range(50):
            spec = sm.draw_squeezing(ZProfile("flat", energy), 1, rng)
            assert spec.z[0] <= z_hi
            assert float(np.sum(spec.z ** 2 + spec.z ** -2.0)) <= 4.0 * energy

    def test_flat_empty_set(self):
        with pytest.raises(EmptyConstraintSet):
            sm.draw_squeezing(ZProfile("flat", 1.0), 3, np.random.default_rng(0))

    def test_flat_needs_rng(self):
        with pytest.raises(InvalidConfig):
            sm.draw_squeezing(ZProfile("flat", 5.0), 2)

    def test_flat_timeout(self, monkeypatch):
        monkeypatch.setattr(sm, "_REJECTION_MAX_DRAWS", 2048)
        rng = np.random.default_rng(19)
        # barely nonempty ball: acceptance is (numerically) never
        with pytest.raises(RejectionTimeout):
            sm.draw_squeezing(ZProfile("flat", 20.0000001), 40, rng)

    def test_file_profile(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("1.0\n1.5\n2.0\n")
        spec = sm.draw_squeezing(ZProfile("file", str(path)), 3)
        assert np.array_equal(spec.z, [1.0, 1.5, 2.0])
        with pytest.raises(DimensionMismatch):
            sm.draw_squeezing(ZProfile("file", str(path)), 4)

    def test_file_profile_bad_file(self, tmp_path):
        with pytest.raises(InvalidProfile, match="cannot read"):
            sm.draw_squeezing(ZProfile("file", str(tmp_path / "nope.txt")), 3)
        path = tmp_path / "z.txt"
        path.write_text("1.0\nlarge\n2.0\n")
        with pytest.raises(InvalidProfile, match="large"):
            sm.draw_squeezing(ZProfile("file", str(path)), 3)
        for bad in ("nan", "inf"):
            path = tmp_path / f"{bad}.txt"
            path.write_text(f"1.0\n{bad}\n2.0\n")
            with pytest.raises(InvalidProfile, match="non-finite"):
                sm.draw_squeezing(ZProfile("file", str(path)), 3)

    def test_file_profile_not_utf8_cannot_be_read(self, tmp_path):
        # a decode error is a ValueError, but the file is unreadable, not non-numeric
        path = tmp_path / "z.txt"
        path.write_bytes(b"1.0\n\xff\n2.0\n")
        with pytest.raises(InvalidProfile, match=f"^cannot read profile file {path}: 'utf-8' codec"):
            sm.draw_squeezing(ZProfile("file", str(path)), 3)

    def test_file_profile_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "z.txt"
        path.write_text("1.0\n1.5\n2.0\n1.2\n")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(sm, "open", counting_open, raising=False)
        config = RandomStateConfig(n_full=2, m_sys=1, profile=ZProfile("file", str(path)),
                                   master_seed=0)
        # once per call, not once per sample
        harness.compute_records(config, 5)
        assert opened == [str(path)]
        # a rewritten file, or the same relative path from another directory, is read again
        path.write_text("1.25\n1.5\n2.0\n1.2\n")
        assert sm.draw_squeezing(config.profile, 4).z[0] == 1.25
        other = tmp_path / "other"
        other.mkdir()
        (other / "z.txt").write_text("3.0\n1.5\n2.0\n1.2\n")
        monkeypatch.chdir(other)
        assert sm.draw_squeezing(ZProfile("file", "z.txt"), 4).z[0] == 3.0
        assert len(opened) == 3

    def test_spec_validation(self):
        with pytest.raises(InvalidProfile):
            SqueezingSpec(np.array([0.9, 1.2]))
        with pytest.raises(InvalidProfile):
            SqueezingSpec(np.array([1.5, np.nan]))

    @pytest.mark.parametrize("z", [[1e200], [1.0, np.inf], [1e154, 1e154], [1e300, 1.5]])
    def test_spec_refuses_overflowing_squeezing(self, z):
        # n * max(z)^2, which bounds sum(z^2 + z^-2), is not finite; 1e154^2
        # alone is, twice it is not
        with pytest.raises(InvalidProfile):
            SqueezingSpec(np.array(z))
        SqueezingSpec(np.array([1e150, 1e150]))

    @pytest.mark.parametrize("beta, n", [(1e308, 2), (200.0, 64), (1e300, 3)])
    def test_power_profile_overflow(self, beta, n):
        with pytest.raises(InvalidProfile):
            sm.draw_squeezing(ZProfile("power", beta), n)


class TestSqueezeGram:
    def test_vacuum_is_identity(self):
        spec = SqueezingSpec(np.ones(3))
        assert np.array_equal(np.diag(spec.gram), np.eye(6))

    def test_single_mode(self):
        spec = SqueezingSpec(np.array([2.0]))
        assert np.array_equal(np.diag(spec.gram), np.diag([4.0, 0.25]))

    def test_trace_gives_thermal_value(self):
        spec = SqueezingSpec(np.ones(2))
        assert np.trace(np.diag(spec.gram)) / (4 * 2) == 0.5

    def test_infinity_norm(self):
        spec = SqueezingSpec(np.array([1.0, 3.0]))
        assert np.max(spec.gram) == 9.0

    def test_gram_is_read_only_and_derived(self):
        # gram and nu follow from z alone: neither is a constructor
        # argument, and neither can be reassigned or written into
        z = np.array([1.0, 1.5, 2.5])
        spec = SqueezingSpec(z)
        assert same_bits(spec.gram, np.concatenate([z * z, 1.0 / (z * z)]))
        with pytest.raises(ValueError):
            spec.gram[0] = 2.0
        for name, value in (("gram", np.ones(6)), ("nu", 0.5)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)
            with pytest.raises(TypeError):
                SqueezingSpec(z, **{name: value})


# float64 entries of the largest array numpy can shape
MAX_ENTRIES = np.iinfo(np.intp).max // 8


class TestRandomState:
    @pytest.mark.parametrize("n_full, m_sys, pipeline", [
        (10 ** 20, 1, "purified"),  # a dimension past np.intp
        (10 ** 18, 1, "purified"),  # a byte size past np.intp
        (MAX_ENTRIES // 2 + 1, 1, "direct"),
        (2 ** 31, 2 ** 30, "direct"),
    ])
    def test_count_numpy_cannot_shape_refused(self, n_full, m_sys, pipeline):
        message = f"^n_full={n_full}, m_sys={m_sys} exceed numpy's array size$"
        with pytest.raises(InvalidConfig, match=message):
            RandomStateConfig(n_full=n_full, m_sys=m_sys, profile=ZProfile("vacuum"),
                              master_seed=0, pipeline=pipeline)

    @pytest.mark.parametrize("n_full, pipeline", [(MAX_ENTRIES // 4, "purified"),
                                                  (MAX_ENTRIES // 2, "direct")])
    def test_largest_count_numpy_can_shape_kept(self, n_full, pipeline):
        # building the config allocates nothing
        config = RandomStateConfig(n_full=n_full, m_sys=1, profile=ZProfile("vacuum"),
                                   master_seed=0, pipeline=pipeline)
        assert config.n_full == n_full

    def test_vacuum_gives_vacuum(self):
        config = RandomStateConfig(n_full=5, m_sys=2, profile=ZProfile("vacuum"), master_seed=3)
        gamma = sm.sample_block(config, 0, 1)[0][0]
        assert np.max(np.abs(gamma - np.eye(4) / 2)) <= 1e-12

    @pytest.mark.parametrize("pipeline", ["direct", "purified"])
    def test_full_system_is_pure(self, pipeline):
        config = RandomStateConfig(
            n_full=4, m_sys=4, profile=ZProfile("uniform", 1.4),
            master_seed=7, pipeline=pipeline,
        )
        # purified keeps m of 2n ambient modes; m=n still leaves a mixed
        # state there, so purity of the kept block is only guaranteed in
        # the direct pipeline with no trace-out.
        gamma = sm.sample_block(config, 0, 1)[0][0]
        nus = ps.symplectic_eigenvalues(gamma)
        if pipeline == "direct":
            assert np.max(np.abs(nus - 0.5)) <= 1e-8
        else:
            assert nus[-1] >= 0.5 - 1e-9

    def test_determinism_and_stream_independence(self):
        config = RandomStateConfig(
            n_full=6, m_sys=2, profile=ZProfile("uniform", 1.2), master_seed=21
        )
        first = sm.sample_block(config, 5, 6)[0][0]
        # drawing other indices first must not disturb index 5
        sm.sample_block(config, 0, 1)
        sm.sample_block(config, 6, 7)
        assert np.array_equal(first, sm.sample_block(config, 5, 6)[0][0])

    def test_physical_and_energy_capped(self):
        config = RandomStateConfig(
            n_full=8, m_sys=3, profile=ZProfile("power", 0.25), master_seed=2
        )
        spec = sm.draw_squeezing(config.profile, config.ambient_modes)
        cap = 0.5 * float(np.sum(spec.gram))
        for i in range(20):
            gamma = sm.sample_block(config, i, i + 1)[0][0]
            assert ps.symplectic_eigenvalues(gamma)[-1] >= 0.5 - 1e-9
            assert np.trace(gamma) <= cap

    def test_row_shortcut_equals_embedded_pipeline(self):
        # the sampler keeps only the needed unitary rows; check the algebra
        # against the explicit embed-conjugate-trace route
        rng = np.random.default_rng(23)
        spec = SqueezingSpec(rng.uniform(1.0, 1.8, 6))
        u = sm.haar_unitary(6, rng)
        fast = sm.state_from_unitary(u, spec, 2)
        o = sm.unitary_to_symplectic(u)
        full = 0.5 * o @ np.diag(spec.gram) @ o.T
        idx = keep_indices(6, 2)
        assert np.max(np.abs(fast - full[np.ix_(idx, idx)])) <= 1e-13

    def test_state_from_unitary_takes_stacks(self):
        rng = np.random.default_rng(29)
        spec = SqueezingSpec(rng.uniform(1.0, 1.8, 5))
        stack = np.array([[sm.haar_unitary(5, rng) for _ in range(3)] for _ in range(2)])
        gammas = sm.state_from_unitary(stack, spec, 2)
        assert gammas.shape == (2, 3, 4, 4)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(gammas[i, j], sm.state_from_unitary(stack[i, j], spec, 2))

    @pytest.mark.parametrize("m_sys", [True, np.True_, 1.0, "1"])
    def test_state_from_unitary_m_refuses_bools_and_non_integers(self, m_sys):
        # True once ran as m = 1
        with pytest.raises(InvalidConfig, match="^m_sys must be an integer"):
            sm.state_from_unitary(np.eye(3), SqueezingSpec(np.full(3, 1.2)), m_sys)

    def test_state_from_unitary_rejects_nan(self):
        spec = SqueezingSpec(np.full(3, 1.2))
        nan = np.full((3, 3), np.nan)
        for u in (nan, np.array([np.eye(3), nan])):
            with pytest.raises(NotUnitary):
                sm.state_from_unitary(u, spec, 1)

    def test_mean_trace_matches_thermal_value(self):
        # empirical mean of Tr Gamma_m over a uniform profile; the trace is
        # deterministic there, so the check is at the noise floor
        config = RandomStateConfig(
            n_full=64, m_sys=1, profile=ZProfile("uniform", 1.2), master_seed=31
        )
        spec = sm.draw_squeezing(config.profile, config.ambient_modes)
        nu = float(np.sum(spec.gram)) / (4 * config.ambient_modes)
        traces = [np.trace(sm.sample_block(config, i, i + 1)[0][0]) for i in range(500)]
        assert np.mean(traces) == pytest.approx(2 * nu, abs=1e-10)

    def test_flat_profile_redraws_z_per_sample(self):
        config = RandomStateConfig(
            n_full=2, m_sys=1, profile=ZProfile("flat", 3.0), master_seed=5
        )
        (nu_a,) = sm.sample_block(config, 0, 1)[1]
        (nu_b,) = sm.sample_block(config, 1, 2)[1]
        assert nu_a != nu_b
        (nu_a2,) = sm.sample_block(config, 0, 1)[1]
        assert nu_a == nu_a2

    @pytest.mark.parametrize("grid, profile, pipeline, m_sys", [
        ((16,), "uniform:1.3", "purified", 1), ((3, 8, 33), "power:0.3", "direct", 2),
        ((4, 300), "uniform:1.5", "purified", 1), ((2,), "flat:3.0", "purified", 1),
        ((3,), "flat:8.0", "direct", 2),
    ])
    def test_nu_is_thermal_nu_of_the_vector(self, grid, profile, pipeline, m_sys):
        # a nu per sample, bit for bit the SqueezingSpec nu of its squeezing
        # vector: a deterministic profile's one vector per config, for a
        # grid and for each config alone; a flat profile's vector redrawn
        # from each index's stream; over several draws and three stacks
        configs = [RandomStateConfig(n_full=n, m_sys=m_sys, profile=ZProfile.parse(profile),
                                     master_seed=8, pipeline=pipeline) for n in grid]
        lo, hi = 3, 3 + 2 * sm.BLOCK_ENTRIES // (4 * m_sys * m_sys) + 5
        for config in configs:
            d = config.ambient_modes
            if config.profile.is_random:
                expected = [sm.draw_squeezing(config.profile, d, rng).nu
                            for rng in sm.block_streams(config.master_seed, lo, hi)]
            else:
                expected = [sm.draw_squeezing(config.profile, d).nu] * (hi - lo)
            expected = np.array(expected)
            nu = sm.sample_block(config, lo, hi)[1]
            assert nu.dtype == float and same_bits(nu, expected)
            if not config.profile.is_random:
                stacks = [nu for g, _, _, nu in sm.iter_blocks(configs, lo, hi) if configs[g] is config]
                assert same_bits(np.concatenate(stacks), expected)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            RandomStateConfig(n_full=2, m_sys=3, profile=ZProfile("vacuum"), master_seed=0)
        with pytest.raises(InvalidConfig):
            RandomStateConfig(
                n_full=2, m_sys=1, profile=ZProfile("vacuum"), master_seed=0, pipeline="fast"
            )

    @pytest.mark.parametrize("field, value, message", [
        ("n_full", 0, r"^n_full must be >= 1, got 0$"),
        ("master_seed", -1, r"^master_seed must be >= 0, got -1$"),
    ])
    def test_range_messages(self, field, value, message):
        kwargs = dict(n_full=4, m_sys=1, profile=ZProfile("uniform", 1.5), master_seed=3)
        kwargs[field] = value
        with pytest.raises(InvalidConfig, match=message):
            RandomStateConfig(**kwargs)

    @pytest.mark.parametrize("field", ["n_full", "m_sys", "master_seed"])
    @pytest.mark.parametrize("value", [True, np.True_, 4.0, 2.5, "4", None])
    def test_integer_fields_refuse_bools_and_non_integers(self, field, value):
        kwargs = dict(n_full=4, m_sys=1, profile=ZProfile("uniform", 1.5), master_seed=3)
        kwargs[field] = value
        with pytest.raises(InvalidConfig, match=field):
            RandomStateConfig(**kwargs)

    def test_config_int_minimum(self):
        value = sm.config_int("samples", np.int64(2), 2)
        assert value == 2 and type(value) is int
        with pytest.raises(InvalidConfig, match=r"^samples must be >= 2, got 1$"):
            sm.config_int("samples", np.int64(1), 2)
        with pytest.raises(InvalidConfig, match=r"^samples must be an integer, got True$"):
            sm.config_int("samples", True, 0)

    def test_integer_fields_stored_as_plain_ints(self):
        config = RandomStateConfig(n_full=np.int64(4), m_sys=np.uint8(2),
                                   profile=ZProfile("uniform", 1.5), master_seed=np.int32(3))
        plain = RandomStateConfig(n_full=4, m_sys=2, profile=ZProfile("uniform", 1.5), master_seed=3)
        assert config == plain
        for name in ("n_full", "m_sys", "master_seed"):
            assert type(getattr(config, name)) is int
        assert np.array_equal(sm.sample_block(config, 0, 3)[0], sm.sample_block(plain, 0, 3)[0])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


def mp_rows(stack):
    """The rows of each complex matrix of a stack as mpmath numbers, which
    hold a double exactly."""
    mpmath = pytest.importorskip("mpmath")
    return [[[mpmath.mpc(float(v.real), float(v.imag)) for v in row] for row in w] for w in stack]


def exact_rows(x):
    """The rows Q^T of the phase-fixed QR of a d x m complex matrix, in the
    current mpmath precision: Gram-Schmidt with a positive diagonal of R,
    which is what Mezzadri's phase fix makes of LAPACK's Q."""
    mpmath = pytest.importorskip("mpmath")
    rows = []
    for v in mp_rows([np.asarray(x).T])[0]:
        for q in rows:
            r = mpmath.fdot(v, q, conjugate=True)
            v = [vi - r * qi for vi, qi in zip(v, q)]
        norm = mpmath.sqrt(mpmath.fsum(abs(vi) ** 2 for vi in v))
        rows.append([vi / norm for vi in v])
    return rows


def exact_gamma(rows, gram):
    """1/2 S(W) G S(W)^T, S(W) = [[Re W, Im W], [-Im W, Re W]], of m rows of
    mpmath numbers W and a float Gram diagonal (z^2, z^-2), in the current
    mpmath precision; a list of 2m rows."""
    mpmath = pytest.importorskip("mpmath")
    d = len(rows[0])
    zsq, zinv = [mpmath.mpf(float(v)) for v in gram[:d]], [mpmath.mpf(float(v)) for v in gram[d:]]
    re = [[mpmath.re(w) for w in row] for row in rows]
    im = [[mpmath.im(w) for w in row] for row in rows]
    # the rows of S(W), each as its two halves of d entries
    halves = [(a, b) for a, b in zip(re, im)] + [([-v for v in b], a) for a, b in zip(re, im)]

    def entry(p, q):
        return (mpmath.fdot(p[0], [x * g for x, g in zip(q[0], zsq)])
                + mpmath.fdot(p[1], [x * g for x, g in zip(q[1], zinv)])) / 2

    return [[entry(p, q) for q in halves] for p in halves]


def gamma_bound(d, m, kappa, gram):
    """First-order bound on max |Gamma - exact| for the sampling kernel's
    Gamma of a d x m Ginibre block X, kappa = kappa(X), in units of
    eps kappa^2 s with s = max(G) / 2 >= |Gamma|_2 (G the Gram diagonal):

    - the Gram H = X^H X (sums of 2d products and a difference) and its
      Cholesky factor are exact for H + E with |E|_2 <= (3d + 2m + 4) m eps
      sigma_1^2, so the implied Q = X R^-1 is Q Z with Z^H Z = I - Phi,
      |Phi|_2 <= (3d + 2m + 4) m eps kappa^2, and the upper-triangular
      Z - I has 2-norm <= sqrt(m / 2) |Phi|_2: Gamma moves by twice that,
      sqrt(2m) m (3d + 2m + 4);
    - the forward substitution for L^-1, whose residual
      |L X - I| <= m eps |L| |X| makes T = (I + F) T_exact with
      |F|_2 <= m^2 eps kappa^2: twice that, 2 m^2;
    - Gamma_X's syrk over 2d products of weights rounded twice,
      (2d + 4) eps |V|^T |V|, whose norm is at most 2 m s sigma_1^2, taken
      through S(T), |S(T)|_2 = 1 / sigma_m: 2m (2d + 4);
    - the two 2m x 2m products: 2 (2m eps) |S(T)|^2_F |Gamma_X|_2, 8 m^2.

    T = I (state_from_unitary) leaves the third term only, for which
    kappa(W^T) ~ 1 and the same bound holds."""
    eps = np.finfo(float).eps
    c = math.sqrt(2 * m) * m * (3 * d + 2 * m + 4) + 2 * m * m + 2 * m * (2 * d + 4) + 8 * m * m
    return c * eps * kappa ** 2 * 0.5 * float(np.max(gram))


def assert_near_exact(gammas, rows, grams, kappas):
    """Each Gamma against 1/2 S(W) G S(W)^T of its exact rows W and Gram
    diagonal, in 50 digits, within :func:`gamma_bound`."""
    mpmath = pytest.importorskip("mpmath")
    for gamma, w, gram, kappa in zip(gammas, rows, grams, kappas):
        d, m = len(w[0]), len(w)
        bound = gamma_bound(d, m, kappa, gram)
        with mpmath.workdps(50):
            exact = exact_gamma(w, gram)
            error = max(abs(mpmath.mpf(float(gamma[i, j])) - exact[i][j])
                        for i in range(2 * m) for j in range(2 * m))
        assert error <= bound, (error, bound, kappa)


def assert_matches_qr_oracle(gammas, parts, grams):
    """Each Gamma of m >= 2 kept modes against the 50-digit phase-fixed QR
    of its Ginibre block X = a + ib, parts[k] = (a, b), within
    :func:`gamma_bound` at kappa(X)."""
    mpmath = pytest.importorskip("mpmath")
    xs = parts[:, 0] + 1j * parts[:, 1]
    with mpmath.workdps(50):
        rows = [exact_rows(x) for x in xs]
    assert_near_exact(gammas, rows, grams, np.linalg.cond(xs))


class TestKernelHelpers:
    def test_ginibre_is_complex_division(self):
        # haar_unitary is the phase-fixed QR of (re + 1j * im) / sqrt(2),
        # and that division is bit for bit each half times 1 / sqrt(2)
        # written into a complex array, the Ginibre matrix of the streams
        # that random_covariance and validate's inputs were pinned with
        for dim, shape in ((1, ()), (6, ()), (4, (3,)), (3, (2, 2)), (16, (5,))):
            u = sm.haar_unitary(dim, np.random.default_rng(41), shape)
            parts = np.random.default_rng(41).standard_normal((*shape, 2, dim, dim))
            re, im = parts[..., 0, :, :], parts[..., 1, :, :]
            z = np.empty(re.shape, complex)
            np.multiply(re, 1.0 / math.sqrt(2.0), out=z.real)
            np.multiply(im, 1.0 / math.sqrt(2.0), out=z.imag)
            assert same_bits(z, (re + 1j * im) / math.sqrt(2.0))
            q, r = np.linalg.qr(z)
            diag = np.diagonal(r, axis1=-2, axis2=-1)
            assert same_bits(u, q * (diag / np.abs(diag))[..., None, :])

    @pytest.mark.parametrize("z0", [1.5, 1e3, 1e50, 1e100])
    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_gamma_from_rows_equals_reference(self, m, z0):
        # Haar rows W, as a contiguous stack of (Re W, Im W) and as the
        # kernel lays them out (the transpose of a d x m block), against
        # the exact 1/2 S(W) G S(W)^T, shared and per-sample diagonals
        rng = np.random.default_rng(43)
        d, n = 12, 5
        z = z0 * rng.uniform(1.0, 2.0, d)
        gram = SqueezingSpec(z).gram
        per_sample = np.stack([SqueezingSpec(z0 * rng.uniform(1.0, 2.0, d)).gram
                               for _ in range(n)])
        q = sm.haar_unitary(d, rng, (n,))[..., :m]
        block = np.stack([q.real, q.imag], axis=1)
        rows, kappas = mp_rows(np.swapaxes(q, -1, -2)), np.linalg.cond(q)
        for parts in (np.ascontiguousarray(np.swapaxes(block, -1, -2)), np.swapaxes(block, -1, -2)):
            assert_near_exact(sm._gamma_from_rows(parts, gram), rows, [gram] * n, kappas)
            assert_near_exact(sm._gamma_from_rows(parts, per_sample), rows, per_sample, kappas)
            assert_near_exact(sm._gamma_from_rows(parts[0], gram)[None], rows, [gram], kappas)


def assert_one_mode_forms(gammas, parts, grams):
    """Each one-mode covariance against 1/2 [[Q1, Q3], [Q3, Q2]] / Q0 of its
    normals (a, b) = parts[k] and Gram diagonal (z^2, z^-2) = grams[k],
    evaluated in 50 digits.  The bound is the first-order forward error of
    the kernel's float arithmetic in units of eps h, h = Tr Gamma / 2:
    2d + 1 each for h and p, whose sums run over 2d products, and 1 for
    h + p; the off-diagonal entry's sum is half as long."""
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for gamma, (a, b), gram in zip(gammas, parts, grams):
            d = len(a)
            a, b, zsq, zinv = ([mpmath.mpf(float(v)) for v in x] for x in (a, b, gram[:d], gram[d:]))
            q0 = mpmath.fsum(x * x + y * y for x, y in zip(a, b))
            q1 = mpmath.fsum(s * x * x + t * y * y for x, y, s, t in zip(a, b, zsq, zinv))
            q2 = mpmath.fsum(t * x * x + s * y * y for x, y, s, t in zip(a, b, zsq, zinv))
            q3 = mpmath.fsum((t - s) * x * y for x, y, s, t in zip(a, b, zsq, zinv))
            bound = (4 * d + 3) * eps * (q1 + q2) / (4 * q0)
            exact = [[q1, q3], [q3, q2]]
            for i in range(2):
                for j in range(2):
                    assert abs(mpmath.mpf(float(gamma[i, j])) - exact[i][j] / (2 * q0)) <= bound


class TestBlockScratch:
    """Sampled blocks against the exact expression of the same normals."""

    @pytest.mark.parametrize("pipeline", ["purified", "direct"])
    @pytest.mark.parametrize("n_full, m_sys, profile", [
        (16, 1, "uniform:1.3"), (16, 2, "uniform:1.3"), (16, 3, "uniform:1.3"),
        (8, 8, "uniform:1.3"), (2, 1, "flat:3.0"),
    ])
    def test_equals_block_expression(self, n_full, m_sys, profile, pipeline):
        # a budget-sized block, then a short one, against the same streams'
        # normals in 50 digits: at m = 1 the exact quadratic forms, at
        # m >= 2 the phase-fixed QR of each Ginibre block (direct 8, 8 is
        # d = m, where kappa(X) has its heaviest tail)
        config = RandomStateConfig(n_full=n_full, m_sys=m_sys, profile=ZProfile.parse(profile),
                                   master_seed=12, pipeline=pipeline)
        d = config.ambient_modes
        step = sm.BLOCK_ENTRIES // (d * m_sys)
        for lo, hi in ((0, step), (step, step + 3)):
            specs, parts = [], []
            for rng in sm.block_streams(config.master_seed, lo, hi):
                specs.append(sm.draw_squeezing(config.profile, d, rng))
                parts.append(rng.standard_normal((2, d, m_sys)))
            parts = np.array(parts)
            gammas = sm.sample_block(config, lo, hi)[0]
            grams = [spec.gram for spec in specs]
            if m_sys == 1:
                assert_one_mode_forms(gammas, parts[..., 0], grams)
            else:
                assert_matches_qr_oracle(gammas, parts, grams)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_state_from_unitary_equals_block_expression(self, order):
        # the kernel's Gamma build with T = I, against the exact
        # 1/2 S(W) G S(W)^T of the given unitary's first m rows
        rng = np.random.default_rng(37)
        spec = SqueezingSpec(rng.uniform(1.0, 1.8, 6))
        gram = spec.gram
        for shape in ((), (4,), (2, 3)):
            u = np.asarray(sm.haar_unitary(6, rng, shape), order=order)
            for m in (1, 2, 6):
                gammas = sm.state_from_unitary(u, spec, m).reshape(-1, 2 * m, 2 * m)
                w = u[..., :m, :].reshape(-1, m, 6)
                assert_near_exact(gammas, mp_rows(w), [gram] * len(w), np.linalg.cond(w))

    def test_block_beyond_budget_is_not_kept(self):
        # a direct call for four budgets' worth of samples draws budget-sized
        # blocks: the bytes of four budget-sized calls
        config = RandomStateConfig(n_full=8, m_sys=1, profile=ZProfile("uniform", 1.5),
                                   master_seed=3)
        step = sm.BLOCK_ENTRIES // config.ambient_modes
        whole = sm.sample_block(config, 0, 4 * step)[0]
        parts = [sm.sample_block(config, k, k + step)[0] for k in range(0, 4 * step, step)]
        assert np.array_equal(whole, np.concatenate(parts))


def has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return True


class TestPastBudgetMemory:
    # d m = 2^15 (purified n = 4096, m = 4), exactly the budget and just past it
    WIDE = RandomStateConfig(n_full=4096, m_sys=4, profile=ZProfile("uniform", 1.5),
                             master_seed=3)
    BUDGET = RandomStateConfig(n_full=1024, m_sys=4, profile=ZProfile("uniform", 1.5),
                               master_seed=3)
    PAST = RandomStateConfig(n_full=1025, m_sys=4, profile=ZProfile("uniform", 1.5),
                             master_seed=3)
    # faults per sample of 8 samples, after one warm-up, in a fresh
    # interpreter whose allocator no other test has pinned; "unpinned" makes
    # the pin a no-op and holds glibc's mmap threshold at its 128 KiB
    # default, which turns its dynamic threshold off: every array of a
    # sample past it is mapped when allocated and unmapped when freed, in
    # whatever order the sampler allocates its arrays
    FRESH_FAULTS = """
import ctypes, resource, sys
from gausswork import sampling as sm
from gausswork.sampling import RandomStateConfig, ZProfile
if sys.argv[3] == "unpinned":
    sm._keep_freed_memory = lambda: None
    ctypes.CDLL(None).mallopt(sm._M_MMAP_THRESHOLD, 128 << 10)
config = RandomStateConfig(n_full=int(sys.argv[1]), m_sys=int(sys.argv[2]),
                           profile=ZProfile("uniform", 1.5), master_seed=3)
sm.sample_block(config, 0, 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sm.sample_block(config, 1, 9)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 8)
"""

    @pytest.mark.skipif(resource is None or not has_mallopt(), reason="needs getrusage, mallopt")
    def test_wide_samples_stay_resident(self):
        # each sample's Gamma build frees about 1.3 MiB; unless glibc's
        # thresholds are pinned, it unmaps or trims it and the next sample
        # faults it back in, about 480 minor faults per sample here
        def faults_per_sample():
            sm.sample_block(self.WIDE, 0, 1)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sm.sample_block(self.WIDE, 1, 9)
            return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 8

        assert faults_per_sample() < 16

    @pytest.mark.skipif(resource is None or not has_mallopt(), reason="needs getrusage, mallopt")
    @pytest.mark.parametrize("n_full, m_sys", [(8192, 1), (4096, 2), (4096, 4)])
    def test_budget_samples_stay_resident(self, n_full, m_sys):
        # d m = 2^14, two block budgets, on the closed-form m = 1 path and on
        # the m >= 2 kernel, and 2^15, four budgets: unpinned at glibc's
        # fixed default threshold, they fault about 420, 290 and 480 pages
        # per sample; pinned after the first block is allocated, at most
        # 0.5.  The unpinned run counts the pages of the arrays the pin has
        # to keep mapped, which no order of allocation lowers, so it shows
        # that the shape would catch a missing pin.
        faults = {}
        for pin in ("pinned", "unpinned"):
            result = subprocess.run([sys.executable, "-c", self.FRESH_FAULTS, str(n_full),
                                     str(m_sys), pin], capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            faults[pin] = float(result.stdout)
        assert faults["pinned"] < 16
        assert faults["unpinned"] > 2 * 16

    def test_hook_runs_once_before_the_first_draw(self, monkeypatch):
        # whatever the size of the first block, the process pins glibc's
        # thresholds before it opens the streams it draws from, and only once
        events = []
        index_streams = sm._index_streams
        monkeypatch.setattr(sm, "_keep_freed_memory", functools.cache(lambda: events.append("pin")))
        monkeypatch.setattr(sm, "_index_streams", lambda *a: events.append("streams") or index_streams(*a))
        profile, flat = self.BUDGET.profile, ZProfile("flat", 6.0)
        # blocks of several samples each (d m = 16, 128 and 4096), a flat
        # grid, then one and two samples per block
        sm.sample_block(RandomStateConfig(n_full=8, m_sys=1, profile=profile,
                                          master_seed=3), 0, 3 * sm.BLOCK_ENTRIES // 16)
        assert events[:2] == ["pin", "streams"]
        list(sm.iter_blocks([RandomStateConfig(n_full=n, m_sys=4, profile=profile, master_seed=3)
                             for n in (16, 512)], 0, 3))
        list(sm.iter_blocks([RandomStateConfig(n_full=n, m_sys=1, profile=flat, master_seed=3)
                             for n in (1, 2)], 0, 3))
        sm.sample_block(self.BUDGET, 0, 2)
        sm.sample_block(self.PAST, 0, 2)
        assert events.count("pin") == 1

    @pytest.mark.parametrize("cdll", [
        lambda name: (_ for _ in ()).throw(OSError("no libc")),
        lambda name: object(),  # a libc without mallopt
    ], ids=["no-libc", "no-mallopt"])
    def test_failed_lookup_keeps_bytes(self, monkeypatch, cdll):
        expected = sm.sample_block(self.PAST, 0, 2)[0]
        looked_up = []

        def lookup(name):
            looked_up.append(name)
            return cdll(name)

        monkeypatch.setattr(sm, "ctypes", types.SimpleNamespace(CDLL=lookup))
        sm._keep_freed_memory.cache_clear()
        try:
            gammas = sm.sample_block(self.PAST, 0, 2)[0]
        finally:
            sm._keep_freed_memory.cache_clear()  # the next iter_blocks call pins again
        # OpenBLAS's setter in numpy's bundled library, then in the global
        # symbols; then libc's mallopt
        assert looked_up == [*sm._bundled_blas(), None, None]
        assert np.array_equal(gammas, expected)


class TestKernel:
    @staticmethod
    def stream_rows(configs, lo, hi):
        """The rows and Gram diagonals that iter_blocks hands the kernel,
        drawn with freshly allocated arrays: per config one (1, 2d)
        diagonal of a deterministic profile, or (rows, 2d), one per sample."""
        m, d_max = configs[0].m_sys, max(c.ambient_modes for c in configs)
        profile, specs, rows = configs[0].profile, [], []
        for rng in sm.block_streams(configs[0].master_seed, lo, hi):
            if profile.is_random:
                specs.append(sm.draw_squeezing(profile, configs[0].ambient_modes, rng))
            rows.append(rng.standard_normal(2 * d_max * m))
        if profile.is_random:
            return np.array(rows), [np.array([s.gram for s in specs])]
        specs = [sm.draw_squeezing(profile, c.ambient_modes) for c in configs]
        return np.array(rows), [s.gram[None] for s in specs]

    @pytest.mark.parametrize("grid, profile, pipeline", [
        ((16,), "uniform:1.3", "purified"), ((8, 32), "power:0.3", "direct"),
        ((2,), "flat:3.0", "purified"), ((1025,), "uniform:1.5", "purified"),
    ])
    @pytest.mark.parametrize("m_sys", [1, 2])
    def test_given_rows_equal_sample_block(self, grid, profile, pipeline, m_sys):
        configs = [RandomStateConfig(n_full=n, m_sys=m_sys, profile=ZProfile.parse(profile),
                                     master_seed=19, pipeline=pipeline) for n in grid]
        lo, hi = 5, 5 + sm.BLOCK_ENTRIES // (configs[0].ambient_modes * m_sys) + 3
        rows, grams = self.stream_rows(configs, lo, hi)
        for config, gram in zip(configs, grams):
            gammas = sm._kernel(config, rows, gram, lo)
            assert np.array_equal(np.concatenate(gammas), sm.sample_block(config, lo, hi)[0])


    @pytest.mark.parametrize("grid, profile, pipeline", [
        ((8, 32), "power:0.3", "direct"), ((2, 3), "flat:6.0", "purified"),
    ])
    @pytest.mark.parametrize("m_sys", [1, 2])
    def test_grid_equals_stream_rows(self, grid, profile, pipeline, m_sys):
        # the streams set in place draw block_streams' rows: a deterministic
        # grid shares each index's draw, a flat grid's configs draw alone
        configs = [RandomStateConfig(n_full=n, m_sys=m_sys, profile=ZProfile.parse(profile),
                                     master_seed=2**64 + 9, pipeline=pipeline) for n in grid]
        lo, hi = 2**32 - 40, 2**32 + 3 * sm.BLOCK_ENTRIES // (grid[0] * m_sys)
        gammas = [[] for _ in configs]
        for g, _, stack, _ in sm.iter_blocks(configs, lo, hi):
            gammas[g].append(stack)
        if configs[0].profile.is_random:
            drawn = [self.stream_rows([config], lo, hi) for config in configs]
        else:
            rows, grams = self.stream_rows(configs, lo, hi)
            drawn = [(rows, [gram]) for gram in grams]
        for config, stacks, (rows, (gram,)) in zip(configs, gammas, drawn):
            expected = np.concatenate(sm._kernel(config, rows, gram, lo))
            assert np.array_equal(np.concatenate(stacks), expected)

    def test_singular_gram_names_first_sample(self):
        # a kept Ginibre column of zeros leaves X^H X singular; the first
        # such sample is named, in the second block of its draw, and the
        # error is a numerical failure (exit 3), not LAPACK's LinAlgError
        config = RandomStateConfig(n_full=16, m_sys=3, profile=ZProfile("uniform", 1.3),
                                   master_seed=19)
        d, lo = config.ambient_modes, 40
        step = sm.BLOCK_ENTRIES // (d * 3)
        rows, (gram,) = self.stream_rows([config], lo, lo + 2 * step)
        for k in (step + 7, step + 30):
            rows[k, : 2 * d * 3].reshape(2, d, 3)[:, :, 1] = 0.0
        with pytest.raises(NumericalFailure, match=rf"^sample {lo + step + 7}: ") as info:
            sm._kernel(config, rows, gram, lo)
        assert info.value.exit_code == 3


class TestLayoutFallback:
    # where the read-only layout check fails, iter_blocks draws from
    # block_streams' own Generators: the same bytes either way
    CONFIG = RandomStateConfig(n_full=5, m_sys=2, profile=ZProfile("flat", 6.0),
                               master_seed=7, pipeline="direct")
    SWEEP = ("sweep --n-grid 2,3 --m 2 --pipeline direct --z-profile flat:6.0 --samples 200 "
             "--seed 4 --threads 2").split()

    @staticmethod
    def fail_check(monkeypatch, how):
        if how == "pointer-outside":
            null = types.SimpleNamespace(value=None)
            monkeypatch.setattr(sm, "c_void_p", types.SimpleNamespace(from_address=lambda a: null))
        else:  # the words in another order, as a 128-bit type of two halves high first
            states = sm._pcg64_states
            monkeypatch.setattr(sm, "_pcg64_states", lambda *a: states(*a)[:, [1, 0, 3, 2]])
        sm._pcg64_state_offset.cache_clear()
        assert sm._pcg64_state_offset() is None

    @pytest.fixture(params=["pointer-outside", "words-differ"])
    def check_fails(self, request, monkeypatch):
        yield lambda: self.fail_check(monkeypatch, request.param)
        monkeypatch.undo()
        sm._pcg64_state_offset.cache_clear()  # the next draw checks the real layout again

    def test_offset_found_holds_seeded_words(self):
        offset = sm._pcg64_state_offset()
        if offset is None:
            pytest.skip("this numpy's PCG64 layout is not the one the in-place write needs")
        for seed, index in [(0, 0), (958438296, 2**32 - 1), (2**128 - 1, 2**64)]:
            bit_generator = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,)))
            words = ctypes.string_at(id(bit_generator) + offset, 32)
            assert words == sm._pcg64_states(sm._pcg64_seeds(seed, index, index + 1)).tobytes()

    def test_sample_block_bytes(self, check_fails):
        expected = sm.sample_block(self.CONFIG, 3, 40)
        check_fails()
        fallback = sm.sample_block(self.CONFIG, 3, 40)
        assert all(np.array_equal(a, b) for a, b in zip(fallback, expected))

    def test_forked_sweep_bytes(self, check_fails, tmp_path):
        assert cli.main([*self.SWEEP, "--out", str(tmp_path / "fast.json")]) == 0
        check_fails()
        assert cli.main([*self.SWEEP, "--out", str(tmp_path / "fallback.json")]) == 0
        for suffix in (".json", ".csv"):
            fast, fallback = (tmp_path / f"{name}{suffix}" for name in ("fast", "fallback"))
            assert fallback.read_bytes() == fast.read_bytes()


class TestEnergyScaling:
    def test_purified_input_energy_grows_polynomially(self):
        # input pure-state energy under power(beta) profiles follows
        # c * n^(beta+1) within a factor-2 envelope across the grid
        beta = 0.25
        profile = ZProfile("power", beta)
        ratios = []
        for n_full in (16, 32, 64, 128, 256):
            config = RandomStateConfig(
                n_full=n_full, m_sys=1, profile=profile, master_seed=0
            )
            spec = sm.draw_squeezing(profile, config.ambient_modes)
            input_energy = float(np.sum(spec.gram)) / 4.0
            ratios.append(input_energy / n_full ** (beta + 1.0))
        fit = math.exp(np.mean(np.log(ratios)))
        assert max(ratios) <= 2.0 * fit
        assert min(ratios) >= 0.5 * fit


VACUUM_CONFIG = RandomStateConfig(n_full=2, m_sys=1, profile=ZProfile("vacuum"), master_seed=0)


class TestRefusals:
    # each refusal's exception type and whole message, in sampling.py's order
    @pytest.mark.parametrize("call, error, message", [
        (lambda: sm.haar_unitary(0, np.random.default_rng(0)),
         BadModeCount, r"invalid unitary size 0"),
        (lambda: sm._check_unitary(np.eye(3)[:2]),
         NotUnitary, r"expected a square matrix, got shape \(2, 3\)"),
        (lambda: sm._check_unitary(np.ones(3)),
         NotUnitary, r"expected a square matrix, got shape \(3,\)"),
        (lambda: ZProfile("gauss"), InvalidProfile, r"unknown profile kind 'gauss'"),
        (lambda: SqueezingSpec(np.array([])),
         InvalidProfile, r"squeezing vector must be a nonempty 1-D array"),
        (lambda: SqueezingSpec(np.ones((2, 2))),
         InvalidProfile, r"squeezing vector must be a nonempty 1-D array"),
        (lambda: sm.flat_z_max(0.25), EmptyConstraintSet, r"energy bound 0.25 admits no z >= 1"),
        (lambda: sm.flat_z_max(1e300),
         InvalidProfile, r"energy bound 1e\+300 too large: z_max overflows"),
        (lambda: sm.draw_squeezing(ZProfile("vacuum"), 0),
         BadModeCount, r"n_modes must be >= 1, got 0"),
        (lambda: sm.state_from_unitary(np.eye(2), SqueezingSpec(np.ones(2)), 0),
         BadModeCount, r"m_sys=0 out of range 1\.\.2"),
        (lambda: sm.state_from_unitary(np.eye(2), SqueezingSpec(np.ones(2)), 3),
         BadModeCount, r"m_sys=3 out of range 1\.\.2"),
        (lambda: sm.sample_block(VACUUM_CONFIG, 5, 5), InvalidConfig, r"empty sample range \[5, 5\)"),
        (lambda: sm.sample_block(VACUUM_CONFIG, 9, 3), InvalidConfig, r"empty sample range \[9, 3\)"),
    ], ids=["unitary-size", "unitary-not-square", "unitary-1d", "profile-kind", "spec-empty",
            "spec-2d", "flat-energy-below-half", "flat-energy-overflow", "draw-no-modes",
            "m-sys-zero", "m-sys-past-d", "range-empty", "range-reversed"])
    def test_type_and_message(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("m_sys", [1, 2])
    def test_joined_range_numpy_cannot_shape_refused(self, m_sys):
        # the joined (hi - lo, 2m, 2m) covariances bound the range; refused
        # before any stream is hashed
        config = dataclasses.replace(VACUUM_CONFIG, m_sys=m_sys)
        most = MAX_ENTRIES // (4 * m_sys * m_sys)
        for lo, hi in [(0, most + 1), (3, 10 ** 20)]:
            with pytest.raises(InvalidConfig,
                               match=rf"^sample range \[{lo}, {hi}\) exceeds numpy's array size$"):
                sm.sample_block(config, lo, hi)
