import ctypes
import functools
import hashlib
import math
import subprocess
import sys
import threading
import tracemalloc
import types

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest

from gausswork import phasespace as ps
from gausswork import sampling as sm
from gausswork.errors import (
    DimensionMismatch,
    EmptyConstraintSet,
    InvalidConfig,
    InvalidProfile,
    NotUnitary,
    RejectionTimeout,
)
from gausswork.sampling import RandomStateConfig, SqueezingSpec, ZProfile
from gausswork.validate import check_embedding

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

    @pytest.mark.parametrize("seed, lo", [(-1, 0), (-(2**70), 5), (3, -1), (-2, -2)])
    def test_negative_seed_or_index(self, seed, lo):
        with pytest.raises(InvalidConfig):
            sm.block_streams(seed, lo, lo + 2)
        with pytest.raises(InvalidConfig):
            sm.block_streams(seed, lo, lo + 1)


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 4, 9):
            u = sm.haar_unitary(d, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10

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
        assert ZProfile.parse("uniform:1.5").z0 == 1.5
        assert ZProfile.parse("power:0.25").beta == 0.25
        assert ZProfile.parse("flat:4").energy == 4.0
        assert ZProfile.parse("file:/tmp/z.txt").path == "/tmp/z.txt"
        assert ZProfile.parse("uniform:1.5").canonical() == "uniform:1.5"

    @pytest.mark.parametrize("text", [
        "box", "uniform", "uniform:0.5", "power:-1", "flat:0", "vacuum:2",
        "uniform:nan", "uniform:inf", "power:nan", "power:inf", "flat:nan", "flat:inf",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(InvalidProfile):
            ZProfile.parse(text)

    @pytest.mark.parametrize("profile, field", [
        (dict(kind="power", beta=0.3, z0=2.0), "z0"),
        (dict(kind="vacuum", z0=5.0), "z0"),
        (dict(kind="uniform", z0=1.5, path="x"), "path"),
    ])
    def test_stray_parameter_rejected(self, profile, field):
        with pytest.raises(InvalidProfile, match=f"takes no {field}"):
            ZProfile(**profile)

    def test_degree(self):
        assert ZProfile.parse("power:0.3").degree == 0.3
        assert ZProfile.parse("uniform:2").degree == 0.0


class TestDrawSqueezing:
    def test_vacuum(self):
        assert np.array_equal(sm.draw_squeezing(ZProfile("vacuum"), 4).z, np.ones(4))

    def test_uniform(self):
        spec = sm.draw_squeezing(ZProfile("uniform", z0=1.3), 5)
        assert np.array_equal(spec.z, np.full(5, 1.3))

    def test_power_profile(self):
        spec = sm.draw_squeezing(ZProfile("power", beta=0.25), 16)
        assert spec.z.max() == pytest.approx(16.0 ** 0.125, abs=1e-12)
        assert np.sum(spec.z > 1.0) == 4  # ceil(16/4) modes carry the squeezing
        assert np.all(spec.z[4:] == 1.0)

    def test_flat_membership_exact(self):
        energy = 1.0
        rng = np.random.default_rng(17)
        z_hi = sm.flat_z_max(energy)
        assert z_hi == pytest.approx(math.sqrt(2.0 + math.sqrt(3.0)), abs=1e-12)
        for _ in range(50):
            spec = sm.draw_squeezing(ZProfile("flat", energy=energy), 1, rng)
            assert spec.z[0] <= z_hi
            assert float(np.sum(spec.z ** 2 + spec.z ** -2.0)) <= 4.0 * energy

    def test_flat_empty_set(self):
        with pytest.raises(EmptyConstraintSet):
            sm.draw_squeezing(ZProfile("flat", energy=1.0), 3, np.random.default_rng(0))

    def test_flat_needs_rng(self):
        with pytest.raises(InvalidConfig):
            sm.draw_squeezing(ZProfile("flat", energy=5.0), 2)

    def test_flat_timeout(self, monkeypatch):
        monkeypatch.setattr(sm, "_REJECTION_MAX_DRAWS", 2048)
        rng = np.random.default_rng(19)
        # barely nonempty ball: acceptance is (numerically) never
        with pytest.raises(RejectionTimeout):
            sm.draw_squeezing(ZProfile("flat", energy=20.0000001), 40, rng)

    def test_file_profile(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("1.0\n1.5\n2.0\n")
        spec = sm.draw_squeezing(ZProfile("file", path=str(path)), 3)
        assert np.array_equal(spec.z, [1.0, 1.5, 2.0])
        with pytest.raises(DimensionMismatch):
            sm.draw_squeezing(ZProfile("file", path=str(path)), 4)

    def test_file_profile_bad_file(self, tmp_path):
        with pytest.raises(InvalidProfile, match="cannot read"):
            sm.draw_squeezing(ZProfile("file", path=str(tmp_path / "nope.txt")), 3)
        path = tmp_path / "z.txt"
        path.write_text("1.0\nlarge\n2.0\n")
        with pytest.raises(InvalidProfile, match="large"):
            sm.draw_squeezing(ZProfile("file", path=str(path)), 3)
        for bad in ("nan", "inf"):
            path = tmp_path / f"{bad}.txt"
            path.write_text(f"1.0\n{bad}\n2.0\n")
            with pytest.raises(InvalidProfile, match="non-finite"):
                sm.draw_squeezing(ZProfile("file", path=str(path)), 3)

    def test_file_profile_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "z.txt"
        path.write_text("1.0\n1.5\n2.0\n1.2\n")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(sm, "open", counting_open, raising=False)
        config = RandomStateConfig(n_full=2, m_sys=1, profile=ZProfile("file", path=str(path)),
                                   master_seed=0)
        for index in range(5):
            sm.sample_block(config, index, index + 1)
        assert opened == [str(path)]
        # a rewritten file, or the same relative path from another directory, is read again
        path.write_text("1.25\n1.5\n2.0\n1.2\n")
        assert sm.draw_squeezing(config.profile, 4).z[0] == 1.25
        other = tmp_path / "other"
        other.mkdir()
        (other / "z.txt").write_text("3.0\n1.5\n2.0\n1.2\n")
        monkeypatch.chdir(other)
        assert sm.draw_squeezing(ZProfile("file", path="z.txt"), 4).z[0] == 3.0
        assert len(opened) == 3

    def test_spec_validation(self):
        with pytest.raises(InvalidProfile):
            SqueezingSpec(np.array([0.9, 1.2]))
        with pytest.raises(InvalidProfile):
            SqueezingSpec(np.array([2.0, 2.0]), energy_bound=1.0)
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
            sm.draw_squeezing(ZProfile("power", beta=beta), n)


class TestSqueezeGram:
    def test_vacuum_is_identity(self):
        spec = SqueezingSpec(np.ones(3))
        assert np.array_equal(np.diag(sm.squeeze_gram_diagonal(spec)), np.eye(6))

    def test_single_mode(self):
        spec = SqueezingSpec(np.array([2.0]))
        assert np.array_equal(np.diag(sm.squeeze_gram_diagonal(spec)), np.diag([4.0, 0.25]))

    def test_trace_gives_thermal_value(self):
        spec = SqueezingSpec(np.ones(2))
        assert np.trace(np.diag(sm.squeeze_gram_diagonal(spec))) / (4 * 2) == 0.5

    def test_infinity_norm(self):
        spec = SqueezingSpec(np.array([1.0, 3.0]))
        assert np.max(sm.squeeze_gram_diagonal(spec)) == 9.0


class TestRandomState:
    def test_vacuum_gives_vacuum(self):
        config = RandomStateConfig(n_full=5, m_sys=2, profile=ZProfile("vacuum"), master_seed=3)
        gamma = sm.sample_random_state(config, 0)
        assert np.max(np.abs(gamma - np.eye(4) / 2)) <= 1e-12

    @pytest.mark.parametrize("pipeline", ["direct", "purified"])
    def test_full_system_is_pure(self, pipeline):
        config = RandomStateConfig(
            n_full=4, m_sys=4, profile=ZProfile("uniform", z0=1.4),
            master_seed=7, pipeline=pipeline,
        )
        # purified keeps m of 2n ambient modes; m=n still leaves a mixed
        # state there, so purity of the kept block is only guaranteed in
        # the direct pipeline with no trace-out.
        gamma = sm.sample_random_state(config, 0)
        nus = ps.symplectic_eigenvalues(gamma).nus
        if pipeline == "direct":
            assert np.max(np.abs(nus - 0.5)) <= 1e-8
        else:
            assert nus[-1] >= 0.5 - 1e-9

    def test_determinism_and_stream_independence(self):
        config = RandomStateConfig(
            n_full=6, m_sys=2, profile=ZProfile("uniform", z0=1.2), master_seed=21
        )
        first = sm.sample_random_state(config, 5)
        # drawing other indices first must not disturb index 5
        sm.sample_random_state(config, 0)
        sm.sample_random_state(config, 6)
        assert np.array_equal(first, sm.sample_random_state(config, 5))

    def test_physical_and_energy_capped(self):
        config = RandomStateConfig(
            n_full=8, m_sys=3, profile=ZProfile("power", beta=0.25), master_seed=2
        )
        spec = sm.draw_squeezing(config.profile, config.ambient_modes)
        cap = 0.5 * float(np.sum(sm.squeeze_gram_diagonal(spec)))
        for i in range(20):
            gamma = sm.sample_random_state(config, i)
            assert ps.symplectic_eigenvalues(gamma).nus[-1] >= 0.5 - 1e-9
            assert np.trace(gamma) <= cap

    def test_row_shortcut_equals_embedded_pipeline(self):
        # the sampler keeps only the needed unitary rows; check the algebra
        # against the explicit embed-conjugate-trace route
        rng = np.random.default_rng(23)
        spec = SqueezingSpec(rng.uniform(1.0, 1.8, 6))
        u = sm.haar_unitary(6, rng)
        fast = sm.state_from_unitary(u, spec, 2)
        o = sm.unitary_to_symplectic(u)
        full = 0.5 * o @ np.diag(sm.squeeze_gram_diagonal(spec)) @ o.T
        idx = ps.keep_indices(6, 2)
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
            n_full=64, m_sys=1, profile=ZProfile("uniform", z0=1.2), master_seed=31
        )
        spec = sm.draw_squeezing(config.profile, config.ambient_modes)
        nu = float(np.sum(sm.squeeze_gram_diagonal(spec))) / (4 * config.ambient_modes)
        traces = [np.trace(sm.sample_random_state(config, i)) for i in range(500)]
        assert np.mean(traces) == pytest.approx(2 * nu, abs=1e-10)

    def test_flat_profile_redraws_z_per_sample(self):
        config = RandomStateConfig(
            n_full=2, m_sys=1, profile=ZProfile("flat", energy=3.0), master_seed=5
        )
        (spec_a,) = sm.sample_block(config, 0, 1)[1]
        (spec_b,) = sm.sample_block(config, 1, 2)[1]
        assert not np.array_equal(spec_a.z, spec_b.z)
        (spec_a2,) = sm.sample_block(config, 0, 1)[1]
        assert np.array_equal(spec_a.z, spec_a2.z)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            RandomStateConfig(n_full=2, m_sys=3, profile=ZProfile("vacuum"), master_seed=0)
        with pytest.raises(InvalidConfig):
            RandomStateConfig(
                n_full=2, m_sys=1, profile=ZProfile("vacuum"), master_seed=0, pipeline="fast"
            )


def gamma_reference(rows, gram_diag):
    """The Gamma build as np.block wrote it, the layout reference of
    sampling._gamma_from_rows."""
    re, im = rows.real, rows.imag
    sel = np.block([[re, im], [-im, re]])
    return 0.5 * (sel * gram_diag) @ np.swapaxes(sel, -1, -2)


class TestBlockScratch:
    @pytest.mark.parametrize("pipeline", ["purified", "direct"])
    @pytest.mark.parametrize("n_full, m_sys, profile", [
        (16, 1, "uniform:1.3"), (16, 2, "uniform:1.3"), (16, 3, "uniform:1.3"),
        (8, 8, "uniform:1.3"), (2, 1, "flat:3.0"),
    ])
    def test_equals_block_expression(self, n_full, m_sys, profile, pipeline):
        # a budget-sized block, then a short one, rebuilt from the same
        # streams with freshly allocated arrays and np.block's selector
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
            z = (parts[:, 0] + 1j * parts[:, 1]) / math.sqrt(2.0)
            q, r = np.linalg.qr(z)
            diag = np.diagonal(r, axis1=-2, axis2=-1)
            rows = np.swapaxes(q * (diag / np.abs(diag))[..., None, :], -1, -2)
            if config.profile.is_random:
                gram = np.array([sm.squeeze_gram_diagonal(s) for s in specs])[:, None, :]
            else:
                gram = sm.squeeze_gram_diagonal(specs[0])
            gammas, block_specs = sm.sample_block(config, lo, hi)
            assert np.array_equal(gammas, gamma_reference(rows, gram))
            assert all(np.array_equal(a.z, b.z) for a, b in zip(block_specs, specs))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_state_from_unitary_equals_block_expression(self, order):
        rng = np.random.default_rng(37)
        spec = SqueezingSpec(rng.uniform(1.0, 1.8, 6))
        gram = sm.squeeze_gram_diagonal(spec)
        for shape in ((), (4,), (2, 3)):
            u = np.asarray(sm.haar_unitary(6, rng, shape), order=order)
            for m in (1, 2, 6):
                assert np.array_equal(sm.state_from_unitary(u, spec, m),
                                      gamma_reference(u[..., :m, :], gram))

    @pytest.mark.parametrize("n_full, m_sys", [(16, 2), (128, 1)])
    def test_repeated_block_allocates_under_three_blocks(self, n_full, m_sys):
        # d = 32, m = 2 and d = 256, m = 1 at the block budget; the second
        # same-shape block reuses the first one's scratch, so only the QR's
        # arrays and the returned stack are new
        config = RandomStateConfig(n_full=n_full, m_sys=m_sys,
                                   profile=ZProfile("uniform", z0=1.5), master_seed=3)
        step = sm.BLOCK_ENTRIES // (config.ambient_modes * m_sys)
        sm.sample_block(config, 0, step)
        tracemalloc.start()
        try:
            sm.sample_block(config, step, 2 * step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * np.dtype(complex).itemsize * sm.BLOCK_ENTRIES

    def test_block_beyond_budget_is_not_kept(self):
        # a direct call for four budgets' worth of samples draws budget-sized
        # blocks, so the thread keeps only the budget-sized set
        config = RandomStateConfig(n_full=8, m_sys=1, profile=ZProfile("uniform", z0=1.5),
                                   master_seed=3)
        step = sm.BLOCK_ENTRIES // config.ambient_modes
        drawn, kept = [], []

        def draw():
            drawn.append(sm.sample_block(config, 0, 4 * step)[0])
            kept.append(getattr(sm._SCRATCH, "entries", 0))
            drawn.append(np.concatenate([sm.sample_block(config, k, k + step)[0]
                                         for k in range(0, 4 * step, step)]))
            kept.append(sm._SCRATCH.entries)

        thread = threading.Thread(target=draw)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert kept == [sm.BLOCK_ENTRIES, sm.BLOCK_ENTRIES]
        assert np.array_equal(*drawn)


def in_fresh_thread(target):
    """Run ``target`` in a new thread, whose block buffers start empty."""
    result = []
    thread = threading.Thread(target=lambda: result.append(target()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and result
    return result[0]


def has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return True


class TestPastBudgetMemory:
    # d m = 2^15 (purified n = 4096, m = 4), exactly the budget and just past it
    WIDE = RandomStateConfig(n_full=4096, m_sys=4, profile=ZProfile("uniform", z0=1.5),
                             master_seed=3)
    BUDGET = RandomStateConfig(n_full=1024, m_sys=4, profile=ZProfile("uniform", z0=1.5),
                               master_seed=3)
    PAST = RandomStateConfig(n_full=1025, m_sys=4, profile=ZProfile("uniform", z0=1.5),
                             master_seed=3)
    # faults per sample of 8 samples of d m = BLOCK_ENTRIES, after one
    # warm-up, in a fresh interpreter whose allocator no other test has pinned
    BUDGET_FAULTS = """
import resource
from gausswork import sampling as sm
from gausswork.sampling import RandomStateConfig, ZProfile
config = RandomStateConfig(n_full=1024, m_sys=4, profile=ZProfile("uniform", z0=1.5),
                           master_seed=3)
assert config.ambient_modes * config.m_sys == sm.BLOCK_ENTRIES
sm.sample_block(config, 0, 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sm.sample_block(config, 1, 9)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 8)
"""

    @pytest.mark.skipif(resource is None or not has_mallopt(), reason="needs getrusage, mallopt")
    def test_wide_samples_stay_resident(self):
        # each sample's QR frees about 1.9 MB; unless glibc's thresholds
        # are pinned, it unmaps or trims them and the next sample faults
        # them back in, about 480 minor faults per sample here
        def faults_per_sample():
            sm.sample_block(self.WIDE, 0, 1)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sm.sample_block(self.WIDE, 1, 9)
            return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 8

        assert in_fresh_thread(faults_per_sample) < 16

    @pytest.mark.skipif(resource is None or not has_mallopt(), reason="needs getrusage, mallopt")
    def test_budget_samples_stay_resident(self):
        # one sample that exactly fills a block frees its QR's 128 KiB
        # arrays; unpinned, that is about 96 minor faults per sample
        result = subprocess.run([sys.executable, "-c", self.BUDGET_FAULTS],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) < 16

    def test_budget_blocks_skip_the_hook(self, monkeypatch):
        # the hook is cached, so it runs once per process
        calls = []
        monkeypatch.setattr(sm, "_keep_freed_memory", functools.cache(lambda: calls.append(1)))
        profile = self.BUDGET.profile

        def draw():
            # blocks of several samples each (d m = 16, 128 and 4096)
            sm.sample_block(RandomStateConfig(n_full=8, m_sys=1, profile=profile,
                                              master_seed=3), 0, 3 * sm.BLOCK_ENTRIES // 16)
            list(sm.iter_blocks([RandomStateConfig(n_full=16, m_sys=4, profile=profile,
                                                   master_seed=3),
                                 RandomStateConfig(n_full=512, m_sys=4, profile=profile,
                                                   master_seed=3)], 0, 3))
            within = len(calls)
            sm.sample_block(self.BUDGET, 0, 2)  # d m = BLOCK_ENTRIES exactly
            at_budget = len(calls)
            sm.sample_block(self.PAST, 0, 2)
            sm.sample_block(self.PAST, 2, 3)
            return within, at_budget, len(calls)

        assert in_fresh_thread(draw) == (0, 1, 1)

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
            gammas = in_fresh_thread(lambda: sm.sample_block(self.PAST, 0, 2)[0])
        finally:
            sm._keep_freed_memory.cache_clear()  # the next past-budget block pins again
        assert looked_up == [None]
        assert np.array_equal(gammas, expected)


class TestKernel:
    @staticmethod
    def stream_rows(configs, lo, hi):
        """The rows and shared vectors that _draw_block hands the kernel,
        drawn with freshly allocated arrays."""
        m, d_max = configs[0].m_sys, max(c.ambient_modes for c in configs)
        profile, specs, rows = configs[0].profile, [], []
        for rng in sm.block_streams(configs[0].master_seed, lo, hi):
            if profile.is_random:
                specs.append(sm.draw_squeezing(profile, configs[0].ambient_modes, rng))
            rows.append(rng.standard_normal(2 * d_max * m))
        if profile.is_random:
            grams = np.array([sm.squeeze_gram_diagonal(s) for s in specs])[:, None, :]
            return np.array(rows), [(None, grams)]
        specs = [sm.draw_squeezing(profile, c.ambient_modes) for c in configs]
        return np.array(rows), [(s, sm.squeeze_gram_diagonal(s)) for s in specs]

    @pytest.mark.parametrize("grid, profile, pipeline", [
        ((16,), "uniform:1.3", "purified"), ((8, 32), "power:0.3", "direct"),
        ((2,), "flat:3.0", "purified"), ((1025,), "uniform:1.5", "purified"),
    ])
    @pytest.mark.parametrize("m_sys", [1, 2])
    def test_given_rows_equal_sample_block(self, grid, profile, pipeline, m_sys):
        configs = [RandomStateConfig(n_full=n, m_sys=m_sys, profile=ZProfile.parse(profile),
                                     master_seed=19, pipeline=pipeline) for n in grid]
        lo, hi = 5, 5 + sm.BLOCK_ENTRIES // (configs[0].ambient_modes * m_sys) + 3
        blocks = sm._kernel(configs, *self.stream_rows(configs, lo, hi))
        for config, gammas in zip(configs, blocks):
            assert np.array_equal(np.concatenate(gammas), sm.sample_block(config, lo, hi)[0])


class TestEnergyScaling:
    def test_purified_input_energy_grows_polynomially(self):
        # input pure-state energy under power(beta) profiles follows
        # c * n^(beta+1) within a factor-2 envelope across the grid
        beta = 0.25
        profile = ZProfile("power", beta=beta)
        ratios = []
        for n_full in (16, 32, 64, 128, 256):
            config = RandomStateConfig(
                n_full=n_full, m_sys=1, profile=profile, master_seed=0
            )
            spec = sm.draw_squeezing(profile, config.ambient_modes)
            input_energy = float(np.sum(sm.squeeze_gram_diagonal(spec))) / 4.0
            ratios.append(input_energy / n_full ** (beta + 1.0))
        fit = math.exp(np.mean(np.log(ratios)))
        assert max(ratios) <= 2.0 * fit
        assert min(ratios) >= 0.5 * fit
