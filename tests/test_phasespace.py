import io
import math

import numpy as np
import pytest

from gausswork import phasespace as ps
from gausswork.stats import extractable_work, spectral_statistics
from gausswork.errors import (
    BadModeCount,
    InvalidConfig,
    InvalidCovariance,
    MalformedFile,
    NonPositiveDefinite,
)
from gausswork.sampling import random_covariance, random_symplectic


def keep_indices(n_modes, keep):
    """Row/column indices of the first ``keep`` modes in split ordering."""
    if not 1 <= keep <= n_modes:
        raise BadModeCount(f"keep={keep} out of range for {n_modes} modes")
    return np.concatenate([np.arange(keep), n_modes + np.arange(keep)])


def symplectic_eigenvalues_direct(gamma):
    """Reference spectrum from the imaginary parts of eig(Omega @ Gamma),
    independent of the symmetric-kernel route of the package."""
    gamma = np.asarray(gamma, dtype=float)
    evals = np.linalg.eigvals(ps.symplectic_form(ps.mode_count(gamma)) @ gamma)
    return np.sort(np.abs(evals.imag))[::-1][0::2].copy()


def partial_trace(gamma, keep):
    """Covariance matrix of the first ``keep`` modes."""
    gamma = np.asarray(gamma, dtype=float)
    idx = keep_indices(ps.mode_count(gamma), keep)
    return gamma[np.ix_(idx, idx)].copy()


def embedded_purification(gamma):
    """Purification as E B E^T: the Williamson factor S embedded in the
    identity on the original modes' rows, conjugating the two-copy matrix B
    of each mode's nu and two-mode-squeezed correlation +-sqrt(nu^2 - 1/4),
    in (q_orig, q_partner, p_orig, p_partner) ordering."""
    nus, factor = ps.williamson(gamma)
    m = len(nus)
    excess = nus * nus - 0.25
    excess[excess <= 1e-12] = 0.0
    big = np.zeros((4 * m, 4 * m))
    q_a, q_r = np.arange(m), m + np.arange(m)
    p_a, p_r = 2 * m + np.arange(m), 3 * m + np.arange(m)
    for a, r, c in ((q_a, q_r, np.sqrt(excess)), (p_a, p_r, -np.sqrt(excess))):
        big[a, a] = big[r, r] = nus
        big[a, r] = big[r, a] = c
    embed = np.eye(4 * m)
    embed[np.ix_(np.r_[q_a, p_a], np.r_[q_a, p_a])] = factor
    return embed @ big @ embed.T


def single_mode_squeezer(z, n_modes, target_mode):
    """Symplectic matrix scaling q of one (zero-based) mode by z and its p
    by 1/z; z = 1 gives the identity."""
    if n_modes < 1 or not 0 <= target_mode < n_modes:
        raise BadModeCount(f"target_mode={target_mode} out of range for {n_modes} modes")
    s = np.eye(2 * n_modes)
    s[target_mode, target_mode] = z
    s[n_modes + target_mode, n_modes + target_mode] = 1.0 / z
    return s


def one_mode_nu(gamma):
    # independent oracle: a single-mode symplectic eigenvalue is sqrt(det)
    return math.sqrt(np.linalg.det(gamma))


def two_mode_squeezed(nu):
    c = math.sqrt(nu * nu - 0.25)
    return np.array(
        [
            [nu, c, 0.0, 0.0],
            [c, nu, 0.0, 0.0],
            [0.0, 0.0, nu, -c],
            [0.0, 0.0, -c, nu],
        ]
    )


class TestSymplecticForm:
    def test_one_mode(self):
        assert ps.symplectic_form(1).tolist() == [[0.0, 1.0], [-1.0, 0.0]]

    def test_two_mode_blocks(self):
        omega = ps.symplectic_form(2)
        eye = np.eye(2)
        assert np.array_equal(omega[:2, 2:], eye)
        assert np.array_equal(omega[2:, :2], -eye)
        assert np.array_equal(omega[:2, :2], np.zeros((2, 2)))

    def test_orthogonality_and_square(self):
        omega = ps.symplectic_form(3)
        assert np.array_equal(omega @ omega.T, np.eye(6))
        assert np.array_equal(omega @ omega, -np.eye(6))
        assert np.array_equal(omega.T, -omega)

    def test_bad_mode_count(self):
        with pytest.raises(BadModeCount):
            ps.symplectic_form(0)

    @pytest.mark.parametrize("n_modes", [True, np.True_, 2.0, "2"])
    def test_bools_and_non_integers_refused(self, n_modes):
        # the forms of 1 and 2 modes are cached first: a cache that keys
        # True as 1 and 2.0 as 2 would hand them out
        ps.symplectic_form(1), ps.symplectic_form(2)
        with pytest.raises(InvalidConfig, match="^n_modes must be an integer"):
            ps.symplectic_form(n_modes)

    def test_cached_read_only(self):
        omega = ps.symplectic_form(4)
        assert ps.symplectic_form(4) is omega
        with pytest.raises(ValueError):
            omega[0, 0] = 1.0


def energy(gamma):
    """Mean energy Tr[Gamma]/2, the energy column of the statistics."""
    return spectral_statistics(gamma, 0.5)[0]


class TestEnergy:
    def test_vacuum(self):
        assert energy(np.eye(2) / 2) == 0.5
        assert energy(np.eye(4) / 2) == 1.0

    def test_thermal(self):
        # mean photon number 1 per mode
        assert energy(1.5 * np.eye(2)) == 1.5
        assert energy(1.5 * np.eye(6)) == 4.5

    def test_squeezed(self):
        assert energy(np.diag([4.0, 0.25]) / 2) == pytest.approx(1.0625, abs=1e-15)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert ps.symplectic_eigenvalues(np.eye(2) / 2) == pytest.approx([0.5], abs=1e-14)

    def test_single_mode_det_oracle(self):
        gamma = np.diag([2.0, 0.5])
        assert ps.symplectic_eigenvalues(gamma)[0] == pytest.approx(
            one_mode_nu(gamma), abs=1e-12
        )

    def test_two_mode_diagonal_per_mode_oracle(self):
        gamma = np.diag([2.0, 2.0, 0.5, 0.5])
        # per-mode oracle: mode k has covariance diag(q_k, p_k)
        expected = sorted(
            (math.sqrt(2.0 * 0.5), math.sqrt(2.0 * 0.5)), reverse=True
        )
        assert ps.symplectic_eigenvalues(gamma) == pytest.approx(expected, abs=1e-12)

    def test_sorted_descending(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            nus = ps.symplectic_eigenvalues(random_covariance(4, rng))
            assert np.all(np.diff(nus) <= 0)

    def test_non_positive_definite(self):
        with pytest.raises(NonPositiveDefinite):
            ps.symplectic_eigenvalues(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("shape, expected", [((0, 2, 2), (0, 1)), ((0, 4, 4), (0, 2)),
                                                 ((2, 0, 6, 6), (2, 0, 3))])
    def test_empty_stack(self, shape, expected):
        assert ps.symplectic_eigenvalues(np.empty(shape)).shape == expected

    @pytest.mark.parametrize("shape", [(0, 3, 3), (0, 4, 2), (0,), (0, 0, 0)])
    def test_empty_stack_of_a_bad_shape(self, shape):
        with pytest.raises(BadModeCount):
            ps.symplectic_eigenvalues(np.empty(shape))

    def test_crosscheck_against_direct_eig(self):
        # 100 random physical matrices per size n = 1..8
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            for _ in range(100):
                gamma = random_covariance(n, rng)
                nus = ps.symplectic_eigenvalues(gamma)
                scale = max(1.0, float(np.linalg.norm(gamma, 2)))
                assert np.max(np.abs(nus - symplectic_eigenvalues_direct(gamma))) <= 1e-9 * scale
                ps.check_covariance(gamma)


class TestWilliamsonFactor:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_reconstruction(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            gamma = random_covariance(n, rng)
            nus, factor = ps.williamson(gamma)
            assert ps.williamson_reconstruction_error(gamma, nus, factor) <= 1e-8
            assert ps.is_symplectic(factor, 1e-9)

    def test_degenerate_thermal(self):
        gamma = 1.3 * np.eye(6)
        nus, factor = ps.williamson(gamma)
        assert nus == pytest.approx([1.3, 1.3, 1.3], abs=1e-12)
        assert ps.williamson_reconstruction_error(gamma, nus, factor) <= 1e-10

    def test_non_uniform_diagonal(self):
        gamma = np.diag([1.0, 2.0, 3.0, 4.0])
        nus, factor = ps.williamson(gamma)
        assert nus == pytest.approx(
            sorted([math.sqrt(3.0), math.sqrt(8.0)], reverse=True), abs=1e-12
        )
        assert ps.williamson_reconstruction_error(gamma, nus, factor) <= 1e-10


class TestHermitianFactor:
    """The factor from the eigenvectors of i * kernel on mixed states, on
    pure states squeezed up to z = 100, and its phase gauge."""

    def assert_valid_factor(self, gamma):
        factor_nus, factor = ps.williamson(gamma)
        assert ps.is_symplectic(factor, 1e-8)
        assert ps.williamson_reconstruction_error(gamma, factor_nus, factor) <= ps.RECONSTRUCTION_TOL
        assert np.all(np.diff(factor_nus) <= 0.0)
        nus = ps.symplectic_eigenvalues(gamma)
        assert np.all(np.abs(factor_nus - nus) <= 1e-12 * np.maximum(1.0, nus))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_mixed(self, m):
        rng = np.random.default_rng(200 + m)
        for _ in range(20):
            self.assert_valid_factor(random_covariance(m, rng))

    @pytest.mark.parametrize("max_squeeze", [1.5, 10.0, 100.0])
    def test_pure(self, max_squeeze):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_symplectic(3, rng, max_squeeze=max_squeeze)
            self.assert_valid_factor(0.5 * s @ s.T)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 3.0])
    def test_one_mode_thermal_gives_identity(self, nu):
        _, factor = ps.williamson(nu * np.eye(2))
        assert np.allclose(factor, np.eye(2), rtol=0.0, atol=1e-12)


class TestSymplecticTrace:
    """The symplectic trace 2 * sum(nu) and each nu it sums."""

    def symplectic_trace(self, gamma):
        return 2.0 * float(np.sum(ps.symplectic_eigenvalues(gamma)))

    def test_vacuum(self):
        assert self.symplectic_trace(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_thermal_two_modes(self):
        assert self.symplectic_trace(1.5 * np.eye(4)) == pytest.approx(6.0, abs=1e-12)

    def test_squeezed(self):
        assert self.symplectic_trace(np.diag([2.0, 0.5])) == pytest.approx(2.0, abs=1e-12)

    def test_symplectic_invariance(self):
        # each nu, not only their sum, is kept by a symplectic conjugation
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            for _ in range(10):
                gamma = random_covariance(n, rng)
                s = random_symplectic(n, rng)
                before = ps.symplectic_eigenvalues(gamma)
                after = ps.symplectic_eigenvalues(s @ gamma @ s.T)
                assert np.max(np.abs(before - after)) <= 1e-8 * max(1.0, before[0])


class TestExtractableWork:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 3.7])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_thermal_nullity(self, nu, m):
        assert abs(extractable_work(nu * np.eye(2 * m))) <= 1e-10

    @pytest.mark.parametrize("z", [1.0, 1.5, 2.0, 5.0])
    def test_squeezed_vacuum(self, z):
        gamma = np.diag([z * z, z ** -2.0]) / 2
        # independent oracle: trace/2 minus the sqrt(det) eigenvalue
        oracle = 0.5 * np.trace(gamma) - one_mode_nu(gamma)
        assert extractable_work(gamma) == pytest.approx(oracle, abs=1e-12)
        assert extractable_work(gamma) == pytest.approx((z - 1.0 / z) ** 2 / 4, abs=1e-9)

    def test_two_mode_example(self):
        assert extractable_work(np.diag([2.0, 2.0, 0.5, 0.5])) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_nonnegative_on_random_physical(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            gamma = random_covariance(3, rng)
            assert extractable_work(gamma) >= -1e-9

    def test_constant_shift_identity(self):
        # the thermal-shift terms cancel for any constant
        rng = np.random.default_rng(29)
        for _ in range(20):
            gamma = random_covariance(2, rng)
            work = extractable_work(gamma)
            lam = np.linalg.eigvalsh(gamma)
            nus = ps.symplectic_eigenvalues(gamma)
            for c in (0.5, 0.9, 2.7):
                alt = abs(0.5 * np.sum(lam - c) + np.sum(c - nus))
                assert alt == pytest.approx(work, abs=1e-9)


class TestPartialTrace:
    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(31)
        gamma = random_covariance(3, rng)
        assert np.array_equal(partial_trace(gamma, 3), gamma)

    def test_two_mode_squeezed_reduces_to_thermal(self):
        gamma = two_mode_squeezed(1.0)
        assert np.allclose(partial_trace(gamma, 1), np.eye(2), atol=1e-15)

    def test_index_arithmetic(self):
        gamma = np.diag([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(partial_trace(gamma, 1), np.diag([1.0, 3.0]))

    def test_trace_shrinks(self):
        rng = np.random.default_rng(37)
        gamma = random_covariance(4, rng)
        assert np.trace(partial_trace(gamma, 2)) <= np.trace(gamma)

    def test_bad_mode_count(self):
        with pytest.raises(BadModeCount):
            partial_trace(np.eye(4), 3)
        with pytest.raises(BadModeCount):
            partial_trace(np.eye(4), 0)


class TestPurify:
    def test_vacuum(self):
        assert np.allclose(ps.purify(np.eye(2) / 2), np.eye(4) / 2, atol=1e-12)

    def test_unit_thermal_cross_block(self):
        pure = ps.purify(1.0 * np.eye(2))
        c = math.sqrt(0.75)
        assert pure[0, 1] == pytest.approx(c, abs=1e-12)
        assert pure[2, 3] == pytest.approx(-c, abs=1e-12)
        assert np.allclose(np.diag(pure), 1.0, atol=1e-12)

    @pytest.mark.parametrize("gamma", [
        np.eye(2) / 2, np.eye(4) / 2, 1.3 * np.eye(6), np.diag([2.0, 0.125]), two_mode_squeezed(0.7),
        *(random_covariance(m, np.random.default_rng(50 + m)) for m in (1, 2, 3, 8)),
    ])
    def test_equals_embedded_product(self, gamma):
        # the blocks outside the kept one are single products, equal to the
        # bit and the sign of a zero; the kept block S D S^T sums the same
        # products as the embedded one, whose padding zeros may change the
        # BLAS kernel's order (at 8 modes on some kernels)
        pure, expected = ps.purify(gamma), embedded_purification(gamma)
        m = ps.mode_count(gamma)
        outside = np.ones(pure.shape, bool)
        outside[np.ix_(keep_indices(2 * m, m), keep_indices(2 * m, m))] = False
        assert np.array_equal(pure[outside], expected[outside])
        assert np.array_equal(np.signbit(pure), np.signbit(expected))
        eps = np.finfo(float).eps
        assert np.max(np.abs(pure - expected)) <= 4 * m * eps * np.max(np.abs(expected))

    def test_roundtrip_purity_energy(self):
        rng = np.random.default_rng(41)
        for m in (1, 2, 3, 4):
            for _ in range(10):
                gamma = random_covariance(m, rng)
                pure = ps.purify(gamma)
                assert np.max(np.abs(partial_trace(pure, m) - gamma)) <= 1e-10
                nus = ps.symplectic_eigenvalues(pure)
                assert np.max(np.abs(nus - 0.5)) <= 1e-8
                assert np.trace(pure) <= 2.0 * np.trace(gamma) + 1e-9

    def test_four_eigensolves(self, monkeypatch):
        # one eigh of the input for its square root, one Hermitian eigh
        # shared by the uncertainty check and the factor, and the purity
        # check's square root and spectrum of the 6-mode result
        calls = []

        def counting(name, solve):
            def counted(matrix, *args, **kwargs):
                calls.append((name, matrix.shape))
                return solve(matrix, *args, **kwargs)
            return counted

        for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        ps.purify(random_covariance(3, np.random.default_rng(47)))
        assert calls == [("eigh", (6, 6)), ("eigh", (6, 6)), ("eigh", (12, 12)),
                         ("eigvalsh", (12, 12))]


class TestSqueezer:
    def test_identity(self):
        assert np.array_equal(single_mode_squeezer(1.0, 2, 0), np.eye(4))

    def test_single_mode(self):
        assert np.array_equal(single_mode_squeezer(2.0, 1, 0), np.diag([2.0, 0.5]))

    def test_action_on_vacuum(self):
        z = 1.7
        s = single_mode_squeezer(z, 1, 0)
        gamma = s @ (np.eye(2) / 2) @ s.T
        assert np.allclose(gamma, np.diag([z * z, z ** -2.0]) / 2, atol=1e-15)

    def test_symplectic(self):
        assert ps.is_symplectic(single_mode_squeezer(3.0, 3, 1))

    def test_bad_mode(self):
        with pytest.raises(BadModeCount):
            single_mode_squeezer(2.0, 2, 2)


class TestCovarianceChecks:
    def test_asymmetric_named(self):
        gamma = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidCovariance, match="symmetry"):
            ps.check_covariance(gamma)

    def test_unphysical_named(self):
        with pytest.raises(InvalidCovariance, match="uncertainty"):
            ps.check_covariance(0.25 * np.eye(2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_named(self, bad):
        gamma = np.eye(2)
        gamma[0, 0] = bad
        with pytest.raises(InvalidCovariance, match="^finite"):
            ps.check_covariance(gamma)

    def test_valid(self):
        assert ps.check_covariance(np.eye(4) / 2) == 2


class TestTextFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(43)
        gamma = random_covariance(2, rng)
        buf = io.StringIO()
        ps.write_covariance_text(gamma, buf)
        back = ps.read_covariance_text(io.StringIO(buf.getvalue()))
        assert np.array_equal(back, gamma)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x\n",
            "1\n1.0 0.0\n",
            "1\n1.0 0.0\n0.0 oops\n",
            "1\n1.0 0.0 0.0\n0.0 1.0 0.0\n",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedFile):
            ps.read_covariance_text(io.StringIO(text))

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_mode_count_below_one(self, count):
        with pytest.raises(MalformedFile, match=f"^mode count must be >= 1, got {count}$"):
            ps.read_covariance_text(io.StringIO(f"{count}\n"))
