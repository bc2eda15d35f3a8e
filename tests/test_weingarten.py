import math
from dataclasses import dataclass

import numpy as np
import pytest

from gausswork import phasespace as ps
from gausswork import sampling as sm
from gausswork import weingarten as wg
from gausswork.errors import BadDimension, DimensionMismatch, InvalidConfig
from gausswork.sampling import RandomStateConfig, SqueezingSpec, ZProfile


def uniform_config(n_full, m_sys, z0, seed, pipeline="purified"):
    return RandomStateConfig(
        n_full=n_full, m_sys=m_sys, profile=ZProfile("uniform", z0),
        master_seed=seed, pipeline=pipeline,
    )


def weingarten_pair(dim, permutation):
    """Degree-2 Weingarten function of U(dim): ``identity`` -> 1/(d^2-1),
    ``swap`` -> -1/(d(d^2-1)); singular at d = 1."""
    if dim < 2:
        raise BadDimension(f"degree-2 Weingarten function needs dim >= 2, got {dim}")
    d = float(dim)
    if permutation == "identity":
        return 1.0 / (d * d - 1.0)
    if permutation == "swap":
        return -1.0 / (d * (d * d - 1.0))
    raise ValueError(f"permutation must be 'identity' or 'swap', got {permutation!r}")


@dataclass
class ABDecomposition:
    """Split of the ambient squeeze spectrum J = diag(z^2) into its odd and
    even parts A = (J - J^-1)/2, B = (J + J^-1)/2, with cached traces,
    computed from z alone: the reference for the package's moments, which
    read J and J^-1 off ``SqueezingSpec.gram``.  A and B are diagonal;
    ``a`` and ``b`` hold their diagonals."""

    a: np.ndarray
    b: np.ndarray
    trB: float
    trB2: float
    trA2: float

    @classmethod
    def from_squeezing(cls, spec):
        j = spec.z * spec.z
        a = (j - 1.0 / j) / 2.0
        b = (j + 1.0 / j) / 2.0
        return cls(
            a, b,
            trB=float(np.sum(b)),
            trB2=float(np.sum(b * b)),
            trA2=float(np.sum(a * a)),
        )


def reference_second_moments(spec, config):
    """(E Tr[Gamma_m^2], E Tr[(Omega Gamma_m)^2]) from the traces of
    :class:`ABDecomposition`: +-m/2 (B term +- A term), with Tr[B^2]
    coefficient d m - 1 in the B term."""
    d, m = float(config.ambient_modes), float(config.m_sys)
    ab = ABDecomposition.from_squeezing(spec)
    term_b1 = (d - m) * ab.trB ** 2 / (d * (d * d - 1.0))
    term_b2 = (d * m - 1.0) * ab.trB2 / (d * (d * d - 1.0))
    term_a = (m + 1.0) * ab.trA2 / (d * (d + 1.0))
    term_b = term_b1 + term_b2
    return 0.5 * m * (term_b + term_a), -0.5 * m * (term_b - term_a)


def ambient_spec(config):
    return sm.draw_squeezing(config.profile, config.ambient_modes)


def rejected_omega_moment(spec, config):
    """Tr[(Omega Gamma_m)^2] mean under the rejected Tr[B^2] coefficient
    d m / 2 - 1 of the B term, in place of the retained d m - 1."""
    d, m = config.ambient_modes, config.m_sys
    trb2 = ABDecomposition.from_squeezing(spec).trB2
    return wg.expected_tr_omega_gamma_sq(spec, config) + m * m * trb2 / (4.0 * (d * d - 1.0))


def omega_probe_scores(n_samples, threads=1):
    """z-scores of the retained and the rejected Omega-moment coefficient
    against a brute-force Monte Carlo mean at the smallest nontrivial
    ambient dimension: d = 4, a purified 2-mode system, m = 1."""
    config = uniform_config(2, 1, 1.3, 20_240_811)
    report = wg.mc_moments(config, n_samples, threads)[2]
    rejected = rejected_omega_moment(ambient_spec(config), config)
    return {
        name: wg._z_ratio(value, report["estimate"], report["std_error"])
        for name, value in (("retained", report["analytic"]), ("rejected", rejected))
    }


class TestWeingartenValues:
    def test_d2(self):
        assert weingarten_pair(2, "identity") == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert weingarten_pair(2, "swap") == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_d3_swap(self):
        assert weingarten_pair(3, "swap") == pytest.approx(-1.0 / 24.0, abs=1e-15)

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            weingarten_pair(1, "identity")

    def test_bad_permutation(self):
        with pytest.raises(ValueError):
            weingarten_pair(4, "cycle")

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_fourth_moment_consistency_mc(self, d):
        # the degree-2 Weingarten sums predict the entry fourth moments:
        #   E|U_11|^4            = 2 (Wg_id + Wg_swap) = 2/(d(d+1))
        #   E|U_11|^2 |U_12|^2   = Wg_id + Wg_swap     = 1/(d(d+1))
        #   E U_11 U_22 U*_12 U*_21 = Wg_swap
        n_draws = 30000
        rng = np.random.default_rng(1000 + d)
        w_id = weingarten_pair(d, "identity")
        w_sw = weingarten_pair(d, "swap")
        a = np.empty(n_draws)
        b = np.empty(n_draws)
        c = np.empty(n_draws, dtype=complex)
        sq = np.empty(n_draws)
        for k in range(n_draws):
            u = sm.haar_unitary(d, rng)
            a[k] = abs(u[0, 0]) ** 4
            b[k] = abs(u[0, 0]) ** 2 * abs(u[0, 1]) ** 2
            c[k] = u[0, 0] * u[1, 1] * np.conj(u[0, 1]) * np.conj(u[1, 0])
            sq[k] = abs(u[0, 0]) ** 2
        for values, expected in (
            (a, 2.0 * (w_id + w_sw)),
            (b, w_id + w_sw),
            (c.real, w_sw),
            (sq, 1.0 / d),
        ):
            se = np.std(values, ddof=1) / math.sqrt(n_draws)
            assert abs(np.mean(values) - expected) <= 4.0 * se
        se = np.std(c.imag, ddof=1) / math.sqrt(n_draws)
        assert abs(np.mean(c.imag)) <= 4.0 * se


@pytest.mark.parametrize("length", [3, 7, 9, 100])
def test_spec_of_wrong_length_refused(length):
    # every expected moment assumes one z per ambient mode (d = 8 at
    # n = 4 purified); a 3- or 100-mode vector gave 0.185 and 128.4
    # for Tr[Gamma^2], against 0.998
    config = uniform_config(4, 1, 1.5, 0)
    assert wg.expected_tr_gamma_sq(ambient_spec(config), config) == pytest.approx(0.998, abs=1e-3)
    spec = SqueezingSpec(np.full(length, 1.5))
    for expected in (wg.expected_tr_gamma, wg.expected_tr_gamma_sq,
                     wg.expected_tr_omega_gamma_sq):
        with pytest.raises(DimensionMismatch, match=f"squeezing has {length} modes, "
                                                    "ambient dimension is 8"):
            expected(spec, config)


class TestABDecomposition:
    def test_invariants(self):
        spec = SqueezingSpec(np.array([1.0, 1.5, 2.5]))
        ab = ABDecomposition.from_squeezing(spec)
        a_mat, b_mat = np.diag(ab.a), np.diag(ab.b)
        j = np.diag(spec.z ** 2)
        assert np.allclose(b_mat - a_mat, np.linalg.inv(j), atol=1e-14)
        assert np.allclose(b_mat + a_mat, j, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(b_mat - a_mat) >= 0.0)
        assert ab.trA2 <= ab.trB2 <= np.sum(ab.b) * np.max(ab.b)

    def test_trace_identities(self):
        spec = SqueezingSpec(np.array([1.2, 2.0]))
        ab = ABDecomposition.from_squeezing(spec)
        a_mat, b_mat = np.diag(ab.a), np.diag(ab.b)
        assert ab.trB == pytest.approx(np.trace(b_mat), abs=1e-14)
        assert ab.trB2 == pytest.approx(np.trace(b_mat @ b_mat), abs=1e-14)
        assert ab.trA2 == pytest.approx(np.trace(a_mat @ a_mat), abs=1e-14)


    @pytest.mark.parametrize("pipeline", ["direct", "purified"])
    @pytest.mark.parametrize("profile", ["vacuum", "uniform:1.3", "power:0.3", "file"])
    @pytest.mark.parametrize("n_full, m_sys", [(2, 1), (5, 2), (64, 3)])
    def test_moments_equal_reference(self, tmp_path, n_full, m_sys, profile, pipeline):
        # both second moments, from the Gram diagonal, equal the
        # decomposition's closed forms to the last bit
        d = 2 * n_full if pipeline == "purified" else n_full
        if profile == "file":
            path = tmp_path / "z.txt"
            z = np.random.default_rng(d).uniform(1.0, 2.5, d)
            path.write_text("\n".join(map(repr, z.tolist())))
            profile = f"file:{path}"
        config = RandomStateConfig(n_full=n_full, m_sys=m_sys, profile=ZProfile.parse(profile),
                                   master_seed=0, pipeline=pipeline)
        spec = ambient_spec(config)
        expected = reference_second_moments(spec, config)
        assert (wg.expected_tr_gamma_sq(spec, config),
                wg.expected_tr_omega_gamma_sq(spec, config)) == expected


class TestFirstMoment:
    def test_vacuum(self):
        config = RandomStateConfig(n_full=3, m_sys=1, profile=ZProfile("vacuum"), master_seed=0)
        assert wg.expected_tr_gamma(ambient_spec(config), config) == 1.0

    def test_uniform_closed_form(self):
        config = uniform_config(8, 2, 1.2, 0)
        expected = 1.2 ** 2 + 1.2 ** -2
        assert wg.expected_tr_gamma(ambient_spec(config), config) == pytest.approx(
            expected, abs=1e-14
        )

    def test_equals_records_thermal_nu(self):
        # the analytic moment and the records' nu_th are one computation,
        # equal to the last bit
        rng = np.random.default_rng(17)
        for n in range(2, 40):
            config = uniform_config(n, 1, 1.0, 0, pipeline="direct")
            for _ in range(10):
                spec = SqueezingSpec(rng.uniform(1.0, 3.0, n))
                assert wg.expected_tr_gamma(spec, config) == 2.0 * spec.nu

    def test_power_profile_mc(self):
        # non-uniform profile, so the trace genuinely fluctuates
        config = RandomStateConfig(
            n_full=8, m_sys=1, profile=ZProfile("power", 0.5), master_seed=14
        )
        report = wg.mc_moments(config, 20000)[0]
        assert report["z_ratio"] <= 4.0


class TestSecondMoment:
    @pytest.mark.parametrize("n_full,m_sys", [(2, 1), (4, 2), (16, 5)])
    def test_vacuum_forced_value(self, n_full, m_sys):
        config = RandomStateConfig(
            n_full=n_full, m_sys=m_sys, profile=ZProfile("vacuum"), master_seed=0
        )
        assert wg.expected_tr_gamma_sq(ambient_spec(config), config) == pytest.approx(
            m_sys / 2.0, abs=1e-12
        )

    def test_uniform_mc(self):
        config = uniform_config(8, 1, 1.3, 21)
        report = wg.mc_moments(config, 20000)[1]
        assert report["z_ratio"] <= 4.0

    def test_direct_pipeline_mc(self):
        # the closed forms hold for the direct pipeline too, with the
        # ambient dimension equal to n_full
        config = uniform_config(6, 2, 1.4, 22, pipeline="direct")
        report = wg.mc_moments(config, 20000)[1]
        assert report["z_ratio"] <= 4.0


class TestOmegaSecondMoment:
    def test_vacuum_forces_retained_coefficient(self):
        # every vacuum draw yields Gamma = I/2 exactly, so the expectation
        # is -m/2; only the retained coefficient reproduces it at d = 4
        config = RandomStateConfig(n_full=2, m_sys=1, profile=ZProfile("vacuum"), master_seed=0)
        spec = ambient_spec(config)
        retained = wg.expected_tr_omega_gamma_sq(spec, config)
        alternate = rejected_omega_moment(spec, config)
        assert retained == pytest.approx(-0.5, abs=1e-12)
        assert alternate == pytest.approx(-13.0 / 30.0, abs=1e-12)

    def test_full_trace_identity(self):
        # keeping every mode makes Tr[(Omega Gamma)^2] = -d/2 for any z;
        # the retained coefficient matches exactly, the alternate does not
        config = RandomStateConfig(
            n_full=4, m_sys=4, profile=ZProfile("uniform", 1.7),
            master_seed=5, pipeline="direct",
        )
        spec = ambient_spec(config)
        d = config.ambient_modes
        for i in range(5):
            gamma = sm.sample_block(config, i, i + 1)[0][0]
            assert wg.measure_tr_omega_gamma_sq(gamma) == pytest.approx(-d / 2.0, abs=1e-10)
        retained = wg.expected_tr_omega_gamma_sq(spec, config)
        alternate = rejected_omega_moment(spec, config)
        assert retained == pytest.approx(-d / 2.0, abs=1e-12)
        assert abs(alternate + d / 2.0) > 1e-3

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("m_sys", [1, 2, 4])
    def test_row_slices_equal_the_matrix_product(self, shape, m_sys):
        # Omega's entries are 0 and +-1, so Omega @ Gamma is exact and row
        # slicing gives the same bits
        rng = np.random.default_rng(m_sys)
        gamma = np.array([sm.random_covariance(m_sys, rng) for _ in range(math.prod(shape))])
        gamma = gamma.reshape(*shape, 2 * m_sys, 2 * m_sys)
        og = ps.symplectic_form(m_sys) @ gamma
        expected = np.sum(og * np.swapaxes(og, -1, -2), axis=(-2, -1))
        assert np.array_equal(wg.measure_tr_omega_gamma_sq(gamma), expected)

    def test_brute_force_probe_decides(self):
        scores = omega_probe_scores(60000)
        assert min(scores, key=scores.get) == "retained"
        assert scores["retained"] <= 4.0
        assert scores["rejected"] >= 10.0

    def test_always_negative(self):
        for z0 in (1.0, 1.5, 3.0):
            config = uniform_config(8, 2, z0, 0)
            assert wg.expected_tr_omega_gamma_sq(ambient_spec(config), config) < 0.0


class TestAsymptoticLimits:
    @pytest.mark.parametrize(
        "quantity,limit_sign", [("tr_gamma_sq", 1.0), ("tr_omega_gamma_sq", -1.0)]
    )
    def test_approach_thermal_square(self, quantity, limit_sign):
        # |analytic - limit| decays like 1/n at a fixed uniform profile
        z0, m_sys = 1.5, 1
        fn = wg._ANALYTIC[quantity]
        scaled_gaps = []
        for n_full in (16, 32, 64, 128, 256):
            config = uniform_config(n_full, m_sys, z0, 0)
            spec = ambient_spec(config)
            nu = float(np.sum(spec.z ** 2 + spec.z ** -2.0)) / (4 * spec.n_modes)
            limit = limit_sign * 2.0 * m_sys * nu * nu
            scaled_gaps.append(n_full * abs(fn(spec, config) - limit))
        assert max(scaled_gaps) <= 2.0 * min(scaled_gaps)
        assert scaled_gaps[-1] / 256 <= 1e-2


class TestMcMoment:
    @pytest.mark.parametrize("n_samples, threads, name", [
        (3.5, 1, "n_samples"), (True, 1, "n_samples"), (1, 1, "n_samples"),
        (4, 2.5, "threads"), (4, np.True_, "threads"), (4, 0, "threads"),
    ])
    def test_counts_refused(self, n_samples, threads, name):
        with pytest.raises(InvalidConfig, match=f"^{name} must be"):
            wg.mc_moments(uniform_config(4, 1, 1.5, 1), n_samples, threads)

    def test_largest_count_numpy_can_shape_kept(self, monkeypatch):
        # one row of QUANTITIES floats per sample; the count is read before
        # any sample is drawn
        most = sm.MAX_ENTRIES // len(wg.QUANTITIES)

        def no_draws(*args):
            raise AssertionError("reached the fan-out")

        monkeypatch.setattr(wg.parallel, "run_chunked", no_draws)
        config = uniform_config(4, 1, 1.5, 1)
        with pytest.raises(InvalidConfig, match=f"^n_samples must be <= {most}, got {most + 1}$"):
            wg.mc_moments(config, most + 1)
        with pytest.raises(AssertionError, match="reached the fan-out"):
            wg.mc_moments(config, most)

    @pytest.mark.parametrize("quantity", ["tr_gamma_sq", "tr_omega_gamma_sq"])
    def test_ambient_dimension_below_two_refused(self, quantity):
        config = uniform_config(1, 1, 1.5, 1, pipeline="direct")
        with pytest.raises(BadDimension, match="^second moments need ambient dimension >= 2$"):
            wg._ANALYTIC[quantity](SqueezingSpec(np.full(1, 1.5)), config)

    def test_z_ratio_of_exact_samples_off_the_analytic_value_is_inf(self):
        # samples that agree exactly (std_error 0) on a value past the noise floor
        assert wg._z_ratio(1.0, 1.0 + 1e-6, 0.0) == math.inf
        assert wg._z_ratio(1.0, 1.0 + 1e-13, 0.0) == 0.0

    def test_numpy_counts_stored_as_plain_ints(self):
        config = uniform_config(4, 1, 1.5, 1)
        reports = wg.mc_moments(config, np.int64(50), np.int32(1))
        assert reports == wg.mc_moments(config, 50)
        assert all(type(r["n_samples"]) is int for r in reports)

    def test_vacuum_exact(self):
        config = RandomStateConfig(n_full=4, m_sys=2, profile=ZProfile("vacuum"), master_seed=7)
        tr, tr_sq, _ = wg.mc_moments(config, 200)
        assert tr["estimate"] == pytest.approx(2.0, abs=1e-12)
        assert tr["std_error"] <= 1e-13
        assert tr["z_ratio"] == 0.0
        assert tr_sq["estimate"] == pytest.approx(1.0, abs=1e-12)
        assert tr_sq["z_ratio"] == 0.0

    def test_report_fields(self):
        config = uniform_config(4, 1, 1.2, 3)
        report = wg.mc_moments(config, 500)[1]
        assert report["n_samples"] == 500
        assert report["std_error"] > 0.0
        assert list(report) == [
            "quantity", "analytic", "estimate", "std_error", "n_samples", "z_ratio",
        ]

    def test_deterministic_across_threads(self):
        config = uniform_config(4, 1, 1.3, 11)
        a = wg.mc_moments(config, 400, threads=1)[2]
        b = wg.mc_moments(config, 400, threads=2)[2]
        assert a == b

    def test_variance_squares_as_python_pow(self, monkeypatch):
        # (v - mean) ** 2 is libm's pow, which rounds some squares unlike
        # x * x: for these three values the x * x variance ends one ulp off
        # under glibc
        values = [0.5844585494097838, 1.2401439595373347, 0.534803777580241]
        mean = math.fsum(values) / 3
        expected = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / 2 / 3)
        rows = np.array([[v] * len(wg.QUANTITIES) for v in values])
        monkeypatch.setattr(wg.parallel, "run_chunked", lambda *args: [rows])
        reports = wg.mc_moments(uniform_config(4, 1, 1.2, 0), 3)
        assert [r["std_error"] for r in reports] == [expected] * len(wg.QUANTITIES)
        assert [r["estimate"] for r in reports] == [mean] * len(wg.QUANTITIES)

    def test_rejects_bad_input(self):
        config = uniform_config(4, 1, 1.2, 0)
        with pytest.raises(InvalidConfig):
            wg.mc_moments(config, 1)
        flat = RandomStateConfig(
            n_full=4, m_sys=1, profile=ZProfile("flat", 10.0), master_seed=0
        )
        with pytest.raises(InvalidConfig):
            wg.mc_moments(flat, 100)
