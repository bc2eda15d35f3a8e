import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gausswork import harness
from gausswork import phasespace as ps
from gausswork import sampling as sm
from gausswork import stats as st
from gausswork import validate
from gausswork.errors import (
    BadModeCount,
    DimensionMismatch,
    EmptyInput,
    GaussworkError,
    InvalidConfig,
    NumericalFailure,
)
from gausswork.sampling import RandomStateConfig, SqueezingSpec, ZProfile

from test_phasespace import symplectic_eigenvalues_direct


class TestThermalNu:
    # SqueezingSpec.nu, sum(gram) / 4n
    def test_vacuum(self):
        assert SqueezingSpec(np.ones(4)).nu == 0.5
        assert SqueezingSpec(np.ones(7)).nu == 0.5

    def test_single_mode(self):
        assert SqueezingSpec(np.array([2.0])).nu == pytest.approx(
            (4.0 + 0.25) / 4.0, abs=1e-15
        )

    def test_uniform_independent_of_n(self):
        z0 = 1.3
        expected = (z0 * z0 + z0 ** -2.0) / 4.0
        for n in (1, 5, 64):
            spec = SqueezingSpec(np.full(n, z0))
            assert spec.nu == pytest.approx(expected, abs=1e-14)

    def test_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            spec = SqueezingSpec(rng.uniform(1.0, 3.0, 5))
            assert spec.nu >= 0.5
            assert spec.nu == float(np.sum(spec.gram) / (2.0 * spec.gram.size))
            assert type(spec.nu) is float


def eigen_dispersion(gammas, nu):
    """sum_k (lambda_k - nu_th)^2 from eigvalsh, the reference for stat_T."""
    return np.sum((np.linalg.eigvalsh(gammas) - np.asarray(nu)[..., None]) ** 2, axis=-1)


class TestDispersions:
    # stat_T (column 3) and stat_frakT (column 4) of spectral_statistics
    def test_eigen_dispersion_at_thermal_point(self):
        assert st.spectral_statistics(0.75 * np.eye(4), 0.75)[3] == 0.0

    def test_eigen_dispersion_arithmetic(self):
        for gamma in (np.diag([1.0, 0.5]), np.diag([1.0, 0.5, 0.75, 0.75])):
            assert st.spectral_statistics(gamma, 0.75)[3] == pytest.approx(0.125, abs=1e-15)

    def test_eigen_dispersion_vacuum_pipeline(self):
        config = RandomStateConfig(n_full=6, m_sys=2, profile=ZProfile("vacuum"), master_seed=1)
        for i in range(20):
            gamma = sm.sample_block(config, i, i + 1)[0][0]
            assert st.spectral_statistics(gamma, 0.5)[3] <= 1e-12

    def test_symplectic_dispersion_thermal(self):
        assert st.spectral_statistics(0.8 * np.eye(4), 0.8)[4] <= 1e-14

    def test_symplectic_dispersion_arithmetic(self):
        gamma = np.diag([2.0, 0.5])  # nu = 1
        assert st.spectral_statistics(gamma, 0.5)[4] == pytest.approx(
            2.0 * (1.0 - 0.25) ** 2, abs=1e-12
        )

    def test_symplectic_dispersion_pure_full_state(self):
        config = RandomStateConfig(
            n_full=4, m_sys=4, profile=ZProfile("uniform", 1.5),
            master_seed=9, pipeline="direct",
        )
        gamma = sm.sample_block(config, 0, 1)[0][0]
        assert st.spectral_statistics(gamma, 0.5)[4] <= 1e-12

    @pytest.mark.parametrize("column", [3, 4], ids=["eigen_dispersion", "symplectic_dispersion"])
    def test_stacks_equal_per_matrix_calls(self, column):
        # a nested stack against one matrix at a time, bit for bit, in
        # closed form (m = 1) and from the spectra (m = 2); stat_T against
        # the eigenvalues of eigvalsh, stat_frakT against the symplectic
        # spectrum from eig(Omega Gamma)
        rng = np.random.default_rng(41)
        nus = np.array([[0.5, 0.7, 1.1], [0.9, 0.6, 2.0]])
        for m in (1, 2):
            gammas = np.array([[sm.random_covariance(m, rng) for _ in range(3)] for _ in range(2)])
            shared = st.spectral_statistics(gammas, 0.8)[column]
            own = st.spectral_statistics(gammas, nus)[column]
            assert shared.shape == own.shape == (2, 3)
            for i in range(2):
                for j in range(3):
                    assert shared[i, j] == st.spectral_statistics(gammas[i, j], 0.8)[column]
                    assert own[i, j] == st.spectral_statistics(gammas[i, j], nus[i, j])[column]
            if column == 3:
                reference = eigen_dispersion(gammas, nus)
            else:
                direct = np.array([[symplectic_eigenvalues_direct(g) for g in row] for row in gammas])
                reference = 2.0 * np.sum((direct ** 2 - nus[..., None] ** 2) ** 2, axis=-1)
            assert np.allclose(own, reference, rtol=1e-9, atol=1e-14)


class TestEvaluateRecord:
    def _record(self, config, index=0):
        return st.evaluate_block(*sm.sample_block(config, index, index + 1), config, index)[0]

    def test_vacuum(self):
        config = RandomStateConfig(n_full=5, m_sys=1, profile=ZProfile("vacuum"), master_seed=2)
        record = self._record(config)
        assert record.work == 0.0
        assert record.stat_delta <= 1e-12
        assert record.nu_th == 0.5
        assert record.beta == 0.0
        (row,) = st.record_rows(np.array([record]), config)
        assert dict(zip(st.CSV_COLUMNS, row))["z_profile"] == "vacuum"

    def test_bound_chain_holds(self):
        config = RandomStateConfig(
            n_full=12, m_sys=3, profile=ZProfile("uniform", 1.6), master_seed=4
        )
        for i in range(100):
            record = self._record(config, i)
            assert record.work <= math.sqrt(config.m_sys * record.stat_delta) + 1e-9
            assert record.stat_delta == record.stat_T + record.stat_frakT
            assert record.work >= 0.0
            assert record.stat_T >= 0.0 and record.stat_frakT >= 0.0

    def test_pure_full_state_work(self):
        # with no trace-out all nu = 1/2, so the work is the energy above n/2
        config = RandomStateConfig(
            n_full=3, m_sys=3, profile=ZProfile("uniform", 1.4),
            master_seed=6, pipeline="direct",
        )
        record = self._record(config)
        assert record.work == pytest.approx(record.energy - 1.5, abs=1e-10)

    def test_csv_row_matches_header(self):
        config = RandomStateConfig(n_full=4, m_sys=1, profile=ZProfile("vacuum"), master_seed=0)
        records = harness.compute_records(config, 1)
        row = harness.records_csv(records, config).splitlines()[1]
        assert len(row.split(",")) == len(st.CSV_COLUMNS)
        # the record fields in order, with the config's profile and seed after beta
        (values,) = st.record_rows(records, config)
        assert row == ",".join(map(str, values))
        assert values == records.tolist()[0][:4] + ("vacuum", 0) + records.tolist()[0][4:]
        assert st.CSV_HEADER == (
            "sample_index,n_modes_full,n_modes_sys,beta,z_profile,master_seed,"
            "energy,sum_sympl,work,stat_T,stat_frakT,stat_delta,nu_th"
        )

    def test_records_hold_numbers_only(self):
        # the profile and seed, constant per config, are not record fields,
        # so a chunk of records pickles as one numeric buffer
        assert not st.RECORD_DTYPE.hasobject
        assert set(st.CSV_COLUMNS) - set(st.RECORD_DTYPE.names) == {"z_profile", "master_seed"}

    def test_work_bound_violation_names_first_sample(self, monkeypatch):
        # a bound of 0.25 is first exceeded at sample 24 (work 0.278), again at 33
        monkeypatch.setattr(st, "work_bound", lambda m, delta: delta * 0.0 + 0.25)
        config = RandomStateConfig(
            n_full=8, m_sys=2, profile=ZProfile("uniform", 1.8), master_seed=31
        )
        with pytest.raises(NumericalFailure) as info:
            harness.compute_records(config, 40)
        assert str(info.value) == (
            "work bound violated at sample 24: work=0.27809077470365984 > sqrt(m*delta)=0.25"
        )

    def test_non_finite_statistics_name_first_sample(self):
        config = RandomStateConfig(
            n_full=3, m_sys=1, profile=ZProfile("uniform", 1.5), master_seed=2
        )
        gammas, nu = sm.sample_block(config, 10, 14)
        gammas[2] *= 1e160  # the squared spectra overflow: delta is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match=r"^non-finite statistics at sample 12: work="):
                st.evaluate_block(gammas, nu, config, 10)
        gammas[1] *= 1e200
        with pytest.raises(NumericalFailure, match=r"^non-finite statistics at sample 11: "):
            st.evaluate_block(gammas, nu, config, 10)


class TestOneModeClosedForm:
    @pytest.mark.parametrize("n_full", [16, 256, 1024])
    @pytest.mark.parametrize("z0", [1.001, 2.0, 100.0])
    def test_work_and_nu_against_mpmath(self, z0, n_full):
        # on the stored Gamma, 50 digits: nu = sqrt(det Gamma) and
        # W = Tr Gamma / 2 - nu; at z0 = 1.001 W is about 1e-6 of the
        # energy, where the spectral route lost up to 1e-5 of W itself
        mpmath = pytest.importorskip("mpmath")
        config = RandomStateConfig(n_full=n_full, m_sys=1, profile=ZProfile("uniform", z0),
                                   master_seed=7)
        gammas, nu = sm.sample_block(config, 0, 100)
        records = st.evaluate_block(gammas, nu, config, 0)
        with mpmath.workdps(50):
            for gamma, record in zip(gammas, records):
                g11, g22, g21 = (mpmath.mpf(float(v)) for v in (gamma[0, 0], gamma[1, 1], gamma[1, 0]))
                nu = mpmath.sqrt(g11 * g22 - g21 * g21)
                work = (g11 + g22) / 2 - nu
                assert abs(record.sum_sympl - nu) <= 1e-14 * nu
                assert abs(record.work - work) <= 1e-14 * work

    def test_vacuum_is_exact(self):
        config = RandomStateConfig(n_full=5, m_sys=1, profile=ZProfile("vacuum"), master_seed=2)
        gammas, nu = sm.sample_block(config, 0, 50)
        assert np.array_equal(gammas, np.broadcast_to(np.eye(2) / 2, gammas.shape))
        records = st.evaluate_block(gammas, nu, config, 0)
        assert np.all(records.work == 0.0) and np.all(records.stat_delta == 0.0)

    def test_matches_spectral_route(self):
        # the closed form and the eigen- and symplectic spectra agree on
        # every statistic
        config = RandomStateConfig(n_full=6, m_sys=1, profile=ZProfile("power", 0.5),
                                   master_seed=3)
        gammas, nu = sm.sample_block(config, 0, 200)
        nus = ps.symplectic_eigenvalues(gammas)[:, 0]
        energy = 0.5 * np.trace(gammas, axis1=-2, axis2=-1)
        spectral = (energy, nus, energy - nus, eigen_dispersion(gammas, nu),
                    2.0 * (nus ** 2 - nu ** 2) ** 2)
        for got, want in zip(st.spectral_statistics(gammas, nu), spectral):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_lost_positive_definiteness_names_first_sample(self):
        config = RandomStateConfig(n_full=3, m_sys=1, profile=ZProfile("uniform", 1.5),
                                   master_seed=2)
        gammas, nu = sm.sample_block(config, 10, 14)
        gammas[2] = [[1.0, 1.0], [1.0, 1.0]]  # eigenvalues 0 and 2
        gammas[3] = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues -1 and 3
        with pytest.raises(NumericalFailure, match=r"^sample 12: positive-definite: smallest "
                                                   r"eigenvalue 0\.000e\+00 <= 0$"):
            st.evaluate_block(gammas, nu, config, 10)


def spectral_work(gamma):
    """E - sum(nu) of one matrix from its symplectic spectrum, as the
    package computed the work of one covariance before it read the
    statistics' work column."""
    return 0.5 * float(np.trace(gamma)) - float(np.sum(ps.symplectic_eigenvalues(gamma)))


class TestExtractableWork:
    @pytest.mark.parametrize("z0", [1.001, 1.01, 1.5])
    def test_one_mode_against_mpmath(self, z0):
        # on the same Gamma, 50 digits: E - nu with nu = sqrt(det Gamma);
        # on these draws E - nu from the spectrum was off by up to 7.7e-7
        mpmath = pytest.importorskip("mpmath")
        config = RandomStateConfig(n_full=16, m_sys=1, profile=ZProfile("uniform", z0),
                                   master_seed=5)
        gammas, _ = sm.sample_block(config, 0, 50)
        with mpmath.workdps(50):
            for gamma in gammas:
                g11, g22, g21 = (mpmath.mpf(float(v)) for v in (gamma[0, 0], gamma[1, 1], gamma[1, 0]))
                work = (g11 + g22) / 2 - mpmath.sqrt(g11 * g22 - g21 * g21)
                got = st.extractable_work(gamma)
                assert type(got) is float
                assert abs(got - work) <= 1e-15 * work

    @pytest.mark.parametrize("m_sys", [1, 2])
    def test_stack_is_the_statistics_work_column(self, m_sys):
        config = RandomStateConfig(n_full=8, m_sys=m_sys, profile=ZProfile("uniform", 1.4),
                                   master_seed=6)
        gammas, nu = sm.sample_block(config, 0, 40)
        column = st.spectral_statistics(gammas, nu)[2]
        assert np.array_equal(st.extractable_work(gammas), column)
        assert [st.extractable_work(gamma) for gamma in gammas] == column.tolist()

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_spectral_bits_at_two_modes_and_more(self, m):
        rng = np.random.default_rng(53 + m)
        for _ in range(25):
            gamma = sm.random_covariance(m, rng)
            assert st.extractable_work(gamma) == spectral_work(gamma)

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4), ()])
    def test_bad_shape(self, shape):
        with pytest.raises(BadModeCount):
            st.extractable_work(np.ones(shape))

    @pytest.mark.parametrize("shape, expected", [((0, 2, 2), (0,)), ((0, 4, 4), (0,)),
                                                 ((3, 0, 6, 6), (3, 0))])
    def test_empty_stack(self, shape, expected):
        work = st.extractable_work(np.empty(shape))
        assert isinstance(work, np.ndarray) and work.shape == expected

    @pytest.mark.parametrize("shape", [(0, 3, 3), (0, 4, 2), (0,), (2, 0, 0, 0)])
    def test_empty_stack_of_a_bad_shape(self, shape):
        with pytest.raises(BadModeCount):
            st.extractable_work(np.empty(shape))


def per_witness_pair(u, v, spec, m_sys, column, constant, power):
    """One inequality's (lhs, rhs) from its own build of the pair's states,
    as each witness was computed before the two shared one build: column 3
    of the statistics is stat_T, column 4 stat_frakT."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    gammas = sm.state_from_unitary(np.stack([u, v]), spec, m_sys)
    at_u, at_v = st.spectral_statistics(gammas, spec.nu)[column]
    lhs = abs(at_u - at_v)
    diff = (u - v).reshape(*u.shape[:-2], -1)
    norm = np.sqrt(np.vecdot(diff.real, diff.real) + np.vecdot(diff.imag, diff.imag))
    j_max = float(np.max(spec.z)) ** 2
    rhs = constant * math.sqrt(2.0 * m_sys) * j_max ** power * norm
    return lhs, rhs


def eigen_dispersion_lipschitz_pair(u, v, spec, m_sys):
    """The eigen-dispersion (lhs, rhs) of :func:`stats.lipschitz_witnesses`."""
    return st.lipschitz_witnesses(u, v, spec, m_sys)[:2]


def symplectic_dispersion_lipschitz_pair(u, v, spec, m_sys):
    """The symplectic-dispersion (lhs, rhs) of :func:`stats.lipschitz_witnesses`."""
    return st.lipschitz_witnesses(u, v, spec, m_sys)[2:]


class TestLipschitzPairs:
    def setup_method(self):
        self.config = RandomStateConfig(
            n_full=4, m_sys=1, profile=ZProfile("uniform", 1.5), master_seed=0
        )
        self.spec = sm.draw_squeezing(self.config.profile, self.config.ambient_modes)
        self.d = self.config.ambient_modes

    def test_equal_unitaries(self):
        rng = np.random.default_rng(5)
        u = sm.haar_unitary(self.d, rng)
        lhs, rhs = eigen_dispersion_lipschitz_pair(u, u, self.spec, 1)
        assert lhs == 0.0 and rhs == 0.0
        lhs, rhs = symplectic_dispersion_lipschitz_pair(u, u, self.spec, 1)
        assert lhs == 0.0 and rhs == 0.0

    def test_vacuum_profile_has_zero_lhs(self):
        rng = np.random.default_rng(7)
        vac = sm.draw_squeezing(ZProfile("vacuum"), self.d)
        for _ in range(5):
            u, v = sm.haar_unitary(self.d, rng), sm.haar_unitary(self.d, rng)
            lhs, _ = eigen_dispersion_lipschitz_pair(u, v, vac, 1)
            assert lhs <= 1e-12
            lhs, _ = symplectic_dispersion_lipschitz_pair(u, v, vac, 1)
            assert lhs <= 1e-12

    def test_random_pairs_hold(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u, v = sm.haar_unitary(self.d, rng), sm.haar_unitary(self.d, rng)
            lhs, rhs = eigen_dispersion_lipschitz_pair(u, v, self.spec, 1)
            assert lhs <= rhs
            lhs, rhs = symplectic_dispersion_lipschitz_pair(u, v, self.spec, 1)
            assert lhs <= rhs

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(13)
        u = sm.haar_unitary(4, rng)
        v = sm.haar_unitary(8, rng)
        with pytest.raises(DimensionMismatch):
            eigen_dispersion_lipschitz_pair(u, v, self.spec, 1)
        with pytest.raises(DimensionMismatch):
            eigen_dispersion_lipschitz_pair(u, u, self.spec, 1)

    @pytest.mark.parametrize("m_sys", [True, np.True_, 1.0, "1"])
    def test_m_refuses_bools_and_non_integers(self, m_sys):
        # True once ran as m = 1
        u, v = self._stacks(3, 2)
        with pytest.raises(InvalidConfig, match="^m_sys must be an integer"):
            st.lipschitz_witnesses(u, v, self.spec, m_sys)

    def _stacks(self, seed, k):
        rng = np.random.default_rng(seed)
        u = np.array([sm.haar_unitary(self.d, rng) for _ in range(k)])
        v = np.array([sm.haar_unitary(self.d, rng) for _ in range(k)])
        return u, v

    @pytest.mark.parametrize("witness", [eigen_dispersion_lipschitz_pair,
                                         symplectic_dispersion_lipschitz_pair])
    def test_stacks_equal_per_pair_calls(self, witness):
        u, v = self._stacks(17, 6)
        v[2] = u[2]
        lhs, rhs = witness(u, v, self.spec, 1)
        assert lhs.shape == rhs.shape == (6,)
        assert lhs[2] == rhs[2] == 0.0
        for k in range(6):
            assert (lhs[k], rhs[k]) == witness(u[k], v[k], self.spec, 1)
        nested_lhs, nested_rhs = witness(u.reshape(2, 3, self.d, self.d),
                                         v.reshape(2, 3, self.d, self.d), self.spec, 1)
        assert np.array_equal(nested_lhs.ravel(), lhs)
        assert np.array_equal(nested_rhs.ravel(), rhs)

    @pytest.mark.parametrize("witness", [eigen_dispersion_lipschitz_pair,
                                         symplectic_dispersion_lipschitz_pair])
    def test_stack_shapes_must_match(self, witness):
        u, v = self._stacks(19, 3)
        assert witness(u, v, self.spec, 1)[0].shape == (3,)
        for other in (v[:2], v[0], v[:, None]):
            with pytest.raises(DimensionMismatch):
                witness(u, other, self.spec, 1)

    def test_validate_checks_pairs_in_bounded_blocks(self, monkeypatch):
        # validate owns its block size: the sampler's budget does not move it
        monkeypatch.setattr(sm, "BLOCK_ENTRIES", 256)
        blocks = []

        def recording(u, v, spec, m_sys):
            blocks.append((u.copy(), v.copy()))
            return witnesses(u, v, spec, m_sys)

        witnesses = st.lipschitz_witnesses
        monkeypatch.setattr(st, "lipschitz_witnesses", recording)
        validate.check_lipschitz(1000, np.random.default_rng(23))
        d, step = blocks[0][0].shape[-1], validate._LIPSCHITZ_BLOCK
        # the pairs are those drawn one by one, u before v, from the same stream
        rng = np.random.default_rng(23)
        pairs = [(sm.haar_unitary(d, rng), sm.haar_unitary(d, rng)) for _ in range(1000)]
        assert len(blocks) == math.ceil(1000 / step)
        assert all(len(u) <= step for u, _ in blocks)
        u = np.concatenate([u for u, _ in blocks])
        v = np.concatenate([v for _, v in blocks])
        assert np.array_equal(u, [p[0] for p in pairs])
        assert np.array_equal(v, [p[1] for p in pairs])

    @pytest.mark.parametrize("m_sys", [1, 2, 3])
    @pytest.mark.parametrize("stacked", [False, True], ids=["pair", "stack"])
    def test_one_build_equals_per_witness_formula(self, m_sys, stacked, monkeypatch):
        # one state build for both inequalities, bit for bit the values of
        # one build per inequality
        u, v = self._stacks(29 + m_sys, 6)
        if not stacked:
            u, v = u[0], v[0]
        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)
            return counted

        for name in ("state_from_unitary", "spectral_statistics"):
            monkeypatch.setattr(st, name, counting(name, getattr(st, name)))
        got = st.lipschitz_witnesses(u, v, self.spec, m_sys)
        assert calls == ["state_from_unitary", "spectral_statistics"]
        monkeypatch.undo()
        expected = (*per_witness_pair(u, v, self.spec, m_sys, 3, 4.0, 1),
                    *per_witness_pair(u, v, self.spec, m_sys, 4, 10.0, 2))
        assert len(got) == 4
        for value, reference in zip(got, expected):
            assert np.shape(value) == np.shape(reference)
            assert np.array_equal(value, reference)
class TestTailProbability:
    def test_nan_epsilon_rejected(self):
        with pytest.raises(ValueError):
            st.tail_probability([0.1, 0.2], math.nan)
        for epsilon in (math.nan, -0.1):
            with pytest.raises(GaussworkError, match=rf"^epsilon must be >= 0, got {epsilon}$"):
                st.tail_probability([0.1, 0.2], epsilon)

    @pytest.mark.parametrize("epsilon", [True, np.True_, "0.1", None, 0.1j])
    def test_bool_or_non_real_epsilon_refused(self, epsilon):
        with pytest.raises(InvalidConfig, match=r"^epsilon must be a real number, got "):
            st.tail_probability([0.5, 2.0], epsilon)

    @pytest.mark.parametrize("epsilon", [10 ** 400, -(10 ** 400), Fraction(10 ** 400)],
                             ids=["int", "negative-int", "fraction"])
    def test_epsilon_past_the_float_range_refused(self, epsilon):
        with pytest.raises(InvalidConfig, match=r"^epsilon is beyond the float range, got "):
            st.tail_probability([0.5], epsilon)

    @pytest.mark.parametrize("epsilon", [1, np.int64(1), np.float32(0.25), 0.5])
    def test_epsilon_stored_as_float(self, epsilon):
        est = st.tail_probability([0.5, 2.0], epsilon)
        assert type(est["epsilon"]) is float and est["epsilon"] == float(epsilon)
        assert list(est) == ["epsilon", "fraction", "wilson_low", "wilson_high"]

    def test_all_zero_work(self):
        est = st.tail_probability([0.0] * 50, 0.01)
        assert est["fraction"] == 0.0
        assert est["wilson_low"] == 0.0

    def test_epsilon_zero_counts_strictly_positive(self):
        est = st.tail_probability([0.0, 0.1, 0.2, 0.0], 0.0)
        assert est["fraction"] == 0.5

    def test_accepts_records(self):
        config = RandomStateConfig(n_full=4, m_sys=1, profile=ZProfile("vacuum"), master_seed=0)
        records = harness.compute_records(config, 3)
        assert st.tail_probability(records.work, 0.01)["fraction"] == 0.0

    def test_wilson_interval_bounds(self):
        for k, n in ((0, 10), (5, 10), (10, 10), (1, 1000)):
            low, high = st.wilson_interval(k, n)
            assert 0.0 <= low <= k / n <= high <= 1.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            st.tail_probability([], 0.1)
        with pytest.raises(EmptyInput):
            st.wilson_interval(0, 0)


class TestLocalThermality:
    def test_mean_dispersions_decrease_with_system_size(self):
        # both dispersion means shrink as the environment grows
        mean_t, mean_frak = [], []
        for n_full in (8, 16, 32, 64):
            config = RandomStateConfig(
                n_full=n_full, m_sys=1, profile=ZProfile("uniform", 1.5),
                master_seed=123,
            )
            records = st.evaluate_block(*sm.sample_block(config, 0, 1500), config, 0)
            mean_t.append(np.mean(records.stat_T))
            mean_frak.append(np.mean(records.stat_frakT))
        assert all(b < a for a, b in zip(mean_t, mean_t[1:]))
        assert all(b < a for a, b in zip(mean_frak, mean_frak[1:]))


class TestAnalyticDispersionMean:
    def test_uniform_profile_eigen_dispersion_mean(self):
        # under a uniform profile the Haar mean of the eigen dispersion has
        # the exact closed form m(m+1) a^2 / (2(d+1)) with a = (z^2 - z^-2)/2
        z0, n_full, m_sys = 1.4, 8, 2
        config = RandomStateConfig(
            n_full=n_full, m_sys=m_sys, profile=ZProfile("uniform", z0), master_seed=99
        )
        d = config.ambient_modes
        a = (z0 * z0 - z0 ** -2.0) / 2.0
        exact = m_sys * (m_sys + 1) * a * a / (2.0 * (d + 1.0))
        n_draws = 3000
        gammas, nu = sm.sample_block(config, 0, n_draws)
        values = st.spectral_statistics(gammas, nu)[3]
        assert np.allclose(values, eigen_dispersion(gammas, nu), rtol=1e-10, atol=1e-14)
        mean = np.mean(values)
        se = np.std(values, ddof=1) / math.sqrt(n_draws)
        assert abs(mean - exact) <= 4.0 * se
