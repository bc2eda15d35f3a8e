"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines inline).  Statistical checks use frozen seeds and the
stated tolerances; nothing is calibrated at run time.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gausswork import harness
from gausswork import phasespace as ps
from gausswork import sampling as sm
from gausswork import stats as st
from gausswork import weingarten as wg
from gausswork.sampling import RandomStateConfig, ZProfile

import minwork
from test_phasespace import partial_trace
from test_weingarten import omega_probe_scores

SWEEP_SEED = 20240810
SWEEP_GRID = (16, 32, 64, 128, 256)
SWEEP_SAMPLES = 5000
# uniform z is the degree-0 (bounded) profile family; z0 = 2 makes the
# n = 16 tail at epsilon = 0.1 populated enough to watch it collapse
SWEEP_PROFILE = ZProfile("uniform", 2.0)

MOMENT_GRID = ((8, 1, 1.2), (16, 2, 1.3), (32, 1, 1.5))
MOMENT_SAMPLES = 10_000


def report(num, text):
    print(f"criterion {num:02d} PASS - {text}")


@pytest.fixture(scope="module")
def sweep_result():
    records, summary = harness.run_sweep(
        n_grid=list(SWEEP_GRID),
        m_sys=1,
        profile=SWEEP_PROFILE,
        samples=SWEEP_SAMPLES,
        master_seed=SWEEP_SEED,
        epsilons=[0.01, 0.05, 0.1, 0.2],
        threads=2,
    )
    return records, summary


def moment_config(n_full, m_sys, z0):
    return RandomStateConfig(
        n_full=n_full, m_sys=m_sys, profile=ZProfile("uniform", z0),
        master_seed=SWEEP_SEED + n_full + m_sys,
    )


def test_criterion_01_thermal_nullity():
    for nu in (0.5, 1.0, 3.7):
        for m in (1, 2, 5):
            assert abs(ps.extractable_work(nu * np.eye(2 * m))) <= 1e-10
    report(1, "extractable work of thermal states is zero within 1e-10")


def test_criterion_02_squeezed_vacuum_work():
    for z in (1.0, 1.5, 2.0, 5.0):
        gamma = np.diag([z * z, z ** -2.0]) / 2.0
        # independent oracle: single-mode nu = sqrt(det Gamma)
        oracle = 0.5 * np.trace(gamma) - math.sqrt(np.linalg.det(gamma))
        closed = (z - 1.0 / z) ** 2 / 4.0
        work = ps.extractable_work(gamma)
        assert abs(work - closed) <= 1e-9
        assert abs(work - oracle) <= 1e-9
    report(2, "squeezed-vacuum work matches (z - 1/z)^2/4 within 1e-9")


def test_criterion_03_minimization_oracle():
    rng = np.random.default_rng(SWEEP_SEED)
    cases = [1, 1, 2, 2, 2]
    for m in cases:
        gamma = sm.random_covariance(m, rng, nu_max=1.8, max_squeeze=1.6)
        direct = minwork.min_mean_energy(gamma, restarts=10, seed=1)
        closed = float(np.sum(ps.symplectic_eigenvalues(gamma)))
        assert abs(direct - closed) <= 1e-4
    report(3, "direct energy minimization matches the symplectic spectrum sum to 1e-4")


def test_criterion_04_purification_contract():
    rng = np.random.default_rng(SWEEP_SEED + 1)
    for k in range(100):
        m = 1 + k % 4
        gamma = sm.random_covariance(m, rng)
        pure = ps.purify(gamma)
        assert np.max(np.abs(partial_trace(pure, m) - gamma)) <= 1e-10
        assert np.max(np.abs(ps.symplectic_eigenvalues(pure) - 0.5)) <= 1e-8
        assert np.trace(pure) <= 2.0 * np.trace(gamma) + 1e-9
    report(4, "purification round trip, purity and energy bound hold on 100 states")


def test_criterion_05_haar_embedding_contract():
    rng = np.random.default_rng(SWEEP_SEED + 2)
    for n in (4, 16):
        omega = ps.symplectic_form(n)
        eye = np.eye(2 * n)
        for _ in range(100):
            o = sm.unitary_to_symplectic(sm.haar_unitary(n, rng))
            assert np.max(np.abs(o.T @ o - eye)) <= 1e-10
            assert np.max(np.abs(o @ omega @ o.T - omega)) <= 1e-10

    d, n_draws = 4, 100_000
    draws = np.empty((n_draws, d, d), dtype=complex)
    for k in range(n_draws):
        draws[k] = sm.haar_unitary(d, rng)
    root = math.sqrt(n_draws)
    mean = draws.mean(axis=0)
    assert np.all(np.abs(mean.real) <= 4.0 * draws.real.std(axis=0, ddof=1) / root)
    assert np.all(np.abs(mean.imag) <= 4.0 * draws.imag.std(axis=0, ddof=1) / root)
    sq = np.abs(draws) ** 2
    assert np.all(
        np.abs(sq.mean(axis=0) - 1.0 / d) <= 4.0 * sq.std(axis=0, ddof=1) / root
    )
    report(5, "embedded interferometers pass 1e-10 checks; Haar entry moments within 4 SE")


def test_criterion_06_first_moment_oracle():
    for n_full, m_sys, z0 in MOMENT_GRID:
        config = moment_config(n_full, m_sys, z0)
        rep = wg.mc_moments(config, MOMENT_SAMPLES, threads=2)[0]
        # under uniform profiles the trace is deterministic draw by draw,
        # so the 4 SE contract is checked above the float noise floor
        assert rep.z_ratio <= 4.0, rep
    report(6, "Monte Carlo Tr[Gamma] matches 2 m nu_th within 4 SE on the grid")


def test_criterion_07_second_moment_oracle():
    for n_full, m_sys, z0 in MOMENT_GRID:
        config = moment_config(n_full, m_sys, z0)
        rep = wg.mc_moments(config, MOMENT_SAMPLES, threads=2)[1]
        assert rep.z_ratio <= 4.0, rep
    for n_full, m_sys in ((2, 1), (8, 3)):
        config = RandomStateConfig(
            n_full=n_full, m_sys=m_sys, profile=ZProfile("vacuum"), master_seed=1
        )
        spec = sm.draw_squeezing(config.profile, config.ambient_modes)
        assert abs(wg.expected_tr_gamma_sq(spec, config) - m_sys / 2.0) <= 1e-12
        rep = wg.mc_moments(config, 100)[1]
        assert abs(rep.estimate - m_sys / 2.0) <= 1e-12
    report(7, "Tr[Gamma^2] matches the closed form within 4 SE; vacuum equals m/2 to 1e-12")


def test_criterion_08_omega_moment_oracle():
    scores = omega_probe_scores(100_000, threads=2)
    assert min(scores, key=scores.get) == "retained"
    assert scores["retained"] <= 4.0
    assert scores["rejected"] > 10.0

    for n_full, m_sys, z0 in MOMENT_GRID:
        config = moment_config(n_full, m_sys, z0)
        rep = wg.mc_moments(config, MOMENT_SAMPLES, threads=2)[2]
        assert rep.z_ratio <= 4.0, rep

    # asymptotic approach to the thermal square
    for z0 in (1.2, 1.3, 1.5):
        for m_sys in (1, 2):
            for n_full in (32, 64, 128, 256):
                config = RandomStateConfig(
                    n_full=n_full, m_sys=m_sys,
                    profile=ZProfile("uniform", z0), master_seed=0,
                )
                spec = sm.draw_squeezing(config.profile, config.ambient_modes)
                nu = st.thermal_nu(spec)
                analytic = wg.expected_tr_omega_gamma_sq(spec, config)
                assert abs(analytic + 2.0 * m_sys * nu * nu) <= 10.0 * nu * nu * m_sys / n_full
    report(8, "Omega moment: brute-force run retains dm-1; MC and asymptotics agree")


def test_criterion_09_concentration_scaling(sweep_result):
    _, summary = sweep_result
    fit = summary["delta_slope"]
    assert fit is not None
    assert -1.15 <= fit["slope"] <= -0.85, fit
    report(9, f"log-log slope of mean dispersion vs n is {fit['slope']:.3f}, inside [-1.15, -0.85]")


def test_criterion_10_tail_suppression(sweep_result):
    _, summary = sweep_result
    tails = []
    for block in summary["per_n"]:
        entry = next(t for t in block["tails"] if t["epsilon"] == 0.1)
        tails.append((block["n"], entry))
    for (_, a), (_, b) in zip(tails, tails[1:]):
        overlap = a["wilson_low"] <= b["wilson_high"]
        assert b["fraction"] <= a["fraction"] or overlap
    first, last = tails[0][1], tails[-1][1]
    assert first["fraction"] > 0.0, "n=16 tail is empty; the suppression check is vacuous"
    assert last["fraction"] <= first["fraction"] * math.exp(-1.0)
    report(10, f"P[W > 0.1] falls from {first['fraction']:.4f} at n=16 to "
               f"{last['fraction']:.4f} at n=256 (at least an e-fold)")


def test_criterion_11_bound_chain(sweep_result):
    records, _ = sweep_result
    for record in records:
        bound = math.sqrt(record.n_modes_sys * record.stat_delta)
        assert record.work <= bound + 1e-9
    report(11, f"work <= sqrt(m * delta) + 1e-9 on all {len(records)} sweep samples")


def test_criterion_12_lipschitz_witnesses():
    rng = np.random.default_rng(SWEEP_SEED + 3)
    n_full, m_sys = 8, 2
    config = RandomStateConfig(
        n_full=n_full, m_sys=m_sys, profile=ZProfile("vacuum"), master_seed=0
    )
    d = config.ambient_modes
    for z0 in (1.0, 1.5):
        spec = sm.draw_squeezing(ZProfile("uniform", z0), d)
        violations = 0
        for _ in range(1000):
            u = sm.haar_unitary(d, rng)
            v = sm.haar_unitary(d, rng)
            lhs, rhs = st.eigen_dispersion_lipschitz_pair(u, v, spec, m_sys)
            violations += lhs > rhs
            lhs, rhs = st.symplectic_dispersion_lipschitz_pair(u, v, spec, m_sys)
            violations += lhs > rhs
        assert violations == 0
    report(12, "both Lipschitz inequalities hold on 1000 pairs for z0 in {1, 1.5}")


def test_criterion_13_thread_determinism(tmp_path):
    base = [
        sys.executable, "-m", "gausswork", "sweep",
        "--n-grid", "8,16", "--m", "1", "--z-profile", "uniform:1.5",
        "--samples", "400", "--seed", "77",
    ]
    out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
    r1 = subprocess.run(base + ["--threads", "1", "--out", str(out1)], capture_output=True)
    r2 = subprocess.run(base + ["--threads", "2", "--out", str(out2)], capture_output=True)
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    report(13, "sweep output is byte-identical for --threads 1 and 2")
