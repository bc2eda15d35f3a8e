"""Self-check suite behind the ``validate`` CLI subcommand.

Each check exercises one contract of the core modules on seeded random
inputs and reports the first violated assertion by name.  The heavier
statistical verifications live in the test suite; this runner is meant to
finish in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import phasespace, sampling, stats
from .errors import GaussworkError, NumericalFailure
from .phasespace import (
    PHYSICAL_SLACK,
    RECONSTRUCTION_TOL,
    check_covariance,
    extractable_work,
    purify,
    symplectic_eigenvalues,
    symplectic_eigenvalues_direct,
    symplectic_form,
    symplectic_trace,
    williamson_reconstruction_error,
)
from .sampling import (
    RandomStateConfig,
    ZProfile,
    draw_squeezing,
    haar_unitary,
    random_covariance,
    random_symplectic,
    sample_random_state,
    unitary_to_symplectic,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name=name, ok=False, detail=detail)


def _ok(name: str) -> CheckResult:
    return CheckResult(name=name, ok=True)


def check_symplectic_form(sizes) -> CheckResult:
    name = "symplectic-form"
    for n in sizes:
        omega = symplectic_form(n)
        eye = np.eye(2 * n)
        if not np.allclose(omega @ omega, -eye, atol=0):
            return _fail(name, f"Omega^2 != -I at n={n}")
        if not np.array_equal(omega.T, -omega):
            return _fail(name, f"Omega^T != -Omega at n={n}")
    return _ok(name)


def check_embedding(sizes, per_size: int, rng) -> CheckResult:
    name = "orthogonal-symplectic-embedding"
    for n in sizes:
        omega = symplectic_form(n)
        eye = np.eye(2 * n)
        for _ in range(per_size):
            o = unitary_to_symplectic(haar_unitary(n, rng))
            if np.max(np.abs(o.T @ o - eye)) > 1e-10:
                return _fail(name, f"O^T O != I at n={n}")
            if np.max(np.abs(o @ omega @ o.T - omega)) > 1e-10:
                return _fail(name, f"O Omega O^T != Omega at n={n}")
    return _ok(name)


def check_eigensolver_crosscheck(sizes, per_size: int, rng) -> CheckResult:
    name = "symplectic-eigenvalue-crosscheck"
    for n in sizes:
        for _ in range(per_size):
            gamma = random_covariance(n, rng)
            nus = symplectic_eigenvalues(gamma).nus
            ref = symplectic_eigenvalues_direct(gamma)
            scale = max(1.0, float(np.linalg.norm(gamma, 2)))
            if np.max(np.abs(nus - ref)) > 1e-9 * scale:
                return _fail(name, f"kernel and direct spectra disagree at n={n}")
            if nus[-1] < 0.5 - PHYSICAL_SLACK:
                return _fail(name, f"unphysical nu={nus[-1]} from physical construction at n={n}")
    return _ok(name)


def check_williamson_reconstruction(sizes, per_size: int, rng) -> CheckResult:
    name = "williamson-reconstruction"
    for n in sizes:
        for _ in range(per_size):
            gamma = random_covariance(n, rng)
            res = symplectic_eigenvalues(gamma, with_factor=True)
            if not phasespace.is_symplectic(res.symplectic_factor, 1e-8):
                return _fail(name, f"factor not symplectic at n={n}")
            if williamson_reconstruction_error(gamma, res) > RECONSTRUCTION_TOL:
                return _fail(name, f"reconstruction error above {RECONSTRUCTION_TOL} at n={n}")
    return _ok(name)


def check_purification(per_size: int, rng) -> CheckResult:
    # purify enforces the round trip and purity itself; the energy bound is checked here
    name = "purification-roundtrip"
    for m in (1, 2, 3):
        for _ in range(per_size):
            gamma = random_covariance(m, rng)
            try:
                pure = purify(gamma)
            except NumericalFailure as exc:
                return _fail(name, f"{exc} at m={m}")
            if np.trace(pure) > 2.0 * np.trace(gamma) + 1e-9:
                return _fail(name, f"purification energy bound violated at m={m}")
    return _ok(name)


def check_proof_chain(per_size: int, rng) -> CheckResult:
    # The work equals |sum(lambda - c)/2 + sum(c - nu)| for any constant c;
    # the constant cancels between the two sums.
    name = "work-identity"
    for m in (1, 2, 4):
        for _ in range(per_size):
            gamma = random_covariance(m, rng)
            work = extractable_work(gamma)
            lam = np.linalg.eigvalsh(gamma)
            nus = symplectic_eigenvalues(gamma).nus
            for c in (0.5, 0.77, 1.3):
                alt = abs(0.5 * np.sum(lam - c) + np.sum(c - nus))
                if abs(alt - work) > 1e-9:
                    return _fail(name, f"constant-shift identity off by {abs(alt - work):.2e}")
            if work < -1e-9:
                return _fail(name, f"negative work {work}")
    return _ok(name)


def check_symplectic_trace_invariance(per_size: int, rng) -> CheckResult:
    name = "symplectic-trace-invariance"
    for n in (1, 2, 3):
        for _ in range(per_size):
            gamma = random_covariance(n, rng)
            s = random_symplectic(n, rng)
            before = symplectic_trace(gamma)
            after = symplectic_trace(s @ gamma @ s.T)
            if abs(before - after) > 1e-8 * max(1.0, before):
                return _fail(name, f"STr changed under symplectic conjugation at n={n}")
    return _ok(name)


def check_bound_chain(n_samples: int, rng_seed: int) -> CheckResult:
    name = "work-bound-chain"
    config = RandomStateConfig(
        n_full=8, m_sys=2, profile=ZProfile("uniform", z0=1.4), master_seed=rng_seed
    )
    for i in range(n_samples):
        gamma, spec = sampling.draw_sample(config, i)
        try:
            record = stats.evaluate_record(gamma, spec, config, i)
        except GaussworkError as exc:
            return _fail(name, str(exc))
        if record.work > stats.work_bound(config.m_sys, record.stat_delta) + 1e-9:
            return _fail(name, f"bound violated at sample {i}")
    return _ok(name)


def check_lipschitz(n_pairs: int, rng) -> CheckResult:
    name = "lipschitz-witnesses"
    n_full, m_sys = 4, 1
    config = RandomStateConfig(
        n_full=n_full, m_sys=m_sys, profile=ZProfile("uniform", z0=1.5), master_seed=0
    )
    spec = draw_squeezing(config.profile, config.ambient_modes)
    d = config.ambient_modes
    for _ in range(n_pairs):
        u = haar_unitary(d, rng)
        v = haar_unitary(d, rng)
        lhs, rhs = stats.eigen_dispersion_lipschitz_pair(u, v, spec, m_sys)
        if lhs > rhs:
            return _fail(name, f"eigen-dispersion pair violated: {lhs} > {rhs}")
        lhs, rhs = stats.symplectic_dispersion_lipschitz_pair(u, v, spec, m_sys)
        if lhs > rhs:
            return _fail(name, f"symplectic-dispersion pair violated: {lhs} > {rhs}")
    return _ok(name)


def check_sampler_basics(rng_seed: int) -> CheckResult:
    name = "sampler-contracts"
    vac = RandomStateConfig(
        n_full=6, m_sys=2, profile=ZProfile("vacuum"), master_seed=rng_seed
    )
    gamma = sample_random_state(vac, 0)
    if np.max(np.abs(gamma - 0.5 * np.eye(4))) > 1e-12:
        return _fail(name, "vacuum profile did not produce the vacuum state")
    cfg = RandomStateConfig(
        n_full=6, m_sys=6, profile=ZProfile("uniform", z0=1.3),
        master_seed=rng_seed, pipeline="direct",
    )
    nus = symplectic_eigenvalues(sample_random_state(cfg, 1)).nus
    if np.max(np.abs(nus - 0.5)) > 1e-8:
        return _fail(name, "full-system state is not pure")
    again = sample_random_state(cfg, 1)
    if not np.array_equal(again, sample_random_state(cfg, 1)):
        return _fail(name, "sampling is not deterministic")
    return _ok(name)


def run_suite(seed: int = 2024, sizes=(2, 4, 8), lipschitz_pairs: int = 1000) -> list[CheckResult]:
    """Run every check; returns results in execution order."""
    rng = np.random.default_rng(seed)
    results = [
        check_symplectic_form(sizes),
        check_embedding(sizes, per_size=25, rng=rng),
        check_eigensolver_crosscheck(sizes, per_size=20, rng=rng),
        check_williamson_reconstruction(sizes, per_size=20, rng=rng),
        check_purification(per_size=20, rng=rng),
        check_proof_chain(per_size=20, rng=rng),
        check_symplectic_trace_invariance(per_size=10, rng=rng),
        check_bound_chain(n_samples=300, rng_seed=seed),
        check_lipschitz(n_pairs=lipschitz_pairs, rng=rng),
        check_sampler_basics(rng_seed=seed),
    ]
    return results


def validate_covariance_matrix(gamma: np.ndarray) -> CheckResult:
    """Validate one covariance matrix against the full invariant list."""
    try:
        check_covariance(gamma, require_physical=True)
    except GaussworkError as exc:
        return CheckResult(name="covariance-invariants", ok=False, detail=str(exc))
    return CheckResult(name="covariance-invariants", ok=True)
