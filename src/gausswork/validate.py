"""Self-check suite behind the ``validate`` CLI subcommand.

The suite checks the package's own factorizations and sampler on seeded
random inputs.  Each check reports the first violated assertion by name,
raised as a :class:`Violation` or as the error of a library function that
enforces the contract itself.  The heavier statistical verifications live
in the test suite; this runner is meant to finish in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harness, stats
from .errors import GaussworkError, InvalidConfig, config_int
from .phasespace import (
    RECONSTRUCTION_TOL,
    check_covariance,
    is_symplectic,
    purify,
    symplectic_eigenvalues,
    williamson,
    williamson_reconstruction_error,
)
from .sampling import (
    RandomStateConfig,
    ZProfile,
    draw_squeezing,
    haar_unitary,
    random_covariance,
    sample_block,
    unitary_to_symplectic,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


class Violation(Exception):
    """A check found its contract broken; the message says where."""


def _require(ok, detail: str) -> None:
    # written as "not ok" so that a NaN comparison fails the check
    if not ok:
        raise Violation(detail)


def check_embedding(sizes, per_size: int, rng) -> None:
    for n in sizes:
        eye = np.eye(2 * n)
        for _ in range(per_size):
            o = unitary_to_symplectic(haar_unitary(n, rng))
            _require(np.max(np.abs(o.T @ o - eye)) <= 1e-10, f"O^T O != I at n={n}")
            _require(is_symplectic(o, 1e-10), f"O Omega O^T != Omega at n={n}")


# per_size random covariances of each size, with their size, drawn lazily
def _covariances(sizes, per_size: int, rng):
    for n in sizes:
        for _ in range(per_size):
            yield n, random_covariance(n, rng)


def check_williamson_reconstruction(sizes, per_size: int, rng) -> None:
    for n, gamma in _covariances(sizes, per_size, rng):
        nus, s = williamson(gamma)
        _require(is_symplectic(s, 1e-8), f"factor not symplectic at n={n}")
        _require(
            williamson_reconstruction_error(gamma, nus, s) <= RECONSTRUCTION_TOL,
            f"reconstruction error above {RECONSTRUCTION_TOL} at n={n}",
        )


def check_purification(per_size: int, rng) -> None:
    # purify enforces the round trip and purity itself; the energy bound is checked here
    for m, gamma in _covariances((1, 2, 3), per_size, rng):
        _require(
            np.trace(purify(gamma)) <= 2.0 * np.trace(gamma) + 1e-9,
            f"purification energy bound violated at m={m}",
        )


def check_bound_chain(n_samples: int, rng_seed: int) -> None:
    # compute_records reaches stats.evaluate_block, which raises
    # NumericalFailure when work > sqrt(m * delta)
    config = RandomStateConfig(
        n_full=8, m_sys=2, profile=ZProfile("uniform", 1.4), master_seed=rng_seed
    )
    harness.compute_records(config, n_samples)


# Lipschitz pairs per stacked draw: 64 pairs of 8 x 8 unitaries (8192
# complex entries) bound the check's memory whatever its pair count
_LIPSCHITZ_BLOCK = 64


def check_lipschitz(n_pairs: int, rng) -> None:
    # one kept mode of a 4-mode system purified into d = 8 ambient modes;
    # each block is one stacked draw of its pairs, u then v, equal to
    # pair-by-pair haar_unitary calls
    m_sys, d = 1, 8
    spec = draw_squeezing(ZProfile("uniform", 1.5), d)
    for first in range(0, n_pairs, _LIPSCHITZ_BLOCK):
        u, v = haar_unitary(d, rng, (min(_LIPSCHITZ_BLOCK, n_pairs - first), 2)).swapaxes(0, 1)
        eigen_lhs, eigen_rhs, sympl_lhs, sympl_rhs = stats.lipschitz_witnesses(u, v, spec, m_sys)
        for name, lhs_block, rhs_block in (("eigen", eigen_lhs, eigen_rhs),
                                           ("symplectic", sympl_lhs, sympl_rhs)):
            for lhs, rhs in np.broadcast(lhs_block, rhs_block):
                _require(lhs <= rhs, f"{name}-dispersion pair violated: {lhs} > {rhs}")


def check_sampler_basics(rng_seed: int) -> None:
    vac = RandomStateConfig(
        n_full=6, m_sys=2, profile=ZProfile("vacuum"), master_seed=rng_seed
    )
    gamma = sample_block(vac, 0, 1)[0][0]
    _require(
        np.max(np.abs(gamma - 0.5 * np.eye(4))) <= 1e-12,
        "vacuum profile did not produce the vacuum state",
    )
    cfg = RandomStateConfig(
        n_full=6, m_sys=6, profile=ZProfile("uniform", 1.3),
        master_seed=rng_seed, pipeline="direct",
    )
    gamma = sample_block(cfg, 1, 2)[0][0]
    nus = symplectic_eigenvalues(gamma)
    _require(np.max(np.abs(nus - 0.5)) <= 1e-8, "full-system state is not pure")
    _require(np.array_equal(gamma, sample_block(cfg, 1, 2)[0][0]), "sampling is not deterministic")


def _run(name: str, check, *args) -> CheckResult:
    try:
        check(*args)
    except (Violation, GaussworkError) as exc:
        return CheckResult(name=name, ok=False, detail=str(exc))
    return CheckResult(name=name, ok=True)


def run_suite(seed: int = 2024, sizes=(2, 4, 8), lipschitz_pairs: int = 1000) -> list[CheckResult]:
    """Run every check; returns results in execution order.  A check over
    no size or no Lipschitz pair would pass untested, so both are refused,
    as is a negative seed, which numpy cannot take."""
    seed = config_int("seed", seed, 0)
    sizes = [config_int("sizes", n, 1) for n in sizes]
    lipschitz_pairs = config_int("lipschitz_pairs", lipschitz_pairs, 1)
    if not sizes:
        raise InvalidConfig("validate needs at least one size")
    rng = np.random.default_rng(seed)
    # checks are looked up by module-level name at call time, not kept in a
    # table, so a function replaced on the module (a tracer, a test) is run
    return [
        _run("orthogonal-symplectic-embedding", check_embedding, sizes, 25, rng),
        _run("williamson-reconstruction", check_williamson_reconstruction, sizes, 20, rng),
        _run("purification-roundtrip", check_purification, 20, rng),
        _run("work-bound-chain", check_bound_chain, 300, seed),
        _run("lipschitz-witnesses", check_lipschitz, lipschitz_pairs, rng),
        _run("sampler-contracts", check_sampler_basics, seed),
    ]


def validate_covariance_matrix(gamma: np.ndarray) -> CheckResult:
    """Validate one covariance matrix against the full invariant list."""
    return _run("covariance-invariants", check_covariance, gamma)
