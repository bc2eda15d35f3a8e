import math

import numpy as np
import pytest

from gausswork import stats, validate
from gausswork.errors import InvalidConfig, NumericalFailure


def _raise_numerical(*args):
    raise NumericalFailure("purification round trip error 1.000e+00 exceeds 1e-10")


# check name -> (module, function the check relies on, broken replacement)
BREAKS = {
    "symplectic-form": (validate, "symplectic_form", lambda n: np.eye(2 * n)),
    "orthogonal-symplectic-embedding": (
        validate, "unitary_to_symplectic", lambda u: 2.0 * np.eye(2 * len(u)),
    ),
    "symplectic-eigenvalue-crosscheck": (
        validate, "symplectic_eigenvalues_direct", lambda gamma: np.zeros(len(gamma) // 2),
    ),
    "williamson-reconstruction": (
        validate, "williamson_reconstruction_error", lambda gamma, res: math.nan,
    ),
    "purification-roundtrip": (validate, "purify", _raise_numerical),
    "work-identity": (validate, "extractable_work", lambda gamma: 5.0),
    "symplectic-trace-invariance": (validate, "symplectic_trace", lambda gamma: math.nan),
    "work-bound-chain": (stats, "work_bound", lambda m, delta: -1.0),
    "lipschitz-witnesses": (
        stats, "eigen_dispersion_lipschitz_pair", lambda u, v, spec, m: (1.0, 0.0),
    ),
    "sampler-contracts": (
        validate, "sample_random_state", lambda config, i: np.eye(2 * config.m_sys),
    ),
}


@pytest.mark.parametrize("name", list(BREAKS))
def test_each_check_can_fail(name, monkeypatch):
    module, attr, broken = BREAKS[name]
    monkeypatch.setattr(module, attr, broken)
    results = validate.run_suite(seed=7, sizes=(2,), lipschitz_pairs=5)
    assert [r.name for r in results] == list(BREAKS)
    failed = [r for r in results if not r.ok]
    assert [r.name for r in failed] == [name]
    assert failed[0].detail


@pytest.mark.parametrize("kwargs", [{"sizes": ()}, {"sizes": (0, 2)}, {"lipschitz_pairs": 0}])
def test_nothing_to_check_rejected(kwargs):
    with pytest.raises(InvalidConfig):
        validate.run_suite(**kwargs)
