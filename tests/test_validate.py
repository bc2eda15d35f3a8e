import math

import numpy as np
import pytest

from gausswork import stats, validate
from gausswork.errors import InvalidConfig, NumericalFailure


def _raise_numerical(*args):
    raise NumericalFailure("purification round trip error 1.000e+00 exceeds 1e-10")


# check name -> (module, function the check relies on, broken replacement)
BREAKS = {
    "orthogonal-symplectic-embedding": (
        validate, "unitary_to_symplectic", lambda u: 2.0 * np.eye(2 * len(u)),
    ),
    "williamson-reconstruction": (
        validate, "williamson_reconstruction_error", lambda gamma, nus, s: math.nan,
    ),
    "purification-roundtrip": (validate, "purify", _raise_numerical),
    "work-bound-chain": (stats, "work_bound", lambda m, delta: -1.0),
    "lipschitz-witnesses": (
        stats, "lipschitz_witnesses", lambda u, v, spec, m: (1.0, 0.0, 0.0, 0.0),
    ),
    "sampler-contracts": (
        validate, "sample_block",
        lambda config, lo, hi: (np.eye(2 * config.m_sys)[None], np.full(1, 0.5)),
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


@pytest.mark.parametrize("kwargs", [
    {"seed": True}, {"seed": 7.0}, {"lipschitz_pairs": 2.5}, {"lipschitz_pairs": np.True_},
    {"sizes": (2.5,)}, {"sizes": (2, True)},
])
def test_non_integer_arguments_refused(kwargs):
    with pytest.raises(InvalidConfig, match=f"^{next(iter(kwargs))} must be an integer"):
        validate.run_suite(**kwargs)


def test_numpy_integer_arguments_run_the_same_suite():
    plain = validate.run_suite(seed=7, sizes=(2,), lipschitz_pairs=5)
    numpy_ints = validate.run_suite(seed=np.int64(7), sizes=np.array([2]), lipschitz_pairs=np.int32(5))
    assert numpy_ints == plain
    assert all(r.ok for r in plain)


@pytest.mark.parametrize("kwargs", [{"sizes": ()}, {"sizes": (0, 2)}, {"lipschitz_pairs": 0}])
def test_nothing_to_check_rejected(kwargs):
    with pytest.raises(InvalidConfig):
        validate.run_suite(**kwargs)


@pytest.mark.parametrize("name, value, minimum", [
    ("seed", -1, 0), ("sizes", (2, 0), 1), ("lipschitz_pairs", 0, 1),
])
def test_counts_below_their_minimum_named(name, value, minimum):
    with pytest.raises(InvalidConfig, match=f"^{name} must be >= {minimum}, got "):
        validate.run_suite(**{name: value})


@pytest.mark.parametrize("size", [10 ** 20, 2 ** 29])
def test_size_numpy_cannot_shape_refused(size):
    # check_embedding's 2n x 2n identity: 4n^2 float64 entries, more bytes than np.intp holds
    with pytest.raises(InvalidConfig, match=f"^sizes: {size} modes exceed numpy's array size$"):
        validate.run_suite(sizes=(2, size), lipschitz_pairs=1)
