import numpy as np
import pytest

from gausswork import phasespace as ps
from gausswork.errors import BadModeCount
from gausswork.sampling import random_covariance

import minwork


def test_thermal_state_is_already_minimal():
    gamma = 1.3 * np.eye(4)
    assert minwork.min_mean_energy(gamma, restarts=6) == pytest.approx(2.6, abs=1e-6)


def test_squeezed_vacuum_minimum_is_half():
    gamma = np.diag([4.0, 0.25]) / 2
    assert minwork.min_mean_energy(gamma, restarts=6) == pytest.approx(0.5, abs=1e-6)


def test_matches_symplectic_spectrum_sum():
    rng = np.random.default_rng(10)
    for m in (1, 2):
        gamma = random_covariance(m, rng, nu_max=1.8, max_squeeze=1.6)
        closed = float(np.sum(ps.symplectic_eigenvalues(gamma).nus))
        assert minwork.min_mean_energy(gamma, restarts=10, seed=2) == pytest.approx(
            closed, abs=1e-5
        )


def test_rejects_larger_systems():
    with pytest.raises(BadModeCount):
        minwork.min_mean_energy(np.eye(6))
