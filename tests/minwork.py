"""Direct minimization of mean energy over parametrized Gaussian unitaries.

Independent check of the closed-form extractable work for one- and
two-mode states: the minimum of Tr[S Gamma S^T]/2 over symplectic S is
searched numerically on an explicit squeeze-plus-interferometer
parametrization, without touching the symplectic eigensolver.  The outer
interferometer of the factorization is trace-preserving and is dropped.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from gausswork.errors import BadModeCount
from gausswork.sampling import unitary_to_symplectic

_MAX_LOG_SQUEEZE = 4.0


def _one_mode_symplectic(params: np.ndarray) -> np.ndarray:
    r, phi = params
    c, s = np.cos(phi), np.sin(phi)
    rot = np.array([[c, s], [-s, c]])
    return np.diag([np.exp(r), np.exp(-r)]) @ rot


def _two_mode_symplectic(params: np.ndarray) -> np.ndarray:
    r1, r2, alpha, psi, chi, theta = params
    a = np.exp(1j * psi) * np.cos(theta)
    b = np.exp(1j * chi) * np.sin(theta)
    u = np.exp(1j * alpha) * np.array([[a, b], [-np.conj(b), np.conj(a)]])
    squeeze = np.diag([np.exp(r1), np.exp(r2), np.exp(-r1), np.exp(-r2)])
    return squeeze @ unitary_to_symplectic(u)


def min_mean_energy(
    gamma: np.ndarray, restarts: int = 12, seed: int = 0
) -> float:
    """Numerical minimum of Tr[S Gamma S^T]/2 over symplectic matrices.

    Supports 1- and 2-mode covariance matrices.  Runs L-BFGS-B from several
    seeded random starts and returns the best value found.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0] // 2
    if gamma.shape not in ((2, 2), (4, 4)):
        raise BadModeCount(f"minimization oracle supports 1 or 2 modes, got shape {gamma.shape}")
    build = _one_mode_symplectic if n == 1 else _two_mode_symplectic
    n_params = 2 if n == 1 else 6

    def objective(params: np.ndarray) -> float:
        s = build(params)
        return 0.5 * float(np.trace(s @ gamma @ s.T))

    rng = np.random.default_rng(seed)
    best = np.inf
    for k in range(restarts):
        x0 = np.zeros(n_params) if k == 0 else rng.uniform(-1.0, 1.0, n_params)
        bounds = [(-_MAX_LOG_SQUEEZE, _MAX_LOG_SQUEEZE)] * (1 if n == 1 else 2)
        bounds += [(-2.0 * np.pi, 2.0 * np.pi)] * (n_params - len(bounds))
        result = minimize(objective, x0, method="L-BFGS-B", bounds=bounds,
                          options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12})
        best = min(best, float(result.fun))
    return best
