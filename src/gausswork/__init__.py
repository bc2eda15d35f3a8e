"""Phase-space statistics of extractable work from random Gaussian states.

The package samples energy-bounded random multimode Gaussian states,
computes the work extractable from them with Gaussian unitaries, and
checks the concentration of their local spectra around the thermal value
against exact Haar-moment formulas.
"""

from .phasespace import (
    check_covariance,
    purify,
    symplectic_eigenvalues,
    symplectic_form,
)
from .sampling import (
    RandomStateConfig,
    SqueezingSpec,
    ZProfile,
    draw_squeezing,
    haar_unitary,
    sample_block,
    state_from_unitary,
    unitary_to_symplectic,
)
from .stats import RECORD_DTYPE, extractable_work, tail_probability
from .weingarten import (
    expected_tr_gamma,
    expected_tr_gamma_sq,
    expected_tr_omega_gamma_sq,
)

__version__ = "0.1.0"
