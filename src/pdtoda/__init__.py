"""Exact-arithmetic simulator and spectral-curve verifier for the
generalized periodic discrete Toda lattice."""

from .bilaurent import BiLaurent, newton_interior
from .divisor import (
    DivisorPoly,
    corner_resultants,
    divisor_of,
    divisor_poly,
    smoothness_probe,
    track_divisor,
    zeros_factorization_check,
)
from .errors import (
    DegenerateEvolutionError,
    DimensionError,
    NonGenericDataError,
    NumericFailureError,
    PdTodaError,
    SingularCurveError,
    StateValidationError,
)
from .lax import (
    SpectralData,
    bloch_basis,
    char_poly,
    genus,
    l_matrix,
    r_matrix,
    spectral_data,
    time_step_matrix,
    transfer_matrix,
)
from .lmatrix import LaurentMatrix, antitranspose, det, minor_signed, resultant_y
from .rationals import Q, as_q, q_from_str, q_str
from .theta import EllipticModel, ThetaContext, elliptic_model, riemann_theta, theta_check, theta_context
from .toda import (
    TodaState,
    conserved_products,
    evolve,
    index_shift,
    random_state,
    state_from_json,
    state_to_json,
    validate,
)
from .unipoly import UniPoly, gcd_monic, roots_numeric

__version__ = "0.1.0"
