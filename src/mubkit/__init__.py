"""Mutually unbiased bases toolkit.

Construction of complete families in prime dimension from a closed form,
residual-certificate verification through flattened projectors, state
recovery from a one-column rank-1 certificate (or else one batched LAPACK
Hermitian solve), quadratic exponential sum checks, and a seeded numerical
search for families in arbitrary dimension.
"""

from .algebra import MubFamily, canonical_phase, projector_from_state, unbiased_gram_target
from .construct import build_family, is_prime, w_coefficient
from .gauss import GaussSumParams, check_factoring, gauss_sum, mub_gauss_params
from .io import FamilyDocument, load_family, save_family
from .reconstruct import (
    EigenDecomposition,
    eigen_hermitian,
    reconstruct_all,
    state_from_projector,
)
from .search import (
    SearchConfig,
    SearchResult,
    SearchState,
    gradient,
    objective,
    polish,
    run_search,
)
from .verify import VerificationReport, pairwise_angle, verify_family, verify_states

__version__ = "0.1.0"

__all__ = [
    "EigenDecomposition",
    "FamilyDocument",
    "GaussSumParams",
    "MubFamily",
    "SearchConfig",
    "SearchResult",
    "SearchState",
    "VerificationReport",
    "build_family",
    "canonical_phase",
    "check_factoring",
    "eigen_hermitian",
    "gauss_sum",
    "gradient",
    "is_prime",
    "load_family",
    "mub_gauss_params",
    "objective",
    "pairwise_angle",
    "polish",
    "projector_from_state",
    "reconstruct_all",
    "run_search",
    "save_family",
    "state_from_projector",
    "unbiased_gram_target",
    "verify_family",
    "verify_states",
    "w_coefficient",
]
