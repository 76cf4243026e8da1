"""Parity-check matrices for additive codes over Z_{p^s}."""

from .bench import random_code, run_suite
from .matrix import BlockLayout, Matrix, Permutation, format_matrix, parse_matrix
from .opcounters import OpCounters, predicted_counts_iterative, predicted_counts_minors
from .paritycheck import (
    ParityCheckResult,
    dual_type,
    parity_check_bruteforce,
    parity_check_iterative,
    parity_check_minors,
    verify_dual,
    verify_parity,
)
from .stdform import StandardForm, standard_form
from .zring import RingSpec

__all__ = [
    "BlockLayout", "Matrix", "OpCounters", "ParityCheckResult", "Permutation", "RingSpec",
    "StandardForm", "dual_type", "format_matrix", "parity_check_bruteforce",
    "parity_check_iterative", "parity_check_minors", "parse_matrix",
    "predicted_counts_iterative", "predicted_counts_minors", "random_code", "run_suite",
    "standard_form", "verify_dual", "verify_parity",
]
__version__ = "0.1.0"
