"""Parity-check matrices for additive codes over Z_{p^s}."""

from .bench import (
    predicted_counts_iterative,
    predicted_counts_minors,
    random_code,
    run_suite,
)
from .codemodel import CodeSpec, cardinality, codes_equal, enumerate_codewords, is_member
from .matrix import (
    BlockLayout,
    Matrix,
    Permutation,
    apply_col_permutation,
    format_matrix,
    identity,
    insert_block,
    mat_add,
    mat_mul,
    mat_scalar,
    mat_transpose,
    parse_matrix,
    zeros,
)
from .minors import (
    BlockMinorTable,
    det_structured_laplace,
    det_structured_sum,
    enumerate_restricted,
    j_set,
)
from .opcounters import OpCounters
from .paritycheck import (
    ParityCheckResult,
    dual_type,
    parity_check_bruteforce,
    parity_check_iterative,
    parity_check_minors,
    verify_parity,
    z4_parity_check,
)
from .stdform import StandardForm, extract_blocks, reduced_associated, standard_form
from .zring import RingSpec

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
