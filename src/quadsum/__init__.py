"""Exact decision and certification of sums of two split-quadratic matrices."""

from .canonical import NullitySequence, invariant_factors_with_transform, nullity_sequence
from .errors import (BadParams, BudgetExceeded, DecisionNo, DegreeZero,
                     DimensionMismatch, DivisionByZero, InternalCheckFailed,
                     MalformedInput, MalformedSequence, MixedFields, NotMonic,
                     NotSplitError, QuadsumError, Singular,
                     UnsupportedCase)
from .field import GF, QQ, Field, FieldElement, quadratic_roots
from .matrix import (Matrix, block2x2, direct_sum, hstack, inverse,
                     jordan_block, kernel_matrix, rank, rank_and_kernel, solve)
from .poly import (Polynomial, companion, decompose_in_t2_minus_t, gcd,
                   krylov_annihilator, lcm, minimal_polynomial,
                   substitute_one_minus_t)
from .sums import (CaseClassification, Certificate, Decision, NecessaryReport,
                   QuadParams, VerificationReport, check_necessary_combination,
                   classify_and_reduce, construct, decide, is_p_intertwined,
                   pair_blocks, verify_certificate)

__version__ = "0.1.0"
