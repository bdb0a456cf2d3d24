"""Exact decision and certification of sums of two split-quadratic matrices."""

from .canonical import invariant_factors_with_transform
from .errors import (BadParams, BudgetExceeded, DecisionNo, DegreeZero,
                     DimensionMismatch, DivisionByZero, InternalCheckFailed,
                     MalformedInput, MalformedSequence, MixedFields, NotMonic,
                     NotSplitError, QuadsumError, Singular,
                     UnsupportedCase)
from .field import GF, QQ
from .matrix import Matrix, block2x2, direct_sum, inverse, jordan_block
from .poly import (Polynomial, companion, decompose_in_t2_minus_t, minimal_polynomial,
                   substitute_one_minus_t)
from .sums import (QuadParams, construct, decide, is_p_intertwined, pair_blocks,
                   verify_certificate)
