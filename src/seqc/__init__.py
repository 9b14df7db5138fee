"""Exact complexity analysis of automatic sequences over prime fields.

Generates q-automatic sequences, computes their Nth linear complexity
profiles by Berlekamp-Massey synthesis and by continued fractions of the
associated Laurent series, computes Nth expansion complexity by exact
linear algebra, and cross-verifies everything against closed-form
formulas and general bounds.
"""

from .algebra import (
    NEG_INF,
    FieldMismatchError,
    LaurentSeries,
    Poly,
    PrecisionError,
    PrimeField,
)
from .autoseq import (
    AlgebraicWitness,
    Profile,
    SequenceSpec,
    baum_sweet,
    builtin_specs,
    paper_folding,
    pattern,
    pattern_count_oracle,
    perfect_profile,
    prefix,
    residual,
    rudin_shapiro,
    sum_of_digits,
    term,
    thue_morse,
    witness,
)
from .contfrac import CFExpansion, cf_expand, profile_from_cf, q_congruences
from .expcomp import ExpansionResult, expansion_complexity, expansion_profile
from .lincomp import bm_connection, bm_profile
from .theory import (
    BoundPair,
    VerifyReport,
    allones_exact,
    cf_prediction,
    general_bounds,
    perfect_profile_exact,
    thue_morse_exact,
    verify,
)

__version__ = "0.1.0"
