"""Exact complexity analysis of automatic sequences over prime fields.

Generates q-automatic sequences, computes their Nth linear complexity
profiles by Berlekamp-Massey synthesis and by continued fractions of the
associated Laurent series, computes Nth expansion complexity by exact
linear algebra, and cross-verifies everything against closed-form
formulas and general bounds.
"""

from . import algebra, autoseq, contfrac, expcomp, gf2, gf3, lincomp, theory

__version__ = "0.1.0"
