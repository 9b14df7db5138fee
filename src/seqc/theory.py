"""Closed-form complexity formulas, general bounds, and verification drivers.

Everything here is exact integer arithmetic: rational bounds are kept as
fractions and compared by cross-multiplication, never through floats.

``verify`` checks the profile against the closed forms and Theorem 1 on
whole int64 arrays, N = 1..n_max in one expression each; the closed forms
and ``bounds_hold`` take an int or such an array.  int64 is exact here:
d and M are at most the witness's total degree, which ``autoseq.witness``
caps at 2^16, and 0 <= L(N) <= N, so d L(N), d N and (d-1) N + M + 1 stay
below 2^63 for every N < 2^46, far past any prefix that fits in memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain

import numpy as np

from . import autoseq, contfrac, gf2, lincomp
from .algebra import LaurentSeries, Poly, PrimeField
from .autoseq import SequenceSpec


@dataclass(frozen=True)
class BoundPair:
    """(N - M)/d <= L(u_n, N) <= ((d-1)N + M + 1)/d."""

    lower: Fraction
    upper: Fraction


def bound_numerators(d: int, m: int, n):
    """Theorem 1's numerators (N - M, (d-1)N + M + 1) over d, for an int N or an int64 array."""
    return n - m, (d - 1) * n + m + 1


def general_bounds(d: int, m: int, n: int) -> BoundPair:
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 1:
        raise ValueError("N must be >= 1")
    lower, upper = bound_numerators(d, m, n)
    return BoundPair(Fraction(lower, d), Fraction(upper, d))


def bounds_hold(d: int, m: int, n, ell):
    """Cross-multiplied form of the general bounds, pure integer arithmetic.

    ``n`` and ``ell`` are ints, or int64 arrays compared entry by entry.
    """
    lower, upper = bound_numerators(d, m, n)
    return (lower <= d * ell) & (d * ell <= upper)


def _require_positive(n):
    if np.any(np.less(n, 1)):
        raise ValueError("N must be >= 1")


def thue_morse_exact(n):
    """L(t_n, N) = 2*floor((N+2)/4), for an int N or an int64 array of them."""
    _require_positive(n)
    return 2 * ((n + 2) // 4)


def allones_exact(k: int, n):
    """Exact profile of the binary all-one-pattern sequence of length k.

    Two branches selected by N mod 4(2^k - 1).  ``n`` is an int, giving an
    int, or an int64 array, giving the array of values.  The branch is
    selected by multiplying with the 0/1 condition, not by ``np.where``,
    which would turn an int N into int64 and fail for k >= 61.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_positive(n)
    w = 2 ** k - 1
    r = n % (4 * w)
    low = 2 * w * ((n + 2 ** k - 2) // (4 * w))
    high = 2 * w * (n // (4 * w)) + 2 ** k
    return low + ((2 ** k <= r) & (r <= 3 * w)) * (high - low)


def perfect_profile_exact(n):
    """L(w_n, N) = floor((N+1)/2): the perfect profile, for an int or an int64 array."""
    _require_positive(n)
    return (n + 1) // 2


def cf_prediction(k: int, j: int) -> Poly:
    """Predicted partial quotient A_j of the all-one-pattern series."""
    if k < 1 or j < 1:
        raise ValueError("k and j must be >= 1")
    return Poly(PrimeField(2), gf2.to_bits(_cf_prediction_bits(k, _quotient_shape(j))))


def _quotient_shape(j: int) -> int:
    """A_j depends on j only through j == 1, j even, j odd > 1."""
    return j if j == 1 else 2 + j % 2


@functools.lru_cache(maxsize=None)
def _cf_prediction_bits(k: int, j: int) -> int:
    """A_j for j = 1, 2 (every even j) or 3 (every odd j > 1), bit-packed
    as the F_2 expansion stores its quotients."""
    if k == 1:
        return 0b111 if j == 1 else 0b101  # x^2 + x + 1, then x^2 + 1
    if j == 1:
        return 1 << 2 ** k | 0b10  # x^{2^k} + x
    if j % 2 == 0:
        return sum(1 << i for i in range(0, 2 ** k - 1, 2))  # x^{2^k - 2} + ... + x^2 + 1
    return 1 << 2 ** k | 1  # x^{2^k} + 1


def exact_formula_for(spec: SequenceSpec):
    """The closed-form L(N) for this spec, or None."""
    if spec.is_all_one_pattern:
        k = spec.k
        return lambda n: allones_exact(k, n)
    if spec.kind == autoseq.PERFECT_PROFILE:
        return perfect_profile_exact
    if spec.kind == autoseq.SUM_OF_DIGITS and spec.p == 2:
        return thue_morse_exact  # same sequence as Thue-Morse
    return None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    first_fail_n: int = None
    expected: object = None
    actual: object = None

    def to_dict(self):
        return {
            "name": self.name,
            "pass": self.passed,
            "first_fail_N": self.first_fail_n,
            "expected": None if self.expected is None else str(self.expected),
            "actual": None if self.actual is None else str(self.actual),
        }


@dataclass
class VerifyReport:
    spec_name: str
    n_max: int
    checks: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_dict(self):
        return {
            "spec": self.spec_name,
            "n_max": self.n_max,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }


def _check(name, fail, expected=None) -> CheckResult:
    """One check's result from ``fail``: None on a pass, else the triple
    (first failing N, expected, actual).  ``expected`` is what a pass reports."""
    if fail is None:
        return CheckResult(name, True, expected=expected)
    return CheckResult(name, False, *fail)


def _first_divergence(seq_a, seq_b):
    """(N, a_N, b_N) at the first N where the two differ, or None.

    Equal sequences, the usual case, cost one tuple comparison in C; the
    scan runs only on a mismatch.
    """
    if tuple(seq_a) == tuple(seq_b):
        return None
    for n, (x, y) in enumerate(zip(seq_a, seq_b), start=1):
        if x != y:
            return n, x, y
    return None


def _first_fail(bad, ell, expected):
    """(N, expected(N), L(N)) at the first N where the bool array ``bad`` is set, or None.

    Entry i of ``bad`` and of the int64 profile ``ell`` is N = i + 1; L(N)
    is returned as an int.
    """
    i = int(bad.argmax())
    return (i + 1, expected(i + 1), int(ell[i])) if bad[i] else None


def functional_equation_residual(spec: SequenceSpec, pref) -> LaurentSeries:
    """(1+x) R^2 + R + U^{2^k} x^{-2^k} for an all-one-pattern sequence.

    R = sum_{i=1..m} u_{i-1} x^-i over all m = len(pref) symbols of ``pref``
    and U = sum_{i=0..m} x^-i.  Must vanish to the available precision.

    Over F_2, A(x)^2 = A(x^2) for every series A: squaring is additive
    and fixes every coefficient.  So in y = x^-1, with G = sum u_i y^i,
    the residual is (y + y^2) G(y^2) + y G(y) + y^{2^k} U(y^{2^k}): two
    spreads and shift-XORs of bit-packed ints, with no product.  All three
    terms are exact polynomials in y, so the result is known down to
    x^-m, the lowest exponent R is known at, the same as for the
    truncated series products: it is cut there with one mask.

    ``verify`` does not call it: times the unit (1+y)^(2^k) this residual
    is y h(G) for the witness h, so ``residual_zero`` already decides the
    same relation.  The tests, the acceptance gate and perfbench's span
    call it, and it goes with that span (ROADMAP item 1b).
    """
    if not spec.is_all_one_pattern:
        raise ValueError("functional equation applies to all-one patterns only")
    field = spec.field
    step = 2 ** spec.k
    symbols = field.validate_symbols(pref)
    m = len(symbols)
    g = gf2.from_bits(symbols)
    r2 = gf2.stretch(g, 2, m)
    u = gf2.stretch((1 << (m + 1)) - 1, step, m + 1 - step)
    res = ((r2 << 1) ^ (r2 << 2) ^ (g << 1) ^ (u << step)) & ((1 << (m + 1)) - 1)
    if not res:
        return LaurentSeries.zero(field, -m)
    # bit e of res is the coefficient of x^-e; the top is the lowest set bit
    v = (res & -res).bit_length() - 1
    coeffs = gf2.to_bits(res >> v) + (0,) * (m + 1 - res.bit_length())
    return LaurentSeries(field, -v, coeffs, -m)


def verify(spec: SequenceSpec, n_max: int, mutate=None) -> VerifyReport:
    """Run every applicable cross-check for one sequence up to n_max.

    The checks, in report order: ``bm_cf_agree``, ``exact_formula`` (where
    a closed form is known), ``theorem1_bounds``, ``bound_attainment``
    (Thue-Morse), ``convergent_identities``, then ``cf_predictions`` on
    the all-one patterns, which also decides ``contfrac.q_congruences``,
    and ``residual_zero``, the witness relation h(G) = 0, which on the
    all-one patterns decides the functional equation too, so
    ``functional_equation_residual`` is not called.

    ``mutate`` (prefix -> prefix) corrupts the prefix for the tests, the CLI's
    ``--corrupt-index`` and ``perfbench/scan_controls.py``; a result not n_max
    symbols long raises ValueError.  A failed check is a report entry, never an exception.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    w = autoseq.witness(spec)  # first: a spec over its witness cap fails before any work
    field = spec.field
    report = VerifyReport(spec.canonical_name, n_max)
    pref = autoseq.prefix(spec, n_max)
    if mutate is not None:
        pref = list(mutate(list(pref)))
        if len(pref) != n_max:
            raise ValueError(f"mutate returned {len(pref)} symbols, not n_max = {n_max}")

    prof_bm = lincomp.bm_profile(pref, field)
    r = LaurentSeries.from_prefix(pref, field)
    # one expansion serves the CF profile and every convergent check
    exp = contfrac.cf_expand(r)
    prof_cf = contfrac.profile_from_expansion(exp, n_max)
    checks = report.checks
    checks.append(_check("bm_cf_agree", _first_divergence(prof_bm, prof_cf)))

    # Theorem 1 and the closed forms at every N = 1..n_max at once (module docstring)
    ell = np.array(prof_bm.values, dtype=np.int64)
    ns = np.arange(1, len(ell) + 1, dtype=np.int64)
    formula = exact_formula_for(spec)
    if formula is not None:
        exact = formula(ns)
        checks.append(_check("exact_formula", _first_fail(
            exact != ell, ell, lambda n: int(exact[n - 1]))))

    d, m = w.d, w.m
    checks.append(_check("theorem1_bounds", _first_fail(
        ~bounds_hold(d, m, ns, ell), ell,
        lambda n: "{0.lower} <= L <= {0.upper}".format(general_bounds(d, m, n)))))

    if spec.is_all_one_pattern and spec.k == 1:
        # Thue-Morse attains the lower bound ceil((N-M)/d) for N = 0, 1 mod 4
        # and the upper bound floor(((d-1)N+M+1)/d) for N = 2, 3 mod 4
        lower, upper = bound_numerators(d, m, ns)
        attained = np.where(ns % 4 < 2, -(-lower // d), upper // d)
        checks.append(_check("bound_attainment", _first_fail(
            attained != ell, ell, lambda n: "lower" if n % 4 < 2 else "upper")))

    bad = contfrac.check_convergent_identities(exp)
    checks.append(_check("convergent_identities", None if bad is None else (bad, None, None)))

    if spec.is_all_one_pattern:
        k = spec.k
        quotients = exp.raw_quotients[1:exp.reliable_count + 1]
        checks.append(_check("cf_predictions", next(
            ((j, list(cf_prediction(k, j).coeffs), list(gf2.to_bits(a)))
             for j, a in enumerate(quotients, start=1)
             if a != _cf_prediction_bits(k, _quotient_shape(j))), None)))

    res = autoseq.witness_residual(w, pref)
    # a nonzero Poly's top coefficient is nonzero, so filter finds the lowest nonzero one
    first = None if res.is_zero else res.coeffs.index(next(filter(None, res.coeffs)))
    checks.append(_check("residual_zero", None if first is None else (
        first + 1, 0, res.coeffs[first]), expected=0))

    return report


def suite_specs(k_max: int = 4) -> list:
    """Every built-in plus the all-one patterns k = 1..k_max, in order, once each.

    Each spec's witness is built as the spec is added, so the first spec
    over ``autoseq.WITNESS_DEGREE_CAP`` raises ValueError and no later one
    is built: 2^k is never formed for a k past the cap.
    """
    patterns = (autoseq.pattern(2, k, 2 ** k - 1) for k in range(1, k_max + 1))
    specs = []
    for s in chain(autoseq.builtin_specs(), patterns):
        if s not in specs:
            autoseq.witness(s)
            specs.append(s)
    return specs


def verify_suite(n_max: int, k_max: int = 4, mutate=None):
    """Verify every spec of ``suite_specs(k_max)``, in order, all witnesses checked first."""
    return [verify(s, n_max, mutate=mutate) for s in suite_specs(k_max)]
