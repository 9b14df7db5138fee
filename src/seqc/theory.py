"""Closed-form complexity formulas, general bounds, and verification drivers.

Everything here is exact integer arithmetic: rational bounds are kept as
fractions and compared by cross-multiplication, never through floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import autoseq, contfrac, lincomp
from .algebra import LaurentSeries, Poly, PrimeField
from .autoseq import SequenceSpec


@dataclass(frozen=True)
class BoundPair:
    """(N - M)/d <= L(u_n, N) <= ((d-1)N + M + 1)/d."""

    lower: Fraction
    upper: Fraction
    d: int
    m: int
    n: int


def general_bounds(d: int, m: int, n: int) -> BoundPair:
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 1:
        raise ValueError("N must be >= 1")
    return BoundPair(Fraction(n - m, d), Fraction((d - 1) * n + m + 1, d), d, m, n)


def bounds_hold(d: int, m: int, n: int, ell: int) -> bool:
    """Cross-multiplied form of the general bounds, pure integer arithmetic."""
    return n - m <= d * ell <= (d - 1) * n + m + 1


def thue_morse_exact(n: int) -> int:
    """L(t_n, N) = 2*floor((N+2)/4)."""
    if n < 1:
        raise ValueError("N must be >= 1")
    return 2 * ((n + 2) // 4)


def allones_exact(k: int, n: int) -> int:
    """Exact profile of the binary all-one-pattern sequence of length k.

    Two branches selected by N mod 4(2^k - 1).
    """
    if k < 1 or n < 1:
        raise ValueError("k and N must be >= 1")
    w = 2 ** k - 1
    r = n % (4 * w)
    if 2 ** k <= r <= 3 * w:
        return 2 * w * (n // (4 * w)) + 2 ** k
    return 2 * w * ((n + 2 ** k - 2) // (4 * w))


def allones_branch(k: int, n: int) -> int:
    """Which branch of the exact formula fires for this N (1 or 2)."""
    w = 2 ** k - 1
    return 1 if 2 ** k <= n % (4 * w) <= 3 * w else 2


def perfect_profile_exact(n: int) -> int:
    """L(w_n, N) = floor((N+1)/2): the perfect profile."""
    if n < 1:
        raise ValueError("N must be >= 1")
    return (n + 1) // 2


def cf_prediction(k: int, j: int) -> Poly:
    """Predicted partial quotient A_j of the all-one-pattern series."""
    if k < 1 or j < 1:
        raise ValueError("k and j must be >= 1")
    field = PrimeField(2)
    if k == 1:
        return Poly(field, (1, 1, 1)) if j == 1 else Poly(field, (1, 0, 1))
    if j == 1:
        return Poly.monomial(field, 2 ** k) + Poly.x(field)
    if j % 2 == 0:
        # x^{2^k - 2} + x^{2^k - 4} + ... + x^2 + 1
        coeffs = [0] * (2 ** k - 1)
        coeffs[::2] = [1] * (2 ** (k - 1))
        return Poly(field, tuple(coeffs))
    return Poly.monomial(field, 2 ** k) + Poly.one(field)


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

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _first_divergence(seq_a, seq_b):
    for n, (x, y) in enumerate(zip(seq_a, seq_b), start=1):
        if x != y:
            return n, x, y
    return None


def functional_equation_residual(spec: SequenceSpec, n: int, pref=None) -> LaurentSeries:
    """(1+x) R^2 + R + U^{2^k} x^{-2^k} for an all-one-pattern sequence.

    Must vanish to the available precision.  ``pref`` overrides the
    generated prefix (used to propagate corrupted fixtures).
    """
    if not spec.is_all_one_pattern:
        raise ValueError("functional equation applies to all-one patterns only")
    field = spec.field
    k = spec.k
    if pref is None:
        pref = autoseq.prefix(spec, n)
    r = LaurentSeries.from_prefix(pref[:n], field)
    u = LaurentSeries(field, 0, (1,) * (n + 1), -n)
    u_pow = u
    for _ in range(k):
        u_pow = u_pow * u_pow
    # the polynomial factor is exact: declare it known to full depth so the
    # pessimistic precision rule does not truncate the residual
    one_plus_x = LaurentSeries.from_poly(Poly(field, (1, 1)), -(2 * n + 2))
    return one_plus_x * (r * r) + r + u_pow.shift(-(2 ** k))


def verify(spec: SequenceSpec, n_max: int, mutate=None) -> VerifyReport:
    """Run every applicable cross-check for one sequence up to n_max.

    ``mutate`` (prefix -> prefix) lets tests inject a corrupted generator;
    failures become report entries, never exceptions.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    field = spec.field
    report = VerifyReport(spec.canonical_name, n_max)
    pref = autoseq.prefix(spec, n_max)
    if mutate is not None:
        pref = list(mutate(list(pref)))

    prof_bm = lincomp.bm_profile(pref, field)
    r = LaurentSeries.from_prefix(pref, field)
    # one expansion serves the CF profile and every convergent check
    exp = None if r.is_zero else contfrac.cf_expand(r)
    prof_cf = (contfrac.profile_from_cf(r, n_max) if exp is None
               else contfrac.profile_from_expansion(exp, n_max))

    div = _first_divergence(prof_bm, prof_cf)
    report.checks.append(CheckResult(
        "bm_cf_agree", div is None,
        first_fail_n=None if div is None else div[0],
        expected=None if div is None else div[1],
        actual=None if div is None else div[2]))

    formula = exact_formula_for(spec)
    if formula is not None:
        div = _first_divergence([formula(n) for n in range(1, n_max + 1)], prof_bm)
        report.checks.append(CheckResult(
            "exact_formula", div is None,
            first_fail_n=None if div is None else div[0],
            expected=None if div is None else div[1],
            actual=None if div is None else div[2]))

    w = autoseq.witness(spec)
    fail = None
    for n in range(1, n_max + 1):
        ell = prof_bm.at(n)
        if not bounds_hold(w.d, w.m, n, ell):
            fail = (n, general_bounds(w.d, w.m, n), ell)
            break
    report.checks.append(CheckResult(
        "theorem1_bounds", fail is None,
        first_fail_n=None if fail is None else fail[0],
        expected=None if fail is None else f"{fail[1].lower} <= L <= {fail[1].upper}",
        actual=None if fail is None else fail[2]))

    if spec.is_all_one_pattern and spec.k == 1:
        fail = None
        for n in range(1, n_max + 1):
            ell = prof_bm.at(n)
            lower_hit = ell == n // 2  # ceil((N-1)/2)
            upper_hit = ell == n // 2 + 1
            want_lower = n % 4 in (0, 1)
            if lower_hit != want_lower or upper_hit != (not want_lower):
                fail = (n, "lower" if want_lower else "upper", ell)
                break
        report.checks.append(CheckResult(
            "bound_attainment", fail is None,
            first_fail_n=None if fail is None else fail[0],
            expected=None if fail is None else fail[1],
            actual=None if fail is None else fail[2]))

    if exp is not None:
        bad = contfrac.check_convergent_identities(exp)
        report.checks.append(CheckResult(
            "convergent_identities", bad is None,
            first_fail_n=bad, expected=None, actual=None))

        if spec.is_all_one_pattern:
            div = None
            for j in range(1, exp.reliable_count + 1):
                pred = cf_prediction(spec.k, j)
                if exp.quotients[j] != pred:
                    div = (j, list(pred.coeffs), list(exp.quotients[j].coeffs))
                    break
            report.checks.append(CheckResult(
                "cf_predictions", div is None,
                first_fail_n=None if div is None else div[0],
                expected=None if div is None else div[1],
                actual=None if div is None else div[2]))

            q_rep = contfrac.q_congruences(exp, spec.k)
            bad = q_rep.congruence_failures[0] if q_rep.congruence_failures else None
            report.checks.append(CheckResult(
                "q_congruences", q_rep.ok,
                first_fail_n=None if bad is None else bad[0],
                expected=None if bad is None else bad[1],
                actual=None if bad is None else bad[2]))

            feq = functional_equation_residual(spec, n_max, pref=pref)
            report.checks.append(CheckResult(
                "functional_equation", feq.is_zero,
                first_fail_n=None if feq.is_zero else -int(feq.valuation),
                expected=0,
                actual=None if feq.is_zero else list(feq.coeffs[:8])))

    res = autoseq.witness_residual(w, pref, n_max)
    first = None if res.is_zero else next(i for i, c in enumerate(res.coeffs) if c) + 1
    report.checks.append(CheckResult(
        "residual_zero", res.is_zero,
        first_fail_n=first,
        expected=0,
        actual=None if res.is_zero else list(res.coeffs)[first - 1]))

    return report


def verify_suite(n_max: int, k_max: int = 4, mutate=None):
    """Verify every built-in plus the all-one patterns k = 1..k_max, in order."""
    specs = list(autoseq.builtin_specs())
    for k in range(1, k_max + 1):
        s = autoseq.pattern(2, k, 2 ** k - 1)
        if s not in specs:
            specs.append(s)
    return [verify(s, n_max, mutate=mutate) for s in specs]
