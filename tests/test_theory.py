"""Closed-form formulas, bounds, structural predictions, and verify()."""

import copy
from fractions import Fraction
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqc import autoseq, lincomp, theory
from seqc.algebra import Poly, PrimeField
from seqc.autoseq import Profile

F2 = PrimeField(2)


def P(*coeffs):
    return Poly(F2, tuple(coeffs))


def allones_branch(k: int, n: int) -> int:
    """Which branch of the exact formula fires for this N (1 or 2)."""
    w = 2 ** k - 1
    return 1 if 2 ** k <= n % (4 * w) <= 3 * w else 2


# The per-N checks ``theory.verify`` ran before it took them on whole
# int64 arrays, kept unchanged as references: each returns what verify
# passes to ``theory._check``, None or (first failing N, expected, actual).

def first_divergence_scan(seq_a, seq_b):
    for n, (x, y) in enumerate(zip(seq_a, seq_b), start=1):
        if x != y:
            return n, x, y
    return None


def exact_formula_oracle(formula, prof_bm, n_max):
    return first_divergence_scan([formula(n) for n in range(1, n_max + 1)], prof_bm)


def theorem1_oracle(prof_bm, d, m):
    return next(((n, "{0.lower} <= L <= {0.upper}".format(theory.general_bounds(d, m, n)), ell)
                 for n, ell in enumerate(prof_bm, start=1)
                 if not theory.bounds_hold(d, m, n, ell)), None)


def attainment_oracle(prof_bm, d, m):
    def attained(n):
        return -((m - n) // d) if n % 4 < 2 else ((d - 1) * n + m + 1) // d

    return next(((n, "lower" if n % 4 < 2 else "upper", ell)
                 for n, ell in enumerate(prof_bm, start=1) if ell != attained(n)), None)


def oracle_checks(spec, prof_bm, n_max):
    """The three profile checks of ``verify`` from the per-N references."""
    w = autoseq.witness(spec)
    checks = {}
    formula = theory.exact_formula_for(spec)
    if formula is not None:
        checks["exact_formula"] = theory._check(
            "exact_formula", exact_formula_oracle(formula, prof_bm, n_max))
    checks["theorem1_bounds"] = theory._check("theorem1_bounds", theorem1_oracle(prof_bm, w.d, w.m))
    if spec.is_all_one_pattern and spec.k == 1:
        checks["bound_attainment"] = theory._check(
            "bound_attainment", attainment_oracle(prof_bm, w.d, w.m))
    return checks


def verify_with_profile(spec, n_max, values):
    """verify's checks, by name, with BM's profile replaced by ``values``."""
    with mock.patch.object(lincomp, "bm_profile", lambda pref, field: Profile(tuple(values))):
        return {c.name: c for c in theory.verify(spec, n_max).checks}


class TestThueMorseExact:
    def test_small_values(self):
        assert theory.thue_morse_exact(2) == 2
        assert theory.thue_morse_exact(4) == 2
        assert theory.thue_morse_exact(7) == 4

    def test_matches_bm_to_512(self):
        pref = autoseq.prefix(autoseq.thue_morse(), 512)
        prof = lincomp.bm_profile(pref, F2)
        for n in range(1, 513):
            assert prof.at(n) == theory.thue_morse_exact(n)

    def test_attainment_pattern(self):
        # lower bound attained when N = 0,1 mod 4, upper when N = 2,3 mod 4
        for n in range(1, 200):
            ell = theory.thue_morse_exact(n)
            if n % 4 in (0, 1):
                assert ell == -((1 - n) // 2)  # ceil((N-1)/2)
            else:
                assert ell == n // 2 + 1


class TestAllOnesExact:
    def test_k1_coincides_with_thue_morse(self):
        for n in range(1, 300):
            assert theory.allones_exact(1, n) == theory.thue_morse_exact(n)

    def test_spec_values(self):
        assert theory.allones_exact(1, 6) == 4
        assert theory.allones_exact(2, 4) == 4
        assert theory.allones_exact(2, 16) == 10

    def test_branches_both_fire(self):
        for k in (1, 2, 3, 4):
            branches = {allones_branch(k, n) for n in range(1, 4 * (2 ** k - 1) + 1)}
            assert branches == {1, 2}

    def test_matches_bm_k_le_3(self):
        for k in (1, 2, 3):
            spec = autoseq.pattern(2, k, 2 ** k - 1)
            pref = autoseq.prefix(spec, 512)
            prof = lincomp.bm_profile(pref, F2)
            for n in range(1, 513):
                assert prof.at(n) == theory.allones_exact(k, n), (k, n)


class TestPerfectProfileExact:
    def test_values(self):
        assert theory.perfect_profile_exact(1) == 1
        assert theory.perfect_profile_exact(2) == 1
        assert theory.perfect_profile_exact(9) == 5

    def test_matches_bm(self):
        pref = autoseq.prefix(autoseq.perfect_profile(), 256)
        prof = lincomp.bm_profile(pref, F2)
        assert all(prof.at(n) == theory.perfect_profile_exact(n) for n in range(1, 257))


class TestGeneralBounds:
    def test_thue_morse_integer_form(self):
        # d=2, M=1: ceil((N-1)/2) <= L <= floor(N/2)+1
        for n in range(1, 100):
            b = theory.general_bounds(2, 1, n)
            assert b.lower == Fraction(n - 1, 2)
            assert b.upper == Fraction(n + 2, 2)

    def test_baum_sweet_form(self):
        b = theory.general_bounds(3, 0, 30)
        assert b.lower == Fraction(30, 3)
        assert b.upper == Fraction(61, 3)

    def test_bounds_hold_is_exact(self):
        assert theory.bounds_hold(2, 1, 10, 5)
        assert not theory.bounds_hold(2, 1, 10, 3)  # below (N-M)/d
        assert not theory.bounds_hold(2, 1, 10, 7)  # above ((d-1)N+M+1)/d

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            theory.general_bounds(0, 1, 5)
        with pytest.raises(ValueError):
            theory.general_bounds(2, 1, 0)


class TestCorollaryBounds:
    def test_sum_of_digits_odd_primes(self):
        # (N-1)/p <= L(N) <= ((p-1)N+2)/p for p in {3, 5}, witness (d=p, M=1)
        for p in (3, 5):
            spec = autoseq.sum_of_digits(p)
            w = autoseq.witness(spec)
            assert (w.d, w.m) == (p, 1)
            pref = autoseq.prefix(spec, 2048)
            prof = lincomp.bm_profile(pref, spec.field)
            for n in range(1, 2049):
                ell = prof.at(n)
                assert n - 1 <= p * ell <= (p - 1) * n + 2, (p, n, ell)

    def test_pattern_p3_k2(self):
        # (N-p^k+1)/p <= L(N) <= ((p-1)N+p^k)/p for p=3, k=2, a in {4, 8}
        for a in (4, 8):
            spec = autoseq.pattern(3, 2, a)
            pref = autoseq.prefix(spec, 2048)
            prof = lincomp.bm_profile(pref, spec.field)
            for n in range(1, 2049):
                ell = prof.at(n)
                assert n - 9 + 1 <= 3 * ell <= 2 * n + 9, (a, n, ell)


class TestCFPrediction:
    def test_spec_values(self):
        assert theory.cf_prediction(1, 1) == P(1, 1, 1)
        assert theory.cf_prediction(1, 5) == P(1, 0, 1)
        assert theory.cf_prediction(2, 1) == P(0, 1, 0, 0, 1)  # x^4+x
        assert theory.cf_prediction(2, 3) == P(1, 0, 0, 0, 1)  # x^4+1
        assert theory.cf_prediction(3, 2) == P(1, 0, 1, 0, 1, 0, 1)  # x^6+x^4+x^2+1

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            theory.cf_prediction(0, 1)
        with pytest.raises(ValueError):
            theory.cf_prediction(1, 0)


class TestFunctionalEquation:
    def test_vanishes_for_all_one_patterns(self):
        for k in (1, 2, 3, 4):
            spec = autoseq.pattern(2, k, 2 ** k - 1)
            res = theory.functional_equation_residual(spec, 256)
            assert res.is_zero, k

    def test_rejects_non_pattern(self):
        with pytest.raises(ValueError):
            theory.functional_equation_residual(autoseq.baum_sweet(), 64)

    def test_detects_corruption(self):
        spec = autoseq.thue_morse()
        pref = autoseq.prefix(spec, 128)
        pref[10] ^= 1
        res = theory.functional_equation_residual(spec, 128, pref=pref)
        assert not res.is_zero


class TestVerify:
    def test_all_builtins_pass(self):
        for spec in autoseq.builtin_specs():
            report = theory.verify(spec, 128)
            assert report.ok, (spec.canonical_name, report.first_failure)

    def test_report_shape(self):
        report = theory.verify(autoseq.thue_morse(), 64)
        names = [c.name for c in report.checks]
        assert "bm_cf_agree" in names
        assert "exact_formula" in names
        assert "theorem1_bounds" in names
        assert "cf_predictions" in names
        assert "residual_zero" in names
        d = report.to_dict()
        assert d["spec"] == "thue-morse"
        assert d["ok"] is True

    def test_corrupted_generator_fails_with_location(self):
        def mutate(pref):
            pref[17] = (pref[17] + 1) % 2
            return pref

        report = theory.verify(autoseq.thue_morse(), 64, mutate=mutate)
        assert not report.ok
        fail = report.first_failure
        assert fail is not None
        assert fail.first_fail_n is not None

    @pytest.mark.parametrize("spec", [autoseq.sum_of_digits(3), autoseq.baum_sweet()])
    def test_corruption_past_1024_fails(self, spec):
        # only the algebraic witness residual sees this corruption, so it
        # must run up to n_max
        def mutate(pref):
            pref[1500] = (pref[1500] + 1) % spec.field.p
            return pref

        report = theory.verify(spec, 2048, mutate=mutate)
        assert not report.ok
        assert report.first_failure.name == "residual_zero"
        assert report.first_failure.first_fail_n == 1501

    def test_functional_equation_covers_n_max(self):
        def mutate(pref):
            pref[1500] ^= 1
            return pref

        report = theory.verify(autoseq.thue_morse(), 2048, mutate=mutate)
        feq = next(c for c in report.checks if c.name == "functional_equation")
        assert not feq.passed
        assert feq.first_fail_n > 1024

    def test_bound_attainment_reads_the_witness(self, monkeypatch):
        # M one higher moves both Theorem 1 bounds, not the profile: the
        # upper bound floor((N+3)/2) = 3 misses L(3) = 2 first
        spec = autoseq.thue_morse()
        assert theory.verify(spec, 64).ok
        w = copy.copy(autoseq.witness(spec))
        object.__setattr__(w, "m", w.m + 1)
        monkeypatch.setattr(autoseq, "witness", lambda _spec: w)
        checks = {c.name: c for c in theory.verify(spec, 64).checks}
        assert checks["exact_formula"].passed
        attain = checks["bound_attainment"]
        assert not attain.passed
        assert (attain.first_fail_n, attain.expected, attain.actual) == (3, "upper", 2)

    def test_zero_series_gets_the_certificate(self):
        # pattern 1111 first occurs at index 15, so the prefix of 8 is all zero
        report = theory.verify(autoseq.pattern(2, 4, 15), 8)
        assert report.ok
        assert "convergent_identities" in [c.name for c in report.checks]

    def test_verify_suite_contains_all_one_patterns(self):
        reports = theory.verify_suite(64, k_max=3)
        names = [r.spec_name for r in reports]
        assert "thue-morse" in names
        assert "pattern(p=2,k=3,a=7)" in names
        assert all(r.ok for r in reports)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=20),
       st.integers(min_value=1, max_value=4096))
def test_bounds_hold_matches_fraction_comparison(d, m, n):
    b = theory.general_bounds(d, m, n)
    for ell in range(0, n + 1):
        assert theory.bounds_hold(d, m, n, ell) == (b.lower <= ell <= b.upper)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4096))
def test_allones_exact_within_theorem1_bounds(k, n):
    # exact formula must sit inside the general bounds with d=2, M=2^k-1
    ell = theory.allones_exact(k, n)
    assert theory.bounds_hold(2, 2 ** k - 1, n, ell)


@given(st.integers(min_value=1, max_value=4096))
def test_thue_morse_exact_is_valid_profile_step(n):
    a, b = theory.thue_morse_exact(n), theory.thue_morse_exact(n + 1)
    assert a <= b <= a + 2


class TestClosedFormsOnArrays:
    @pytest.mark.parametrize("formula", [
        theory.thue_morse_exact, theory.perfect_profile_exact,
        *(lambda n, k=k: theory.allones_exact(k, n) for k in (1, 2, 3, 4)),
    ])
    def test_array_equals_ints(self, formula):
        ns = np.arange(1, 1001, dtype=np.int64)
        values = formula(ns)
        assert values.dtype == np.int64
        assert values.tolist() == [formula(n) for n in range(1, 1001)]
        assert all(type(formula(n)) is int for n in (1, 7, 1000))

    @pytest.mark.parametrize("call", [
        lambda n: theory.thue_morse_exact(n), lambda n: theory.perfect_profile_exact(n),
        lambda n: theory.allones_exact(2, n),
    ])
    @pytest.mark.parametrize("n", [0, -3, np.array([3, 0, 5]), np.array([-1])])
    def test_rejects_n_below_one(self, call, n):
        with pytest.raises(ValueError):
            call(n)

    def test_allones_ints_past_int64(self):
        # k = 70: 2^k and 4(2^k - 1) are past int64, and an int N stays exact
        k, w = 70, 2 ** 70 - 1
        for n in (1, 2 ** 70, 3 * w, 3 * w + 1, 4 * w + 2 ** 70):
            r = n % (4 * w)
            want = (2 * w * (n // (4 * w)) + 2 ** k if 2 ** k <= r <= 3 * w
                    else 2 * w * ((n + 2 ** k - 2) // (4 * w)))
            assert theory.allones_exact(k, n) == want

    def test_allones_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            theory.allones_exact(0, np.arange(1, 9))

    def test_bounds_hold_on_arrays(self):
        ns = np.arange(1, 300, dtype=np.int64)
        ell = (ns * 7) % 150
        got = theory.bounds_hold(3, 2, ns, ell)
        assert got.tolist() == [theory.bounds_hold(3, 2, int(n), int(v)) for n, v in zip(ns, ell)]


class TestFirstDivergence:
    def test_equal_is_none(self):
        assert theory._first_divergence(Profile((0, 1, 1)), (0, 1, 1)) is None

    @given(st.lists(st.integers(0, 3), max_size=40), st.lists(st.integers(0, 3), max_size=40))
    def test_matches_scan(self, a, b):
        assert theory._first_divergence(a, b) == first_divergence_scan(a, b)


# specs with each combination of profile checks: exact formula and
# attainment (Thue-Morse), exact formula alone, neither; over F_2 and F_3
CHECKED_SPECS = [autoseq.thue_morse(), autoseq.rudin_shapiro(), autoseq.pattern(2, 3, 7),
                 autoseq.perfect_profile(), autoseq.baum_sweet(), autoseq.sum_of_digits(3),
                 autoseq.sum_of_digits(2)]


@given(st.sampled_from(CHECKED_SPECS), st.integers(min_value=4, max_value=200),
       st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                          st.sampled_from([-2, -1, 1, 2])), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_array_checks_match_per_n_references(spec, n_max, bumps):
    values = list(lincomp.bm_profile(autoseq.prefix(spec, n_max), spec.field))
    for i, delta in bumps:
        values[i % n_max] += delta
    checks = verify_with_profile(spec, n_max, values)
    for name, expected in oracle_checks(spec, values, n_max).items():
        got = checks[name]
        assert got == expected, name
        assert all(type(v) in (int, str) for v in (got.first_fail_n, got.expected, got.actual)
                   if v is not None), name


@pytest.mark.parametrize("spec", CHECKED_SPECS)
def test_array_checks_pass_where_references_pass(spec):
    n_max = 1024
    values = lincomp.bm_profile(autoseq.prefix(spec, n_max), spec.field)
    checks = verify_with_profile(spec, n_max, values)
    expected = oracle_checks(spec, values, n_max)
    assert all(c.passed for c in expected.values())
    assert {name: checks[name] for name in expected} == expected


class TestProfileNegativeControls:
    """A single-N bump inside a constant run of the profile is caught at that N.

    Thue-Morse's profile is constant on N = 4j+2..4j+5 and sits on the upper
    Theorem 1 bound at 4j+2, 4j+3 and on the lower one at 4j+4, 4j+5, so a
    bump of +1 at 4j+3 or of -1 at 4j+4 leaves both bounds.
    """

    @pytest.mark.parametrize("n, delta", [(1203, 1), (1204, -1), (7, 1), (8, -1)])
    def test_thue_morse_interior_bump(self, n, delta):
        spec, n_max = autoseq.thue_morse(), 2048
        values = list(lincomp.bm_profile(autoseq.prefix(spec, n_max), spec.field))
        assert values[n - 2] == values[n - 1] == values[n]  # L(N-1) = L(N) = L(N+1)
        values[n - 1] += delta
        checks = verify_with_profile(spec, n_max, values)
        for name in ("exact_formula", "theorem1_bounds", "bound_attainment"):
            assert not checks[name].passed, name
            assert checks[name].first_fail_n == n, name
        assert checks == {**checks, **oracle_checks(spec, values, n_max)}

    def test_long_run_of_pattern_2_4_15(self):
        # runs of 30 equal L(N) from 2L(N) - N = M + 1 = 16 down: +1 at the
        # run's second N passes the upper bound (N + M + 1)/2, and a bump in
        # the middle is inside the bounds, so only the closed form sees it
        spec, n_max = autoseq.pattern(2, 4, 15), 2048
        clean = list(lincomp.bm_profile(autoseq.prefix(spec, n_max), spec.field))
        runs, start = [], 1
        for v, run in groupby(clean):
            length = len(list(run))
            runs.append((length, start, v))
            start += length
        length, start, v = max(runs)
        assert length >= 30 and 2 * v - start == 16
        for n, failing in ((start + 1, {"exact_formula", "theorem1_bounds"}),
                           (start + length // 2, {"exact_formula"})):
            values = list(clean)
            values[n - 1] += 1
            checks = verify_with_profile(spec, n_max, values)
            assert checks == {**checks, **oracle_checks(spec, values, n_max)}
            for name in ("exact_formula", "theorem1_bounds"):
                assert checks[name].passed == (name not in failing), (n, name)
                if name in failing:
                    assert checks[name].first_fail_n == n, (n, name)
