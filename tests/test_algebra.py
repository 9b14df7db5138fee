"""Polynomial and truncated Laurent series arithmetic over prime fields."""

import pytest
from hypothesis import given, settings, strategies as st

from seqc.algebra import (
    NEG_INF,
    FieldMismatchError,
    LaurentSeries,
    Poly,
    PrecisionError,
    PrimeField,
    poly_gcd,
    poly_pow_mod_tN,
    series_from_prefix,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def P(field, *coeffs):
    return Poly(field, tuple(coeffs))


class TestPrimeField:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 46337, 2147483647):
            assert PrimeField(p).p == p

    def test_rejects_composites_and_small(self):
        for bad in (0, 1, 4, 6, 9, 46340, 2147483647 + 2):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_symbol_validation(self):
        F3.validate_symbol(2)
        with pytest.raises(ValueError):
            F3.validate_symbol(3)
        with pytest.raises(ValueError):
            F3.validate_symbol(-1)


class TestPoly:
    def test_normalization_drops_leading_zeros(self):
        assert P(F2, 1, 0, 1, 0, 0).coeffs == (1, 0, 1)
        assert P(F3, 0, 0, 0).coeffs == ()

    def test_zero_degree_is_neg_inf(self):
        assert Poly.zero(F2).degree == NEG_INF
        assert P(F2, 1).degree == 0

    def test_frobenius_square_char2(self):
        # (x+1)^2 = x^2+1 over F_2
        a = P(F2, 1, 1)
        assert a * a == P(F2, 1, 0, 1)

    def test_gcd_char2(self):
        # gcd(x^2+1, x+1) = x+1 since x^2+1 = (x+1)^2
        g = poly_gcd(P(F2, 1, 0, 1), P(F2, 1, 1))
        assert g == P(F2, 1, 1)

    def test_divmod_f3_hand_checked(self):
        # (x^3 + 2x) / (x^2 + 1) = x remainder x over F_3
        q, r = divmod(P(F3, 0, 2, 0, 1), P(F3, 1, 0, 1))
        assert q == P(F3, 0, 1)
        assert r == P(F3, 0, 1)

    def test_field_mismatch_raises(self):
        with pytest.raises(FieldMismatchError):
            P(F2, 1) + P(F3, 1)

    def test_pow_mod_tn(self):
        one_plus_t = P(F2, 1, 1)
        assert poly_pow_mod_tN(one_plus_t, 2, 2) == P(F2, 1)
        assert poly_pow_mod_tN(one_plus_t, 3, 3) == P(F2, 1, 1, 1)
        assert poly_pow_mod_tN(P(F5, 3, 1, 4), 0, 7) == Poly.one(F5)

    def test_large_prime_path(self):
        # convolution sums of (p-1)^2 terms overflow int64 at this p
        field = PrimeField(2147483647)
        a = Poly(field, (2147483646, 1))
        b = a * a
        assert b == Poly(field, (1, 2147483645, 1))


coeff_lists = st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=12)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_poly_ring_axioms_f3(xs, ys, zs):
    a, b, c = P(F3, *xs), P(F3, *ys), P(F3, *zs)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(st.sampled_from([2, 3, 2147483647]), st.data())
def test_poly_mul_matches_schoolbook(p, data):
    field = PrimeField(p)
    coeffs = st.lists(st.integers(min_value=0, max_value=p - 1), max_size=40)
    xs, ys = data.draw(coeffs), data.draw(coeffs)
    want = [0] * max(len(xs) + len(ys) - 1, 0)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            want[i + j] += x * y
    assert P(field, *xs) * P(field, *ys) == P(field, *want)
    if any(xs) and any(ys):
        # a series product keeps as many top coefficients as the shorter factor
        prod = series_from_prefix(xs, field) * series_from_prefix(ys, field)
        n = min(len(xs), len(ys))
        assert [prod.coeff(-i) for i in range(2, n + 2)] == [v % p for v in want[:n]]


@given(coeff_lists, coeff_lists)
def test_poly_divmod_roundtrip_f3(xs, ys):
    a, b = P(F3, *xs), P(F3, *ys)
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(st.integers(min_value=0, max_value=4), coeff_lists)
def test_frobenius_power_property(e, xs):
    # a(t)^(p^e) = a(t^(p^e)) in characteristic p
    a = P(F3, *xs)
    q = 3 ** e
    lhs = a ** q
    spread = [0] * (q * len(a.coeffs))
    for i, c in enumerate(a.coeffs):
        spread[q * i] = c
    assert lhs == P(F3, *spread)


class TestLaurentSeries:
    def test_from_prefix_reindexes(self):
        # u_0..u_3 = 0,1,1,0 becomes x^-2 + x^-3 known down to x^-4
        r = series_from_prefix([0, 1, 1, 0], F2)
        assert r.valuation == -2
        assert r.low == -4
        assert [r.coeff(-i) for i in range(1, 5)] == [0, 1, 1, 0]

    def test_from_prefix_all_zero(self):
        r = series_from_prefix([0, 0, 0], F2)
        assert r.is_zero
        assert r.low == -3

    def test_thue_morse_prefix8(self):
        r = series_from_prefix([0, 1, 1, 0, 1, 0, 0, 1], F2)
        assert [i for i in range(1, 9) if r.coeff(-i)] == [2, 3, 5, 8]

    def test_coeff_below_precision_raises(self):
        r = series_from_prefix([0, 1, 1, 0], F2)
        with pytest.raises(PrecisionError):
            r.coeff(-5)

    def test_inverse_monomial(self):
        r = LaurentSeries(F2, -1, (1, 0, 0, 0), -4)  # x^-1 known down to x^-4
        assert r.inverse().polynomial_part() == P(F2, 0, 1)

    def test_inverse_all_one_series(self):
        # U = sum x^-i for i >= 0; (1 + x^-1) U = 1 over F_2
        u = LaurentSeries(F2, 0, (1,) * 12, -11)
        inv = u.inverse()
        assert inv.polynomial_part() == Poly.one(F2)
        assert inv.coeff(-1) == 1
        assert all(inv.coeff(-i) == 0 for i in range(2, 10))

    def test_polynomial_part(self):
        r = LaurentSeries(F2, 2, (1, 0, 1, 1), -1)  # x^2 + 1 + x^-1
        assert r.polynomial_part() == P(F2, 1, 0, 1)
        s = series_from_prefix([1, 1], F2)
        assert s.polynomial_part().is_zero

    def test_valuation_examples(self):
        r = series_from_prefix([0, 1, 1], F2)
        assert r.valuation == -2
        x3 = LaurentSeries.from_poly(Poly.monomial(F2, 3), 0)
        xm1 = LaurentSeries.from_poly(Poly.one(F2), 0).shift(-1)
        assert (xm1 * x3).valuation == 2

    def test_valuation_of_sum_distinct(self):
        r = LaurentSeries.from_poly(Poly.monomial(F3, 3), 0)
        s = LaurentSeries.from_poly(Poly.monomial(F3, 1), 0)
        assert (r + s).valuation == 3

    def test_mul_precision_is_pessimistic(self):
        a = series_from_prefix([1, 0, 1, 1], F2)  # knows x^-1..x^-4
        b = series_from_prefix([1, 1], F2)  # knows x^-1..x^-2
        prod = a * b
        prod.coeff(-3)
        with pytest.raises(PrecisionError):
            prod.coeff(prod.low - 1)


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=16))
def test_series_inverse_roundtrip_f5(xs):
    r = series_from_prefix(xs, F5)
    if r.is_zero:
        return
    prod = r * r.inverse()
    assert prod.valuation == 0
    assert prod.coeffs[0] == 1
    known = min(8, prod.top - prod.low)
    assert all(prod.coeff(prod.top - i) == 0 for i in range(1, known + 1))


@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=20),
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=20),
)
def test_series_add_matches_termwise(xs, ys):
    a = series_from_prefix(xs, F2)
    b = series_from_prefix(ys, F2)
    c = a + b
    n = min(len(xs), len(ys))
    for i in range(1, n + 1):
        assert c.coeff(-i) == (xs[i - 1] + ys[i - 1]) % 2
