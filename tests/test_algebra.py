"""Polynomial and truncated Laurent series arithmetic over prime fields."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqc.algebra import (
    NEG_INF,
    FieldMismatchError,
    LaurentSeries,
    Poly,
    PrecisionError,
    PrimeField,
    _kron_mul,
    _kron_pack,
    _kron_unpack,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def series_inverse(r):
    """Multiplicative inverse, correct to the same number of coefficients.

    Generalizes the F_2 convolution recursion to any prime p by dividing
    through by the leading coefficient.
    """
    if r.is_zero:
        raise ZeroDivisionError("cannot invert the zero series")
    p = r.field.p
    c = r.coeffs
    n = len(c)
    lead_inv = r.field.inv(c[0])
    z = [0] * n
    z[0] = lead_inv
    for i in range(1, n):
        s = sum(c[j] * z[i - j] for j in range(1, i + 1)) % p
        z[i] = (-lead_inv * s) % p
    top = -r.top
    return LaurentSeries(r.field, top, tuple(z), top - n + 1)


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

    def test_divmod_f3_hand_checked(self):
        # (x^3 + 2x) / (x^2 + 1) = x remainder x over F_3
        q, r = divmod(P(F3, 0, 2, 0, 1), P(F3, 1, 0, 1))
        assert q == P(F3, 0, 1)
        assert r == P(F3, 0, 1)

    def test_field_mismatch_raises(self):
        with pytest.raises(FieldMismatchError):
            P(F2, 1) + P(F3, 1)

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
        prod = LaurentSeries.from_prefix(xs, field) * LaurentSeries.from_prefix(ys, field)
        n = min(len(xs), len(ys))
        assert [prod.coeff(-i) for i in range(2, n + 2)] == [v % p for v in want[:n]]


P31 = 2**31 - 1


def schoolbook_mod_p(xs, ys, p):
    want = [0] * (len(xs) + len(ys) - 1) if len(xs) and len(ys) else []
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            want[i + j] += int(x) * int(y)
    return [v % p for v in want]


@st.composite
def kron_operands(draw):
    p = draw(st.sampled_from([2, 3, 5, 65521, P31]))
    coeffs = st.lists(st.integers(0, p - 1) | st.just(p - 1), max_size=300)
    return p, draw(coeffs), draw(coeffs), draw(st.booleans())


# a slot holds min(len a, len b) (p-1)^2: 1 byte at p = 2, 2 bytes at p = 3
# and length 100, 8 bytes at p = 2^31 - 1 and length 1, 9 bytes from length 5
@given(kron_operands())
@example((2, [1] * 7, [1, 0, 1], False))
@example((3, [2] * 100, [2] * 300, True))
@example((P31, [P31 - 1], [P31 - 1, 5], False))
@example((P31, [P31 - 1] * 300, [P31 - 1] * 300, True))
@example((65521, [65520] * 300, [65520] * 7, False))
@example((5, [], [1, 2], True))
@settings(max_examples=80, deadline=None)
def test_kron_mul_matches_schoolbook_mod_p(case):
    p, xs, ys, as_array = case
    want = schoolbook_mod_p(xs, ys, p)
    if as_array:
        xs, ys = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    got = _kron_mul(xs, ys, p)
    assert got.dtype == np.int64
    assert got.tolist() == want


@pytest.mark.parametrize("p, width", [(p, w) for p in (2, 3, P31) for w in (1, 2, 3, 4, 5, 8, 9, 16)
                                      if 256**w > (p - 1) ** 2])
def test_kron_slots_of_every_width(p, width):
    """Packed, multiplied and unpacked at a forced slot width: the schoolbook product mod p.

    Widths 1, 2, 4 and 8 go through one unsigned integer per slot, the
    others through zero-padded uint64 words.  The shorter operand is as
    long as the width allows, up to 40, and all p - 1, so the largest
    slot sum fills the slot as far as it can.
    """
    n = min(40, (256**width - 1) // (p - 1) ** 2)
    rng = np.random.default_rng(width)
    a = np.full(n, p - 1, dtype=np.uint64)
    b = rng.integers(0, p, n + 3).astype(np.uint64)
    got = _kron_unpack(_kron_pack(a, width) * _kron_pack(b, width), 2 * n + 2, width, p)
    assert got.dtype == np.int64
    assert got.tolist() == schoolbook_mod_p(a, b, p)


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
        r = LaurentSeries.from_prefix([0, 1, 1, 0], F2)
        assert r.valuation == -2
        assert r.low == -4
        assert [r.coeff(-i) for i in range(1, 5)] == [0, 1, 1, 0]

    def test_from_prefix_all_zero(self):
        r = LaurentSeries.from_prefix([0, 0, 0], F2)
        assert r.is_zero
        assert r.low == -3

    def test_thue_morse_prefix8(self):
        r = LaurentSeries.from_prefix([0, 1, 1, 0, 1, 0, 0, 1], F2)
        assert [i for i in range(1, 9) if r.coeff(-i)] == [2, 3, 5, 8]

    def test_coeff_below_precision_raises(self):
        r = LaurentSeries.from_prefix([0, 1, 1, 0], F2)
        with pytest.raises(PrecisionError):
            r.coeff(-5)

    def test_inverse_monomial(self):
        r = LaurentSeries(F2, -1, (1, 0, 0, 0), -4)  # x^-1 known down to x^-4
        assert series_inverse(r).polynomial_part() == P(F2, 0, 1)

    def test_inverse_all_one_series(self):
        # U = sum x^-i for i >= 0; (1 + x^-1) U = 1 over F_2
        u = LaurentSeries(F2, 0, (1,) * 12, -11)
        inv = series_inverse(u)
        assert inv.polynomial_part() == Poly.one(F2)
        assert inv.coeff(-1) == 1
        assert all(inv.coeff(-i) == 0 for i in range(2, 10))

    def test_polynomial_part(self):
        r = LaurentSeries(F2, 2, (1, 0, 1, 1), -1)  # x^2 + 1 + x^-1
        assert r.polynomial_part() == P(F2, 1, 0, 1)
        s = LaurentSeries.from_prefix([1, 1], F2)
        assert s.polynomial_part().is_zero

    def test_valuation_examples(self):
        r = LaurentSeries.from_prefix([0, 1, 1], F2)
        assert r.valuation == -2
        x3 = LaurentSeries.from_poly(Poly.monomial(F2, 3), 0)
        xm1 = LaurentSeries.from_poly(Poly.one(F2), 0).shift(-1)
        assert (xm1 * x3).valuation == 2

    def test_valuation_of_sum_distinct(self):
        r = LaurentSeries.from_poly(Poly.monomial(F3, 3), 0)
        s = LaurentSeries.from_poly(Poly.monomial(F3, 1), 0)
        assert (r + s).valuation == 3

    def test_mul_precision_is_pessimistic(self):
        a = LaurentSeries.from_prefix([1, 0, 1, 1], F2)  # knows x^-1..x^-4
        b = LaurentSeries.from_prefix([1, 1], F2)  # knows x^-1..x^-2
        prod = a * b
        prod.coeff(-3)
        with pytest.raises(PrecisionError):
            prod.coeff(prod.low - 1)


@pytest.mark.parametrize("p", [5, 2**31 - 1])
@given(data=st.data())
def test_series_inverse_roundtrip_f5(p, data):
    xs = data.draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=1, max_size=16))
    r = LaurentSeries.from_prefix(xs, PrimeField(p))
    if r.is_zero:
        return
    prod = r * series_inverse(r)
    assert prod.valuation == 0
    assert prod.coeffs[0] == 1
    known = min(8, prod.top - prod.low)
    assert all(prod.coeff(prod.top - i) == 0 for i in range(1, known + 1))


@st.composite
def sum_operands(draw):
    """(p, two series of any top and low, zero ones included, two polynomials)."""
    p = draw(st.sampled_from([2, 3, 2**31 - 1]))
    field = PrimeField(p)
    coeffs = st.lists(st.integers(min_value=0, max_value=p - 1), max_size=30)

    def series():
        low, cs = draw(st.integers(min_value=-30, max_value=5)), draw(coeffs)
        if not cs:
            return LaurentSeries.zero(field, low)
        return LaurentSeries(field, low + len(cs) - 1, tuple(cs), low)

    return p, series(), series(), Poly(field, tuple(draw(coeffs))), Poly(field, tuple(draw(coeffs)))


@given(sum_operands())
def test_series_add_matches_termwise(operands):
    p, a, b, f, g = operands
    c = a + b
    assert c.low == max(a.low, b.low)
    top = max([s.top for s in (a, b) if s.top is not None], default=c.low)
    for e in range(c.low, top + 2):
        assert c.coeff(e) == (a.coeff(e) + b.coeff(e)) % p
    assert (f + g).coeffs == Poly(f.field, tuple(f.coeff(i) + g.coeff(i) for i in range(31))).coeffs
