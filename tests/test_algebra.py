"""Polynomial and truncated Laurent series arithmetic over prime fields.

``LaurentSeries`` in ``seqc.algebra`` is the record of a truncated input;
the series arithmetic that only the tests' oracles use lives here as free
functions, with the ``Poly`` helpers they need: a sum and difference known
down to the higher of the two precisions, negation, shifts, single
coefficients (``PrecisionError`` below the known range) and the
polynomial part.
"""

from operator import add

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
    _check_same_field,
    _kron_mul,
    _kron_pack,
    _kron_unpack,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def poly_coeff(f, i: int) -> int:
    return f.coeffs[i] if 0 <= i < len(f.coeffs) else 0


def poly_evaluate(f, a: int) -> int:
    p = f.field.p
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * a + c) % p
    return acc


def poly_shift(f, k: int):
    """Multiply by x^k, k >= 0."""
    if f.is_zero:
        return f
    return Poly(f.field, (0,) * k + f.coeffs)


def poly_truncate(f, n: int):
    """Reduce modulo x^n."""
    return Poly(f.field, f.coeffs[:max(n, 0)])


def series_from_poly(poly, low: int):
    """Exact polynomial viewed as a series, known down to exponent ``low``."""
    if poly.is_zero:
        return LaurentSeries.zero(poly.field, low)
    top = int(poly.degree)
    if low > top:
        raise ValueError("low must not exceed the polynomial degree")
    coeffs = tuple(poly_coeff(poly, e) for e in range(top, low - 1, -1))
    return LaurentSeries(poly.field, top, coeffs, low)


def series_coeff(r, e: int) -> int:
    """Coefficient of x^e; raises PrecisionError below the known range."""
    if e < r.low:
        raise PrecisionError(f"coefficient of x^{e} unknown (low={r.low})")
    if r.top is None or e > r.top:
        return 0
    return r.coeffs[r.top - e]


def _series_window(r, top: int, low: int) -> tuple:
    """Coefficients of x^top, ..., x^low, zero-padded; low >= r.low."""
    if r.top is None or r.top < low:
        return (0,) * (top - low + 1)
    return (0,) * (top - r.top) + r.coeffs[:r.top - low + 1]


def series_add(a, b):
    """a + b, known down to the higher of the two ``low``."""
    _check_same_field(a, b)
    low = max(a.low, b.low)
    tops = [s.top for s in (a, b) if s.top is not None]
    if not tops:
        return LaurentSeries.zero(a.field, low)
    top = max(tops)
    if top < low:
        return LaurentSeries.zero(a.field, low)
    coeffs = tuple(map(add, _series_window(a, top, low), _series_window(b, top, low)))
    return LaurentSeries(a.field, top, coeffs, low)


def series_neg(r):
    if r.is_zero:
        return r
    return LaurentSeries(r.field, r.top, tuple(-c for c in r.coeffs), r.low)


def series_sub(a, b):
    return series_add(a, series_neg(b))


def series_shift(r, k: int):
    """Multiply by x^k."""
    if r.is_zero:
        return LaurentSeries.zero(r.field, r.low + k)
    return LaurentSeries(r.field, r.top + k, r.coeffs, r.low + k)


def polynomial_part(r):
    """Pol(R): the terms with exponent >= 0 as a polynomial in x."""
    if r.is_zero or r.top < 0:
        return Poly.zero(r.field)
    if r.low > 0:
        raise PrecisionError("constant term not covered by known range")
    return Poly(r.field, tuple(series_coeff(r, e) for e in range(r.top + 1)))


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
        assert [series_coeff(prod, -i) for i in range(2, n + 2)] == [v % p for v in want[:n]]


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
        assert [series_coeff(r, -i) for i in range(1, 5)] == [0, 1, 1, 0]

    def test_from_prefix_all_zero(self):
        r = LaurentSeries.from_prefix([0, 0, 0], F2)
        assert r.is_zero
        assert r.low == -3

    def test_thue_morse_prefix8(self):
        r = LaurentSeries.from_prefix([0, 1, 1, 0, 1, 0, 0, 1], F2)
        assert [i for i in range(1, 9) if series_coeff(r, -i)] == [2, 3, 5, 8]

    def test_coeff_below_precision_raises(self):
        r = LaurentSeries.from_prefix([0, 1, 1, 0], F2)
        with pytest.raises(PrecisionError):
            series_coeff(r, -5)

    def test_inverse_monomial(self):
        r = LaurentSeries(F2, -1, (1, 0, 0, 0), -4)  # x^-1 known down to x^-4
        assert polynomial_part(series_inverse(r)) == P(F2, 0, 1)

    def test_inverse_all_one_series(self):
        # U = sum x^-i for i >= 0; (1 + x^-1) U = 1 over F_2
        u = LaurentSeries(F2, 0, (1,) * 12, -11)
        inv = series_inverse(u)
        assert polynomial_part(inv) == Poly.one(F2)
        assert series_coeff(inv, -1) == 1
        assert all(series_coeff(inv, -i) == 0 for i in range(2, 10))

    def test_polynomial_part(self):
        r = LaurentSeries(F2, 2, (1, 0, 1, 1), -1)  # x^2 + 1 + x^-1
        assert polynomial_part(r) == P(F2, 1, 0, 1)
        s = LaurentSeries.from_prefix([1, 1], F2)
        assert polynomial_part(s).is_zero

    def test_valuation_examples(self):
        r = LaurentSeries.from_prefix([0, 1, 1], F2)
        assert r.valuation == -2
        x3 = series_from_poly(Poly.monomial(F2, 3), 0)
        xm1 = series_shift(series_from_poly(Poly.one(F2), 0), -1)
        assert (xm1 * x3).valuation == 2

    def test_valuation_of_sum_distinct(self):
        r = series_from_poly(Poly.monomial(F3, 3), 0)
        s = series_from_poly(Poly.monomial(F3, 1), 0)
        assert series_add(r, s).valuation == 3

    def test_mul_precision_is_pessimistic(self):
        a = LaurentSeries.from_prefix([1, 0, 1, 1], F2)  # knows x^-1..x^-4
        b = LaurentSeries.from_prefix([1, 1], F2)  # knows x^-1..x^-2
        prod = a * b
        series_coeff(prod, -3)
        with pytest.raises(PrecisionError):
            series_coeff(prod, prod.low - 1)


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
    assert all(series_coeff(prod, prod.top - i) == 0 for i in range(1, known + 1))


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
    c = series_add(a, b)
    assert c.low == max(a.low, b.low)
    top = max([s.top for s in (a, b) if s.top is not None], default=c.low)
    for e in range(c.low, top + 2):
        assert series_coeff(c, e) == (series_coeff(a, e) + series_coeff(b, e)) % p
    assert (f + g).coeffs == Poly(f.field, tuple(
        poly_coeff(f, i) + poly_coeff(g, i) for i in range(31))).coeffs
