"""Polynomial and truncated Laurent series arithmetic over prime fields.

``LaurentSeries`` in ``seqc.algebra`` is the record of a truncated input;
the series arithmetic that only the tests' oracles use lives here as free
functions, with the ``Poly`` helpers they need: a sum and difference known
down to the higher of the two precisions, negation, shifts, single
coefficients (``PrecisionError`` below the known range) and the
polynomial part.
"""

import contextlib
import math
import random
import re
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqc import algebra, expcomp, lincomp
from seqc.algebra import (
    NEG_INF,
    FieldMismatchError,
    LaurentSeries,
    Poly,
    PrecisionError,
    PrimeField,
    _check_same_field,
    _fft_mul,
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


class TestSymbolValidation:
    """Symbols are what ``operator.index`` accepts, in [0, p), at every entry point."""

    ENTRY_POINTS = {
        "bm_profile": lincomp.bm_profile,
        "bm_connection": lincomp.bm_connection,
        "from_prefix": LaurentSeries.from_prefix,
        "expansion_profile": expcomp.expansion_profile,
    }

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("bad", [0.5, "1", None, 1.0])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_a_non_integer_is_named(self, entry, bad, p):
        with pytest.raises(ValueError, match=re.escape(f"symbol {bad!r} is not an integer")):
            self.ENTRY_POINTS[entry]([1, 0, bad, 1], PrimeField(p))

    @pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_a_symbol_outside_the_field_is_named(self, entry, p):
        for bad in (-1, p, 2**70):
            with pytest.raises(ValueError, match=f"symbol {bad} outside F_{p}"):
                self.ENTRY_POINTS[entry]([1, 0, bad, 1], PrimeField(p))

    @pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
    def test_bools_numpy_integers_and_arrays_are_symbols(self, p):
        field = PrimeField(p)
        plain = [0, 1, 1, 0, 1, 1, 1, 0, 0, 1]
        want = lincomp.bm_connection(plain, field)
        for u in ([bool(v) for v in plain], [np.int64(v) for v in plain],
                  [np.uint8(v) for v in plain], np.array(plain), np.array(plain, dtype=np.uint8),
                  tuple(plain), range(2)):
            symbols = field.validate_symbols(u)
            assert symbols == tuple(u) and {type(v) for v in symbols} == {int}
            if len(u) == len(plain):
                assert lincomp.bm_connection(u, field) == want


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


# one limb of 11 bits per coefficient up to p = 2039, two from 2053 on
# (65521 too) and three at 2^31 - 1
FFT_PRIMES = [2, 3, 5, 2039, 2053, 65521, P31]


def percival_bound(length, magnitude):
    """Percival's bound on a float64 FFT convolution's error: transform ``length`` (a power
    of two), operands of at most ``length`` entries of magnitude at most ``magnitude``.

    Unit roundoff e = 2^-53, and roots of unity off by at most e.
    """
    k = length.bit_length() - 1
    e = 2.0**-53
    growth = math.expm1(6 * k * math.log1p(e) + (3 * k + 1) * math.log1p(e * math.sqrt(5)))
    return length * magnitude**2 * growth


def triangle(la, lb):
    """Entry k of the convolution of la ones with lb ones: the number of i + j = k."""
    k = np.arange(la + lb - 1)
    return np.minimum.reduce([k + 1, np.full_like(k, la), np.full_like(k, lb), la + lb - 1 - k])


@contextlib.contextmanager
def transforms(limit=None, direct=None):
    """The sizes of the forward transforms taken, with ``_MAX_TRANSFORM`` and ``_DIRECT`` set."""
    sizes = []
    real = np.fft.rfft
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "rfft", lambda x, n: sizes.append(n) or real(x, n))
        if limit is not None:
            mp.setattr(algebra, "_MAX_TRANSFORM", limit)
        if direct is not None:
            mp.setattr(algebra, "_DIRECT", direct)
        yield sizes


@st.composite
def fft_operands(draw):
    p = draw(st.sampled_from(FFT_PRIMES))
    coeffs = st.lists(st.integers(0, p - 1) | st.just(p - 1), max_size=300)
    return p, draw(coeffs), draw(coeffs), draw(st.booleans())


# limits: the real one, and 16 and 64, which split every transformed product
# of a few coefficients; _DIRECT 0 sends every product through the transform
@given(fft_operands(), st.sampled_from([None, 16, 64]), st.sampled_from([None, 0]))
@example((2, [1] * 7, [1, 0, 1], False), None, None)
@example((3, [2] * 100, [2] * 300, True), None, None)
@example((P31, [P31 - 1], [P31 - 1, 5], False), 16, 0)
@example((P31, [P31 - 1] * 300, [P31 - 1] * 300, True), None, None)
@example((65521, [65520] * 300, [65520] * 7, False), 64, 0)
@example((2039, [2038] * 200, [2038] * 201, False), None, None)
@example((2053, [2052] * 200, [2052] * 201, False), 16, None)
@example((5, [], [1, 2], True), None, 0)
@settings(max_examples=80, deadline=None)
def test_fft_mul_matches_schoolbook_mod_p(case, limit, direct):
    p, xs, ys, as_array = case
    want = schoolbook_mod_p(xs, ys, p)
    if as_array:
        xs, ys = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    with transforms(limit, direct) as sizes:
        got = _fft_mul(xs, ys, p)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert all(size <= (limit or algebra._MAX_TRANSFORM) for size in sizes)


def test_the_bound_holds_at_the_limit():
    """The docstring's figure: Percival's bound at 2^11 and 2^20 is 0.13, under 1/2."""
    bound = percival_bound(algebra._MAX_TRANSFORM, 2**algebra._LIMB_BITS)
    assert round(bound, 2) == 0.13
    # one more bit, or a transform four times as long, would not be safe
    assert percival_bound(algebra._MAX_TRANSFORM, 2**(algebra._LIMB_BITS + 1)) > 0.5
    assert percival_bound(4 * algebra._MAX_TRANSFORM, 2**algebra._LIMB_BITS) > 0.5


def test_convolve_worst_case_at_the_limit():
    """Every entry +-2^11, one transform of the longest length: exact, within the bound."""
    n = algebra._MAX_TRANSFORM
    x, y = np.full(n // 2, 2**11), np.full(n // 2 + 1, -(2**11))
    with transforms() as sizes:
        got = algebra._convolve(x, y)
    assert sizes == [n, n]
    want = -triangle(len(x), len(y)) * 2**22
    assert np.array_equal(got, want)
    raw = np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(y, n), n)
    assert np.abs(raw - want).max() <= percival_bound(n, 2**11)


@pytest.mark.parametrize("p, stride", [(65521, 3), (P31, 5)])
def test_every_entry_p_minus_1_at_the_limit(p, stride):
    """The longest operands of p - 1 that one transform takes: (p-1)^2 = 1, so a*b is the triangle."""
    count = algebra._MAX_TRANSFORM // stride
    la = count // 2
    a, b = np.full(la, p - 1), np.full(count + 1 - la, p - 1)
    with transforms() as sizes:
        got = _fft_mul(a, b, p)
    assert sizes == [algebra._MAX_TRANSFORM] * 2
    assert np.array_equal(got, triangle(len(a), len(b)) % p)


@pytest.mark.parametrize("p", [3, 5, 2053, P31])
@pytest.mark.parametrize("limit", [None, 64])
def test_lowered_limit_splits_the_operands(p, limit):
    """Under a limit of 64 every transform is at most 64 long, and the product is the same."""
    rng = random.Random(p)
    xs = [rng.randrange(p) for _ in range(150)]
    ys = [rng.randrange(p) for _ in range(97)] + [p - 1] * 40
    with transforms(limit, 0) as sizes:
        got = _fft_mul(xs, ys, p)
    assert got.tolist() == schoolbook_mod_p(xs, ys, p)
    if limit:
        assert max(sizes) <= limit and len(sizes) > 2
        assert percival_bound(limit, 2**algebra._LIMB_BITS) < 0.5


@pytest.mark.parametrize("p", FFT_PRIMES)
def test_flipped_coefficient_moves_the_product(p):
    """a*b is linear in a: a_i + delta moves the product by exactly delta x^i b."""
    rng = random.Random(p)
    a = [rng.randrange(p) for _ in range(700)]
    b = np.array([rng.randrange(p) for _ in range(500)], dtype=np.int64)
    base = _fft_mul(a, b, p)
    for i in (0, rng.randrange(700), 699):
        delta = rng.randrange(1, p)
        flipped = list(a)
        flipped[i] = (a[i] + delta) % p
        want = np.zeros(len(base), dtype=np.int64)
        want[i:i + len(b)] = b * delta % p
        assert np.array_equal((_fft_mul(flipped, b, p) - base) % p, want)


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

    @given(st.sampled_from([2, 3, 5, 2**31 - 1]).flatmap(lambda p: st.tuples(
        st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=20))),
        st.integers(0, 4))
    def test_from_prefix_equals_the_general_constructor(self, case, zeros):
        # from_prefix skips __post_init__'s reduction; the record is the same
        p, xs = case
        field = PrimeField(p)
        xs = [0] * zeros + xs
        r = LaurentSeries.from_prefix(xs, field)
        assert r == LaurentSeries(field, -1, tuple(xs), -len(xs))
        assert r == LaurentSeries.from_prefix([np.int64(v) for v in xs], field)
        assert {type(c) for c in r.coeffs} <= {int}

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
