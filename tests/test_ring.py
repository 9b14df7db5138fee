"""``ring.Ring``: each field's polynomial form against ``Poly`` references.

Every operation runs in the form the field chooses, bit-packed ints at
p = 2, ``gf3`` slices at p = 3 and int64 arrays otherwise, and its
output, read back by ``to_poly``, must equal the same operation on
``Poly``.  Products are checked against the schoolbook product of
``test_algebra``, not against ``Poly``'s, which shares the float product
``algebra._fft_mul`` with the int64 form.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from seqc import algebra, ring
from seqc.algebra import Poly, PrimeField
from seqc.ring import Ring
from test_algebra import poly_truncate, schoolbook_mod_p

P31 = 2**31 - 1
PRIMES = (2, 3, 5, P31)


def spread(f, stride):
    """f(x^stride) in full."""
    out = [0] * (stride * (len(f.coeffs) - 1) + 1) if f.coeffs else []
    out[::stride] = f.coeffs
    return Poly(f.field, tuple(out))


def product(f, g):
    return Poly(f.field, tuple(schoolbook_mod_p(f.coeffs, g.coeffs, f.field.p)))


def check_ring(field, a_coeffs, b_coeffs, n, stride):
    ring = Ring(field)
    to_poly = ring.to_poly
    a_ref, b_ref = Poly(field, tuple(a_coeffs)), Poly(field, tuple(b_coeffs))
    a, b = ring.from_coeffs(a_coeffs), ring.from_coeffs(b_coeffs)
    assert to_poly(a) == a_ref and to_poly(b) == b_ref
    assert ring.degree(a) == len(a_ref.coeffs) - 1
    assert to_poly(ring.add(a, b)) == a_ref + b_ref
    assert to_poly(ring.sub(a, b)) == a_ref - b_ref
    assert to_poly(ring.mul(a, b)) == product(a_ref, b_ref)
    assert ring.degree(ring.mul(a, b)) == max(product(a_ref, b_ref).degree, -1)
    high, low = ring.split(a, n)
    assert to_poly(low) == poly_truncate(a_ref, n)
    assert to_poly(high) == Poly(field, a_ref.coeffs[n:])
    assert to_poly(ring.monomial(n)) == Poly.monomial(field, n)
    # n below, at and above the length of the spread a(x^stride)
    length = len(spread(a_ref, stride).coeffs)
    for cut in {max(length - 1, 0), length, length + stride, n}:
        assert to_poly(ring.stretch(a, stride, cut)) == poly_truncate(spread(a_ref, stride), cut)
    # mul_add takes a quotient and two terms; divmod two terms
    c = ring.from_coeffs(b_coeffs[::-1])
    got = ring.value(ring.mul_add(a, ring.term(b), ring.term(c)))
    assert to_poly(got) == product(a_ref, b_ref) + to_poly(c)
    if not b_ref.is_zero:
        q, r = ring.divmod(ring.term(ring.from_coeffs(a_coeffs)), ring.term(b))
        assert (to_poly(q), to_poly(ring.value(r))) == divmod(a_ref, b_ref)


@pytest.mark.parametrize("p", PRIMES)
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_operations_match_poly(p, data):
    coeffs = st.lists(st.integers(0, p - 1) | st.sampled_from([0, 1, p - 1]), max_size=40)
    check_ring(PrimeField(p), data.draw(coeffs), data.draw(coeffs), data.draw(st.integers(0, 50)),
               data.draw(st.integers(1, 7)))


@pytest.mark.parametrize("p", PRIMES)
def test_zero_operands(p):
    field = PrimeField(p)
    check_ring(field, [], [1, 2 % p, 0, 1], 3, 2)
    check_ring(field, [0, 1], [], 5, 3)
    check_ring(field, [0, 0, 0], [0], 0, 1)


def test_dense_product_in_three_limbs(monkeypatch):
    """A dense product at 2^31 - 1, three 11-bit limbs per coefficient, by one float product."""
    calls = []
    real = ring._fft_mul
    monkeypatch.setattr(ring, "_fft_mul", lambda *args: calls.append(args[2]) or real(*args))
    rng = random.Random(31)
    a = [P31 - 1] * 48 + [rng.randrange(P31) for _ in range(80)]
    b = [rng.randrange(P31) for _ in range(63)] + [P31 - 1] * 65
    assert -(-(P31 - 1).bit_length() // algebra._LIMB_BITS) == 3
    field = PrimeField(P31)
    r = Ring(field)
    got = r.mul(r.from_coeffs(a), r.from_coeffs(b))
    assert calls == [P31]
    assert r.to_poly(got) == Poly(field, tuple(schoolbook_mod_p(a, b, P31)))


@pytest.mark.parametrize("p", [5, 65521, P31])
@pytest.mark.parametrize("short", [1, 3, 16])
def test_short_factor_takes_slice_updates(p, short, monkeypatch):
    """A factor with _SLICE_ENTRIES entries of the other per nonzero coefficient is one
    slice update per nonzero coefficient, with no float product; one entry fewer takes the
    float product.  A long factor with few nonzero entries counts as short."""
    calls = []
    real = ring._fft_mul
    monkeypatch.setattr(ring, "_fft_mul", lambda *args: calls.append(1) or real(*args))
    rng = random.Random(p * short)
    field = PrimeField(p)
    r = Ring(field)
    a = [rng.choice([1, p - 1, rng.randrange(1, p)]) for _ in range(short - 1)] + [p - 1]
    sparse = [0] * 3000
    for i in rng.sample(range(2999), short - 1) + [2999]:
        sparse[i] = rng.randrange(1, p)
    for x, long, fft in ((a, short * ring._SLICE_ENTRIES, 0),
                         (a, short * ring._SLICE_ENTRIES - 1, 1),
                         (sparse, short * ring._SLICE_ENTRIES, 0)):
        y = [rng.randrange(p) for _ in range(long - 1)] + [p - 1]
        calls.clear()
        # the sparse factor against ``Poly``'s float product, to keep the schoolbook short
        want = (schoolbook_mod_p(x, y, p) if x is a
                else list((Poly(field, tuple(x)) * Poly(field, tuple(y))).coeffs))
        for u, v in ((x, y), (y, x)):
            assert r.mul(r.from_coeffs(u), r.from_coeffs(v)).tolist() == want
        assert calls == [1, 1] * fft
