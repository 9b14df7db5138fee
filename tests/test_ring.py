"""``ring.Ring``: each field's polynomial form against ``Poly`` references.

Every operation runs in the form the field chooses, bit-packed ints at
p = 2, ``gf3`` slices at p = 3 and int64 arrays otherwise, and its
output, read back by ``to_poly``, must equal the same operation on
``Poly``.  Products are checked against the schoolbook product of
``test_algebra``, not against ``Poly``'s, which shares the Kronecker
product with the int64 form.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

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


def test_dense_product_in_two_word_slots():
    """A dense product at 2^31 - 1 whose Kronecker slots are wider than 8 bytes."""
    rng = random.Random(31)
    a = [P31 - 1] * 48 + [rng.randrange(P31) for _ in range(80)]
    b = [rng.randrange(P31) for _ in range(63)] + [P31 - 1] * 65
    assert ((min(len(a), len(b)) * (P31 - 1) ** 2).bit_length() + 7) // 8 > 8
    field = PrimeField(P31)
    ring = Ring(field)
    got = ring.mul(ring.from_coeffs(a), ring.from_coeffs(b))
    assert ring.to_poly(got) == Poly(field, tuple(schoolbook_mod_p(a, b, P31)))
