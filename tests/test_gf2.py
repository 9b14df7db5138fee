"""Carry-less products of bit-packed GF(2) polynomials."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from seqc import autoseq, contfrac, gf2
from seqc.algebra import LaurentSeries, _kron_mul


def shift_xor_mul(a, b):
    out = 0
    for i, bit in enumerate(reversed(format(b, "b"))):
        if bit == "1":
            out ^= a << i
    return out


def kron_mul_f2(a, b):
    """a*b by the shared Kronecker product at p = 2, on tuples of bits."""
    return gf2.from_bits(_kron_mul(gf2.to_bits(a), gf2.to_bits(b), 2).tolist())


# exactly n bits, n short or around the switch from shift-xor to the
# Kronecker product at SHIFT_XOR_BITS = 4096
polys = st.one_of(st.integers(min_value=1, max_value=1200),
                  st.integers(min_value=4000, max_value=4200)).flatmap(
    lambda n: st.integers(min_value=1 << (n - 1), max_value=(1 << n) - 1))


@given(polys, polys)
@settings(max_examples=150, deadline=None)
def test_mul_matches_shift_xor(a, b):
    assert gf2.mul(a, b) == shift_xor_mul(a, b)
    assert gf2.mul(a, 0) == gf2.mul(0, b) == 0


def test_mul_large_operands():
    # all-ones operands past 2^16 bits: the middle slots count more than 2^16
    # terms, which a 2-byte Kronecker slot cannot hold
    a = (1 << (1 << 16) + 1) - 1
    b = (1 << (1 << 16) + 78) - 1
    assert gf2.mul(a, b) == shift_xor_mul(a, b)


def _operand(kind, n, rng):
    """An n-bit operand: random, sparse (about 8 set bits) or all ones."""
    if kind == "ones":
        return (1 << n) - 1
    if kind == "sparse":
        return 1 << (n - 1) | sum(1 << rng.randrange(n) for _ in range(7))
    return 1 << (n - 1) | rng.getrandbits(n)


@pytest.mark.parametrize("kind", ["random", "sparse", "ones"])
@pytest.mark.parametrize("bits", [4095, 4096, 4097, (1 << 16) + 3])
def test_mul_across_the_switch(kind, bits):
    # the shorter operand has `bits` bits: shift-xor up to 4096, Kronecker above
    rng = random.Random(bits)
    a, b = _operand(kind, bits + 37, rng), _operand(kind, bits, rng)
    got = gf2.mul(a, b)
    assert got == gf2.mul(b, a) == kron_mul_f2(a, b) == shift_xor_mul(a, b)


@pytest.mark.parametrize("bits", [4096, 4097, 20000])
def test_flipped_bit_changes_product(bits):
    # a*b is linear in a: flipping bit i of a moves the product by exactly b x^i
    rng = random.Random(bits)
    a, b = _operand("random", bits + 9, rng), _operand("random", bits, rng)
    base = gf2.mul(a, b)
    for i in (0, rng.randrange(bits), bits + 8):
        flipped = gf2.mul(a ^ 1 << i, b)
        assert flipped != base
        assert flipped == base ^ b << i


@pytest.mark.parametrize("spec", [autoseq.thue_morse(), autoseq.perfect_profile()])
def test_mul_add_is_one_on_last_convergents(spec):
    # N = 16384 puts deg Q_J past SHIFT_XOR_BITS, so both product paths run
    n = 16384
    exp = contfrac.cf_expand(LaurentSeries.from_prefix(autoseq.prefix(spec, n), spec.field))
    j = len(exp.raw_quotients) - 1
    (p_prev, q_prev), (p_last, q_last) = (
        tuple(map(gf2.from_poly, exp.convergent(i))) for i in (j - 1, j))
    assert q_last.bit_length() > gf2.SHIFT_XOR_BITS
    assert gf2.mul_add_is_one(p_prev, q_last, p_last, q_prev)
    for i in (0, q_last.bit_length() // 2):
        assert not gf2.mul_add_is_one(p_prev, q_last ^ 1 << i, p_last, q_prev)
