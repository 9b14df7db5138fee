"""Carry-less products of bit-packed GF(2) polynomials."""

from hypothesis import given, settings, strategies as st

from seqc import gf2


def shift_xor_mul(a, b):
    out = 0
    for i, bit in enumerate(reversed(format(b, "b"))):
        if bit == "1":
            out ^= a << i
    return out


# exactly n bits, n spanning the switch from shift-xor to spread products at 256
polys = st.integers(min_value=1, max_value=1200).flatmap(
    lambda n: st.integers(min_value=1 << (n - 1), max_value=(1 << n) - 1))


@given(polys, polys)
@settings(max_examples=150)
def test_mul_matches_shift_xor(a, b):
    assert gf2.mul(a, b) == shift_xor_mul(a, b)
    assert gf2.mul(a, 0) == gf2.mul(0, b) == 0


def test_mul_large_operands():
    # all-ones operands past 2^16 bits: the middle slots count more than 2^16
    # terms, which 2-byte slots cannot hold
    a = (1 << (1 << 16) + 1) - 1
    b = (1 << (1 << 16) + 78) - 1
    assert gf2.mul(a, b) == shift_xor_mul(a, b)
