"""Carry-less products of bit-packed GF(2) polynomials.

``gf2.mul`` is shift-and-XOR while the shorter operand b has at most
``gf2._SPARSE + b.bit_length() // gf2._SPACING`` set bits and an 8-bit window
product above that.  The tests pin each path by moving ``_SPARSE`` and
check both on every shape, check the rule at its boundary, and compare
with two independent products: schoolbook shifts over a binary string
and the exact float product of ``algebra._fft_mul`` at p = 2.  No big int
is shifted by 0, so a set constant term takes its own branch in ``mul``
and ``divmod_``: the tests cover it set and clear.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from seqc import algebra, autoseq, contfrac, gf2
from seqc.algebra import LaurentSeries, _fft_mul

# ``_SPARSE`` values that send every product down one path
PATHS = {"shift": 1 << 40, "table": -(1 << 40)}


def shift_xor_mul(a, b):
    out = 0
    for i, bit in enumerate(reversed(format(b, "b"))):
        if bit == "1":
            out ^= a << i
    return out


def fft_mul_f2(a, b):
    """a*b by the shared float product at p = 2, on tuples of bits."""
    return gf2.from_bits(_fft_mul(gf2.to_bits(a), gf2.to_bits(b), 2).tolist())


def switch_popcount(bits):
    """The most set bits a ``bits``-bit shorter operand has on the shift-and-XOR side."""
    return gf2._SPARSE + bits // gf2._SPACING


def with_popcount(bits, count, rng):
    """A ``bits``-bit operand with ``count`` set bits (clamped to [1, bits]), top bit set."""
    count = min(bits, max(1, count))
    return 1 << (bits - 1) | sum(1 << i for i in rng.sample(range(bits - 1), count - 1))


def _operand(kind, n, rng):
    """An n-bit operand: random, sparse (about 8 set bits) or all ones."""
    if kind == "ones":
        return (1 << n) - 1
    if kind == "sparse":
        return 1 << (n - 1) | sum(1 << rng.randrange(n) for _ in range(7))
    return 1 << (n - 1) | rng.getrandbits(n)


@pytest.fixture
def table_calls(monkeypatch):
    """The longer operands the window tables were built for, in call order."""
    calls = []
    real = gf2._window_table

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(gf2, "_window_table", counted)
    return calls


# an operand of any length up to 3000 bits: random bits, or a popcount
# within 3 of the rule's switch for its length, so that as the shorter
# operand it lands on either side of the rule
polys = st.one_of(
    st.integers(min_value=1, max_value=3000).flatmap(
        lambda n: st.integers(min_value=1 << (n - 1), max_value=(1 << n) - 1)),
    st.builds(lambda n, offset, seed: with_popcount(n, switch_popcount(n) + offset,
                                                    random.Random(seed)),
              st.integers(min_value=1, max_value=3000), st.integers(min_value=-3, max_value=3),
              st.integers(min_value=0, max_value=2**32)))


@given(polys, polys)
@settings(max_examples=150, deadline=None)
def test_mul_matches_shift_xor(a, b):
    assert gf2.mul(a, b) == gf2.mul(b, a) == shift_xor_mul(a, b)
    assert gf2.mul(a, 0) == gf2.mul(0, b) == 0


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_mul_odd_and_even_operands(a, b):
    # shift-and-XOR starts from the longer operand itself when the shorter
    # one's constant term is set: every parity pair, on both orders
    for x in (a | 1, a & ~1 or 2):
        for y in (b | 1, b & ~1 or 2):
            assert gf2.mul(x, y) == gf2.mul(y, x) == shift_xor_mul(x, y)


def test_mul_by_one_is_the_operand():
    # a product by 1 shifts nothing: x << 0 would copy the whole int
    a = random.Random(3).getrandbits(50000) | 1 << 49999
    assert gf2.mul(a, 1) is a
    assert gf2.mul(1, a) is a


def _poly_of_length(draw, bits):
    """A ``bits``-bit polynomial (0 for no bits) whose constant term is drawn set or clear."""
    if bits == 0:
        return 0
    v = draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
    return v | 1 if bits == 1 or draw(st.booleans()) else v & ~1


@st.composite
def divisions(draw):
    """(a, b), b != 0, with deg a above, equal to or below deg b, and b = 1 among the divisors."""
    lb = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=300)))
    la = draw(st.sampled_from([
        st.integers(min_value=lb + 1, max_value=lb + 300), st.just(lb),
        st.integers(min_value=0, max_value=lb - 1)]))
    return _poly_of_length(draw, draw(la)), _poly_of_length(draw, lb)


@given(divisions())
@example((0b1011, 0b1011))  # deg a = deg b, both constant terms set
@example((0b1010, 0b1011))  # deg a = deg b, a's constant term clear
@example((0b101, 0b1011))  # deg a < deg b
@example((0b1101, 1))  # b = 1
@example((0, 0b11))
@example((0b100110111, 0b11))  # a quotient bit at every shift down to 0
@settings(max_examples=200, deadline=None)
def test_divmod_is_division_with_remainder(case):
    # a = q b + r with deg r < deg b: the last quotient bit, at shift 0,
    # is applied unshifted
    a, b = case
    q, r = gf2.divmod_(a, b)
    assert shift_xor_mul(q, b) ^ r == a
    assert r.bit_length() < b.bit_length()


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf2.divmod_(0b1011, 0)


def test_mul_large_operands():
    # all-ones operands past 2^16 bits: every byte of the shorter one is
    # 0xff, the last table entry
    a = (1 << (1 << 16) + 1) - 1
    b = (1 << (1 << 16) + 78) - 1
    assert gf2.mul(a, b) == shift_xor_mul(a, b)


@pytest.mark.parametrize("kind", ["random", "sparse", "ones"])
@pytest.mark.parametrize("bits", [16, 1000, 4095, 4096, 4097, (1 << 16) + 3])
def test_mul_across_the_switch(kind, bits, monkeypatch):
    # the shorter operand has `bits` bits and the longer 1, 2 or 16 times
    # as many (16 times only up to 4097 bits, where both oracles stay
    # quick); every shape runs down both paths
    rng = random.Random(bits)
    for ratio in (1, 2, 16) if bits <= 4097 else (1, 2):
        a, b = _operand(kind, bits * ratio, rng), _operand(kind, bits, rng)
        expected = shift_xor_mul(a, b)
        assert fft_mul_f2(a, b) == expected
        for sparse in PATHS.values():
            monkeypatch.setattr(gf2, "_SPARSE", sparse)
            assert gf2.mul(a, b) == gf2.mul(b, a) == expected


@pytest.mark.parametrize("bits", [200, 1000, 4097, 20000])
@pytest.mark.parametrize("ratio", [1, 2, 16])
def test_rule_switches_at_its_popcount(bits, ratio, table_calls):
    # one set bit more than the switch popcount builds the table, and
    # exactly the switch popcount does not
    rng = random.Random(bits * ratio)
    a = _operand("random", bits * ratio, rng)
    for count, tables in ((switch_popcount(bits), 0), (switch_popcount(bits) + 1, 1)):
        b = with_popcount(bits, count, rng)
        table_calls.clear()
        got = gf2.mul(a, b)
        assert table_calls == [a] * tables
        assert got == shift_xor_mul(a, b) == fft_mul_f2(a, b)


def test_rule_is_shift_xor_below_the_switch_popcount(table_calls):
    # a shorter operand with no more set bits than the switch popcount
    # never builds a table, dense or not: here every length up to 128 bits
    rng = random.Random(5)
    for bits in range(1, 129):
        gf2.mul(_operand("random", 300, rng), (1 << bits) - 1)
    assert table_calls == []


def test_mul_needs_no_fft_product(monkeypatch):
    def refuse(*_args):
        raise AssertionError("gf2.mul called algebra's float product")

    # operands on both sides of the rule, the dense one far past the old
    # 4096-bit switch to a numpy product
    rng = random.Random(11)
    a = _operand("random", 40000, rng)
    dense, sparse = _operand("random", 20000, rng), _operand("sparse", 20000, rng)
    expected = fft_mul_f2(a, dense), fft_mul_f2(a, sparse)
    monkeypatch.setattr(algebra, "_fft_mul", refuse)
    monkeypatch.setattr(algebra, "_convolve", refuse)
    assert (gf2.mul(a, dense), gf2.mul(a, sparse)) == expected


@pytest.mark.parametrize("bits", [4096, 4097, 20000])
def test_flipped_bit_changes_product(bits, monkeypatch):
    # a*b is linear in a: flipping bit i of a moves the product by exactly
    # b x^i, on either path
    rng = random.Random(bits)
    a, b = _operand("random", bits + 9, rng), _operand("random", bits, rng)
    for sparse in PATHS.values():
        monkeypatch.setattr(gf2, "_SPARSE", sparse)
        base = gf2.mul(a, b)
        for i in (0, rng.randrange(bits), bits + 8):
            flipped = gf2.mul(a ^ 1 << i, b)
            assert flipped != base
            assert flipped == base ^ b << i


@pytest.mark.parametrize("spec", [autoseq.thue_morse(), autoseq.perfect_profile()])
def test_mul_add_is_one_on_last_convergents(spec, table_calls):
    # at N = 16384 the last denominators are dense enough for the window
    # table, and the quotients of the recurrence are not
    n = 16384
    exp = contfrac.cf_expand(LaurentSeries.from_prefix(autoseq.prefix(spec, n), spec.field))
    j = len(exp.raw_quotients) - 1
    (p_prev, q_prev), (p_last, q_last) = (
        tuple(gf2.from_bits(f.coeffs) for f in exp.convergent(i)) for i in (j - 1, j))
    assert q_last.bit_count() > switch_popcount(q_last.bit_length())
    table_calls.clear()
    assert gf2.mul_add_is_one(p_prev, q_last, p_last, q_prev)
    assert table_calls
    for i in (0, q_last.bit_length() // 2):
        assert not gf2.mul_add_is_one(p_prev, q_last ^ 1 << i, p_last, q_prev)
