"""Bit-sliced polynomials over GF(3).

A polynomial is a pair of ints (h, l): bit i of l is set where
coefficient i is 1, and bit i of h where it is 2, so h & l == 0.  Shifts
of both slices are monomial multiplications, and a sum is six logical
operations on whole ints (``add``; Kawahara, Aoki and Takagi, "Faster
implementation of eta-T pairing over GF(3^m)", Pairing 2008; Boothby and
Bradshaw, "Bitslicing and the method of four Russians over larger finite
fields", 2009).  Negation swaps the slices, since -1 = 2 and -2 = 1, and
every nonzero coefficient is its own inverse, so the multiples of a
polynomial that division and sparse products need are the polynomial and
its negation: no product of coefficients is formed.  A dense product
reads the slices as digits in {-1, 0, 1} and convolves them exactly in
floating point (``algebra._convolve``).  Every operation is exact for
any length.  Conversions go through byte strings, in linear time.

As in ``gf2``, no big int is shifted by 0: where a shift count can be
0, that case uses the operand itself.
"""

from __future__ import annotations

import numpy as np

from .algebra import _convolve

# coefficient byte -> ASCII binary digit of its l slice and of its h slice
_ONE = bytes(48 + (v == 1) for v in range(256))
_TWO = bytes(48 + (v == 2) for v in range(256))
# ASCII hex digit -> coefficient byte
_DIGIT = bytes.maketrans(b"012", b"\x00\x01\x02")


def degree(a) -> int:
    """Degree of a; -1 for the zero polynomial."""
    h, l = a
    return (h | l).bit_length() - 1


def from_coeffs(coeffs):
    """sum_i coeffs[i] x^i, for a sequence of ints in [0, 3)."""
    raw = bytes(coeffs[::-1])
    return int(raw.translate(_TWO) or b"0", 2), int(raw.translate(_ONE) or b"0", 2)


def to_coeffs(a) -> tuple:
    """The coefficients of a, low to high, with no trailing zeros.

    A slice's binary digits read as hex digits put its bit i in nibble
    i; the slices are disjoint, so l + 2 h, in that reading, has
    coefficient i as hex digit i.
    """
    h, l = a
    if not (h or l):
        return ()
    digits = format(int(format(l, "b"), 16) + 2 * int(format(h, "b"), 16), "x")
    return tuple(digits.encode().translate(_DIGIT)[::-1])


def add(a, b):
    """a + b, slice by slice: six logical operations and no carry."""
    (ah, al), (bh, bl) = a, b
    u = (al | bh) ^ (ah | bl)
    return (al | bl) ^ u, (ah | bh) ^ u


def sub(a, b):
    """a - b: a plus b with its slices swapped."""
    return add(a, (b[1], b[0]))


def split(a, n: int):
    """(a div x^n, a mod x^n)."""
    h, l = a
    mask = (1 << n) - 1
    return (h >> n, l >> n), (h & mask, l & mask)


# ``mul`` is shift-and-add while the shorter operand has at most
# _SPARSE + (total length) // _SPACING nonzero coefficients, and one
# float convolution (``algebra._convolve``) above that
_SPARSE = 64
_SPACING = 64


def mul(a, b):
    """Product of a and b.

    Let a be the shorter operand, of weight w (its nonzero coefficients).
    Shift-and-add costs one shifted add of b or -b per nonzero
    coefficient of a, nine operations on ints of b's length; the
    constant term adds b or -b itself, with no shift.  The dense product
    reads each slice's bits into a uint8 array (``numpy.unpackbits``),
    takes the digits l - h in {-1, 0, 1} and convolves them exactly
    (``algebra._convolve``), reduces each sum to a digit z - 3 rint(z/3)
    in {-1, 0, 1}, and packs the slices back (``numpy.packbits``), at a
    cost that grows with both lengths but not with w.  Shift-and-add
    runs while w <= 64 + (len a + len b) / 64.  On random operands, b of
    512, 4096 and 32768 coefficients and a of 8 up to b's length with w
    from len a / 16 to 2 len a / 3 and at 48 to 640 (81 shapes; a 2-vCPU
    VM, Python 3.11.7, numpy 2.4.6), the two cost the same near w = 100
    for 512 by 512, 120 for 4096 by 4096 and 400 for 32768 by 32768, and
    the rule took the faster path on 77 shapes and one at most 1.36
    times slower on the other 4; in all it took 1.04 times the time of
    the faster path.  A quotient of the convergent recurrence times a
    denominator takes shift-and-add unless the quotient is long and
    dense, as sum-of-digits(3)'s ruler quotients are; the certificate's
    products of dense halves of the input take the convolution.
    """
    da, db = degree(a), degree(b)
    if da > db:
        a, b, da, db = b, a, db, da
    (ah, al), (bh, bl) = a, b
    nz = ah | al
    if nz.bit_count() > _SPARSE + (da + db + 2) // _SPACING:
        z = _convolve(_digits(a, da + 1), _digits(b, db + 1))
        r = z - 3 * np.rint(z / 3)  # z mod 3 as a digit in {-1, 0, 1}: |z| <= len a, exact
        return _from_bits(r < 0), _from_bits(r > 0)
    out = (0, 0)
    if nz & 1:
        out = b if al & 1 else (bl, bh)
        nz ^= 1
    while nz:
        low = nz & -nz
        sh = low.bit_length() - 1
        out = add(out, (bh << sh, bl << sh) if al & low else (bl << sh, bh << sh))
        nz ^= low
    return out


def _digits(a, n: int):
    """Coefficients 0..n-1 of a as int8 digits in {-1, 0, 1}: the l slice's bits less the h slice's."""
    h, l = a
    return _to_bits(l, n).view(np.int8) - _to_bits(h, n).view(np.int8)


def _to_bits(v: int, n: int):
    """Bits 0..n-1 of v, low first, as a uint8 array."""
    raw = np.frombuffer(v.to_bytes(-(-n // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


def _from_bits(bits) -> int:
    """The int whose bit i is bits[i]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def divmod_(a, b):
    """(quotient, remainder) of a divided by b, b != 0.

    Each quotient coefficient clears the top of the remainder r: it is 1
    where r's leading coefficient equals b's, and r -= x^sh b adds x^sh
    times b's negation; otherwise it is 2, and r -= 2 x^sh b adds x^sh b.
    The sum is ``add``'s formula written out: as a call, ``cf_expand``
    took 5-7% longer on random and sum-of-digits(3) streams of 8192
    symbols (medians of 25 alternated pairs, 2-vCPU VM).
    """
    bh, bl = b
    lb = (bh | bl).bit_length()
    if not lb:
        raise ZeroDivisionError("division by zero polynomial")
    b_two = bh.bit_length() == lb  # b's leading coefficient is 2
    qh = ql = 0
    rh, rl = a
    lr = (rh | rl).bit_length()
    while lr >= lb:
        sh = lr - lb
        if (rh.bit_length() == lr) == b_two:
            ql |= 1 << sh
            xh, xl = bl, bh
        else:
            qh |= 1 << sh
            xh, xl = bh, bl
        if sh:
            xh, xl = xh << sh, xl << sh
        u = (rl | xh) ^ (rh | xl)
        rh, rl = (rl | xl) ^ u, (rh | xh) ^ u
        lr = (rh | rl).bit_length()
    return (qh, ql), (rh, rl)
