"""Bit-packed polynomials over GF(2).

A polynomial is a plain int whose bit i is the coefficient of x^i, so xor
is addition and shifts are monomial multiplications.  A product is
shift-and-XOR while the shorter operand is sparse, one shifted XOR per
set bit, and an 8-bit window product otherwise: a table of the longer
operand times every byte value, then one lookup, shift and XOR per byte
of the shorter one.  This is the base case of Brent, Gaudry, Thome and
Zimmermann ("Faster multiplication in GF(2)[x]", ANTS 2008) on CPython's
bignums; it is exact by construction.  Conversions go through binary
strings and ``bytes.translate``, in linear time.

No big int is shifted by 0.  CPython 3.11 copies the whole int on
``x << 0`` and ``x >> 0`` (the result ``is not x``) at the cost of a
real shift: 1.9-3.8 us at 32768 to 65536 bits on a 2-core Xeon VM,
against 0.4-0.7 us for an XOR.  So where a shift count can be 0, that
case uses the operand itself: the constant term of a multiplier or of a
quotient.
"""

from __future__ import annotations

# ASCII binary digit -> coefficient byte, and coefficient byte -> ASCII digit of its parity
_DIGIT = bytes.maketrans(b"01", b"\x00\x01")
_PARITY = bytes(48 + (v & 1) for v in range(256))


def degree(a: int) -> int:
    """Degree of a; -1 for the zero polynomial."""
    return a.bit_length() - 1


def from_bits(bits) -> int:
    """sum_i bits[i] x^i, for a sequence of coefficients in [0, 256) read mod 2."""
    return int(bytes(bits[::-1]).translate(_PARITY) or b"0", 2)


def to_bits(a: int) -> tuple:
    """The coefficients of a, low to high, with no trailing zeros."""
    return tuple(format(a, "b").encode().translate(_DIGIT)[::-1]) if a else ()


def stretch(a: int, stride: int, n: int) -> int:
    """a(x^stride) mod x^n: coefficient i moved to i*stride, for stride >= 1.

    Over GF(2), a(x)^(2^j) = a(x^(2^j)), so this is a power of a with no
    product.  Only the coefficients that land below x^n are moved, through
    one binary string.
    """
    a &= (1 << -(-max(n, 0) // stride)) - 1
    if stride == 1 or a == 0:
        return a
    digits = format(a, "b").encode()
    out = bytearray(b"0" * ((len(digits) - 1) * stride + 1))
    out[::stride] = digits
    return int(out, 2)


# ``mul`` is shift-and-XOR while the shorter operand b has at most
# _SPARSE + b.bit_length() // _SPACING set bits, and by the window table above that
_SPARSE = 128
_SPACING = 64


def _window_table(a: int) -> list:
    """a*k for k = 0..255, indexed by k: 255 XORs of shifted copies of a."""
    table = [0]
    for j in range(8):
        shifted = a << j
        table += [t ^ shifted for t in table]
    return table


def mul(a: int, b: int) -> int:
    """Carry-less product of a and b.

    Let b be the shorter operand.  Shift-and-XOR costs one shifted XOR
    per set bit of b, each also touching b itself; the window product
    costs 255 XORs of the longer operand a for its table, then one per
    nonzero byte of b.  Measured on random sparse operands of 64 to
    16384 bits, with a of one, two and sixteen times b's length, the two
    cost the same at 120 to 200 set bits for a of up to twice b's length,
    and at up to about 750 for a sixteen times longer.  The window
    product runs once b has more than 128 + b.bit_length() / 64 set bits:
    over those shapes it costs on average 1.05 times the faster path, and
    at most 1.8 times.  The table holds 256 ints of about a's length,
    32 bytes per bit of a: about 2 MB at 65536 bits.

    Shift-and-XOR starts from a itself when b's constant term is set, not
    from a << 0, which would copy a (module docstring): ``mul(a, 1)``
    is a.
    """
    if a == 0 or b == 0:
        return 0
    la, lb = a.bit_length(), b.bit_length()
    if la < lb:
        a, b, lb = b, a, la
    out = 0
    # a b of at most _SPARSE bits needs no count (it costs about 4 ns per 30 bits)
    if lb <= _SPARSE or b.bit_count() <= _SPARSE + lb // _SPACING:
        if b & 1:
            out, b = a, b ^ 1
        while b:
            low = b & -b
            out ^= a << (low.bit_length() - 1)
            b ^= low
        return out
    table = _window_table(a)
    for i, v in enumerate(b.to_bytes(-(-lb // 8), "little")):
        if v:
            out ^= table[v] << (i << 3)
    return out


def mul_add_is_one(a1: int, b1: int, a2: int, b2: int) -> bool:
    """Whether a1*b1 + a2*b2 == 1 in GF(2)[x].

    No seqc code calls it.  It stays defined because perfbench/spans.py
    looks it up by name to time it; it goes together with that lookup.
    """
    return mul(a1, b1) ^ mul(a2, b2) == 1


def divmod_(a: int, b: int):
    """(quotient, remainder) of a divided by b, b != 0.

    Each quotient bit x^sh clears the top of the remainder by b << sh;
    the last one, at sh = 0, is applied as r ^= b, since b << 0 would
    copy b (module docstring).  Lengths are read by ``bit_length``
    inline, one more than the degrees.
    """
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    lb = b.bit_length()
    q = 0
    r = a
    lr = r.bit_length()
    while lr > lb:
        sh = lr - lb
        q |= 1 << sh
        r ^= b << sh
        lr = r.bit_length()
    if lr == lb:
        q |= 1
        r ^= b
    return q, r


def fold_mod(a: int, w: int) -> int:
    """a mod x^w + 1, for any w >= 1.

    x^h = 1 modulo x^w + 1 whenever w divides h, so the two halves of an
    (h = w 2^t)-bit value XOR onto each other; halving h down to w takes
    O(log(deg a / w)) big-int operations.
    """
    h = w
    while h < a.bit_length():
        h <<= 1
    while h > w:
        h >>= 1
        a = (a >> h) ^ (a & ((1 << h) - 1))
    return a
