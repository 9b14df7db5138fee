"""Bit-packed polynomials over GF(2).

A polynomial is a plain int whose bit i is the coefficient of x^i, so xor
is addition and shifts are monomial multiplications.  Large products go
through one integer multiplication with the coefficients spread into byte
slots wide enough to count the shorter operand's bits, so no carry crosses
a slot.  Spreading and collapsing go through binary strings and
``bytes.translate``, in linear time, which keeps the O(N^2) kernels inside
CPython's bignum code.
"""

from __future__ import annotations

from .algebra import Poly

# ASCII binary digit -> coefficient byte, and slot byte -> ASCII digit of its parity
_DIGIT = bytes.maketrans(b"01", b"\x00\x01")
_PARITY = bytes(48 + (v & 1) for v in range(256))


def degree(a: int) -> int:
    """Degree of a; -1 for the zero polynomial."""
    return a.bit_length() - 1


def _spread(a: int, w: int) -> int:
    """a with coefficient i moved to the low bit of the i-th w-byte slot."""
    digits = format(a, "b").encode().translate(_DIGIT)
    slots = bytearray(len(digits) * w)
    slots[w - 1::w] = digits
    return int.from_bytes(slots, "big")


def _collapse(prod: int, w: int) -> int:
    """The parity of every w-byte slot of prod, slot i as coefficient i."""
    data = prod.to_bytes(-(-prod.bit_length() // (8 * w)) * w, "big")
    return int(data[w - 1::w].translate(_PARITY) or b"0", 2)


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


def _slot_bytes(terms: int) -> int:
    """Bytes per slot that hold a sum of ``terms`` products of bits."""
    return max(1, (terms.bit_length() + 7) // 8)


def mul(a: int, b: int) -> int:
    """Carry-less product of a and b."""
    if a == 0 or b == 0:
        return 0
    la, lb = a.bit_length(), b.bit_length()
    if la < lb:
        a, b, la, lb = b, a, lb, la
    if lb <= 256:
        out = 0
        while b:
            low = b & -b
            out ^= a << (low.bit_length() - 1)
            b ^= low
        return out
    w = _slot_bytes(lb)
    return _collapse(_spread(a, w) * _spread(b, w), w)


def mul_add_is_one(a1: int, b1: int, a2: int, b2: int) -> bool:
    """Whether a1*b1 + a2*b2 == 1 in GF(2)[x].

    Evaluated in the spread domain so only one big-int multiply per product
    is needed; the final test reads the slot parities.  No seqc code calls
    it.  It stays defined because perfbench/spans.py looks it up by name to
    time it; it goes together with that lookup.
    """
    w = _slot_bytes(min(a1.bit_length(), b1.bit_length()) + min(a2.bit_length(), b2.bit_length()))
    s = _spread(a1, w) * _spread(b1, w) + _spread(a2, w) * _spread(b2, w)
    return _collapse(s, w) == 1


def divmod_(a: int, b: int):
    """(quotient, remainder) of a divided by b, b != 0."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = degree(b)
    q = 0
    r = a
    dr = degree(r)
    while dr >= db:
        sh = dr - db
        q |= 1 << sh
        r ^= b << sh
        dr = degree(r)
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


def from_poly(poly: Poly) -> int:
    if poly.field.p != 2:
        raise ValueError("bit-packed representation requires p = 2")
    return from_bits(poly.coeffs)


def to_poly(bits: int, field) -> Poly:
    return Poly(field, to_bits(bits))
