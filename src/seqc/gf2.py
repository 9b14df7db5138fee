"""Bit-packed polynomials over GF(2).

A polynomial is a plain int whose bit i is the coefficient of x^i, so xor
is addition and shifts are monomial multiplications.  Large products go
through integer multiplication with coefficients spread into fixed-width
slots (no carries can cross slots while the convolution coefficients fit),
which keeps the O(N^2) kernels inside CPython's bignum code.
"""

from __future__ import annotations

from .algebra import Poly

# byte -> 128-bit int with the byte's bits placed every 16 bits
_SPREAD16 = [sum(((b >> i) & 1) << (16 * i) for i in range(8)) for b in range(256)]


def degree(a: int) -> int:
    """Degree of a; -1 for the zero polynomial."""
    return a.bit_length() - 1


def _spread(a: int, slot: int) -> int:
    out = 0
    off = 0
    if slot == 16:
        while a:
            out |= _SPREAD16[a & 0xFF] << off
            a >>= 8
            off += 128
        return out
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            out |= 1 << (slot * i)
    return out


def _collapse(prod: int, slot: int) -> int:
    # keep the parity of every slot
    step = slot // 8
    data = prod.to_bytes((prod.bit_length() + 7) // 8 + step, "little")
    out = 0
    for i in range(0, len(data), step):
        if data[i] & 1:
            out |= 1 << (i // step)
    return out


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
    slot = 16 if lb < (1 << 15) else 32
    return _collapse(_spread(a, slot) * _spread(b, slot), slot)


def mul_add_is_one(a1: int, b1: int, a2: int, b2: int) -> bool:
    """Whether a1*b1 + a2*b2 == 1 in GF(2)[x].

    Evaluated in the spread domain so only one big-int multiply per product
    is needed; the final test masks out slot parities.  No seqc code calls
    it.  It stays defined because perfbench/spans.py looks it up by name to
    time it; it goes together with that lookup.
    """
    lens = [v.bit_length() for v in (a1, b1, a2, b2)]
    slot = 16 if max(min(lens[0], lens[1]), min(lens[2], lens[3])) < (1 << 14) else 32
    s = _spread(a1, slot) * _spread(b1, slot) + _spread(a2, slot) * _spread(b2, slot)
    nslots = (s.bit_length() + slot - 1) // slot
    mask = 0
    for i in range(nslots):
        mask |= 1 << (slot * i)
    return (s & mask) == 1


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
    out = 0
    for i, c in enumerate(poly.coeffs):
        if c:
            out |= 1 << i
    return out


def to_poly(bits: int, field) -> Poly:
    return Poly(field, tuple((bits >> i) & 1 for i in range(bits.bit_length())))
