"""Exact arithmetic over prime fields.

Dense polynomials over F_p, and ``LaurentSeries``, the record of a
truncated input series in x^-1: its known coefficients and the lowest
exponent they reach.  All values are immutable and all operations are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

import numpy as np

NEG_INF = float("-inf")


def _kron_mul(a, b, p: int):
    """Exact coefficients of a*b mod p as an int64 array, for a, b with entries in [0, p).

    Kronecker substitution: each operand is packed into one Python int,
    one coefficient per slot wide enough for a full convolution sum, so a
    single big-int multiply yields every coefficient with no carry between
    slots and no overflow at any p.  A slot's sum is below
    min(len a, len b) (p-1)^2, under 2^126 at p <= 2^31 - 1 for any length
    an array can have, so a slot is at most 16 bytes wide.

    It is the one Kronecker product in seqc, behind ``Poly`` and
    ``LaurentSeries`` products at every p, expansion complexity's powers
    and the odd-p certificate products.  Bit-packed F_2 polynomials are
    multiplied by ``gf2.mul`` instead, which never calls it.
    """
    a, b = np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
    if not len(a) or not len(b):
        return np.zeros(0, dtype=np.int64)
    width = max(1, ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8)
    product = _kron_pack(a, width) * _kron_pack(b, width)
    return _kron_unpack(product, len(a) + len(b) - 1, width, p)


# slot widths in bytes that are one numpy unsigned integer: a slot of
# such a width is packed and unpacked as that integer, not padded to words
_WORD_WIDTHS = (1, 2, 4, 8)


def _kron_pack(a, width: int) -> int:
    """The uint64 entries of a, each in ``width`` little-endian bytes, as one int.

    An entry is below p, which needs no more bytes than its slot has.
    """
    if width in _WORD_WIDTHS:
        return int.from_bytes(a.astype(f"<u{width}").tobytes(), "little")
    words = np.zeros((len(a), -(-width // 8)), dtype="<u8")
    words[:, 0] = a
    return int.from_bytes(words.view(np.uint8)[:, :width].tobytes(), "little")


def _kron_unpack(product: int, count: int, width: int, p: int):
    """Slots 0..count-1 of ``width`` little-endian bytes each, mod p, as an int64 array.

    Other widths are zero-padded to uint64 words; a slot wider than 8
    bytes, low word lo and high word hi, is reduced in uint64 as
    lo + hi (2^64 mod p), each term below 2^62.
    """
    raw = product.to_bytes(count * width, "little")
    if width in _WORD_WIDTHS:  # p fits the slot's integer, which holds (p-1)^2
        return (np.frombuffer(raw, dtype=f"<u{width}") % p).astype(np.int64)
    words = np.zeros((count, -(-width // 8)), dtype="<u8")
    words.view(np.uint8)[:, :width] = np.frombuffer(raw, dtype=np.uint8).reshape(count, width)
    out = words[:, 0] % p
    if width > 8:
        out = (out + words[:, 1] % p * (2**64 % p)) % p
    return out.astype(np.int64)


class FieldMismatchError(ValueError):
    """Operands belong to different prime fields."""


class PrecisionError(ValueError):
    """A profile's n_max exceeds the series' precision (``contfrac.profile_from_expansion``)."""


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond the supported 2**31 range
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime modulus 2 <= p <= 2**31 - 1."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p <= 2**31 - 1):
            raise ValueError(f"modulus out of range: {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"modulus is not prime: {self.p}")

    def inv(self, a: int) -> int:
        return pow(a % self.p, -1, self.p)

    def validate_symbol(self, a: int) -> int:
        if not (0 <= a < self.p):
            raise ValueError(f"symbol {a} outside F_{self.p}")
        return a

    def validate_symbols(self, symbols) -> None:
        """Check every symbol in one min/max pass; scan only to name the first bad one."""
        if len(symbols) and not (0 <= min(symbols) and max(symbols) < self.p):
            for u in symbols:
                self.validate_symbol(u)


INT64_MAX = 2**63 - 1


def _make_room(x, mx, y, my, p: int, k: int = 1):
    """Bounds of x and y after reducing them so that x can take k more c*y.

    The odd-p kernels keep unreduced int64 coefficient arrays, each with
    an int bound M on its entries: |x_i| <= mx, |y_i| <= my.  Adding (or
    subtracting) a product c*y, c in [0, p), raises x's bound to
    mx + (p-1) my, and k of them (a convolution with k coefficients c)
    to mx + k (p-1) my; the caller adds that after the products.  An
    update by c = 1 or c = p - 1 forms no product (``_sub_multiple``)
    and raises it by my alone, within the room made here.  Only if
    mx + k (p-1) my could pass INT64_MAX is each operand whose bound is
    above p - 1 reduced mod p in place, so that both start again from
    p - 1 and the next reduction is as far off as it can be.  Both
    reduced, the sum for one product is at most (p-1) + (p-1)^2 < 2^63
    for every p <= 2^31 - 1, so one product always fits; k of them may
    not, and the caller then takes as many as fit.
    """
    if mx + k * (p - 1) * my > INT64_MAX:
        if my >= p:
            y %= p
            my = p - 1
        if mx >= p:
            x %= p
            mx = p - 1
    return mx, my


def _sub_multiple(x, y, c: int, p: int) -> int:
    """x -= c*y in place for c in [1, p); returns the factor that y's bound adds to x's.

    c = 1 subtracts y, and c = p - 1 adds it, since -(p-1) y = y mod p:
    neither forms a product, and x's bound rises by M_y.  At p = 3 every
    c is one of them.  Any other c forms the product c*y and raises x's
    bound by (p-1) M_y.  (A product written into a reused buffer saves
    nothing: slicing the buffer costs more than numpy's allocation.)
    """
    if c == 1:
        x -= y
        return 1
    if c == p - 1:
        x += y
        return 1
    x -= c * y
    return p - 1


def _check_same_field(a, b):
    if a.field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")


@dataclass(frozen=True)
class Poly:
    """Dense polynomial over F_p, coefficients low-to-high, no trailing zeros."""

    field: PrimeField
    coeffs: tuple

    def __post_init__(self):
        p = self.field.p
        c = [v % p for v in self.coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field, deg, coeff=1):
        return cls(field, (0,) * deg + (coeff,))

    # -- basic queries ------------------------------------------------

    @property
    def degree(self):
        """Degree, with the distinguished -inf marker for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        _check_same_field(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(self.field, tuple(map(add, a, b)) + a[len(b):])

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _check_same_field(self, other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        return Poly(self.field, tuple(_kron_mul(self.coeffs, other.coeffs, self.field.p).tolist()))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        _check_same_field(self, other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.degree < other.degree:
            return Poly.zero(self.field), self
        p = self.field.p
        b = other.coeffs
        db = len(b) - 1
        inv = self.field.inv(b[-1])
        r = list(self.coeffs)
        q = [0] * (len(r) - db)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i] % p
            if c:
                c = c * inv % p
                q[i - db] = c
                for j in range(db + 1):
                    r[i - db + j] -= c * b[j]
                r[i] = 0
        return Poly(self.field, tuple(q)), Poly(self.field, tuple(r[:db]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __repr__(self):
        return f"Poly(p={self.field.p}, {list(self.coeffs)})"


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated formal Laurent series in x^-1 over F_p: the record of an input.

    A nonzero series is sum_{e=low..top} c_e x^e with c_top != 0 (the
    valuation is normalized); coefficients above ``top`` are structurally
    zero, coefficients below ``low`` are unknown.  ``top is None`` encodes a
    series known to vanish at every exponent >= ``low``.
    """

    field: PrimeField
    top: object  # int, or None for a zero-within-precision series
    coeffs: tuple
    low: int

    def __post_init__(self):
        p = self.field.p
        c = [v % p for v in self.coeffs]
        top = self.top
        if top is not None:
            if len(c) != top - self.low + 1:
                raise ValueError("coefficient span does not match top/low")
            lead = next((i for i, v in enumerate(c) if v), len(c))
            c = c[lead:]
            top -= lead
            if not c:
                top = None
        elif c:
            raise ValueError("zero series must carry no coefficients")
        if top is not None and top < self.low:
            raise ValueError("empty known range")
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "top", top)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, low: int):
        return cls(field, None, (), low)

    @classmethod
    def from_prefix(cls, prefix, field):
        """R = sum_{i=1..N} u_{i-1} x^-i from the first N sequence symbols."""
        if len(prefix) < 1:
            raise ValueError("prefix must contain at least one symbol")
        field.validate_symbols(prefix)
        return cls(field, -1, tuple(prefix), -len(prefix))

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.top is None

    @property
    def valuation(self):
        """nu(R): the top exponent, or the -inf marker for the zero series."""
        return self.top if self.top is not None else NEG_INF

    def __mul__(self, other):
        """The product, known as far down as the shorter factor allows.

        No seqc code calls it.  It stays because perfbench/spans.py times
        ``LaurentSeries.__dict__["__mul__"]``; it goes with that lookup.
        """
        _check_same_field(self, other)
        if self.is_zero or other.is_zero:
            # unknown tails start below `low`; products are known zero above
            if self.is_zero and other.is_zero:
                low = self.low + other.low - 1
            elif self.is_zero:
                low = self.low + other.top
            else:
                low = other.low + self.top
            return LaurentSeries.zero(self.field, low)
        # the top `known` coefficients of the product need only the top
        # `known` coefficients of each factor
        known = min(len(self.coeffs), len(other.coeffs))
        out = _kron_mul(self.coeffs[:known], other.coeffs[:known], self.field.p)[:known].tolist()
        top = self.top + other.top
        return LaurentSeries(self.field, top, out, top - known + 1)

    def __repr__(self):
        if self.is_zero:
            return f"LaurentSeries(p={self.field.p}, 0, low={self.low})"
        return (f"LaurentSeries(p={self.field.p}, top={self.top}, "
                f"{list(self.coeffs)}, low={self.low})")

