"""Exact arithmetic over prime fields.

Dense polynomials and truncated formal Laurent series in x^-1 over F_p.
All values are immutable and all operations are exact.  A Laurent series
carries an explicit record of how far down its coefficients are actually
known, so consumers (the continued-fraction engine in particular) can
never silently read coefficients past the truncation point.
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
    slots and no overflow at any p.  Slots are packed from and unpacked
    to byte views of uint64 words.  A slot's sum is below
    min(len a, len b) (p-1)^2, under 2^126 at p <= 2^31 - 1 for any length
    an array can have, so a slot fits in two words; one wider than 8
    bytes, low word lo and high word hi, is reduced in uint64 as
    lo + hi (2^64 mod p), each term below 2^62.

    It is the one Kronecker product in seqc: at p = 2 it serves
    ``gf2.mul`` above that module's shift-and-XOR size, on bit arrays.
    """
    a, b = np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
    if not len(a) or not len(b):
        return np.zeros(0, dtype=np.int64)
    width = max(1, ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8)
    count = len(a) + len(b) - 1
    product = _kron_pack(a, width) * _kron_pack(b, width)
    words = np.zeros((count, -(-width // 8)), dtype="<u8")  # the slots, zero-padded to words
    words.view(np.uint8)[:, :width] = np.frombuffer(
        product.to_bytes(count * width, "little"), dtype=np.uint8).reshape(count, width)
    out = words[:, 0] % p
    if width > 8:
        out = (out + words[:, 1] % p * (2**64 % p)) % p
    return out.astype(np.int64)


def _kron_pack(a, width: int) -> int:
    """The uint64 entries of a, each in ``width`` little-endian bytes, as one int."""
    words = np.zeros((len(a), -(-width // 8)), dtype="<u8")
    words[:, 0] = a  # an entry below p needs no more bytes than its slot has
    return int.from_bytes(words.view(np.uint8)[:, :width].tobytes(), "little")


class FieldMismatchError(ValueError):
    """Operands belong to different prime fields."""


class PrecisionError(ValueError):
    """A coefficient outside the known range of a truncated series was required."""


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
    to mx + k (p-1) my; the caller adds that after the products.  Only if
    it could pass INT64_MAX is each operand whose bound is above p - 1
    reduced mod p in place, so that both start again from p - 1 and the
    next reduction is as far off as it can be.  Both reduced, the sum for
    one product is at most (p-1) + (p-1)^2 < 2^63 for every
    p <= 2^31 - 1, so one product always fits; k of them may not, and the
    caller then takes as many as fit.
    """
    if mx + k * (p - 1) * my > INT64_MAX:
        if my >= p:
            y %= p
            my = p - 1
        if mx >= p:
            x %= p
            mx = p - 1
    return mx, my


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

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def evaluate(self, a: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % p
        return acc

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

    def shift(self, k: int):
        """Multiply by x^k, k >= 0."""
        if self.is_zero:
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def truncate(self, n: int):
        """Reduce modulo x^n."""
        return Poly(self.field, self.coeffs[:max(n, 0)])

    def __repr__(self):
        return f"Poly(p={self.field.p}, {list(self.coeffs)})"


@dataclass(frozen=True)
class LaurentSeries:
    """Truncated formal Laurent series in x^-1 over F_p.

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

    @classmethod
    def from_poly(cls, poly: Poly, low: int):
        """Exact polynomial viewed as a series, known down to exponent ``low``."""
        if poly.is_zero:
            return cls.zero(poly.field, low)
        top = int(poly.degree)
        if low > top:
            raise ValueError("low must not exceed the polynomial degree")
        coeffs = tuple(poly.coeff(e) for e in range(top, low - 1, -1))
        return cls(poly.field, top, coeffs, low)

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.top is None

    @property
    def valuation(self):
        """nu(R): the top exponent, or the -inf marker for the zero series."""
        return self.top if self.top is not None else NEG_INF

    def coeff(self, e: int) -> int:
        """Coefficient of x^e; raises PrecisionError below the known range."""
        if e < self.low:
            raise PrecisionError(f"coefficient of x^{e} unknown (low={self.low})")
        if self.top is None or e > self.top:
            return 0
        return self.coeffs[self.top - e]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        _check_same_field(self, other)
        low = max(self.low, other.low)
        tops = [s.top for s in (self, other) if s.top is not None]
        if not tops:
            return LaurentSeries.zero(self.field, low)
        top = max(tops)
        if top < low:
            return LaurentSeries.zero(self.field, low)
        coeffs = tuple(map(add, self._window(top, low), other._window(top, low)))
        return LaurentSeries(self.field, top, coeffs, low)

    def _window(self, top: int, low: int) -> tuple:
        """Coefficients of x^top, ..., x^low, zero-padded; low >= self.low."""
        if self.top is None or self.top < low:
            return (0,) * (top - low + 1)
        return (0,) * (top - self.top) + self.coeffs[:self.top - low + 1]

    def __neg__(self):
        if self.is_zero:
            return self
        return LaurentSeries(self.field, self.top, tuple(-c for c in self.coeffs), self.low)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
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

    def shift(self, k: int):
        """Multiply by x^k."""
        if self.is_zero:
            return LaurentSeries.zero(self.field, self.low + k)
        return LaurentSeries(self.field, self.top + k, self.coeffs, self.low + k)

    def polynomial_part(self) -> Poly:
        """Pol(R): the terms with exponent >= 0 as a polynomial in x."""
        if self.is_zero or self.top < 0:
            return Poly.zero(self.field)
        if self.low > 0:
            raise PrecisionError("constant term not covered by known range")
        return Poly(self.field, tuple(self.coeff(e) for e in range(self.top + 1)))

    def __repr__(self):
        if self.is_zero:
            return f"LaurentSeries(p={self.field.p}, 0, low={self.low})"
        return (f"LaurentSeries(p={self.field.p}, top={self.top}, "
                f"{list(self.coeffs)}, low={self.low})")

