"""Exact arithmetic over prime fields.

Dense polynomials over F_p, and ``LaurentSeries``, the record of a
truncated input series in x^-1: its known coefficients and the lowest
exponent they reach.  All values are immutable and all operations are
exact.  Their products, and the int64-array and dense F_3 products of
``ring`` and ``gf3``, are one float64 FFT convolution of small integer
digits (``_convolve``), exact by a stated error bound, with coefficients
up to 2^31 split into 11-bit limbs (``_fft_mul``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, index

import numpy as np

NEG_INF = float("-inf")


# the exact float product (``_convolve``): an entry has magnitude at most
# 2^_LIMB_BITS, and a transform is at most _MAX_TRANSFORM long
_LIMB_BITS = 11
_MAX_TRANSFORM = 1 << 20
# ``_convolve`` sums the products directly while len x len y <= _DIRECT (len x + len y)
_DIRECT = 100


def _convolve(x, y):
    """The convolution of integer arrays x and y, |x_i|, |y_i| <= 2^11, exactly, as int64.

    One float64 ``numpy.fft.rfft`` of each operand, zero-padded to the
    power of two L >= len x + len y - 1, and one ``irfft`` of their
    product, rounded to the nearest integer.  By Percival ("Rapid
    multiplication modulo the sum and difference of highly composite
    numbers", Math. Comp. 2003, Theorem 5.1) the computed convolution of
    a length L = 2^k transform differs from the exact one, entry by
    entry, by less than

        |x| |y| ((1+e)^(3k) (1+e sqrt 5)^(3k+1) (1+b)^(3k) - 1)

    with |.| the Euclidean norm, e = 2^-53 the unit roundoff and b the
    error of the roots of unity, taken to be at most e.  For entries of
    magnitude at most B, |x| |y| <= L B^2; at the limits B = 2^11 and
    L = 2^20 (``_LIMB_BITS``, ``_MAX_TRANSFORM``) the bound is 0.13, under
    the 1/2 that makes the rounding exact, and every exact sum is at most
    L B^2 = 2^42, so a float64 holds it exactly.  Operands whose
    convolution is longer than _MAX_TRANSFORM are split: the longer one
    is halved and the two convolutions added at their offsets, exactly in
    int64, until each part fits.

    The three transforms cost about 30 us however short the operands,
    so while len x len y <= _DIRECT (len x + len y) the products are
    summed directly (``np.convolve`` in int64, exact: a sum is at most
    min(len x, len y) 2^22).  On 12 shapes from 3 x 5 to 256 x 4096
    (2-vCPU VM, numpy 2.4.6) the rule picked the faster of the two each
    time; they cost the same near 200 x 200 and 100 x 4096.
    """
    if len(x) < len(y):
        x, y = y, x
    if not len(y):
        return np.zeros(0, dtype=np.int64)
    n = len(x) + len(y) - 1
    if len(x) * len(y) <= _DIRECT * (n + 1):
        return np.convolve(np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64))
    if n > _MAX_TRANSFORM:
        half = len(x) // 2
        out = np.zeros(n, dtype=np.int64)
        out[:half + len(y) - 1] = _convolve(x[:half], y)
        out[half:] += _convolve(x[half:], y)
        return out
    size = 1 << (n - 1).bit_length()
    z = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[:n]
    return np.rint(z).astype(np.int64)


def _fft_mul(a, b, p: int):
    """Exact coefficients of a*b mod p as an int64 array, for a, b with entries in [0, p).

    A coefficient is split into m limbs of ``_LIMB_BITS`` = 11 bits,
    m = ceil(bits(p - 1) / 11): one limb for p <= 2^11, two up to 2^22
    and three up to 2^31 - 1.  Limb t of coefficient i goes to entry
    i (2m - 1) + t of one array per operand, so in their convolution
    (``_convolve``, exact) entry k (2m - 1) + u is the sum of the limb
    products of weight 2^(11 u) that land on coefficient k, and no two
    coefficients share an entry.  Coefficient k is then the sum over u
    of those entries times 2^(11 u), mod p: each term is reduced mod p
    before the sum, so every step fits int64.

    It is the one exact product behind ``Poly`` and ``LaurentSeries``
    products at every p and ``ring.Ring.mul`` on int64 arrays (p >= 5),
    and ``gf3.mul``'s dense products run ``_convolve`` on the slices'
    digits.  Bit-packed F_2 polynomials are multiplied by ``gf2.mul``.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    m = -(-(p - 1).bit_length() // _LIMB_BITS)
    if m == 1:
        return _reduce(_convolve(a, b), p)
    stride = 2 * m - 1
    x, y = _limbs(a, m, stride), _limbs(b, m, stride)
    z = _reduce(_convolve(x, y).reshape(-1, stride), p)
    weights = np.array([pow(2, _LIMB_BITS * u, p) for u in range(stride)], dtype=np.int64)
    return _reduce(_reduce(z * weights, p).sum(axis=1), p)


def _limbs(a, m: int, stride: int):
    """Limb t of entry i of a at i*stride + t, for t < m, and zeros between the entries.

    Limbs t = m..stride-1 are shifts past every bit of an entry, so zero.
    """
    shifts = _LIMB_BITS * np.arange(stride)
    return (a[:, None] >> shifts & ((1 << _LIMB_BITS) - 1)).ravel()[:stride * (len(a) - 1) + m]


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


# byte v is v, so _BYTES[:p] is every symbol of F_p as a byte, for p < 256
_BYTES = bytes(range(256))


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

    def validate_symbol(self, a) -> int:
        """a as an int, if it is an integer (``operator.index``) in [0, p); else ValueError."""
        try:
            v = index(a)
        except TypeError:
            raise ValueError(f"symbol {a!r} is not an integer") from None
        if not 0 <= v < self.p:
            raise ValueError(f"symbol {a} outside F_{self.p}")
        return v

    def validate_symbols(self, symbols) -> tuple:
        """The symbols as a tuple of ints, if each is an integer in [0, p); else ValueError.

        An empty sequence is a ValueError too: every prefix that seqc
        reads holds at least one symbol.

        An integer is whatever ``operator.index`` accepts: int, bool and
        numpy integers, alone or as a numpy array.  The check is one pass
        over the symbols in C: ``bytes`` for p < 256, which rejects a
        non-integer and a value outside [0, 256) and leaves the rest to one
        ``translate``, and an int64 array of the ``index`` values otherwise.
        Only a failed check walks the symbols in Python, to name the first
        bad one.
        """
        p = self.p
        if not len(symbols):
            raise ValueError("prefix must contain at least one symbol")
        try:
            if p < 256:
                if not isinstance(symbols, (list, tuple)):
                    symbols = list(symbols)  # bytes() reads an array's buffer, not its items
                raw = bytes(symbols)
                if not raw.translate(None, _BYTES[:p]):
                    return tuple(raw)
            else:
                values = np.fromiter(map(index, symbols), np.int64, len(symbols))
                if values.min() >= 0 and values.max() < p:
                    return tuple(values.tolist())
        except (TypeError, ValueError, OverflowError):
            pass
        return tuple(map(self.validate_symbol, symbols))


INT64_MAX = 2**63 - 1


def _reduce(x, p: int):
    """x mod p in place, for an int64 array x (or a view); returns x.

    It takes the floor form x -= (x // p) p, exact for negative entries
    too since // floors: numpy 2.4.6 divides an int64 array by a scalar
    faster than it takes its %, and at p = 5 and 2^31 - 1 this took
    0.3-0.65 of the time of ``x %= p`` on 2048-16384 entries (``timeit``).
    """
    x -= x // p * p
    return x


def _make_room(x, mx, y, my, p: int, k: int = 1):
    """Bounds of x and y after reducing them so that x can take k more c*y.

    The int64 kernels keep unreduced coefficient arrays, each with an
    int bound M on its entries: |x_i| <= mx, |y_i| <= my.  Adding (or
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
            _reduce(y, p)
            my = p - 1
        if mx >= p:
            _reduce(x, p)
            mx = p - 1
    return mx, my


def _sub_multiple(x, y, c: int, p: int) -> int:
    """x -= c*y in place for c in [1, p); returns the factor that y's bound adds to x's.

    c = 1 subtracts y, and c = p - 1 adds it, since -(p-1) y = y mod p:
    neither forms a product, and x's bound rises by M_y.  Any other c
    forms the product c*y and raises x's bound by (p-1) M_y.  (A product
    written into a reused buffer saves nothing: slicing the buffer costs
    more than numpy's allocation.)
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
        """The product, by the float product ``_fft_mul``.

        No seqc code calls it.  It stays as the tests' reference and
        because perfbench/spans.py times it as ``algebra.poly_mul``.
        """
        _check_same_field(self, other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        return Poly(self.field, tuple(_fft_mul(self.coeffs, other.coeffs, self.field.p).tolist()))

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
        """R = sum_{i=1..N} u_{i-1} x^-i from the first N sequence symbols.

        The validated symbols are ints in [0, p) already, so the record is
        built from them as they are: ``__post_init__`` would reduce them
        mod p again, a second pass over N symbols.  Only the leading zeros
        are dropped, so that c_top != 0.
        """
        symbols = field.validate_symbols(prefix)
        lead = next((i for i, v in enumerate(symbols) if v), len(symbols))
        coeffs = symbols[lead:]
        series = object.__new__(cls)
        for name, value in (("field", field), ("top", -1 - lead if coeffs else None),
                            ("coeffs", coeffs), ("low", -len(symbols))):
            object.__setattr__(series, name, value)
        return series

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
        out = _fft_mul(self.coeffs[:known], other.coeffs[:known], self.field.p)[:known].tolist()
        top = self.top + other.top
        return LaurentSeries(self.field, top, out, top - known + 1)

    def __repr__(self):
        if self.is_zero:
            return f"LaurentSeries(p={self.field.p}, 0, low={self.low})"
        return (f"LaurentSeries(p={self.field.p}, top={self.top}, "
                f"{list(self.coeffs)}, low={self.low})")

