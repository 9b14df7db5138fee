"""F_p[x] in the form the field chooses, with the operations seqc uses.

The field chooses the form.  Over F_2 polynomials are bit-packed ints
(``gf2``), and a division is one ``gf2.divmod_`` on them: one shifted
XOR of the divisor per quotient bit, and the divisor itself, unshifted,
for a constant term.  Over F_3 they are ``gf3`` slice pairs, and a
division is one ``gf3.divmod_``: one shifted slice addition of the
divisor or its negation per quotient coefficient.  For p >= 5
polynomials are numpy int64 coefficient arrays, low to high; the int64
kernels are exact at p = 3 too, where the tests run them as the slices'
reference.  A full product is exact in every form: ``gf2.mul``,
``gf3.mul``, and for int64 arrays, reduced mod p, slice updates while
one factor has few nonzero entries beside the other's length and one
exact float product (``algebra._fft_mul``) otherwise.  A Frobenius power
a(x)^(p^j) = a(x^(p^j)) is one spread (``stretch``), with no product.

A quotient has entries in [0, p).  A Euclid remainder and a denominator
from the convergent recurrence are kept unreduced, as a term
[coeffs, M] with |coeffs_i| <= M, whose top entry alone is reduced and
nonzero, so its degree is its length less one; a reduction in place
lowers M in place.  Each product c*y (c in [0, p)) added to x raises x's
bound by (p-1) M_y, and ``algebra._make_room`` reduces an operand mod p
only when the next products could pass 2^63 - 1.  A division step by a
quotient coefficient c = 1 or c = p - 1 forms no product: it subtracts
or adds the divisor (``algebra._sub_multiple``) and raises the bound by
M_y alone.  So every step is exact at every p <= 2^31 - 1, and at small
p a reduction is rare.  The recurrence adds A_j y by one slice update
per coefficient while A_j is short beside y, as a division step does,
and otherwise by one ``np.convolve`` per chunk of A_j: a chunk of k
coefficients raises the bound by k (p-1) M_y, and a chunk is as long as
the room left under 2^63 - 1 allows, so at small p a quotient is one
convolution and at p = 2^31 - 1 a chunk is one or two coefficients.
"""

from __future__ import annotations

from operator import xor

import numpy as np

from . import algebra, gf2, gf3
from .algebra import Poly, PrimeField, _fft_mul, _make_room, _sub_multiple


class Ring:
    """Polynomial operations on one field's form: ``_bits`` at p = 2,
    ``_slices`` at p = 3 and ``_arrays`` otherwise (exact at p = 3 too).

    A value is an int, a ``gf3`` pair or an int64 array, so its type
    names the form: ``expcomp``'s vector forms and ``lincomp``'s
    Berlekamp-Massey kernels read the values as they are, each chosen
    by that type.  ``from_coeffs`` packs
    coefficients in [0, p), low to high, ``to_poly`` reads them back as
    a ``Poly``, and ``monomial(n)`` is x^n.  The Euclid remainders and
    the recurrence terms travel as terms: over F_2 and F_3 the value
    itself, for int64 arrays a list [coeffs, bound].  ``term`` makes one
    from a value with entries in [0, p) and ``value`` gives back its
    polynomial.  ``divmod(a, b)`` takes two terms and ``mul_add(a, b, c)``
    a quotient a and two terms; for int64 arrays either may reduce b in
    place, lowering its bound with it.  ``mul`` (the exact full product),
    ``add``, ``sub``, ``split(a, n)`` = (a div x^n, a mod x^n) and
    ``stretch(a, stride, n)`` = a(x^stride) mod x^n take values; for
    int64 arrays ``mul`` reduces its operands mod p first, and the parts
    of ``split`` are trimmed: a mod x^n is a view of a, a div x^n a
    copy, so a quotient kept from it holds no more than its own entries.

    Build one per call rather than once at import: a ring binds
    ``gf2.mul`` and ``gf2.divmod_`` as they are when it is built, so
    timers installed on them from outside the package see its calls.
    """

    def __init__(self, field: PrimeField):
        {2: self._bits, 3: self._slices}.get(field.p, self._arrays)(field)

    def _bits(self, field):
        self.term = self.value = lambda v: v
        self.mul = gf2.mul
        self.add = self.sub = xor
        self.split = lambda a, n: (a >> n, a & ((1 << n) - 1))
        self.mul_add = lambda a, b, c: gf2.mul(a, b) ^ c
        self.divmod = gf2.divmod_
        self.degree = gf2.degree
        self.stretch = gf2.stretch
        self.to_poly = lambda bits: gf2.to_poly(bits, field)
        self.from_coeffs = gf2.from_bits
        self.monomial = lambda n: 1 << n

    def _slices(self, field):
        self.term = self.value = lambda v: v
        self.mul = gf3.mul
        self.add = gf3.add
        self.sub = gf3.sub
        self.split = gf3.split
        self.mul_add = lambda a, b, c: gf3.add(gf3.mul(a, b), c)
        self.divmod = gf3.divmod_
        self.degree = gf3.degree
        self.stretch = lambda a, stride, n: (gf2.stretch(a[0], stride, n),
                                             gf2.stretch(a[1], stride, n))
        self.to_poly = lambda pair: gf3.to_poly(pair, field)
        self.from_coeffs = gf3.from_coeffs
        self.monomial = lambda n: (0, 1 << n)

    def _arrays(self, field):
        p = field.p
        self.term = lambda arr: [arr, p - 1]
        self.value = lambda term: term[0]
        self.mul = lambda a, b: _arr_mul(a % p, b % p, p)
        self.add = lambda a, b: _arr_sub(a, -b, p)
        self.sub = lambda a, b: _arr_sub(a, b, p)
        self.split = lambda a, n: (a[n:].copy(), np.trim_zeros(a[:n], "b"))
        self.mul_add = lambda a, b, c: _arr_mul_add(a, b, c, p)
        self.divmod = lambda a, b: _arr_divmod(a, b, p)
        self.degree = _arr_degree
        self.stretch = _arr_stretch
        self.to_poly = lambda arr: Poly(field, tuple(arr.tolist()))
        self.from_coeffs = lambda coeffs: np.trim_zeros(np.array(coeffs, dtype=np.int64), "b")
        self.monomial = lambda n: np.array([0] * n + [1], dtype=np.int64)


def _arr_degree(a) -> int:
    return len(a) - 1


def _arr_trim(a, p):
    """Drop entries that vanish mod p from the top; reduce the new top in place.

    It serves unreduced terms, whose entries need not be in [0, p);
    ``from_coeffs`` takes entries in [0, p) and drops its zeros by one
    ``np.trim_zeros`` in place of this loop over them.
    """
    top = len(a)
    while top and not int(a[top - 1]) % p:
        top -= 1
    if top:
        a[top - 1] %= p
    return a[:top]


def _arr_divmod(a, b, p):
    """(quotient, remainder) for terms a, b over F_p, reusing a's storage.

    a's coefficients are overwritten and the remainder's are a view of
    them.  Each nonzero quotient coefficient c subtracts c*b from the
    window a[i-db:i] below the current top a[i] (``_sub_multiple``: no
    product at c = 1 or p - 1).  ``ma`` bounds every live entry a[:i]
    and ``m_below`` the entries below the window, which no product has
    touched yet: a reduction covers all of a[:i] until those are reduced
    once, and the window alone after that.  The remainder keeps its
    bound; only its top entry is reduced.
    """
    (av, ma), (bv, mb) = a, b
    da, db = len(av) - 1, len(bv) - 1
    if da < db:
        return av[:0], a
    inv = pow(int(bv[-1]), -1, p)
    low = bv[:-1]  # the top of each product cancels av[i] exactly
    q = np.zeros(da - db + 1, dtype=np.int64)
    m_below = ma
    for i in range(da, db - 1, -1):
        c = int(av[i]) % p * inv % p
        if c:
            q[i - db] = c
            window = av[i - db:i]
            ma, mb = _make_room(av[:i] if m_below >= p else window, ma, low, mb, p)
            m_below = min(m_below, ma)
            ma += _sub_multiple(window, low, c, p) * mb
    b[1] = mb
    return q, [_arr_trim(av[:db], p), ma]


# the recurrence adds a quotient by one slice update per coefficient while
# the other factor has at least this many entries per quotient coefficient,
# and by convolution otherwise: each slice update pays a few microseconds
# of calls, so at p = 3, 5 and 2^31 - 1 slices were no slower than the
# convolution from 256 entries per coefficient on, and up to 2.5x faster
_SLICE_ENTRIES = 256


def _arr_mul_add(a, b, c, p):
    """a*b + c over F_p for a quotient a and terms b, c.

    While b has at least _SLICE_ENTRIES entries per coefficient of a,
    each nonzero a_i b is one slice update, out[i:] += a_i b, which is
    ``_sub_multiple`` by p - a_i: no product at a_i = 1 or p - 1, and a
    bound rise of at most (p-1) M_b, with ``_make_room`` before each.
    Otherwise a is one convolution per chunk: a chunk of k
    coefficients adds ``np.convolve(chunk, b)`` to the output, each of
    whose entries sums at most k products of bound (p-1) M_b, so it
    raises the output's bound by at most k (p-1) M_b.  ``_make_room``
    reduces the output and b only when the rest of a would not fit under
    ``algebra.INT64_MAX``, and the chunk is then as long as fits: at
    small p a whole quotient is one convolution, and at p = 2^31 - 1 a
    chunk is one or two coefficients.
    """
    (bv, mb), (cv, m_out) = b, c
    out = np.zeros(max(len(a) + len(bv) - 1, len(cv)), dtype=np.int64)
    out[:len(cv)] = cv
    if len(a) * _SLICE_ENTRIES <= len(bv):
        m_out, mb = _add_slices(out, m_out, a, bv, mb, p)
    else:
        i = 0
        while len(bv) and i < len(a):
            m_out, mb = _make_room(out, m_out, bv, mb, p, len(a) - i)
            k = min(len(a) - i, (algebra.INT64_MAX - m_out) // ((p - 1) * mb))
            out[i:i + k + len(bv) - 1] += np.convolve(a[i:i + k], bv)
            m_out += k * (p - 1) * mb
            i += k
    b[1] = mb
    return [_arr_trim(out, p), m_out]


def _add_slices(out, m_out, a, bv, mb, p):
    """out += a*bv by one slice update per nonzero a_i; returns the new bounds of out and bv.

    Each update is out[i:] += a_i bv, which is ``_sub_multiple`` by
    p - a_i, with ``_make_room`` before it.
    """
    for i in np.flatnonzero(a).tolist():
        m_out, mb = _make_room(out, m_out, bv, mb, p)
        m_out += _sub_multiple(out[i:i + len(bv)], bv, p - int(a[i]), p) * mb
    return m_out, mb


def _arr_mul(a, b, p):
    """a*b over F_p for a, b with entries in [0, p), reduced.

    Let a be the factor with fewer nonzero entries.  While b has at least
    _SLICE_ENTRIES entries per nonzero entry of a, the product is one
    slice update per nonzero a_i (``_add_slices``, as ``_arr_mul_add``
    adds a short quotient), and one ``algebra._fft_mul`` otherwise.  So
    ``autoseq.witness_residual`` adds a 2-3-term h_i times a power of G
    by slices, and a spread power of G, whose entries are mostly zero, by
    as many slices as it has nonzero entries.
    """
    weights = np.count_nonzero(a), np.count_nonzero(b)
    if weights[0] > weights[1]:
        a, b = b, a
    if min(weights) * _SLICE_ENTRIES > len(b):
        return _fft_mul(a, b, p)
    out = np.zeros(len(a) + len(b) - 1 if len(a) else 0, dtype=np.int64)  # a is () if one is
    _add_slices(out, 0, a, b, p - 1, p)
    return out % p


def _arr_sub(x, y, p):
    """x - y over F_p, trimmed, for x, y with entries in (-p, p)."""
    out = np.zeros(max(len(x), len(y)), dtype=np.int64)
    out[:len(x)] = x
    out[:len(y)] -= y
    return np.trim_zeros(out % p, "b")


def _arr_stretch(a, stride: int, n: int):
    """a(x^stride) mod x^n, for a with entries in [0, p): one strided copy."""
    a = np.trim_zeros(a[:-(-n // stride)], "b")
    out = np.zeros(max(0, (len(a) - 1) * stride + 1), dtype=np.int64)
    out[::stride] = a
    return out
