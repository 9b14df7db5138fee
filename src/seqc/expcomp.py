"""Nth expansion complexity by exact linear algebra over F_p.

E_N is the least total degree D of a nonzero h(s,t) with
h(G(t), t) = 0 mod t^N.  The coefficients of h over the monomials
s^i t^j with i + j <= D (lexicographic in (i, j)) form a vector v, and
row k of the condition reads sum_(i,j) v_(i,j) G^i[k - j] = 0.  The
profile keeps one kernel basis for the current D and shrinks it row by
row, ker A_(N+1) = ker A_N ∩ (row N)^⊥; when it empties, D steps up and
the basis is rebuilt from rows 0..N-1.  All arithmetic is exact.

By default the search has no cap: D steps up until the kernel is
non-empty.  That always ends, because a kernel vector exists once there
are more monomials than rows, (D+1)(D+2)/2 > N; for an automatic
sequence with witness h it ends by D = deg h (Diem, Adv. Math. Commun.
2012: E_N stays bounded exactly for automatic sequences).  An explicit
``d_max`` caps D, and past it a result is reported as capped.

The basis is in echelon form by top index: every vector has a distinct
highest nonzero coordinate, and a 1 there.  Its smallest-top vector is
the unique kernel vector with a 1 at the first free column of the
reduced echelon form and support at or below it, so the witness is
deterministic; its tuple is rebuilt only when that vector changes.

One loop serves every field.  It builds each power G^i mod t^N once,
as G^(i-1) G cut at t^N, in the field's ``ring.Ring``, and hands the
ring's value as it is to the vector form, which the type of that value
picks, so the ring and the form cannot disagree.  An int, over F_2,
goes to ``_BitForm``: a vector and a row are each one int, bit c
standing for column c, so the row test is the parity of ``v & row`` and
a reduction is ``v ^ pivot``.  Each power is kept reversed as one int,
so that the block of a row for one i is one shift and one mask.  A
``gf3`` slice pair, over F_3, goes to ``_SliceForm``: a vector and a row
are slice pairs (h, l), each slice of a row is built as an F_2 row is,
the row test is two popcounts, and a reduction is one slice addition of
the pivot or its negation.  An int64 array, for p >= 5, goes to
``_ListForm``, where vectors and powers are lists of Python ints reduced
mod p; under the int64 ring at p = 2 and 3 that form is the tests'
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .algebra import PrimeField
from .ring import Ring


@dataclass(frozen=True)
class ExpansionResult:
    """E_N with an optional witness as ((i, j, coeff), ...) monomials."""

    n: int
    value: int
    witness: tuple = None
    capped: bool = False


def monomials(d: int):
    """All (i, j) with i + j <= d, lexicographic."""
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


class _BitForm:
    """F_2 vectors and rows as ints, bit c for column c.

    ``rev[i]`` is the power G^i mod t^N reversed: bit N-1-e is its
    coefficient of t^e, so bits N-1-k .. N-1-k+(D-i) hold G^i[k],
    G^i[k-1], ..., G^i[k-D+i], the row's block for i in column order;
    bits past N-1 stand for negative exponents and are 0.
    """

    def __init__(self, n: int):
        self.n = n
        self.rev = []

    def append(self, a: int):
        self.rev.append(int(format(a, f"0{self.n}b")[::-1], 2))

    def row(self, k: int, d: int) -> int:
        shift = self.n - 1 - k
        out = 0
        for i in range(d, -1, -1):  # block 0 ends at the bottom
            width = d - i + 1
            out = out << width | (self.rev[i] >> shift) & ((1 << width) - 1)
        return out

    @staticmethod
    def unit(m: int) -> list:
        return [1 << c for c in range(m)]

    @staticmethod
    def shrink(basis, row) -> list:
        out = []
        pivot = None
        for v in basis:
            if (v & row).bit_count() & 1:
                if pivot is None:
                    pivot = v
                    continue
                v ^= pivot
            out.append(v)
        return out

    @staticmethod
    def entries(v: int):
        return [(c, 1) for c in range(v.bit_length()) if v >> c & 1]


class _SliceForm:
    """F_3 vectors and rows as ``gf3`` pairs (h, l), bit c for column c.

    The powers are kept in one ``_BitForm`` per slice, so each slice of
    a row is built as ``_BitForm`` builds an F_2 row.  A product of
    entries is 1 where both are 1 or both are 2 and 2 where they differ,
    so v . row counts the first set once and the second twice; h & l = 0
    keeps the sets disjoint.  The multiplier s / s_pivot of a reduction
    is 1 or 2, so v - (s / s_pivot) pivot adds the pivot negated (its
    slices swapped) when s = s_pivot and the pivot itself otherwise.
    """

    def __init__(self, n: int):
        self.h, self.l = _BitForm(n), _BitForm(n)

    def append(self, a):
        self.h.append(a[0])
        self.l.append(a[1])

    def row(self, k: int, d: int) -> tuple:
        return self.h.row(k, d), self.l.row(k, d)

    @staticmethod
    def unit(m: int) -> list:
        return [(0, 1 << c) for c in range(m)]

    @staticmethod
    def shrink(basis, row) -> list:
        """As ``_ListForm.shrink``, with the slice sum of ``gf3.add`` written out.

        As a call to ``gf3.add``, random F_3 profiles took about 4% longer
        (medians of 15 alternated runs: 28.4 -> 31.5 ms at N = 128 and
        80.8 -> 84.0 ms at N = 200, 2-vCPU VM); sum-of-digits(3) and
        pattern(3,2,4) did not move beyond their spread.
        """
        rh, rl = row
        out = []
        pivot = None
        for v in basis:
            vh, vl = v
            s = (((vl & rl) | (vh & rh)).bit_count()
                 + 2 * ((vl & rh) | (vh & rl)).bit_count()) % 3
            if not s:
                out.append(v)
            elif pivot is None:
                pivot, s_pivot, negated = v, s, v[::-1]
            else:
                bh, bl = pivot if s != s_pivot else negated
                u = (vl | bh) ^ (vh | bl)
                out.append(((vl | bl) ^ u, (vh | bh) ^ u))
        return out

    @staticmethod
    def entries(v):
        h, l = v
        nz = h | l
        return [(c, 1 if l >> c & 1 else 2) for c in range(nz.bit_length()) if nz >> c & 1]


class _ListForm:
    """Vectors, rows and the powers G^i mod t^N as lists of ints in [0, p).

    It reads the ring's int64 arrays: it serves p >= 5, and under the
    int64 ring at p = 2 and 3 it is the tests' reference.

    A vector ends at its top, so its length is its top index plus one.

    ``rev[i]`` is G^i mod t^N reversed, t^e at index N-1-e, so a row's
    block for i is one slice from N-1-k, as in ``_BitForm``.  N zeros
    follow for the negative exponents: the kernel at D - 1 is empty only
    once there are D(D+1)/2 <= N rows, so D <= N.
    """

    def __init__(self, n: int, p: int):
        self.n, self.p = n, p
        self.rev = []

    def append(self, a):
        self.rev.append([0] * (self.n - len(a)) + a[::-1].tolist() + [0] * self.n)

    def row(self, k: int, d: int) -> list:
        start = self.n - 1 - k
        out = []
        for i in range(d + 1):
            out += self.rev[i][start:start + d - i + 1]
        return out

    @staticmethod
    def unit(m: int) -> list:
        return [[0] * r + [1] for r in range(m)]

    def shrink(self, basis, row) -> list:
        """Echelon basis of {v in span(basis) : row . v = 0}, tops kept.

        The vector of smallest top among those the row does not annihilate
        is the pivot: it is dropped, and its multiples cleared from the
        others, whose tops lie above it and so stay put.  A vector is kept
        only up to its top, so a reduction touches the pivot's columns alone.
        """
        p = self.p
        out = []
        pivot = None
        for v in basis:
            s = sum(map(mul, v, row)) % p
            if not s:
                out.append(v)
            elif pivot is None:
                pivot, pivot_inv = v, pow(s, -1, p)
            else:
                c = s * pivot_inv % p
                out.append([(a - c * b) % p for a, b in zip(v, pivot)] + v[len(pivot):])
        return out

    @staticmethod
    def entries(v: list):
        return [(c, a) for c, a in enumerate(v) if a]


def expansion_profile(prefix, field: PrimeField, d_max: int | None = None):
    """[E_1, ..., E_len] as ExpansionResults; d_max, if given, caps the total degree."""
    prefix = field.validate_symbols(prefix)
    if d_max is not None and d_max < 1:
        raise ValueError("d_max must be >= 1")
    n = len(prefix)
    ring = Ring(field)
    one = ring.monomial(0)
    form = (_BitForm(n) if isinstance(one, int) else _SliceForm(n) if isinstance(one, tuple)
            else _ListForm(n, field.p))
    g = power = ring.from_coeffs(prefix)
    form.append(one)
    form.append(g)
    d, mons = 1, monomials(1)
    basis = form.unit(len(mons))
    out = []
    nonzero = False
    top = wit = None  # the smallest-top basis vector and its witness tuple
    for k in range(n):
        basis = form.shrink(basis, form.row(k, d))
        while not basis and (d_max is None or d < d_max):
            d += 1
            mons = monomials(d)
            power = ring.split(ring.mul(power, g), n)[1]
            form.append(power)
            basis = form.unit(len(mons))
            top = None
            for r in range(k + 1):
                basis = form.shrink(basis, form.row(r, d))
                if not basis:
                    break
        nonzero = nonzero or prefix[k] != 0
        if not nonzero:
            out.append(ExpansionResult(k + 1, 0))
        elif basis:
            if basis[0] is not top:
                top = basis[0]
                wit = tuple((*mons[c], a) for c, a in form.entries(top))
            out.append(ExpansionResult(k + 1, d, wit))
        else:
            out.append(ExpansionResult(k + 1, d_max, capped=True))
    return out
