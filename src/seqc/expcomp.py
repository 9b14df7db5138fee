"""Nth expansion complexity by exact linear algebra over F_p.

E_N is the least total degree D of a nonzero h(s,t) with
h(G(t), t) = 0 mod t^N.  The coefficients of h over the monomials
s^i t^j with i + j <= D (lexicographic in (i, j)) form a vector v, and
row k of the condition reads sum_(i,j) v_(i,j) G^i[k - j] = 0: it is
coefficient k of the residual r_v = sum_(i,j) v_(i,j) t^j G^i mod t^N.
The profile keeps one kernel basis for the current D and shrinks it,
ker A_(k+1) = ker A_k ∩ (row k)^⊥; when it empties, D steps up and the
basis starts again from the unit vectors, shrunk by rows 0..k.  All
arithmetic is exact.

A basis vector v is kept as one entry x_v = r_v + t^N v(t), with v's
coordinate at column c as the coefficient of t^(N+c), together with the
valuation of x_v: that of r_v, or N or more when r_v = 0.  Both halves
are linear in v, so one reduction of x_v reduces the vector and its
residual alike.  The unit vector of column c = (i, j) has the entry
t^j G^i mod t^N + t^(N+c).

Invariant: after rows 0..k-1, every basis residual vanishes below t^k,
since that is what v in ker A_k means.  So row k is nonzero only at the
entries of valuation k, where its value is their coefficient k.  The
first of them in basis order is the pivot and leaves; every other one is
reduced by it, so that its residual vanishes at t^k too.  No row below
the least valuation in the basis touches any entry, so skipping those
rows is exact: the profile works only at the rows where the least
valuation lies (events), each shrink finds the next one in the same
pass, and the rows from one event to the next share one result, each
with its own N.  After a step of D the entry of s^0 t^0, 1 + t^N, has
valuation 0, and the events up to the current row are replayed.

Each result is a tuple-backed record (``typing.NamedTuple``), so one
costs a tuple allocation and no Python-level ``__init__``.  Being a
tuple, a result equals the plain 4-tuple (n, value, witness, capped) of
its fields and unpacks into them.  Building the
results is still most of a long profile's work: past the first events
nearly every result is a copy of the plateau E_N = deg h.

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

One loop serves every field.  It builds each power G^i mod t^N once, in
the field's ``ring.Ring``: G^(pm) as the Frobenius spread G^m(t^p)
(``ring.stretch``, no product), and any other as G^(i-1) G cut at t^N.
The type of the ring's values picks the form of the entries, so the
ring and the form cannot disagree.  An int, over F_2, goes to
``_BitForm``: an entry is one int, coefficient k is bit k, the
valuation is the lowest set bit and a reduction is one XOR.  A ``gf3``
slice pair, over F_3, goes to ``_SliceForm``: an entry is a slice pair,
and a reduction is one slice addition of the pivot or its negation.  An
int64 array, for p >= 5, goes to ``_ArrayForm``, where a reduction
subtracts c times the pivot mod p; under the int64 ring at p = 2 and 3
it cross-checks the other two forms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import PrimeField, _reduce
from .ring import Ring


class ExpansionResult(NamedTuple):
    """E_N with an optional witness as ((i, j, coeff), ...) monomials.

    A tuple, immutable: it equals the plain tuple (n, value, witness,
    capped) and unpacks into those four fields.
    """

    n: int
    value: int
    witness: tuple = None
    capped: bool = False


def monomials(d: int):
    """All (i, j) with i + j <= d, lexicographic."""
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


class _BitForm:
    """F_2: an entry is one int, bit e for t^e below N and bit N + c for column c."""

    def __init__(self, n: int):
        self.n, self.mask = n, (1 << n) - 1

    def unit(self, power: int, j: int, c: int) -> tuple:
        x = (power << j) & self.mask | 1 << (self.n + c)
        return x, (x & -x).bit_length() - 1

    def shrink(self, basis, k: int):
        """The basis that row k leaves, and the least valuation in it.

        The first entry of valuation k is the pivot and leaves; each later
        one has the pivot cleared from it, which keeps its top, since the
        pivot's lies below; the others are kept as they are.
        """
        out, pivot, low = [], None, self.n
        for e in basis:
            if e[1] == k:
                if pivot is None:
                    pivot = e[0]
                    continue
                x = e[0] ^ pivot
                e = x, (x & -x).bit_length() - 1
            out.append(e)
            if e[1] < low:
                low = e[1]
        return out, low

    def entries(self, x: int):
        v = x >> self.n
        return [(c, 1) for c in range(v.bit_length()) if v >> c & 1]


class _SliceForm:
    """F_3: an entry is a ``gf3`` pair (h, l), each slice laid out as an F_2 entry.

    Coefficient k of an entry is 1 where bit k of l is set and 2 where
    that of h is.  The multiplier s / s_pivot of a reduction is 1 or 2,
    so x - (s / s_pivot) pivot adds the pivot negated (its slices
    swapped) when s = s_pivot and the pivot itself otherwise.
    """

    def __init__(self, n: int):
        self.n, self.mask = n, (1 << n) - 1

    def unit(self, power, j: int, c: int) -> tuple:
        h, l = (power[0] << j) & self.mask, (power[1] << j) & self.mask | 1 << (self.n + c)
        y = h | l
        return (h, l), (y & -y).bit_length() - 1

    def shrink(self, basis, k: int):
        """As ``_BitForm.shrink``, with the slice sum of ``gf3.add`` written out.

        As a call to ``gf3.add``, random F_3 profiles took 2-9% longer at
        N = 128 to 512, and sum-of-digits(3) about 3% at N = 256 and 4096
        (medians of 7 alternated runs, 2-vCPU VM).
        """
        bit = 1 << k
        out, pivot, low = [], None, self.n
        for e in basis:
            if e[1] == k:
                one = e[0][1] & bit  # bit where coefficient k is 1, 0 where it is 2
                if pivot is None:
                    pivot, one_pivot, negated = e[0], one, e[0][::-1]
                    continue
                bh, bl = negated if one == one_pivot else pivot
                xh, xl = e[0]
                u = (xl | bh) ^ (xh | bl)
                xh, xl = (xl | bl) ^ u, (xh | bh) ^ u
                y = xh | xl
                e = (xh, xl), (y & -y).bit_length() - 1
            out.append(e)
            if e[1] < low:
                low = e[1]
        return out, low

    def entries(self, x):
        h, l = x[0] >> self.n, x[1] >> self.n
        nz = h | l
        return [(c, 1 if l >> c & 1 else 2) for c in range(nz.bit_length()) if nz >> c & 1]


class _ArrayForm:
    """p >= 5: an entry is an int64 array, t^e at index e and column c at N + c.

    A unit entry ends at its vector's top; a reduced one is as long as
    the longest entry of its event, so entries differ in length.
    """

    def __init__(self, n: int, p: int):
        self.n, self.p = n, p

    def unit(self, power, j: int, c: int) -> tuple:
        x = np.zeros(self.n + c + 1, dtype=np.int64)
        head = power[:self.n - j]
        x[j:j + len(head)] = head
        x[-1] = 1
        return x, int((x != 0).argmax())

    def shrink(self, basis, k: int):
        """As ``_BitForm.shrink``, reducing the entries after the pivot as the rows of one array.

        A numpy call costs about a microsecond at any length, and reducing
        the entries one at a time took nine calls each: random prefixes at
        p = 5 and 2^31 - 1 took 1.8-2.8x longer at N = 64 and 128 that way.
        """
        p = self.p
        hits = [e[0] for e in basis if e[1] == k]
        pivot, rest = hits[0], hits[1:]
        if rest:
            xs = np.zeros((len(rest), max(map(len, hits))), dtype=np.int64)
            for row, x in zip(xs, rest):
                row[:len(x)] = x
            xs[:, :len(pivot)] -= (xs[:, k] * pow(int(pivot[k]), -1, p) % p)[:, None] * pivot
            _reduce(xs, p)
            rest = iter(zip(xs, (xs != 0).argmax(axis=1).tolist()))
        out, low = [], self.n
        for e in basis:
            if e[1] == k:
                if e[0] is pivot:
                    continue
                e = next(rest)
            out.append(e)
            if e[1] < low:
                low = e[1]
        return out, low

    def entries(self, x):
        return [(c, a) for c, a in enumerate(x[self.n:].tolist()) if a]


def expansion_profile(prefix, field: PrimeField, d_max: int | None = None):
    """[E_1, ..., E_len] as ExpansionResults; d_max, if given, caps the total degree."""
    prefix = field.validate_symbols(prefix)
    if d_max is not None and d_max < 1:
        raise ValueError("d_max must be >= 1")
    n, p = len(prefix), field.p
    ring = Ring(field)
    one = ring.monomial(0)
    form = (_BitForm(n) if isinstance(one, int) else _SliceForm(n) if isinstance(one, tuple)
            else _ArrayForm(n, p))
    g = ring.from_coeffs(prefix)
    powers = [one, g]

    def units(mons):
        return [form.unit(powers[i], j, c) for c, (i, j) in enumerate(mons)]

    d, mons = 1, monomials(1)
    basis, low = units(mons), 0  # the unit vector of s^0 t^0 has residual 1, valuation 0
    first = next((k for k, a in enumerate(prefix) if a), n)  # E_N = 0 for N <= first
    out = [ExpansionResult(m, 0) for m in range(1, first + 1)]
    top = wit = None  # the smallest-top basis vector and its witness tuple
    k = 0
    while k < n:
        while low <= k:  # the event at row k, or after a step of D those up to k
            basis, low = form.shrink(basis, low)
            if not basis and (d_max is None or d < d_max):
                d += 1
                mons = monomials(d)
                powers.append(ring.stretch(powers[d // p], p, n) if d % p == 0
                              else ring.split(ring.mul(powers[-1], g), n)[1])
                basis, low, top = units(mons), 0, None
        stop = min(low, n)  # rows k .. stop - 1 end with this basis
        rows = range(max(k, first) + 1, stop + 1)
        if not basis:
            out += [ExpansionResult(m, d_max, capped=True) for m in rows]
        elif rows:
            if basis[0][0] is not top:
                top = basis[0][0]
                wit = tuple((*mons[c], a) for c, a in form.entries(top))
            out += [ExpansionResult(m, d, wit) for m in rows]
        k = stop
    return out
