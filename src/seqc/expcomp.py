"""Nth expansion complexity by exact linear algebra over F_p.

E_N is the least total degree D of a nonzero h(s,t) with
h(G(t), t) = 0 mod t^N.  The coefficients of h over the monomials
s^i t^j with i + j <= D (lexicographic in (i, j)) form a vector v, and
row k of the condition reads sum_(i,j) v_(i,j) G^i[k - j] = 0.  The
profile keeps one kernel basis for the current D and shrinks it row by
row, ker A_(N+1) = ker A_N ∩ (row N)^⊥; when it empties, D steps up and
the basis is rebuilt from rows 0..N-1.  All arithmetic is on Python
ints, so it is exact at every supported p.

The basis is in echelon form by top index: every vector has a distinct
highest nonzero coordinate, and a 1 there.  Its smallest-top vector is
the unique kernel vector with a 1 at the first free column of the
reduced echelon form and support at or below it, so the witness is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .algebra import PrimeField, _kron_mul


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


def _shrink(basis, row, p):
    """Echelon basis of {v in span(basis) : row . v = 0}, tops kept.

    The vector of smallest top among those the row does not annihilate
    is the pivot: it is dropped, and its multiples cleared from the
    others, whose tops lie above it and so stay put.
    """
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
            out.append([(a - c * b) % p for a, b in zip(v, pivot)])
    return out


def _unit_basis(m):
    return [[int(c == r) for c in range(m)] for r in range(m)]


def expansion_profile(prefix, field: PrimeField, d_max: int = 8):
    """[E_1, ..., E_len] as ExpansionResults; the search is capped at total degree d_max."""
    n_total = len(prefix)
    if n_total < 1:
        raise ValueError("prefix must contain at least one symbol")
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    field.validate_symbols(prefix)
    p = field.p
    g = list(prefix)
    pows = [[1] + [0] * (n_total - 1), g]  # G^i mod t^N, extended as D grows
    d, mons = 1, monomials(1)
    basis = _unit_basis(len(mons))

    def row(k):
        return [pows[i][k - j] if k >= j else 0 for i, j in mons]

    out = []
    nonzero = False
    for k in range(n_total):
        basis = _shrink(basis, row(k), p)
        while not basis and d < d_max:
            d += 1
            mons = monomials(d)
            pows.append(_kron_mul(pows[-1], g, p)[:n_total].tolist())
            basis = _unit_basis(len(mons))
            for r in range(k + 1):
                basis = _shrink(basis, row(r), p)
                if not basis:
                    break
        nonzero = nonzero or prefix[k] != 0
        if not nonzero:
            out.append(ExpansionResult(k + 1, 0))
        elif basis:
            wit = tuple((i, j, c) for (i, j), c in zip(mons, basis[0]) if c)
            out.append(ExpansionResult(k + 1, d, wit))
        else:
            out.append(ExpansionResult(k + 1, d_max, capped=True))
    return out
