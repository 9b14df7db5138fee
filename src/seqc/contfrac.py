"""Continued fractions of truncated Laurent series over F_p.

A series is read as one polynomial, G = x^N R cut below x^0, which
``cf_expand`` packs once and the expansion keeps; the convergents and
the certificate read that G.  One split gives G = A_0 x^N + g, deg g < N,
and the primary engine runs the Euclidean algorithm on (x^N, g); it is
integer-exact and needs no precision bookkeeping inside the loop.  It
works on the remainders only: each step records the partial quotient A_j
and adds deg A_j to the running sum deg Q_j = deg A_1 + ... + deg A_j,
which is all a profile reads.  The profile walk reads them once per run of equal L(N): one
``np.repeat`` lays out every run, sharing each quotient's int.  The
convergents (P_j, Q_j) are never stored.  The denominators are the one
convergent stream: ``convergent(j)`` and ``check_convergent_identities``
rebuild Q_j from the quotients by the three-term recurrence, holding two
at a time, and a numerator is read off one product, P_j = Pol(Q_j R).
``q_congruences`` runs the same recurrence on w-bit residues mod
x^w + 1 and builds no full Q_j.  The tests check the engine against an
independent polynomial-part/inverse recursion on truncated series.

Polynomials are in the form the field chooses (``ring.Ring``): bit-packed
ints over F_2, ``gf3`` slice pairs over F_3 and int64 arrays otherwise,
where the Euclid remainders and the denominators stay unreduced under an
int64 bound, exact at every p <= 2^31 - 1.  This module keeps no
polynomial code of its own.

Reliability is two-tiered.  Convergent degrees are determined by the
first N coefficients whenever deg Q_{j-1} + deg Q_j <= N (the profile
bracketing), so every such quotient is recorded.  The quotient
polynomial itself is only determined when Q_j is the unique minimal
recurrence for the prefix, which needs 2 deg Q_j <= N; quotient values
past that index can pick up truncation noise in their low-order
coefficients and are not emitted as ``quotients``.

``check_convergent_identities`` certifies an expansion for about the
cost of one Euclid pass: it streams the denominator recurrence, checks
the quotient and denominator degrees at every j, and takes full products
at the last two denominators only.  One product Q_J G gives both P_J and
the residual of the approximation property that ties the quotients to
the input; one of Q_{J-1} with G's coefficients from x^(N - deg Q_{J-1})
up, about half of them, gives P_{J-1}; two more give the determinant.
Each such product is exact (``Ring.mul``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from . import gf2
from .algebra import LaurentSeries, Poly, PrecisionError, PrimeField
from .autoseq import Profile
from .ring import Ring


@dataclass
class CFExpansion:
    """Partial quotients A_0..A_J of a series, with denominator degrees.

    ``scaled_input`` is the input as ``cf_expand`` packed it, G = x^N R
    cut below x^0 in ring form, for R known down to x^-N
    (N = ``precision``).  ``raw_quotients`` holds A_0 and every
    degree-certified quotient (deg Q_{j-1} + deg Q_j <= N) in ring form:
    bit-packed ints over F_2, ``gf3`` slice pairs over F_3, int64
    coefficient arrays otherwise.  ``q_degrees`` holds deg Q_0..deg Q_J,
    the running sums of the quotient degrees, which the profile walk
    reads.  ``quotients`` converts only the value-certified quotients
    (2 deg Q_j <= N) to Poly, on first use.  No convergent pair is
    stored: ``convergent(j)`` rebuilds Q_j by the three-term recurrence
    in memory linear in deg Q_j, and reads P_j = Pol(Q_j R) off one
    product with G.  P_j is the numerator of the j-th convergent because
    |Q_j R - P_j| = 1 / |Q_{j+1}| < 1 (or 0 at the last convergent of a
    rational R); ``check_convergent_identities`` proves that the stored
    quotients make these the convergents of the stored G.
    """

    field: PrimeField
    precision: int  # N: the number of known coefficients below x^0
    scaled_input: object  # G = x^N R cut below x^0, in ring form
    raw_quotients: tuple  # A_0, A_1, ..., A_J in ring form
    q_degrees: tuple  # deg Q_0, ..., deg Q_J

    @cached_property
    def reliable_count(self) -> int:
        """Largest j such that A_1..A_j are certified for the input precision."""
        return _value_certified_count(self.q_degrees, self.precision)

    @property
    def degree_count(self) -> int:
        """Largest j for which deg Q_j is certified (may exceed reliable_count)."""
        return len(self.q_degrees) - 1

    @cached_property
    def quotients(self) -> tuple:
        """A_0, A_1, ..., A_{reliable_count} as Poly."""
        to_poly = Ring(self.field).to_poly
        return tuple(map(to_poly, self.raw_quotients[:self.reliable_count + 1]))

    def convergent(self, j: int):
        """(P_j, Q_j) as Poly pairs: Q_j rebuilt from A_1..A_j, P_j = Pol(Q_j R)."""
        if not 0 <= j < len(self.raw_quotients):
            raise IndexError(f"convergent index {j} outside [0, {len(self.raw_quotients)})")
        ring = Ring(self.field)
        q = next(islice(_denominators(self), j, None))
        return ring.to_poly(_numerator(ring, self.scaled_input, self.precision, q)), ring.to_poly(q)


def _euclid(ring: Ring, r_prev, r_cur, n: int):
    """(A_1, A_2, ...), (deg Q_1, deg Q_2, ...) of r_cur / r_prev,
    while deg Q_{j-1} + deg Q_j <= n.

    Only remainders are carried, as terms; deg Q_j is the running sum of
    the quotient degrees.  deg A_j = deg r_{j-2} - deg r_{j-1} is known
    before the division, so the quotient past the last one is never
    computed.
    """
    divmod_, degree, value = ring.divmod, ring.degree, ring.value
    quotients, degs = [], []
    deg_q = 0
    r_prev, r_cur = ring.term(r_prev), ring.term(r_cur)
    deg_prev, deg_cur = degree(value(r_prev)), degree(value(r_cur))
    while deg_cur >= 0 and 2 * deg_q + deg_prev - deg_cur <= n:
        a, r_next = divmod_(r_prev, r_cur)
        quotients.append(a)
        deg_q += deg_prev - deg_cur
        degs.append(deg_q)
        r_prev, r_cur = r_cur, r_next
        deg_prev, deg_cur = deg_cur, degree(value(r_cur))
    return quotients, degs


def _value_certified_count(degs, n) -> int:
    """Quotients whose value 2 deg Q_j <= n pins down (minimal recurrence unique)."""
    rc = 0
    while rc + 1 < len(degs) and 2 * degs[rc + 1] <= n:
        rc += 1
    return rc


def cf_expand(r: LaurentSeries) -> CFExpansion:
    """Certified continued-fraction expansion of a truncated series.

    One split of G = x^N R gives A_0 and g, and Euclid on (x^N, g) the
    rest; at g = 0, the zero series included, A_0 is the whole expansion.
    G is packed once, from R's known coefficients reversed: top first,
    they are G's from x^(top + N) down to x^0.
    """
    ring = Ring(r.field)
    n = -r.low
    scaled = ring.from_coeffs(r.coeffs[::-1])
    a0, g = ring.split(scaled, n)
    quots, degs = _euclid(ring, ring.monomial(n), g, n)
    return CFExpansion(r.field, n, scaled, (a0, *quots), (0, *degs))


def profile_from_cf(r: LaurentSeries, n_max: int) -> Profile:
    """Linear complexity profile from the convergent denominators of r."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if r.valuation >= 0:
        raise ValueError("expected a sequence series with valuation < 0")
    return profile_from_expansion(cf_expand(r), n_max)


def profile_from_expansion(expansion: CFExpansion, n_max: int) -> Profile:
    """Linear complexity profile from an expansion's denominator degrees.

    L(N) = deg Q_j for the unique j with
    deg Q_{j-1} + deg Q_j <= N < deg Q_j + deg Q_{j+1}.

    The walk fills one run of N per j: deg Q_j from the current N up to
    deg Q_j + deg Q_{j+1} - 1 (to n_max for the last j), sharing the int
    deg Q_j across the run.  A run that ends at or before the current N is
    empty, so at every N the j is the first whose run end lies past N,
    whatever the degrees.  The run lengths are differences of the running
    maximum of the ends, and one ``np.repeat`` over an object array of the
    degrees lays out the runs.
    """
    if expansion.precision < n_max:
        raise PrecisionError(f"series precision {expansion.precision} < n_max {n_max}")
    degs = expansion.q_degrees
    arr = np.array(degs, dtype=np.int64)
    # the first N past each run: deg Q_j + deg Q_{j+1} capped at n_max + 1,
    # after 1 (the first N) and never below an earlier end
    ends = np.concatenate(([1], arr[:-1] + arr[1:], [n_max + 1]))
    ends = np.minimum(np.maximum.accumulate(ends), n_max + 1)
    runs = np.empty(len(degs), dtype=object)
    runs[:] = degs
    return Profile(tuple(np.repeat(runs, np.diff(ends))))


def _denominators(expansion: CFExpansion):
    """Q_0 = 1, Q_1, ..., Q_J in ring form, Q_j = A_j Q_{j-1} + Q_{j-2} from Q_{-1} = 0.

    Holds two terms at a time, so memory stays linear in deg Q_J.
    """
    ring = Ring(expansion.field)
    mul_add, value = ring.mul_add, ring.value
    prev, cur = ring.term(ring.from_coeffs(())), ring.term(ring.monomial(0))
    yield value(cur)
    for a in expansion.raw_quotients[1:]:
        prev, cur = cur, mul_add(a, cur, prev)
        yield value(cur)


def _numerator(ring: Ring, g, n: int, q):
    """Pol(Q R) for a polynomial Q, from G = x^N R cut below x^0.

    Q times a coefficient of R below x^-deg Q lands below x^0, so only
    R's coefficients down to x^-deg Q, G's from x^(N - deg Q) up, take
    part (all of G when deg Q > N, which only a corrupted expansion has).
    """
    k = min(ring.degree(q), n)
    return ring.split(ring.mul(q, ring.split(g, n - k)[0]), k)[0]


def _last_convergent_ok(expansion: CFExpansion, ring: Ring, q_prev, q_last) -> bool:
    """Determinant and approximation property at J, from Q_{J-1}, Q_J and G alone."""
    g, n, dq = expansion.scaled_input, expansion.precision, expansion.q_degrees[-1]
    j_last = len(expansion.raw_quotients) - 1
    p_last, residual = ring.split(ring.mul(q_last, g), n)  # Q_J G = P_J x^N + residual
    # J = 0: (P_{-1}, Q_{-1}) = (1, 0) and the determinant is Q_0 = 1, checked already
    if j_last:
        p_prev = _numerator(ring, g, n, q_prev)
        det = ring.sub(ring.mul(p_prev, q_last), ring.mul(p_last, q_prev))
        if ring.to_poly(det) != Poly(expansion.field, ((-1) ** j_last,)):
            return False
    return ring.degree(residual) < min(n - dq, dq)


def check_convergent_identities(expansion: CFExpansion):
    """Certify the stored quotients and degrees as the expansion of the stored G.

    The denominators are rebuilt from the stored quotients by the
    three-term recurrence Q_j = A_j Q_{j-1} + Q_{j-2} from
    (Q_{-1}, Q_0) = (0, 1).  A_0 must be G div x^N, the polynomial part
    of the series, and at every j >= 1 deg A_j >= 1 and
    q_degrees[j] = q_degrees[j-1] + deg A_j must hold, so the degrees the
    profile walk reads are those of the rebuilt denominators: F_p[x] is a
    domain, so once deg Q_{j-1} > deg Q_{j-2} and deg A_j >= 1,
    deg(A_j Q_{j-1}) > deg Q_{j-2} and deg Q_j = deg A_j + deg Q_{j-1},
    and this check fails at the same first j as deg Q_j = q_degrees[j]
    would, without reading Q_j.  The two checks below do not imply
    deg A_j >= 1: the quotient matrices of 1, -1, 1 multiply to
    diag(1, -1), so appending those three constants passes both.

    Last convergent J, with full products.  G = x^N R cut below x^0
    (``scaled_input``) holds the N known symbols plus A_0 x^N.  The
    numerators are read off the denominators: P_j = Pol(Q_j R), so
    Q_J G = P_J x^N + r with deg r < N, where r is up to sign the
    remainder r_J that the Euclid loop holds at J, of degree
    N - deg Q_{J+1} (-inf when r_J = 0); and P_{J-1} = Pol(Q_{J-1} R)
    needs R only down to x^-deg Q_{J-1}.  Two checks follow.

    The determinant P_{J-1} Q_J - P_J Q_{J-1} = (-1)^J.  Let T be the
    product of the quotient matrices [[A_j, 1], [1, 0]], j = 0..J, which
    is [[P*_J, P*_{J-1}], [Q_J, Q_{J-1}]] with P*_j the numerators of the
    recurrence.  The derived matrix [[P_J, P_{J-1}], [Q_J, Q_{J-1}]] has
    T's bottom row and, by this check, T's determinant (-1)^(J+1), so it
    is [[1, c], [0, 1]] T for a polynomial c: P_J / Q_J, in lowest terms
    by the determinant, is [A_0 + c; A_1, ..., A_J].

    The approximation property, with the exact bound

        deg r < min(N - deg Q_J, deg Q_J).

    N - deg Q_J holds because deg Q_{J+1} > deg Q_J; it is Legendre's
    criterion, which makes P_J / Q_J a convergent of G / x^N.  A continued
    fraction whose quotients past the first all have degree >= 1 is
    unique, so A_0 + c, A_1, ..., A_J are the first J+1 partial quotients
    of the input; the A_0 check above then forces c = 0, and every stored
    quotient is certified, not only the last (W. M. Schmidt, "On continued
    fractions and Diophantine approximation in power series fields", Acta
    Arith. 2000).  deg Q_J holds because the expansion stops at the first
    J with deg Q_J + deg Q_{J+1} > N (or at r_J = 0); it rejects an
    expansion cut short.  Returns the index of the first failing
    convergent or None.
    """
    ring = Ring(expansion.field)
    quots, degs = expansion.raw_quotients, expansion.q_degrees
    if len(degs) != len(quots):
        return min(len(degs), len(quots))
    a0 = ring.split(expansion.scaled_input, expansion.precision)[0]
    if ring.to_poly(quots[0]) != ring.to_poly(a0) or degs[0] != 0:
        return 0
    denominators = _denominators(expansion)
    q_prev = q_last = next(denominators)
    for j, q in enumerate(denominators, 1):
        deg_a = ring.degree(quots[j])
        if deg_a < 1 or degs[j] != degs[j - 1] + deg_a:
            return j
        q_prev, q_last = q_last, q
    return None if _last_convergent_ok(expansion, ring, q_prev, q_last) else len(quots) - 1


def q_congruences(expansion: CFExpansion, k: int) -> tuple:
    """Check the Q_j congruences of the all-one-pattern analysis.

    For k = 1 every Q_j must satisfy Q_j = 1 mod (x+1); for k >= 2 even
    indices give 1 and odd indices x+1 modulo x^w + 1, w = 2^{k-1}.  The
    recurrence runs on the residues alone:

        Q_j mod (x^w + 1) = fold(fold(A_j) * (Q_{j-1} mod x^w + 1)) + (Q_{j-2} mod x^w + 1)

    with fold = ``gf2.fold_mod`` at width w, which is exact because
    reduction mod x^w + 1 is a ring homomorphism.  Each step is a product
    of two w-bit ints, whatever deg Q_j is.  Returns the failures as
    (j, expected bits, actual bits), in order of j.
    """
    if expansion.field.p != 2:
        raise ValueError("congruence report is defined over F_2 only")
    if k < 1:
        raise ValueError("k must be >= 1")
    width = 1 << (k - 1)  # x^width + 1 is x + 1 when k = 1
    cong_fail = []
    prev, cur = 0, 1  # Q_{-1}, Q_0 mod x^width + 1
    for j, a in enumerate(expansion.raw_quotients[:expansion.reliable_count + 1]):
        if j:
            prev, cur = cur, gf2.fold_mod(gf2.mul(gf2.fold_mod(a, width), cur), width) ^ prev
        expected = 1 if (k == 1 or j % 2 == 0) else 0b11
        if cur != expected:
            cong_fail.append((j, expected, cur))
    return tuple(cong_fail)
