"""Continued fractions of truncated Laurent series over F_p.

A series is read as one polynomial, G = x^N R cut below x^0, which
``_scaled_input`` alone builds; the expansion, the convergents and the
certificate all read it.  One split gives G = A_0 x^N + g, deg g < N,
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

Over F_2 polynomials are bit-packed ints (``gf2``), and each Euclid
step is one ``gf2.divmod_`` on them: one shifted XOR of the divisor per
quotient bit, and the divisor itself, unshifted, for a constant term.
Thue-Morse has a constant term in every quotient, a random stream in
about half.  For odd p polynomials are numpy int64 coefficient arrays,
low to high.  A quotient has entries in [0, p).  A Euclid remainder and
a denominator from the recurrence are kept unreduced, as a term
[coeffs, M] with |coeffs_i| <= M, whose top entry alone is reduced and
nonzero, so its degree is its length less one; a reduction in place lowers M in place.  Each product c*y
(c in [0, p)) added to x raises x's bound by (p-1) M_y, and
``algebra._make_room`` reduces an operand mod p only when the next
products could pass 2^63 - 1.  A division step by a quotient
coefficient c = 1 or c = p - 1 forms no product: it subtracts or adds
the divisor (``algebra._sub_multiple``) and raises the bound by M_y
alone, as every step does at p = 3.  So every step is exact at every
p <= 2^31 - 1, and at small p a reduction is rare.  The recurrence
adds A_j y by one slice update per coefficient while A_j is short
beside y, as a division step does, and otherwise by one
``np.convolve`` per chunk of A_j: a chunk of k coefficients raises the
bound by k (p-1) M_y, and a chunk is as long as the room left under
2^63 - 1 allows, so at small p a quotient is one convolution and at
p = 2^31 - 1 a chunk is one or two coefficients.

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
Each such product is exact.  For odd p it is one Kronecker product
(``algebra._kron_mul``) of the arrays reduced mod p.  Over F_2 it is
``gf2.mul`` on the packed ints, whose 8-bit window table serves these
dense operands, while the recurrence's sparse quotients take its
shift-and-XOR path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import xor

import numpy as np

from . import algebra, gf2
from .algebra import (LaurentSeries, Poly, PrecisionError, PrimeField, _kron_mul, _make_room,
                      _sub_multiple)
from .autoseq import Profile


@dataclass
class CFExpansion:
    """Partial quotients A_0..A_J of a series, with denominator degrees.

    ``series`` is the expanded input, known down to x^-N.
    ``raw_quotients`` holds A_0 and every degree-certified quotient
    (deg Q_{j-1} + deg Q_j <= N) in backend form: bit-packed ints over
    F_2, int64 coefficient arrays otherwise.  ``q_degrees`` holds
    deg Q_0..deg Q_J, the running sums of the quotient degrees, which the
    profile walk reads.  ``quotients`` converts only the value-certified
    quotients (2 deg Q_j <= N) to Poly, on first use.  No convergent pair
    is stored: ``convergent(j)`` rebuilds Q_j by the three-term recurrence
    in memory linear in deg Q_j, and reads P_j = Pol(Q_j R) off one
    product.  P_j is the numerator of the j-th convergent because
    |Q_j R - P_j| = 1 / |Q_{j+1}| < 1 (or 0 at the last convergent of a
    rational R); ``check_convergent_identities`` proves that the stored
    quotients make these the input's convergents.
    """

    series: LaurentSeries
    raw_quotients: tuple  # A_0, A_1, ..., A_J in backend form
    q_degrees: tuple  # deg Q_0, ..., deg Q_J

    @property
    def field(self) -> PrimeField:
        return self.series.field

    @property
    def precision(self) -> int:
        """N: the number of known coefficients below x^0."""
        return -self.series.low

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
        to_poly = _Backend(self.field).to_poly
        return tuple(map(to_poly, self.raw_quotients[:self.reliable_count + 1]))

    def convergent(self, j: int):
        """(P_j, Q_j) as Poly pairs: Q_j rebuilt from A_1..A_j, P_j = Pol(Q_j R)."""
        if not 0 <= j < len(self.raw_quotients):
            raise IndexError(f"convergent index {j} outside [0, {len(self.raw_quotients)})")
        backend = _Backend(self.field)
        q = next(islice(_denominators(self), j, None))
        g = _scaled_input(backend, self.series)
        return backend.to_poly(_numerator(backend, g, self.precision, q)), backend.to_poly(q)


class _Backend:
    """Polynomial operations on one field's backend form.

    ``from_symbols`` packs u_0..u_{n-1} as the coefficients of x^{n-1}..x^0,
    and ``monomial(n)`` is x^n.  The Euclid remainders and the recurrence
    terms travel as terms: over F_2 the value itself, for odd p a list
    [coeffs, bound] (module docstring).  ``term`` makes one from a value
    with entries in [0, p) and ``value`` gives back its polynomial.
    ``divmod(a, b)`` takes two terms and ``mul_add(a, b, c)`` a quotient
    a and two terms; for odd p either may reduce b in place, lowering its
    bound with it.  ``mul`` (the exact full product), ``sub`` and
    ``split(a, n)`` = (a div x^n, a mod x^n) take values; for odd p
    ``mul`` reduces its operands mod p first, and the parts of ``split``
    are trimmed: a mod x^n is a view of a, a div x^n a copy, so a
    quotient kept from it holds no more than its own entries.
    """

    def __init__(self, field: PrimeField):
        p = field.p
        if p == 2:
            self.term = self.value = lambda v: v
            self.mul = gf2.mul
            self.sub = xor
            self.split = lambda a, n: (a >> n, a & ((1 << n) - 1))
            self.mul_add = lambda a, b, c: gf2.mul(a, b) ^ c
            self.divmod = gf2.divmod_
            self.degree = gf2.degree
            self.to_poly = lambda bits: gf2.to_poly(bits, field)
            self.from_symbols = lambda symbols: gf2.from_bits(symbols[::-1])
            self.monomial = lambda n: 1 << n
        else:
            self.term = lambda arr: [arr, p - 1]
            self.value = lambda term: term[0]
            self.mul = lambda a, b: _kron_mul(a % p, b % p, p)
            self.sub = lambda a, b: _arr_sub(a, b, p)
            self.split = lambda a, n: (a[n:].copy(), np.trim_zeros(a[:n], "b"))
            self.mul_add = lambda a, b, c: _arr_mul_add(a, b, c, p)
            self.divmod = lambda a, b: _arr_divmod(a, b, p)
            self.degree = _arr_degree
            self.to_poly = lambda arr: Poly(field, tuple(arr.tolist()))
            self.from_symbols = lambda symbols: _arr_trim(np.array(symbols[::-1], dtype=np.int64), p)
            self.monomial = lambda n: np.array([0] * n + [1], dtype=np.int64)


def _euclid(backend: _Backend, r_prev, r_cur, n: int):
    """(A_1, A_2, ...), (deg Q_1, deg Q_2, ...) of r_cur / r_prev,
    while deg Q_{j-1} + deg Q_j <= n.

    Only remainders are carried, as terms; deg Q_j is the running sum of
    the quotient degrees.  deg A_j = deg r_{j-2} - deg r_{j-1} is known
    before the division, so the quotient past the last one is never
    computed.
    """
    divmod_, degree, value = backend.divmod, backend.degree, backend.value
    quotients, degs = [], []
    deg_q = 0
    r_prev, r_cur = backend.term(r_prev), backend.term(r_cur)
    deg_prev, deg_cur = degree(value(r_prev)), degree(value(r_cur))
    while deg_cur >= 0 and 2 * deg_q + deg_prev - deg_cur <= n:
        a, r_next = divmod_(r_prev, r_cur)
        quotients.append(a)
        deg_q += deg_prev - deg_cur
        degs.append(deg_q)
        r_prev, r_cur = r_cur, r_next
        deg_prev, deg_cur = deg_cur, degree(value(r_cur))
    return quotients, degs


def _arr_degree(a) -> int:
    return len(a) - 1


def _arr_trim(a, p):
    """Drop entries that vanish mod p from the top; reduce the new top in place."""
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
        for i, coef in enumerate(a.tolist()):
            if coef:
                m_out, mb = _make_room(out, m_out, bv, mb, p)
                m_out += _sub_multiple(out[i:i + len(bv)], bv, p - coef, p) * mb
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


def _arr_sub(x, y, p):
    """x - y over F_p, trimmed, for x, y with entries in [0, p)."""
    out = np.zeros(max(len(x), len(y)), dtype=np.int64)
    out[:len(x)] = x
    out[:len(y)] -= y
    return np.trim_zeros(out % p, "b")


def _value_certified_count(degs, n) -> int:
    """Quotients whose value 2 deg Q_j <= n pins down (minimal recurrence unique)."""
    rc = 0
    while rc + 1 < len(degs) and 2 * degs[rc + 1] <= n:
        rc += 1
    return rc


def _scaled_input(backend: _Backend, series: LaurentSeries):
    """G = x^N R cut below x^0 in backend form, for R known down to x^-N.

    R's known coefficients, top first, are G's from x^(top + N) down to
    x^0, so ``split(G, N)`` gives A_0 = Pol(R) and g = x^N (R - A_0).
    """
    return backend.from_symbols(series.coeffs)


def cf_expand(r: LaurentSeries) -> CFExpansion:
    """Certified continued-fraction expansion of a truncated series.

    One split of G = x^N R gives A_0 and g, and Euclid on (x^N, g) the
    rest; at g = 0, the zero series included, A_0 is the whole expansion.
    """
    backend = _Backend(r.field)
    n = -r.low
    a0, g = backend.split(_scaled_input(backend, r), n)
    quots, degs = _euclid(backend, backend.monomial(n), g, n)
    return CFExpansion(r, (a0, *quots), (0, *degs))


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
    """Q_0 = 1, Q_1, ..., Q_J in backend form, Q_j = A_j Q_{j-1} + Q_{j-2} from Q_{-1} = 0.

    Holds two terms at a time, so memory stays linear in deg Q_J.
    """
    backend = _Backend(expansion.field)
    mul_add, value = backend.mul_add, backend.value
    prev, cur = backend.term(backend.from_symbols(())), backend.term(backend.monomial(0))
    yield value(cur)
    for a in expansion.raw_quotients[1:]:
        prev, cur = cur, mul_add(a, cur, prev)
        yield value(cur)


def _numerator(backend: _Backend, g, n: int, q):
    """Pol(Q R) for a polynomial Q, from G = x^N R cut below x^0.

    Q times a coefficient of R below x^-deg Q lands below x^0, so only
    R's coefficients down to x^-deg Q, G's from x^(N - deg Q) up, take
    part (all of G when deg Q > N, which only a corrupted expansion has).
    """
    k = min(backend.degree(q), n)
    return backend.split(backend.mul(q, backend.split(g, n - k)[0]), k)[0]


def _last_convergent_ok(expansion: CFExpansion, backend: _Backend, g, q_prev, q_last) -> bool:
    """Determinant and approximation property at J, from Q_{J-1}, Q_J and G alone."""
    n, dq = expansion.precision, expansion.q_degrees[-1]
    j_last = len(expansion.raw_quotients) - 1
    p_last, residual = backend.split(backend.mul(q_last, g), n)  # Q_J G = P_J x^N + residual
    # J = 0: (P_{-1}, Q_{-1}) = (1, 0) and the determinant is Q_0 = 1, checked already
    if j_last:
        p_prev = _numerator(backend, g, n, q_prev)
        det = backend.sub(backend.mul(p_prev, q_last), backend.mul(p_last, q_prev))
        if backend.to_poly(det) != Poly(expansion.field, ((-1) ** j_last,)):
            return False
    return backend.degree(residual) < min(n - dq, dq)


def check_convergent_identities(expansion: CFExpansion):
    """Certify the stored quotients and degrees as the expansion of the stored series.

    The denominators are rebuilt from the stored quotients by the
    three-term recurrence Q_j = A_j Q_{j-1} + Q_{j-2} from
    (Q_{-1}, Q_0) = (0, 1).  A_0 must be G div x^N, the polynomial part
    of the series, and at every j >= 1 deg A_j >= 1 and
    deg Q_j = q_degrees[j] must hold, so the degrees the profile walk
    reads are those of the rebuilt denominators.  The two checks below do
    not imply deg A_j >= 1: the quotient matrices of 1, -1, 1 multiply to
    diag(1, -1), so appending those three constants passes both.

    Last convergent J, with full products.  G = x^N R cut below x^0
    (``_scaled_input``) holds the N known symbols plus A_0 x^N.  The
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
    backend = _Backend(expansion.field)
    quots, degs = expansion.raw_quotients, expansion.q_degrees
    if len(degs) != len(quots):
        return min(len(degs), len(quots))
    g = _scaled_input(backend, expansion.series)
    a0 = backend.split(g, expansion.precision)[0]
    if backend.to_poly(quots[0]) != backend.to_poly(a0) or degs[0] != 0:
        return 0
    denominators = _denominators(expansion)
    q_prev = q_last = next(denominators)
    for j, q in enumerate(denominators, 1):
        if backend.degree(quots[j]) < 1 or backend.degree(q) != degs[j]:
            return j
        q_prev, q_last = q_last, q
    return None if _last_convergent_ok(expansion, backend, g, q_prev, q_last) else len(quots) - 1


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
