"""Continued fractions of truncated Laurent series over F_p.

The primary engine runs the extended Euclidean algorithm on (x^N, g(x)),
where g packs the N known coefficients; it is integer-exact and needs no
precision bookkeeping inside the loop.  The polynomial-part/inverse
recursion on truncated series is kept as a secondary path for
differential testing.

Reliability is two-tiered.  Convergent degrees are determined by the
first N coefficients whenever deg Q_{j-1} + deg Q_j <= N (the profile
bracketing), so deg Q_j is recorded up to that point.  The quotient
polynomial itself is only determined when Q_j is the unique minimal
recurrence for the prefix, which needs 2 deg Q_j <= N; quotient values
past that index can pick up truncation noise in their low-order
coefficients and are not emitted.

``check_convergent_identities`` certifies an expansion at the cost of
about one Euclid pass: it re-derives every partial quotient from the
stored denominators and checks the three-term recurrence, which implies
the determinant identity P_{j-1} Q_j - P_j Q_{j-1} = (-1)^j at every j;
full products are taken at the last convergent only, for the determinant
and for the approximation property that ties the expansion to its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .algebra import LaurentSeries, Poly, PrecisionError, PrimeField
from .autoseq import Profile


@dataclass
class CFExpansion:
    """Partial quotients A_0..A_J of a series, with convergents and reliability count.

    ``series`` is the expanded input, known down to x^-N.  ``quotients``
    holds only value-certified quotients (2 deg Q_j <= N); ``q_degrees``
    and the convergent pairs extend to every degree-certified index
    (deg Q_{j-1} + deg Q_j <= N), which the profile walk needs.
    Convergent pairs are stored in a backend-native form and converted to
    Poly one at a time by ``convergent(j)``; at bench scale a full Poly
    conversion would dominate.
    """

    series: LaurentSeries
    quotients: tuple  # Poly: A_0, A_1, ..., A_{reliable_count}
    q_degrees: tuple  # deg Q_0, ..., deg Q_J
    _raw_pairs: tuple  # ((P_j, Q_j) in backend form, j = 0..J)

    @property
    def field(self) -> PrimeField:
        return self.series.field

    @property
    def precision(self) -> int:
        """N: the number of known coefficients below x^0."""
        return -self.series.low

    @property
    def reliable_count(self) -> int:
        """Largest j such that A_1..A_j are certified for the input precision."""
        return len(self.quotients) - 1

    @property
    def degree_count(self) -> int:
        """Largest j for which deg Q_j is certified (may exceed reliable_count)."""
        return len(self.q_degrees) - 1

    def _pair_to_polys(self, pair):
        pp, qq = pair
        if self.field.p == 2:
            return gf2.to_poly(pp, self.field), gf2.to_poly(qq, self.field)
        return Poly(self.field, tuple(pp)), Poly(self.field, tuple(qq))

    def convergent(self, j: int):
        """(P_j, Q_j) as Poly pairs."""
        return self._pair_to_polys(self._raw_pairs[j])

    def raw_q(self, j: int):
        return self._raw_pairs[j][1]


def _cf_euclid_f2(bits, n):
    g = 0
    for i, bit in enumerate(bits):
        if bit:
            g |= 1 << (n - 1 - i)
    quotients = []
    pairs = [(0, 1)]  # (P_0, Q_0) with A_0 = 0
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    r_prev, r_cur = 1 << n, g
    while r_cur:
        a, r_next = gf2.divmod_(r_prev, r_cur)
        q_new = gf2.mul(a, q_cur) ^ q_prev
        if gf2.degree(q_cur) + gf2.degree(q_new) > n:
            break
        p_new = gf2.mul(a, p_cur) ^ p_prev
        quotients.append(a)
        pairs.append((p_new, q_new))
        p_prev, p_cur = p_cur, p_new
        q_prev, q_cur = q_cur, q_new
        r_prev, r_cur = r_cur, r_next
    return quotients, pairs


def _arr_degree(a) -> int:
    return len(a) - 1


def _arr_trim(a):
    nz = np.nonzero(a)[0]
    return a[:nz[-1] + 1] if len(nz) else a[:0]


def _arr_divmod(a, b, p):
    da, db = _arr_degree(a), _arr_degree(b)
    if da < db:
        return np.zeros(0, dtype=np.int64), a.copy()
    inv = pow(int(b[-1]), -1, p)
    r = a.copy()
    q = np.zeros(da - db + 1, dtype=np.int64)
    for i in range(da, db - 1, -1):
        c = int(r[i]) % p
        if c:
            c = c * inv % p
            q[i - db] = c
            r[i - db:i + 1] = (r[i - db:i + 1] - c * b) % p
    return q, _arr_trim(r)


def _arr_mul_add(a, b, c, p):
    """a*b + c over F_p for numpy coefficient arrays."""
    if len(a) == 0 or len(b) == 0:
        conv = np.zeros(1, dtype=np.int64)
    else:
        conv = np.convolve(a, b)
    n = max(len(conv), len(c))
    out = np.zeros(n, dtype=np.int64)
    out[:len(conv)] = conv
    out[:len(c)] += c
    return _arr_trim(out % p)


def _cf_euclid_modp(symbols, n, p):
    g = np.zeros(n, dtype=np.int64)
    for i, u in enumerate(symbols):
        g[n - 1 - i] = u
    g = _arr_trim(g)
    x_n = np.zeros(n + 1, dtype=np.int64)
    x_n[-1] = 1
    one = np.ones(1, dtype=np.int64)
    zero = np.zeros(0, dtype=np.int64)
    quotients = []
    pairs = [(zero, one)]
    p_prev, p_cur = one, zero
    q_prev, q_cur = zero, one
    r_prev, r_cur = x_n, g
    while len(r_cur):
        a, r_next = _arr_divmod(r_prev, r_cur, p)
        q_new = _arr_mul_add(a, q_cur, q_prev, p)
        if _arr_degree(q_cur) + _arr_degree(q_new) > n:
            break
        p_new = _arr_mul_add(a, p_cur, p_prev, p)
        quotients.append(a)
        pairs.append((p_new, q_new))
        p_prev, p_cur = p_cur, p_new
        q_prev, q_cur = q_cur, q_new
        r_prev, r_cur = r_cur, r_next
    return quotients, pairs


def _value_certified_count(degs, n) -> int:
    """Quotients whose value 2 deg Q_j <= n pins down (minimal recurrence unique)."""
    rc = 0
    while rc + 1 < len(degs) and 2 * degs[rc + 1] <= n:
        rc += 1
    return rc


def _series_symbols(r: LaurentSeries):
    """Coefficients of x^-1..x^-N of a series with valuation < 0."""
    n = -r.low
    return [r.coeff(-i) for i in range(1, n + 1)], n


def cf_expand(r: LaurentSeries) -> CFExpansion:
    """Certified continued-fraction expansion of a truncated series."""
    if r.is_zero:
        raise ZeroDivisionError("cannot expand the zero series")
    field = r.field
    a0 = r.polynomial_part()
    if not a0.is_zero:
        b = r - LaurentSeries.from_poly(a0, r.low)
    else:
        b = r
    if b.is_zero:
        # purely polynomial input: the expansion is the single quotient A_0
        if field.p == 2:
            raw = ((gf2.from_poly(a0), 1),)
        else:
            raw = ((np.array(a0.coeffs, dtype=np.int64), np.ones(1, dtype=np.int64)),)
        return CFExpansion(r, (a0,), (0,), raw)
    symbols, n = _series_symbols(b)
    if field.p == 2:
        bits_q, pairs = _cf_euclid_f2(symbols, n)
        if not a0.is_zero:
            a0_bits = gf2.from_poly(a0)
            pairs = [(pp ^ gf2.mul(a0_bits, qq), qq) for pp, qq in pairs]
        degs = tuple(gf2.degree(qq) for _, qq in pairs)
        rc = _value_certified_count(degs, n)
        quots = tuple(gf2.to_poly(q, field) for q in bits_q[:rc])
    else:
        arr_q, pairs = _cf_euclid_modp(symbols, n, field.p)
        if not a0.is_zero:
            a0_arr = np.array(a0.coeffs, dtype=np.int64)
            pairs = [(_arr_mul_add(a0_arr, qq, pp, field.p), qq) for pp, qq in pairs]
        degs = tuple(_arr_degree(qq) for _, qq in pairs)
        rc = _value_certified_count(degs, n)
        quots = tuple(Poly(field, tuple(int(v) for v in q)) for q in arr_q[:rc])
    return CFExpansion(r, (a0,) + quots, degs, tuple(pairs))


def cf_expand_series(r: LaurentSeries, max_quotients: int = None):
    """Partial quotients via the Pol/inverse recursion on truncated series.

    Secondary differential-testing path: stops when the remaining precision
    can no longer support another polynomial part.  Returns the quotient
    list (A_0 first).
    """
    if r.is_zero:
        raise ZeroDivisionError("cannot expand the zero series")
    quots = [r.polynomial_part()]
    b = r - LaurentSeries.from_poly(quots[0], r.low)
    while not b.is_zero:
        if max_quotients is not None and len(quots) > max_quotients:
            break
        inv = b.inverse()
        try:
            a = inv.polynomial_part()
        except PrecisionError:
            break
        if a.degree < 1:
            break  # truncation noise: a true partial quotient has degree >= 1
        quots.append(a)
        b = inv - LaurentSeries.from_poly(a, inv.low)
    return quots


def profile_from_cf(r: LaurentSeries, n_max: int) -> Profile:
    """Linear complexity profile from the convergent denominators of r."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if r.is_zero:
        if -r.low < n_max:
            raise PrecisionError(f"series precision {-r.low} < n_max {n_max}")
        return Profile((0,) * n_max)
    if r.valuation >= 0:
        raise ValueError("expected a sequence series with valuation < 0")
    if -r.low < n_max:
        raise PrecisionError(f"series precision {-r.low} < n_max {n_max}")
    return profile_from_expansion(cf_expand(r), n_max)


def profile_from_expansion(expansion: CFExpansion, n_max: int) -> Profile:
    """Linear complexity profile from an expansion's denominator degrees.

    L(N) = deg Q_j for the unique j with
    deg Q_{j-1} + deg Q_j <= N < deg Q_j + deg Q_{j+1}.
    """
    if expansion.precision < n_max:
        raise PrecisionError(f"series precision {expansion.precision} < n_max {n_max}")
    degs = expansion.q_degrees
    vals = []
    j = 0
    for n in range(1, n_max + 1):
        while j + 1 < len(degs) and degs[j] + degs[j + 1] <= n:
            j += 1
        vals.append(degs[j])
    return Profile(tuple(vals))


def _native_ops(field: PrimeField):
    """(divmod, a*b + c, equality, degree, Poly -> native) on the stored pair form."""
    p = field.p
    if p == 2:
        return (gf2.divmod_, lambda a, b, c: gf2.mul(a, b) ^ c, int.__eq__,
                gf2.degree, gf2.from_poly)
    return (lambda a, b: _arr_divmod(a, b, p), lambda a, b, c: _arr_mul_add(a, b, c, p),
            np.array_equal, _arr_degree, lambda poly: np.array(poly.coeffs, dtype=np.int64))


def _last_convergent_ok(expansion: CFExpansion) -> bool:
    """Determinant and approximation property at J, with exact full products."""
    field, n, pairs = expansion.field, expansion.precision, expansion._raw_pairs
    last = len(pairs) - 1
    prev = max(last - 1, 0)  # J = 0: the determinant is Q_0 = 1, checked already
    # G = x^N R cut below x^0: the N known symbols plus A_0 x^N
    coeffs = expansion.series.coeffs  # from the top exponent down to x^-N
    if field.p == 2:
        (p_prev, q_prev), (p_last, q_last) = pairs[prev], pairs[last]
        det_ok = last == 0 or gf2.mul(p_prev, q_last) ^ gf2.mul(p_last, q_prev) == 1
        g = int("".join(map(str, coeffs)), 2)
        res_deg = gf2.degree(gf2.mul(q_last, g) ^ (p_last << n))
    else:
        (p_prev, q_prev), (p_last, q_last) = expansion.convergent(prev), expansion.convergent(last)
        det = p_prev * q_last - p_last * q_prev
        det_ok = last == 0 or det == Poly(field, ((-1) ** last,))
        g = Poly(field, coeffs[::-1])
        res_deg = (q_last * g - p_last.shift(n)).degree
    dq = expansion.q_degrees[last]
    return det_ok and res_deg < min(n - dq, dq)


def check_convergent_identities(expansion: CFExpansion):
    """Certify the stored convergents as the expansion of the stored series.

    Recurrence, at every j >= 1 with (P_{-1}, Q_{-1}) = (1, 0): the quotient
    is re-derived from the denominators as (A_j, R) = divmod(Q_j, Q_{j-1}),
    and R = Q_{j-2}, deg A_j >= 1, P_j = A_j P_{j-1} + P_{j-2} and
    deg Q_j = q_degrees[j] must hold; A_j must equal the stored quotient
    while j <= reliable_count.  (P_0, Q_0) must be (A_0, 1).  By induction
    these give the determinant P_{j-1} Q_j - P_j Q_{j-1} = (-1)^j at every
    j (1 over F_2), for about the cost of one Euclid pass.

    Last convergent J, with full products: the determinant itself, and the
    approximation property against the input.  With G = x^N R cut below
    x^0 (the N known symbols plus A_0 x^N), Q_J G - P_J x^N is up to sign
    the remainder r_J that the Euclid loop holds at J, whose degree is
    N - deg Q_{J+1} (-inf when r_J = 0).  So the exact bound is

        deg(Q_J G - P_J x^N) < min(N - deg Q_J, deg Q_J).

    N - deg Q_J holds because deg Q_{J+1} > deg Q_J; it is Legendre's
    criterion, which makes P_J / Q_J a convergent of G / x^N, so the
    recurrence-checked chain is the expansion of this input.  deg Q_J holds
    because the expansion stops at the first J with
    deg Q_J + deg Q_{J+1} > N (or at r_J = 0); it rejects an expansion cut
    short.  Returns the index of the first failing convergent or None.
    """
    field = expansion.field
    divmod_, mul_add, same, deg, native = _native_ops(field)
    pairs, degs = expansion._raw_pairs, expansion.q_degrees
    if len(degs) != len(pairs):
        return min(len(degs), len(pairs))
    one, zero = native(Poly.one(field)), native(Poly.zero(field))
    p_cur, q_cur = pairs[0]
    if not (same(p_cur, native(expansion.quotients[0])) and same(q_cur, one) and degs[0] == 0):
        return 0
    p_prev, q_prev = one, zero
    for j in range(1, len(pairs)):
        p_new, q_new = pairs[j]
        a, rem = divmod_(q_new, q_cur)
        if (deg(a) < 1 or not same(rem, q_prev) or deg(q_new) != degs[j]
                or not same(mul_add(a, p_cur, p_prev), p_new)):
            return j
        if j <= expansion.reliable_count and not same(a, native(expansion.quotients[j])):
            return j
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_new, q_new
    return None if _last_convergent_ok(expansion) else len(pairs) - 1


@dataclass(frozen=True)
class QCongruenceReport:
    """Outcome of the Q_j congruence check."""

    k: int
    checked: int
    congruence_failures: tuple  # (j, expected bits, actual bits)

    @property
    def ok(self) -> bool:
        return not self.congruence_failures


def q_congruences(expansion: CFExpansion, k: int) -> QCongruenceReport:
    """Check the Q_j congruences of the all-one-pattern analysis.

    For k = 1 every Q_j must satisfy Q_j = 1 mod (x+1); for k >= 2 even
    indices give 1 and odd indices x+1 modulo x^{2^{k-1}} + 1.  Each
    reduction XOR-folds Q_j's 2^{k-1}-bit chunks (``gf2.fold_mod``).
    """
    if expansion.field.p != 2:
        raise ValueError("congruence report is defined over F_2 only")
    if k < 1:
        raise ValueError("k must be >= 1")
    width = 1 << (k - 1)  # x^width + 1 is x + 1 when k = 1
    cong_fail = []
    for j in range(expansion.reliable_count + 1):
        expected = 1 if (k == 1 or j % 2 == 0) else 0b11
        actual = gf2.fold_mod(expansion.raw_q(j), width)
        if actual != expected:
            cong_fail.append((j, expected, actual))
    return QCongruenceReport(k, expansion.reliable_count + 1, tuple(cong_fail))
