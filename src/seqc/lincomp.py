"""Nth linear complexity profiles by Berlekamp-Massey synthesis.

The profile is produced in a single O(N^2) pass, emitting L(N) at every
step.  The synthesis runs in residual form.  With S = sum u_i x^i, it
keeps D = c S for the current connection polynomial c and E = b S for the
polynomial b of the last length change, at step m.  Coefficient n of D is
sum_j c_j u_(n-j), the discrepancy of step n, so no dot product is taken.
The update c <- c - (d/b_d) x^(n-m) b becomes D <- D - (d/b_d) x^(n-m) E,
and a length change makes E the old D.  Coefficients of D below n are
never read again, so neither D nor E needs them, and no kernel keeps c
or b: each returns the profile alone.

The ring chooses the form.  ``bm_profile`` packs the prefix once with
``ring.Ring(field).from_coeffs``, and the type of that value picks the
kernel, as in ``expcomp``: an int (F_2) goes to ``_bm_f2``, bit-packed
in 64-step blocks; a ``gf3`` slice pair (F_3) to ``_bm_f3``, in the same
blocks; an int64 array (p >= 5, and p = 3 under the tests' int64 ring)
to ``_bm_modp``, exact at every supported p under the bound invariant
of ``ring`` and ``algebra._make_room``.  The zero-prefix and 0...0!=0
boundary conventions of the profile fall out of the standard
initialization and are asserted in tests rather than special-cased here.

Massey's connection polynomial comes from the continued fraction of
R = sum u_i x^(-i-1): Berlekamp's and Euclid's algorithms build the same
polynomials (J. L. Dornstetter, "On the equivalence between Berlekamp's
and Euclid's algorithms", IEEE Trans. IT 33, 1987).  ``bm_connection``
reads it off the last degree-certified denominator Q_J, L = deg Q_J,
with the coefficients of A_J below degree 2L - N cut to 0 (none when
2L <= N, where the minimal recurrence is unique), as its docstring says.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from itertools import islice

import numpy as np

from . import contfrac
from .algebra import LaurentSeries, PrimeField, _make_room, _sub_multiple
from .autoseq import Profile
from .ring import Ring

# steps per shift of D over F_2 and F_3: D moves right once per block and
# the block's discrepancies are read from a BLOCK-bit window
_BLOCK = 64
_MASK = (1 << _BLOCK) - 1


def _bm_f2(d, n_len):
    """Bit-packed residual synthesis of a packed prefix; returns the L values.

    At block start s the int ``d`` holds D >> s, and ``w`` its low _BLOCK
    bits, so bit t of ``w`` is the discrepancy of step n = s + t.  E is
    kept as it was taken, the pair (e, e_sh) = (D >> s', m - s') from the
    block s' of the last length change at step m.  Then x^(n-m) E >> s is
    e shifted left by t - e_sh (right when negative).

    Invariant: bits of ``d`` and ``w`` below the current offset t are
    stale, and so are the low bits of a shifted e; they are never read.
    Bit i >= t of ``d`` is exactly coefficient s + i of c S while
    s + i < N, because an update only reads bits of e at or above e_sh,
    which were exact when e was taken.  Coefficients of D at N and above
    are never read, and an update only moves E's bits up (n > m), so
    ``d`` is cut to its N - s bits below N at each block start and e is
    taken cut the same way: neither carries the up to L bits of c S past
    N.

    Start: c = b = 1 and m = -1, so D = S and E = S; e_sh = -1 is
    folded into e as (e, e_sh) = (S << 1, 0).
    """
    e, e_sh = d << 1, 0
    ell = 0
    prof = []
    for s in range(0, n_len, _BLOCK):
        keep = (1 << (n_len - s)) - 1  # the bits of D >> s below N
        if s:
            d = d >> _BLOCK & keep
        w = d & _MASK
        for t in range(min(_BLOCK, n_len - s)):
            if w >> t & 1:
                x = e << (t - e_sh) if t >= e_sh else e >> (e_sh - t)
                if 2 * ell <= s + t:
                    ell = s + t + 1 - ell
                    e, e_sh = d & keep, t
                d ^= x
                w ^= x & _MASK
            prof.append(ell)
    return prof


def _bm_f3(d, n_len):
    """Bit-sliced residual synthesis over F_3, as ``_bm_f2`` runs it;
    returns the L values.

    D and E are ``gf3`` slice pairs, and (dh, dl), (wh, wl) and
    (eh, el, e_sh) play the parts of d, w and (e, e_sh) in ``_bm_f2``,
    under the same invariant and the same cuts below N.  The discrepancy
    of step n = s + t is bit t of the window's slices, and ``d_two``
    says whether it is 2.  The update is D <- D - (d/b_d) x^(n-m) E for
    b_d the discrepancy at the last length change: d/b_d is 1 when
    d = b_d, and then D takes x^(n-m) E with its slices swapped
    (negated), and 2 otherwise, and -2 = 1, so D takes x^(n-m) E as it
    is.

    Start: b_d = 1 and m = -1, as in ``_bm_f2``.
    """
    dh, dl = d
    eh, el, e_sh = dh << 1, dl << 1, 0
    bd_two = 0  # whether b_d is 2
    ell = 0
    prof = []
    for s in range(0, n_len, _BLOCK):
        keep = (1 << (n_len - s)) - 1  # the bits of D >> s below N
        if s:
            dh, dl = dh >> _BLOCK & keep, dl >> _BLOCK & keep
        wh, wl = dh & _MASK, dl & _MASK
        for t in range(min(_BLOCK, n_len - s)):
            if (wh | wl) >> t & 1:
                d_two = wh >> t & 1
                if t >= e_sh:
                    xh, xl = eh << (t - e_sh), el << (t - e_sh)
                else:
                    xh, xl = eh >> (e_sh - t), el >> (e_sh - t)
                if d_two == bd_two:  # d/b_d = 1
                    xh, xl = xl, xh
                if 2 * ell <= s + t:
                    ell = s + t + 1 - ell
                    eh, el, e_sh, bd_two = dh & keep, dl & keep, t, d_two
                # D += X and w += X's low _BLOCK bits, by ``gf3.add``'s formula
                # written out: as calls they made this kernel 18-23% slower
                u = (dl | xh) ^ (dh | xl)
                dh, dl = (dl | xl) ^ u, (dh | xh) ^ u
                xh, xl = xh & _MASK, xl & _MASK
                u = (wl | xh) ^ (wh | xl)
                wh, wl = (wl | xl) ^ u, (wh | xh) ^ u
            prof.append(ell)
    return prof


def _bm_modp(seq, n_len, p):
    """Residual synthesis of a packed prefix on int64 arrays over F_p, for
    odd p; returns the L values.

    ``res[i]`` holds coefficient i of D = c S for every i >= n; entries
    below n are stale and never read.  ``e[k]`` holds coefficient m + k
    of E = b S, so the update at step n is res[n:] -= (d/b_d) e[:N-n].
    Neither is reduced mod p as a rule: ``res`` and ``e`` each carry a
    bound on their entries, and ``_make_room`` reduces an operand only
    when the next update could pass int64.  A length change copies the
    live residual as it stands, with its bound.

    Start: m = -1, so res = S and e = [0] + S.
    """
    e = np.zeros(n_len + 1, dtype=np.int64)
    e[1:len(seq) + 1] = seq
    res = e[1:].copy()
    m_res = m_e = p - 1  # bounds on |res[n:]| and |e[:N-n]|
    ell = 0
    bd_inv = 1  # inverse of the discrepancy at the last length change
    prof = []
    for n in range(n_len):
        d = int(res[n]) % p
        if d:
            coef = d * bd_inv % p
            grow = 2 * ell <= n
            live, used = res[n:], e[:n_len - n]
            m_res, m_e = _make_room(live, m_res, used, m_e, p)
            if grow:  # E becomes the old D
                e_next, m_e_next = live.copy(), m_res
                bd_inv = pow(d, -1, p)
            m_res += _sub_multiple(live, used, coef, p) * m_e
            if grow:
                e, m_e = e_next, m_e_next
                ell = n + 1 - ell
        prof.append(ell)
    return prof


def bm_profile(prefix, field: PrimeField) -> Profile:
    """L(u_n, N) for every N = 1..len(prefix).

    The packed prefix drops trailing zeros, so a kernel takes N too.
    """
    prefix = field.validate_symbols(prefix)
    seq = Ring(field).from_coeffs(prefix)
    kernel = (_bm_f2 if isinstance(seq, int) else _bm_f3 if isinstance(seq, tuple)
              else partial(_bm_modp, p=field.p))
    return Profile(tuple(kernel(seq, len(prefix))))


def bm_connection(prefix, field: PrimeField):
    """(L, (c_0, ..., c_{L-1})) with u_{n+L} = c_{L-1} u_{n+L-1} + ... + c_0 u_n.

    Replaying the recurrence from the first L symbols regenerates the
    whole prefix.  It is Massey's recurrence, read off the continued
    fraction: Q = sum q_i x^i with deg Q = L gives c_i = -q_i / q_L.
    Let Q_J be the last degree-certified denominator, L = deg Q_J, and
    N = len(prefix).  Q is Q'_J = A'_J Q_{J-1} + Q_{J-2}, where A'_J is
    A_J with its coefficients of degree below 2L - N set to 0.  The
    last length change is at m = deg Q_{J-1} + deg Q_J - 1, and each
    Massey update after it, at a step n, writes A_J's coefficient of
    degree deg A_J - (n - m); steps n >= N never run, so those below
    2L - N stay 0 (none is cut when 2L <= N).  When J = 1 and 2L > N,
    A'_1 also takes Massey's start, c = b = 1 at m = -1, as its constant
    coefficient -lc(A_1) u_m = -1 for u_m the first nonzero symbol.  An
    all-zero prefix has J = 0 and Q_0 = 1, so it gives (0, ()).
    """
    expansion = contfrac.cf_expand(LaurentSeries.from_prefix(prefix, field))
    ell, ring, p = expansion.q_degrees[-1], Ring(field), field.p
    *quotients, a = expansion.raw_quotients
    cut = 2 * ell - expansion.precision
    if cut > 0:
        a = ring.sub(a, ring.split(a, cut)[1])
        if len(quotients) == 1:
            a = ring.sub(a, ring.monomial(0))
    denominators = contfrac._denominators(replace(expansion, raw_quotients=(*quotients, a)))
    q = next(islice(denominators, len(quotients), None))
    *low, top = ring.to_poly(q).coeffs
    scale = -pow(top, -1, p)
    return ell, tuple([v * scale % p for v in low])
