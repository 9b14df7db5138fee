"""Nth linear complexity profiles by Berlekamp-Massey synthesis.

The profile is produced in a single O(N^2) pass, emitting L(N) at every
step.  The synthesis runs in residual form.  With S = sum u_i x^i, it
keeps D = c S for the current connection polynomial c and E = b S for the
polynomial b of the last length change, at step m.  Coefficient n of D is
sum_j c_j u_(n-j), the discrepancy of step n, so no dot product is taken.
The update c <- c - (d/b_d) x^(n-m) b becomes D <- D - (d/b_d) x^(n-m) E,
and a length change makes E the old D.  Coefficients of D below n are
never read again, so neither D nor E needs them, and the profile needs
no connection vector at all; only ``bm_connection`` asks for c.

The ring chooses the form.  ``_synthesize`` packs the prefix once with
``ring.Ring(field).from_coeffs``, and the type of that value picks the
kernel, as in ``expcomp``: an int (F_2) goes to ``_bm_f2``, bit-packed
in 64-step blocks; a ``gf3`` slice pair (F_3) to ``_bm_f3``, in the same
blocks; an int64 array (p >= 5, and p = 3 under the tests' int64 ring)
to ``_bm_modp``, exact at every supported p under the bound invariant
of ``ring`` and ``algebra._make_room``.  Each kernel returns c in its
form, read back once by ``to_poly``.  The zero-prefix and 0...0!=0
boundary conventions fall out of the standard initialization and are
asserted in tests rather than special-cased here.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import gf3
from .algebra import PrimeField, _make_room, _sub_multiple
from .autoseq import Profile
from .ring import Ring

# steps per shift of D over F_2 and F_3: D moves right once per block and
# the block's discrepancies are read from a BLOCK-bit window
_BLOCK = 64
_MASK = (1 << _BLOCK) - 1


def _bm_f2(d, n_len, connection):
    """Bit-packed residual synthesis of a packed prefix; returns (L values, c, final L).

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
    folded into e as (e, e_sh) = (S << 1, 0).  c and b are tracked only
    when ``connection`` is set; c stays 1 otherwise.
    """
    e, e_sh = d << 1, 0
    c = b = 1
    m = -1
    ell = 0
    prof = []
    for s in range(0, n_len, _BLOCK):
        keep = (1 << (n_len - s)) - 1  # the bits of D >> s below N
        if s:
            d = d >> _BLOCK & keep
        w = d & _MASK
        for t in range(min(_BLOCK, n_len - s)):
            if w >> t & 1:
                n = s + t
                x = e << (t - e_sh) if t >= e_sh else e >> (e_sh - t)
                if connection:
                    c, old_c = c ^ (b << (n - m)), c
                if 2 * ell <= n:
                    ell = n + 1 - ell
                    e, e_sh, m = d & keep, t, n
                    if connection:
                        b = old_c
                d ^= x
                w ^= x & _MASK
            prof.append(ell)
    return prof, c, ell


def _bm_f3(d, n_len, connection):
    """Bit-sliced residual synthesis over F_3, as ``_bm_f2`` runs it; returns
    (L values, c, final L).

    D, E, c and b are ``gf3`` slice pairs, and (dh, dl), (wh, wl) and
    (eh, el, e_sh) play the parts of d, w and (e, e_sh) in ``_bm_f2``,
    under the same invariant and the same cuts below N.  The discrepancy
    of step n = s + t is bit t of the window's slices, and ``d_two``
    says whether it is 2.  The update is D <- D - (d/b_d) x^(n-m) E for
    b_d the discrepancy at the last length change: d/b_d is 1 when
    d = b_d, and then D takes x^(n-m) E with its slices swapped
    (negated), and 2 otherwise, and -2 = 1, so D takes x^(n-m) E as it
    is.  c <- c - (d/b_d) x^(n-m) b alike.

    Start: c = b = 1, b_d = 1 and m = -1, as in ``_bm_f2``.
    """
    dh, dl = d
    eh, el, e_sh = dh << 1, dl << 1, 0
    c = b = (0, 1)
    m = -1
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
                negate = d_two == bd_two  # d/b_d = 1
                n = s + t
                if t >= e_sh:
                    xh, xl = eh << (t - e_sh), el << (t - e_sh)
                else:
                    xh, xl = eh >> (e_sh - t), el >> (e_sh - t)
                if negate:
                    xh, xl = xl, xh
                if connection:
                    yh, yl = b[0] << (n - m), b[1] << (n - m)
                    c, old_c = gf3.add(c, (yl, yh) if negate else (yh, yl)), c
                if 2 * ell <= n:
                    ell = n + 1 - ell
                    eh, el, e_sh, m, bd_two = dh & keep, dl & keep, t, n, d_two
                    if connection:
                        b = old_c
                # D += X and w += X's low _BLOCK bits, by ``gf3.add``'s formula
                # written out: as calls they made this kernel 18-23% slower
                u = (dl | xh) ^ (dh | xl)
                dh, dl = (dl | xl) ^ u, (dh | xh) ^ u
                xh, xl = xh & _MASK, xl & _MASK
                u = (wl | xh) ^ (wh | xl)
                wh, wl = (wl | xl) ^ u, (wh | xh) ^ u
            prof.append(ell)
    return prof, c, ell


def _bm_modp(seq, n_len, connection, p):
    """Residual synthesis of a packed prefix on int64 arrays over F_p, for
    odd p; returns (L values, c[:L+1] unreduced or None, final L).

    ``res[i]`` holds coefficient i of D = c S for every i >= n; entries
    below n are stale and never read.  ``e[k]`` holds coefficient m + k
    of E = b S, so the update at step n is res[n:] -= (d/b_d) e[:N-n].
    None of them is reduced mod p as a rule: ``res``, ``e`` and, when
    the connection is kept, its live prefix c[:L+1] and ``b`` each carry
    a bound on their entries, and ``_make_room`` reduces an operand only
    when the next update could pass int64.  A length change copies the
    live residual and c[:L+1] as they stand, with their bounds.

    Start: c = b = 1 and m = -1, so res = S and e = [0] + S.
    """
    e = np.zeros(n_len + 1, dtype=np.int64)
    e[1:len(seq) + 1] = seq
    res = e[1:].copy()
    m_res = m_e = p - 1  # bounds on |res[n:]| and |e[:N-n]|
    if connection:
        c = np.zeros(n_len + 1, dtype=np.int64)
        c[0] = 1
        b = c[:1].copy()
        m_c = m_b = 1  # bounds on |c[:L+1]| and |b|
    ell = 0
    m = -1
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
            if connection:
                m_c, m_b = _make_room(c[:ell + 1], m_c, b, m_b, p)
                if grow:  # b becomes the old c
                    b_next, m_b_next = c[:ell + 1].copy(), m_c
                m_c += _sub_multiple(c[n - m:n - m + len(b)], b, coef, p) * m_b
                if grow:
                    b, m_b = b_next, m_b_next
            if grow:
                e, m_e = e_next, m_e_next
                ell, m = n + 1 - ell, n
        prof.append(ell)
    return prof, (c[:ell + 1] if connection else None), ell


def _synthesize(prefix, field: PrimeField, connection=False):
    """(L values, (-c_L, ..., -c_1) mod p or None, final L).

    The packed prefix drops trailing zeros, so a kernel takes N too, and
    c_L may be 0, so the connection read back is padded to L + 1.
    """
    prefix = field.validate_symbols(prefix)
    if not prefix:
        raise ValueError("prefix must contain at least one symbol")
    ring, p = Ring(field), field.p
    seq = ring.from_coeffs(prefix)
    kernel = (_bm_f2 if isinstance(seq, int) else _bm_f3 if isinstance(seq, tuple)
              else partial(_bm_modp, p=p))
    prof, c, ell = kernel(seq, len(prefix), connection)
    if not connection:
        return prof, None, ell
    coeffs = ring.to_poly(c).coeffs
    coeffs += (0,) * (ell + 1 - len(coeffs))
    return prof, tuple([-a % p for a in coeffs[ell:0:-1]]), ell


def bm_profile(prefix, field: PrimeField) -> Profile:
    """L(u_n, N) for every N = 1..len(prefix)."""
    prof, _, _ = _synthesize(prefix, field)
    return Profile(tuple(prof))


def bm_connection(prefix, field: PrimeField):
    """(L, (c_0, ..., c_{L-1})) with u_{n+L} = c_{L-1} u_{n+L-1} + ... + c_0 u_n.

    Replaying the recurrence from the first L symbols regenerates the
    whole prefix.
    """
    _, c, ell = _synthesize(prefix, field, connection=True)
    return ell, c
