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

Over F_2, D and E are bit-packed ints.  For odd p they are numpy int64
arrays under one invariant (``algebra._make_room``): every array carries
an int bound M with |x_i| <= M, an update x -= c y with c in [0, p)
raises x's bound by (p-1) M_y, and an operand is reduced mod p only when
the update could otherwise pass 2^63 - 1.  So every step is exact at
every supported p, and at p = 3 a reduction is rare.  The zero-prefix
and 0...0!=0 boundary conventions fall out of the standard
initialization and are asserted in tests rather than special-cased here.
"""

from __future__ import annotations

import numpy as np

from . import gf2
from .algebra import PrimeField, _make_room
from .autoseq import Profile

# steps per shift of D over F_2: D moves right once per block and the
# block's discrepancies are read from a BLOCK-bit window
_BLOCK = 64
_MASK = (1 << _BLOCK) - 1


def _bm_f2(bits, connection):
    """Bit-packed residual synthesis; returns (L values, C bits or None, final L).

    At block start s the int ``d`` holds D >> s, and ``w`` its low _BLOCK
    bits, so bit t of ``w`` is the discrepancy of step n = s + t.  E is
    kept as it was taken, the pair (e, e_sh) = (D >> s', m - s') from the
    block s' of the last length change at step m.  Then x^(n-m) E >> s is
    e shifted left by t - e_sh (right when negative).

    Invariant: bits of ``d`` and ``w`` below the current offset t are
    stale, and so are the low bits of a shifted e; they are never read.
    Bit i >= t of ``d`` is exactly coefficient s + i of c S, because an
    update only reads bits of e at or above e_sh, which were exact when e
    was taken.

    Start: c = b = 1 and m = -1, so D = S and E = S; e_sh = -1 is
    folded into e as (e, e_sh) = (S << 1, 0).  c and b are tracked only
    when ``connection`` is set.
    """
    n_len = len(bits)
    d = gf2.from_bits(bits)
    e, e_sh = d << 1, 0
    c = b = 1
    m = -1
    ell = 0
    prof = []
    for s in range(0, n_len, _BLOCK):
        if s:
            d >>= _BLOCK
        w = d & _MASK
        for t in range(min(_BLOCK, n_len - s)):
            if w >> t & 1:
                n = s + t
                x = e << (t - e_sh) if t >= e_sh else e >> (e_sh - t)
                if connection:
                    c, old_c = c ^ (b << (n - m)), c
                if 2 * ell <= n:
                    ell = n + 1 - ell
                    e, e_sh, m = d, t, n
                    if connection:
                        b = old_c
                d ^= x
                w ^= x & _MASK
            prof.append(ell)
    return prof, (c if connection else None), ell


def _bm_modp(seq, p, connection):
    """Residual synthesis over F_p; returns (L values, c vector or None, final L).

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
    n_len = len(seq)
    res = np.array(seq, dtype=np.int64)
    e = np.concatenate((np.zeros(1, dtype=np.int64), res))
    tmp = np.empty(n_len, dtype=np.int64)
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
            live -= np.multiply(used, coef, out=tmp[:n_len - n])
            m_res += (p - 1) * m_e
            if connection:
                m_c, m_b = _make_room(c[:ell + 1], m_c, b, m_b, p)
                if grow:  # b becomes the old c
                    b_next, m_b_next = c[:ell + 1].copy(), m_c
                c[n - m:n - m + len(b)] -= np.multiply(b, coef, out=tmp[:len(b)])
                m_c += (p - 1) * m_b
                if grow:
                    b, m_b = b_next, m_b_next
            if grow:
                e, m_e = e_next, m_e_next
                ell, m = n + 1 - ell, n
        prof.append(ell)
    return prof, (c[:ell + 1] % p if connection else None), ell


def _synthesize(prefix, field: PrimeField, connection=False):
    field.validate_symbols(prefix)
    if field.p == 2:
        return _bm_f2(prefix, connection)
    return _bm_modp(prefix, field.p, connection)


def bm_profile(prefix, field: PrimeField) -> Profile:
    """L(u_n, N) for every N = 1..len(prefix)."""
    if len(prefix) < 1:
        raise ValueError("prefix must contain at least one symbol")
    prof, _, _ = _synthesize(prefix, field)
    return Profile(tuple(prof))


def bm_connection(prefix, field: PrimeField):
    """(L, (c_0, ..., c_{L-1})) with u_{n+L} = c_{L-1} u_{n+L-1} + ... + c_0 u_n.

    Replaying the recurrence from the first L symbols regenerates the
    whole prefix.
    """
    if len(prefix) < 1:
        raise ValueError("prefix must contain at least one symbol")
    _, c, ell = _synthesize(prefix, field, connection=True)
    p = field.p
    cvec = gf2.to_bits(c) + (0,) * (ell + 1 - c.bit_length()) if p == 2 else c.tolist()
    return ell, tuple(-cvec[ell - i] % p for i in range(ell))
