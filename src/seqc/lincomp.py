"""Nth linear complexity profiles by Berlekamp-Massey synthesis.

The profile is produced in a single O(N^2) pass, emitting L(N) at every
step.  Over F_2 the synthesis state is bit-packed into ints; the generic
prime-field path keeps the state in numpy int64 vectors, updates only
their live span and takes the discrepancy limb by limb, so it is exact at
every supported p.  The
zero-prefix and 0...0!=0 boundary conventions fall out of the standard
initialization and are asserted in tests rather than special-cased here.
"""

from __future__ import annotations

import numpy as np

from .algebra import PrimeField
from .autoseq import Profile


def _bm_f2(bits):
    """Bit-packed synthesis; returns (per-step L values, final C bits, final L)."""
    c = 1  # connection polynomial, bit j = c_j, c_0 = 1
    b = 1  # previous connection polynomial
    ell = 0
    m = -1  # index of last length change
    rev = 0  # bit j = u_{n-j}
    prof = []
    for n, u in enumerate(bits):
        rev = (rev << 1) | (u & 1)
        if (c & rev).bit_count() & 1:
            t = c
            c ^= b << (n - m)
            if 2 * ell <= n:
                ell = n + 1 - ell
                b = t
                m = n
        prof.append(ell)
    return prof, c, ell


def _limbs(seq, p):
    """The stream as (shift, k-bit limb array) pairs, sum(limb << shift) = seq.

    k is the widest limb with (N+1)(p-1)(2^k-1) < 2^63, so the dot product
    of a connection vector with one limb cannot overflow int64.  At small
    p a single limb holds every symbol.
    """
    bits = (p - 1).bit_length()
    k = min(bits, ((2**63 - 1) // ((len(seq) + 1) * (p - 1)) + 1).bit_length() - 1)
    s = np.array(seq, dtype=np.int64)
    return [(shift, (s >> shift) & ((1 << k) - 1)) for shift in range(0, bits, k)]


def _bm_modp(seq, p):
    """Generic prime-field synthesis; returns (L values, final c vector, final L).

    Only the live span of c changes at a step: x^(n-m) b touches
    c[n-m : n-m+len(b)], and b is held at length L+1 of its own step.
    The discrepancy reads u_n, ..., u_(n-L) as one contiguous slice of
    each reversed limb array.
    """
    n_len = len(seq)
    # rev[n_len-1-n+i] = limb of u_(n-i)
    limbs = [(shift, np.ascontiguousarray(limb[::-1])) for shift, limb in _limbs(seq, p)]
    c = np.zeros(n_len + 1, dtype=np.int64)
    c[0] = 1
    b = c[:1].copy()
    ell = 0
    m = -1
    bd_inv = 1  # inverse of the discrepancy at the last length change
    prof = []
    for n in range(n_len):
        lo = n_len - 1 - n
        d = sum(int(c[:ell + 1] @ rev[lo:lo + ell + 1]) << shift
                for shift, rev in limbs) % p
        if d:
            grow = 2 * ell <= n
            if grow:
                t = c[:ell + 1].copy()
            span = c[n - m:n - m + len(b)]
            span -= d * bd_inv % p * b
            span %= p
            if grow:
                ell = n + 1 - ell
                b = t
                bd_inv = pow(d, -1, p)
                m = n
        prof.append(ell)
    return prof, c, ell


def _synthesize(prefix, field: PrimeField):
    field.validate_symbols(prefix)
    if field.p == 2:
        return _bm_f2(prefix)
    return _bm_modp(prefix, field.p)


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
    _, c, ell = _synthesize(prefix, field)
    p = field.p
    cvec = list(map(int, format(c, f"0{ell + 1}b")[::-1])) if p == 2 else c[:ell + 1].tolist()
    return ell, tuple(-cvec[ell - i] % p for i in range(ell))


def replay_recurrence(coeffs, seed, n: int, field: PrimeField):
    """First n terms of the order-L recurrence started from ``seed``."""
    ell = len(coeffs)
    p = field.p
    out = list(seed[:min(ell, n)])
    while len(out) < n:
        out.append(sum(c * u for c, u in zip(coeffs, out[-ell:])) % p)
    return out
