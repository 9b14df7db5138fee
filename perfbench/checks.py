"""Independent checks of seqc outputs.

Everything here is Python-int arithmetic mod p.  Nothing calls seqc: the
formulas, the algebraic witnesses h(s,t) and the reference
Berlekamp-Massey are written out again from the paper's statements, and
products go through Kronecker substitution on Python ints, which is exact
for every p.  Each check returns None when the output passes and a short
reason when it does not, so a negative control can call the same function
on a deliberately wrong result and require a reason back.
"""

from __future__ import annotations


# -- exact polynomial arithmetic over F_p --------------------------------

def _slot_bytes(max_value: int) -> int:
    return max(1, (max_value.bit_length() + 7) // 8)


def _pack(values, width: int) -> int:
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def _unpack(x: int, width: int, count: int):
    data = x.to_bytes(count * width, "little")
    return [int.from_bytes(data[k * width:(k + 1) * width], "little") for k in range(count)]


def convolve(a, b, p: int):
    """Coefficients of a*b mod p for coefficient lists with entries in [0, p)."""
    if not a or not b:
        return []
    width = _slot_bytes(min(len(a), len(b)) * (p - 1) ** 2)
    prod = _pack(a, width) * _pack(b, width)
    return [v % p for v in _unpack(prod, width, len(a) + len(b) - 1)]


def poly_pow(a, e: int, p: int):
    out = [1]
    for _ in range(e):
        out = convolve(out, a, p)
    return out


def first_recurrence_break(q, u, p: int):
    """First n with sum_i q_i u_{n+i} != 0 mod p, n = 0..len(u)-1-deg q; else None."""
    d = len(q) - 1
    conv = convolve(q[::-1], u, p)
    for n in range(len(u) - d):
        if conv[n + d]:
            return n
    return None


# -- the built-in sequences, from their digit definitions ----------------

def _digits(n: int, base: int):
    out = []
    while n:
        out.append(n % base)
        n //= base
    return out[::-1]


def _term(kind: str, n: int, p: int, k: int, a: int) -> int:
    if kind == "pattern":  # occurrences of a's k-digit block in base p, mod p
        d, block = _digits(n, p), _digits(a, p)
        return sum(d[i:i + k] == block for i in range(len(d) - k + 1)) % p
    if kind == "sum-of-digits":
        return sum(_digits(n, p)) % p
    if kind == "baum-sweet":  # 1 iff no maximal block of 0s has odd length
        return int(all(len(z) % 2 == 0 for z in bin(n)[2:].split("1"))) if n else 1
    if kind == "paper-folding":  # n = 2^e m with m odd: 1 iff m = 1 mod 4; v0 = 1
        while n and n % 2 == 0:
            n //= 2
        return 1 if n % 4 == 1 or n == 0 else 0
    if kind == "perfect-profile":  # w_2n = 1, w_2n+1 = w_n + 1
        trailing_ones = len(bin(n)) - len(bin(n).rstrip("1"))
        return (1 + trailing_ones) % 2
    raise ValueError(f"no digit definition written out for {kind}")


def builtin_prefix(kind: str, n: int, p: int = 2, k: int = 1, a: int = 1):
    """First n terms of a built-in sequence, term by term from its definition."""
    return [_term(kind, i, p, k, a) for i in range(n)]


# -- linear complexity profiles -------------------------------------------

def thue_morse_formula(n: int) -> int:
    """L(t, N) = 2 floor((N + 2) / 4)."""
    return 2 * ((n + 2) // 4)


def all_one_formula(k: int, n: int) -> int:
    """The two-branch profile of the binary all-one pattern of length k."""
    w = 2 ** k - 1
    r = n % (4 * w)
    if 2 ** k <= r <= 3 * w:
        return 2 * w * (n // (4 * w)) + 2 ** k
    return 2 * w * ((n + 2 ** k - 2) // (4 * w))


def check_profile_rules(values):
    """0 <= L(N) <= N, nondecreasing, and L(N) in {L(N-1), N - L(N-1)}."""
    prev = 0
    for n, v in enumerate(values, start=1):
        if not 0 <= v <= n:
            return f"L({n})={v} outside [0, {n}]"
        if v != prev and not (v == n - prev and v > prev):
            return f"L({n})={v} after L({n - 1})={prev} breaks the jump rule"
        prev = v
    return None


def check_same_profile(a, b):
    if len(a) != len(b):
        return f"lengths {len(a)} and {len(b)} differ"
    for n, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return f"profiles differ at N={n}: {x} vs {y}"
    return None


def check_formula(values, formula):
    for n, v in enumerate(values, start=1):
        if v != formula(n):
            return f"L({n})={v}, formula gives {formula(n)}"
    return None


def check_connection(ell, coeffs, u, p: int, expected_ell: int):
    """u_{n+L} = sum_i c_i u_{n+i} over the whole prefix, with L = L(N)."""
    if ell != expected_ell or len(coeffs) != ell:
        return f"recurrence order {ell} with {len(coeffs)} coefficients, L(N)={expected_ell}"
    q = [(-int(c)) % p for c in coeffs] + [1]
    bad = first_recurrence_break(q, u, p)
    return None if bad is None else f"recurrence does not regenerate u_{bad + ell}"


def check_denominator(q, u, p: int, expected_deg: int):
    """The last degree-certified Q_J annihilates the prefix and has degree L(N)."""
    if not q or q[-1] % p == 0 or len(q) - 1 != expected_deg:
        return f"deg Q_J = {len(q) - 1}, L(N) = {expected_deg}"
    bad = first_recurrence_break(q, u, p)
    return None if bad is None else f"sum_i q_i u_(n+i) != 0 at n={bad}"


def reference_profile(u, p: int):
    """Plain Berlekamp-Massey over F_p, O(N^2); for short prefixes only."""
    c, b = [1], [1]
    ell, m, b_disc = 0, -1, 1
    out = []
    for n in range(len(u)):
        d = sum(c[i] * u[n - i] for i in range(min(ell + 1, len(c)))) % p
        if d:
            coef = d * pow(b_disc, -1, p) % p
            t = list(c)
            shift = n - m
            c += [0] * max(0, len(b) + shift - len(c))
            for i, bi in enumerate(b):
                c[i + shift] = (c[i + shift] - coef * bi) % p
            if 2 * ell <= n:
                ell, b, b_disc, m = n + 1 - ell, t, d, n
        out.append(ell)
    return out


# -- expansion complexity --------------------------------------------------

def _neg(a, p):
    return [(-c) % p for c in a]


def annihilator(kind: str, p: int = 2, k: int = 1, a: int = 1):
    """h(s,t) = sum_i h_i(t) s^i with h(G,t) = 0, as {i: coefficient list of h_i}."""
    if kind == "pattern":
        tm1 = [p - 1, 1]
        pk = p ** k
        return {0: [0] * a + [p - 1],
                1: _neg(poly_pow(tm1, pk, p), p),
                p: poly_pow(tm1, pk + p - 1, p)}
    if kind == "sum-of-digits":
        omt = [1, p - 1]
        return {0: [0, 1], 1: _neg(poly_pow(omt, 2, p), p), p: poly_pow(omt, p + 1, p)}
    if kind == "baum-sweet":
        return {0: [1], 1: [0, 1], 3: [1]}
    if kind == "paper-folding":
        return {0: [0, 1], 1: [1, 0, 0, 0, 1], 2: [1, 0, 0, 0, 1]}
    if kind == "perfect-profile":
        return {0: [1], 1: [1, 1], 2: [0, 1, 1]}
    raise ValueError(f"no annihilator written out for {kind}")


def total_degree(h) -> int:
    return max(i + len(hi) - 1 for i, hi in h.items() if any(hi))


class PowerTable:
    """G(t)^i mod t^N for i <= i_max, packed for cheap truncated sums."""

    def __init__(self, u, p: int, i_max: int):
        self.p = p
        self.n = len(u)
        # a sum of at most 91 monomials (total degree <= 12) fits one slot
        self.width = _slot_bytes(91 * (p - 1) ** 2)
        powers = [[1] + [0] * (self.n - 1)]
        for _ in range(i_max):
            powers.append(convolve(powers[-1], list(u), p)[:self.n])
        self.powers = powers
        self.packed = [_pack(pw, self.width) for pw in powers]

    def is_zero_mod(self, terms, n: int) -> bool:
        """Whether sum c t^j G^i vanishes mod t^n."""
        slot = 8 * self.width
        acc = 0
        for i, j, c in terms:
            if j < n:
                acc += c * (self.packed[i] << (slot * j))
        acc &= (1 << (slot * n)) - 1
        return all(v % self.p == 0 for v in _unpack(acc, self.width, n))

    def column(self, i: int, j: int, n: int):
        """Coefficients of t^j G^i mod t^n."""
        col = [0] * min(j, n) + self.powers[i][:max(0, n - j)]
        return col[:n]


def full_column_rank(columns, p: int) -> bool:
    """Whether the columns are linearly independent over F_p."""
    basis = []  # (pivot row, vector with a 1 at the pivot)
    for col in columns:
        v = [c % p for c in col]
        for piv, vec in basis:
            f = v[piv]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, vec)]
        piv = next((r for r, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, p)
        basis.append((piv, [x * inv % p for x in v]))
    return True


def check_witness(table: PowerTable, n: int, value: int, witness):
    """The witness is nonzero, has total degree E_N and vanishes mod t^N."""
    if not witness or any(c % table.p == 0 for _, _, c in witness):
        return "empty witness or zero coefficient"
    deg = max(i + j for i, j, _ in witness)
    if deg != value:
        return f"witness total degree {deg} != E_N {value}"
    if not table.is_zero_mod([(i, j, c % table.p) for i, j, c in witness], n):
        return "witness does not vanish mod t^N"
    return None


def check_no_lower_witness(table: PowerTable, n: int, value: int):
    """No nonzero h of total degree <= E_N - 1 vanishes at G mod t^N."""
    d = value - 1
    if d < 0:
        return None
    cols = [table.column(i, j, n) for i in range(d + 1) for j in range(d + 1 - i)]
    return None if full_column_rank(cols, table.p) else f"a witness of degree {d} exists"


def check_expansion_bounds(values, h_degree: int, lin_profile):
    """E_N nondecreasing, E_N <= deg h and E_N <= L(N) + 1; values[N-1] = E_N or None."""
    prev = 0
    for n, v in enumerate(values, start=1):
        if v is None:
            continue
        if v < prev:
            return f"E_{n}={v} below an earlier {prev}"
        if v > h_degree:
            return f"E_{n}={v} above deg h = {h_degree}"
        if v > lin_profile[n - 1] + 1:
            return f"E_{n}={v} above L(N)+1 = {lin_profile[n - 1] + 1}"
        prev = v
    return None


# -- verification verdicts ---------------------------------------------------

def check_clean_verdict(rc: int, reports, n_reports: int, n_max: int):
    if rc != 0:
        return f"exit code {rc} on an uncorrupted suite"
    if len(reports) != n_reports:
        return f"{len(reports)} reports, expected {n_reports}"
    for rep in reports:
        if rep["n_max"] != n_max or not rep["checks"]:
            return f"{rep['spec']}: n_max {rep['n_max']} or no checks"
        if not rep["ok"] or not all(c["pass"] for c in rep["checks"]):
            return f"{rep['spec']}: a check fails on the clean generator"
    return None


def check_corrupt_verdict(rc: int, reports):
    """A corrupted generator must give exit 1 and a failing check."""
    if rc == 1 and len(reports) == 1 and not reports[0]["ok"] \
            and any(not c["pass"] for c in reports[0]["checks"]):
        return None
    return f"corruption not reported (exit {rc})"
