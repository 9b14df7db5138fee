"""Automatic sequence generators and their algebraic witnesses.

Each built-in sequence comes with the bivariate polynomial h(s,t) whose
root is the sequence's generating function, each h_i(t) written as its
coefficients by two identities over F_p (``witness``).  The parameters
d and M that feed the general complexity bounds are read off h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .algebra import Poly, PrimeField
from .ring import Ring

PATTERN = "pattern"
SUM_OF_DIGITS = "sum-of-digits"
BAUM_SWEET = "baum-sweet"
PAPER_FOLDING = "paper-folding"
PERFECT_PROFILE = "perfect-profile"


@dataclass(frozen=True)
class SequenceSpec:
    """A named automatic sequence with its defining parameters."""

    kind: str
    p: int = 2
    k: int = 1
    a: int = 1
    v0: int = 1

    def __post_init__(self):
        if self.kind == PATTERN:
            PrimeField(self.p)
            if self.k < 1:
                raise ValueError("pattern length k must be >= 1")
            # a < 2^k <= p^k once k >= a.bit_length(), with no p^k built
            if not (0 < self.a and (self.k >= self.a.bit_length() or self.a < self.p ** self.k)):
                raise ValueError("pattern value a must satisfy 0 < a < p**k")
        elif self.kind == SUM_OF_DIGITS:
            PrimeField(self.p)
        elif self.kind == PAPER_FOLDING:
            if self.v0 not in (0, 1):
                raise ValueError("v0 must be an F_2 element")
        elif self.kind not in (BAUM_SWEET, PERFECT_PROFILE):
            raise ValueError(f"unknown sequence kind: {self.kind}")

    @property
    def field(self) -> PrimeField:
        return PrimeField(self.p if self.kind in (PATTERN, SUM_OF_DIGITS) else 2)

    @property
    def canonical_name(self) -> str:
        if self.kind == PATTERN:
            if (self.p, self.k, self.a) == (2, 1, 1):
                return "thue-morse"
            if (self.p, self.k, self.a) == (2, 2, 3):
                return "rudin-shapiro"
            return f"pattern(p={self.p},k={self.k},a={self.a})"
        if self.kind == SUM_OF_DIGITS:
            return f"sum-of-digits(p={self.p})"
        if self.kind == PAPER_FOLDING:
            return f"paper-folding(v0={self.v0})"
        return self.kind

    @property
    def is_all_one_pattern(self) -> bool:
        return (self.kind == PATTERN and self.p == 2
                and self.a.bit_length() == self.k and self.a & (self.a + 1) == 0)


def pattern(p: int, k: int, a: int) -> SequenceSpec:
    return SequenceSpec(PATTERN, p=p, k=k, a=a)


def thue_morse() -> SequenceSpec:
    return pattern(2, 1, 1)


def rudin_shapiro() -> SequenceSpec:
    return pattern(2, 2, 3)


def sum_of_digits(p: int) -> SequenceSpec:
    return SequenceSpec(SUM_OF_DIGITS, p=p)


def baum_sweet() -> SequenceSpec:
    return SequenceSpec(BAUM_SWEET)


def paper_folding(v0: int = 1) -> SequenceSpec:
    return SequenceSpec(PAPER_FOLDING, v0=v0)


def perfect_profile() -> SequenceSpec:
    return SequenceSpec(PERFECT_PROFILE)


def builtin_specs():
    """The seven built-in sequences exercised by the verification suite."""
    return (
        thue_morse(),
        rudin_shapiro(),
        pattern(2, 3, 7),
        sum_of_digits(3),
        baum_sweet(),
        paper_folding(1),
        perfect_profile(),
    )


# -- prefix generation -------------------------------------------------

def _pattern_modulus(spec: SequenceSpec, n: int) -> int:
    """A modulus m with i mod m == a exactly when i mod p^k == a, for 0 <= i <= n.

    p^min(k, n.bit_length()) exceeds n once k is cut, so then both tests
    read i == a; p^k itself is never built for a huge k.
    """
    return spec.p ** min(spec.k, n.bit_length())


def prefix(spec: SequenceSpec, n: int):
    """The first n terms u_0..u_(n-1), filled in one pass: u_i from terms below i."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    kind = spec.kind
    if kind == PATTERN:
        p, pk, a = spec.p, _pattern_modulus(spec, n - 1), spec.a
        out = [0] * n
        for i in range(1, n):
            out[i] = (out[i // p] + (1 if i % pk == a else 0)) % p
        return out
    if kind == SUM_OF_DIGITS:
        k = spec.p
        out = [0] * n
        for i in range(1, n):
            out[i] = (out[i // k] + i) % k
        return out
    if kind == BAUM_SWEET:  # b(2i+1) = b(i), b(4i) = b(i), b(4i+2) = 0
        out = [1] * n
        for i in range(2, n):
            out[i] = out[i >> 1] if i & 1 else (0 if i & 2 else out[i >> 2])
        return out
    if kind == PAPER_FOLDING:  # v(2i) = v(i) for i >= 1, v(4i+1) = 1, v(4i+3) = 0
        out = [spec.v0] * n
        for i in range(1, n):
            out[i] = out[i >> 1] if i % 2 == 0 else (1 if i % 4 == 1 else 0)
        return out
    # perfect-profile
    out = [0] * n
    out[0] = 1
    for i in range(1, n):
        out[i] = 1 if i % 2 == 0 else (out[(i - 1) // 2] + 1) % 2
    return out


# -- algebraic witnesses -------------------------------------------------

@dataclass(frozen=True)
class AlgebraicWitness:
    """h(s,t) = sum_i h_i(t) s^i, with d and M read off h.

    d = deg_s h, and M = max_i (deg h_i - i) over the nonzero h_i: the
    two numbers that bound L(N) in Theorem 1.
    """

    field: PrimeField
    h_coeffs: tuple  # Poly, index i = h_i(t)

    def __post_init__(self):
        if not self.h_coeffs or self.h_coeffs[-1].is_zero:
            raise ValueError("leading coefficient h_d must be nonzero")

    @property
    def d(self) -> int:
        return len(self.h_coeffs) - 1

    @property
    def m(self) -> int:
        return max(int(h.degree) - i for i, h in enumerate(self.h_coeffs) if not h.is_zero)


# largest total degree of a witness that ``witness`` builds
WITNESS_DEGREE_CAP = 2**16


@cache
def witness(spec: SequenceSpec) -> AlgebraicWitness:
    """h(s,t) for a built-in spec, with dense coefficients in s and in t.

    Each h_i is written as its coefficient tuple, by two identities over
    F_p: (t-1)^(p^k) = t^(p^k) - 1, since the p-th power map is additive,
    and (t-1)^(p-1) = 1 + t + ... + t^(p-1), since binom(p-1, i) = (-1)^i.
    Its total degree is p^k + 2p - 1 for pattern(p,k,a) and 2p + 1 for
    sum-of-digits(p), so it grows with p.  Above WITNESS_DEGREE_CAP
    (2^16; p up to 32749 for sum-of-digits and p^k + 2p - 1 <= 65536
    for a pattern) a ValueError is raised before anything is allocated.
    Specs are frozen and witnesses immutable, so each is built once per
    process; a spec over the cap raises on every call.
    """
    if spec.kind in (PATTERN, SUM_OF_DIGITS):
        p, k = spec.p, spec.k
        if spec.kind == SUM_OF_DIGITS:
            degree = 2 * p + 1
        else:  # over the cap for every k > 16; past k = 64, p^k is written, not built
            degree = p ** k + 2 * p - 1 if k <= 64 else f"{p}^{k} + {2 * p - 1}"
        if isinstance(degree, str) or degree > WITNESS_DEGREE_CAP:
            raise ValueError(f"witness degree {degree} of {spec.canonical_name} exceeds "
                             f"the cap {WITNESS_DEGREE_CAP}")
    field = spec.field
    t = Poly.x(field)
    one = Poly.one(field)
    zero = Poly.zero(field)
    if spec.kind == PATTERN:
        # (t-1)^(p^k + p - 1) s^p - (t-1)^(p^k) s - t^a, with
        # (t-1)^(p^k + p - 1) = (t^(p^k) - 1)(1 + t + ... + t^(p-1))
        p, pk = spec.p, spec.p ** spec.k
        h = [zero] * (p + 1)
        h[0] = Poly.monomial(field, spec.a, -1)
        h[1] = Poly(field, (1,) + (0,) * (pk - 1) + (-1,))
        h[p] = Poly(field, (-1,) * p + (0,) * (pk - p) + (1,) * p)
        return AlgebraicWitness(field, tuple(h))
    if spec.kind == SUM_OF_DIGITS:
        # (1-t)^(p+1) s^p - (1-t)^2 s + t, with (1-t)^(p+1) = (1 - t^p)(1 - t)
        p = spec.p
        h = [zero] * (p + 1)
        h[0] = t
        h[1] = Poly(field, (-1, 2, -1))
        h[p] = Poly(field, (1, -1) + (0,) * (p - 2) + (-1, 1))
        return AlgebraicWitness(field, tuple(h))
    if spec.kind == BAUM_SWEET:
        # s^3 + t s + 1
        return AlgebraicWitness(field, (one, t, zero, one))
    if spec.kind == PAPER_FOLDING:
        # (t^4 + 1) s^2 + (t^4 + 1) s + t
        t4p1 = Poly(field, (1, 0, 0, 0, 1))
        return AlgebraicWitness(field, (t, t4p1, t4p1))
    # perfect-profile: t(t+1) s^2 + (t+1) s + 1
    return AlgebraicWitness(field, (one, Poly(field, (1, 1)), Poly(field, (0, 1, 1))))


def witness_residual(w: AlgebraicWitness, pref, n: int) -> Poly:
    """sum_i h_i(t) G(t)^i mod t^n, for G = pref[0] + pref[1] t + ... + pref[n-1] t^(n-1).

    Over F_p, G(t)^p = G(t^p): the p-th power map is additive and fixes
    every coefficient.  So G^i is the product over the base-p digits d_j
    of i of G(t^(p^j))^(d_j), and each factor is one ``stretch`` of G;
    only an exponent whose digits sum to more than one takes a product
    (for the built-ins, Baum-Sweet's s^3 over F_2).  Every factor and
    power is cut mod t^n as it is built, which changes no coefficient
    below t^n, so the known range is t^0..t^(n-1) as for the full products.
    The prefix is checked by ``PrimeField.validate_symbols``, so a symbol
    outside [0, p), a non-integer or n < 1 raises ValueError.
    """
    p = w.field.p
    ring = Ring(w.field)
    g = ring.from_coeffs(w.field.validate_symbols(pref[:max(n, 0)]))  # no slice from the end
    acc = ring.from_coeffs(())
    for i, h in enumerate(w.h_coeffs):
        if h.is_zero:
            continue
        factors = (ring.stretch(g, stride, n) for stride in _frobenius_strides(i, p))
        power = next(factors, ring.monomial(0))
        for f in factors:
            power = ring.split(ring.mul(power, f), n)[1]
        acc = ring.add(acc, ring.mul(ring.from_coeffs(h.coeffs), power))
    return ring.to_poly(ring.split(acc, n)[1])


def _frobenius_strides(i: int, p: int) -> list:
    """p^j once for each unit of the base-p digit d_j of i: G^i = prod G(t^stride)."""
    out, stride = [], 1
    while i:
        i, d = divmod(i, p)
        out += [stride] * d
        stride *= p
    return out


@dataclass(frozen=True)
class Profile:
    """The vector (L(u_n,1), ..., L(u_n,N_max)) of Nth linear complexities."""

    values: tuple

    def at(self, n: int) -> int:
        """L(u_n, n) for 1 <= n <= n_max; IndexError for any other n."""
        if not 1 <= n <= len(self.values):
            raise IndexError(f"n = {n} is outside [1, {len(self.values)}]")
        return self.values[n - 1]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)
