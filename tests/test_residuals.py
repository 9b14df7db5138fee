"""Witness and functional-equation residuals against product-based references.

``witness_residual`` and ``functional_equation_residual`` build powers of G
by Frobenius spreads and take a full product only where an exponent has
more than one base-p digit unit.  The references below are the plain
schoolbook definitions, with every power and product taken in full.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from seqc import autoseq, ring, theory
from seqc.algebra import LaurentSeries, Poly, PrimeField
from seqc.autoseq import AlgebraicWitness
from test_algebra import poly_truncate, series_add, series_from_poly, series_shift


def reference_witness_residual(w, pref, n):
    g = Poly(w.field, tuple(pref[:n]))
    acc = Poly.zero(w.field)
    gpow = Poly.one(w.field)
    for i, h in enumerate(w.h_coeffs):
        if i:
            gpow = poly_truncate(gpow * g, n)
        if not h.is_zero:
            acc = acc + poly_truncate(h * gpow, n)
    return poly_truncate(acc, n)


def reference_functional_equation(spec, n, pref):
    field = spec.field
    r = LaurentSeries.from_prefix(pref[:n], field)
    u = LaurentSeries(field, 0, (1,) * (n + 1), -n)
    u_pow = u
    for _ in range(spec.k):
        u_pow = u_pow * u_pow
    one_plus_x = series_from_poly(Poly(field, (1, 1)), -(2 * n + 2))
    return series_add(series_add(one_plus_x * (r * r), r), series_shift(u_pow, -(2 ** spec.k)))


SPECS = {
    2: [s for s in theory.suite_specs() if s.field.p == 2],
    3: [autoseq.sum_of_digits(3), autoseq.pattern(3, 2, 4), autoseq.pattern(3, 1, 2)],
    5: [autoseq.sum_of_digits(5), autoseq.pattern(5, 1, 2)],
}


def corrupt(pref, index, delta, p):
    pref = list(pref)
    pref[index % len(pref)] = (pref[index % len(pref)] + delta) % p
    return pref


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data(), st.integers(1, 300),
       st.integers(0, 299), st.integers(0, 4))
def test_builtin_residual_matches_reference(p, data, n, index, delta):
    spec = data.draw(st.sampled_from(SPECS[p]))
    w = autoseq.witness(spec)
    pref = corrupt(autoseq.prefix(spec, n), index, delta, p)
    assert autoseq.witness_residual(w, pref, n) == reference_witness_residual(w, pref, n)


# exponents with several base-p digit units, so the product branch runs:
# s^3 = s^(2+1) over F_2; s^4 = s^(3+1) and s^5 = s^(3+1+1) over F_3
MULTI_DIGIT = [(2, 3), (3, 4), (3, 5), (5, 6), (5, 7), (2**31 - 1, 2), (2**31 - 1, 3)]


@st.composite
def multi_digit_witnesses(draw):
    p, d = draw(st.sampled_from(MULTI_DIGIT))
    field = PrimeField(p)
    short = st.lists(st.integers(0, p - 1), max_size=5)
    h = [Poly(field, tuple(draw(short))) for _ in range(d)]
    h.append(Poly(field, tuple(draw(short)) + (draw(st.integers(1, p - 1)),)))
    m = max(int(c.degree) - i for i, c in enumerate(h) if not c.is_zero)
    return AlgebraicWitness(field, tuple(h), m=m)


@settings(max_examples=200, deadline=None)
@given(multi_digit_witnesses(), st.data(), st.integers(1, 300))
def test_multi_digit_residual_matches_reference(w, data, n):
    p = w.field.p
    pref = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=n))
    assert autoseq.witness_residual(w, pref, n) == reference_witness_residual(w, pref, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 300), st.integers(0, 10),
       st.integers(0, 299), st.booleans())
def test_functional_equation_matches_reference(k, n, extra, index, flip):
    spec = autoseq.pattern(2, k, 2 ** k - 1)
    # the prefix may be longer or shorter than n: only pref[:n] is read
    pref = autoseq.prefix(spec, max(1, n + extra - 5))
    if flip:
        pref[index % len(pref)] ^= 1
    got = theory.functional_equation_residual(spec, n, pref)
    want = reference_functional_equation(spec, n, pref)
    assert (got.top, got.low, got.coeffs) == (want.top, want.low, want.coeffs)
    assert got == want


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_functional_equation_zero_prefix_matches_reference(k):
    spec = autoseq.pattern(2, k, 2 ** k - 1)
    for n in (1, 2, 5, 16, 17):
        pref = [0] * n
        assert (theory.functional_equation_residual(spec, n, pref)
                == reference_functional_equation(spec, n, pref))


def _first_fail_functional_equation(spec, n, pref):
    """The first failing N that ``verify`` reports for ``functional_equation``."""
    feq = theory.functional_equation_residual(spec, n, pref)
    return None if feq.is_zero else -int(feq.valuation)


def _first_fail_witness_residual(spec, n, pref):
    """The first failing N that ``verify`` reports for ``residual_zero``."""
    res = autoseq.witness_residual(autoseq.witness(spec), pref, n)
    return next((m for m, c in enumerate(res.coeffs, start=1) if c), None)


@pytest.mark.parametrize("n", [64, 513, 2048])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_all_one_residuals_fail_at_the_same_n(k, n):
    # over F_2, (1+t)^(2^k) F(G) = t h(G) and (1+t)^(2^k) is a unit, so the
    # functional equation F and the witness h vanish to the same order
    spec = autoseq.pattern(2, k, 2 ** k - 1)
    base = autoseq.prefix(spec, n)
    assert _first_fail_functional_equation(spec, n, base) is None
    assert _first_fail_witness_residual(spec, n, base) is None
    for seed in range(10):
        rng = random.Random(seed)
        flips = rng.sample(range(n), rng.randint(1, 3))
        pref = list(base)
        for i in flips:
            pref[i] ^= 1
        first = _first_fail_witness_residual(spec, n, pref)
        assert _first_fail_functional_equation(spec, n, pref) == first, (seed, flips)
        # h is additive and h_1 = (t+1)^(2^k) has constant term 1, so a flip
        # at index i >= 1 shows at order i; at i = 0, h_1 and h_2 cancel
        if min(flips) >= 1:
            assert first == min(flips) + 1, (seed, flips)


def truncated_power(g, i, n):
    """g^i mod t^n by square-and-multiply, each product taken in full and then cut."""
    out, base = Poly.one(g.field), g
    while i:
        if i & 1:
            out = poly_truncate(out * base, n)
        base = poly_truncate(base * base, n)
        i >>= 1
    return out


@pytest.mark.parametrize("p", [257, 32749])
@pytest.mark.parametrize("index", [None, 0, 1500, 4095])
def test_large_p_sum_of_digits_residual_matches_reference(p, index, monkeypatch):
    """At N = 4096 h_1 = -(1-t)^2 times G, of 4096 entries, takes ``ring.Ring.mul``'s
    slice updates: no float product has an operand of n entries."""
    n = 4096
    spec = autoseq.sum_of_digits(p)
    w = autoseq.witness(spec)
    pref = autoseq.prefix(spec, n)
    if index is not None:
        pref = corrupt(pref, index, 1, p)
    calls = []
    real = ring._fft_mul
    monkeypatch.setattr(ring, "_fft_mul",
                        lambda a, b, q: calls.extend((len(a), len(b))) or real(a, b, q))
    got = autoseq.witness_residual(w, pref, n)
    assert n not in calls
    g = Poly(w.field, tuple(pref))
    want = Poly.zero(w.field)
    for i, h in enumerate(w.h_coeffs):
        if not h.is_zero:
            want = want + poly_truncate(h * truncated_power(g, i, n), n)
    assert got == want
    assert got.is_zero == (index is None)


class TestEdgeControls:
    N = 2048

    @pytest.mark.parametrize("spec", theory.suite_specs(), ids=lambda s: s.canonical_name)
    def test_last_index_corruption_fails_residual(self, spec):
        # catches a mask or spread bound that stops one coefficient short
        last = self.N - 1

        def mutate(pref):
            pref[last] = (pref[last] + 1) % spec.field.p
            return pref

        report = theory.verify(spec, self.N, mutate=mutate)
        res = next(c for c in report.checks if c.name == "residual_zero")
        assert not res.passed
        assert res.first_fail_n == self.N

    def test_paper_folding_u0_is_not_a_control(self):
        # h(s+1) = h(s) over F_2 for paper-folding's witness, and flipping
        # u_0 gives paper-folding(v0=0): the residual rightly vanishes
        spec = autoseq.paper_folding(1)
        pref = autoseq.prefix(spec, self.N)
        pref[0] ^= 1
        assert pref == autoseq.prefix(autoseq.paper_folding(0), self.N)
        assert autoseq.witness_residual(autoseq.witness(spec), pref, self.N).is_zero
        assert theory.verify(spec, self.N, mutate=lambda _: list(pref)).ok
