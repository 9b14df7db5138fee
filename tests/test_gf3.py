"""Bit-sliced GF(3) polynomials, and the p = 3 kernels that run on them.

``gf3`` stores a polynomial as two ints, the positions of its 1s and of
its 2s.  Its arithmetic is checked against ``Poly``, whose division is
schoolbook, and its products against ``schoolbook_mod_p``.  ``gf3.mul``
is shift-and-add while the shorter operand's weight is at most
``gf3._SPARSE + (len a + len b) // gf3._SPACING`` and a float convolution
(``algebra._convolve``) above that; both paths are pinned by moving
``_SPARSE``.  The public functions serve p = 3 from these slices; their
outputs are compared with the int64 kernels, which ``int64_at_p3`` runs
at p = 3, and with the Python references ``schoolbook_bm``,
``poly_euclid`` and ``poly_convergent``.
"""

import dataclasses
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqc import algebra, autoseq, contfrac, expcomp, gf3, lincomp, ring
from seqc.algebra import LaurentSeries, Poly, PrimeField
from test_algebra import schoolbook_mod_p, transforms, triangle
from test_int64_bound import int64_at_p3, poly_convergent, poly_euclid
from test_lincomp import schoolbook_bm

F3 = PrimeField(3)

# ``_SPARSE`` values that send every product down one path
PATHS = {"shift": 1 << 40, "fft": -(1 << 40)}

coeff_lists = st.lists(st.integers(0, 2), max_size=200)


def pack(coeffs):
    return gf3.from_coeffs(coeffs)


def poly(coeffs):
    return Poly(F3, tuple(coeffs))


def test_add_and_sub_on_every_pair():
    for a in range(3):
        for b in range(3):
            assert gf3.to_coeffs(gf3.add(pack([a]), pack([b]))) == poly([(a + b) % 3]).coeffs
            assert gf3.to_coeffs(gf3.sub(pack([a]), pack([b]))) == poly([(a - b) % 3]).coeffs


@given(coeff_lists)
def test_packing_round_trip(coeffs):
    h, l = a = pack(coeffs)
    assert h & l == 0
    assert Poly(F3, gf3.to_coeffs(a)) == poly(coeffs)
    assert gf3.degree(a) == len(poly(coeffs).coeffs) - 1


@given(coeff_lists, coeff_lists, st.integers(0, 70))
def test_arithmetic_matches_poly(xs, ys, n):
    a, b = pack(xs), pack(ys)
    assert Poly(F3, gf3.to_coeffs(gf3.add(a, b))) == poly(xs) + poly(ys)
    assert Poly(F3, gf3.to_coeffs(gf3.sub(a, b))) == poly(xs) - poly(ys)
    high, low = gf3.split(a, n)
    assert Poly(F3, gf3.to_coeffs(high)) == poly(xs[n:])
    assert Poly(F3, gf3.to_coeffs(low)) == poly(xs[:n])
    if any(ys):
        q, r = gf3.divmod_(a, b)
        assert (Poly(F3, gf3.to_coeffs(q)), Poly(F3, gf3.to_coeffs(r))) == divmod(poly(xs), poly(ys))


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf3.divmod_(pack([1, 2]), (0, 0))


@pytest.mark.parametrize("path", sorted(PATHS))
@given(coeff_lists, coeff_lists, st.sampled_from([None, 16]))
@example([2], [0, 1, 2], None)  # a constant -1: -b itself, unshifted
@example([1, 0, 2], [2] * 150, 16)
@example([], [1, 2], None)
@settings(max_examples=60, deadline=None)
def test_mul_paths_match_poly(path, xs, ys, limit):
    """Each path against ``Poly`` and the schoolbook product; under a limit of 16 the
    convolution is split into pieces of at most 16."""
    with transforms(limit, 0 if limit else None) as sizes, pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf3, "_SPARSE", PATHS[path])
        got = Poly(F3, gf3.to_coeffs(gf3.mul(pack(xs), pack(ys))))
    assert got == poly(xs) * poly(ys) == poly(schoolbook_mod_p(xs, ys, 3))
    assert all(size <= (limit or algebra._MAX_TRANSFORM) for size in sizes)


@pytest.mark.parametrize("short, long", [(300, 300), (1000, 5000), (2000, 6000)])
def test_mul_switches_at_the_weight_rule(monkeypatch, short, long):
    """At the rule's weight shift-and-add runs, one more takes the convolution."""
    rng = random.Random(short)
    b = [rng.randrange(3) for _ in range(long - 1)] + [1]
    limit = gf3._SPARSE + (short + long) // gf3._SPACING
    convolutions = []
    real = gf3._convolve
    monkeypatch.setattr(gf3, "_convolve", lambda *args: convolutions.append(1) or real(*args))
    for weight in (limit, limit + 1):
        if weight > short:
            continue
        a = [0] * short
        for i in rng.sample(range(short - 1), weight - 1) + [short - 1]:
            a[i] = rng.randrange(1, 3)
        convolutions.clear()
        assert Poly(F3, gf3.to_coeffs(gf3.mul(pack(a), pack(b)))) == poly(schoolbook_mod_p(a, b, 3))
        assert convolutions == ([1] if weight > limit else [])


def test_dense_mul_worst_case_at_the_limit():
    """Every digit -1 (coefficient 2), as long as one transform takes: (-1)^2 = 1, so the
    product is the triangle mod 3."""
    n = algebra._MAX_TRANSFORM
    a, b = pack([2] * (n // 2)), pack([2] * (n // 2 + 1))
    with transforms() as sizes:
        got = gf3.mul(a, b)
    assert sizes == [n, n]
    assert gf3.to_coeffs(got) == tuple((triangle(n // 2, n // 2 + 1) % 3).tolist())


@pytest.mark.parametrize("path", sorted(PATHS))
def test_flipped_coefficient_moves_the_product(path, monkeypatch):
    """a_i + delta moves a*b by exactly delta x^i b, on either path."""
    monkeypatch.setattr(gf3, "_SPARSE", PATHS[path])
    rng = random.Random(7)
    xs = [rng.randrange(3) for _ in range(699)] + [1]
    b = pack([rng.randrange(3) for _ in range(499)] + [2])
    base = gf3.mul(pack(xs), b)
    for i, delta in ((0, 1), (rng.randrange(700), 2), (699, 1)):
        flipped = list(xs)
        flipped[i] = (xs[i] + delta) % 3
        moved = gf3.sub(gf3.mul(pack(flipped), b), base)
        bh, bl = b
        assert moved == ((bh << i, bl << i) if delta == 1 else (bl << i, bh << i))


SUM_OF_DIGITS = autoseq.prefix(autoseq.sum_of_digits(3), 800)


def _bumped_sum_of_digits(case):
    n, bumps = case
    u = list(SUM_OF_DIGITS[:n])
    for i, d in bumps:
        u[i % n] = (u[i % n] + d) % 3
    return u


# random symbols; chunks of symbols between zero runs, whose quotients have
# high degree; sum-of-digits(3) with one to three symbols bumped, as the
# corrupted-generator controls do; one symbol; all zeros
_streams = st.one_of(
    st.lists(st.integers(0, 2), min_size=1, max_size=300),
    st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=4)
             | st.integers(1, 90).map(lambda k: [0] * k),
             min_size=1, max_size=12).map(lambda chunks: sum(chunks, [])),
    st.tuples(st.integers(1, len(SUM_OF_DIGITS)),
              st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 2)),
                       min_size=1, max_size=3)).map(_bumped_sum_of_digits),
    st.integers(0, 2).map(lambda v: [v]),
    st.integers(1, 200).map(lambda n: [0] * n),
)


def _expansion_outputs(symbols):
    exp = contfrac.cf_expand(LaurentSeries.from_prefix(symbols, F3))
    to_poly = ring.Ring(F3).to_poly
    last = exp.degree_count
    convergents = {j: exp.convergent(j) for j in sorted({0, 1, last // 2, last}) if j <= last}
    return exp, [to_poly(a) for a in exp.raw_quotients], convergents


@given(_streams)
@example(_bumped_sum_of_digits((729, [(500, 1)])))
@example([0] * 64 + [2])
@settings(max_examples=80, deadline=None)
def test_sliced_kernels_match_int64_and_references(symbols):
    prof, c, ell = schoolbook_bm(symbols, 3)
    connection = tuple(-c[ell - i] % 3 for i in range(ell))
    assert list(lincomp.bm_profile(symbols, F3)) == prof
    assert lincomp.bm_connection(symbols, F3) == (ell, connection)
    with int64_at_p3():
        assert list(lincomp.bm_profile(symbols, F3)) == prof
        assert lincomp.bm_connection(symbols, F3) == (ell, connection)

    exp, quotients, convergents = _expansion_outputs(symbols)
    with int64_at_p3():
        ref_exp, ref_quotients, ref_convergents = _expansion_outputs(symbols)
        assert contfrac.check_convergent_identities(ref_exp) is None
    assert isinstance(exp.raw_quotients[0], tuple) and isinstance(ref_exp.raw_quotients[0],
                                                                  np.ndarray)
    ref = poly_euclid(symbols, F3)
    assert quotients == ref_quotients
    assert quotients[1:] == ref
    assert exp.q_degrees == ref_exp.q_degrees == tuple(accumulate((a.degree for a in ref),
                                                                  initial=0))
    assert convergents == ref_convergents
    for j, pair in convergents.items():
        assert pair == poly_convergent(ref[:j], F3)
    assert contfrac.check_convergent_identities(exp) is None
    # a bumped constant term of A_J changes Q_J (or A_0, at J = 0): the
    # certificate must see it
    bumped = gf3.add(exp.raw_quotients[-1], pack([1]))
    bad = dataclasses.replace(exp, raw_quotients=exp.raw_quotients[:-1] + (bumped,))
    assert contfrac.check_convergent_identities(bad) is not None


@pytest.mark.parametrize("spec", [autoseq.sum_of_digits(3), autoseq.pattern(3, 2, 4)],
                         ids=["sum-of-digits(3)", "pattern(3,2,4)"])
@pytest.mark.parametrize("bump", [None, 200])
def test_residual_and_expansion_match_int64(spec, bump):
    """witness_residual and expansion_profile give the same on slices and under ``int64_at_p3``."""
    pref = autoseq.prefix(spec, 256)
    if bump is not None:
        pref[bump] = (pref[bump] + 1) % 3
    w = autoseq.witness(spec)

    def outputs():
        return autoseq.witness_residual(w, pref, 256), expcomp.expansion_profile(pref, F3)

    residual, profile = outputs()
    assert residual.is_zero == (bump is None)
    with int64_at_p3():
        assert isinstance(ring.Ring(F3).from_coeffs([1]), np.ndarray)
        assert outputs() == (residual, profile)


@pytest.mark.parametrize("symbols", [[random.Random(3).randrange(3) for _ in range(512)],
                                     autoseq.prefix(autoseq.sum_of_digits(3), 512)],
                         ids=["random", "sum-of-digits(3)"])
def test_int64_ring_runs_bm_without_slices(symbols, monkeypatch):
    """Under ``int64_at_p3`` the ring's value picks BM's int64 kernel: the slices never run."""
    def refuse(*_args):
        raise AssertionError("BM ran the slice kernel under the int64 ring")

    outputs = lincomp.bm_profile(symbols, F3), lincomp.bm_connection(symbols, F3)
    monkeypatch.setattr(lincomp, "_bm_f3", refuse)
    with int64_at_p3():
        assert (lincomp.bm_profile(symbols, F3), lincomp.bm_connection(symbols, F3)) == outputs
