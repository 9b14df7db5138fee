"""Berlekamp-Massey profile and connection polynomial synthesis."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from seqc import autoseq, contfrac, lincomp
from seqc.algebra import LaurentSeries, PrimeField
from test_autoseq import validate_profile

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def replay_recurrence(coeffs, seed, n: int, field: PrimeField):
    """First n terms of the order-L recurrence started from ``seed``."""
    ell = len(coeffs)
    p = field.p
    out = list(seed[:min(ell, n)])
    while len(out) < n:
        out.append(sum(c * u for c, u in zip(coeffs, out[-ell:])) % p)
    return out


def brute_force_lc(prefix, p):
    """Smallest L such that some length-L recurrence reproduces the prefix.

    Exhaustive over all p^L coefficient vectors; the convention cases
    (all-zero prefix, zero-padded unit) are handled like the main path:
    L = 0 for all-zero, else try L = 1, 2, ...
    """
    n = len(prefix)
    if not any(prefix):
        return 0
    for ell in range(1, n + 1):
        if ell > n - 1:
            # any L >= n works vacuously; minimal such is n when the
            # prefix is 0,...,0,c (handled by the loop reaching here)
            return ell
        for cs in itertools.product(range(p), repeat=ell):
            ok = True
            for i in range(n - ell):
                val = sum(c * prefix[i + j] for j, c in enumerate(cs)) % p
                if val != prefix[i + ell] % p:
                    ok = False
                    break
            if ok:
                return ell
    return n


class TestConventions:
    def test_zero_padded_unit(self):
        prof = lincomp.bm_profile([0, 0, 0, 1], F2)
        assert list(prof) == [0, 0, 0, 4]

    def test_all_zero(self):
        prof = lincomp.bm_profile([0, 0, 0, 0, 0], F2)
        assert list(prof) == [0, 0, 0, 0, 0]

    def test_thue_morse_n12(self):
        pref = autoseq.prefix(autoseq.thue_morse(), 12)
        assert list(lincomp.bm_profile(pref, F2)) == [0, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 6]

    def test_perfect_profile_n8(self):
        pref = autoseq.prefix(autoseq.perfect_profile(), 8)
        assert list(lincomp.bm_profile(pref, F2)) == [1, 1, 2, 2, 3, 3, 4, 4]


class TestBruteForceMinimality:
    def test_all_binary_prefixes_up_to_length_8(self):
        for n in range(1, 9):
            for bits in itertools.product((0, 1), repeat=n):
                prof = lincomp.bm_profile(list(bits), F2)
                assert prof.at(n) == brute_force_lc(list(bits), 2), bits

    def test_random_binary_length_12(self):
        rng = random.Random(12)
        for _ in range(60):
            bits = [rng.randrange(2) for _ in range(12)]
            prof = lincomp.bm_profile(bits, F2)
            assert prof.at(12) == brute_force_lc(bits, 2), bits

    def test_random_ternary_length_8(self):
        rng = random.Random(3)
        for _ in range(60):
            syms = [rng.randrange(3) for _ in range(8)]
            prof = lincomp.bm_profile(syms, F3)
            assert prof.at(8) == brute_force_lc(syms, 3), syms


class TestConnection:
    def test_regenerates_perfect_profile_prefix(self):
        pref = [1, 0, 1, 1, 1, 0, 1, 0]
        ell, cs = lincomp.bm_connection(pref, F2)
        assert ell == 4
        assert replay_recurrence(cs, pref[:ell], len(pref), F2) == pref

    def test_convention_prefix_01(self):
        pref = [0, 1]
        ell, cs = lincomp.bm_connection(pref, F2)
        assert ell == 2
        assert replay_recurrence(cs, pref[:ell], len(pref), F2) == pref

    def test_constant_prefix(self):
        ell, cs = lincomp.bm_connection([1, 1, 1, 1], F2)
        assert ell == 1
        assert cs == (1,)

    def test_replay_all_builtins(self):
        for spec in autoseq.builtin_specs():
            pref = autoseq.prefix(spec, 96)
            ell, cs = lincomp.bm_connection(pref, spec.field)
            assert replay_recurrence(cs, pref[:ell], len(pref), spec.field) == pref


@pytest.mark.parametrize("seed", range(10))
def test_connection_replays_random_p31(seed):
    # products of two symbols near 2^31 overflow int64 unless split
    p = 2**31 - 1
    field = PrimeField(p)
    rng = random.Random(seed)
    pref = [rng.randrange(p) for _ in range(64)]
    ell, cs = lincomp.bm_connection(pref, field)
    assert ell == 32
    assert replay_recurrence(cs, pref[:ell], len(pref), field) == pref


def schoolbook_bm(seq, p):
    """Massey's synthesis on Python lists: (profile, c_0..c_L, L)."""
    c, b = [1], [1]
    ell, shift, bd = 0, 1, 1
    prof = []
    for n in range(len(seq)):
        cc = c + [0] * (ell + 1 - len(c))
        d = sum(cc[i] * seq[n - i] for i in range(ell + 1)) % p
        if d:
            coef = d * pow(bd, -1, p) % p
            new = c + [0] * (shift + len(b) - len(c))
            for i, bi in enumerate(b):
                new[shift + i] = (new[shift + i] - coef * bi) % p
            if 2 * ell <= n:
                ell, b, bd, shift = n + 1 - ell, c, d, 0
            c = new
        shift += 1
        prof.append(ell)
    return prof, (c + [0] * (ell + 1))[:ell + 1], ell


def _bits(seed, n):
    rng = random.Random(seed)
    return [rng.randrange(2) for _ in range(n)]


P31 = 2**31 - 1


def _at_every_p(*prefixes):
    """``@example((p, xs))`` for each prefix xs at each p in 2, 3, 5 and 2^31 - 1."""
    def wrap(test):
        for p in (2, 3, 5, P31):
            for xs in prefixes:
                test = example((p, xs))(test)
        return test
    return wrap


@given(st.sampled_from([2, 3, 5, P31]).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1) | st.just(0), min_size=1, max_size=300))))
# F_2 runs in 64-step blocks: a first nonzero symbol past block 0, whole and
# just-over block lengths, E taken blocks before its next use (a constant
# run then a break; isolated ones), and length changes at the last step of
# a block (first nonzero at 63 or 127; a period-2 run broken at 127)
@example((2, [0] * 70 + _bits(1, 50)))
@example((2, _bits(2, 64)))
@example((2, _bits(3, 128)))
@example((2, _bits(4, 129)))
@example((2, [1] * 250 + [0] + _bits(5, 40)))
@example((2, [0] * 10 + [1] + [0] * 150 + [1] + [0] * 140))
@example((2, [0] * 63 + [1] + _bits(6, 100)))
@example((2, [0] * 127 + [1] + _bits(7, 100)))
@example((2, [1, 0] * 63 + [1, 1] + _bits(8, 60)))
# at p = 2^31 - 1 res and c are reduced about every other update: 200
# symbols run about a hundred reductions of each
@example((P31, [P31 - 1 - v for v in _bits(9, 200)]))
@example((P31, (lambda rng: [rng.randrange(P31) for _ in range(200)])(random.Random(10))))
# the packed prefix drops trailing zeros, so a kernel takes N apart from
# it: a packed value far shorter than N, and an empty one.  The connection
# is read back from c and padded to L + 1: c = 1 - x^L, with zeros
# between c_0 and c_L, and c = 1 with c_L = 0 at L = 1 and L = 2
@_at_every_p([1] + [0] * 63, [0] * 64, [0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 1], [1, 1, 0, 0])
@settings(max_examples=80)
def test_live_span_bm_matches_schoolbook(case):
    p, xs = case
    field = PrimeField(p)
    prof, c, ell = schoolbook_bm(xs, p)
    assert list(lincomp.bm_profile(xs, field)) == prof
    assert lincomp.bm_connection(xs, field) == (ell, tuple(-c[ell - i] % p for i in range(ell)))


@pytest.mark.parametrize("p", [5, P31])
@pytest.mark.parametrize("xs", [[1] + [0] * 4095, [0] * 4096], ids=["one-then-zeros", "zeros"])
def test_long_zero_tail_matches_schoolbook(p, xs):
    """The packed prefix drops a long zero tail in one step; the profile and the
    connection stay Massey's, and the CF profile stays BM's."""
    field = PrimeField(p)
    prof, c, ell = schoolbook_bm(xs, p)
    bm = lincomp.bm_profile(xs, field)
    assert list(bm) == prof
    assert lincomp.bm_connection(xs, field) == (ell, tuple(-c[ell - i] % p for i in range(ell)))
    assert contfrac.profile_from_cf(LaurentSeries.from_prefix(xs, field), len(xs)) == bm


symbol_lists = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40)


@given(symbol_lists)
def test_profile_invariants_f5(xs):
    prof = lincomp.bm_profile(xs, F5)
    validate_profile(prof)  # L(N) = L(N-1), or N - L(N-1) > L(N-1)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40))
@settings(max_examples=60)
def test_connection_replays_random_f2(xs):
    ell, cs = lincomp.bm_connection(xs, F2)
    assert replay_recurrence(cs, xs[:ell], len(xs), F2) == xs


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=32))
def test_profile_prefix_consistency(xs):
    # the profile of a prefix is a prefix of the profile
    full = list(lincomp.bm_profile(xs, F2))
    half = list(lincomp.bm_profile(xs[: len(xs) // 2 + 1], F2))
    assert full[: len(half)] == half


def test_seeded_random_triples_match_brute_force():
    # 1000 seeded triples (p, length, symbols) against exhaustive search
    rng = random.Random(1000)
    fields = {2: F2, 3: F3, 5: F5}
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 7 if p == 5 else 9)
        syms = [rng.randrange(p) for _ in range(n)]
        prof = lincomp.bm_profile(syms, fields[p])
        assert prof.at(n) == brute_force_lc(syms, p), (p, syms)
