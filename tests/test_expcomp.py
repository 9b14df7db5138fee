"""Nth expansion complexity: exact kernel search plus brute-force oracle."""

import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from seqc import autoseq, expcomp, lincomp
from seqc.algebra import Poly, PrimeField
from test_algebra import poly_coeff, poly_shift, poly_truncate
from test_autoseq import total_degree

F2 = PrimeField(2)
F3 = PrimeField(3)


def evaluate_witness(witness, prefix, field: PrimeField) -> Poly:
    """Re-evaluate sum coeff * G^i * t^j mod t^N, independent of the solver."""
    n = len(prefix)
    g = Poly(field, tuple(prefix))
    acc = Poly.zero(field)
    for i, j, c in witness:
        term = poly_shift(Poly(field, (c,)), j)
        gp = Poly.one(field)
        for _ in range(i):
            gp = poly_truncate(gp * g, n)
        acc = acc + poly_truncate(term * gp, n)
    return poly_truncate(acc, n)


def list_profile(prefix, field: PrimeField, d_max=None):
    """The profile through the list form at any p: the reference for the bit-packed F_2 form."""
    return expcomp._profile(prefix, expcomp._ListForm(prefix, field.p), d_max)


def bound_violation(values, h_degree: int, lin_profile):
    """First N with E_N > deg h or E_N > L(N) + 1, or None; values[N-1] = E_N."""
    return next((n for n, (e, ell) in enumerate(zip(values, lin_profile), start=1)
                 if e > h_degree or e > ell + 1), None)


def brute_force_expansion(prefix, p, d_max=3):
    """Least D with a nonzero h(s,t), total degree <= D, h(G,t) = 0 mod t^N.

    Enumerates every coefficient assignment over the monomials s^i t^j
    with i + j <= D.  Exponential; keep N and D tiny.
    """
    n = len(prefix)
    if not any(prefix):
        return 0
    for d in range(1, d_max + 1):
        mons = expcomp.monomials(d)
        # columns: coefficient vector of t^j G^i mod t^n
        cols = []
        for i, j in mons:
            g = Poly(PrimeField(p), tuple(prefix))
            gp = Poly.one(g.field)
            for _ in range(i):
                gp = poly_truncate(gp * g, n)
            col = poly_truncate(poly_shift(gp, j), n)
            cols.append([poly_coeff(col, e) for e in range(n)])
        for assign in itertools.product(range(p), repeat=len(mons)):
            if not any(assign):
                continue
            ok = all(
                sum(c * col[e] for c, col in zip(assign, cols)) % p == 0
                for e in range(n)
            )
            if ok:
                return d
    return None


class TestExpansionComplexity:
    def test_thue_morse_n1_zero_prefix(self):
        assert expcomp.expansion_profile([0], F2)[-1].value == 0

    def test_thue_morse_n2_witness(self):
        res = expcomp.expansion_profile([0, 1], F2)[-1]
        assert res.value == 1
        assert res.witness == ((0, 1, 1), (1, 0, 1))  # h = t + s

    def test_thue_morse_n32_plateau(self):
        pref = autoseq.prefix(autoseq.thue_morse(), 32)
        assert expcomp.expansion_profile(pref, F2)[-1].value == 5

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            expcomp.expansion_profile([], F2)[-1]
        with pytest.raises(ValueError):
            expcomp.expansion_profile([0, 1], F2, d_max=0)[-1]

    def test_capped_flag(self):
        pref = autoseq.prefix(autoseq.thue_morse(), 32)
        res = expcomp.expansion_profile(pref, F2, d_max=3)[-1]
        assert res.capped
        assert res.witness is None


class TestWitnesses:
    def test_witnesses_reevaluate_to_zero(self):
        for spec in autoseq.builtin_specs():
            pref = autoseq.prefix(spec, 48)
            for res in expcomp.expansion_profile(pref, spec.field):
                if res.witness is None:
                    continue
                val = evaluate_witness(res.witness, pref[:res.n], spec.field)
                assert val.is_zero, (spec.canonical_name, res.n)

    def test_witness_is_nonzero_polynomial(self):
        pref = autoseq.prefix(autoseq.rudin_shapiro(), 24)
        for res in expcomp.expansion_profile(pref, F2):
            if res.value > 0 and not res.capped:
                assert res.witness
                assert any(c for _, _, c in res.witness)


class TestProfile:
    def test_nondecreasing(self):
        for spec in autoseq.builtin_specs():
            pref = autoseq.prefix(spec, 64)
            vals = [r.value for r in expcomp.expansion_profile(pref, spec.field)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_zero_until_first_nonzero_symbol(self):
        pref = [0, 0, 0, 1, 0, 1]
        vals = [r.value for r in expcomp.expansion_profile(pref, F2)]
        assert vals[:3] == [0, 0, 0]
        assert all(v >= 1 for v in vals[3:])

    def test_thue_morse_plateau_by_64(self):
        pref = autoseq.prefix(autoseq.thue_morse(), 64)
        vals = [r.value for r in expcomp.expansion_profile(pref, F2)]
        assert vals[-1] == 5
        assert 5 in vals[:64]

    def test_perfect_profile_plateau_at_most_4(self):
        # the defining witness t(t+1)s^2 + (t+1)s + 1 has total degree 4
        pref = autoseq.prefix(autoseq.perfect_profile(), 64)
        vals = [r.value for r in expcomp.expansion_profile(pref, F2)]
        assert max(vals) <= 4


class TestBruteForceAgreement:
    def test_binary_prefixes_n_le_6(self):
        for n in range(1, 7):
            for bits in itertools.product((0, 1), repeat=n):
                expected = brute_force_expansion(list(bits), 2, d_max=3)
                res = expcomp.expansion_profile(list(bits), F2, d_max=3)[-1]
                if expected is None:
                    assert res.capped, bits
                else:
                    assert res.value == expected, bits

    def test_ternary_prefixes_n_le_4(self):
        for n in range(1, 5):
            for syms in itertools.product((0, 1, 2), repeat=n):
                expected = brute_force_expansion(list(syms), 3, d_max=2)
                res = expcomp.expansion_profile(list(syms), F3, d_max=2)[-1]
                if expected is None:
                    assert res.capped, syms
                else:
                    assert res.value == expected, syms


class TestKernelShrink:
    # digests of every built-in's profile at N=128, recorded from the
    # earlier per-N Gaussian elimination, whose witness is the first
    # reduced-echelon kernel vector
    DIGESTS = {
        8: "11c4db4dde3a193d95bf61c9da6beebea4a04ddc5bcafb23b5baa83aa2bd0a5f",
        12: "b410d9ebcc078a4f549487378bf8196e47fd5ba29b1777d713fbd796a81c3b25",
    }

    @pytest.mark.parametrize("d_max", sorted(DIGESTS))
    def test_builtin_profiles_pinned(self, d_max):
        rows = [(r.n, r.value, r.witness, r.capped)
                for spec in autoseq.builtin_specs()
                for r in expcomp.expansion_profile(autoseq.prefix(spec, 128), spec.field,
                                                   d_max=d_max)]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.DIGESTS[d_max]

    @pytest.mark.parametrize("seed", range(3))
    def test_witnesses_exact_at_largest_p(self, seed):
        field = PrimeField(2**31 - 1)
        rng = random.Random(seed)
        pref = [rng.randrange(field.p) for _ in range(24)]
        res = expcomp.expansion_profile(pref, field)
        assert all(not r.capped for r in res)
        for r in res:
            assert evaluate_witness(r.witness, pref[:r.n], field).is_zero, r.n

    @pytest.mark.parametrize("spec, plateau", [(autoseq.thue_morse(), 5),
                                               (autoseq.rudin_shapiro(), 7)])
    def test_plateau_at_1024(self, spec, plateau):
        res = expcomp.expansion_profile(autoseq.prefix(spec, 1024), spec.field)
        assert res[-1].value == plateau and not res[-1].capped
        assert evaluate_witness(res[-1].witness, autoseq.prefix(spec, 1024),
                                spec.field).is_zero

    def test_profile_rejects_bad_d_max(self):
        with pytest.raises(ValueError):
            expcomp.expansion_profile([0, 1], F2, d_max=0)


class TestBitPackedAgainstLists:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2**200 - 1), st.sampled_from([3, 8, None]))
    @example(200, random.Random(0).getrandbits(200), None)  # a dense prefix, E_200 = 19
    def test_random_f2_prefixes(self, n, word, d_max):
        bits = [word >> i & 1 for i in range(n)]
        assert expcomp.expansion_profile(bits, F2, d_max) == list_profile(bits, F2, d_max)


N_BOUNDS = 256
BUILTINS = {spec.canonical_name: spec for spec in autoseq.builtin_specs()}


@functools.cache
def default_profile(name):
    """(results, deg h, L profile) at N_BOUNDS under the default d_max."""
    spec = BUILTINS[name]
    pref = autoseq.prefix(spec, N_BOUNDS)
    return (expcomp.expansion_profile(pref, spec.field), total_degree(autoseq.witness(spec)),
            list(lincomp.bm_profile(pref, spec.field).values))


class TestWitnessBounds:
    """E_N <= deg h, since h(G, t) = 0 exactly, and E_N <= L(N) + 1
    (Mérai–Niederreiter–Winterhof, Cryptogr. Commun. 2017), uncapped."""

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_uncapped_within_both_bounds(self, name):
        res, hdeg, lin = default_profile(name)
        assert not any(r.capped for r in res)
        assert bound_violation([r.value for r in res], hdeg, lin) is None
        # every built-in has reached its witness degree by N = 256
        assert res[-1].value == hdeg

    def test_pattern_2_3_7_reaches_11(self):
        res, hdeg, _ = default_profile(autoseq.pattern(2, 3, 7).canonical_name)
        assert res[-1].value == hdeg == 11

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_capped_results_are_the_only_difference(self, name):
        res, _, _ = default_profile(name)
        spec = BUILTINS[name]
        capped = expcomp.expansion_profile(autoseq.prefix(spec, N_BOUNDS), spec.field, d_max=8)
        for a, b in zip(res, capped):
            assert a == b or b.capped

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_bumped_values_fail(self, name):
        res, hdeg, lin = default_profile(name)
        values = [r.value for r in res]
        # above L(N) + 1 at an N where L(N) + 2 <= deg h: only that bound catches it
        low = next(n for n in range(1, N_BOUNDS + 1) if lin[n - 1] + 2 <= hdeg)
        bumped = values[:low - 1] + [lin[low - 1] + 2] + values[low:]
        assert bound_violation(bumped, hdeg, lin) == low
        # deg h + 1 at the last N, where L(N) + 1 is far above it
        assert lin[-1] + 1 > hdeg + 1
        assert bound_violation(values[:-1] + [hdeg + 1], hdeg, lin) == N_BOUNDS
