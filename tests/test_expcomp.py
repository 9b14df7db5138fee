"""Nth expansion complexity: exact kernel search plus brute-force oracle."""

import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from seqc import autoseq, expcomp, gf2, gf3, lincomp, ring
from seqc.algebra import Poly, PrimeField
from test_algebra import poly_coeff, poly_shift, poly_truncate
from test_autoseq import total_degree

F2 = PrimeField(2)
F3 = PrimeField(3)
PATTERN_3_2_4 = autoseq.pattern(3, 2, 4)


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
    """The profile through the array form and the int64 ring at any p.

    The ring's int64 form is forced at p = 2 and 3 as ``int64_at_p3``
    forces it, so ``expansion_profile`` picks the array form, and its
    powers are ``_fft_mul`` or slice-update products, not the ``gf2.mul``
    and ``gf3.mul`` products of the code it checks.  It shares the event
    loop with the bit and slice forms; ``row_by_row_profile`` is the
    reference that shares none of it.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring.Ring, "_bits", ring.Ring._arrays)
        mp.setattr(ring.Ring, "_slices", ring.Ring._arrays)
        return expcomp.expansion_profile(prefix, field, d_max)


def _truncated_product(a, b, p):
    """a*b mod t^len(a) mod p, schoolbook, for coefficient lists of one length."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b[:n - i]):
                out[i + k] += x * y
    return [c % p for c in out]


def _shrink(basis, row, p):
    """Echelon basis of {v in span(basis) : row . v = 0}, tops kept.

    The vector of smallest top among those the row does not annihilate
    is the pivot: it is dropped, and its multiples cleared from the
    others, whose tops lie above it and so stay put.  A vector ends at
    its top, so a reduction touches the pivot's columns alone.
    """
    out = []
    pivot = None
    for v in basis:
        s = sum(a * b for a, b in zip(v, row)) % p
        if not s:
            out.append(v)
        elif pivot is None:
            pivot, pivot_inv = v, pow(s, -1, p)
        else:
            c = s * pivot_inv % p
            out.append([(a - c * b) % p for a, b in zip(v, pivot)] + v[len(pivot):])
    return out


def row_by_row_profile(prefix, p, d_max=None):
    """The reference profile: every row built and applied, in Python ints at any p.

    Row k of the condition at total degree D is read off the powers
    G^i mod t^N, each kept reversed and padded (t^e at index N-1-e, then
    N zeros for the negative exponents), so its block for i is one slice
    from N-1-k.  Every row shrinks the basis, and a step of D rebuilds it
    from the unit vectors by rows 0..k.  No residual is kept, no row is
    skipped, the powers are schoolbook products, and nothing of
    ``seqc.ring`` runs: it is independent of ``expansion_profile``.
    """
    n = len(prefix)
    g = list(prefix)
    power = g
    rev = [[0] * (n - 1) + [1] + [0] * n, g[::-1] + [0] * n]

    def row(k, d):
        start = n - 1 - k
        return [a for i in range(d + 1) for a in rev[i][start:start + d - i + 1]]

    def units(d):
        return [[0] * c + [1] for c in range(len(expcomp.monomials(d)))]

    d = 1
    basis = units(d)
    out = []
    nonzero = False
    for k in range(n):
        basis = _shrink(basis, row(k, d), p)
        while not basis and (d_max is None or d < d_max):
            d += 1
            power = _truncated_product(power, g, p)
            rev.append(power[::-1] + [0] * n)
            basis = units(d)
            for r in range(k + 1):
                basis = _shrink(basis, row(r, d), p)
                if not basis:
                    break
        nonzero = nonzero or prefix[k] != 0
        if not nonzero:
            out.append(expcomp.ExpansionResult(k + 1, 0))
        elif basis:
            mons = expcomp.monomials(d)
            witness = tuple((*mons[c], a) for c, a in enumerate(basis[0]) if a)
            out.append(expcomp.ExpansionResult(k + 1, d, witness))
        else:
            out.append(expcomp.ExpansionResult(k + 1, d_max, capped=True))
    return out


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


class TestResultRecord:
    """``ExpansionResult``: its fields, defaults, immutability, hash and repr."""

    R = expcomp.ExpansionResult

    def test_fields_in_order(self):
        assert self.R._fields == ("n", "value", "witness", "capped")
        assert tuple(self.R(3, 1, ((0, 1, 1),), False)) == (3, 1, ((0, 1, 1),), False)
        assert self.R(3, 1, ((0, 1, 1),), False) == (3, 1, ((0, 1, 1),), False)
        n, value, witness, capped = self.R(4, 2, capped=True)
        assert (n, value, witness, capped) == (4, 2, None, True)

    def test_defaults(self):
        res = self.R(5, 2)
        assert (res.witness, res.capped) == (None, False)

    def test_keyword_construction(self):
        res = self.R(7, 8, capped=True)
        assert (res.n, res.value, res.witness, res.capped) == (7, 8, None, True)
        assert self.R(n=1, value=0) == self.R(1, 0)

    @pytest.mark.parametrize("field", ["n", "value", "witness", "capped"])
    def test_fields_cannot_be_assigned(self, field):
        res = self.R(2, 1, ((0, 1, 1), (1, 0, 1)))
        with pytest.raises(AttributeError):
            setattr(res, field, 0)
        assert res == self.R(2, 1, ((0, 1, 1), (1, 0, 1)))

    def test_hashable(self):
        a, b = self.R(2, 1, ((0, 1, 1), (1, 0, 1))), self.R(2, 1, ((0, 1, 1), (1, 0, 1)))
        assert hash(a) == hash(b) and len({a, b, self.R(2, 1)}) == 2

    def test_repr(self):
        assert (repr(self.R(2, 1, ((0, 1, 1), (1, 0, 1))))
                == "ExpansionResult(n=2, value=1, witness=((0, 1, 1), (1, 0, 1)), capped=False)")
        assert repr(self.R(9, 3, capped=True)) == (
            "ExpansionResult(n=9, value=3, witness=None, capped=True)")

    def test_profile_returns_the_record(self):
        res = expcomp.expansion_profile([0, 1, 1], F2)
        assert all(type(r) is self.R for r in res)
        assert res[0] == self.R(1, 0)


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

    def test_uncapped_profiles_pinned(self):
        # digest of the default (uncapped) profile at N=256 of every built-in
        # plus pattern(3,2,4), recorded from the list form at p = 3, before
        # the bit-sliced form took over there
        rows = [(r.n, r.value, r.witness, r.capped)
                for spec in (*autoseq.builtin_specs(), PATTERN_3_2_4)
                for r in expcomp.expansion_profile(autoseq.prefix(spec, 256), spec.field)]
        assert (hashlib.sha256(repr(rows).encode()).hexdigest()
                == "40c16e17b188faaeeb5b415c3eda3bfc79dc6c6c418a5879b2e44ef646bbc80f")

    def test_uncapped_profiles_pinned_at_1024(self):
        # digest of the default profile at N=1024 of every built-in plus
        # pattern(3,2,4), recorded from the row-by-row search before the
        # profile skipped the rows that leave the kernel unchanged
        rows = [(r.n, r.value, r.witness, r.capped)
                for spec in (*autoseq.builtin_specs(), PATTERN_3_2_4)
                for r in expcomp.expansion_profile(autoseq.prefix(spec, 1024), spec.field)]
        assert (hashlib.sha256(repr(rows).encode()).hexdigest()
                == "654fb4c45d4f9793485dbdd86c4d5d7b6c6bff50755b9f243faeedb34de96f61")

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
    # G far shorter than N: every residual ends far below t^N, where the vector starts
    @example(200, 1, None)
    @example(200, 1 | 1 << 9, None)
    def test_random_f2_prefixes(self, n, word, d_max):
        bits = [word >> i & 1 for i in range(n)]
        assert expcomp.expansion_profile(bits, F2, d_max) == list_profile(bits, F2, d_max)


def _bumped(prefix, positions):
    """The F_3 prefix with the symbols at ``positions`` raised by 1."""
    return [(a + 1) % 3 if i in positions else a for i, a in enumerate(prefix)]


def _word(syms):
    """The base-3 number with digit i = syms[i]."""
    return sum(a * 3**i for i, a in enumerate(syms))


SOD3 = autoseq.prefix(autoseq.sum_of_digits(3), 96)


class TestSlicesAgainstLists:
    # words from both strategies: Hypothesis's integers, mostly sparse
    # prefixes, and uniform ones, dense prefixes
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 128),
           st.integers(0, 3**128 - 1) | st.randoms(use_true_random=False).map(
               lambda rng: rng.randrange(3**128)),
           st.sampled_from([3, 8, None]))
    @example(128, random.Random(0).randrange(3**128), None)  # a dense prefix, E_128 = 15
    @example(96, _word(_bumped(SOD3, {40})), None)
    @example(96, _word(_bumped(SOD3, {17, 50, 81})), 8)
    @example(40, 0, None)
    @example(1, 2, 3)
    # G far shorter than N: every residual ends far below t^N, where the vector starts
    @example(128, 2, None)
    @example(128, 1 + 2 * 3**7, None)
    def test_random_f3_prefixes(self, n, word, d_max):
        syms = [word // 3**i % 3 for i in range(n)]
        res = expcomp.expansion_profile(syms, F3, d_max)
        assert res == list_profile(syms, F3, d_max)
        if res[-1].witness is not None:
            assert evaluate_witness(res[-1].witness, syms, F3).is_zero


PRIMES = (2, 3, 5, 2**31 - 1)
D_MAXES = (1, 3, 8, None)


class TestAgainstRowByRow:
    """The profile equals the row-by-row reference at every p, prefix shape and cap."""

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("d_max", D_MAXES)
    def test_seeded_prefixes(self, p, d_max):
        rng = random.Random(p)
        field = PrimeField(p)
        for pref in ([rng.randrange(p) for _ in range(48)],
                     [0] * 9 + [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(30)],
                     [0] * 40):
            assert expcomp.expansion_profile(pref, field, d_max) == row_by_row_profile(pref, p, d_max)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(1, 64), st.integers(0, 64),
           st.randoms(use_true_random=False), st.sampled_from(D_MAXES))
    @example(5, 40, 40, random.Random(0), None)  # all zero
    @example(2**31 - 1, 40, 12, random.Random(1), 3)  # leading zeros, capped
    def test_random_prefixes(self, p, n, zeros, rng, d_max):
        zeros = min(zeros, n)
        pref = [0] * zeros + [rng.randrange(p) for _ in range(n - zeros)]
        assert (expcomp.expansion_profile(pref, PrimeField(p), d_max)
                == row_by_row_profile(pref, p, d_max))


@pytest.mark.parametrize("spec", [autoseq.thue_morse(), autoseq.sum_of_digits(3)],
                         ids=lambda spec: spec.canonical_name)
def test_frobenius_powers_take_no_product(monkeypatch, spec):
    """G^(pm) is G^m spread by t -> t^p: only an exponent prime to p takes a product."""
    module = gf2 if spec.field.p == 2 else gf3
    calls = []
    product = module.mul
    monkeypatch.setattr(module, "mul", lambda a, b: calls.append(1) or product(a, b))
    top = expcomp.expansion_profile(autoseq.prefix(spec, 256), spec.field)[-1].value
    assert len(calls) == sum(1 for i in range(2, top + 1) if i % spec.field.p)


def test_powers_reach_the_forms_as_ring_values(monkeypatch):
    """No power goes through a coefficient tuple on its way to the F_2 or F_3 form."""
    def refuse(*_args):
        raise AssertionError("expansion_profile read a power back as coefficients")

    prefixes = [(autoseq.prefix(spec, 64), spec.field) for spec in autoseq.builtin_specs()
                if spec.field.p in (2, 3)]
    expected = [expcomp.expansion_profile(pref, field) for pref, field in prefixes]
    monkeypatch.setattr(gf2, "to_bits", refuse)
    monkeypatch.setattr(gf3, "to_coeffs", refuse)
    assert [expcomp.expansion_profile(pref, field) for pref, field in prefixes] == expected


N_BOUNDS = 256
BUILTINS = {spec.canonical_name: spec for spec in autoseq.builtin_specs()}
# the built-ins and one odd-p pattern
BOUND_SPECS = {**BUILTINS, PATTERN_3_2_4.canonical_name: PATTERN_3_2_4}


@functools.cache
def default_profile(name):
    """(results, deg h, L profile) at N_BOUNDS under the default d_max."""
    spec = BOUND_SPECS[name]
    pref = autoseq.prefix(spec, N_BOUNDS)
    return (expcomp.expansion_profile(pref, spec.field), total_degree(autoseq.witness(spec)),
            list(lincomp.bm_profile(pref, spec.field).values))


class TestWitnessBounds:
    """E_N <= deg h, since h(G, t) = 0 exactly, and E_N <= L(N) + 1
    (Mérai–Niederreiter–Winterhof, Cryptogr. Commun. 2017), uncapped."""

    @pytest.mark.parametrize("name", sorted(BOUND_SPECS))
    def test_uncapped_within_both_bounds(self, name):
        res, hdeg, lin = default_profile(name)
        assert not any(r.capped for r in res)
        assert bound_violation([r.value for r in res], hdeg, lin) is None
        # every one has reached its witness degree by N = 256
        assert res[-1].value == hdeg

    def test_pattern_2_3_7_reaches_11(self):
        res, hdeg, _ = default_profile(autoseq.pattern(2, 3, 7).canonical_name)
        assert res[-1].value == hdeg == 11

    def test_pattern_3_2_4_reaches_14(self):
        res, hdeg, _ = default_profile(PATTERN_3_2_4.canonical_name)
        assert res[-1].value == hdeg == 3 ** 2 + 2 * 3 - 1

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_capped_results_are_the_only_difference(self, name):
        res, _, _ = default_profile(name)
        spec = BUILTINS[name]
        capped = expcomp.expansion_profile(autoseq.prefix(spec, N_BOUNDS), spec.field, d_max=8)
        for a, b in zip(res, capped):
            assert a == b or b.capped

    @pytest.mark.parametrize("name", sorted(BOUND_SPECS))
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
