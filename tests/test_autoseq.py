"""Sequence generators, pattern-count oracle, algebraic witnesses and profiles."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from seqc import autoseq, cli, lincomp, theory
from seqc.algebra import Poly, PrimeField
from seqc.autoseq import AlgebraicWitness, Profile


def total_degree(w) -> int:
    """max_i (deg h_i + i): the total degree of h(s, t)."""
    return max(int(h.degree) + i for i, h in enumerate(w.h_coeffs) if not h.is_zero)


def validate_profile(profile):
    """Check the jump rule of a linear complexity profile at every N, from L(0) = 0.

    L(N) = L(N-1), or L(N) = N - L(N-1) > L(N-1): a profile moves only
    up, and only by a jump to N - L(N-1).  Hence 0 <= L(N) <= N and the
    profile never decreases.
    """
    prev = 0
    for n, v in enumerate(profile.values, start=1):
        if v != prev and not (v == n - prev > prev):
            raise ValueError(f"jump rule violated at N={n}: L({n})={v} after L({n - 1})={prev}")
        prev = v


def pattern_count_oracle(p: int, digits, n: int) -> int:
    """Occurrences of the digit block ``digits`` in the base-p expansion of n.

    ``digits`` may be a string of digit characters or a sequence of ints.
    Patterns with a leading zero digit are rejected: the count at the
    most-significant end is ambiguous there and the recurrence is the
    normative definition.
    """
    if isinstance(digits, str):
        digits = tuple(int(ch) for ch in digits)
    else:
        digits = tuple(digits)
    if not digits:
        raise ValueError("empty pattern")
    if any(not (0 <= d < p) for d in digits):
        raise ValueError("pattern digit outside base")
    if digits[0] == 0:
        raise ValueError("pattern with leading zero digit is not supported")
    if n < 0:
        raise ValueError("index must be >= 0")
    rep = []
    while n:
        rep.append(n % p)
        n //= p
    rep.reverse()
    k = len(digits)
    return sum(1 for i in range(len(rep) - k + 1) if tuple(rep[i:i + k]) == digits)


def term(spec, n: int) -> int:
    """u_n of a built-in spec by digit peeling, from its definition, for one n.

    The reference for ``autoseq.prefix``, which fills a whole prefix from
    recurrences instead.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    kind = spec.kind
    if kind == autoseq.PATTERN:
        # p^k is cut to p^(bit length of n), which exceeds n: i mod p^k == a then reads i == a
        p, pk, a = spec.p, spec.p ** min(spec.k, n.bit_length()), spec.a
        count = 0
        while n:
            if n % pk == a:
                count += 1
            n //= p
        return count % p
    if kind == autoseq.SUM_OF_DIGITS:
        k = spec.p
        s = 0
        while n:
            s += n % k
            n //= k
        return s % k
    if kind == autoseq.BAUM_SWEET:
        if n == 0:
            return 1
        while True:
            while n % 4 == 0:
                n //= 4
            if n % 2 == 0:
                return 0
            n = (n - 1) // 2
            if n == 0:
                return 1
    if kind == autoseq.PAPER_FOLDING:
        if n == 0:
            return spec.v0
        while n % 2 == 0:
            n //= 2
        return 1 if n % 4 == 1 else 0
    # perfect-profile: w_{2n} = 1, w_{2n+1} = w_n + 1
    flips = 0
    while n % 2 == 1:
        flips += 1
        n = (n - 1) // 2
    return (1 + flips) % 2


class TestTerm:
    def test_thue_morse_first8(self):
        spec = autoseq.thue_morse()
        assert [term(spec, n) for n in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_rudin_shapiro_first8(self):
        spec = autoseq.rudin_shapiro()
        assert [term(spec, n) for n in range(8)] == [0, 0, 0, 1, 0, 0, 1, 0]

    def test_baum_sweet_first8(self):
        spec = autoseq.baum_sweet()
        assert [term(spec, n) for n in range(8)] == [1, 1, 0, 1, 1, 0, 0, 1]

    def test_sum_of_digits_mod3_first9(self):
        spec = autoseq.sum_of_digits(3)
        assert [term(spec, n) for n in range(9)] == [0, 1, 2, 1, 2, 0, 2, 0, 1]

    def test_perfect_profile_first8(self):
        spec = autoseq.perfect_profile()
        assert [term(spec, n) for n in range(8)] == [1, 0, 1, 1, 1, 0, 1, 0]

    def test_paper_folding_first8(self):
        spec = autoseq.paper_folding(1)
        assert [term(spec, n) for n in range(8)] == [1, 1, 1, 0, 1, 1, 0, 0]


class TestPrefix:
    def test_matches_term(self):
        for spec in (*autoseq.builtin_specs(), autoseq.paper_folding(0)):
            for n in (1, 2, 3, 64, 1025, 4097):
                assert autoseq.prefix(spec, n) == [term(spec, i) for i in range(n)]

    def test_single(self):
        for spec in autoseq.builtin_specs():
            assert autoseq.prefix(spec, 1) == [term(spec, 0)]

    def test_bad_length(self):
        with pytest.raises(ValueError):
            autoseq.prefix(autoseq.thue_morse(), 0)


class TestPatternCountOracle:
    def test_paper_values(self):
        assert pattern_count_oracle(2, "11", 7) == 2
        assert pattern_count_oracle(2, "101", 21) == 2
        assert pattern_count_oracle(2, "11", 9) == 0

    def test_agrees_with_generator(self):
        # r_n = e_P(n) mod p for the pattern a written in base p with k digits
        for p, k, a in ((2, 1, 1), (2, 2, 3), (2, 3, 7), (3, 2, 4), (3, 2, 8)):
            spec = autoseq.pattern(p, k, a)
            digits = []
            v = a
            for _ in range(k):
                digits.append(v % p)
                v //= p
            pat = "".join(str(d) for d in reversed(digits))
            for n in range(200):
                assert term(spec, n) == pattern_count_oracle(p, pat, n) % p

    def test_rejects_leading_zero(self):
        with pytest.raises(ValueError):
            pattern_count_oracle(2, "011", 7)


class TestSpecs:
    def test_canonical_names(self):
        assert autoseq.thue_morse().canonical_name == "thue-morse"
        assert autoseq.rudin_shapiro().canonical_name == "rudin-shapiro"
        assert autoseq.pattern(2, 3, 7).canonical_name == "pattern(p=2,k=3,a=7)"

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            autoseq.pattern(2, 2, 4)  # a must satisfy 0 < a < p^k
        with pytest.raises(ValueError):
            autoseq.pattern(4, 1, 1)  # p must be prime

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="v0 must be an F_2 element"):
            autoseq.SequenceSpec(autoseq.PAPER_FOLDING, v0=2)
        with pytest.raises(ValueError, match="unknown sequence kind: fibonacci"):
            autoseq.SequenceSpec("fibonacci")

    def test_all_one_pattern_flag(self):
        assert autoseq.pattern(2, 3, 7).is_all_one_pattern
        assert not autoseq.pattern(2, 3, 5).is_all_one_pattern
        assert not autoseq.sum_of_digits(3).is_all_one_pattern
        assert not autoseq.pattern(2, 4, 7).is_all_one_pattern
        assert not autoseq.pattern(2, 10**8, 1).is_all_one_pattern


class TestWitness:
    def test_thue_morse_witness_shape(self):
        w = autoseq.witness(autoseq.thue_morse())
        assert w.d == 2
        assert w.m == 1

    def test_baum_sweet_witness_shape(self):
        w = autoseq.witness(autoseq.baum_sweet())
        assert w.d == 3
        assert w.m == 0

    def test_perfect_profile_witness_shape(self):
        w = autoseq.witness(autoseq.perfect_profile())
        assert w.d == 2
        assert w.m == 0
        assert total_degree(w) == 4

    def test_built_once(self):
        assert autoseq.witness(autoseq.thue_morse()) is autoseq.witness(autoseq.pattern(2, 1, 1))

    @pytest.mark.parametrize("h", [(), (Poly(PrimeField(2), (1,)), Poly(PrimeField(2), ()))])
    def test_rejects_zero_leading_coefficient(self, h):
        with pytest.raises(ValueError, match="leading coefficient h_d must be nonzero"):
            AlgebraicWitness(PrimeField(2), h)

    def test_pattern_witness_m(self):
        # M = p^k - 1 for the pattern witness
        for p, k, a in ((2, 2, 3), (2, 3, 7), (3, 2, 4)):
            w = autoseq.witness(autoseq.pattern(p, k, a))
            assert w.d == p
            assert w.m == p ** k - 1

    def test_residual_vanishes(self):
        for spec in autoseq.builtin_specs():
            w = autoseq.witness(spec)
            assert autoseq.witness_residual(w, autoseq.prefix(spec, 64)).is_zero

    def test_residual_single_coeff(self):
        for spec in autoseq.builtin_specs():
            w = autoseq.witness(spec)
            assert autoseq.witness_residual(w, autoseq.prefix(spec, 1)).is_zero

    def test_residual_detects_corruption(self):
        spec = autoseq.thue_morse()
        pref = autoseq.prefix(spec, 64)
        pref[13] ^= 1
        w = autoseq.witness(spec)
        assert not autoseq.witness_residual(w, pref).is_zero

    @pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
    @pytest.mark.parametrize("bad", ["p", -1, 1.5], ids=["p", "minus-one", "float"])
    def test_residual_rejects_what_validate_symbols_rejects(self, p, bad):
        # read mod p, a symbol p + u counted as u: Thue-Morse with one symbol
        # raised by 2 had a zero residual while ``bm_profile`` refused it
        field = PrimeField(p)
        w = AlgebraicWitness(field, (Poly.x(field), Poly.one(field), Poly.one(field)))
        pref = [0, 1, 0, 1, 1]
        pref[3] = p if bad == "p" else bad
        with pytest.raises(ValueError) as want:
            field.validate_symbols(pref)
        with pytest.raises(ValueError) as got:
            autoseq.witness_residual(w, pref)
        assert str(got.value) == str(want.value)
        autoseq.witness_residual(w, pref[:3])  # the symbols before the bad one pass

    def test_residual_rejects_empty_prefix(self):
        with pytest.raises(ValueError, match="at least one symbol"):
            autoseq.witness_residual(autoseq.witness(autoseq.thue_morse()), [])


def _power(f, e):
    """f^e by e - 1 multiplications, the plain definition of a power."""
    out = f
    for _ in range(e - 1):
        out = out * f
    return out


def product_form(spec):
    """h_0, h_1 and h_p of the witness as products of powers of t - 1 and 1 - t."""
    field, p = spec.field, spec.p
    t, one = Poly.x(field), Poly.one(field)
    if spec.kind == autoseq.PATTERN:
        # (t-1)^(p^k + p - 1) s^p - (t-1)^(p^k) s - t^a
        pk = p ** spec.k
        return -Poly.monomial(field, spec.a), -_power(t - one, pk), _power(t - one, pk + p - 1)
    # (1-t)^(p+1) s^p - (1-t)^2 s + t
    return t, -_power(one - t, 2), _power(one - t, p + 1)


@st.composite
def closed_form_specs(draw):
    """pattern(p, k, a) for p <= 7, k <= 3 and every valid a, or sum-of-digits(p <= 31)."""
    if draw(st.booleans()):
        p, k = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 3))
        return autoseq.pattern(p, k, draw(st.integers(1, p ** k - 1)))
    return autoseq.sum_of_digits(draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])))


@settings(max_examples=60, deadline=None)
@given(closed_form_specs(), st.data())
def test_closed_form_witness_equals_the_product_form(spec, data):
    """(t-1)^(p^k) = t^(p^k) - 1 and (t-1)^(p-1) = 1 + t + ... + t^(p-1) over F_p: the
    witness written by its coefficients equals the one built by products.  As a control,
    one coefficient of h_p moved breaks that equality and the verifier's residual_zero."""
    w = autoseq.witness(spec)
    p = spec.p
    h = list(w.h_coeffs)
    assert (h[0], h[1], h[p]) == product_form(spec)
    assert all(c.is_zero for c in h[2:p])

    j = data.draw(st.integers(0, len(h[p].coeffs) - 1))
    moved = list(h[p].coeffs)
    moved[j] += data.draw(st.integers(1, p - 1))
    h[p] = Poly(spec.field, tuple(moved))
    assert h[p] != product_form(spec)[2]
    # the first nonzero symbol is u_i for some i <= a (a = 1 for sum-of-digits), so the
    # moved term c t^j G(t^p) reaches below t^n
    n = p * (spec.a + 1) + len(moved)
    bent = AlgebraicWitness(spec.field, tuple(h))
    with mock.patch.object(autoseq, "witness", lambda _spec: bent):
        checks = {c.name: c for c in theory.verify(spec, n).checks}
    assert not checks["residual_zero"].passed


def test_runs_without_poly_arithmetic(monkeypatch, capsys):
    """Witnesses, the verifier and the CLI compute in ``ring.Ring``: no ``Poly`` sum,
    difference, negation, product or division runs."""
    def refuse(*_args):
        raise AssertionError("Poly arithmetic ran")

    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__divmod__"):
        monkeypatch.setattr(Poly, name, refuse)
    autoseq.witness.cache_clear()
    assert all(report.ok for report in theory.verify_suite(256))
    for argv in (["profile", "--seq", "pattern", "--p", "3", "--k", "2", "--a", "4",
                  "--n-max", "256"],
                 ["profile", "--seq", "sum-of-digits", "--p", "5", "--n-max", "256"],
                 ["expansion", "--seq", "sum-of-digits", "--p", "3", "--n", "64"],
                 ["verify", "--seq", "pattern", "--p", "5", "--k", "2", "--a", "7",
                  "--n-max", "256"]):
        assert cli.main(argv) == 0, capsys.readouterr().err


class TestProfile:
    def test_at_is_one_indexed(self):
        prof = Profile((0, 2, 2))
        assert prof.at(1) == 0
        assert prof.at(3) == 2

    @pytest.mark.parametrize("n", [0, -1, 9])
    def test_at_outside_range_raises(self, n):
        prof = lincomp.bm_profile(autoseq.prefix(autoseq.thue_morse(), 8), PrimeField(2))
        assert prof.at(8) == 4
        with pytest.raises(IndexError, match=r"outside \[1, 8\]"):
            prof.at(n)

    def test_validate_accepts_legal_profile(self):
        validate_profile(Profile((0, 2, 2, 2, 2, 4)))

    def test_validate_rejects_decrease(self):
        with pytest.raises(ValueError):
            validate_profile(Profile((2, 1)))

    def test_validate_rejects_illegal_jump(self):
        # once L > N/2 a jump must land at N + 1 - L_old; and a jump must
        # reach N - L_old: L(1) = 0 forces L(2) in {0, 2}
        for values in ((0, 2, 3), (0, 1), (0, 0, 2), (1, 1, 1, 2)):
            with pytest.raises(ValueError, match="jump rule"):
                validate_profile(Profile(values))


@given(st.integers(min_value=0, max_value=2 ** 20 - 1))
def test_thue_morse_is_binary_digit_sum(n):
    spec = autoseq.thue_morse()
    assert term(spec, n) == bin(n).count("1") % 2


@given(st.integers(min_value=0, max_value=2 ** 16 - 1), st.integers(min_value=2, max_value=7))
def test_sum_of_digits_matches_base_p_expansion(n, pidx):
    p = [2, 3, 5, 7, 11, 13][pidx - 2]
    spec = autoseq.sum_of_digits(p)
    total, v = 0, n
    while v:
        total += v % p
        v //= p
    assert term(spec, n) == total % p


@given(st.integers(min_value=0, max_value=2 ** 16 - 1))
def test_rudin_shapiro_counts_adjacent_ones(n):
    spec = autoseq.rudin_shapiro()
    b = bin(n)[2:]
    count = sum(1 for i in range(len(b) - 1) if b[i] == b[i + 1] == "1")
    assert term(spec, n) == count % 2


def _pattern_term_full_power(p, k, a, n):
    """The pattern recurrence read with the full modulus p^k."""
    count = 0
    while n:
        count += n % p ** k == a
        n //= p
    return count % p


@given(st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=12), st.data())
def test_pattern_terms_match_full_power(p, k, data):
    a = data.draw(st.integers(min_value=1, max_value=p ** k - 1))
    n = data.draw(st.integers(min_value=1, max_value=400))
    spec = autoseq.pattern(p, k, a)
    want = [_pattern_term_full_power(p, k, a, i) for i in range(n)]
    assert autoseq.prefix(spec, n) == want
    assert term(spec, n - 1) == want[-1]
