"""Sequence generators, pattern-count oracle, algebraic witnesses and profiles."""

import pytest
from hypothesis import given, strategies as st

from seqc import autoseq
from seqc.algebra import PrimeField
from seqc.autoseq import Profile


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

    def test_rejects_a_wrong_m(self):
        w = autoseq.witness(autoseq.pattern(2, 3, 7))
        assert autoseq.AlgebraicWitness(w.field, w.h_coeffs, w.m) == w
        for m in (w.m - 1, w.m + 1):
            with pytest.raises(ValueError, match="stored M disagrees"):
                autoseq.AlgebraicWitness(w.field, w.h_coeffs, m)

    def test_built_once(self):
        assert autoseq.witness(autoseq.thue_morse()) is autoseq.witness(autoseq.pattern(2, 1, 1))

    def test_pattern_witness_m(self):
        # M = p^k - 1 for the pattern witness
        for p, k, a in ((2, 2, 3), (2, 3, 7), (3, 2, 4)):
            w = autoseq.witness(autoseq.pattern(p, k, a))
            assert w.d == p
            assert w.m == p ** k - 1

    def test_residual_vanishes(self):
        for spec in autoseq.builtin_specs():
            w = autoseq.witness(spec)
            assert autoseq.witness_residual(w, autoseq.prefix(spec, 64), 64).is_zero

    def test_residual_single_coeff(self):
        for spec in autoseq.builtin_specs():
            w = autoseq.witness(spec)
            assert autoseq.witness_residual(w, autoseq.prefix(spec, 1), 1).is_zero

    def test_residual_detects_corruption(self):
        spec = autoseq.thue_morse()
        pref = autoseq.prefix(spec, 64)
        pref[13] ^= 1
        w = autoseq.witness(spec)
        assert not autoseq.witness_residual(w, pref, 64).is_zero


class TestProfile:
    def test_at_is_one_indexed(self):
        prof = Profile((0, 2, 2))
        assert prof.at(1) == 0
        assert prof.at(3) == 2

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
