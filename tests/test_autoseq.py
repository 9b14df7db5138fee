"""Sequence generators, pattern-count oracle, and algebraic witnesses."""

import pytest
from hypothesis import given, strategies as st

from seqc import autoseq
from seqc.algebra import PrimeField
from seqc.autoseq import Profile


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


class TestTerm:
    def test_thue_morse_first8(self):
        spec = autoseq.thue_morse()
        assert [autoseq.term(spec, n) for n in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_rudin_shapiro_first8(self):
        spec = autoseq.rudin_shapiro()
        assert [autoseq.term(spec, n) for n in range(8)] == [0, 0, 0, 1, 0, 0, 1, 0]

    def test_baum_sweet_first8(self):
        spec = autoseq.baum_sweet()
        assert [autoseq.term(spec, n) for n in range(8)] == [1, 1, 0, 1, 1, 0, 0, 1]

    def test_sum_of_digits_mod3_first9(self):
        spec = autoseq.sum_of_digits(3)
        assert [autoseq.term(spec, n) for n in range(9)] == [0, 1, 2, 1, 2, 0, 2, 0, 1]

    def test_perfect_profile_first8(self):
        spec = autoseq.perfect_profile()
        assert [autoseq.term(spec, n) for n in range(8)] == [1, 0, 1, 1, 1, 0, 1, 0]

    def test_paper_folding_first8(self):
        spec = autoseq.paper_folding(1)
        assert [autoseq.term(spec, n) for n in range(8)] == [1, 1, 1, 0, 1, 1, 0, 0]


class TestPrefix:
    def test_matches_term(self):
        for spec in autoseq.builtin_specs():
            pref = autoseq.prefix(spec, 64)
            assert pref == [autoseq.term(spec, n) for n in range(64)]

    def test_single(self):
        for spec in autoseq.builtin_specs():
            assert autoseq.prefix(spec, 1) == [autoseq.term(spec, 0)]

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
                assert autoseq.term(spec, n) == pattern_count_oracle(p, pat, n) % p

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
        assert w.total_degree == 4

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
        Profile((0, 2, 2, 2, 2, 4)).validate()

    def test_validate_rejects_decrease(self):
        with pytest.raises(ValueError):
            Profile((2, 1)).validate()

    def test_validate_rejects_illegal_jump(self):
        # once L > N/2 a jump must land at N + 1 - L_old
        with pytest.raises(ValueError):
            Profile((0, 2, 3)).validate()


@given(st.integers(min_value=0, max_value=2 ** 20 - 1))
def test_thue_morse_is_binary_digit_sum(n):
    spec = autoseq.thue_morse()
    assert autoseq.term(spec, n) == bin(n).count("1") % 2


@given(st.integers(min_value=0, max_value=2 ** 16 - 1), st.integers(min_value=2, max_value=7))
def test_sum_of_digits_matches_base_p_expansion(n, pidx):
    p = [2, 3, 5, 7, 11, 13][pidx - 2]
    spec = autoseq.sum_of_digits(p)
    total, v = 0, n
    while v:
        total += v % p
        v //= p
    assert autoseq.term(spec, n) == total % p


@given(st.integers(min_value=0, max_value=2 ** 16 - 1))
def test_rudin_shapiro_counts_adjacent_ones(n):
    spec = autoseq.rudin_shapiro()
    b = bin(n)[2:]
    count = sum(1 for i in range(len(b) - 1) if b[i] == b[i + 1] == "1")
    assert autoseq.term(spec, n) == count % 2


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
    assert autoseq.term(spec, n - 1) == want[-1]
