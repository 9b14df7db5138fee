"""Continued fractions of truncated Laurent series and their certificates."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqc import autoseq, contfrac, gf2, lincomp
from seqc.algebra import LaurentSeries, Poly, PrecisionError, PrimeField

F2 = PrimeField(2)
F3 = PrimeField(3)


def P(field, *coeffs):
    return Poly(field, tuple(coeffs))


def series_for(spec, n):
    return LaurentSeries.from_prefix(autoseq.prefix(spec, n), spec.field)


class TestQuotients:
    def test_thue_morse_quotients_n64(self):
        exp = contfrac.cf_expand(series_for(autoseq.thue_morse(), 64))
        assert exp.quotients[0].is_zero
        assert exp.quotients[1] == P(F2, 1, 1, 1)  # x^2+x+1
        for j in range(2, exp.reliable_count + 1):
            assert exp.quotients[j] == P(F2, 1, 0, 1)  # x^2+1

    def test_rudin_shapiro_quotients_n64(self):
        exp = contfrac.cf_expand(series_for(autoseq.rudin_shapiro(), 64))
        assert exp.quotients[1] == P(F2, 0, 1, 0, 0, 1)  # x^4+x
        for j in range(2, exp.reliable_count + 1):
            if j % 2 == 0:
                assert exp.quotients[j] == P(F2, 1, 0, 1)  # x^2+1
            else:
                assert exp.quotients[j] == P(F2, 1, 0, 0, 0, 1)  # x^4+1

    def test_rational_stream_terminates(self):
        # 1/(x+1) has coefficient stream 1,1,1,...: a single quotient x+1
        r = LaurentSeries.from_prefix([1] * 16, F2)
        exp = contfrac.cf_expand(r)
        assert exp.reliable_count == 1
        assert exp.quotients[1] == P(F2, 1, 1)

    def test_zero_series_rejected(self):
        with pytest.raises(ZeroDivisionError):
            contfrac.cf_expand(LaurentSeries.from_prefix([0, 0], F2))

    def test_quotient_degrees_positive(self):
        exp = contfrac.cf_expand(series_for(autoseq.baum_sweet(), 128))
        assert all(q.degree >= 1 for q in exp.quotients[1:])


class TestConvergents:
    def test_seeds(self):
        exp = contfrac.cf_expand(series_for(autoseq.thue_morse(), 32))
        p0, q0 = exp.convergent(0)
        assert q0 == Poly.one(F2)  # Q_0 = 1
        assert p0.is_zero  # A_0 = 0 for a sequence series

    def test_thue_morse_denominator_degrees(self):
        exp = contfrac.cf_expand(series_for(autoseq.thue_morse(), 64))
        for j in range(1, exp.degree_count + 1):
            assert exp.q_degrees[j] == 2 * j

    def test_rudin_shapiro_denominator_degrees(self):
        exp = contfrac.cf_expand(series_for(autoseq.rudin_shapiro(), 64))
        assert exp.q_degrees[1:5] == (4, 6, 10, 12)

    def test_identities_all_builtins(self):
        for spec in autoseq.builtin_specs():
            exp = contfrac.cf_expand(series_for(spec, 256))
            assert contfrac.check_convergent_identities(exp) is None

    def test_identities_with_polynomial_part(self):
        # A_0 != 0: (P_0, Q_0) = (A_0, 1) and G carries A_0 x^N
        for field, stream in ((F2, [1, 0, 1, 1, 0, 0, 1, 0] * 4), (F3, [2, 0, 1, 1, 2] * 6)):
            r = LaurentSeries.from_prefix(stream, field)
            r = r + LaurentSeries.from_poly(P(field, 1, 1, 1), r.low)
            exp = contfrac.cf_expand(r)
            assert not exp.quotients[0].is_zero
            assert contfrac.check_convergent_identities(exp) is None

    def test_approximation_quality(self):
        # v(Q_{j-1} R - P_{j-1}) = -deg Q_j within certified precision
        for spec in (autoseq.thue_morse(), autoseq.sum_of_digits(3)):
            r = series_for(spec, 128)
            exp = contfrac.cf_expand(r)
            for j in range(1, exp.reliable_count + 1):
                pj, qj = exp.convergent(j - 1)
                # polynomials are exact: declare them known to full depth
                diff = (LaurentSeries.from_poly(qj, -128) * r
                        + LaurentSeries.from_poly(-pj, -128))
                assert diff.valuation == -exp.q_degrees[j]


def _bump(poly, field, i):
    """Add 1 to coefficient i of a stored (backend-native) polynomial."""
    if field.p == 2:
        return poly ^ (1 << i)
    out = list(poly) + [0] * (i + 1 - len(poly))
    out[i] = (out[i] + 1) % field.p
    return np.array(out, dtype=np.int64)


def _native_degree(poly):
    return poly.bit_length() - 1 if isinstance(poly, int) else len(poly) - 1


def _random_stream(p, n, seed):
    rng = random.Random(seed)
    return [rng.randrange(p) for _ in range(n)]


CONTROL_STREAMS = {
    "f2 thue-morse": (F2, autoseq.prefix(autoseq.thue_morse(), 96)),
    "f2 random": (F2, _random_stream(2, 96, 5)),
    "f3 sum-of-digits": (F3, autoseq.prefix(autoseq.sum_of_digits(3), 96)),
    "f3 random": (F3, _random_stream(3, 96, 6)),
}


def _control(name):
    field, stream = CONTROL_STREAMS[name]
    return field, stream, contfrac.cf_expand(LaurentSeries.from_prefix(stream, field))


class TestConvergentIdentityControls:
    """Every corruption of a stored expansion must be caught."""

    @pytest.mark.parametrize("name", sorted(CONTROL_STREAMS))
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("which", [0, 1])  # 0: P_j, 1: Q_j
    def test_perturbed_convergent(self, name, where, which):
        field, stream, exp = _control(name)
        last = exp.degree_count
        assert last >= 4
        j = {"first": 1, "middle": last // 2, "last": last}[where]
        pairs = list(exp._raw_pairs)
        pair = list(pairs[j])
        # a coefficient below the leading one, so the degree stays put
        pair[which] = _bump(pair[which], field, _native_degree(pair[which]) // 2)
        pairs[j] = tuple(pair)
        bad = dataclasses.replace(exp, _raw_pairs=tuple(pairs))
        assert contfrac.check_convergent_identities(exp) is None
        assert contfrac.check_convergent_identities(bad) is not None

    @pytest.mark.parametrize("name", sorted(CONTROL_STREAMS))
    @pytest.mark.parametrize("which", [0, 1])
    def test_wrong_seed_pair(self, name, which):
        field, stream, exp = _control(name)
        pair = list(exp._raw_pairs[0])
        pair[which] = _bump(pair[which], field, 0)
        bad = dataclasses.replace(exp, _raw_pairs=(tuple(pair),) + exp._raw_pairs[1:])
        assert contfrac.check_convergent_identities(bad) == 0

    @pytest.mark.parametrize("name", sorted(CONTROL_STREAMS))
    def test_checked_against_flipped_u0(self, name):
        field, stream, exp = _control(name)
        flipped = [(stream[0] + 1) % field.p] + list(stream[1:])
        bad = dataclasses.replace(exp, series=LaurentSeries.from_prefix(flipped, field))
        assert contfrac.check_convergent_identities(bad) == exp.degree_count

    @pytest.mark.parametrize("name", sorted(CONTROL_STREAMS))
    def test_expansion_cut_short(self, name):
        field, stream, exp = _control(name)
        bad = dataclasses.replace(exp, _raw_pairs=exp._raw_pairs[:-1],
                                  q_degrees=exp.q_degrees[:-1],
                                  quotients=exp.quotients[:exp.degree_count])
        assert contfrac.check_convergent_identities(bad) == exp.degree_count - 1


class TestCertification:
    def test_certified_quotients_are_truncation_stable(self):
        rng = random.Random(7)
        for field in (F2, F3):
            for _ in range(120):
                n = 48 + rng.randrange(48)
                stream = [rng.randrange(field.p) for _ in range(2 * n)]
                if not any(stream[:n]):
                    continue
                full = contfrac.cf_expand(LaurentSeries.from_prefix(stream, field))
                half = contfrac.cf_expand(LaurentSeries.from_prefix(stream[:n], field))
                for j in range(1, min(half.reliable_count, full.reliable_count) + 1):
                    assert half.quotients[j] == full.quotients[j]

    def test_degree_certification_extends_past_values(self):
        rng = random.Random(8)
        for _ in range(120):
            n = 48 + rng.randrange(48)
            stream = [rng.randrange(2) for _ in range(2 * n)]
            if not any(stream[:n]):
                continue
            full = contfrac.cf_expand(LaurentSeries.from_prefix(stream, F2))
            half = contfrac.cf_expand(LaurentSeries.from_prefix(stream[:n], F2))
            upto = min(half.degree_count, full.degree_count) + 1
            assert half.q_degrees[:upto] == full.q_degrees[:upto]

    def test_reliability_thresholds(self):
        exp = contfrac.cf_expand(series_for(autoseq.rudin_shapiro(), 256))
        n = 256
        degs = exp.q_degrees
        rc = exp.reliable_count
        assert 2 * degs[rc] <= n
        if rc + 1 <= exp.degree_count:
            assert 2 * degs[rc + 1] > n
        dc = exp.degree_count
        assert degs[dc - 1] + degs[dc] <= n


class TestProfileFromCF:
    def test_thue_morse_n12(self):
        prof = contfrac.profile_from_cf(series_for(autoseq.thue_morse(), 12), 12)
        assert list(prof) == [0, 2, 2, 2, 2, 4, 4, 4, 4, 6, 6, 6]

    def test_perfect_profile(self):
        prof = contfrac.profile_from_cf(series_for(autoseq.perfect_profile(), 64), 64)
        assert all(prof.at(n) == (n + 1) // 2 for n in range(1, 65))

    def test_all_zero_prefix(self):
        r = LaurentSeries.from_prefix([0] * 16, F2)
        prof = contfrac.profile_from_cf(r, 16)
        assert list(prof) == [0] * 16

    def test_insufficient_precision_raises(self):
        r = series_for(autoseq.thue_morse(), 8)
        with pytest.raises(PrecisionError):
            contfrac.profile_from_cf(r, 16)
        with pytest.raises(PrecisionError):
            contfrac.profile_from_expansion(contfrac.cf_expand(r), 16)

    def test_from_expansion_matches_from_series(self):
        for spec in autoseq.builtin_specs():
            r = series_for(spec, 128)
            exp = contfrac.cf_expand(r)
            for n in (1, 77, 128):
                assert contfrac.profile_from_expansion(exp, n) == contfrac.profile_from_cf(r, n)

    def test_matches_bm_on_builtins(self):
        for spec in autoseq.builtin_specs():
            pref = autoseq.prefix(spec, 256)
            bm = lincomp.bm_profile(pref, spec.field)
            cf = contfrac.profile_from_cf(
                LaurentSeries.from_prefix(pref, spec.field), 256)
            assert list(bm) == list(cf), spec.canonical_name


class TestSeriesRecursionPath:
    def test_agrees_with_euclid_thue_morse(self):
        r = series_for(autoseq.thue_morse(), 96)
        euclid = contfrac.cf_expand(r)
        series = contfrac.cf_expand_series(r)
        n = min(len(series), euclid.reliable_count + 1)
        assert series[:n] == list(euclid.quotients[:n])

    def test_agrees_with_euclid_random(self):
        rng = random.Random(21)
        for field in (F2, F3):
            for _ in range(40):
                stream = [rng.randrange(field.p) for _ in range(80)]
                if not any(stream):
                    continue
                r = LaurentSeries.from_prefix(stream, field)
                euclid = contfrac.cf_expand(r)
                series = contfrac.cf_expand_series(r)
                n = min(len(series), euclid.reliable_count + 1)
                assert series[:n] == list(euclid.quotients[:n])


class TestQCongruences:
    def test_thue_morse_k1(self):
        exp = contfrac.cf_expand(series_for(autoseq.thue_morse(), 128))
        rep = contfrac.q_congruences(exp, 1)
        assert rep.ok
        # Q_j = 1 mod x+1 means Q_j(1) = 1
        for j in range(exp.reliable_count + 1):
            _, q = exp.convergent(j)
            assert q.evaluate(1) == 1

    def test_rudin_shapiro_k2(self):
        exp = contfrac.cf_expand(series_for(autoseq.rudin_shapiro(), 128))
        rep = contfrac.q_congruences(exp, 2)
        assert rep.ok
        # odd index: Q_1 = x+1 mod x^2+1
        _, q1 = exp.convergent(1)
        _, rem = divmod(q1, P(F2, 1, 0, 1))
        assert rem == P(F2, 1, 1)

    @pytest.mark.parametrize("k, spec", [(1, autoseq.thue_morse()), (2, autoseq.rudin_shapiro())])
    def test_flipped_q_coefficient_fails(self, k, spec):
        exp = contfrac.cf_expand(series_for(spec, 128))
        j = exp.reliable_count // 2
        pairs = list(exp._raw_pairs)
        pj, qj = pairs[j]
        pairs[j] = (pj, qj ^ (1 << (gf2.degree(qj) // 2)))
        rep = contfrac.q_congruences(dataclasses.replace(exp, _raw_pairs=tuple(pairs)), k)
        assert not rep.ok
        assert rep.congruence_failures[0][0] == j

    def test_reconstruction_lemma_hand_case(self):
        # Q = x^2+1, k = 2: bucket parities of Q * U^4 give back Q mod x^4+1
        u4 = LaurentSeries(F2, 0, tuple(1 if i % 4 == 0 else 0 for i in range(17)), -16)
        q = LaurentSeries.from_poly(P(F2, 1, 0, 1), -16)
        prod = q * u4
        b = [prod.coeff(-i) for i in range(1, 5)]
        recon = sum(b[i - 1] << (4 - i) for i in range(1, 5))
        assert recon == 0b101  # x^2+1

    def test_requires_f2(self):
        exp = contfrac.cf_expand(series_for(autoseq.sum_of_digits(3), 64))
        with pytest.raises(ValueError):
            contfrac.q_congruences(exp, 1)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=64))
@settings(max_examples=80)
def test_cf_profile_equals_bm_profile(xs):
    bm = lincomp.bm_profile(xs, F2)
    cf = contfrac.profile_from_cf(LaurentSeries.from_prefix(xs, F2), len(xs))
    assert list(bm) == list(cf)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=48))
@settings(max_examples=60)
def test_convergent_identities_random_f3(xs):
    if not any(xs):
        return
    exp = contfrac.cf_expand(LaurentSeries.from_prefix(xs, F3))
    assert contfrac.check_convergent_identities(exp) is None


@given(st.integers(min_value=0, max_value=(1 << 300) - 1), st.sampled_from([1, 2, 3, 4, 8, 16]))
def test_fold_mod_equals_division(q, w):
    assert gf2.fold_mod(q, w) == gf2.divmod_(q, (1 << w) | 1)[1]
