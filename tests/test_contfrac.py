"""Continued fractions of truncated Laurent series and their certificates."""

import contextlib
import dataclasses
import hashlib
import random
import tracemalloc
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings, strategies as st

from seqc import autoseq, contfrac, gf2, lincomp, ring
from seqc.algebra import LaurentSeries, Poly, PrecisionError, PrimeField
from seqc.autoseq import Profile
from test_algebra import (poly_coeff, poly_evaluate, poly_shift, polynomial_part, series_add,
                          series_coeff, series_from_poly, series_inverse, series_sub)
from test_int64_bound import int64_at_p3, poly_euclid

F2 = PrimeField(2)
F3 = PrimeField(3)
P31 = 2**31 - 1


def P(field, *coeffs):
    return Poly(field, tuple(coeffs))


def series_for(spec, n):
    return LaurentSeries.from_prefix(autoseq.prefix(spec, n), spec.field)


def cf_expand_series(r: LaurentSeries):
    """Partial quotients via the Pol/inverse recursion on truncated series.

    Secondary differential-testing path: stops when the remaining precision
    can no longer support another polynomial part.  Returns the quotient
    list (A_0 first); the zero series gives [0].
    """
    quots = [polynomial_part(r)]
    b = series_sub(r, series_from_poly(quots[0], r.low))
    while not b.is_zero:
        inv = series_inverse(b)
        try:
            a = polynomial_part(inv)
        except PrecisionError:
            break
        if a.degree < 1:
            break  # truncation noise: a true partial quotient has degree >= 1
        quots.append(a)
        b = series_sub(inv, series_from_poly(a, inv.low))
    return quots


def profile_walk_oracle(expansion, n_max):
    """``profile_from_expansion``'s former body: one step of the walk per N."""
    degs = expansion.q_degrees
    vals = []
    j = 0
    for n in range(1, n_max + 1):
        while j + 1 < len(degs) and degs[j] + degs[j + 1] <= n:
            j += 1
        vals.append(degs[j])
    return Profile(tuple(vals))


def q_congruences_oracle(expansion, k):
    """``q_congruences``' former body: each full Q_j from the recurrence, then folded."""
    width = 1 << (k - 1)
    cong_fail = []
    denominators = islice(contfrac._denominators(expansion), expansion.reliable_count + 1)
    for j, q in enumerate(denominators):
        expected = 1 if (k == 1 or j % 2 == 0) else 0b11
        actual = gf2.fold_mod(q, width)
        if actual != expected:
            cong_fail.append((j, expected, actual))
    return tuple(cong_fail)


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
            r = series_add(r, series_from_poly(P(field, 1, 1, 1), r.low))
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
                diff = series_add(series_from_poly(qj, -128) * r, series_from_poly(-pj, -128))
                assert diff.valuation == -exp.q_degrees[j]


def _to_poly(a, field):
    """A stored polynomial, in the ring form in force, as Poly."""
    return ring.Ring(field).to_poly(a)


def _stored(poly, field):
    """A Poly in the ring form in force."""
    return ring.Ring(field).from_coeffs(poly.coeffs)


def _bump(a, field, i):
    """Add 1 to coefficient i of a stored polynomial."""
    return _stored(_to_poly(a, field) + Poly.monomial(field, i), field)


def _native_degree(a, field):
    return ring.Ring(field).degree(a)


def _forms(p):
    """The ring forms a test at p runs in: at p = 3 gf3's slices and the int64 arrays."""
    return (contextlib.nullcontext, int64_at_p3) if p == 3 else (contextlib.nullcontext,)


def _random_stream(p, n, seed):
    rng = random.Random(seed)
    return [rng.randrange(p) for _ in range(n)]


CONTROL_STREAMS = {
    "f2 thue-morse": (F2, autoseq.prefix(autoseq.thue_morse(), 96)),
    "f2 random": (F2, _random_stream(2, 96, 5)),
    "f3 sum-of-digits": (F3, autoseq.prefix(autoseq.sum_of_digits(3), 96)),
    "f3 random": (F3, _random_stream(3, 96, 6)),
    "f2147483647 random": (PrimeField(2**31 - 1), _random_stream(2**31 - 1, 96, 7)),
    # 1024 symbols: quotients of degree up to 242
    "f3 long sum-of-digits": (F3, autoseq.prefix(autoseq.sum_of_digits(3), 1024)),
}
# the F_3 streams run in the int64 form under their own names, and in
# gf3's slices, the form the field chooses, under these
CONTROL_STREAMS.update({f"{name} (gf3)": CONTROL_STREAMS[name]
                        for name in list(CONTROL_STREAMS) if name.startswith("f3 ")})


@pytest.fixture
def name(request):
    """A CONTROL_STREAMS key, with the ring form it names in force for the test."""
    with (contextlib.nullcontext if request.param.endswith("(gf3)") else int64_at_p3)():
        yield request.param


def _control(name):
    field, stream = CONTROL_STREAMS[name]
    return field, stream, contfrac.cf_expand(LaurentSeries.from_prefix(stream, field))


def _replaced(seq, j, value):
    return seq[:j] + (value,) + seq[j + 1:]


class TestConvergentIdentityControls:
    """Every corruption of a stored expansion must be caught."""

    @pytest.mark.parametrize("name", sorted(CONTROL_STREAMS), indirect=True)
    @pytest.mark.parametrize("where", ["first", "middle", "last", "longest"])
    @pytest.mark.parametrize("which", [0, 1])  # 0: A_j, 1: deg Q_j
    def test_perturbed_convergent(self, name, where, which):
        # (P_j, Q_j) is rebuilt from A_j; the profile reads deg Q_j
        field, stream, exp = _control(name)
        last = exp.degree_count
        assert last >= 4
        longest = max(range(1, last + 1),
                      key=lambda i: _native_degree(exp.raw_quotients[i], field))
        j = {"first": 1, "middle": last // 2, "last": last, "longest": longest}[where]
        if which == 0:
            # a coefficient below the leading one, so the degree stays put
            a = exp.raw_quotients[j]
            bad = dataclasses.replace(exp, raw_quotients=_replaced(
                exp.raw_quotients, j, _bump(a, field, _native_degree(a, field) // 2)))
        else:
            bad = dataclasses.replace(exp, q_degrees=_replaced(exp.q_degrees, j, exp.q_degrees[j] + 1))
        assert contfrac.check_convergent_identities(exp) is None
        assert contfrac.check_convergent_identities(bad) is not None

    @pytest.mark.parametrize("name", sorted(CONTROL_STREAMS), indirect=True)
    @pytest.mark.parametrize("which", [0, 1])  # 0: A_0 (so P_0), 1: deg Q_0
    def test_wrong_seed_pair(self, name, which):
        field, stream, exp = _control(name)
        if which == 0:
            bad = dataclasses.replace(exp, raw_quotients=_replaced(
                exp.raw_quotients, 0, _bump(exp.raw_quotients[0], field, 0)))
        else:
            bad = dataclasses.replace(exp, q_degrees=_replaced(exp.q_degrees, 0, 1))
        assert contfrac.check_convergent_identities(exp) is None
        assert contfrac.check_convergent_identities(bad) == 0

    @pytest.mark.parametrize("name", sorted(CONTROL_STREAMS), indirect=True)
    def test_checked_against_flipped_u0(self, name):
        field, stream, exp = _control(name)
        flipped = [(stream[0] + 1) % field.p] + list(stream[1:])
        # G = x^N R holds u_i at x^(N-1-i)
        bad = dataclasses.replace(exp, scaled_input=_stored(P(field, *flipped[::-1]), field))
        assert contfrac.check_convergent_identities(exp) is None
        assert contfrac.check_convergent_identities(bad) == exp.degree_count

    @pytest.mark.parametrize("name", sorted(CONTROL_STREAMS), indirect=True)
    def test_expansion_cut_short(self, name):
        field, stream, exp = _control(name)
        bad = dataclasses.replace(exp, raw_quotients=exp.raw_quotients[:-1],
                                  q_degrees=exp.q_degrees[:-1])
        assert contfrac.check_convergent_identities(exp) is None
        assert contfrac.check_convergent_identities(bad) == exp.degree_count - 1

    @pytest.mark.parametrize("name", sorted(CONTROL_STREAMS), indirect=True)
    def test_constant_quotients_fail_the_degree_test(self, name):
        # The quotient matrices of 1, -1, 1 multiply to diag(1, -1), so
        # appending them gives (Q_{J+2}, Q_{J+3}) = (-Q_{J-1}, Q_J): the
        # degrees, the determinant (sign and parity flip together) and the
        # residual all hold.  Only deg A_j >= 1 rejects the expansion.
        field, stream, exp = _control(name)
        last = exp.degree_count
        one, minus_one = _stored(Poly.one(field), field), _stored(P(field, field.p - 1), field)
        degs = exp.q_degrees
        bad = dataclasses.replace(exp, raw_quotients=exp.raw_quotients + (one, minus_one, one),
                                  q_degrees=degs + (degs[-1], degs[-2], degs[-1]))
        assert contfrac.check_convergent_identities(bad) == last + 1

    @staticmethod
    def _negated_fails(exp, field):
        # A_j -> -A_j for j >= 1 gives Q_j -> (-1)^j Q_j, so every deg Q_j
        # holds and, at even J, Q_J itself; P_j = Pol(Q_j R) follows Q_j,
        # so the residual keeps its degree.  Only the sign of the derived
        # determinant P_{J-1} Q_J - P_J Q_{J-1}, now -(-1)^J, rejects it.
        last = exp.degree_count
        assert last % 2 == 0
        negated = (exp.raw_quotients[0],) + tuple(_stored(-_to_poly(a, field), field)
                                                  for a in exp.raw_quotients[1:])
        bad = dataclasses.replace(exp, raw_quotients=negated)
        assert bad.convergent(last) == exp.convergent(last)
        assert contfrac.check_convergent_identities(exp) is None
        assert contfrac.check_convergent_identities(bad) == last

    @pytest.mark.parametrize("name", [n for n in sorted(CONTROL_STREAMS) if n[:3] != "f2 "],
                             indirect=True)
    def test_negated_quotients_fail_the_determinant(self, name):
        field, stream, exp = _control(name)
        self._negated_fails(exp, field)

    @pytest.mark.parametrize("p", [3, P31])
    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_negated_rational_quotients_fail_the_determinant(self, p, count):
        # an exact expansion: the residual is 0 before and after
        field = PrimeField(p)
        rng = random.Random(p + count)
        quots = [Poly(field, tuple(rng.randrange(1, p) for _ in range(rng.randrange(2, 5))))
                 for _ in range(count)]
        for form in _forms(p):
            with form():
                exp = contfrac.cf_expand(LaurentSeries.from_prefix(_rational_prefix(quots, field),
                                                                   field))
                assert exp.degree_count == count
                self._negated_fails(exp, field)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_certificate_and_convergents_read_the_packed_input(p, monkeypatch):
    # cf_expand packs G = x^N R once and the expansion keeps it: with every
    # ring's from_coeffs refusing coefficients, the certificate and the last
    # convergent are what they were
    field = PrimeField(p)
    exp = contfrac.cf_expand(LaurentSeries.from_prefix(_random_stream(p, 96, p), field))
    last = exp.convergent(exp.degree_count)
    build = ring.Ring.__init__

    def no_packing(self, field):
        build(self, field)
        pack = self.from_coeffs

        def from_coeffs(coeffs):
            # _denominators builds Q_{-1} = 0 from no coefficients
            if len(coeffs):
                raise AssertionError("an input was packed again")
            return pack(coeffs)

        self.from_coeffs = from_coeffs

    monkeypatch.setattr(ring.Ring, "__init__", no_packing)
    assert contfrac.check_convergent_identities(exp) is None
    assert exp.convergent(exp.degree_count) == last


class TestZeroSeries:
    """The zero series expands to [0], the continued fraction of 0."""

    @pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_expansion_is_zero_quotient(self, p, n):
        field = PrimeField(p)
        r = LaurentSeries.from_prefix([0] * n, field)
        exp = contfrac.cf_expand(r)
        assert exp.quotients == (Poly.zero(field),)
        assert exp.q_degrees == (0,)
        assert cf_expand_series(r) == [Poly.zero(field)]
        assert contfrac.check_convergent_identities(exp) is None
        assert list(contfrac.profile_from_cf(r, n)) == [0] * n

    @pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
    def test_corrupted_zero_expansion_fails(self, p):
        for form in _forms(p):
            with form():
                self._corrupted_zero_expansion_fails(PrimeField(p))

    @staticmethod
    def _corrupted_zero_expansion_fails(field):
        exp = contfrac.cf_expand(LaurentSeries.from_prefix([0] * 16, field))
        a0 = exp.raw_quotients[0]
        bumped = dataclasses.replace(exp, raw_quotients=(_bump(a0, field, 0),))
        assert contfrac.check_convergent_identities(bumped) == 0
        # A_1 = x with deg Q_1 = 1 passes the degree checks and, as G = 0,
        # the approximation property; the determinant, P_0 Q_1 - P_1 Q_0 = 0
        # with P_1 = Pol(Q_1 R) = 0, rejects it
        appended = dataclasses.replace(exp, raw_quotients=(a0, _bump(a0, field, 1)),
                                       q_degrees=(0, 1))
        assert contfrac.check_convergent_identities(appended) == 1
        # deg Q_1 = 17 > N: P_1 = Pol(Q_1 R) reads all of R, and the
        # certificate answers with an index instead of raising
        past_n = dataclasses.replace(exp, q_degrees=(0, 17, 18), raw_quotients=(
            a0, _bump(a0, field, 17), _bump(a0, field, 1)))
        assert contfrac.check_convergent_identities(past_n) == 2


def _rational_prefix(quotients, field):
    """The first 2 deg Q_J symbols of P_J / Q_J = [0; A_1, ..., A_J]."""
    p_prev, p_cur = Poly.one(field), Poly.zero(field)
    q_prev, q_cur = Poly.zero(field), Poly.one(field)
    for a in quotients:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    n = 2 * q_cur.degree
    head = poly_shift(p_cur, n) // q_cur  # sum of u_{i-1} x^{n-i}, i = 1..n
    return [poly_coeff(head, n - 1 - i) for i in range(n)]


class TestRationalSeries:
    @pytest.mark.parametrize("seed", range(5))
    def test_large_prime_quotients_exact(self, seed):
        # products of coefficients near 2^31 overflow int64 unless reduced in time
        field = PrimeField(P31)
        rng = random.Random(seed)
        quots = [Poly(field, tuple(rng.randrange(P31 - 1000, P31) for _ in range(3)))
                 for _ in range(8)]
        exp = contfrac.cf_expand(LaurentSeries.from_prefix(_rational_prefix(quots, field), field))
        assert contfrac.check_convergent_identities(exp) is None
        assert exp.quotients[1:] == tuple(quots)
        assert exp.q_degrees == tuple(range(0, 17, 2))


_quotient_cases = st.sampled_from([2, 3, 5, P31]).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.lists(st.integers(0, p - 1), min_size=2, max_size=4).filter(lambda c: c[-1]),
             min_size=1, max_size=8),
    st.lists(st.integers(0, p - 1), max_size=3),  # A_0, often nonzero
    st.integers(0, 6)))  # leading zero symbols: R's top below x^-deg Q_j for small j


@given(_quotient_cases)
@settings(max_examples=100, deadline=None)
def test_convergents_match_poly_recurrence(case):
    # convergent(j) reads P_j = Pol(Q_j R) off Q_j; the Poly recurrence
    # P_j = A_j P_{j-1} + P_{j-2} from (P_{-1}, P_0) = (1, A_0) is the reference
    p, coeff_lists, a0, zeros = case
    field = PrimeField(p)
    quots = [Poly(field, tuple(c)) for c in coeff_lists]
    r = LaurentSeries.from_prefix([0] * zeros + _rational_prefix(quots, field), field)
    r = series_add(r, series_from_poly(Poly(field, tuple(a0)), r.low))
    for form in _forms(p):
        with form():
            _check_convergents(r, quots, a0, zeros)


def _check_convergents(r, quots, a0, zeros):
    field = r.field
    exp = contfrac.cf_expand(r)
    if not zeros:
        assert exp.quotients[1:] == tuple(quots)
    prev, cur = (Poly.zero(field), Poly.one(field)), (Poly.one(field), Poly.zero(field))
    for j, a in enumerate(exp.raw_quotients):
        a = _to_poly(a, field)
        prev, cur = cur, (a * cur[0] + prev[0], a * cur[1] + prev[1])
        assert exp.convergent(j) == cur
    assert exp.convergent(0) == (Poly(field, tuple(a0)), Poly.one(field))


def test_profile_memory_grows_linearly():
    # no convergent pair is stored, so peak memory is linear in N
    peaks = []
    for n in (2048, 4096):
        r = LaurentSeries.from_prefix(_random_stream(3, n, 11), F3)
        tracemalloc.start()
        try:
            contfrac.profile_from_cf(r, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3 * peaks[0]


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
        series = cf_expand_series(r)
        n = min(len(series), euclid.reliable_count + 1)
        assert series[:n] == list(euclid.quotients[:n])

    def test_agrees_with_euclid_random(self):
        # each stream also with a polynomial part A_0 of degree 0 to 3 added,
        # which cf_expand reads off G = x^N R by one split
        rng, a0_rng = random.Random(21), random.Random(22)
        for field in (F2, F3, PrimeField(P31)):
            for _ in range(40):
                stream = [rng.randrange(field.p) for _ in range(80)]
                if not any(stream):
                    continue
                r = LaurentSeries.from_prefix(stream, field)
                low = [a0_rng.randrange(field.p) for _ in range(a0_rng.randrange(4))]
                a0 = Poly(field, (*low, a0_rng.randrange(1, field.p)))  # degree 0 to 3
                for r in (r, series_add(r, series_from_poly(a0, r.low))):
                    euclid = contfrac.cf_expand(r)
                    series = cf_expand_series(r)
                    n = min(len(series), euclid.reliable_count + 1)
                    assert series[:n] == list(euclid.quotients[:n])
                assert series[0] == euclid.quotients[0] == a0


def _sha256_bits(n):
    """n bits of the SHA-256 digests of 0, 1, 2, ..., low bit of each byte first."""
    digests = b"".join(hashlib.sha256(i.to_bytes(4, "big")).digest() for i in range(-(-n // 256)))
    return [byte >> k & 1 for byte in digests for k in range(8)][:n]


def _f2_quotients(*bit_lists):
    """F_2 quotients from bit lists, low to high."""
    return [P(F2, *bits) for bits in bit_lists]


# stream, and the constant terms its quotients A_1, ..., A_J take
F2_EUCLID_STREAMS = {
    # x^2 + x + 1, then x^2 + 1
    "thue-morse": (autoseq.prefix(autoseq.thue_morse(), 1024), {1}),
    # about N/2 quotients of degree 1
    "sha256": (_sha256_bits(1024), {0, 1}),
    # [0; A_1, ..., A_J] of degrees 1 to 5
    "constant terms set": (_rational_prefix(_f2_quotients(
        *([1, 1], [1, 0, 1], [1, 1, 0, 1], [1, 0, 0, 1, 1], [1, 1, 1, 0, 0, 1]) * 12), F2), {1}),
    "constant terms clear": (_rational_prefix(_f2_quotients(
        *([0, 1], [0, 1, 1], [0, 0, 1, 1]) * 12), F2), {0}),
}


@pytest.mark.parametrize("name", sorted(F2_EUCLID_STREAMS))
def test_f2_euclid_matches_poly_division(name):
    # each packed Euclid step is gf2.divmod_, which applies a quotient's
    # constant term unshifted; Poly division is the reference
    stream, constant_terms = F2_EUCLID_STREAMS[name]
    exp = contfrac.cf_expand(LaurentSeries.from_prefix(stream, F2))
    ref = poly_euclid(stream, F2)
    assert [Poly(F2, gf2.to_bits(a)) for a in exp.raw_quotients[1:]] == ref
    assert exp.q_degrees == tuple(accumulate((a.degree for a in ref), initial=0))
    assert {a & 1 for a in exp.raw_quotients[1:]} == constant_terms


class TestQCongruences:
    def test_thue_morse_k1(self):
        exp = contfrac.cf_expand(series_for(autoseq.thue_morse(), 128))
        rep = contfrac.q_congruences(exp, 1)
        assert not rep
        # Q_j = 1 mod x+1 means Q_j(1) = 1
        for j in range(exp.reliable_count + 1):
            _, q = exp.convergent(j)
            assert poly_evaluate(q, 1) == 1

    def test_rudin_shapiro_k2(self):
        exp = contfrac.cf_expand(series_for(autoseq.rudin_shapiro(), 128))
        rep = contfrac.q_congruences(exp, 2)
        assert not rep
        # odd index: Q_1 = x+1 mod x^2+1
        _, q1 = exp.convergent(1)
        _, rem = divmod(q1, P(F2, 1, 0, 1))
        assert rem == P(F2, 1, 1)

    @pytest.mark.parametrize("k, spec", [(1, autoseq.thue_morse()), (2, autoseq.rudin_shapiro())])
    def test_flipped_q_coefficient_fails(self, k, spec):
        exp = contfrac.cf_expand(series_for(spec, 128))
        j = exp.reliable_count // 2
        # flipping a non-leading bit of A_j adds x^i Q_{j-1} to Q_j
        aj = exp.raw_quotients[j]
        bad = dataclasses.replace(exp, raw_quotients=_replaced(
            exp.raw_quotients, j, aj ^ (1 << (gf2.degree(aj) // 2))))
        assert not contfrac.q_congruences(exp, k)
        rep = contfrac.q_congruences(bad, k)
        assert rep
        assert rep[0][0] == j

    def test_reconstruction_lemma_hand_case(self):
        # Q = x^2+1, k = 2: bucket parities of Q * U^4 give back Q mod x^4+1
        u4 = LaurentSeries(F2, 0, tuple(1 if i % 4 == 0 else 0 for i in range(17)), -16)
        q = series_from_poly(P(F2, 1, 0, 1), -16)
        prod = q * u4
        b = [series_coeff(prod, -i) for i in range(1, 5)]
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


ALL_ONE_PATTERNS = [(k, autoseq.pattern(2, k, 2 ** k - 1)) for k in (1, 2, 3, 4)]


def _expansion(source, n):
    """The expansion of a built-in's prefix, or of a random F_2 stream from seed ``source``."""
    if isinstance(source, int):
        rng = random.Random(source)
        return contfrac.cf_expand(LaurentSeries.from_prefix(
            [rng.randrange(2) for _ in range(n)], F2))
    return contfrac.cf_expand(series_for(source, n))


class TestProfileWalk:
    def test_n_max_below_the_first_run_end(self):
        exp = contfrac.cf_expand(series_for(autoseq.thue_morse(), 64))
        assert exp.q_degrees[:2] == (0, 2)  # L(1) = 0 and the first run ends at N = 2
        assert list(contfrac.profile_from_expansion(exp, 1)) == [0]
        assert list(contfrac.profile_from_expansion(exp, 2)) == [0, 2]

    def test_zero_series(self):
        exp = contfrac.cf_expand(LaurentSeries.from_prefix([0] * 40, F2))
        assert exp.q_degrees == (0,)
        for n in (1, 17, 40):
            assert contfrac.profile_from_expansion(exp, n) == profile_walk_oracle(exp, n)
            assert list(contfrac.profile_from_expansion(exp, n)) == [0] * n

    def test_runs_share_the_degree_ints(self):
        # one int object per run, not one per N: the profile costs its tuple alone
        exp = contfrac.cf_expand(series_for(autoseq.pattern(2, 4, 15), 4096))
        prof = contfrac.profile_from_expansion(exp, 4096)
        assert len({id(v) for v in prof}) <= len(exp.q_degrees)


@given(st.sampled_from([autoseq.thue_morse(), autoseq.rudin_shapiro(), autoseq.baum_sweet(),
                        autoseq.sum_of_digits(3), 1, 2, 3]),
       st.integers(min_value=1, max_value=160),
       st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                          st.integers(min_value=-4, max_value=4)), min_size=1, max_size=3),
       st.integers(min_value=1, max_value=160))
@settings(max_examples=120, deadline=None)
def test_profile_walk_matches_per_n_walk(source, n, bumps, n_max):
    exp = _expansion(source, n)
    n_max = min(n_max, exp.precision)
    assert contfrac.profile_from_expansion(exp, n_max) == profile_walk_oracle(exp, n_max)
    degs = list(exp.q_degrees)
    for i, delta in bumps:
        degs[i % len(degs)] += delta
    bad = dataclasses.replace(exp, q_degrees=tuple(degs))
    assert contfrac.profile_from_expansion(bad, n_max) == profile_walk_oracle(bad, n_max)


@given(st.sampled_from(ALL_ONE_PATTERNS + [(k, 7) for k in (1, 2, 3)]),
       st.integers(min_value=8, max_value=300),
       st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                          st.integers(min_value=0, max_value=40)), min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_q_congruences_match_full_denominators(case, n, flips):
    k, source = case
    exp = _expansion(source, n)
    assert contfrac.q_congruences(exp, k) == q_congruences_oracle(exp, k)
    quots = list(exp.raw_quotients)
    for i, bit in flips:
        quots[i % len(quots)] ^= 1 << bit
    bad = dataclasses.replace(exp, raw_quotients=tuple(quots))
    assert contfrac.q_congruences(bad, k) == q_congruences_oracle(bad, k)


@pytest.mark.parametrize("k, spec", ALL_ONE_PATTERNS)
def test_flipped_constant_coefficient_fails_q_congruences(k, spec):
    # A_j + 1 adds Q_{j-1} to Q_j, whose residue is 1 or x + 1, never 0
    exp = contfrac.cf_expand(series_for(spec, 2048))
    assert not contfrac.q_congruences(exp, k)
    j = exp.reliable_count // 2
    bad = dataclasses.replace(exp, raw_quotients=_replaced(
        exp.raw_quotients, j, exp.raw_quotients[j] ^ 1))
    rep = contfrac.q_congruences(bad, k)
    assert rep and rep[0][0] == j
    assert rep == q_congruences_oracle(bad, k)
