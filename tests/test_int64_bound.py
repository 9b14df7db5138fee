"""The odd-p int64 bound invariant of ``algebra._make_room``.

The int64 kernels (Berlekamp-Massey, the Euclid of ``cf_expand`` and the
convergent recurrence) keep unreduced int64 arrays, each with a tracked
bound on its entries, and reduce mod p only when the next product could
pass INT64_MAX.  Here that limit is lowered to (p-1) + j (p-1)^2: at
j = 1, the least room one product needs, reductions fire on nearly every
step, and at larger j some steps go unreduced, so an array can enter a
step with a bound above p - 1.  The convergent recurrence multiplies by
a quotient in convolution chunks as long as the room allows, so under a
low limit a quotient of degree 8 or more takes several chunks with
reductions between them.  Every helper call checks the tracked bounds
against the arrays themselves, and the outputs must equal references on
Python ints.

The public functions serve p = 3 from ``gf3``'s bit slices, and the int64
kernels every p >= 5; here they run at p = 3 too, as they can at any odd
p: ``int64_at_p3`` gives ``ring.Ring`` the int64 form there, and the
form of the ring's values picks the Berlekamp-Massey kernel and the
continued fractions' arithmetic alike.
"""

import contextlib
import dataclasses
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqc import algebra, contfrac, lincomp, ring
from seqc.algebra import LaurentSeries, Poly, PrimeField
from test_lincomp import schoolbook_bm

P31 = 2**31 - 1
PRIMES = (3, 5, 65521, P31)


def _abs_max(a) -> int:
    return int(np.abs(a).max(initial=0))


@contextlib.contextmanager
def low_limit(p, slack):
    """INT64_MAX lowered to (p-1) + slack (p-1)^2 (or kept); yields the reductions seen.

    Every ``_make_room`` call of the kernels checks, before and after the
    real helper runs, that the arrays lie within their tracked bounds and
    that the bounds leave room for one product under the lowered limit.
    """
    limit = min((p - 1) + slack * (p - 1) ** 2, algebra.INT64_MAX)
    real = algebra._make_room
    reductions = []

    def checked(x, mx, y, my, q, k=1):
        assert q == p and k >= 1
        assert max(mx, my) <= limit
        assert _abs_max(x) <= mx and _abs_max(y) <= my
        new_mx, new_my = real(x, mx, y, my, q, k)
        assert new_mx + (p - 1) * new_my <= limit
        assert _abs_max(x) <= new_mx and _abs_max(y) <= new_my
        reductions.append((new_mx < mx) + (new_my < my))
        return new_mx, new_my

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "INT64_MAX", limit)
        mp.setattr(ring, "_make_room", checked)
        mp.setattr(lincomp, "_make_room", checked)
        yield reductions


@contextlib.contextmanager
def int64_at_p3():
    """``ring.Ring``'s int64 form at p = 3, where the field chooses ``gf3``'s slices."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring.Ring, "_slices", ring.Ring._arrays)
        yield


def poly_euclid(symbols, field):
    """A_1, A_2, ... of sum u_i x^(N-1-i) / x^N by Poly division, with cf_expand's stop rule."""
    n = len(symbols)
    r_prev, r_cur = Poly.monomial(field, n), Poly(field, tuple(symbols[::-1]))
    quotients, deg_q = [], 0
    while not r_cur.is_zero:
        a, r_next = divmod(r_prev, r_cur)
        if 2 * deg_q + a.degree > n:
            break
        quotients.append(a)
        deg_q += a.degree
        r_prev, r_cur = r_cur, r_next
    return quotients


def poly_convergent(quotients, field):
    """(P_J, Q_J) of [0; A_1, ..., A_J] by the three-term recurrence on Poly."""
    p_prev, p_cur = Poly.one(field), Poly.zero(field)
    q_prev, q_cur = Poly.zero(field), Poly.one(field)
    for a in quotients:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return p_cur, q_cur


def check_kernels(symbols, p):
    """Every int64 kernel output on ``symbols`` against its reference."""
    with int64_at_p3():
        _check_kernels(symbols, p)


def _check_kernels(symbols, p):
    field = PrimeField(p)
    prof, c, ell = schoolbook_bm(symbols, p)
    assert list(lincomp.bm_profile(symbols, field)) == prof
    assert lincomp.bm_connection(symbols, field) == (ell,
                                                     tuple(-c[ell - i] % p for i in range(ell)))
    if not any(symbols):
        return
    exp = contfrac.cf_expand(LaurentSeries.from_prefix(symbols, field))
    ref = poly_euclid(symbols, field)
    assert [q.tolist() for q in exp.raw_quotients[1:]] == [list(a.coeffs) for a in ref]
    assert exp.q_degrees == tuple(accumulate((a.degree for a in ref), initial=0))
    assert contfrac.check_convergent_identities(exp) is None
    last = exp.degree_count
    for j in sorted({0, 1, last // 2, last}):
        assert exp.convergent(j) == poly_convergent(ref[:j], field)
    # a bumped constant term of A_J changes Q_J: the certificate must see it
    bumped = exp.raw_quotients[-1].copy()
    bumped[0] = (bumped[0] + 1) % p
    bad = dataclasses.replace(exp, raw_quotients=exp.raw_quotients[:-1] + (bumped,))
    assert contfrac.check_convergent_identities(bad) is not None


def _zero_run_stream(p, seed, n):
    """Isolated nonzero symbols between zero runs of up to 60: high-degree quotients."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        out += [0] * int(rng.integers(0, 61)) + [int(rng.integers(1, p))]
    return out[:n]


def _random_stream(p, seed, n):
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.integers(0, p, n)]


# a stream is a concatenation of chunks: a few symbols drawn from F_p, or
# a run of zeros, so long zero runs (quotients of high degree) are common
_streams = st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(
    st.just(p),
    st.integers(1, 64),
    st.lists(st.lists(st.integers(0, p - 1), min_size=1, max_size=6)
             | st.integers(1, 70).map(lambda k: [0] * k),
             min_size=1, max_size=24).map(lambda chunks: sum(chunks, []))))


@given(_streams)
@example((P31, 1, _zero_run_stream(P31, 1, 240)))
@example((P31, 1, [0] * 150 + [1] + _random_stream(P31, 2, 80)))
@example((65521, 1, [1] + [0] * 120 + _random_stream(65521, 3, 60)))
@example((3, 1, _zero_run_stream(3, 4, 240)))
@example((5, 40, _zero_run_stream(5, 7, 240)))
# a Euclid dividend its step as divisor left unreduced, reduced part-way
# through the next step: the entries below the window need it too
@example((5, 9, [3, 3, 0, 2, 0, 0, 4]))
@settings(max_examples=120, deadline=None)
def test_kernels_exact_under_a_low_limit(case):
    p, slack, symbols = case
    with low_limit(p, slack):
        check_kernels(symbols, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("make", [_random_stream, _zero_run_stream])
def test_reductions_fire_under_a_low_limit(p, make):
    symbols = make(p, 5, 160)
    with low_limit(p, 1) as reductions:
        check_kernels(symbols, p)
    assert len(reductions) > 100
    assert sum(1 for r in reductions if r) > len(reductions) // 2


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("make", [_random_stream, _zero_run_stream])
def test_kernels_exact_at_the_int64_limit(p, make):
    check_kernels(make(p, 6, 400), p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("slack", [1, 3])
def test_mul_add_chunks_under_a_low_limit(p, slack):
    """Quotients of degree 8-12 through the Q recurrence, in chunks of at most ``slack``.

    A chunk of k coefficients needs room for k products, so under the
    lowered limit each quotient takes several chunks with reductions
    between them; ``low_limit`` checks the bounds before and after each
    reduction, and so after each chunk, and the returned terms are
    checked here.
    """
    field = PrimeField(p)
    rng = np.random.default_rng(p + slack)
    quotients = [np.append(rng.integers(0, p, int(rng.integers(8, 13))), rng.integers(1, p))
                 for _ in range(6)]
    q_prev, q_cur = Poly.zero(field), Poly.one(field)
    prev, cur = [np.zeros(0, dtype=np.int64), p - 1], [np.ones(1, dtype=np.int64), p - 1]
    with low_limit(p, slack) as reductions:
        for a in quotients:
            prev, cur = cur, ring._arr_mul_add(a, cur, prev, p)
            q_prev, q_cur = q_cur, Poly(field, tuple(a.tolist())) * q_cur + q_prev
            for (arr, bound), want in ((prev, q_prev), (cur, q_cur)):
                assert _abs_max(arr) <= bound <= algebra.INT64_MAX
                assert Poly(field, tuple(arr.tolist())) == want
    assert len(reductions) >= 3 * len(quotients)
    assert sum(reductions) >= 2 * len(quotients)


def _schoolbook_mul_add(a, b, c, p):
    """a*b + c over F_p on lists of Python ints, trimmed."""
    out = [0] * max(len(a) + len(b) - 1, len(c))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for i, z in enumerate(c):
        out[i] += z
    out = [v % p for v in out]
    while out and not out[-1]:
        out.pop()
    return out


def _coeffs(length, rng, p):
    """``length`` coefficients in [0, p): 1, p - 1, a zero, then random ones, top nonzero."""
    a = rng.integers(0, p, length)
    a[:3] = [1, p - 1, 0][:length]
    a[-1] = rng.integers(1, p)
    return a


@pytest.mark.parametrize("p", (3, 5, P31))
@pytest.mark.parametrize("slack", [1, 3, None])
def test_mul_add_slice_updates_across_the_threshold(p, slack):
    """a*b + c with b just below and at ``_SLICE_ENTRIES`` entries per coefficient of a.

    At and above the threshold each nonzero coefficient is one slice
    update (one ``_sub_multiple`` call), below it the quotient is
    convolved (none).  Each case runs twice, the second time with the
    first output, unreduced, as b.  Under a lowered limit (slack 1 and
    3) and at INT64_MAX (slack None) every output equals its Python-int
    reference, within its tracked bound.
    """
    rng = np.random.default_rng(p)
    entries = ring._SLICE_ENTRIES
    updates = []

    def counted(x, y, c, q):
        updates.append(c)
        return algebra._sub_multiple(x, y, c, q)

    limit = low_limit(p, slack) if slack else contextlib.nullcontext()
    with limit, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_sub_multiple", counted)
        for length in (2, 3, 5):
            for n in (length * entries - 1, length * entries):
                a = _coeffs(length, rng, p)
                b = _coeffs(n, rng, p)
                c = rng.integers(0, p, n - 1)
                term, ref_b, ref_c = [b, p - 1], b.tolist(), c.tolist()
                for _ in range(2):
                    updates.clear()
                    sliced = length * entries <= len(term[0])
                    out = ring._arr_mul_add(a, term, [c, p - 1], p)
                    assert len(updates) == (np.count_nonzero(a) if sliced else 0)
                    ref = _schoolbook_mul_add(a.tolist(), ref_b, ref_c, p)
                    assert _abs_max(out[0]) <= out[1] <= algebra.INT64_MAX
                    assert (out[0] % p).tolist() == ref
                    c, ref_c = term[0].copy(), ref_b
                    term, ref_b = out, ref


@contextlib.contextmanager
def recorded_multipliers():
    """The multipliers c of every ``_sub_multiple`` update, by kernel module."""
    seen = {lincomp: set(), ring: set()}
    with pytest.MonkeyPatch.context() as mp:
        for module, log in seen.items():
            def record(x, y, c, p, _log=log):
                _log.add(c)
                return algebra._sub_multiple(x, y, c, p)
            mp.setattr(module, "_sub_multiple", record)
        yield seen


def _multiplier_streams(p):
    """Streams whose updates take c = 1, c = p - 1 and (p >= 5) some other c.

    The first Berlekamp-Massey update takes c = u, the first nonzero
    symbol, and the first Euclid step c = 1/u: 1 and p - 1 both times
    for u = 1 and u = p - 1.  Random symbols give the other values.
    """
    return [[1] + _random_stream(p, 8, 150), [0, 0, p - 1] + _random_stream(p, 9, 150),
            _zero_run_stream(p, 10, 200)]


@pytest.mark.parametrize("p", (3, 5, 7, 65521, P31))
@pytest.mark.parametrize("slack", [1, None])
def test_plus_minus_one_updates(p, slack):
    """Updates by c = 1 (x -= y) and c = p - 1 (x += y), and by any other c, are exact.

    Under a lowered limit (slack 1) and at INT64_MAX (slack None), the
    profile, the connection and the Euclid quotients equal their
    Python-int references, and every kernel module takes both signed
    branches and, for p >= 5, the product branch.
    """
    limit = low_limit(p, slack) if slack else contextlib.nullcontext()
    with limit, recorded_multipliers() as seen:
        for symbols in _multiplier_streams(p):
            check_kernels(symbols, p)
    for multipliers in seen.values():
        assert {1, p - 1} <= multipliers
        assert (len(multipliers) > 2) == (p >= 5)


class TestMakeRoom:
    def test_no_reduction_while_a_product_fits(self):
        x, y = np.array([7, -9]), np.array([11, 4])
        assert algebra._make_room(x, 9, y, 11, 3) == (9, 11)
        assert x.tolist() == [7, -9] and y.tolist() == [11, 4]

    def test_reduces_each_operand_above_p_minus_1(self, monkeypatch):
        monkeypatch.setattr(algebra, "INT64_MAX", 30)
        x, y = np.array([7, -9]), np.array([11, 4])
        assert algebra._make_room(x, 9, y, 11, 3) == (2, 2)
        assert x.tolist() == [1, 0] and y.tolist() == [2, 1]

    def test_leaves_a_reduced_operand_alone(self, monkeypatch):
        monkeypatch.setattr(algebra, "INT64_MAX", 30)
        x, y = np.array([2, 1]), np.array([11, -4])
        assert algebra._make_room(x, 2, y, 20, 3) == (2, 2)
        assert x.tolist() == [2, 1] and y.tolist() == [2, 2]

    def test_one_product_fits_at_the_largest_prime(self):
        assert (P31 - 1) + (P31 - 1) ** 2 <= algebra.INT64_MAX


class TestReduce:
    """``algebra._reduce``, the one in-place reduction of an int64 array mod p."""

    @pytest.mark.parametrize("p", (3, 5, P31))
    @pytest.mark.parametrize("size", (1, 300, 4200))
    def test_equals_numpy_mod(self, p, size):
        x = np.random.default_rng(size + p).integers(-2**62, 2**62, size, dtype=np.int64,
                                                     endpoint=True)
        x[0] = -2**62
        want = x % p
        out = algebra._reduce(x, p)
        assert out is x
        assert np.array_equal(x, want)

    @pytest.mark.parametrize("p", (3, 5, P31))
    @pytest.mark.parametrize("size", (7, 3000))
    def test_reduces_a_view_in_place(self, p, size):
        base = np.random.default_rng(p).integers(-2**62, 2**62, size + 6, dtype=np.int64)
        before = base.copy()
        algebra._reduce(base[3:-3], p)
        assert np.array_equal(base[3:-3], before[3:-3] % p)
        assert np.array_equal(base[:3], before[:3]) and np.array_equal(base[-3:], before[-3:])

    def test_reduces_a_2d_array(self):
        x = np.full((3, 5), -7, dtype=np.int64)
        assert np.array_equal(algebra._reduce(x, 5), np.full(x.shape, 3))
