"""Acceptance gate: the eleven headline guarantees, one pass/fail line each.

Every equality below is an exact integer check (tolerance zero).  Run
with -s to see the per-criterion lines even on success.
"""

import itertools
import time

from seqc import autoseq, contfrac, expcomp, lincomp, theory
from seqc.algebra import LaurentSeries, PrimeField

import test_expcomp
import test_theory

F2 = PrimeField(2)
N_BIG = 4096


def report(criterion, ok, detail=""):
    line = f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_thue_morse_exact_profile():
    """bm_profile(Thue-Morse, 4096) equals 2*floor((N+2)/4); under 5 s."""
    pref = autoseq.prefix(autoseq.thue_morse(), N_BIG)
    start = time.perf_counter()
    prof = lincomp.bm_profile(pref, F2)
    elapsed = time.perf_counter() - start
    exact = all(prof.at(n) == 2 * ((n + 2) // 4) for n in range(1, N_BIG + 1))
    report("criterion 1: Thue-Morse exact profile",
           exact and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_02_all_one_pattern_exact_profile():
    """Both closed-form branches verified >= 100 times each for k = 1..4."""
    ok = True
    min_branch = 10 ** 9
    for k in (1, 2, 3, 4):
        spec = autoseq.pattern(2, k, 2 ** k - 1)
        prof = lincomp.bm_profile(autoseq.prefix(spec, N_BIG), F2)
        counts = {1: 0, 2: 0}
        for n in range(1, N_BIG + 1):
            if prof.at(n) != theory.allones_exact(k, n):
                ok = False
                break
            counts[test_theory.allones_branch(k, n)] += 1
        min_branch = min(min_branch, counts[1], counts[2])
    report("criterion 2: all-one-pattern exact profile",
           ok and min_branch >= 100, f"min branch hits {min_branch}")


def test_criterion_03_oracle_equivalence():
    """Berlekamp-Massey and continued fractions agree element-wise."""
    ok = True
    for spec in autoseq.builtin_specs():
        pref = autoseq.prefix(spec, N_BIG)
        bm = lincomp.bm_profile(pref, spec.field)
        cf = contfrac.profile_from_cf(
            LaurentSeries.from_prefix(pref, spec.field), N_BIG)
        if list(bm) != list(cf):
            ok = False
            break
    import random
    rng = random.Random(200)
    for _ in range(200):
        bits = [rng.randrange(2) for _ in range(256)]
        bm = lincomp.bm_profile(bits, F2)
        cf = contfrac.profile_from_cf(LaurentSeries.from_prefix(bits, F2), 256)
        if list(bm) != list(cf):
            ok = False
            break
    report("criterion 3: oracle equivalence bm = cf", ok)


def test_criterion_04_general_bounds_and_attainment():
    """Witness bounds hold everywhere; Thue-Morse alternates bound contact."""
    ok = True
    for spec in autoseq.builtin_specs():
        w = autoseq.witness(spec)
        prof = lincomp.bm_profile(autoseq.prefix(spec, N_BIG), spec.field)
        for n in range(1, N_BIG + 1):
            if not theory.bounds_hold(w.d, w.m, n, prof.at(n)):
                ok = False
                break
    tm = lincomp.bm_profile(autoseq.prefix(autoseq.thue_morse(), N_BIG), F2)
    for n in range(1, N_BIG + 1):
        ell = tm.at(n)
        if n % 4 in (0, 1):
            ok = ok and 2 * ell == n - (n % 2)  # lower bound ceil((N-1)/2)
        else:
            ok = ok and ell == n // 2 + 1  # upper bound floor(N/2)+1
    report("criterion 4: general bounds + attainment pattern", ok)


def test_criterion_05_corollary_bounds_odd_primes():
    """Sum-of-digits p in {3,5} and pattern(3,2,a) bounds up to N = 2048."""
    ok = True
    for p in (3, 5):
        spec = autoseq.sum_of_digits(p)
        prof = lincomp.bm_profile(autoseq.prefix(spec, 2048), spec.field)
        for n in range(1, 2049):
            if not (n - 1 <= p * prof.at(n) <= (p - 1) * n + 2):
                ok = False
    for a in (4, 8):
        spec = autoseq.pattern(3, 2, a)
        prof = lincomp.bm_profile(autoseq.prefix(spec, 2048), spec.field)
        for n in range(1, 2049):
            if not (n - 8 <= 3 * prof.at(n) <= 2 * n + 9):
                ok = False
    report("criterion 5: corollary bounds at odd primes", ok)


def test_criterion_06_cf_structure():
    """Certified quotients match predictions; congruences and identities hold."""
    ok = True
    for k in (1, 2, 3, 4):
        spec = autoseq.pattern(2, k, 2 ** k - 1)
        r = LaurentSeries.from_prefix(autoseq.prefix(spec, N_BIG), F2)
        exp = contfrac.cf_expand(r)
        for j in range(1, exp.reliable_count + 1):
            if exp.quotients[j] != theory.cf_prediction(k, j):
                ok = False
                break
        if contfrac.q_congruences(exp, k):
            ok = False
        if contfrac.check_convergent_identities(exp) is not None:
            ok = False
    report("criterion 6: continued-fraction structure", ok)


def test_criterion_07_expansion_complexity():
    """Plateau at 5 by N = 64; monotone; witnesses check; brute force agrees."""
    pref = autoseq.prefix(autoseq.thue_morse(), 64)
    results = expcomp.expansion_profile(pref, F2)
    vals = [r.value for r in results]
    ok = vals[63] == 5 and 5 in vals
    ok = ok and all(a <= b for a, b in zip(vals, vals[1:]))
    for res in results:
        if res.witness is not None:
            if not test_expcomp.evaluate_witness(res.witness, pref[:res.n], F2).is_zero:
                ok = False
    for n in range(1, 7):
        for bits in itertools.product((0, 1), repeat=n):
            expected = test_expcomp.brute_force_expansion(list(bits), 2, d_max=3)
            got = expcomp.expansion_profile(list(bits), F2, d_max=3)[-1]
            if expected is None:
                ok = ok and got.capped
            else:
                ok = ok and got.value == expected
    report("criterion 7: expansion complexity", ok)


def test_criterion_08_functional_equation_residuals():
    """Witness residuals vanish for all built-ins; pattern equation for k = 1..4."""
    ok = all(autoseq.witness_residual(autoseq.witness(s), autoseq.prefix(s, 1024)).is_zero
             for s in autoseq.builtin_specs())
    for k in (1, 2, 3, 4):
        spec = autoseq.pattern(2, k, 2 ** k - 1)
        if not theory.functional_equation_residual(spec, autoseq.prefix(spec, 1024)).is_zero:
            ok = False
    report("criterion 8: functional-equation residuals", ok)


def test_criterion_09_perfect_profile():
    """floor((N+1)/2) profile; every partial quotient has degree 1."""
    spec = autoseq.perfect_profile()
    pref = autoseq.prefix(spec, N_BIG)
    prof = lincomp.bm_profile(pref, F2)
    ok = all(prof.at(n) == (n + 1) // 2 for n in range(1, N_BIG + 1))
    exp = contfrac.cf_expand(LaurentSeries.from_prefix(pref, F2))
    ok = ok and all(q.degree == 1 for q in exp.quotients[1:])
    ok = ok and all(b - a == 1 for a, b in zip(exp.q_degrees, exp.q_degrees[1:]))
    report("criterion 9: perfect linear complexity profile", ok)


def test_criterion_10_negative_control(run_python):
    """A corrupted generator makes verify exit nonzero and name the first N."""
    proc = run_python("-m", "seqc.cli", "verify", "--seq", "thue-morse",
                      "--n-max", "256", "--corrupt-index", "100")
    ok = proc.returncode == 1 and "first failing N=" in proc.stderr
    report("criterion 10: negative control", ok, proc.stderr.strip().splitlines()[-1] if proc.stderr else "")


# seconds for one Thue-Morse run of each O(N^2) kernel at its N
KERNEL_BUDGETS = {("bm", 16384): 10.0, ("cf", 65536): 30.0}


def _kernel_seconds(kernel, n):
    pref = autoseq.prefix(autoseq.thue_morse(), n)
    start = time.perf_counter()
    if kernel == "bm":
        lincomp.bm_profile(pref, F2)
    else:
        contfrac.cf_expand(LaurentSeries.from_prefix(pref, F2))
    return time.perf_counter() - start


def _over_budget(seconds, budgets):
    return sorted(key for key, budget in budgets.items() if seconds[key] >= budget)


def test_criterion_11_kernel_budgets():
    """BM at N=16384 under 10 s and CF at N=65536 under 30 s; a zero budget fails both."""
    seconds = {key: _kernel_seconds(*key) for key in KERNEL_BUDGETS}
    over = _over_budget(seconds, KERNEL_BUDGETS)
    # negative control: the same comparison must report a miss at budget 0.0
    control = _over_budget(seconds, dict.fromkeys(KERNEL_BUDGETS, 0.0))
    report("criterion 11: kernel time budgets",
           not over and control == sorted(KERNEL_BUDGETS),
           ", ".join(f"{kernel} N={n} {seconds[kernel, n]:.3f}s" for kernel, n in KERNEL_BUDGETS))
