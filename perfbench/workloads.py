"""The three workloads: inputs from the seed, operations, and their checks.

Every operation goes through a module attribute of seqc's public API
(``lincomp.bm_profile``, ``cli.main``, ...) looked up at call time, so the
timers of spans.py see it.  A workload's ``check`` turns the first round's
outputs into one Verdict per operation; ``negative_controls`` feeds each
check a deliberately wrong result and lists the ones that were not caught.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback

import checks
from seqc import autoseq, cli, contfrac, expcomp, lincomp
from seqc.algebra import LaurentSeries, PrimeField


class Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


class Verdict:
    """Outcome of checking one operation's output."""

    def __init__(self, error=None, fault=None, weight=1, failed=None):
        self.error = error  # why the output is wrong, or None
        self.fault = fault  # the named program fault that explains the error
        self.weight = weight  # results the operation produced
        self.failed = (0 if error is None else weight) if failed is None else failed


# -- workloads -----------------------------------------------------------------

class SuiteVerify:
    """`seqc verify --suite all` at N, then corrupted-generator verdicts for every spec."""

    N = 2048
    # every index in this range gives the same verdict for every spec (checked
    # exhaustively at N=2048); see README.md for the indices left out
    CORRUPT_LO, CORRUPT_HI = 1025, 1535
    SPECS = (
        ("thue-morse", "f2", ["--seq", "thue-morse"]),
        ("rudin-shapiro", "f2", ["--seq", "rudin-shapiro"]),
        ("pattern(2,3,7)", "f2", ["--seq", "pattern", "--p", "2", "--k", "3", "--a", "7"]),
        ("sum-of-digits(3)", "oddp", ["--seq", "sum-of-digits", "--p", "3"]),
        ("baum-sweet", "f2", ["--seq", "baum-sweet"]),
        ("paper-folding", "f2", ["--seq", "paper-folding", "--v0", "1"]),
        ("perfect-profile", "f2", ["--seq", "perfect-profile"]),
        ("pattern(2,4,15)", "f2", ["--seq", "pattern", "--p", "2", "--k", "4", "--a", "15"]),
    )

    def __init__(self, seed):
        rng = random.Random(seed)
        # a control's cost depends on where the corruption sits, so each spec
        # draws one index from each of several equal parts of the range; the
        # odd-p spec alone makes oddp_s and its verdicts are cheap, so it
        # gets six
        self.corrupt = {}
        for name, tag, _ in self.SPECS:
            parts = 6 if tag == "oddp" else 3
            span = self.CORRUPT_HI - self.CORRUPT_LO + 1
            edges = [self.CORRUPT_LO + span * k // parts for k in range(parts + 1)]
            self.corrupt[name] = [rng.randrange(edges[k], edges[k + 1]) for k in range(parts)]

    def ops(self):
        n = str(self.N)
        out = [("suite", None, lambda: _run_cli(["verify", "--suite", "all", "--n-max", n]))]
        for name, tag, argv in self.SPECS:
            for i in self.corrupt[name]:
                full = ["verify", *argv, "--n-max", n, "--corrupt-index", str(i)]
                out.append((f"control {name} at {i}", tag, lambda full=full: _run_cli(full)))
        return out

    def check(self, outputs):
        verdicts = {}
        for op, out in outputs.items():
            if isinstance(out, Raised):
                verdicts[op] = Verdict(out.text)
                continue
            rc, reports = out[0], json.loads(out[1]) if out[1] else []
            if op == "suite":
                verdicts[op] = Verdict(checks.check_clean_verdict(rc, reports, len(self.SPECS), self.N))
            else:
                err = checks.check_corrupt_verdict(rc, reports)
                undetected = rc == 0 and len(reports) == 1 and reports[0]["ok"]
                verdicts[op] = Verdict(err, fault="residual_zero stops at N=1024" if undetected else None)
        return verdicts

    def negative_controls(self, outputs):
        missed = []
        rc, text = outputs["suite"]
        reports = json.loads(text)
        reports[0]["checks"][0]["pass"] = False
        if checks.check_clean_verdict(rc, reports, len(self.SPECS), self.N) is None:
            missed.append("clean verdict with a failing check accepted")
        if checks.check_corrupt_verdict(0, json.loads(text)[:1]) is None:
            missed.append("passing verdict accepted as a detected corruption")
        return missed


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


class ProfileStream:
    """BM profile, CF profile and BM connection on random and automatic streams."""

    P31 = 2 ** 31 - 1
    # the p = 2^31-1 stream is fixed: its bm_connection fails on every such
    # input (int64 overflow in lincomp._bm_modp), and a failure must not
    # depend on the seed
    P31_STREAM_SEED = 31

    def __init__(self, seed):
        rng = random.Random(seed)
        big = random.Random(self.P31_STREAM_SEED)
        n2, n3, np31 = 1 << 16, 1 << 13, 1 << 11
        self.streams = {
            "random F2": (2, [rng.getrandbits(1) for _ in range(n2)]),
            "thue-morse": (2, checks.builtin_prefix("pattern", n2)),
            "random F3": (3, [rng.randrange(3) for _ in range(n3)]),
            "sum-of-digits(3)": (3, checks.builtin_prefix("sum-of-digits", n3, p=3)),
            "random F_(2^31-1)": (self.P31, [big.randrange(self.P31) for _ in range(np31)]),
        }
        self.builtin = {"thue-morse": autoseq.thue_morse(), "sum-of-digits(3)": autoseq.sum_of_digits(3)}

    def ops(self):
        out = []
        for name, spec in self.builtin.items():
            p, u = self.streams[name]
            out.append((f"prefix {name}", _tag(p), lambda s=spec, n=len(u): autoseq.prefix(s, n)))
        for name, (p, u) in self.streams.items():
            f = PrimeField(p)
            out.append((f"bm {name}", _tag(p), lambda u=u, f=f: lincomp.bm_profile(u, f)))
            out.append((f"cf {name}", _tag(p), lambda u=u, f=f: contfrac.profile_from_cf(
                LaurentSeries.from_prefix(u, f), len(u))))
            out.append((f"connection {name}", _tag(p), lambda u=u, f=f: lincomp.bm_connection(u, f)))
        return out

    def _denominator(self, u, p):
        exp = contfrac.cf_expand(LaurentSeries.from_prefix(u, PrimeField(p)))
        return [int(c) for c in exp.convergent(exp.degree_count)[1].coeffs]

    def check(self, outputs):
        verdicts = {}
        self.denominators = {}  # stream -> last degree-certified Q_J, for the controls
        for name in self.builtin:
            op = f"prefix {name}"
            out = outputs[op]
            ok = not isinstance(out, Raised) and list(out) == self.streams[name][1]
            verdicts[op] = Verdict(None if ok else "prefix differs from the digit definition")
        for name, (p, u) in self.streams.items():
            bm, cf, conn = (outputs[f"{kind} {name}"] for kind in ("bm", "cf", "connection"))
            if isinstance(bm, Raised):
                for kind in ("bm", "cf", "connection"):
                    verdicts[f"{kind} {name}"] = Verdict(f"bm_profile raised: {bm.text}")
                continue
            bm = tuple(bm)
            err = checks.check_profile_rules(bm)
            if err is None and name == "thue-morse":
                err = (checks.check_formula(bm, checks.thue_morse_formula)
                       or checks.check_formula(bm, lambda n: checks.all_one_formula(1, n)))
            verdicts[f"bm {name}"] = Verdict(err)
            if isinstance(cf, Raised):
                err = cf.text
            else:
                q = self.denominators[name] = self._denominator(u, p)
                err = (checks.check_same_profile(bm, tuple(cf))
                       or checks.check_denominator(q, u, p, bm[-1]))
            verdicts[f"cf {name}"] = Verdict(err)
            err = conn.text if isinstance(conn, Raised) else checks.check_connection(*conn, u, p, bm[-1])
            # _bm_modp keeps products in int64: exact only while (L+1) p^2 < 2^63
            overflow = (bm[-1] + 1) * (p - 1) ** 2 >= 2 ** 63
            verdicts[f"connection {name}"] = Verdict(
                err, fault="int64 overflow in lincomp._bm_modp" if err and overflow else None)
        return verdicts

    def negative_controls(self, outputs):
        missed = []
        tm = tuple(outputs["bm thue-morse"])
        flipped = list(tm)
        flipped[len(tm) // 2] += 1
        if checks.check_same_profile(tuple(flipped), tuple(outputs["cf thue-morse"])) is None:
            missed.append("flipped profile entry matches the CF profile")
        if checks.check_formula(flipped, checks.thue_morse_formula) is None:
            missed.append("flipped profile entry matches the Thue-Morse formula")
        if checks.check_formula(flipped, lambda n: checks.all_one_formula(1, n)) is None:
            missed.append("flipped profile entry matches the all-one formula")
        swapped = list(tm)
        k = next(i for i in range(len(tm) - 1) if tm[i] < tm[i + 1])
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        if checks.check_profile_rules(swapped) is None:
            missed.append("decreasing profile passes the profile rules")
        bad_prefix = list(outputs["prefix thue-morse"])
        bad_prefix[-1] ^= 1
        if bad_prefix == self.streams["thue-morse"][1]:
            missed.append("flipped prefix symbol matches the digit definition")
        for name in ("random F2", "random F3"):
            p, u = self.streams[name]
            ell, coeffs = outputs[f"connection {name}"]
            bent = list(coeffs)
            bent[0] = (bent[0] + 1) % p
            if checks.check_connection(ell, bent, u, p, ell) is None:
                missed.append(f"perturbed recurrence coefficient regenerates {name}")
            q = list(self.denominators[name])
            q[0] = (q[0] + 1) % p
            if checks.check_denominator(q, u, p, len(q) - 1) is None:
                missed.append(f"perturbed Q_J annihilates {name}")
        return missed


class ExpansionScan:
    """expcomp.expansion_profile with its default d_max on every built-in at N."""

    N = 256
    RANK_SAMPLES = 3
    SPECS = (
        ("thue-morse", ("pattern", dict(p=2, k=1, a=1))),
        ("rudin-shapiro", ("pattern", dict(p=2, k=2, a=3))),
        ("pattern(2,3,7)", ("pattern", dict(p=2, k=3, a=7))),
        ("sum-of-digits(3)", ("sum-of-digits", dict(p=3))),
        ("baum-sweet", ("baum-sweet", {})),
        ("paper-folding", ("paper-folding", {})),
        ("perfect-profile", ("perfect-profile", {})),
    )

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.specs = dict(zip((name for name, _ in self.SPECS), autoseq.builtin_specs()))
        # name -> (p, prefix, h, G powers, reference profile), all from the
        # sequences' definitions
        self.refs = {}
        for name, (kind, kw) in self.SPECS:
            p = self.specs[name].field.p
            u = checks.builtin_prefix(kind, self.N, **kw)
            self.refs[name] = (p, u, checks.annihilator(kind, **kw), checks.PowerTable(u, p, 12),
                               checks.reference_profile(u, p))

    def ops(self):
        out = []
        for name, spec in self.specs.items():
            tag = _tag(spec.field.p)
            out.append((f"prefix {name}", tag, lambda s=spec: autoseq.prefix(s, self.N)))
            out.append((f"expansion {name}", tag, lambda s=spec, u=self.refs[name][1]:
                        expcomp.expansion_profile(u, s.field)))
        return out

    def check(self, outputs):
        verdicts = {}
        for name in self.specs:
            p, u, h, table, lin = self.refs[name]
            h_terms = [(i, j, c) for i, hi in h.items() for j, c in enumerate(hi) if c]
            out = outputs[f"prefix {name}"]
            verdicts[f"prefix {name}"] = Verdict(
                None if not isinstance(out, Raised) and list(out) == u
                else "prefix differs from the digit definition")
            op = f"expansion {name}"
            res = outputs[op]
            if isinstance(res, Raised) or len(res) != self.N:
                verdicts[op] = Verdict("expansion_profile raised or wrong length", weight=self.N)
                continue
            if not table.is_zero_mod(h_terms, self.N):
                verdicts[op] = Verdict("written-out h(s,t) does not annihilate G", weight=self.N)
                continue
            capped = sum(1 for r in res if r.capped)
            errors = []
            for n, r in enumerate(res, start=1):
                if r.capped:
                    continue
                if r.n != n:
                    errors.append(f"result {n} reports N={r.n}")
                elif r.value == 0:
                    if any(u[:n]) or r.witness:
                        errors.append(f"E_{n}=0 on a nonzero prefix")
                else:
                    err = checks.check_witness(table, n, r.value, r.witness)
                    if err:
                        errors.append(f"N={n}: {err}")
            values = [None if r.capped else r.value for r in res]
            err = checks.check_expansion_bounds(values, checks.total_degree(h), lin)
            if err:
                errors.append(err)
            for n in self._rank_sample(values):
                err = checks.check_no_lower_witness(table, n, values[n - 1])
                if err:
                    errors.append(f"N={n}: {err}")
            if errors:
                verdicts[op] = Verdict("; ".join(errors[:3]), weight=self.N,
                                       failed=capped + len(errors))
            else:
                verdicts[op] = Verdict("E_N not determined below d_max" if capped else None,
                                       fault="d_max=8 below the witness degree" if capped else None,
                                       weight=self.N, failed=capped)
        return verdicts

    def _rank_sample(self, values):
        candidates = [n for n, v in enumerate(values, start=1) if v]
        return sorted(self.rng.sample(candidates, min(self.RANK_SAMPLES, len(candidates))))

    def negative_controls(self, outputs):
        missed = []
        for name in self.specs:
            p, u, h, table, lin = self.refs[name]
            res = outputs[f"expansion {name}"]
            last = next(r for r in reversed(res) if not r.capped)
            n = last.n
            # change the constant coefficient: the total degree stays E_N >= 1,
            # so only the vanishing test can reject it
            c0 = sum(c for i, j, c in last.witness if (i, j) == (0, 0))
            bent = [m for m in last.witness if m[:2] != (0, 0)]
            if (c0 + 1) % p:
                bent.append((0, 0, (c0 + 1) % p))
            if checks.check_witness(table, n, last.value, bent) is None:
                missed.append(f"{name}: witness with a changed coefficient vanishes")
            if checks.check_witness(table, n, last.value + 1, last.witness) is None:
                missed.append(f"{name}: witness degree E_N+1 accepted")
            if checks.check_no_lower_witness(table, n, last.value + 1) is None:
                missed.append(f"{name}: E_N+1 passes the rank check")
            values = [None if r.capped else r.value for r in res]
            hdeg = checks.total_degree(h)
            # at an N where L(N) + 2 <= deg h, so that only the L(N) bound can catch it
            low = next(n for n in range(1, len(lin) + 1) if lin[n - 1] + 2 <= hdeg)
            for label, bad in (("decrease", values[:-1] + [0]),
                               ("E_N > deg h", values[:-1] + [hdeg + 1]),
                               ("E_N > L(N)+1", values[:low - 1] + [lin[low - 1] + 2])):
                if checks.check_expansion_bounds(bad, hdeg, lin) is None:
                    missed.append(f"{name}: {label} accepted")
        return missed


WORKLOADS = {"suite_verify": SuiteVerify, "profile_stream": ProfileStream,
             "expansion_scan": ExpansionScan}


def _tag(p):
    return "f2" if p == 2 else "oddp"
