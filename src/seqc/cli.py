"""Command-line front-end.

Subcommands: generate, profile, expansion, verify.  Output is
deterministic for a fixed configuration; rationals are emitted as
integer numerator/denominator pairs, never decimals.  Exit codes: 0 ok,
1 verification failure / method disagreement, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import repeat

import numpy as np

from . import autoseq, contfrac, expcomp, lincomp, theory
from .algebra import LaurentSeries
from .autoseq import SequenceSpec

CSV_HEADER = "N,L_bm,L_cf,L_formula,lower_num,lower_den,upper_num,upper_den"

# each --seq name: its autoseq constructor, the spec options it requires and those
# it may take; giving any other spec option is a usage error
SEQUENCES = {
    "thue-morse": (autoseq.thue_morse, (), ()),
    "rudin-shapiro": (autoseq.rudin_shapiro, (), ()),
    "pattern": (autoseq.pattern, ("p", "k", "a"), ()),
    "sum-of-digits": (autoseq.sum_of_digits, ("p",), ()),
    "baum-sweet": (autoseq.baum_sweet, (), ()),
    "paper-folding": (autoseq.paper_folding, (), ("v0",)),
    "perfect-profile": (autoseq.perfect_profile, (), ()),
}


class UsageError(Exception):
    pass


def _reject_spec_options(args, what, takes=()):
    for key in ("p", "k", "a", "v0"):
        if key not in takes and getattr(args, key) is not None:
            raise UsageError(f"{what} takes no --{key}")


def spec_from_args(args) -> SequenceSpec:
    name = args.seq
    make, required, optional = SEQUENCES[name]
    _reject_spec_options(args, name, required + optional)
    given = {key: getattr(args, key) for key in required + optional
             if getattr(args, key) is not None}
    if not given.keys() >= set(required):
        *rest, last = (f"--{key}" for key in required)
        raise UsageError(f"{name} requires " + (f"{', '.join(rest)} and " if rest else "") + last)
    return make(**given)


def _emit(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(path, "w") as out:
        out.write(text)


def cmd_generate(args) -> int:
    spec = spec_from_args(args)
    p = spec.field.p
    if p > 10:
        raise UsageError("sequence text format supports p <= 10 (one digit per symbol)")
    pref = autoseq.prefix(spec, args.n)
    body = "".join(str(u) for u in pref)
    _emit(args.out, f"# p={p} spec={spec.canonical_name}\n{body}\n")
    return 0


def _profile_rows(spec, n_max, method):
    """One tuple per N = 1..n_max, its entries in CSV_HEADER's column order.

    Entries are Python ints, which json.dumps takes and np.int64 is not,
    or None for a method not run.
    """
    w = autoseq.witness(spec)  # first: a spec over its witness cap fails before any work
    field = spec.field
    pref = autoseq.prefix(spec, n_max)
    prof_bm = prof_cf = None
    if method in ("bm", "both"):
        prof_bm = lincomp.bm_profile(pref, field)
    if method in ("cf", "both"):
        r = LaurentSeries.from_prefix(pref, field)
        prof_cf = contfrac.profile_from_cf(r, n_max)
    if method == "both":
        diverged = theory._first_divergence(prof_bm, prof_cf)
        if diverged is not None:
            raise RuntimeError("method disagreement at N={}: bm={} cf={}".format(*diverged))
    formula = theory.exact_formula_for(spec)
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    return list(zip(ns.tolist(),
                    prof_bm.values if prof_bm else repeat(None),
                    prof_cf.values if prof_cf else repeat(None),
                    formula(ns).tolist() if formula else repeat(None),
                    *_bound_columns(w.d, w.m, ns)))


def _bound_columns(d: int, m: int, ns):
    """Numerators and denominators of ``theory.general_bounds`` at every N of ns, in lowest terms.

    Each of ``theory.bound_numerators`` is divided through, with d > 0,
    by its gcd with d, as ``Fraction`` would; int64 is exact by the
    witness cap (``theory`` docstring).
    """
    columns = []
    for num in theory.bound_numerators(d, m, ns):
        g = np.gcd(num, d)
        columns += [(num // g).tolist(), (d // g).tolist()]
    return columns


def cmd_profile(args) -> int:
    spec = spec_from_args(args)
    try:
        rows = _profile_rows(spec, args.n_max, args.method)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    keys = CSV_HEADER.split(",")
    if args.format == "json":
        _emit(args.out, json.dumps([dict(zip(keys, row)) for row in rows], sort_keys=True) + "\n")
        return 0
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join("" if v is None else str(v) for v in row))
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_expansion(args) -> int:
    spec = spec_from_args(args)
    pref = autoseq.prefix(spec, args.n)
    results = expcomp.expansion_profile(pref, spec.field, d_max=args.d_max)
    out_lines = []
    for res in results:
        out_lines.append(json.dumps({
            "N": res.n,
            "E_N": res.value,
            "witness": None if res.witness is None else [list(m) for m in res.witness],
            "capped": res.capped,
        }, sort_keys=True))
    _emit(args.out, "\n".join(out_lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    if (args.suite is None) == (args.seq is None):
        raise UsageError("verify needs exactly one of --suite all and --seq NAME")
    if args.kmax < 1:
        raise UsageError(f"--kmax must be >= 1, got {args.kmax}")
    mutate = None
    if args.corrupt_index is not None:
        idx = args.corrupt_index
        if not 0 <= idx < args.n_max:
            raise UsageError(f"--corrupt-index must lie in [0, {args.n_max}), got {idx}")

        def mutate(pref, _idx=idx):
            # test fixture: additively corrupt one generator output symbol
            pref[_idx] = (pref[_idx] + 1) % (max(pref) + 1 if max(pref) else 2)
            return pref

    if args.suite == "all":
        _reject_spec_options(args, "verify --suite all")
        reports = theory.verify_suite(args.n_max, k_max=args.kmax, mutate=mutate)
    else:
        spec = spec_from_args(args)
        reports = [theory.verify(spec, args.n_max, mutate=mutate)]
    payload = [r.to_dict() for r in reports]
    _emit(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    ok = all(r.ok for r in reports)
    if not ok:
        for r in reports:
            fail = r.first_failure
            if fail is not None:
                print(f"FAIL {r.spec_name}: check {fail.name} "
                      f"first failing N={fail.first_fail_n}", file=sys.stderr)
    return 0 if ok else 1


def _config_tokens(path) -> list:
    """A file of key=value lines, one per long flag name, as --key value tokens."""
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            tokens += ["--" + key.strip().replace("_", "-"), val.strip()]
    return tokens


def _with_config(argv, args):
    """Parse argv again with its config tokens after the subcommand.

    The user's own flags come after the tokens, so they win; the tokens
    go through the subcommand's parser, so a config value is checked
    exactly as the same flag is.
    """
    at = argv.index(args.command) + 1
    tokens = _config_tokens(args.config)
    # argparse reads --help or a prefix of it as a request for usage, exit 0
    extra = [key for key in tokens[::2] if "--help".startswith(key)]
    if not extra:
        args, extra = _parser().parse_known_args(argv[:at] + tokens + argv[at:])
    if extra:
        raise UsageError(f"config key {extra[0].lstrip('-')!r} is not an option of "
                         f"seqc {args.command}")
    return args


def build_parser():
    parser = argparse.ArgumentParser(
        prog="seqc",
        description="Exact complexity analysis of automatic sequences over prime fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(sp):
        sp.add_argument("--seq", choices=tuple(SEQUENCES), help="sequence name")
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--a", type=int, default=None)
        sp.add_argument("--v0", type=int, default=None, choices=(0, 1))

    def add_common(sp):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--config", default=None, help="key=value config file")

    sp = sub.add_parser("generate", help="write a sequence prefix in text form")
    add_spec_args(sp)
    sp.add_argument("--n", type=int, default=None, help="prefix length")
    add_common(sp)
    sp.set_defaults(func=cmd_generate, required_args=("seq", "n"))

    sp = sub.add_parser("profile", help="linear complexity profile with bounds")
    add_spec_args(sp)
    sp.add_argument("--n-max", dest="n_max", type=int, default=1024)
    sp.add_argument("--method", choices=("bm", "cf", "both"), default="both")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(sp)
    sp.set_defaults(func=cmd_profile, required_args=("seq",))

    sp = sub.add_parser("expansion", help="Nth expansion complexity stream")
    add_spec_args(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--d-max", dest="d_max", type=int, default=None,
                    help="cap on the total degree searched; past it E_N is reported as "
                         "capped (default: no cap, the search runs until a witness exists)")
    add_common(sp)
    sp.set_defaults(func=cmd_expansion, required_args=("seq", "n"))

    sp = sub.add_parser("verify", help="run the verification suite")
    add_spec_args(sp)
    sp.add_argument("--suite", choices=("all",), default=None)
    sp.add_argument("--n-max", "--nmax", dest="n_max", type=int, default=1024)
    sp.add_argument("--kmax", type=int, default=4)
    sp.add_argument("--corrupt-index", dest="corrupt_index", type=int, default=None,
                    help="test fixture: corrupt the generator at this index")
    add_common(sp)
    sp.set_defaults(func=cmd_verify, required_args=())

    return parser


@functools.cache
def _parser():
    """One parser per process, built on the first ``main`` call, not at import.

    Parsing leaves the parser unchanged: every call, and every re-parse
    with a config file's tokens, gets a fresh namespace.
    """
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    try:
        if args.config:
            args = _with_config(argv, args)
        for key in args.required_args:
            if getattr(args, key) is None:
                raise UsageError(f"missing required option --{key.replace('_', '-')}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
