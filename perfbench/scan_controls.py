#!/usr/bin/env python3
"""List, per suite spec, the corruption indices that `seqc verify` does not detect.

    python3 perfbench/scan_controls.py [--n-max 2048] [--lo 1025]

Corrupts one symbol the way `seqc verify --corrupt-index i` does, for every
i in [lo, n_max), and prints the indices whose verdict passes.  The
suite_verify workload draws its control indices from a range on which every
spec's verdict is the same for every index, so its failed share does not
depend on the seed.  A corruption that already breaks the exact-formula or
general-bound check (both read off the BM profile) is counted as detected
without running the full verifier; that cuts the scan to minutes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqc import autoseq, lincomp, theory  # noqa: E402


def corrupt(pref, i):
    pref = list(pref)
    pref[i] = (pref[i] + 1) % (max(pref) + 1 if max(pref) else 2)
    return pref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=2048)
    ap.add_argument("--lo", type=int, default=1025)
    args = ap.parse_args()
    n = args.n_max
    specs = list(autoseq.builtin_specs()) + [autoseq.pattern(2, 4, 15)]
    for spec in specs:
        base = autoseq.prefix(spec, n)
        w = autoseq.witness(spec)
        formula = theory.exact_formula_for(spec)
        missed = []
        for i in range(args.lo, n):
            prof = lincomp.bm_profile(corrupt(base, i), spec.field)
            if formula is not None and any(formula(m) != prof.at(m) for m in range(1, n + 1)):
                continue
            if any(not theory.bounds_hold(w.d, w.m, m, prof.at(m)) for m in range(1, n + 1)):
                continue
            if theory.verify(spec, n, mutate=lambda p, _i=i: corrupt(p, _i)).ok:
                missed.append(i)
        print(f"{spec.canonical_name}: {len(missed)} of {n - args.lo} undetected"
              + (f": {missed}" if 0 < len(missed) < 64 else ""), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
