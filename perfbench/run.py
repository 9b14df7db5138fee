#!/usr/bin/env python3
"""Benchmark of seqc through its public API: one workload per run.

    python3 perfbench/run.py --workload suite_verify --seed 1 --seconds 30 --trace 0

A run builds the workload's inputs from --seed, then repeats whole rounds
of the same operations until --seconds have passed (at least three
rounds).  The outputs of the first round are checked with
perfbench/checks.py (and the checks' negative controls are run on them);
later rounds must reproduce them exactly.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("suite_verify", "profile_stream", "expansion_scan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="seqc benchmark: one workload per run")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "seqc" / "__init__.py").is_file():
        print(f"error: no seqc sources under {SRC}", file=sys.stderr)
        return 2
    # seqc comes from this checkout's src/, never from an installed copy
    sys.path.insert(0, str(SRC))
    os.environ.pop("SEQC_THREADS", None)
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
