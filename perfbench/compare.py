#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds one sub-directory per workload; each ``*.json`` file
in it is the saved stdout of one run (its last line is the result object).  The
i-th file of BASE, in name order, is paired with the i-th file of NEW;
make the runs in alternating order.  For every end-to-end metric of
BENCHMARK.json the verdict is:

  better      NEW wins at least 9/10 of the pairs (ties count for neither)
              and the medians differ by more than BASE's interquartile range
  worse       NEW's median is worse than BASE's by more than the bound, and
              either BASE wins 9/10 of the pairs or BASE's spread is within it
  unchanged   NEW's median is within the bound and BASE's spread is within
              the bound (or every NEW run beats every BASE run)
  unresolved  anything else, including fewer than ten pairs

The spread is the interquartile range over the median.  Attempted and
failed counts are summed per side; a gain does not count when NEW fails a
larger share of its operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10


def load(directory: Path):
    runs = {}
    for sub in sorted(p for p in directory.iterdir() if p.is_dir()):
        results = []
        for path in sorted(sub.glob("*.json")):
            lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
            results.append(json.loads(lines[-1]))
        runs[sub.name] = results
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / abs(statistics.median(values))


def verdict(base, new, better, bound):
    n = min(len(base), len(new))
    if n < MIN_PAIRS:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    pairs = list(zip(base[:n], new[:n]))
    new_wins = sum(1 for b, x in pairs if sign * (x - b) < 0)
    base_wins = sum(1 for b, x in pairs if sign * (x - b) > 0)
    mb, mn = statistics.median(base), statistics.median(new)
    q1, q3, base_spread = spread(base)
    worse_by = sign * (mn - mb) / abs(mb)
    if new_wins >= 0.9 * n and sign * (mn - mb) < 0 and abs(mn - mb) > q3 - q1:
        return "better"
    if worse_by > bound:
        return "worse" if base_wins >= 0.9 * n or base_spread <= bound else "unresolved"
    all_better = all(sign * (x - b) < 0 for x in new for b in base)
    if base_spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':16} {'metric':12} {'base median':>12} {'spread':>7} "
          f"{'new median':>12} {'spread':>7} {'pairs':>5} {'wins':>4}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            x = [r["metrics"][name]["value"] for r in new[workload]]
            n = min(len(b), len(x))
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(1 for bv, xv in zip(b, x) if sign * (xv - bv) < 0)
            bs = spread(b)[2] if len(b) > 1 else float("nan")
            xs = spread(x)[2] if len(x) > 1 else float("nan")
            print(f"{workload:16} {name:12} {statistics.median(b):12.6g} {bs:7.2%} "
                  f"{statistics.median(x):12.6g} {xs:7.2%} {n:5} {wins:4}  "
                  f"{verdict(b, x, metric['better'], metric['bound'])}")
    print()
    print(f"{'workload':16} {'base attempted':>14} {'failed':>8} {'share':>8} "
          f"{'new attempted':>14} {'failed':>8} {'share':>8}")
    for workload in sorted(set(base) | set(new)):
        cells = []
        for side in (base, new):
            att = sum(r["attempted"] for r in side.get(workload, []))
            fail = sum(r["failed"] for r in side.get(workload, []))
            cells.append(f"{att:14} {fail:8} {fail / att if att else float('nan'):8.4f}")
        incorrect = sum(not r["correct"] for side in (base, new) for r in side.get(workload, []))
        print(f"{workload:16} {cells[0]} {cells[1]}"
              + (f"  ({incorrect} runs not correct)" if incorrect else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
