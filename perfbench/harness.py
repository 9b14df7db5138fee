"""Runs one workload: set-up timing, rounds, checks and the result object."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
# set-up is sampled before each of the first MIN_ROUNDS rounds, so that one
# slow moment of the machine does not hit every sample
SETUP_PER_ROUND = 4
SETUP_CODE = ("import time; t = time.perf_counter(); import numpy; "
              "print(time.perf_counter() - t); import seqc")


# The machine's speed drifts by tens of percent within minutes (other
# tenants share its cores), which no number of rounds averages away.  So
# every timing is scaled by CAL_REF_S over the duration of calibrate(),
# measured just before and just after it: the figures are seconds at the
# speed at which calibrate() takes CAL_REF_S.
CAL_REF_S = 0.01


def _calibration_sample() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    x = (1 << 40000) - 12345
    for _ in range(8):
        x = (x * x) >> 40000
    s = np.arange(2048, dtype=np.int64) % 3
    c = np.ones(2048, dtype=np.int64)
    for n in range(1, 150):
        d = int(c[:n] @ s[n:2 * n][::-1]) % 3
        c[n:] = (c[n:] - (d + 1) * c[:2048 - n]) % 3
    return time.perf_counter() - start


def calibrate() -> float:
    """Duration of a fixed mix of interpreter, bignum and small-array numpy
    work, like seqc's own (about 10 ms): the median of three samples, so one
    that a context switch hits does not skew the operation it brackets."""
    return statistics.median(_calibration_sample() for _ in range(3))


def scaled(seconds, cal_before, cal_after):
    return seconds * CAL_REF_S * 2 / (cal_before + cal_after)


def measure_setup(samples):
    """Scaled wall times of fresh interpreters importing seqc, and their numpy imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SEQC_THREADS", None)
    walls, numpy_s = [], []
    for _ in range(samples):
        cal = calibrate()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        walls.append(scaled(time.perf_counter() - start, cal, calibrate()))
        numpy_s.append(float(proc.stdout.split()[0]))
    return walls, numpy_s


def run_round(ops, tracer=None):
    """Run every operation once: outputs, scaled time per operation, and with a
    tracer the part of each operation's wall time that no span accounts for."""
    outputs, elapsed, unattributed = {}, {}, {}
    cal = calibrate()
    for name, _, thunk in ops:
        before = spans.self_time(tracer.totals()) if tracer else 0.0
        start = time.perf_counter()
        try:
            outputs[name] = thunk()
        except Exception as exc:  # a raising operation is a failed operation
            outputs[name] = workloads.Raised(exc)
        wall = time.perf_counter() - start
        if tracer:
            unattributed[name] = wall - (spans.self_time(tracer.totals()) - before)
        cal_after = calibrate()
        elapsed[name] = scaled(wall, cal, cal_after)
        cal = cal_after
    return outputs, elapsed, unattributed


def by_tag(ops, per_op):
    """Sum a per-operation figure over the round and over its F_2 and odd-p operations."""
    out = {"round": 0.0, "f2": 0.0, "oddp": 0.0}
    for name, tag, _ in ops:
        out["round"] += per_op[name]
        if tag:
            out[tag] += per_op[name]
    return out


def median_per_op(ops, rounds):
    return {name: statistics.median(r[name] for r in rounds) for name, _, _ in ops}


def run(workload, seed, seconds, tracing):
    wl = workloads.WORKLOADS[workload](seed)
    ops = wl.ops()
    setup_walls, numpy_s = [], []
    times, traced_times, unattributed, layers = [], [], [], []
    first = None
    mismatched = set()
    tracer = spans.Tracer() if tracing else None
    start = time.perf_counter()
    while True:
        if len(times) + len(traced_times) < MIN_ROUNDS:
            walls, imports = measure_setup(SETUP_PER_ROUND)
            setup_walls += walls
            numpy_s += imports
        # a traced run alternates plain and traced rounds; the plain ones
        # give the overhead
        if tracer and len(times) > len(traced_times):
            tracer.install()
            before = dict(tracer.totals())
            outputs, elapsed, lost = run_round(ops, tracer)
            tracer.uninstall()
            after = tracer.totals()
            layers.append({k: v - before.get(k, 0.0) for k, v in after.items()})
            traced_times.append(elapsed)
            unattributed.append(lost)
        else:
            outputs, elapsed, _ = run_round(ops)
            times.append(elapsed)
        if first is None:
            first = outputs
        else:
            mismatched.update(k for k in outputs if outputs[k] != first[k])
        if time.perf_counter() - start >= seconds and len(times) + len(traced_times) >= MIN_ROUNDS:
            break

    verdicts = wl.check(first)
    for op in mismatched:
        verdicts[op] = workloads.Verdict("output changed between rounds", weight=verdicts[op].weight)
    raised = any(isinstance(o, workloads.Raised) for o in first.values())
    missed = [] if raised else wl.negative_controls(first)
    for op, v in verdicts.items():
        if v.error:
            print(f"failed: {op}: {v.error}" + (f" [{v.fault}]" if v.fault else ""), file=sys.stderr)
    for text in missed:
        print(f"negative control not caught: {text}", file=sys.stderr)

    rounds = len(times) + len(traced_times)
    result = {
        "correct": not missed and all(v.fault for v in verdicts.values() if v.error),
        "attempted": rounds * sum(v.weight for v in verdicts.values()),
        "failed": rounds * sum(v.failed for v in verdicts.values()),
    }
    if tracing:
        metrics = layer_metrics(ops, times, traced_times, unattributed, layers)
        metrics["algebra.numpy_import_s"] = {"value": statistics.median(numpy_s), "unit": "s"}
    else:
        op_s = by_tag(ops, median_per_op(ops, times))
        metrics = {
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "round_s": {"value": op_s["round"], "unit": "s"},
            "f2_s": {"value": op_s["f2"], "unit": "s"},
            "oddp_s": {"value": op_s["oddp"], "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    result["metrics"] = metrics
    print(f"{workload} seed={seed} rounds={rounds} " + " ".join(
        f"{k}={v['value']:.6g}" for k, v in metrics.items() if v["unit"] != "count"),
        file=sys.stderr)
    return result


def layer_metrics(ops, times, traced_times, unattributed, layers):
    """Median per traced round of every per-layer figure, plus the tracing overhead."""
    out = {}
    for metric, (key, unit) in spans.LAYER_METRICS.items():
        out[metric] = {"value": statistics.median(r.get(key, 0.0) for r in layers), "unit": unit}
    plain = by_tag(ops, median_per_op(ops, times))["round"]
    traced = by_tag(ops, median_per_op(ops, traced_times))["round"]
    out["trace.overhead"] = {"value": traced / plain - 1, "unit": "ratio"}
    for tag, value in by_tag(ops, median_per_op(ops, unattributed)).items():
        out[f"trace.{tag}_unattributed_s"] = {"value": value, "unit": "s"}
    return out
