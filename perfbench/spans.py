"""Per-layer timers installed on seqc's public functions from outside the package.

Each wrapped call is a span.  A span's self time is its thread CPU time
minus the CPU time of the wrapped calls it made, so nested layers
(``profile_from_cf`` -> ``cf_expand`` -> ``gf2.divmod_``) are not counted
twice and the threads of ``verify_suite``'s pool are not charged for the
time they wait on the interpreter lock.  Spans are folded into per-thread
tables as they end and read back between rounds; nothing inside seqc
changes.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from seqc import algebra, autoseq, cli, contfrac, expcomp, gf2, lincomp, theory


def _bm_name(prefix, field):
    return "lincomp.bm_f2" if field.p == 2 else "lincomp.bm_oddp"


def _cf_name(r):
    return "contfrac.cf_f2" if r.field.p == 2 else "contfrac.cf_oddp"


def _count_symbols(result, spec, n):
    return {"autoseq.symbols": n}


def _count_quotients(result, r):
    return {"contfrac.quotients": result.degree_count}


def _count_results(result, *args, **kwargs):
    return {"expcomp.results": len(result),
            "expcomp.capped_results": sum(1 for res in result if res.capped)}


# (owner, attribute, span name or name function, counter)
SPANS = (
    (cli, "main", "cli.main", None),
    (theory, "verify_suite", "theory.verify_suite", None),
    (theory, "verify", "theory.verify", None),
    (theory, "functional_equation_residual", "theory.functional_equation_residual", None),
    (autoseq, "prefix", "autoseq.prefix", _count_symbols),
    (autoseq, "witness_residual", "autoseq.witness_residual", None),
    (lincomp, "bm_profile", _bm_name, None),
    (lincomp, "bm_connection", "lincomp.bm_connection", None),
    (contfrac, "cf_expand", _cf_name, _count_quotients),
    (contfrac, "profile_from_cf", "contfrac.profile_walk", None),
    (contfrac, "check_convergent_identities", "contfrac.convergent_identities", None),
    (contfrac, "q_congruences", "contfrac.q_congruences", None),
    (gf2, "mul", "gf2.mul", None),
    (gf2, "divmod_", "gf2.divmod", None),
    (gf2, "mul_add_is_one", "gf2.mul_add_is_one", None),
    (algebra.Poly, "__mul__", "algebra.poly_mul", None),
    (algebra.LaurentSeries, "__mul__", "algebra.series_mul", None),
    (algebra.LaurentSeries, "from_prefix", "algebra.from_prefix", None),
    (expcomp, "expansion_profile", "expcomp.expansion_profile", _count_results),
)

# per-layer metric -> (table key, unit).  ":self" is thread CPU self time,
# ":wall" inclusive wall time, ":calls" the number of calls.
LAYER_METRICS = {
    "cli.main_self_s": ("cli.main:self", "s"),
    "theory.verify_suite_s": ("theory.verify_suite:wall", "s"),
    "theory.verify_self_s": ("theory.verify:self", "s"),
    "theory.functional_equation_residual_s": ("theory.functional_equation_residual:self", "s"),
    "autoseq.prefix_s": ("autoseq.prefix:self", "s"),
    "autoseq.symbols": ("autoseq.symbols", "count"),
    "autoseq.witness_residual_s": ("autoseq.witness_residual:self", "s"),
    "lincomp.bm_f2_s": ("lincomp.bm_f2:self", "s"),
    "lincomp.bm_oddp_s": ("lincomp.bm_oddp:self", "s"),
    "lincomp.bm_connection_s": ("lincomp.bm_connection:self", "s"),
    "contfrac.cf_f2_self_s": ("contfrac.cf_f2:self", "s"),
    "contfrac.cf_oddp_self_s": ("contfrac.cf_oddp:self", "s"),
    "contfrac.profile_walk_self_s": ("contfrac.profile_walk:self", "s"),
    "contfrac.convergent_identities_self_s": ("contfrac.convergent_identities:self", "s"),
    "contfrac.q_congruences_self_s": ("contfrac.q_congruences:self", "s"),
    "contfrac.quotients": ("contfrac.quotients", "count"),
    "gf2.mul_s": ("gf2.mul:self", "s"),
    "gf2.mul_calls": ("gf2.mul:calls", "count"),
    "gf2.divmod_s": ("gf2.divmod:self", "s"),
    "gf2.divmod_calls": ("gf2.divmod:calls", "count"),
    "gf2.mul_add_is_one_s": ("gf2.mul_add_is_one:self", "s"),
    "gf2.mul_add_is_one_calls": ("gf2.mul_add_is_one:calls", "count"),
    "algebra.poly_mul_s": ("algebra.poly_mul:self", "s"),
    "algebra.poly_mul_calls": ("algebra.poly_mul:calls", "count"),
    "algebra.series_mul_s": ("algebra.series_mul:self", "s"),
    "algebra.from_prefix_s": ("algebra.from_prefix:self", "s"),
    "expcomp.expansion_profile_s": ("expcomp.expansion_profile:self", "s"),
    "expcomp.results": ("expcomp.results", "count"),
    "expcomp.capped_results": ("expcomp.capped_results", "count"),
}


class Tracer:
    """Installs span timers on SPANS and accumulates them per thread."""

    def __init__(self):
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()
        self._saved = []

    def _state(self):
        local = self._local
        if not hasattr(local, "table"):
            local.table = defaultdict(float)
            local.stack = []
            with self._lock:
                self._tables.append(local.table)
        return local.table, local.stack

    def _wrap(self, func, span, counter):
        state = self._state

        @functools.wraps(func)
        def timed(*args, **kwargs):
            table, stack = state()
            name = span if isinstance(span, str) else span(*args, **kwargs)
            stack.append(0.0)
            wall0 = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                result = func(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu0
                wall = time.perf_counter() - wall0
                children = stack.pop()
                if stack:
                    stack[-1] += cpu
                table[name + ":self"] += cpu - children
                table[name + ":wall"] += wall
                table[name + ":calls"] += 1
            if counter is not None:
                for key, val in counter(result, *args, **kwargs).items():
                    table[key] += val
            return result

        return timed

    def install(self):
        for owner, attr, span, counter in SPANS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, span, counter))
            else:
                new = self._wrap(raw, span, counter)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def totals(self):
        """Sum of every thread's table so far."""
        out = defaultdict(float)
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, val in list(table.items()):
                out[key] += val
        return out


def self_time(totals) -> float:
    return sum(v for k, v in totals.items() if k.endswith(":self"))
