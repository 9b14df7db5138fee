"""The benchmark's span table still names functions that exist in seqc.

``perfbench/spans.py`` wraps each (module or class, attribute) of its
``SPANS`` table by name, so a refactor that renames or moves one breaks
``perfbench/run.py --trace 1`` while every other test passes.  The table
is read from the benchmark's own file, never copied or edited here.  A
traced run of the verifier and a CF profile must count what the span
counters read off the wrapped calls' arguments and results.
"""

import importlib.util
import inspect
from pathlib import Path

import seqc
from seqc import autoseq, contfrac, theory
from seqc.algebra import LaurentSeries, PrimeField

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_in_seqc():
    spans = _spans_module()
    assert spans.SPANS
    for owner, attr, _, _ in spans.SPANS:
        where = owner.__name__ if inspect.ismodule(owner) else owner.__module__
        assert where.startswith(seqc.__name__ + "."), (owner, attr)
        raw = owner.__dict__.get(attr)
        assert raw is not None, f"{where}: {owner.__name__}.{attr} is gone"
        assert callable(raw.__func__ if isinstance(raw, classmethod) else raw), (owner, attr)


def test_tracer_installs_and_restores_every_span():
    spans = _spans_module()
    before = [owner.__dict__[attr] for owner, attr, _, _ in spans.SPANS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not raw
                   for (owner, attr, _, _), raw in zip(spans.SPANS, before))
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.SPANS] == before


def test_traced_calls_are_counted():
    # the counters read cf_expand's argument and result and autoseq.prefix's
    # arguments, so a change to either shows here before in a traced benchmark run
    spans = _spans_module()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for spec in (autoseq.thue_morse(), autoseq.sum_of_digits(3)):
            assert theory.verify(spec, 64).ok
        stream = [(i * i + 3 * i) % 5 for i in range(64)]
        contfrac.profile_from_cf(LaurentSeries.from_prefix(stream, PrimeField(5)), 64)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    for key in ("contfrac.cf_f2:calls", "contfrac.cf_oddp:calls", "contfrac.quotients",
                "contfrac.convergent_identities:calls", "autoseq.symbols"):
        assert totals[key] > 0, key
