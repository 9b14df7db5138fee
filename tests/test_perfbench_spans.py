"""The benchmark's span table still names functions that exist in seqc.

``perfbench/spans.py`` wraps each (module or class, attribute) of its
``SPANS`` table by name, so a refactor that renames or moves one breaks
``perfbench/run.py --trace 1`` while every other test passes.  The table
is read from the benchmark's own file, never copied or edited here.
"""

import importlib.util
import inspect
from pathlib import Path

import seqc

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
