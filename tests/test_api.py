"""The public names and the benchmark's span targets resolve in the package.

perfbench/spans.py wraps package functions by (module, attribute); a rename
that drops one would only surface in a traced benchmark run, so it is
checked here, reading that file without changing anything under perfbench/.
"""

import importlib
import importlib.util
import pathlib
import sys

import skewlift

_SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_targets(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_span_targets_resolve(monkeypatch):
    targets = _span_targets(monkeypatch)
    assert targets
    for mod_name, attr, _span, _note in targets:
        obj = importlib.import_module(mod_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{mod_name}.{attr}"


def test_public_names_resolve():
    missing = [n for n in skewlift.__all__ if not hasattr(skewlift, n)]
    assert missing == []
    assert len(set(skewlift.__all__)) == len(skewlift.__all__)
