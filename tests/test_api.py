"""The benchmark's span targets resolve in the package, and a traced study
calls each layer's entry point as often as the benchmark's metrics assume.

perfbench/spans.py wraps package functions by (module, attribute); a rename
that drops one, or a caller that goes around one, would only surface in a
traced benchmark run, so both are checked here, reading that file without
changing anything under perfbench/.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPANS = _ROOT / "perfbench" / "spans.py"


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


# instrument() rebinds module globals, so the traced study runs in its own
# interpreter (-B: no bytecode written next to perfbench/spans.py)
_TRACED_STUDY = """
import collections, json, sys
sys.path.insert(0, sys.argv[1])
import spans
from skewlift import cli
tracer = spans.Tracer()
spans.instrument(tracer)
cfg = cli.RunConfig(NH=16, nh=10, NHp=4, m_max=2, out=sys.argv[2])
cli.run_case(cfg.validate(), log=lambda *a, **k: None)
print(json.dumps(collections.Counter(s.name for s in tracer.spans)))
"""


def test_traced_study_counts_each_layer(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                else []))
    out = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_STUDY, str(_SPANS.parent),
         str(tmp_path / "conv.csv")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    counts = json.loads(out.stdout.splitlines()[-1])
    expected = {
        "problem.reference_operators": 2,  # fine reference + coarse indicator
        "problem.solve_reference": 1,
        "reduced.assemble_reduced": 1,
        "reduced.solve_reduced": 2,
        "estimator.error_report": 2,
        "training.pod": 2,
    }
    assert {name: counts.get(name, 0) for name in expected} == expected
