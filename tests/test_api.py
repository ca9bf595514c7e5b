"""The benchmark's span targets resolve in the package, a traced study
calls each layer's entry point as often as the benchmark's metrics assume,
and every public function and class of the package, and every public method,
property and dataclass field of its classes, has a caller.

perfbench/spans.py wraps package functions by (module, attribute); a rename
that drops one, or a caller that goes around one, would only surface in a
traced benchmark run, so both are checked here, reading that file without
changing anything under perfbench/.
"""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import skewlift

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
from skewlift.transverse import TransverseSolver
tracer = spans.Tracer()
spans.instrument(tracer)
requested = []
solve_many = TransverseSolver.solve_many
def recording(self, mus):
    requested.extend(tuple(sorted(mu)) for mu in mus)
    return solve_many(self, mus)
TransverseSolver.solve_many = recording
cfg = cli.RunConfig(NH=16, nh=10, NHp=4, m_max=2, out=sys.argv[2])
cli.run_case(cfg.validate(), log=lambda *a, **k: None)
dofs = {name: [s.attrs["dofs"] for s in tracer.spans if s.name == name]
        for name in ("transverse.assemble_transverse",
                     "transverse.snapshot_solve")}
solves = [s.parent for s in tracer.spans
          if s.name == "transverse.snapshot_solve"]
parents = [tracer.spans[i].name if i >= 0 else None for i in solves]
print(json.dumps({"parents": parents, "solves": solves,
                  "requested": len(requested),
                  "distinct": len(set(requested))}))
print(json.dumps(dofs))
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
    lines = out.stdout.splitlines()
    counts = json.loads(lines[-1])
    expected = {
        "problem.reference_operators": 2,  # fine reference + coarse indicator
        "problem.solve_reference": 1,
        "reduced.assemble_reduced": 1,
        "reduced.solve_reduced": 2,
        "estimator.error_report": 2,
        "training.pod": 2,
    }
    assert {name: counts.get(name, 0) for name in expected} == expected
    # the benchmark reads matrix.shape[0] as the transverse unknown count:
    # n_a (nh - 1) for n_a active hats, with nh = 10 in the traced study
    for name, dofs in json.loads(lines[-2]).items():
        assert len(dofs) == counts[name] > 0, name
        assert all(d > 0 and d % 9 == 0 for d in dofs), (name, dofs)
    # the benchmark counts a fresh solve as a transverse.solve span with a
    # snapshot_solve child: each band solve runs inside its own solve() call
    nesting = json.loads(lines[-3])
    assert set(nesting["parents"]) == {"transverse.solve"}
    assert len(set(nesting["solves"])) == len(nesting["solves"])
    # transverse.solve.calls is one span per parameter requested through
    # solve_many, and transverse.solve.fresh one per distinct sorted key
    assert counts["transverse.solve"] == nesting["requested"]
    assert len(nesting["solves"]) == nesting["distinct"]
    assert nesting["distinct"] < nesting["requested"]


# public names that wait for a caller, each with the reason
_UNCALLED = {
    "skewlift.interface.build_lifting":
        "the located-interface lifting; `skewlift run` does not use it yet",
    "skewlift.cases.CaseSpec.profile":
        "the transverse profile a lifting from the detected interface will "
        "sweep; `skewlift run` uses the case's closed-form lifting",
    "skewlift.cases.CaseSpec.exact_total":
        "the closed-form solution p~, the oracle the case tests compare the "
        "case data and the reference solve against",
}


def _referenced_names():
    """Every identifier a caller can reach a package name by, in src/,
    demos/, perfbench/ and the acceptance claims, as two sets: names,
    attributes, imported names and dotted string constants (the benchmark
    names its span targets as strings); and only the attributes and the
    string constants, by which alone a method, property or field is reached
    (a local variable may share a field's name). A def or class statement
    is not a reference, nor a field's declaration."""
    files = [*(_ROOT / "src").rglob("*.py"), *(_ROOT / "demos").rglob("*.py"),
             *(_ROOT / "perfbench").rglob("*.py"),
             _ROOT / "tests" / "test_acceptance.py"]
    names, members = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                members.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"[\w.]+", node.value)):
                members.update(node.value.split("."))
    return names | members, members


_MEMBER_KINDS = (property, functools.cached_property, classmethod,
                 staticmethod)


def _public_names(module):
    """(dotted name, name, is member) of each public function and class the
    module defines and of the public methods, properties and dataclass
    fields of those classes."""
    for name, obj in vars(module).items():
        if (name.startswith("_")
                or not (inspect.isfunction(obj) or inspect.isclass(obj))
                or obj.__module__ != module.__name__):
            continue
        yield f"{module.__name__}.{name}", name, False
        if inspect.isclass(obj):
            members = [member for member, value in vars(obj).items()
                       if inspect.isfunction(value)
                       or isinstance(value, _MEMBER_KINDS)]
            if dataclasses.is_dataclass(obj):
                members += [f.name for f in dataclasses.fields(obj)]
            for member in members:
                if not member.startswith("_"):
                    yield f"{module.__name__}.{name}.{member}", member, True


def test_every_public_function_and_class_has_a_caller():
    # a method, property or field counts as called when its name is
    # referenced as an attribute: the check cannot tell which class an
    # attribute access reaches
    names, members = _referenced_names()
    uncalled = []
    for info in pkgutil.iter_modules(skewlift.__path__, "skewlift."):
        module = importlib.import_module(info.name)
        uncalled += [dotted for dotted, name, member in _public_names(module)
                     if name not in (members if member else names)]
    assert sorted(uncalled) == sorted(_UNCALLED), (
        "public names without a caller in src/, demos/, perfbench/ or "
        f"tests/test_acceptance.py: {uncalled}")
