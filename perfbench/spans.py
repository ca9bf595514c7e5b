"""Spans recorded around skewlift's public entry points, from outside.

The package itself carries no tracing. ``instrument`` replaces selected
module functions and methods with wrappers that record one span per call
(name, start, end, parent span, a few attributes); every module namespace
that imported the same function object gets the wrapper, so calls through
``from .problem import reference_operators`` are seen too. Spans stay in
memory and are reduced to per-layer metrics when the study ends.
"""

import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1  # index into Tracer.spans, -1 for a root span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded study."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        """Return fn wrapped in a span; note(args, kwargs, result) -> dict of
        attributes stored on the span."""

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = Span(name, self.clock(), parent=parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if note is not None:
                span.attrs.update(note(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct
    children (one thread's spans nest, so children never overlap)."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


# ---------------------------------------------------------------------------
# What is wrapped, and what each span notes about its call


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _note_assemble(args, kwargs, result):
    return {"dofs": int(result.matrix.shape[0])}


def _note_snapshot_solve(args, kwargs, result):
    return {"dofs": int(_arg(args, kwargs, 0, "system").matrix.shape[0])}


def _note_indicators(args, kwargs, result):
    cells = _arg(args, kwargs, 1, "cells")
    return {"samples": sum(len(c.samples) for c in cells)}


def _note_pod(args, kwargs, result):
    snaps = _arg(args, kwargs, 0, "snapshots")
    part = _arg(args, kwargs, 1, "part")
    return {"snapshots": len(snaps), "rows": int(part.n + 1)}


def _note_training(args, kwargs, result):
    return {"snapshots": len(result.snapshots), "cells": len(result.cells)}


# (module, attribute, span name, note); "Class.method" patches the class.
TARGETS = (
    ("skewlift.cli", "run_case", "cli.run_case", None),
    ("skewlift.problem", "reference_operators", "problem.reference_operators",
     None),
    ("skewlift.problem", "solve_reference", "problem.solve_reference", None),
    ("skewlift.transverse", "TransverseSolver.solve", "transverse.solve", None),
    ("skewlift.transverse", "assemble_transverse",
     "transverse.assemble_transverse", _note_assemble),
    ("skewlift.transverse", "snapshot_solve", "transverse.snapshot_solve",
     _note_snapshot_solve),
    ("skewlift.training", "adaptive_train_extension",
     "training.adaptive_train_extension", _note_training),
    ("skewlift.training", "element_indicators", "training.element_indicators",
     _note_indicators),
    ("skewlift.training", "pod", "training.pod", _note_pod),
    ("skewlift.reduced", "assemble_reduced", "reduced.assemble_reduced", None),
    ("skewlift.reduced", "solve_reduced", "reduced.solve_reduced", None),
    ("skewlift.estimator", "error_report", "estimator.error_report", None),
)


def instrument(tracer, targets=TARGETS):
    """Wrap every target in every loaded skewlift module that holds it.

    Returns the number of bindings replaced; a target that resolves to no
    binding raises, so a renamed entry point cannot silently drop a layer.
    """
    replaced = 0
    for mod_name, attr, span_name, note in targets:
        module = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(span_name, getattr(cls, meth), note))
            replaced += 1
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span_name, original, note)
        hits = 0
        for name, mod in list(sys.modules.items()):
            if not name.startswith("skewlift") or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"{mod_name}.{attr} is bound nowhere")
        replaced += hits
    return replaced


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(spans):
    """Reduce one study's spans to the benchmark's per-layer metrics.

    Times are seconds of wall clock (``_ms`` in milliseconds). GFLOP figures
    are computed from array shapes, not measured: a dense LU solve of an
    N x N transverse system counts 2/3 N^3; a POD call over ns snapshots of
    n nodal values counts 2 n ns^2 for the Gram product plus 4/3 ns^3 for
    the tridiagonal reduction inside ``eigh``.
    """
    selfs = self_times(spans)
    by = {}
    for s, st in zip(spans, selfs):
        by.setdefault(s.name, []).append((s, st))

    def total(name):
        return sum(s.duration for s, _ in by.get(name, []))

    def self_total(name):
        return sum(st for _, st in by.get(name, []))

    def count(name):
        return len(by.get(name, []))

    solves = by.get("transverse.solve", [])
    # a fresh solve is a solve() call that reached the dense solver
    fresh_idx = {s.parent for s in spans if s.name == "transverse.snapshot_solve"}
    fresh = [spans[i].duration * 1e3 for i in sorted(fresh_idx)
             if i >= 0 and spans[i].name == "transverse.solve"]
    dofs = [s.attrs["dofs"] for s, _ in by.get("transverse.snapshot_solve", [])]
    samples = sum(s.attrs["samples"]
                  for s, _ in by.get("training.element_indicators", []))
    pods = [s.attrs for s, _ in by.get("training.pod", [])]
    train = [s.attrs for s, _ in by.get("training.adaptive_train_extension", [])]
    reports = [s.duration for s, _ in by.get("estimator.error_report", [])]
    ind_self = self_total("training.element_indicators")

    return {
        "cli.run_case.s": total("cli.run_case"),
        "cli.run_case.self_s": self_total("cli.run_case"),
        "problem.reference_operators.s": total("problem.reference_operators"),
        "problem.reference_operators.calls": count("problem.reference_operators"),
        "problem.solve_reference.s": total("problem.solve_reference"),
        "transverse.solve.calls": len(solves),
        "transverse.solve.fresh": len(fresh),
        "transverse.cache_hit_ratio":
            1.0 - len(fresh) / len(solves) if solves else 0.0,
        "transverse.solve.self_s": self_total("transverse.solve"),
        "transverse.assemble_transverse.s": total("transverse.assemble_transverse"),
        "transverse.snapshot_solve.s": total("transverse.snapshot_solve"),
        "transverse.fresh_solve.p50_ms":
            float(np.percentile(fresh, 50)) if fresh else 0.0,
        "transverse.fresh_solve.p99_ms":
            float(np.percentile(fresh, 99)) if fresh else 0.0,
        "transverse.system_dofs_max": max(dofs, default=0),
        "transverse.dense_solve_gflop": sum(2.0 / 3.0 * n ** 3 for n in dofs) / 1e9,
        "training.element_indicators.self_s": ind_self,
        "training.indicator.samples": samples,
        "training.indicator.ms_per_sample":
            1e3 * ind_self / samples if samples else 0.0,
        "training.pod.s": total("training.pod"),
        "training.pod.calls": len(pods),
        "training.pod.snapshots_max": max((p["snapshots"] for p in pods), default=0),
        "training.pod.gram_gflop": sum(
            2.0 * p["rows"] * p["snapshots"] ** 2 + 4.0 / 3.0 * p["snapshots"] ** 3
            for p in pods) / 1e9,
        "training.adaptive_train_extension.self_s":
            self_total("training.adaptive_train_extension"),
        "training.snapshots_final": sum(t["snapshots"] for t in train),
        "training.cells_final": sum(t["cells"] for t in train),
        "reduced.assemble_reduced.s": total("reduced.assemble_reduced"),
        "reduced.solve_reduced.s": total("reduced.solve_reduced"),
        "reduced.solve_reduced.calls": count("reduced.solve_reduced"),
        "estimator.error_report.s": sum(reports),
        "estimator.error_report.first_s": reports[0] if reports else 0.0,
    }
