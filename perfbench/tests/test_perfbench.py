"""Tests of the benchmark's own logic (no study is run).

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import spans  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0),
        S("a", 1.0, 4.0, parent=0),
        S("b", 2.0, 3.0, parent=1),
        S("c", 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(tree)) == tree[0].duration


def test_tracer_records_parents_and_durations():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 2.0

    wleaf = tracer.wrap("leaf", leaf)

    def outer():
        clock.now += 1.0
        wleaf()
        wleaf()
        clock.now += 0.5

    tracer.wrap("outer", outer)()
    names = [(s.name, s.parent, s.duration) for s in tracer.spans]
    assert names == [("outer", -1, 5.5), ("leaf", 0, 2.0), ("leaf", 0, 2.0)]
    assert spans.self_times(tracer.spans) == [1.5, 2.0, 2.0]


def test_tracer_closes_span_when_call_raises():
    tracer = spans.Tracer(FakeClock())

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert not math.isnan(tracer.spans[0].end)
    assert tracer._stack == []


def test_instrument_replaces_every_binding(monkeypatch):
    def work(x):
        return 2 * x

    home = types.ModuleType("skewlift_fake_home")
    home.work = work
    user = types.ModuleType("skewlift_fake_user")
    user.work = work
    monkeypatch.setitem(sys.modules, "skewlift_fake_home", home)
    monkeypatch.setitem(sys.modules, "skewlift_fake_user", user)
    tracer = spans.Tracer()
    n = spans.instrument(tracer, [("skewlift_fake_home", "work", "fake.work",
                                   lambda a, k, r: {"x": a[0]})])
    assert n == 2
    assert user.work(3) == 6 and home.work(4) == 8
    assert [(s.name, s.attrs) for s in tracer.spans] == [
        ("fake.work", {"x": 3}), ("fake.work", {"x": 4})]


def test_layer_metrics_counts_fresh_solves_and_accounts_for_study():
    S = spans.Span
    tree = [
        S("cli.run_case", 0.0, 10.0),
        S("transverse.solve", 1.0, 3.0, parent=0),
        S("transverse.snapshot_solve", 2.0, 2.5, parent=1, attrs={"dofs": 30}),
        S("transverse.solve", 3.0, 3.1, parent=0),  # cache hit
        S("training.pod", 4.0, 6.0, parent=0,
          attrs={"snapshots": 10, "rows": 5}),
    ]
    lm = spans.layer_metrics(tree)
    assert lm["transverse.solve.calls"] == 2
    assert lm["transverse.solve.fresh"] == 1
    assert lm["transverse.cache_hit_ratio"] == 0.5
    assert lm["transverse.fresh_solve.p50_ms"] == pytest.approx(2000.0)
    assert lm["transverse.dense_solve_gflop"] == pytest.approx(2 / 3 * 30 ** 3 / 1e9)
    assert lm["training.pod.gram_gflop"] == pytest.approx(
        (2 * 5 * 100 + 4 / 3 * 1000) / 1e9)
    assert sum(spans.self_times(tree)) == pytest.approx(lm["cli.run_case.s"])
    assert lm["cli.run_case.self_s"] == pytest.approx(10.0 - 2.0 - 0.1 - 2.0)


def _rows(ratios):
    rows = []
    for m, q in enumerate(ratios, start=1):
        err = 0.5 / m
        rows.append({"m": str(m), "err_V_rel": repr(err), "err_L2_rel": "0.1",
                     "delta_m": repr(q * err), "e_pod": "0.2",
                     "lambda_m": "1.0", "pbar_norm": "0.3"})
    return rows


def test_gate_accepts_constant_estimator_ratio():
    assert gate.check_rows(_rows([2.0, 2.0 * (1 + 1e-13), 2.0]), 3) == []


def test_gate_rejects_varying_estimator_ratio():
    problems = gate.check_rows(_rows([2.0, 2.0, 2.1]), 3)
    assert any("delta_m/err_V_rel" in p for p in problems)


def test_gate_rejects_missing_row():
    rows = _rows([2.0, 2.0, 2.0])
    del rows[1]
    assert gate.check_rows(rows, 3)
    assert gate.check_rows(_rows([2.0, 2.0]), 3)


def test_gate_rejects_non_finite_value():
    rows = _rows([2.0, 2.0])
    rows[0]["e_pod"] = "nan"
    assert any("non-finite" in p for p in gate.check_rows(rows, 2))


def test_metric_names_and_units_follow_the_contract():
    spec = _spec()
    names = [m["name"] for sec in ("end_to_end", "per_layer")
             for m in spec[sec]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME_RE.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    for w in spec["workloads"]:
        assert NAME_RE.fullmatch(w["name"])


def test_per_layer_section_matches_what_the_trace_computes():
    computed = set(spans.layer_metrics([])) | {"trace.overhead_frac"}
    assert {m["name"] for m in _spec()["per_layer"]} == computed


def test_workloads_match_the_study_table():
    import workloads

    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "fine-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
