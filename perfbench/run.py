"""skewlift benchmark: entry point of one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/skewlift`` must exist). Each
study is one ``skewlift.cli.run_case`` call in its own fresh interpreter,
started one at a time from this process with the BLAS thread count pinned
(``workloads.BLAS_THREADS``). ``--seed`` becomes ``RunConfig.seed``.

A run first times the set-up of several study processes that stop before
the study (after one untimed warm-up that compiles bytecode), then runs
studies until ``--seconds`` of study time is used, at least one (two with
``--trace 1``: one plain, one traced). Every study goes through the gate in
``gate.py``; repeats must write the same CSV bytes. A fixed calibration
kernel is timed before each study as a host-speed diagnostic.

Output: one JSON line of details (machine, every study, calibration), then
the result line ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones (medians over the run's
studies); with ``--trace 1`` the per-layer ones of the traced study.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_rows, read_rows, sha256_of
from workloads import BLAS_THREADS, THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_SAMPLES = 5


def metric_units(section):
    """Metric name -> unit for one section of BENCHMARK.json, which fixes
    exactly which metrics a run reports."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def calibrate():
    """Median of 3 timings of a fixed dense-solve plus pure-Python kernel
    (~60 ms each on a 2-core x86_64 host); a slow host shows here."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((300, 300))
    a = a @ a.T + 300.0 * np.eye(300)
    b = rng.standard_normal(300)
    times = []
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(40):
            np.linalg.solve(a, b)
        s = 0.0
        for i in range(200_000):
            s += i * 0.5
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in THREAD_VARS:
            self.env[var] = str(BLAS_THREADS)

    def launch(self, kind, csv_path):
        """Start study.py once; returns (exit code, parsed result or None,
        stderr tail, wall seconds)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            return None, None, "no time left before the run deadline", 0.0
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "study.py"), self.workload,
               str(self.seed), str(csv_path), repr(t0), kind]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, text=True,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, None, "timed out", time.monotonic() - t0
        wall = time.monotonic() - t0
        result = None
        if proc.returncode == 0:
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                pass
        return proc.returncode, result, proc.stderr[-2000:], wall


def run_study(runner, kind, index):
    """One gated study; returns its record."""
    m_max = WORKLOADS[runner.workload]["m_max"]
    csv_path = OUT / f"{runner.workload}-{runner.seed}-{index}.csv"
    if csv_path.exists():
        csv_path.unlink()
    calib = calibrate()
    code, res, err, wall = runner.launch(kind, csv_path)
    rec = {"kind": kind, "exit": code, "wall_s": wall, "calib_s": calib,
           "problems": []}
    if code != 0 or res is None:
        rec["problems"].append(f"study process failed (exit {code}): {err}")
        return rec
    rec.update(res)
    if not csv_path.exists():
        rec["problems"].append("no CSV written")
        return rec
    rows = read_rows(csv_path)
    rec["problems"] += check_rows(rows, m_max)
    rec["sha256"] = sha256_of(csv_path)
    if not rec["problems"]:
        rec["err_V_rel_mmax"] = float(rows[-1]["err_V_rel"])
    return rec


def median_of(records, key):
    vals = [r[key] for r in records if key in r]
    return (statistics.median(vals) if vals else None), len(vals)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    if not (ROOT / "src" / "skewlift" / "cli.py").is_file():
        print(f"perfbench: no skewlift sources under {ROOT / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, start + DEADLINE_S)

    # set-up: one untimed warm-up (bytecode compile), then timed samples
    setups = []
    for i in range(SETUP_SAMPLES + 1):
        code, res, err, _ = runner.launch("setup", OUT / "setup.csv")
        if code != 0 or res is None:
            print(f"perfbench: study process cannot start (exit {code}):\n"
                  f"{err}", file=sys.stderr)
            return 1
        if i > 0:
            setups.append(res["setup_s"])

    kinds = ["plain", "traced"] if args.trace else ["plain"]
    studies = []
    t_studies = time.monotonic()
    while True:
        kind = kinds[len(studies) % len(kinds)]
        studies.append(run_study(runner, kind, len(studies)))
        if studies[-1]["exit"] != 0:
            break
        used = time.monotonic() - t_studies
        per = used / len(studies)
        need_more = len(studies) < len(kinds)
        fits = used + per <= args.seconds
        if time.monotonic() + 1.5 * per > start + DEADLINE_S:
            break
        if not (need_more or fits):
            break

    # repeats of one seeded study must write identical CSV bytes
    shas = [s["sha256"] for s in studies if "sha256" in s]
    for s in studies:
        if "sha256" in s and s["sha256"] != shas[0]:
            s["problems"].append(f"CSV sha256 {s['sha256'][:12]} differs from "
                                 f"the first repeat's {shas[0][:12]}")
    passed = [s for s in studies if not s["problems"]]
    failed = len(studies) - len(passed)
    plain = [s for s in passed if s["kind"] == "plain"]
    traced = [s for s in passed if s["kind"] == "traced"]
    for s in studies:
        if "setup_s" in s:
            setups.append(s["setup_s"])

    medians = {"setup_s": (statistics.median(setups), len(setups))}
    for key in ("study_s", "peak_rss_mb", "err_V_rel_mmax", "calib_s",
                "cpu_s"):
        medians[key] = median_of(plain, key)

    metrics = {}
    if args.trace:
        if plain and traced:
            layers = {k: statistics.median(t["layers"][k] for t in traced)
                      for k in traced[0]["layers"]}
            base = medians["study_s"][0]
            layers["trace.overhead_frac"] = (
                statistics.median(t["study_s"] for t in traced) - base) / base
            metrics = {k: {"value": layers[k], "unit": u}
                       for k, u in metric_units("per_layer").items()}
    elif plain:
        metrics = {k: {"value": medians[k][0], "unit": u}
                   for k, u in metric_units("end_to_end").items()}

    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(),
        "fail_rate": failed / len(studies),
        "medians": {k: {"value": v, "n": n} for k, (v, n) in medians.items()},
        "setup_samples": setups,
        "studies": [{k: v for k, v in s.items() if k != "layers"}
                    for s in studies],
    }
    print(json.dumps({"perfbench": details}))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(studies), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
