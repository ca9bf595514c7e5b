"""One convergence study in a fresh interpreter, started by ``run.py``.

Usage: python3 perfbench/study.py WORKLOAD SEED OUT_CSV T0 {plain,traced,setup}

T0 is the parent's ``time.monotonic()`` just before it started this process
(CLOCK_MONOTONIC is system-wide), so ``setup_s`` covers interpreter start,
the numpy/scipy/skewlift imports, the case build and ``RunConfig.validate()``.
``setup`` stops there; ``plain`` then times one ``run_case`` call; ``traced``
times it with spans around the layers' entry points. The result is one JSON
line on stdout.
"""

import sys
import time


def main(argv):
    workload, seed, out, t0, kind = argv
    import json
    import resource

    import numpy  # noqa: F401  (timed as part of set-up)
    import scipy  # noqa: F401
    from skewlift import cases, cli

    from workloads import run_config_kwargs

    cfg = cli.RunConfig(**run_config_kwargs(workload, seed, out)).validate()
    cases.get_case(cfg.case)
    result = {"setup_s": time.monotonic() - float(t0)}
    if kind == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if kind == "traced":
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    t, c = time.perf_counter(), time.process_time()
    cli.run_case(cfg, log=lambda *a, **k: None)
    result["study_s"] = time.perf_counter() - t
    result["cpu_s"] = time.process_time() - c
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
