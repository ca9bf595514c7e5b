"""Compare the four lifting treatments on the skewed-band test case.

One table, four convergence curves at small scale (reference 80 x 40,
indicator grid 10):

  gD      - no lifting: boundary data blended into the right-hand side; the
            skewed band must be approximated by tensor modes directly.
  lift    - weak lifting: the interface-carrying field h is subtracted
            through its bilinear form; the homogenized solution is mildly
            skewed only.
  riesz   - like lift, but the load is the Riesz representative of a(h, .),
            evaluated pointwise on the snapshot side.
  delta-h - strong-form lifting via k*Lap(h); with b = (3, -2) this drops
            the advective lifting term, so it converges to a slightly
            different limit yet needs very few modes.

Run:  python demos/mode_comparison.py      (a few seconds)
"""

import time

from skewlift.cli import RunConfig, run_case

SIZES = dict(case=1, NH=80, nh=40, NHp=10, g0=2, n_xi=3, theta=0.1, seed=0)


def sweep(mode, m_max):
    cfg = RunConfig(mode=mode, m_max=m_max,
                    out=f"mode_comparison_{mode.replace('-', '_')}.csv",
                    **SIZES).validate()
    t0 = time.perf_counter()
    reports = run_case(cfg, log=lambda *a, **k: None)
    return reports, time.perf_counter() - t0


def main():
    runs = {}
    for mode, m_max in (("gD", 8), ("lift", 8), ("riesz", 8), ("delta-h", 6)):
        print(f"training + sweeping mode {mode!r} (m_max={m_max}) ...",
              flush=True)
        reports, dt = sweep(mode, m_max)
        runs[mode] = {r.m: r.err_V_rel for r in reports}
        print(f"  done in {dt:.1f} s")

    print("\nrelative V-norm error of the reduced solution")
    print("   m      gD         lift       riesz      delta-h")
    for m in range(1, 9):
        row = [f"{runs[mode][m]:.3e}" if m in runs[mode] else "    --   "
               for mode in ("gD", "lift", "riesz", "delta-h")]
        print(f"   {m}   " + "   ".join(row))

    print("\nlift/riesz track each other (same load on the reference grid);")
    print("delta-h drops 3-4 orders within a handful of modes; gD lags the")
    print("lifted runs at every m. CSVs land in the working directory.")


if __name__ == "__main__":
    main()
