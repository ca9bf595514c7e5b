"""Per-study correctness gate on the convergence CSV that ``run_case`` writes.

A study passes when its process exited 0, its CSV holds rows m = 1..m_max
with every value finite, and the estimator identity holds: case 1 has no
advection (b = 0), so Delta_m = ||e_m||_V and delta_m / err_V_rel equals
the reference's V-norm in every row. Seeded repeats inside one benchmark run
must also write byte-identical CSVs; ``run.py`` compares their sha256.
"""

import csv
import hashlib
import math

# delta_m / err_V_rel spread measured at 6e-15..5e-13 over all workloads
RATIO_RTOL = 1e-9


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_rows(rows, m_max, rtol=RATIO_RTOL):
    """Return the reasons a study's CSV rows fail the gate (empty: pass)."""
    problems = []
    ms = [r.get("m") for r in rows]
    if ms != [str(m) for m in range(1, m_max + 1)]:
        problems.append(f"expected rows m=1..{m_max}, got m={ms}")
    ratios = []
    for r in rows:
        try:
            vals = {k: float(v) for k, v in r.items()}
        except (TypeError, ValueError):
            problems.append(f"unparsable row {r}")
            continue
        if not all(math.isfinite(v) for v in vals.values()):
            problems.append(f"non-finite value in row m={r.get('m')}")
            continue
        if vals["err_V_rel"] <= 0.0:
            problems.append(f"err_V_rel not positive in row m={r['m']}")
            continue
        ratios.append(vals["delta_m"] / vals["err_V_rel"])
    if ratios:
        lo, hi = min(ratios), max(ratios)
        spread = (hi - lo) / abs(hi) if hi else math.inf
        if spread > rtol:
            problems.append(
                f"delta_m/err_V_rel varies by {spread:.3e} relative "
                f"(tolerance {rtol:g})")
    return problems
