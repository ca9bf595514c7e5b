"""Regenerate tests/golden_studies.csv, the seeded rows of the console-script
studies that CI runs (16x10 grids, NHp 4, m_max 2, seed 0): case 1 in every
mode and qbar, cases 2 and 3 in every mode at qbar 2.

Each study is one `skewlift run`; the golden file holds every row of its CSV,
all seven columns, behind a `study` column naming it. Run from the
repository root, with one BLAS thread as CI does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/make_golden.py

A change that moves a row beyond the tolerance of
tests/test_cli.py::test_console_studies_match_the_golden_rows is a behaviour
change: report it, then regenerate.
"""

import csv
import os
import sys
import tempfile

from skewlift import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_studies.csv")
_BASE = ["--NH", "16", "--nh", "10", "--NHp", "4", "--m-max", "2"]
STUDIES = {f"{mode}-qbar{q}": _BASE + ["--mode", mode, "--qbar", str(q)]
           for mode in ("lift", "gD", "delta-h") for q in (1, 2, 3)}
STUDIES["lift-imax2"] = _BASE + ["--i-max", "2"]
STUDIES["lift-nh2"] = ["--NH", "16", "--nh", "2", "--NHp", "4", "--m-max", "1"]
STUDIES.update({f"case{case}-{mode}": _BASE + ["--case", str(case),
                                              "--mode", mode]
                for case in (2, 3) for mode in ("lift", "gD", "delta-h")})


def run_study(name, folder):
    """The CSV rows (header first) of study name, run into folder."""
    out = os.path.join(folder, f"{name}.csv")
    code = cli.main(["run", *STUDIES[name], "--out", out])
    if code != 0:
        raise RuntimeError(f"study {name} exited with code {code}")
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_golden():
    """{study: rows without the header} of the golden file."""
    with open(GOLDEN, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    golden = {}
    for study, *row in rows:
        golden.setdefault(study, []).append(row)
    return golden


def main():
    with tempfile.TemporaryDirectory() as folder:
        tables = {name: run_study(name, folder) for name in STUDIES}
    with open(GOLDEN, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["study"] + next(iter(tables.values()))[0])
        for name, (_, *rows) in tables.items():
            w.writerows([name] + row for row in rows)
    print(f"wrote {GOLDEN} ({len(tables)} studies)", file=sys.stderr)


if __name__ == "__main__":
    main()
