"""Watch the training domain refine itself around informative parameters.

Training samples are tuples of x-positions drawn from cells of a parameter
box. After each model extension the cells are scored (smallest indicator
eta first, plus an age escape hatch sigma), the marked ones bisect into
fresh children, and the survivors age. The run below prints the cell
population before and after, then compresses all snapshots with POD and
shows the energy tail that drives the reduced-space quality.

An eta of "--" marks an unscored cell: before the run every cell, after it
the children of the last round, which would be scored at the next
extension (their snapshots are already in the pool).

Run:  python demos/adaptive_training.py      (a few seconds)
"""

import math

import numpy as np

from skewlift.cases import case1
from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import reference_operators
from skewlift.training import adaptive_train_extension, initial_cells, pod


def show_cells(cells, label, limit=None):
    rows = cells if limit is None else sorted(cells, key=lambda c: c.volume())
    rows = rows[:limit] if limit else rows
    print(f"{label} ({len(cells)} cells)")
    print("   id    lo              hi              rho   eta         samples")
    for c in rows:
        eta = "   --    " if math.isnan(c.eta) else f"{c.eta:.3e}"
        lo = "(" + ", ".join(f"{v:.3f}" for v in c.lo) + ")"
        hi = "(" + ", ".join(f"{v:.3f}" for v in c.hi) + ")"
        print(f"  {c.id:3d}   {lo:15s} {hi:15s}  {c.rho:2d}   {eta}   "
              f"{len(c.samples)}")
    if limit and len(cells) > limit:
        print(f"  ... and {len(cells) - limit} more")
    print()


def summarize(cells):
    widths = [float(np.max(c.hi - c.lo)) for c in cells]
    rhos = [c.rho for c in cells]
    vol = sum(c.volume() for c in cells)
    print(f"  cell widths {min(widths):.4f} .. {max(widths):.4f}, "
          f"ages rho {min(rhos)} .. {max(rhos)}, "
          f"total volume {vol:.3f} (box is 4.0)\n")


def main():
    case = case1()
    th = build_uniform_partition(0.0, 2.0, 40)
    yh = build_uniform_partition(0.0, 1.0, 20)

    rng = np.random.Generator(np.random.Philox(0))
    start = initial_cells((0.0, 2.0), qbar=2, n_per_dim=2, n_xi=2,
                          rng=rng, th=th)
    show_cells(start, "initial 2x2 grid over the (mu_1, mu_2) box")

    # the reference operators fix the lifting mode (weak lifting by default)
    # and with it the snapshot problem and the coarse indicator operators
    ops = reference_operators(case.problem, case.lift, TensorGrid(th, yh))
    result = adaptive_train_extension(
        ops, 2, m_max=4, i_max=1, n_xi=2, theta=0.25, sigma_thres=30.0,
        coarse_nhp=10, qbar=2, seed=0)
    show_cells(result.cells,
               "after 4 extension steps (10 smallest cells shown)", limit=10)
    print("  eta -- : the last round's children, scored at the next "
          "extension\n")
    summarize(result.cells)

    print(f"snapshot pool: {len(result.snapshots)} transverse solves "
          f"(cached, sorted by (mu, component))")
    space = pod(result.snapshots, yh)
    print(f"POD keeps {space.m} numerically independent modes")
    print("  m   energy tail e_m")
    for m in range(0, min(8, space.m) + 1):
        print(f"  {m}   {space.pod_tail[m]:.3e}")
    print("\nthe tail is the best-case relative error of an m-mode space on")
    print("the training snapshots; marked cells concentrate where extra")
    print("samples still move it.")


if __name__ == "__main__":
    main()
