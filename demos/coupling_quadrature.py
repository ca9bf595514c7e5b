"""How parameter points turn into coupled transverse systems.

Snapshots come from a 1D problem in y whose x-resolution is collapsed to a
few parameter points. Two mechanisms make those few points carry global
information:

  * node deletion  - when consecutive points are separated by a full mesh
    node range, the nodes strictly inside are removed and the surviving hats
    stretch across the gap, so the points' basis functions overlap;
  * gap quadrature - a midpoint is inserted into each such gap and every
    point owns the x-interval up to the handover to its neighbour, so the
    weights tile the domain exactly.

The second half of the script shows why the number of points matters less
than where they land: a single point placed strictly inside an element
activates both hats of that element (still a coupled 2-component system),
while a point pinned exactly on a mesh node leaves one isolated hat -- the
genuinely uncoupled system whose reduced spaces cannot mix x-information.

Run:  python demos/coupling_quadrature.py
"""

import numpy as np

from skewlift.cases import case1
from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import reference_operators
from skewlift.transverse import (
    TransverseSolver,
    augment_quadrature,
    build_coupled_basis,
)


def describe(th, mu):
    cb = build_coupled_basis(th, mu)
    rule = augment_quadrature(th, mu)
    deleted = sorted(set(range(th.n + 1)) - set(cb.kept_nodes.tolist()))
    print(f"mu = {mu}")
    print(f"  kept nodes     : {cb.kept_nodes.tolist()} "
          f"(deleted: {deleted or 'none'})")
    print(f"  active hats    : {cb.active.tolist()}")
    print(f"  quadrature pts : {np.round(rule.points, 3).tolist()} "
          f"({rule.qhat} inserted)")
    print(f"  weights        : {np.round(rule.weights, 3).tolist()} "
          f"(sum {rule.weights.sum():.3f} = |domain|)")
    print()


def main():
    th = build_uniform_partition(0.0, 2.0, 4)  # H = 0.5
    print("dominant-direction mesh: 4 elements, H = 0.5, nodes at "
          f"{np.round(th.nodes, 2).tolist()}\n")

    describe(th, (0.25, 1.75))   # far apart: node deletion + gap midpoint
    describe(th, (0.6, 1.2))     # adjacent elements: nothing deleted
    describe(th, (0.9,))         # single generic point

    print("single-sample coupling on the banded test case:")
    case = th_case_solver()
    for mu in ((0.9,), (1.0,)):
        # one row per active hat, in cb.active order
        snaps = case.solve_many([mu])[0]
        comps = build_coupled_basis(case.th, mu).active.tolist()
        kind = "coupled pair" if len(snaps) > 1 else "isolated hat"
        print(f"  mu = {mu}: {len(snaps)} snapshot component(s) "
              f"{comps} -> {kind}")
    print("\na generic sample activates both hats of its element; only a")
    print("sample sitting exactly on a node produces the uncoupled")
    print("one-component system. Training drawn uniformly at random never")
    print("pins nodes, which is why even one-point training keeps improving")
    print("at small scale; multi-point samples make coupling unconditional.")


def th_case_solver():
    case = case1()
    th = build_uniform_partition(0.0, 2.0, 10)
    yh = build_uniform_partition(0.0, 1.0, 20)
    ops = reference_operators(case.problem, case.lift, TensorGrid(th, yh))
    return TransverseSolver(case.problem, ops.snapshot_source(), th, yh)


if __name__ == "__main__":
    main()
