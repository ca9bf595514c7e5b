"""Grid-convergence check of the Q1 reference solver.

A manufactured smooth solution p = sin(pi x / 2) sin(pi y) with k = 1, b = 0
has the source F = 1.25 pi^2 p. The table prints discrete L2 and V norms of
the nodal error under uniform refinement: both show ratio 4 per step, since
the nodal values of a bilinear solution superconverge at second order (the
classical O(h) energy rate belongs to the H1 error of the interpolated
field, not to the coefficients).

Run:  python demos/reference_convergence.py
"""

import numpy as np

from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import (
    LiftingFunction,
    ProblemData,
    reference_operators,
    solve_reference,
)


def exact(x, y):
    return np.sin(np.pi * x / 2.0) * np.sin(np.pi * y)


def main():
    pd = ProblemData(
        k=lambda x, y: 1.0 + 0.0 * x,
        b1=lambda x, y: 0.0 * x,
        b2=lambda x, y: 0.0 * x,
        F=lambda x, y: 1.25 * np.pi ** 2 * exact(x, y),
        dirichlet=lambda x, y: 0.0 * x,
        omega_x=(0.0, 2.0),
        omega_y=(0.0, 1.0),
    )
    lift = LiftingFunction.zero()

    print("manufactured solution p = sin(pi x/2) sin(pi y), k=1, b=0\n")
    print("   grid        L2 error     ratio    V error      ratio")
    prev = None
    for nx, ny in ((10, 5), (20, 10), (40, 20), (80, 40)):
        grid = TensorGrid(build_uniform_partition(0.0, 2.0, nx),
                          build_uniform_partition(0.0, 1.0, ny))
        ops = reference_operators(pd, lift, grid)
        ref = solve_reference(ops)
        X, Y = grid.node_coords()
        e = (ref.coeffs - exact(X, Y)).ravel()[grid.interior_ids()]
        err_l2 = ops.l2_norm(e)
        err_v = ops.v_norm(e)
        if prev is None:
            print(f"  {nx:3d} x {ny:3d}   {err_l2:.3e}     --     "
                  f"{err_v:.3e}     --")
        else:
            print(f"  {nx:3d} x {ny:3d}   {err_l2:.3e}   {prev[0] / err_l2:5.2f}"
                  f"    {err_v:.3e}   {prev[1] / err_v:5.2f}")
        prev = (err_l2, err_v)
    print("\nboth nodal-error ratios approach 4: second-order accurate "
          "coefficients.")


if __name__ == "__main__":
    main()
