"""A posteriori model-error estimation for reduced tensor solutions.

The Riesz representative R_m of the reduced solution's residual solves
(R_m, v)_V = f(v) - a(p_m, v) on the full tensor grid; the estimator is
Delta_m = ||R_m||_V (the coercivity constant of the V-inner product is 1 by
construction). It bounds the V-norm error from above and, scaled by the
continuity constant, from below; without advection the symmetric identity
Delta_m = ||e_m||_V holds to round-off because the residual equation is then
the error equation. Delta_m is TensorOperators.residual_norm, as is the
training indicator: one Gram solve by PCG on G_int, preconditioned by the
exact inverse of the k = 1 Gram of the grid (fast diagonalisation), which
the reference solve at b = 0 builds and this reuses. It takes one iteration
for k = 1 and about sqrt(max k / min k) times more for a variable k; no
sparse factor is involved (SuperLU serves only the advective reference
solve).
error_report(ops, reference, rsol) takes the operators the reference and
the reduced solution were solved with, and checks that they were.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .problem import p1_interior


@dataclass
class ErrorReport:
    """One row of a model-reduction convergence study."""

    m: int
    err_V_rel: float
    err_L2_rel: float
    delta_m: float
    e_pod: float
    lambda_m: float
    pbar_norm: float

    FIELDS = ("m", "err_V_rel", "err_L2_rel", "delta_m", "e_pod",
              "lambda_m", "pbar_norm")

    def row(self):
        return [str(self.m)] + [
            f"{getattr(self, f):.17g}" for f in self.FIELDS[1:]
        ]


def reports_to_csv(reports, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ErrorReport.FIELDS)
        for r in reports:
            w.writerow(r.row())


def error_report(ops, reference, rsol):
    """Compare a reduced solution against the reference on the grid of ops.

    Relative errors are taken against the reference's norms; delta_m is the
    residual-based estimator, e_pod the POD truncation tail at this m,
    lambda_m the m-th POD energy and pbar_norm the L2(Omega_1D) norm of the
    m-th coefficient function (exact: the interior x-mass quadratic form of
    its nodal values, problem.p1_interior); the POD figures come from
    rsol.space.
    """
    if reference.ops is not ops or rsol.ops is not ops:
        raise ValueError("reference and reduced solutions were not solved "
                         "with these operators")
    space = rsol.space
    p_red = rsol.interior_vector()
    e = reference.interior_vector()
    e -= p_red
    ref_V, ref_L2 = reference.norms
    err_V = ops.v_norm(e) / ref_V if ref_V > 0 else ops.v_norm(e)
    err_L2 = ops.l2_norm(e) / ref_L2 if ref_L2 > 0 else ops.l2_norm(e)
    del e  # freed before the Gram solve of delta_m
    delta_m = ops.residual_norm(p_red)
    m = rsol.m
    lam = float(space.eigenvalues[m - 1]) if m <= space.eigenvalues.size else 0.0
    c = rsol.coeffs[m - 1]  # P1, zero at both ends of Omega_1D
    d, off = p1_interior(ops.grid.tx, "mass")
    pbar_norm = float(np.sqrt(c @ (d * c) + 2.0 * (off @ (c[:-1] * c[1:]))))
    return ErrorReport(
        m=m,
        err_V_rel=float(err_V),
        err_L2_rel=float(err_L2),
        delta_m=delta_m,
        e_pod=space.tail(m),
        lambda_m=lam,
        pbar_norm=pbar_norm,
    )
