"""A posteriori model-error estimation for reduced tensor solutions.

The Riesz representative R_m of the reduced solution's residual solves
(R_m, v)_V = f(v) - a(p_m, v) on the full tensor grid; the estimator is
Delta_m = ||R_m||_V (the coercivity constant of the V-inner product is 1 by
construction). It bounds the V-norm error from above and, scaled by the
continuity constant, from below; without advection the symmetric identity
Delta_m = ||e_m||_V holds to round-off because the residual equation is then
the error equation. Delta_m is TensorOperators.residual_norm, as is the
training indicator; with b = 0 it reuses the reference solve's factor.
error_report(ops, reference, rsol) takes the operators the reference was
solved with.
"""

import csv
from dataclasses import dataclass

import numpy as np


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
    m-th coefficient function; the POD figures come from rsol.space.
    """
    grid = ops.grid
    if reference.grid.shape != grid.shape or rsol.grid.shape != grid.shape:
        raise ValueError("reference and reduced solutions live on different "
                         "grids")
    if reference.mode != ops.mode or rsol.mode != ops.mode:
        raise ValueError(
            f"mode mismatch: operators {ops.mode!r}, reference "
            f"{reference.mode!r}, reduced {rsol.mode!r}")
    space = rsol.space
    p_ref = reference.interior_vector()
    p_red = rsol.interior_vector()
    e = p_ref - p_red
    ref_V = ops.v_norm(p_ref)
    ref_L2 = ops.l2_norm(p_ref)
    err_V = ops.v_norm(e) / ref_V if ref_V > 0 else ops.v_norm(e)
    err_L2 = ops.l2_norm(e) / ref_L2 if ref_L2 > 0 else ops.l2_norm(e)
    m = rsol.m
    lam = float(space.eigenvalues[m - 1]) if m <= space.eigenvalues.size else 0.0
    pbar = rsol.pbar(m - 1)
    tx = grid.tx
    # L2(Omega_1D) norm of the P1 coefficient function (Simpson on elements)
    vals = pbar
    mid = 0.5 * (vals[:-1] + vals[1:])
    pbar_norm = float(np.sqrt(tx.h * np.sum(
        (vals[:-1] ** 2 + 4 * mid ** 2 + vals[1:] ** 2) / 6.0)))
    return ErrorReport(
        m=m,
        err_V_rel=float(err_V),
        err_L2_rel=float(err_L2),
        delta_m=ops.residual_norm(p_red),
        e_pod=space.tail(m),
        lambda_m=lam,
        pbar_norm=pbar_norm,
    )
