"""Residual-based model-error estimator and report serialization."""

import csv
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import same_bits
from skewlift import problem
from skewlift.cases import get_case
from skewlift.estimator import (
    ErrorReport,
    error_report,
    reports_to_csv,
)
from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import (
    LiftingFunction,
    ProblemData,
    p1_interior,
    reference_operators,
    solve_reference,
)
from skewlift.reduced import assemble_reduced, solve_reduced
from skewlift.training import ReductionSpace


def _pd(b=(0.0, 0.0), scale=1.0):
    return ProblemData(
        k=lambda x, y: 1.0 + 0.2 * y,
        b1=lambda x, y: b[0] + 0.0 * x,
        b2=lambda x, y: b[1] + 0.0 * x,
        F=lambda x, y: scale * np.exp(0.4 * x) * (1.0 + np.sin(np.pi * y)),
        omega_x=(0.0, 2.0),
        omega_y=(0.0, 1.0),
    )


def _sine_space(yh, m):
    j = np.arange(1, yh.n)
    cols = np.column_stack([np.sin(k * np.pi * j / yh.n) for k in range(1, m + 1)])
    d, e = p1_interior(yh, "mass")
    cols = cols / np.sqrt(d @ cols**2 + 2.0 * e @ (cols[:-1] * cols[1:]))
    modes = np.zeros((yh.n + 1, m))
    modes[1:-1, :] = cols
    return ReductionSpace(yh, modes, np.ones(m), np.zeros(m + 1))


def _solve_pair(pd, m, nx=40, ny=20):
    th = build_uniform_partition(0.0, 2.0, nx)
    yh = build_uniform_partition(0.0, 1.0, ny)
    grid = TensorGrid(th, yh)
    lift = LiftingFunction.zero()
    ops = reference_operators(pd, lift, grid, "weak_lifting")
    ref = solve_reference(ops)
    space = _sine_space(yh, m)
    rsol = solve_reduced(assemble_reduced(ops, space))
    return ops, ref, space, rsol


def _held_factors(ops):
    return [v for v in vars(ops).values() if isinstance(v, spla.SuperLU)]


def test_advective_study_keeps_only_the_gram_factor():
    # the Gram solves run by PCG and A's factor is local to the reference
    # solve, so after the estimator the operators hold no sparse factor,
    # only the Gram preconditioner, with or without advection
    for b in ((1.0, 0.5), (0.0, 0.0)):
        ops, ref, _, rsol = _solve_pair(_pd(b=b), 3)
        assert (ops.G_int is ops.A_int) == (b == (0.0, 0.0))
        error_report(ops, ref, rsol)
        assert _held_factors(ops) == []
        assert isinstance(vars(ops)["_gram_preconditioner"],
                          problem._LaplaceGramInverse)


def test_error_report_peak_memory():
    # a report holds the reduced state and the error (freed before the Gram
    # solve), then the residual and PCG's iterates, residuals and
    # directions, updated in place, plus G p or the preconditioner's two
    # arrays: 7 interior vectors above its inputs (measured 7.0; 13.0 when
    # each step formed new arrays)
    ops, ref, _, rsol = _solve_pair(_pd(), 3, nx=200, ny=100)
    error_report(ops, ref, rsol)  # the reference norms, first-call arrays
    tracemalloc.start()
    try:
        error_report(ops, ref, rsol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vectors = peak / (8.0 * ops.rhs_int.size)
    assert vectors < 8.0, (f"error_report peaks at {vectors:.2f} interior "
                           f"float64 vectors above its inputs (limit 8)")


def test_estimator_equals_error_without_advection():
    # nx = 2 has one interior x-column, whose interior values are contiguous
    # in the reference's coefficients: error_report subtracts in place, so
    # the reference must come out unchanged
    pd = _pd(b=(0.0, 0.0))
    for nx, m in ((40, 1), (40, 2), (40, 4), (2, 2)):
        ops, ref, space, rsol = _solve_pair(pd, m, nx=nx)
        coeffs = ref.coeffs.copy()
        rep = error_report(ops, ref, rsol)
        assert same_bits(ref.coeffs, coeffs)
        err_V = ops.v_norm(ref.interior_vector() - rsol.interior_vector())
        assert abs(rep.delta_m - err_V) <= 1e-8 * err_V


def test_estimator_bounds_error_with_advection():
    pd = _pd(b=(100.0, 7.0))
    for m in (1, 2, 4):
        ops, ref, space, rsol = _solve_pair(pd, m)
        rep = error_report(ops, ref, rsol)
        err_V = ops.v_norm(ref.interior_vector() - rsol.interior_vector())
        assert err_V <= rep.delta_m + 1e-8
        assert rep.delta_m > 0.0


def test_relative_errors_are_scale_invariant():
    reps = []
    for scale in (1.0, 37.5):
        pd = _pd(b=(5.0, 1.0), scale=scale)
        ops, ref, space, rsol = _solve_pair(pd, 2)
        reps.append(error_report(ops, ref, rsol))
    assert reps[0].err_V_rel == pytest.approx(reps[1].err_V_rel, rel=1e-12)
    assert reps[0].err_L2_rel == pytest.approx(reps[1].err_L2_rel, rel=1e-12)
    # absolute quantities scale linearly instead
    assert reps[1].delta_m == pytest.approx(37.5 * reps[0].delta_m, rel=1e-10)


def test_v_error_decreases_with_nested_spaces():
    pd = _pd(b=(0.0, 0.0))
    errs = []
    for m in (1, 2, 3, 4):
        ops, ref, space, rsol = _solve_pair(pd, m)
        errs.append(error_report(ops, ref, rsol).err_V_rel)
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_report_fields_and_csv_roundtrip(tmp_path):
    pd = _pd(b=(3.0, -2.0))
    ops, ref, space, rsol = _solve_pair(pd, 2)
    rep = error_report(ops, ref, rsol)
    assert rep.m == 2
    assert rep.e_pod == space.tail(2)
    assert rep.lambda_m == space.eigenvalues[1]
    # pbar_norm against Simpson's rule on the elements, exact for the
    # square of a P1 function that vanishes at both ends
    vals = np.concatenate([[0.0], rsol.coeffs[1], [0.0]])
    mid = 0.5 * (vals[:-1] + vals[1:])
    simpson = np.sqrt(ops.grid.tx.h * np.sum(
        (vals[:-1] ** 2 + 4 * mid ** 2 + vals[1:] ** 2) / 6.0))
    assert rep.pbar_norm == pytest.approx(simpson, rel=1e-14, abs=0.0)
    path = tmp_path / "reports.csv"
    reports_to_csv([rep], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(ErrorReport.FIELDS)
    assert len(rows) == 2
    parsed = [float(v) for v in rows[1][1:]]
    assert parsed[0] == pytest.approx(rep.err_V_rel, rel=1e-15)
    assert parsed[2] == pytest.approx(rep.delta_m, rel=1e-15)


def test_error_report_rejects_mismatched_inputs():
    pd = _pd()
    ops, ref, space, rsol = _solve_pair(pd, 2)
    _, _, _, other = _solve_pair(pd, 2, nx=30, ny=14)
    with pytest.raises(ValueError):
        error_report(ops, ref, other)
    wrong_mode = solve_reference(
        reference_operators(pd, ops.lift, ops.grid, "delta_h"))
    with pytest.raises(ValueError):
        error_report(ops, wrong_mode, rsol)


def test_error_report_rejects_a_reference_of_another_problem():
    # cases 1 and 3 share the domain, so their solutions have the same grid
    # and mode; a reference solved for case 3 is not case 1's reference
    th = build_uniform_partition(0.0, 2.0, 20)
    yh = build_uniform_partition(0.0, 1.0, 10)
    solved = []
    for case in (1, 3):
        cs = get_case(case)
        ops = reference_operators(cs.problem, cs.lift, TensorGrid(th, yh),
                                  "weak_lifting")
        rsol = solve_reduced(assemble_reduced(ops, _sine_space(yh, 2)))
        solved.append((ops, solve_reference(ops), rsol))
    (ops1, ref1, rsol1), (_, ref3, rsol3) = solved
    assert ref3.coeffs.shape == ref1.coeffs.shape
    with pytest.raises(ValueError, match="not solved with these operators"):
        error_report(ops1, ref3, rsol1)
    with pytest.raises(ValueError, match="not solved with these operators"):
        error_report(ops1, ref1, rsol3)
    assert error_report(ops1, ref1, rsol1).err_V_rel < 1.0
