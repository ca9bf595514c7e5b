"""Residual-based model-error estimator and report serialization."""

import csv

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from skewlift.estimator import (
    ErrorReport,
    error_report,
    reports_to_csv,
)
from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import (
    LiftingFunction,
    ProblemData,
    reference_operators,
    solve_reference,
)
from skewlift.reduced import assemble_reduced, solve_reduced
from skewlift.training import ReductionSpace, transverse_mass


def _pd(b=(0.0, 0.0), scale=1.0):
    return ProblemData(
        k=lambda x, y: 1.0 + 0.2 * y,
        b1=lambda x, y: b[0] + 0.0 * x,
        b2=lambda x, y: b[1] + 0.0 * x,
        F=lambda x, y: scale * np.exp(0.4 * x) * (1.0 + np.sin(np.pi * y)),
        dirichlet=lambda x, y: 0.0 * x,
        omega_x=(0.0, 2.0),
        omega_y=(0.0, 1.0),
    )


def _sine_space(yh, m):
    j = np.arange(1, yh.n)
    cols = np.column_stack([np.sin(k * np.pi * j / yh.n) for k in range(1, m + 1)])
    M_int = transverse_mass(yh)[1:-1, 1:-1]
    cols = cols / np.sqrt(np.einsum("ij,ij->j", cols, M_int @ cols))
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
    # after the reference solve only G is solved with, so A's factor is
    # freed: one factor (G's) is cached after the estimator, as at b = 0
    ops, ref, _, rsol = _solve_pair(_pd(b=(1.0, 0.5)), 3)
    assert ops.G_int is not ops.A_int
    error_report(ops, ref, rsol)
    assert _held_factors(ops) == [ops.G_lu]
    ops0, ref0, _, rsol0 = _solve_pair(_pd(), 3)
    error_report(ops0, ref0, rsol0)
    assert ops0.G_int is ops0.A_int
    assert _held_factors(ops0) == [ops0.G_lu]


def test_estimator_equals_error_without_advection():
    pd = _pd(b=(0.0, 0.0))
    for m in (1, 2, 4):
        ops, ref, space, rsol = _solve_pair(pd, m)
        rep = error_report(ops, ref, rsol)
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
    assert rep.pbar_norm > 0.0
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
    import dataclasses

    wrong_mode = dataclasses.replace(ref, mode="delta_h")
    with pytest.raises(ValueError):
        error_report(ops, wrong_mode, rsol)
