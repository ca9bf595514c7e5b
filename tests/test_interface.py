"""Interface detection, lifting construction and the groundwater model."""

import csv

import numpy as np
import pytest

from skewlift.cases import cosine_profile, detection_data, skew_lifting
from skewlift.interface import (
    InterfaceCurve,
    InterfaceNotFoundError,
    Profile1D,
    WaterTable,
    boussinesq_steady_profile,
    build_lifting,
    locate_interface,
    solve_boussinesq,
)
from skewlift.mesh import build_uniform_partition


def test_locate_banded_source_within_band_width():
    # the steep band of the case-1 source sits on y = 0.85 - 0.4 x
    coarse = build_uniform_partition(0.0, 2.0, 20)
    fine = build_uniform_partition(0.0, 1.0, 100)
    curve = locate_interface(detection_data("case1-f"), coarse, fine,
                             mode="min")
    expected = 0.85 - 0.4 * curve.xs
    assert np.abs(curve.ys_lo - expected).max() <= 0.06


def test_locate_step_data():
    coarse = build_uniform_partition(0.0, 2.0, 8)
    fine = build_uniform_partition(0.0, 1.0, 50)
    curve = locate_interface(detection_data("step"), coarse, fine, mode="min")
    assert np.abs(curve.ys_lo - 0.5).max() <= fine.h


def test_locate_both_returns_ordered_lines():
    coarse = build_uniform_partition(0.0, 2.0, 10)
    fine = build_uniform_partition(0.0, 1.0, 80)
    curve = locate_interface(detection_data("case1-f"), coarse, fine,
                             mode="both")
    assert curve.ys_hi is not None
    assert np.all(curve.ys_lo <= curve.ys_hi)


def test_locate_rejects_flat_data():
    coarse = build_uniform_partition(0.0, 2.0, 5)
    fine = build_uniform_partition(0.0, 1.0, 20)
    with pytest.raises(InterfaceNotFoundError):
        locate_interface(lambda x, y: np.ones(np.broadcast(x, y).shape),
                         coarse, fine)
    with pytest.raises(ValueError):
        locate_interface(detection_data("step"), coarse, fine, mode="peak")


def test_curve_csv_roundtrip(tmp_path):
    # to_csv writes every station at full precision: floats read back equal
    xs = np.linspace(0.1, 1.9, 7)
    for ys_hi in (None, 0.95 - 0.4 * xs):
        curve = InterfaceCurve(xs, 0.85 - 0.4 * xs, ys_hi)
        path = tmp_path / "interface.csv"
        curve.to_csv(path)
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["x", "y_lo", "y_hi"]
        assert [float(r[0]) for r in rows] == curve.xs.tolist()
        assert [float(r[1]) for r in rows] == curve.ys_lo.tolist()
        if ys_hi is None:  # one midline: the y_hi column is left empty
            assert all(r[2] == "" for r in rows)
        else:
            assert [float(r[2]) for r in rows] == ys_hi.tolist()


def test_build_lifting_reproduces_straight_skew():
    # stations on the exact midline reproduce h(x, y) = s(y + 0.4 x)
    xs = np.linspace(0.05, 1.95, 20)
    curve = InterfaceCurve(xs, 0.85 - 0.4 * xs)
    built = build_lifting(curve, cosine_profile(), (0.0, 2.0), (0.0, 1.0))
    ref = skew_lifting()
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 2.0, 60)
    y = rng.uniform(0.0, 1.0, 60)
    np.testing.assert_allclose(built.value(x, y), ref.value(x, y), atol=1e-12)
    np.testing.assert_allclose(built.dx(x, y), ref.dx(x, y), atol=1e-10)
    np.testing.assert_allclose(built.dy(x, y), ref.dy(x, y), atol=1e-12)
    # piecewise-linear midline has no second derivative -> no Laplacian
    assert built.laplacian is None


def test_build_lifting_smooth_midline_laplacian():
    xs = np.linspace(0.05, 1.95, 20)
    curve = InterfaceCurve(xs, 0.85 - 0.4 * xs)
    built = build_lifting(curve, cosine_profile(), (0.0, 2.0), (0.0, 1.0),
                          smooth=True)
    ref = skew_lifting()
    assert built.laplacian is not None
    rng = np.random.default_rng(9)
    x = rng.uniform(0.1, 1.9, 40)
    y = rng.uniform(0.0, 1.0, 40)
    # PCHIP through collinear stations is the line itself
    np.testing.assert_allclose(built.value(x, y), ref.value(x, y), atol=1e-10)
    np.testing.assert_allclose(built.laplacian(x, y), ref.laplacian(x, y),
                               atol=1e-8)


def test_build_lifting_checks_profile_domain():
    xs = np.linspace(0.05, 1.95, 5)
    curve = InterfaceCurve(xs, 0.85 - 0.4 * xs)
    narrow = Profile1D(value=lambda t: np.tanh(t),
                       deriv=lambda t: 1 / np.cosh(t) ** 2, domain=(0.0, 1.0))
    with pytest.raises(ValueError):
        build_lifting(curve, narrow, (0.0, 2.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        build_lifting(InterfaceCurve(xs[:1], np.array([0.8])),
                      cosine_profile(), (0.0, 2.0), (0.0, 1.0))


@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("xs", [[0.5, 0.5, 1.5], [1.5, 0.5],
                                [0.5, np.nan, 1.5]])
def test_build_lifting_rejects_bad_stations(xs, smooth):
    # unchecked, the linear path turns duplicates into NaN slopes and
    # misreads unsorted stations (searchsorted needs sorted input)
    xs = np.array(xs)
    curve = InterfaceCurve(xs, 0.85 - 0.4 * xs)
    with pytest.raises(ValueError, match="strictly increasing"):
        build_lifting(curve, cosine_profile(), (0.0, 2.0), (0.0, 1.0),
                      smooth=smooth)


def test_boussinesq_reaches_closed_form_steady_state():
    part = build_uniform_partition(0.0, 1.0, 60)
    bc = (1.0, 0.7)
    K, N = 1.2, 0.1
    w0 = np.linspace(bc[0], bc[1], part.n + 1)
    wt = WaterTable(part, w0, K, N)
    _, W = solve_boussinesq(wt, dt=0.02, t_end=30.0, bc=bc)
    exact = boussinesq_steady_profile(part, K, N, bc)
    assert np.abs(W[-1] - exact).max() <= 1e-6


def test_boussinesq_recharge_free_table_stays_bounded():
    part = build_uniform_partition(0.0, 1.0, 40)
    bc = (1.0, 0.6)
    w0 = np.linspace(bc[0], bc[1], part.n + 1)
    wt = WaterTable(part, w0, K=0.8, N=0.0)
    _, W = solve_boussinesq(wt, dt=0.05, t_end=10.0, bc=bc)
    assert W.min() >= bc[1] - 1e-10
    assert W.max() <= bc[0] + 1e-10
    # without recharge the squared height relaxes to a straight line
    exact = boussinesq_steady_profile(part, 0.8, 0.0, bc)
    assert np.abs(W[-1] - exact).max() <= 1e-5


def test_boussinesq_input_validation():
    part = build_uniform_partition(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        WaterTable(part, np.ones(4), 1.0, 0.0)
    wt = WaterTable(part, np.ones(11), 1.0, 0.0)
    with pytest.raises(ValueError):
        solve_boussinesq(wt, dt=-0.1, t_end=1.0, bc=(1.0, 1.0))


@pytest.mark.parametrize("dt, t_end", [(0.3, 1.0), (1.0, 0.4)])
def test_boussinesq_rejects_partial_steps(dt, t_end):
    # a rounded step count would stop at t = 0.9 for (0.3, 1.0) and take no
    # step at all for (1.0, 0.4)
    part = build_uniform_partition(0.0, 1.0, 10)
    wt = WaterTable(part, np.ones(11), 1.0, 0.0)
    with pytest.raises(ValueError, match="whole number of steps"):
        solve_boussinesq(wt, dt=dt, t_end=t_end, bc=(1.0, 1.0))


def test_steady_profile_rejects_drained_table():
    part = build_uniform_partition(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        boussinesq_steady_profile(part, K=1.0, N=2.0, bc=(0.3, 0.3))
