"""Benchmark case data: hand-derived derivatives vs finite differences."""

import numpy as np
import pytest

from skewlift.cases import (
    _A, _Ap, _App, _B, _Bp, _Bpp, _j, _jp, _jpp, _s, _sp, _spp,
    box_source, case1, case3, cosine_profile, detection_data, get_case,
    skew_lifting, smooth_part,
)

BAND = (0.8, 0.9)


def _fd1(f, t, e=1e-6):
    return (f(t + e) - f(t - e)) / (2 * e)


def _fd2(f, t, e=1e-5):
    return (f(t + e) - 2 * f(t) + f(t - e)) / e**2


def test_profile_derivatives_match_finite_differences():
    # stay clear of the two kinks at the band edges
    t = np.concatenate([
        np.linspace(0.0, 0.79, 20),
        np.linspace(0.81, 0.89, 20),
        np.linspace(0.91, 1.8, 20),
    ])
    np.testing.assert_allclose(_sp(t), _fd1(_s, t), atol=2e-4)
    np.testing.assert_allclose(_spp(t), _fd2(_s, t), atol=2e-2)


def test_profile_plateaus():
    assert _s(0.5) == pytest.approx(1.0)
    assert _s(1.2) == pytest.approx(0.1)
    # C^1 at the band edges
    assert _s(BAND[0]) == pytest.approx(1.0)
    assert _s(BAND[1]) == pytest.approx(0.1)
    assert _sp(BAND[0]) == pytest.approx(0.0)
    assert _sp(BAND[1]) == pytest.approx(0.0, abs=1e-12)


def test_separable_factors_match_finite_differences():
    y = np.linspace(0.02, 0.98, 25)
    x = np.linspace(0.02, 1.98, 25)
    np.testing.assert_allclose(_Ap(y), _fd1(_A, y), rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(_App(y), _fd2(_A, y), rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(_Bp(x), _fd1(_B, x), rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(_Bpp(x), _fd2(_B, x), rtol=1e-4, atol=2e-3)


def test_bump_derivatives_match_finite_differences():
    x = np.linspace(1.01, 1.59, 23)
    np.testing.assert_allclose(_jp(x), _fd1(_j, x), atol=1e-6)
    np.testing.assert_allclose(_jpp(x), _fd2(_j, x), atol=1e-3)
    # the bump vanishes smoothly at its ends and outside
    assert _j(0.9) == 0.0 and _j(1.7) == 0.0
    assert _j(1.0) == pytest.approx(0.0) and _j(1.6) == pytest.approx(0.0, abs=1e-15)


def test_skew_lifting_gradient_and_laplacian():
    lift = skew_lifting()
    rng = np.random.default_rng(7)
    # sample points whose skew coordinate avoids the band edges
    pts = []
    while len(pts) < 40:
        x, y = rng.uniform(0.05, 1.95), rng.uniform(0.05, 0.95)
        t = y + 0.4 * x
        if min(abs(t - BAND[0]), abs(t - BAND[1])) > 5e-3:
            pts.append((x, y))
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    e = 1e-6
    np.testing.assert_allclose(
        lift.dx(x, y),
        (lift.value(x + e, y) - lift.value(x - e, y)) / (2 * e), atol=2e-4)
    np.testing.assert_allclose(
        lift.dy(x, y),
        (lift.value(x, y + e) - lift.value(x, y - e)) / (2 * e), atol=2e-4)
    lap_fd = (
        lift.value(x + e, y) + lift.value(x - e, y)
        + lift.value(x, y + e) + lift.value(x, y - e)
        - 4.0 * lift.value(x, y)
    ) / e**2
    np.testing.assert_allclose(lift.laplacian(x, y), lap_fd, atol=5e-2)


def test_case1_source_consistent_with_exact_solution():
    # -Lap(p~) + b.grad(p~) == F wherever p~ is C^2
    cs = case1(b=(3.0, -2.0))
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 30:
        x, y = rng.uniform(0.05, 1.95), rng.uniform(0.05, 0.95)
        t = y + 0.4 * x
        if min(abs(t - BAND[0]), abs(t - BAND[1])) > 1e-2:
            pts.append((x, y))
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    e = 1e-5
    p = cs.exact_total
    lap = (p(x + e, y) + p(x - e, y) + p(x, y + e) + p(x, y - e)
           - 4.0 * p(x, y)) / e**2
    gx = (p(x + e, y) - p(x - e, y)) / (2 * e)
    gy = (p(x, y + e) - p(x, y - e)) / (2 * e)
    np.testing.assert_allclose(
        -lap + 3.0 * gx - 2.0 * gy, cs.problem.F(x, y), atol=5e-3)


def test_case3_source_consistent_with_bent_solution():
    cs = case3()
    rng = np.random.default_rng(5)
    pts = []
    while len(pts) < 30:
        x, y = rng.uniform(0.05, 1.95), rng.uniform(0.05, 0.95)
        t = y + 0.4 * x - _j(np.asarray(x))
        # also avoid the bump's own edges where j'' jumps
        if (min(abs(t - BAND[0]), abs(t - BAND[1])) > 1e-2
                and min(abs(x - 1.0), abs(x - 1.6)) > 1e-2):
            pts.append((x, y))
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    e = 1e-5
    p = cs.exact_total
    lap = (p(x + e, y) + p(x - e, y) + p(x, y + e) + p(x, y - e)
           - 4.0 * p(x, y)) / e**2
    np.testing.assert_allclose(-lap, cs.problem.F(x, y), atol=5e-3)


def test_case1_homogenized_part_is_separable():
    cs = case1()
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 2.0, 50)
    y = rng.uniform(0.0, 1.0, 50)
    np.testing.assert_allclose(
        cs.exact_total(x, y) - cs.lift.value(x, y), smooth_part(x, y),
        atol=1e-14)


@pytest.mark.parametrize("case", [case1, case3])
def test_exact_solution_is_lifting_trace_on_boundary(case):
    # the solver takes the boundary data from the lifting it is handed, so
    # the closed-form solution must equal case.lift on the boundary; case 3's
    # bend stays off x = 0, 2 and keeps its band clear of y = 0, 1
    cs = case()
    (x0, x1), (y0, y1) = cs.problem.omega_x, cs.problem.omega_y
    t = np.linspace(0.0, 1.0, 401)
    x = np.concatenate([x0 + (x1 - x0) * t, x0 + (x1 - x0) * t,
                        np.full(t.size, x0), np.full(t.size, x1)])
    y = np.concatenate([np.full(t.size, y0), np.full(t.size, y1),
                        y0 + (y1 - y0) * t, y0 + (y1 - y0) * t])
    h = cs.lift.value(x, y)
    assert np.any((h > 0.1) & (h < 1.0))  # the sides cross the band
    np.testing.assert_array_equal(cs.exact_total(x, y), h)


def test_box_source_values_and_edges():
    # inside two different boxes
    assert box_source(0.25, 0.15) == pytest.approx(2.25)
    assert box_source(1.0, 0.25) == pytest.approx(4.0)
    # outside every box
    assert box_source(0.5, 0.5) == 0.0
    # the stacked pair at x in [1.25, 1.45] meets half-open at y = 0.55,
    # so the shared edge counts only the upper (value 2) box
    assert box_source(1.35, 0.54) == pytest.approx(4.0)
    assert box_source(1.35, 0.55) == pytest.approx(2.0)
    # vectorized broadcast
    out = box_source(np.array([0.25, 0.5]), 0.15)
    np.testing.assert_allclose(out, [2.25, 0.0])


def test_case2_domain_and_flags():
    cs = get_case(2)
    assert cs.problem.omega_y == (0.0, 1.1)
    assert cs.exact_total is None  # no closed-form solution


def test_get_case_rejects_unknown():
    with pytest.raises(KeyError):
        get_case(9)


def test_detection_data_registry():
    f = detection_data("case1-f")
    g = detection_data("case1-f-adv")
    step = detection_data("step")
    x = np.array([0.5]); y = np.array([0.3])
    assert np.isfinite(f(x, y)).all()
    # the advective variant differs from the plain source
    assert not np.allclose(f(x, y), g(x, y))
    assert step(0.3, 0.2) == 1.0 and step(0.3, 0.7) == 0.0
    with pytest.raises(KeyError):
        detection_data("nope")


def test_cosine_profile_uses_analytic_derivatives():
    prof = cosine_profile()
    t = 0.85
    assert prof.deriv(t) == pytest.approx(_sp(t))
    assert prof.second_deriv(t) == pytest.approx(_spp(t))
