"""Coupled transverse basis, augmented quadrature, and snapshot solves."""

import dataclasses

import numpy as np
import pytest

from skewlift.cases import skew_lifting
from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import (GridField, LiftingFunction, ProblemData,
                              reference_operators)
from skewlift.transverse import (
    QuadPointsInSameElement,
    TransverseSolver,
    assemble_transverse,
    augment_quadrature,
    build_coupled_basis,
    snapshot_solve,
)


def _pd(k=None, b1=None, b2=None, F=None, omega_x=(0.0, 2.0), omega_y=(0.0, 1.0)):
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    return ProblemData(
        k=k or (lambda x, y: np.ones(np.broadcast(x, y).shape)),
        b1=b1 or zero,
        b2=b2 or zero,
        F=F or (lambda x, y: np.ones(np.broadcast(x, y).shape)),
        dirichlet=zero,
        omega_x=omega_x,
        omega_y=omega_y,
    )


# ---------------------------------------------------------------------------
# Coupled basis: node deletion and long hats


def test_gap_deletion_and_long_hats():
    th = build_uniform_partition(0.0, 2.0, 4)  # H = 0.5
    cb = build_coupled_basis(th, (0.25, 1.75))
    # nodes strictly inside (ceil(0.25/H)H, floor(1.75/H)H) = (0.5, 1.5) go
    assert cb.kept_nodes.tolist() == [0, 1, 3, 4]
    assert np.allclose(cb.kept_x, [0.0, 0.5, 1.5, 2.0])
    assert cb.active.tolist() == [1, 3]
    # the surviving hats stretch over the deleted range
    assert cb.value(1, 0.5) == 1.0
    assert cb.value(1, 1.0) == pytest.approx(0.5)
    assert cb.value(3, 1.0) == pytest.approx(0.5)
    assert cb.value(1, 1.5) == 0.0
    assert cb.deriv(1, 0.7) == pytest.approx(-1.0)
    assert cb.deriv(1, 0.2) == pytest.approx(2.0)
    # right-continuous switch at the hat center
    assert cb.deriv(1, 0.5) == pytest.approx(-1.0)
    with pytest.raises(KeyError):
        cb.value(2, 1.0)


def test_adjacent_elements_keep_all_nodes():
    th = build_uniform_partition(0.0, 2.0, 4)
    cb = build_coupled_basis(th, (0.6, 1.2))
    assert cb.kept_nodes.tolist() == [0, 1, 2, 3, 4]
    assert cb.active.tolist() == [1, 2, 3]


def test_single_point_on_a_node():
    th = build_uniform_partition(0.0, 2.0, 4)
    cb = build_coupled_basis(th, (1.0,))
    assert cb.kept_nodes.tolist() == [0, 1, 2, 3, 4]
    assert cb.active.tolist() == [2]
    rule = augment_quadrature(th, (1.0,))
    assert np.allclose(rule.points, [1.0])
    assert np.allclose(rule.weights, [2.0])
    assert rule.qhat == 0


def test_same_element_parameters_rejected():
    th = build_uniform_partition(0.0, 2.0, 4)
    with pytest.raises(QuadPointsInSameElement):
        build_coupled_basis(th, (0.6, 0.9))


def test_parameters_must_be_interior():
    th = build_uniform_partition(0.0, 2.0, 4)
    with pytest.raises(ValueError):
        build_coupled_basis(th, (0.0, 1.0))
    with pytest.raises(ValueError):
        augment_quadrature(th, ())


# ---------------------------------------------------------------------------
# Augmented quadrature


def test_quadrature_worked_examples():
    th = build_uniform_partition(0.0, 2.0, 4)
    # distant pair: midpoint inserted, handover at empty-range midpoints
    rule = augment_quadrature(th, (0.25, 1.75))
    assert np.allclose(rule.points, [0.25, 1.0, 1.75])
    assert np.allclose(rule.weights, [0.75, 0.5, 0.75])
    assert (rule.qbar, rule.qhat) == (2, 1)
    # adjacent-element pair: handover at the shared edge, weights H-like
    rule = augment_quadrature(th, (0.6, 1.2))
    assert np.allclose(rule.points, [0.6, 1.2])
    assert np.allclose(rule.weights, [1.0, 1.0])
    assert (rule.qbar, rule.qhat) == (2, 0)


def test_quadrature_weights_tile_the_domain():
    rng = np.random.default_rng(2024)
    for trial in range(40):
        n = int(rng.integers(6, 40))
        a = float(rng.uniform(-1.0, 1.0))
        b = a + float(rng.uniform(1.0, 4.0))
        th = build_uniform_partition(a, b, n)
        qbar = int(rng.integers(1, 5))
        for _attempt in range(200):
            mu = np.sort(rng.uniform(a + 1e-9, b - 1e-9, size=qbar))
            els = np.clip(((mu - a) / th.h).astype(int), 0, n - 1)
            if np.unique(els).size == qbar:
                break
        else:  # pragma: no cover - rng always finds a valid draw
            continue
        rule = augment_quadrature(th, mu)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(b - a, rel=1e-12)
        assert np.all(np.diff(rule.points) > 0)
        gaps = sum(
            1
            for l in range(qbar - 1)
            if np.floor((mu[l + 1] - a) / th.h) - np.floor((mu[l] - a) / th.h) >= 2
        )
        assert rule.qhat == gaps


# ---------------------------------------------------------------------------
# Assembly against a brute-force 2D midpoint-quadrature system


def _hat(part, i, x):
    left = part.nodes[i - 1] if i > 0 else None
    center = part.nodes[i]
    right = part.nodes[i + 1] if i < part.n else None
    if left is not None and left < x <= center:
        return (x - left) / part.h
    if right is not None and center < x < right:
        return (right - x) / part.h
    return 1.0 if x == center else 0.0


def _dhat(part, i, x):
    left = part.nodes[i - 1] if i > 0 else None
    center = part.nodes[i]
    right = part.nodes[i + 1] if i < part.n else None
    if left is not None and left <= x < center:
        return 1.0 / part.h
    if right is not None and center <= x < right:
        return -1.0 / part.h
    return 0.0


def test_midpoint_rule_reproduces_full_fe_system():
    """One parameter per element midpoint == 2D FE with x-midpoint quadrature.

    The coupled system then has every interior hat active with its original
    support, so its matrix/rhs must agree with a brute-force tensor assembly
    (midpoint rule in x, two-point Gauss in y) entry by entry.
    """
    th = build_uniform_partition(0.0, 2.0, 5)
    yh = build_uniform_partition(0.0, 1.0, 4)
    pd = _pd(
        k=lambda x, y: 1.0 + 0.3 * x + 0.1 * y,
        b1=lambda x, y: 2.0 + 0.0 * x,
        b2=lambda x, y: -1.5 + 0.0 * x,
        F=lambda x, y: (x + 1.0) * (y * y + 0.5),
    )
    lift = LiftingFunction.zero()
    mu = tuple(th.midpoints())
    cb = build_coupled_basis(th, mu)
    rule = augment_quadrature(th, mu)
    assert np.allclose(rule.weights, th.h)
    assert cb.active.tolist() == list(range(1, th.n))
    system = assemble_transverse(pd, lift, cb, rule, yh)

    gp = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    yg = (yh.nodes[:-1, None] + gp[None, :] * yh.h).ravel()
    wy = np.full(yg.size, yh.h / 2.0)
    n_i = yh.n - 1
    act = list(range(1, th.n))
    n_a = len(act)
    size = n_a * n_i
    A = np.zeros((size, size))
    rhs = np.zeros(size)
    psi = np.array([[_hat(yh, j, y) for y in yg] for j in range(yh.n + 1)])
    dpsi = np.array([[_dhat(yh, j, y) for y in yg] for j in range(yh.n + 1)])
    for xm in th.midpoints():
        kv = pd.k(xm, yg)
        b1v = pd.b1(xm, yg)
        b2v = pd.b2(xm, yg)
        Fv = pd.F(xm, yg)
        for at, it in enumerate(act):
            pt, dpt = _hat(th, it, xm), _dhat(th, it, xm)
            if pt == 0.0 and dpt == 0.0:
                continue
            for jt in range(1, yh.n):
                row = (jt - 1) * n_a + at  # y-node-major, hat-minor
                rhs[row] += th.h * pt * np.sum(wy * Fv * psi[jt])
                for as_, is_ in enumerate(act):
                    ps, dps = _hat(th, is_, xm), _dhat(th, is_, xm)
                    for js in range(1, yh.n):
                        col = (js - 1) * n_a + as_
                        diff = np.sum(
                            wy * kv * (dps * dpt * psi[js] * psi[jt]
                                       + ps * pt * dpsi[js] * dpsi[jt])
                        )
                        adv = np.sum(
                            wy * (b1v * dps * psi[js] + b2v * ps * dpsi[js])
                            * pt * psi[jt]
                        )
                        A[row, col] += th.h * (diff + adv)
    assert np.max(np.abs(system.matrix - A)) <= 1e-13 * np.max(np.abs(A))
    assert np.max(np.abs(system.rhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_riesz_snapshot_problem_folds_minus_reconstruction():
    """riesz_recon hands the snapshots F - R (R the bilinear interpolant of
    the reconstructed field) and the zero lifting; its coupled system is the
    blockwise oracle's for that source."""
    th = build_uniform_partition(0.0, 2.0, 10)
    yh = build_uniform_partition(0.0, 1.0, 9)
    pd = _pd(F=lambda x, y: np.sin(x) + y)
    lift = skew_lifting()
    ops = reference_operators(pd, lift, TensorGrid(th, yh), "riesz_recon")
    snap_pd, snap_lift = ops.snapshot_problem
    assert dataclasses.replace(snap_pd, F=pd.F) == pd
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0.0, 2.0, 40), rng.uniform(0.0, 1.0, 40)
    rec = GridField(ops.grid, ops.riesz_field)
    assert np.array_equal(snap_pd.F(x, y), pd.F(x, y) - rec(x, y))
    for part in (snap_lift.value, snap_lift.dx, snap_lift.dy):
        assert not np.any(part(x, y))

    mu = (0.25, 0.5, 1.55)
    cb = build_coupled_basis(th, mu)
    rule = augment_quadrature(th, mu)
    system = assemble_transverse(snap_pd, snap_lift, cb, rule, yh)
    A, rhs = _coupled_oracle(snap_pd, LiftingFunction.zero(), cb, rule, yh,
                             "weak_lifting")
    assert np.max(np.abs(system.matrix.toarray() - A)) \
        <= 1e-14 * np.max(np.abs(A))
    assert np.max(np.abs(system.rhs - rhs)) <= 1e-14 * np.max(np.abs(rhs))


def _dense_p1(part, c, kind):
    """Interior rows/columns of a 1D P1 matrix, one element and Gauss point
    at a time; kind: "stiff" (c u' v'), "grad" (c u' v) or "mass" (c u v)."""
    n, h = part.n, part.h
    out = np.zeros((n + 1, n + 1))
    for e in range(n):
        for g in (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)):
            cv = c(part.nodes[e] + g * h)
            val, der = (1.0 - g, g), (-1.0 / h, 1.0 / h)
            for r in range(2):
                for q in range(2):
                    test = der[r] if kind == "stiff" else val[r]
                    trial = val[q] if kind == "mass" else der[q]
                    out[e + r, e + q] += h / 2.0 * cv * test * trial
    return out[1:-1, 1:-1]


def _dense_load(part, c, against_deriv=False):
    n, h = part.n, part.h
    out = np.zeros(n + 1)
    for e in range(n):
        for g in (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)):
            tab = (-1.0 / h, 1.0 / h) if against_deriv else (1.0 - g, g)
            for r in range(2):
                out[e + r] += h / 2.0 * c(part.nodes[e] + g * h) * tab[r]
    return out[1:-1]


def _coupled_oracle(pd, lift, cb, rule, yh, mode):
    """Coupled system block by block: for every x-point, test hat and trial
    hat, a dense y-matrix placed at rows j * n_a + a_t, columns
    j' * n_a + a_s. mode "delta_h" folds k Lap(h) into F and drops the
    lifting terms; any other mode keeps them (weak lifting)."""
    act = cb.active
    n_a, n_i = act.size, yh.n - 1
    A = np.zeros((n_a * n_i, n_a * n_i))
    rhs = np.zeros(n_a * n_i)
    for x, al in zip(rule.points, rule.weights):
        at_x = lambda f: (lambda y: float(f(x, y)))
        K = _dense_p1(yh, at_x(pd.k), "stiff")
        D = _dense_p1(yh, at_x(pd.b2), "grad")
        Mk = _dense_p1(yh, at_x(pd.k), "mass")
        Mb = _dense_p1(yh, at_x(pd.b1), "mass")
        if mode == "delta_h":
            g = _dense_load(yh, lambda y: float(
                pd.F(x, y) + pd.k(x, y) * lift.laplacian(x, y)))
            g_der = np.zeros(n_i)
        else:
            g = (_dense_load(yh, at_x(pd.F))
                 - _dense_load(yh, lambda y: float(pd.k(x, y) * lift.dy(x, y)),
                               against_deriv=True)
                 - _dense_load(yh, lambda y: float(pd.b1(x, y) * lift.dx(x, y)
                                                   + pd.b2(x, y) * lift.dy(x, y))))
            g_der = _dense_load(yh, lambda y: float(pd.k(x, y) * lift.dx(x, y)))
        for a_t, it in enumerate(act):
            v_t, d_t = cb.value(it, x), cb.deriv(it, x)
            rhs[a_t::n_a] += al * (v_t * g - d_t * g_der)
            for a_s, is_ in enumerate(act):
                v_s, d_s = cb.value(is_, x), cb.deriv(is_, x)
                A[a_t::n_a, a_s::n_a] += al * (v_s * v_t * (K + D)
                                              + d_s * d_t * Mk + d_s * v_t * Mb)
    return A, rhs


@pytest.mark.parametrize("mode", ["weak_lifting", "delta_h"])
def test_coupled_system_matches_blockwise_oracle(mode):
    """Three parameters with a gap: long hats, an inserted midpoint, n_a = 5,
    nonsymmetric advection; band storage, dense oracle and dense solve. The
    system is assembled from the mode's snapshot problem; the oracle treats
    the lifting per mode on its own."""
    th = build_uniform_partition(0.0, 2.0, 10)  # H = 0.2
    yh = build_uniform_partition(0.0, 1.0, 9)
    pd = _pd(
        k=lambda x, y: 1.0 + 0.2 * x + 0.1 * y * y,
        b1=lambda x, y: 1.0 + 0.5 * y,
        b2=lambda x, y: -0.7 + 0.3 * x,
        F=lambda x, y: np.sin(3.0 * x) + y * np.cos(x),
    )
    lift = skew_lifting()
    mu = (0.25, 0.5, 1.55)  # elements 1, 2, 7: nodes 4..6 deleted
    cb = build_coupled_basis(th, mu)
    rule = augment_quadrature(th, mu)
    assert cb.active.tolist() == [1, 2, 3, 7, 8]
    assert rule.qhat == 1
    ops = reference_operators(pd, lift, TensorGrid(th, yh), mode)
    snap_pd, snap_lift = ops.snapshot_problem
    system = assemble_transverse(snap_pd, snap_lift, cb, rule, yh)

    n_a, n_i = cb.active.size, yh.n - 1
    bw = 2 * n_a - 1
    assert system.matrix.shape == (n_a * n_i, n_a * n_i)
    assert system.matrix.offsets.tolist() == list(range(bw, -bw - 1, -1))
    A, rhs = _coupled_oracle(pd, lift, cb, rule, yh, mode)
    assert np.max(np.abs(system.matrix.toarray() - A)) \
        <= 1e-14 * np.max(np.abs(A))
    assert np.max(np.abs(system.rhs - rhs)) <= 1e-14 * np.max(np.abs(rhs))

    sol = np.linalg.solve(system.matrix.toarray(), system.rhs)
    snaps = snapshot_solve(system)
    assert [s.component for s in snaps] == cb.active.tolist()
    scale = np.max(np.abs(sol))
    for a, s in enumerate(snaps):
        assert s.values[0] == 0.0 and s.values[-1] == 0.0
        assert np.max(np.abs(s.values[1:-1] - sol[a::n_a])) <= 1e-12 * scale

    # no diffusion, no advection: a singular system is a RuntimeError
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    solver = TransverseSolver(dataclasses.replace(snap_pd, k=zero, b1=zero,
                                                  b2=zero), snap_lift, th, yh)
    with pytest.raises(RuntimeError) as info:
        solver.solve(mu)
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_no_interior_hats_raises():
    th = build_uniform_partition(0.0, 2.0, 1)
    yh = build_uniform_partition(0.0, 1.0, 4)
    cb = build_coupled_basis(th, (1.0,))
    assert cb.active.size == 0
    rule = augment_quadrature(th, (1.0,))
    with pytest.raises(ValueError):
        assemble_transverse(_pd(), LiftingFunction.zero(), cb, rule, yh)


# ---------------------------------------------------------------------------
# Solver caching and snapshot layout


def test_solver_snapshot_layout_and_cache():
    th = build_uniform_partition(0.0, 2.0, 4)
    yh = build_uniform_partition(0.0, 1.0, 6)
    solver = TransverseSolver(_pd(), LiftingFunction.zero(), th, yh)
    snaps = solver.solve((1.75, 0.25))  # unsorted input
    assert [s.component for s in snaps] == [1, 3]
    assert all(s.mu == (0.25, 1.75) for s in snaps)
    for s in snaps:
        assert s.values.shape == (yh.n + 1,)
        assert s.values[0] == 0.0 and s.values[-1] == 0.0
        assert np.all(np.isfinite(s.values))
        assert np.max(np.abs(s.values)) > 0.0
    # cache is keyed by the sorted tuple: same object comes back
    assert solver.solve((0.25, 1.75)) is snaps
    with pytest.raises(QuadPointsInSameElement):
        solver.solve((0.6, 0.9))
