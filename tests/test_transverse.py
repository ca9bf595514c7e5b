"""Coupled transverse basis, augmented quadrature, and snapshot solves."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from skewlift.cases import get_case, skew_lifting
from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import GridField, ProblemData, reference_operators
from skewlift.transverse import (
    QuadPointsInSameElement,
    TransverseSolver,
    TransverseSystem,
    _batch_systems,
    _geometry,
    assemble_transverse,
    augment_quadrature,
    band_solve,
    block_band,
    block_pairs,
    build_coupled_basis,
    snapshot_solve,
    y_rows,
)


def _pd(k=None, b1=None, b2=None, F=None, omega_x=(0.0, 2.0), omega_y=(0.0, 1.0)):
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    return ProblemData(
        k=k or (lambda x, y: np.ones(np.broadcast(x, y).shape)),
        b1=b1 or zero,
        b2=b2 or zero,
        F=F or (lambda x, y: np.ones(np.broadcast(x, y).shape)),
        omega_x=omega_x,
        omega_y=omega_y,
    )


def _tables(th, mu, x):
    """Hat values and derivatives of mu's active hats at the points x, as
    the batched assembly evaluates them: two (len(x), n_a) arrays."""
    val, der = _geometry(th, [mu])[0].tables([x])
    return val[0], der[0]


def _system(pd, source, th, yh, mu):
    """The coupled system of mu as TransverseSolver.solve_many assembles
    it, on a batch of one."""
    ((blocks, rhs, cb, _),) = _batch_systems(pd, source, th, yh, [mu])
    return assemble_transverse(blocks, rhs, cb)


# ---------------------------------------------------------------------------
# Coupled basis: node deletion and long hats


def test_gap_deletion_and_long_hats():
    th = build_uniform_partition(0.0, 2.0, 4)  # H = 0.5
    cb = build_coupled_basis(th, (0.25, 1.75))
    # nodes strictly inside (ceil(0.25/H)H, floor(1.75/H)H) = (0.5, 1.5) go
    assert cb.kept_nodes.tolist() == [0, 1, 3, 4]
    assert np.allclose(th.nodes[cb.kept_nodes], [0.0, 0.5, 1.5, 2.0])
    assert cb.active.tolist() == [1, 3]
    # the surviving hats stretch over the deleted range; columns are the
    # active hats 1 and 3
    val, der = _tables(th, (0.25, 1.75), [0.5, 1.0, 1.5, 0.7, 0.2])
    assert val[0].tolist() == [1.0, 0.0]
    assert val[1] == pytest.approx([0.5, 0.5])
    assert val[2].tolist() == [0.0, 1.0]
    assert der[3] == pytest.approx([-1.0, 1.0])
    assert der[4] == pytest.approx([2.0, 0.0])
    # right-continuous switch at the hat center
    assert der[0] == pytest.approx([-1.0, 1.0])


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


def test_parameters_within_round_off_of_a_node():
    # a parameter whose position (mu - a)/H is within 1e-10 max(1, |r|) of
    # a node index lies on that node, from either side: it is in the
    # element right of the node, and only the node's hat is active
    th = build_uniform_partition(0.0, 2.0, 4)  # nodes 0, 0.5, 1, 1.5, 2
    for x in (1.0 - 1e-13, 1.0 + 1e-13, 1.0 - 1e-11):
        cb = build_coupled_basis(th, (x,))
        assert cb.active.tolist() == [2]
        assert cb.kept_nodes.tolist() == [0, 1, 2, 3, 4]
        assert th.element_of([x]).tolist() == [2]
        # the quadrature point owns the whole domain, as one on the node
        rule = augment_quadrature(th, (x,))
        assert rule.points.tolist() == [x] and rule.weights.tolist() == [2.0]
    # beyond the tolerance the point is inside its element: both hats
    assert build_coupled_basis(th, (1.0 - 1e-9,)).active.tolist() == [1, 2]
    # two points near nodes 1 and 3: hats 1 and 3 only, node 2 deleted
    cb = build_coupled_basis(th, (0.5 - 8e-14, 1.5 + 1e-13))
    assert cb.active.tolist() == [1, 3]
    assert cb.kept_nodes.tolist() == [0, 1, 3, 4]
    rule = augment_quadrature(th, (0.5 - 8e-14, 1.5 + 1e-13))
    assert rule.qhat == 1
    # handovers at the midpoints of the empty node ranges [1, 2] and [2, 3]
    np.testing.assert_allclose(rule.weights, [0.75, 0.5, 0.75], rtol=1e-12)


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


def _ref_rel(part, x):
    """(x - a)/H snapped to integers within 1e-10 relative tolerance, one
    scalar at a time."""
    r = (x - part.a) / part.h
    rr = round(r)
    return float(rr) if abs(r - rr) <= 1e-10 * max(1.0, abs(r)) else r


def _ref_sorted_mu(th, mu):
    mu = np.sort(np.asarray(mu, dtype=float))
    if mu.size < 1:
        raise ValueError("need at least one quadrature point")
    if mu[0] <= th.a or mu[-1] >= th.b:
        raise ValueError(f"parameters must lie strictly inside ({th.a}, {th.b})")
    return mu


def _ref_coupled_basis(th, mu):
    """Kept nodes and active hats, one parameter and one gap at a time: the
    active hats are the kept nodes bracketing each parameter in x, or the
    kept node within 1e-12 max(1, |mu|) of it, on either side."""
    mu = _ref_sorted_mu(th, mu)
    keep = np.ones(th.n + 1, dtype=bool)
    for l in range(mu.size - 1):
        lo = int(np.ceil(_ref_rel(th, mu[l])))
        hi = int(np.floor(_ref_rel(th, mu[l + 1])))
        if hi - lo >= 2:
            keep[lo + 1:hi] = False
    kept = np.nonzero(keep)[0]
    kx = th.nodes[kept]
    active = set()
    for m in mu.tolist():
        pos = int(np.searchsorted(kx, m))
        near = [p for p in (pos - 1, pos)
                if abs(float(kx[p]) - m) <= 1e-12 * max(1.0, abs(m))]
        cand = (kept[near[0]],) if near else (kept[pos - 1], kept[pos])
        for node in cand:
            if 0 < node < th.n:
                active.add(int(node))
    return kept, np.array(sorted(active), dtype=int)


def _ref_quadrature(th, mu):
    """Points, weights and qhat of the augmented rule, one point at a time."""
    mu = _ref_sorted_mu(th, mu)
    inserted = []
    for l in range(mu.size - 1):
        if np.floor(_ref_rel(th, mu[l + 1])) - np.floor(_ref_rel(th, mu[l])) >= 2:
            inserted.append(0.5 * (mu[l] + mu[l + 1]))
    pts = np.sort(np.concatenate([mu, np.array(inserted)]))
    bounds = np.empty(pts.size + 1)
    bounds[0] = th.a
    bounds[-1] = th.b
    for l in range(pts.size - 1):
        p, q = pts[l], pts[l + 1]
        fp, fq = np.floor(_ref_rel(th, p)), np.floor(_ref_rel(th, q))
        if fp == fq:
            bounds[l + 1] = 0.5 * (p + q)
        else:
            edge_r = th.a + np.ceil(_ref_rel(th, p)) * th.h
            edge_l = th.a + fq * th.h
            bounds[l + 1] = 0.5 * (edge_r + edge_l)
    return pts, np.diff(bounds), len(inserted)


@pytest.mark.parametrize("n", [4, 160])
@pytest.mark.parametrize("qbar", [1, 2, 3])
def test_geometry_matches_the_scalar_reference(n, qbar):
    # away from nodes, the snapped-position geometry equals the scalar
    # reference bit for bit
    rng = np.random.default_rng(1000 * n + qbar)
    for a, b in ((0.0, 2.0), (-0.7, 1.9)):
        th = build_uniform_partition(a, b, n)
        checked = 0
        while checked < 250:
            mu = rng.uniform(a, b, size=qbar)
            r = (mu - a) / th.h
            if (np.min(np.abs(r - np.round(r))) < 1e-8
                    or np.unique(np.floor(r)).size < qbar):
                continue
            cb = build_coupled_basis(th, mu)
            kept, active = _ref_coupled_basis(th, mu)
            assert cb.kept_nodes.tolist() == kept.tolist()
            assert cb.active.tolist() == active.tolist()
            rule = augment_quadrature(th, mu)
            pts, weights, qhat = _ref_quadrature(th, mu)
            assert rule.points.tobytes() == pts.tobytes()
            assert rule.weights.tobytes() == weights.tobytes()
            assert rule.qhat == qhat
            checked += 1


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


def test_midpoint_rule_reproduces_full_fe_system(dense_from_band):
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
    mu = tuple(th.midpoints())
    cb = build_coupled_basis(th, mu)
    rule = augment_quadrature(th, mu)
    assert np.allclose(rule.weights, th.h)
    assert cb.active.tolist() == list(range(1, th.n))
    system = _system(pd, pd.F, th, yh, mu)

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
    assert np.max(np.abs(dense_from_band(system.matrix) - A)) \
        <= 1e-13 * np.max(np.abs(A))
    assert np.max(np.abs(system.rhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


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


def _dense_load(part, c):
    n, h = part.n, part.h
    out = np.zeros(n + 1)
    for e in range(n):
        for g in (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)):
            for r, tab in enumerate((1.0 - g, g)):
                out[e + r] += h / 2.0 * c(part.nodes[e] + g * h) * tab
    return out[1:-1]


def _coupled_oracle(pd, source, th, cb, rule, yh):
    """Coupled system block by block: for every x-point, test hat and trial
    hat, a dense y-matrix placed at rows j * n_a + a_t, columns
    j' * n_a + a_s, and the source's load against the test hat."""
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
        g = _dense_load(yh, at_x(source))
        val, der = _scalar_tables(th, cb, [x])
        for a_t in range(n_a):
            v_t, d_t = val[0, a_t], der[0, a_t]
            rhs[a_t::n_a] += al * v_t * g
            for a_s in range(n_a):
                v_s, d_s = val[0, a_s], der[0, a_s]
                A[a_t::n_a, a_s::n_a] += al * (v_s * v_t * (K + D)
                                              + d_s * d_t * Mk + d_s * v_t * Mb)
    return A, rhs


@pytest.mark.parametrize("mode", ["weak_lifting", "delta_h"])
def test_coupled_system_matches_blockwise_oracle(mode, dense_from_band):
    """Three parameters with a gap: long hats, an inserted midpoint, n_a = 5,
    nonsymmetric advection; band storage, dense oracle and dense solve. The
    system is assembled from the mode's snapshot source, which the oracle
    evaluates point by point."""
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
    source = reference_operators(pd, lift, TensorGrid(th, yh),
                                 mode).snapshot_source()
    system = _system(pd, source, th, yh, mu)

    n_a, n_i = cb.active.size, yh.n - 1
    bw = 2 * n_a - 1
    assert system.matrix.shape == (n_a * n_i, 3 * bw + 1)
    A, rhs = _coupled_oracle(pd, source, th, cb, rule, yh)
    assert np.max(np.abs(dense_from_band(system.matrix) - A)) \
        <= 1e-14 * np.max(np.abs(A))
    assert np.max(np.abs(system.rhs - rhs)) <= 1e-14 * np.max(np.abs(rhs))

    sol = np.linalg.solve(dense_from_band(system.matrix), system.rhs)
    snaps = snapshot_solve(system)  # row a: hat cb.active[a]
    assert snaps.shape == (n_a, yh.n + 1)
    assert np.all(snaps[:, [0, -1]] == 0.0)
    scale = np.max(np.abs(sol))
    for a, s in enumerate(snaps):
        assert np.max(np.abs(s[1:-1] - sol[a::n_a])) <= 1e-12 * scale

    # no diffusion, no advection: a singular system is a RuntimeError
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    solver = TransverseSolver(dataclasses.replace(pd, k=zero, b1=zero,
                                                  b2=zero), source, th, yh)
    with pytest.raises(RuntimeError) as info:
        solver.solve_many([mu])
    assert not isinstance(info.value, np.linalg.LinAlgError)


def _scalar_tables(th, cb, x):
    """The modified hats of cb.active on th evaluated one (point, hat) at a
    time from the hat definition: 1 at the node, linear down to 0 at the
    neighbouring kept nodes, derivative right-continuous."""
    kx = th.nodes[cb.kept_nodes]
    val = np.zeros((len(x), cb.active.size))
    der = np.zeros_like(val)
    for a, node in enumerate(cb.active):
        p = cb.kept_nodes.tolist().index(node)
        left, center, right = kx[p - 1], kx[p], kx[p + 1]
        for l, xl in enumerate(x):
            if xl == center:
                val[l, a] = 1.0
            elif left < xl < center:
                val[l, a] = (xl - left) / (center - left)
            elif center < xl < right:
                val[l, a] = (right - xl) / (right - center)
            if left <= xl < center:
                der[l, a] = 1.0 / (center - left)
            elif center <= xl < right:
                der[l, a] = -1.0 / (right - center)
    return val, der


def _scalar_system(pd, source, th, cb, rule, yh):
    """The coupled system of one parameter vector assembled one key at a
    time: hats from _scalar_tables, and the blocks and right-hand side
    accumulated point by point, l = 0, 1, ..., each point's block as
    (K + D) + Mk + Mb terms in that order."""
    rows = y_rows(pd, source, rule.points, yh)
    val, der = _scalar_tables(th, cb, rule.points)
    n_a = cb.active.size
    blocks = np.zeros((rows.ops.shape[2], n_a, n_a))  # [p, test, trial]
    rhs = np.zeros((rows.load.shape[1], n_a))
    for l, w in enumerate(rule.weights):
        w_val, w_der = w * val[l], w * der[l]  # trial-hat factors
        kd, mk, mb = rows.ops[l]
        block = np.outer(val[l], w_val) * kd[:, None, None]
        block += np.outer(der[l], w_der) * mk[:, None, None]
        block += np.outer(val[l], w_der) * mb[:, None, None]
        blocks += block
        rhs += w_val * rows.load[l][:, None]
    return TransverseSystem(block_band(blocks), rhs.ravel(), cb)


def _groups_by_key(th, keys):
    """The _Group and row of each key of one _geometry batch."""
    where = {}
    for group in _geometry(th, keys):
        for g, i in enumerate(group.index.tolist()):
            where[i] = (group, g)
    return [where[i] for i in range(len(keys))]


_COEFS = dict(
    k=lambda x, y: 1.0 + 0.2 * x + 0.1 * y * y,
    b1=lambda x, y: 1.0 + 0.5 * y,
    b2=lambda x, y: -0.7 + 0.3 * x,
    F=lambda x, y: np.sin(3.0 * x) + y * np.cos(x),
)


def _max_rel_dev(got, ref):
    """Largest deviation of got from ref, relative to ref's largest entry."""
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


# bound on the batched contraction against the point-by-point oracle, in
# units of the oracle's largest entry: the BLAS kernel adds a key's points
# in its own order (measured: 3.5e-16 for the matrix, 1.2e-15 for the
# snapshots)
_ORACLE_TOL = 1e-14


def test_hat_tables_keep_the_assembly_bitwise():
    """Over a sweep of parameter pairs (adjacent, gapped, on nodes, at the
    ends) in one batch, the batched hat tables equal the one-at-a-time
    ones bit for bit, the assembled matrix and right-hand side equal a
    batch of one's bit for bit, and they agree with a one-key-at-a-time
    assembly to round-off of its largest entry."""
    th = build_uniform_partition(0.0, 2.0, 10)  # H = 0.2
    yh = build_uniform_partition(0.0, 1.0, 6)
    pd = _pd(**_COEFS)
    grid = np.concatenate([np.linspace(0.013, 1.987, 23), th.nodes[1:-1]])
    keys = []
    for i, lo in enumerate(grid):
        for hi in grid[i + 1:]:
            els = th.element_of([lo, hi])
            if els[0] != els[1]:
                keys.append((lo, hi))
    assert len(keys) > 400
    for key, (group, g) in zip(keys, _groups_by_key(th, keys)):
        cb, rule = group.basis(g), group.rule(g)
        val, der = group.tables(group.points)
        ref_val, ref_der = _scalar_tables(th, cb, rule.points)
        assert np.array_equal(val[g], ref_val)
        assert np.array_equal(der[g], ref_der)
    for key, (blocks, rhs, cb, _) in zip(keys, _batch_systems(pd, pd.F, th,
                                                              yh, keys)):
        got = assemble_transverse(blocks, rhs, cb)
        one = assemble_transverse(*_batch_systems(pd, pd.F, th, yh,
                                                  [key])[0][:3])
        assert got.matrix.tobytes() == one.matrix.tobytes(), key
        assert got.rhs.tobytes() == one.rhs.tobytes(), key
        ref = _scalar_system(pd, pd.F, th, cb, augment_quadrature(th, key),
                             yh)
        assert _max_rel_dev(got.matrix, ref.matrix) <= _ORACLE_TOL, key
        assert _max_rel_dev(got.rhs, ref.rhs) <= _ORACLE_TOL, key


def _materialized(f, shapes):
    """f called on contiguous copies of its arguments broadcast to one
    common shape; the shapes it was handed are appended to shapes."""
    def call(x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return f(*(np.ascontiguousarray(c) for c in np.broadcast_arrays(x, y)))
    return call


def test_y_rows_evaluate_on_broadcasting_points():
    """y_rows hands every callback x of shape (P, 1, 1) and the y Gauss
    points of shape (1, n_e, 2), and its rows equal, bit for bit, those of
    callbacks that evaluate on materialized (P, n_e, 2) arrays: with
    _COEFS, for the analytic source and for a GridField one."""
    th = build_uniform_partition(-0.7, 1.9, 16)
    yh = build_uniform_partition(0.0, 1.0, 7)
    pd = _pd(omega_x=(-0.7, 1.9), **_COEFS)
    grid = TensorGrid(th, yh)
    field = GridField(grid, np.random.default_rng(2).normal(size=grid.shape))
    points = np.concatenate([np.linspace(-0.69, 1.89, 37), th.nodes[1:-1]])
    for source in (pd.F, field):
        shapes = []
        ref = y_rows(dataclasses.replace(
            pd, **{c: _materialized(getattr(pd, c), shapes)
                   for c in ("k", "b1", "b2")}),
            _materialized(source, shapes), points, yh)
        assert set(shapes) == {((points.size, 1, 1), (1, yh.n, 2))}
        got = y_rows(pd, source, points, yh)
        assert got.ops.tobytes() == ref.ops.tobytes()
        assert got.load.tobytes() == ref.load.tobytes()


def _mixed_keys(th):
    """Parameter vectors that put every kind of key into one batch, on a
    16-element th: qbar 1, 2 and 3; n_a from 1 to 2 qbar; adjacent
    elements, gaps of two elements (a midpoint, no deleted node) and wider
    ones (a midpoint and deleted nodes); parameters in the last element,
    on a node and within 1e-13 of one. Positions t are given on (0, 2)."""
    node, near = th.nodes, 1e-13
    x = lambda *t: tuple(th.a + v * (th.b - th.a) / 2.0 for v in t)
    return [
        (node[5],), x(0.3), (node[15] - near,), (node[3] + near,),
        (x(0.05)[0], node[1]),  # elements 0 and 1, hat 1 only: n_a = 1
        (node[4], node[9]), x(0.6, 0.7), x(0.3, 1.3), x(0.3, 0.55),
        (node[4] - near, x(1.3)[0]), (x(0.3)[0], node[12] + near),
        x(1.9, 0.1), x(0.3, 0.45, 0.6),
        (node[2], node[6], node[10]),  # n_a 4, 3
        x(0.3, 0.55, 1.7), x(0.1, 0.3, 1.95), x(0.3, 1.0, 1.7),
        (x(0.3)[0], node[5] + near, x(1.3)[0] - near),
        (x(0.05)[0], node[1], x(0.3)[0]),
    ]


@pytest.mark.parametrize("omega_x", [(0.0, 2.0), (-0.7, 1.9)])
def test_mixed_batch_matches_batches_of_one_and_the_scalar_oracle(omega_x):
    """One batch that mixes every group gives each key the bits of a batch
    of one and of the scalar references in kept nodes, active hats, rule
    points and weights and hat tables, and the bits of a batch of one and
    the scalar oracle's values to round-off in its snapshots. A
    same-element key fails the whole batch before anything is solved or
    cached. On
    (-0.7, 1.9), a + n H is not b, so the hats must take their breakpoints
    from th.nodes."""
    th = build_uniform_partition(*omega_x, 16)
    yh = build_uniform_partition(0.0, 1.0, 7)
    pd = _pd(omega_x=omega_x, **_COEFS)
    keys = _mixed_keys(th)
    by_key = _groups_by_key(th, keys)
    groups = {id(group) for group, _ in by_key}
    assert len(groups) >= 8
    seen = set()
    for key, (group, g) in zip(keys, by_key):
        cb, rule = group.basis(g), group.rule(g)
        seen.add((len(key), cb.active.size))
        one_cb = build_coupled_basis(th, key)
        one_rule = augment_quadrature(th, key)
        kept, active = _ref_coupled_basis(th, key)
        pts, weights, qhat = _ref_quadrature(th, key)
        for got in (cb.kept_nodes, one_cb.kept_nodes):
            assert got.tolist() == kept.tolist(), key
        for got in (cb.active, one_cb.active):
            assert got.tolist() == active.tolist(), key
        for got in (rule, one_rule):
            assert got.points.tobytes() == pts.tobytes(), key
            assert got.weights.tobytes() == weights.tobytes(), key
            assert (got.qbar, got.qhat) == (len(key), qhat), key
        val, der = group.tables(group.points)
        ref_val, ref_der = _scalar_tables(th, cb, pts)
        assert val[g].tobytes() == ref_val.tobytes(), key
        assert der[g].tobytes() == ref_der.tobytes(), key
    assert seen == {(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4),
                    (3, 3), (3, 4), (3, 5), (3, 6)}

    solver = TransverseSolver(pd, pd.F, th, yh)
    with pytest.raises(QuadPointsInSameElement):
        solver.solve_many(keys + [tuple(th.a + r * th.h
                                        for r in (9.2, 3.1, 9.5))])
    assert not solver._cache
    got = solver.solve_many(keys)
    for key, snaps in zip(keys, got):
        one = TransverseSolver(pd, pd.F, th, yh).solve_many([key])[0]
        ref = snapshot_solve(_scalar_system(
            pd, pd.F, th, build_coupled_basis(th, key),
            augment_quadrature(th, key), yh))
        assert snaps.tobytes() == one.tobytes(), key
        assert _max_rel_dev(snaps, ref) <= _ORACLE_TOL, key


@pytest.mark.parametrize("w", [1, 2, 4])
def test_band_solve_matches_solve_banded(w, dense_from_band):
    """Tridiagonal systems go to gtsv, all others (one block row included)
    to gbsv: both bitwise equal to scipy's solve_banded on the same band
    (block_band's storage without its LU fill rows, band.T[bw:]), with
    and without overwrite_band; a singular band raises RuntimeError naming
    the system."""
    rng = np.random.default_rng(w)
    bw = 2 * w - 1
    for n in (7, 1):
        blocks = rng.normal(size=(3 * n - 2, w, w))
        blocks[:n] += 4.0 * np.eye(w)
        band = block_band(blocks)
        assert band.shape == (n * w, 3 * bw + 1)
        dense = dense_from_band(band)
        for p, (i, j) in enumerate(zip(*block_pairs(n))):
            assert np.array_equal(
                dense[i * w:(i + 1) * w, j * w:(j + 1) * w], blocks[p])
        rhs = rng.normal(size=n * w)
        expected = scipy.linalg.solve_banded((bw, bw), band.T[bw:], rhs)
        rhs0 = rhs.copy()
        got = band_solve(band, rhs, "test system")
        assert np.array_equal(got, expected)
        # inputs untouched
        assert np.array_equal(band, block_band(blocks))
        assert np.array_equal(rhs, rhs0)
        # an owned band gives the same solution; gbsv factors it in place
        owned = band.copy()
        assert np.array_equal(
            band_solve(owned, rhs, "test system", overwrite_band=True),
            expected)
        if n > 1:  # a 1 x 1 band is its own factor
            assert np.array_equal(owned, band) == (bw == 1)
        singular = band.copy()
        singular[n * w // 2] = 0.0  # a zero column
        with pytest.raises(RuntimeError, match="test system is singular"):
            band_solve(singular, rhs, "test system")


def test_no_interior_hats_raises():
    th = build_uniform_partition(0.0, 2.0, 1)
    yh = build_uniform_partition(0.0, 1.0, 4)
    cb = build_coupled_basis(th, (1.0,))
    assert cb.active.size == 0
    solver = TransverseSolver(_pd(), _pd().F, th, yh)
    with pytest.raises(ValueError):
        solver.solve_many([(1.0,)])
    assert not solver._cache


# ---------------------------------------------------------------------------
# Solver caching and snapshot layout


# what a TransverseSolver holds: its problem and its cache, nothing per call
_SOLVER_STATE = {"pd", "source", "th", "yh", "_cache"}


def _count_solves(monkeypatch):
    """Record the parameters of every snapshot_solve the solver makes."""
    solved = []

    def counting(system):
        solved.append(system.cb.mu)
        return snapshot_solve(system)

    monkeypatch.setattr("skewlift.transverse.snapshot_solve", counting)
    return solved


def test_solver_snapshot_layout_and_cache():
    th = build_uniform_partition(0.0, 2.0, 4)
    yh = build_uniform_partition(0.0, 1.0, 6)
    solver = TransverseSolver(_pd(), _pd().F, th, yh)
    snaps = solver.solve_many([(1.75, 0.25)])[0]  # unsorted input
    # one row per active hat, in cb.active order, nodal with boundary zeros
    cb = build_coupled_basis(th, (0.25, 1.75))
    assert cb.active.tolist() == [1, 3]
    assert snaps.shape == (cb.active.size, yh.n + 1)
    assert np.all(snaps[:, [0, -1]] == 0.0)
    assert np.all(np.isfinite(snaps))
    assert np.all(np.max(np.abs(snaps), axis=1) > 0.0)
    system = _system(_pd(), _pd().F, th, yh, (0.25, 1.75))
    assert np.array_equal(snaps, snapshot_solve(system))
    # the cached array is shared by every caller, so it cannot be written
    with pytest.raises(ValueError):
        snaps[0, 1] = 1.0
    # cache is keyed by the sorted tuple: same object comes back
    assert solver.solve_many([(0.25, 1.75)])[0] is snaps
    assert solver.solve_many([(1.75, 0.25)])[0] is snaps
    with pytest.raises(QuadPointsInSameElement):
        solver.solve_many([(0.6, 0.9)])
    assert set(vars(solver)) == _SOLVER_STATE


@pytest.mark.parametrize("case, mode", [
    (1, "weak_lifting"), (1, "plain_gD"), (1, "delta_h"),
    (2, "weak_lifting"), (3, "weak_lifting")])
def test_solve_many_matches_batches_of_one(case, mode, monkeypatch):
    # one y_rows pass over a whole batch gives every parameter the bits of
    # its own batch of one; cached and repeated keys return the cached array
    # and every distinct fresh key is solved once.
    # Case 1 runs with advection, so every y-operator is nonzero.
    cs = get_case(case, **({"b": (1.5, -0.5)} if case == 1 else {}))
    th = build_uniform_partition(0.0, 2.0, 16)  # H = 0.125
    yh = build_uniform_partition(*cs.problem.omega_y, 12)
    source = reference_operators(cs.problem, cs.lift, TensorGrid(th, yh),
                                 mode).snapshot_source()
    rng = np.random.default_rng(14)
    mus = []
    for qbar in (1, 2, 3):
        while sum(len(mu) == qbar for mu in mus) < 4:
            mu = tuple(rng.uniform(0.01, 1.99, size=qbar))
            if np.unique(th.element_of(mu)).size == qbar:
                mus.append(mu)
    mus += [(th.nodes[5],), (0.3, th.nodes[9]),  # on nodes
            (0.6, 0.7),  # adjacent elements 4 and 5: n_a = 3
            (1.3, 0.2, 0.9),  # unsorted
            (0.2, 0.9, 1.3), mus[4][::-1], (0.6, 0.7)]  # duplicate keys
    assert build_coupled_basis(th, (0.6, 0.7)).active.size == 3
    solver = TransverseSolver(cs.problem, source, th, yh)
    cached = solver.solve_many([mus[1], mus[7]])
    solved = _count_solves(monkeypatch)
    got = solver.solve_many(mus)
    keys = {tuple(sorted(mu)) for mu in mus}
    assert sorted(solved) == sorted(keys - {tuple(sorted(mus[1])),
                                            tuple(sorted(mus[7]))})
    assert got[1] is cached[0] and got[7] is cached[1]
    assert got[-3] is got[-4] and got[-2] is got[4] and got[-1] is got[-5]
    assert set(vars(solver)) == _SOLVER_STATE
    one = TransverseSolver(cs.problem, source, th, yh)
    for mu, snaps in zip(mus, got):
        assert snaps is solver.solve_many([mu])[0]
        assert np.array_equal(snaps, one.solve_many([mu])[0]), mu


def test_solve_many_rejects_a_batch_whole(monkeypatch):
    # a same-element parameter fails the batch before anything is solved or
    # cached; the batch's valid parameters then solve as if never batched
    th = build_uniform_partition(0.0, 2.0, 4)
    yh = build_uniform_partition(0.0, 1.0, 6)
    good = [(0.25, 1.75), (1.1,), (0.3, 1.3)]
    solver = TransverseSolver(_pd(), _pd().F, th, yh)
    solved = _count_solves(monkeypatch)
    with pytest.raises(QuadPointsInSameElement):
        solver.solve_many([good[0], (0.6, 0.9), *good[1:]])
    assert not solved and not solver._cache
    assert set(vars(solver)) == _SOLVER_STATE
    got = solver.solve_many(good)
    assert set(vars(solver)) == _SOLVER_STATE
    one = TransverseSolver(_pd(), _pd().F, th, yh)
    for mu, snaps in zip(good, got):
        assert np.array_equal(snaps, one.solve_many([mu])[0])
    # a failed solve inside a batch caches nothing
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    singular = TransverseSolver(_pd(k=zero), _pd().F, th, yh)
    with pytest.raises(RuntimeError, match="singular"):
        singular.solve_many(good)
    assert not singular._cache
    assert set(vars(singular)) == _SOLVER_STATE
