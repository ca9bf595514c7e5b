"""POD compression and the adaptive training-set loop."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from skewlift import training
from skewlift.cases import case1
from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import LiftingFunction, ProblemData, reference_operators
from skewlift.reduced import XBlocks
from skewlift.training import (
    BaseMoments,
    ParamCell,
    _draw_samples,
    _orthonormalize,
    adaptive_train_extension,
    element_indicators,
    empty_space,
    initial_cells,
    mark,
    pod,
    refine,
    transverse_mass,
)
from skewlift.transverse import (TransverseSolver, _p1_diagonals, block_band,
                                 build_coupled_basis)


def _exact_mass(part):
    """Closed-form P1 mass matrix (independent of the assembly helpers)."""
    n = part.n
    h = part.h
    M = np.zeros((n + 1, n + 1))
    for e in range(n):
        M[e, e] += h / 3.0
        M[e + 1, e + 1] += h / 3.0
        M[e, e + 1] += h / 6.0
        M[e + 1, e] += h / 6.0
    return M


def _brute_force_pod(S, M):
    """Gram eigendecomposition with the same energy/sign conventions."""
    K = S.T @ (M @ S)
    K = 0.5 * (K + K.T)
    lam, V = np.linalg.eigh(K)
    lam = np.clip(lam[::-1], 0.0, None)
    V = V[:, ::-1]
    modes = S @ (V / np.sqrt(np.where(lam > 0, lam, 1.0)))
    flip = modes[np.abs(modes).argmax(axis=0), np.arange(modes.shape[1])] < 0
    modes[:, flip] *= -1.0
    return lam, modes


def _random_snapshots(rng, part, n_s):
    x = part.nodes
    S = np.zeros((part.n + 1, n_s))
    for j in range(n_s):
        freq = rng.integers(1, 6)
        S[:, j] = (rng.normal() * np.sin(freq * np.pi * x)
                   + rng.normal(scale=0.3, size=x.size))
    return S


# ---------------------------------------------------------------------------
# POD against the brute-force Gram eigendecomposition


def test_pod_matches_brute_force_gram():
    rng = np.random.default_rng(7)
    for n_h, n_s in ((17, 6), (50, 20), (31, 12)):
        part = build_uniform_partition(0.0, 1.0, n_h)
        S = _random_snapshots(rng, part, n_s)
        M = _exact_mass(part)
        lam_bf, modes_bf = _brute_force_pod(S, M)
        space = pod([S[:, j] for j in range(n_s)], part)
        m = space.m
        assert np.allclose(space.eigenvalues, lam_bf[:m], rtol=1e-8, atol=1e-12)
        scale = np.max(np.abs(modes_bf[:, :m]))
        assert np.max(np.abs(space.modes - modes_bf[:, :m])) <= 1e-8 * scale


def test_pod_energy_identity_and_tail():
    rng = np.random.default_rng(11)
    part = build_uniform_partition(0.0, 1.0, 24)
    n_s = 9
    S = _random_snapshots(rng, part, n_s)
    lam_bf, _ = _brute_force_pod(S, _exact_mass(part))
    total = lam_bf.sum()
    space = pod([S[:, j] for j in range(n_s)], part)
    assert space.pod_tail.size == n_s + 1
    assert space.pod_tail[0] == pytest.approx(1.0, abs=1e-12)
    assert space.pod_tail[-1] == 0.0
    for m in range(n_s + 1):
        tail_sq = lam_bf[m:].sum() / total
        assert space.pod_tail[m] ** 2 == pytest.approx(tail_sq, abs=1e-8)
    # tail() clamps beyond the stored range
    assert space.tail(n_s + 5) == 0.0


def test_pod_resolves_energies_far_below_eps():
    # 15 known M-orthonormal modes with energies from 1 down to 1e-20: a
    # Gram-matrix eigensolve loses every energy below ~eps * lambda_1
    rng = np.random.default_rng(5)
    part = build_uniform_partition(0.0, 1.0, 40)
    M = _exact_mass(part)
    L = np.linalg.cholesky(M)
    modes = np.linalg.solve(L.T, np.linalg.qr(rng.standard_normal((41, 15)))[0])
    lam = 10.0 ** (-20.0 * np.arange(15) / 14)
    mix = np.linalg.qr(rng.standard_normal((60, 15)))[0].T  # orthonormal rows
    S = modes @ (np.sqrt(lam)[:, None] * mix)
    space = pod([S[:, j] for j in range(60)], part)
    assert space.m == 15
    np.testing.assert_allclose(space.eigenvalues, lam, rtol=1e-6)
    overlap = np.abs(np.einsum("ik,ik->k", modes, M @ space.modes))
    np.testing.assert_allclose(overlap, 1.0, atol=1e-8)


def test_pod_modes_are_mass_orthonormal():
    rng = np.random.default_rng(3)
    part = build_uniform_partition(0.0, 1.0, 40)
    S = _random_snapshots(rng, part, 14)
    space = pod([S[:, j] for j in range(14)], part)
    M = transverse_mass(part)
    gram = space.modes.T @ (M @ space.modes)
    assert np.allclose(gram, np.eye(space.m), atol=1e-10)
    # sign convention: the largest-magnitude entry of each mode is positive
    peaks = space.modes[np.abs(space.modes).argmax(axis=0),
                        np.arange(space.m)]
    assert np.all(peaks > 0)


def test_pod_is_order_invariant():
    rng = np.random.default_rng(19)
    part = build_uniform_partition(0.0, 1.0, 20)
    S = _random_snapshots(rng, part, 8)
    snaps = [S[:, j] for j in range(8)]
    space_a = pod(snaps, part)
    space_b = pod([snaps[j] for j in (5, 2, 7, 0, 4, 1, 6, 3)], part)
    assert np.allclose(space_a.eigenvalues, space_b.eigenvalues, rtol=1e-10)
    assert np.allclose(space_a.modes, space_b.modes, atol=1e-9)


def test_pod_truncation_controls():
    rng = np.random.default_rng(23)
    part = build_uniform_partition(0.0, 1.0, 16)
    S = _random_snapshots(rng, part, 7)
    snaps = [S[:, j] for j in range(7)]
    assert pod(snaps, part, count=3).m == 3
    # rank-deficient set: duplicates add no modes
    dup = [snaps[0], snaps[1]] * 4
    assert pod(dup, part, count=5).m == 2


def test_pod_takes_the_rows_of_one_array():
    # the rows of one array and the same rows as a list give the same space
    rng = np.random.default_rng(29)
    part = build_uniform_partition(0.0, 1.0, 16)
    S = _random_snapshots(rng, part, 7)
    rows, listed = pod(S.T, part), pod(list(S.T), part)
    assert np.array_equal(rows.modes, listed.modes)
    assert np.array_equal(rows.eigenvalues, listed.eigenvalues)
    assert np.array_equal(rows.pod_tail, listed.pod_tail)


def test_pod_input_validation():
    part = build_uniform_partition(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        pod([], part)
    with pytest.raises(ValueError):
        pod([np.ones(4)], part)
    with pytest.raises(ValueError):
        pod([np.zeros(11), np.zeros(11)], part)


def test_transverse_mass_is_the_sparse_tridiagonal_mass():
    part = build_uniform_partition(0.3, 1.7, 13)
    lower, diag, upper = _p1_diagonals(part, np.ones((part.n, 2)), "mass")
    dense = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
    M = transverse_mass(part)
    assert scipy.sparse.issparse(M) and M.nnz == 3 * part.n + 1
    assert np.array_equal(M.toarray(), dense)
    np.testing.assert_allclose(dense, _exact_mass(part), rtol=1e-14)


def test_orthonormalize_drops_dependent_columns():
    part = build_uniform_partition(0.0, 1.0, 12)
    M = transverse_mass(part)[1:-1, 1:-1]
    x = part.nodes[1:-1]
    base = np.sin(np.pi * x)[:, None]
    base /= math.sqrt(base[:, 0] @ (M @ base[:, 0]))
    extra = np.column_stack([2.0 * base[:, 0], np.sin(2.0 * np.pi * x)])
    out = _orthonormalize(base, extra, M)
    assert out.shape[1] == 2  # base + one new direction, duplicate dropped
    assert np.allclose(out.T @ (M @ out), np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# Cell indicators against an explicit Galerkin projection


@pytest.mark.parametrize("mode", ["weak_lifting", "delta_h"])
@pytest.mark.parametrize("m", [0, 3])
def test_element_indicators_match_explicit_projection(mode, m):
    # nonsymmetric A (advection), so a transposed moment block shows up
    cs = case1(b=(1.0, 0.5))
    pd, lift = cs.problem, cs.lift
    th = build_uniform_partition(*pd.omega_x, 12)
    yh = build_uniform_partition(*pd.omega_y, 12)
    thp = build_uniform_partition(*pd.omega_x, 5)
    fine = reference_operators(pd, lift, TensorGrid(th, yh), mode)
    solver = TransverseSolver(*fine.snapshot_problem, th, yh)
    rng = np.random.Generator(np.random.Philox(0))
    cells = initial_cells(pd.omega_x, 2, 2, 2, rng, th)
    snaps = [s for c in cells for mu in c.samples for s in solver.solve(mu)]
    space = pod(snaps, yh, count=m) if m else empty_space(yh)
    assert space.m == m
    ops = reference_operators(pd, lift, TensorGrid(thp, yh), mode)
    eta, _ = element_indicators(BaseMoments(XBlocks(ops), space), cells,
                                solver)

    A, G, rhs = ops.A_int.toarray(), ops.G_int.toarray(), ops.rhs_int
    for cell, got in zip(cells, eta):
        deltas = []
        for mu in cell.samples:
            E = solver.solve(mu)[:, 1:-1].T
            # the Galerkin space in any basis; delta_h snapshots of one
            # sample can be exactly dependent, so the basis is rank-revealing
            Q = scipy.linalg.orth(np.hstack([space.modes[1:-1], E]),
                                  rcond=1e-10)
            P = np.kron(np.eye(thp.n - 1), Q)
            u = P @ np.linalg.solve(P.T @ A @ P, P.T @ rhs)
            r = rhs - A @ u
            deltas.append(math.sqrt(r @ np.linalg.solve(G, r)))
        assert got == pytest.approx(min(deltas), rel=1e-10)


def _unbatched_delta(base, extra):
    """Delta of one sample, one step at a time: the bordered blocks by
    np.block, scipy's solve_banded (on block_band's storage without its LU
    fill rows), a one-column Gram solve."""
    xb, phi = base.xb, base.phi
    m = phi.shape[1]
    E = _orthonormalize(phi, extra.T, base.M_y)[:, m:]
    w = m + E.shape[1]
    if w >= xb.n_y:
        return 0.0
    A_E = xb.products(E)
    blocks = np.block([[base.phi_A_phi, phi.T @ A_E],
                       [E.T @ base.A_phi, E.T @ A_E]])
    rhs = np.hstack([base.phi_rhs, xb.rhs @ E]).ravel()
    bw = 2 * w - 1
    sol = scipy.linalg.solve_banded((bw, bw), block_band(blocks).T[bw:], rhs)
    u = (sol.reshape(xb.n_x, w) @ np.hstack([phi, E]).T).ravel()
    r = xb.ops.rhs_int - xb.ops.A_int @ u
    return math.sqrt(max(r @ xb.ops.G_lu.solve(r), 0.0))


def _indicator_setup(mode, m):
    """BaseMoments of an m-mode space on a coarse advective grid (G is not
    A), with more cells' samples than one chunk and their solver."""
    cs = case1(b=(1.0, 0.5))
    pd, lift = cs.problem, cs.lift
    th = build_uniform_partition(*pd.omega_x, 12)
    yh = build_uniform_partition(*pd.omega_y, 12)
    thp = build_uniform_partition(*pd.omega_x, 5)
    fine = reference_operators(pd, lift, TensorGrid(th, yh), mode)
    solver = TransverseSolver(*fine.snapshot_problem, th, yh)
    rng = np.random.Generator(np.random.Philox(1))
    cells = initial_cells(pd.omega_x, 2, 4, 3, rng, th)
    mus = [mu for c in cells for mu in c.samples]
    assert len(mus) > training._CHUNK
    snaps = [s for mu in mus for s in solver.solve(mu)]
    space = pod(snaps, yh, count=m) if m else empty_space(yh)
    ops = reference_operators(pd, lift, TensorGrid(thp, yh), mode)
    assert ops.G_int is not ops.A_int
    return BaseMoments(XBlocks(ops), space), cells, solver


def _extra(solver, mu):
    """mu's snapshots without their boundary entries, one row each."""
    return solver.solve(mu)[:, 1:-1]


@pytest.mark.parametrize("mode", ["weak_lifting", "delta_h"])
@pytest.mark.parametrize("m", [0, 1, 3])
def test_batched_indicators_equal_the_unbatched_maths(mode, m):
    # a chunk's products round differently from one sample's, so the
    # batched Delta matches the per-sample oracle to round-off, not bitwise
    base, cells, solver = _indicator_setup(mode, m)
    eta, _ = element_indicators(base, cells, solver)

    dropped = 0
    expected = []
    for cell in cells:
        deltas = []
        for mu in cell.samples:
            extra = _extra(solver, mu)
            kept = _orthonormalize(base.phi, extra.T, base.M_y).shape[1] - m
            dropped += kept < extra.shape[0]
            deltas.append(_unbatched_delta(base, extra))
        expected.append(min(deltas))
    np.testing.assert_allclose(eta, expected, rtol=1e-12, atol=0)
    assert [c.eta for c in cells] == eta.tolist()
    if mode == "delta_h":
        assert dropped > 0  # dependent snapshot columns were dropped


def test_batched_deltas_are_reproducible():
    base, cells, solver = _indicator_setup("weak_lifting", 3)
    extras = [_extra(solver, mu) for mu in cells[0].samples + cells[1].samples]
    first = base.deltas(extras)
    assert np.array_equal(base.deltas(extras), first)


def test_chunk_mixing_dropped_columns_matches_one_sample_calls():
    # delta_h snapshots of one sample can be exactly dependent: a chunk with
    # samples that lose columns and samples that keep all of them
    m = 3
    base, cells, solver = _indicator_setup("delta_h", m)
    extras = [_extra(solver, mu) for c in cells for mu in c.samples]
    extras = extras[:training._CHUNK]
    kept = [_orthonormalize(base.phi, e.T, base.M_y).shape[1] - m
            for e in extras]
    lost = [k < e.shape[0] for k, e in zip(kept, extras)]
    assert any(lost) and not all(lost)
    single = [base.deltas([e])[0] for e in extras]
    np.testing.assert_allclose(base.deltas(extras), single, rtol=1e-12, atol=0)


def test_indicators_vanish_when_the_space_is_full():
    # m - 1 + 2 qbar >= n_h - 1: [Phi E] spans the interior transverse space,
    # the coarse Galerkin solution is the coarse FE solution and Delta is
    # exactly 0, so marking falls to cell ids instead of round-off
    cs = case1(b=(1.0, 0.5))
    pd, lift = cs.problem, cs.lift
    th = build_uniform_partition(*pd.omega_x, 12)
    yh = build_uniform_partition(*pd.omega_y, 12)
    thp = build_uniform_partition(*pd.omega_x, 5)
    marks = []
    for _ in range(2):
        solver = TransverseSolver(pd, lift, th, yh)
        rng = np.random.Generator(np.random.Philox(0))
        cells = initial_cells(pd.omega_x, 2, 2, 2, rng, th)
        snaps = [s for c in cells for mu in c.samples for s in solver.solve(mu)]
        space = pod(snaps, yh, count=8)
        assert space.m == 8
        ops = reference_operators(pd, lift, TensorGrid(thp, yh), "weak_lifting")
        eta, _ = element_indicators(BaseMoments(XBlocks(ops), space), cells,
                                    solver)
        assert np.all(eta == 0.0)
        marks.append(mark(cells, 0.5, sigma_thres=1e9))
    assert marks[0] == marks[1] == [0, 1]


# ---------------------------------------------------------------------------
# Training cells: sampling, marking, refinement


def test_draw_samples_land_in_distinct_elements():
    th = build_uniform_partition(0.0, 2.0, 8)
    rng = np.random.default_rng(1)
    lo, hi = np.array([0.1, 0.6]), np.array([0.5, 1.9])
    samples = _draw_samples(rng, lo, hi, 5, th)
    assert len(samples) == 5
    for mu in samples:
        assert mu == tuple(sorted(mu))
        assert lo[0] <= mu[0] and mu[1] <= hi[1]
        els = np.floor(np.asarray(mu) / th.h).astype(int)
        assert np.unique(els).size == 2
    # a cell inside one element can never satisfy the constraint
    with pytest.raises(RuntimeError):
        _draw_samples(rng, np.array([0.1, 0.15]), np.array([0.12, 0.18]), 1, th)


def test_draw_samples_classify_elements_like_the_coupled_basis():
    # x_10 - 1e-12 snaps onto node 10, so the pair shares element 10 for
    # build_coupled_basis; the draw must reject it and redraw
    th = build_uniform_partition(0.0, 2.0, 160)
    x10 = th.nodes[10]
    draws = [np.array([x10 - 1e-12, x10 + 0.005]), np.array([0.5, 1.5])]

    class StubRng:
        def uniform(self, lo, hi):
            return draws.pop(0)

    lo, hi = np.array([0.0, 0.0]), np.array([2.0, 2.0])
    samples = _draw_samples(StubRng(), lo, hi, 1, th)
    assert samples == [(0.5, 1.5)]
    assert draws == []
    for mu in samples:
        build_coupled_basis(th, mu)


def test_initial_cells_tile_the_parameter_box():
    th = build_uniform_partition(0.0, 2.0, 10)
    rng = np.random.default_rng(5)
    cells = initial_cells((0.0, 2.0), 2, 3, 2, rng, th)
    assert len(cells) == 9
    assert [c.id for c in cells] == list(range(9))
    assert sum(c.volume() for c in cells) == pytest.approx(4.0)
    assert all(len(c.samples) == 2 for c in cells)


def _toy_cells(etas, widths=None, rhos=None):
    cells = []
    for i, eta in enumerate(etas):
        w = 1.0 if widths is None else widths[i]
        c = ParamCell(i, np.array([0.0, 0.0]), np.array([w, w]))
        c.eta = eta
        c.rho = 0 if rhos is None else rhos[i]
        cells.append(c)
    return cells


def test_mark_selects_smallest_eta_plus_stale_cells():
    cells = _toy_cells([0.5, 0.1, 0.9, 0.3])
    assert mark(cells, 0.34, sigma_thres=1e9) == [1, 3]  # ceil(.34*4) = 2
    # sigma = diam * rho: an old cell joins regardless of its eta
    cells = _toy_cells([0.5, 0.1, 0.9, 0.3], rhos=[0, 0, 3, 0])
    assert mark(cells, 0.25, sigma_thres=2.0) == [1, 2]
    # cells too narrow to hold distinct-element children are protected
    cells = _toy_cells([0.1, 0.5], widths=[0.05, 1.0])
    assert mark(cells, 0.5, sigma_thres=1e9, min_width=0.2) == [1]
    with pytest.raises(ValueError):
        mark(cells, 0.0, sigma_thres=1.0)


def test_refine_bisects_marked_cells():
    th = build_uniform_partition(0.0, 2.0, 10)
    rng = np.random.default_rng(9)
    cells = initial_cells((0.0, 2.0), 2, 2, 3, rng, th)
    n_samples = sum(len(c.samples) for c in cells)
    out = refine(cells, [1], 3, rng, th)
    assert len(out) == 4 + 3  # one parent replaced by 2^2 children
    kids = [c for c in out if c.id >= 4]
    assert [c.id for c in kids] == [4, 5, 6, 7]
    parent_volume = 1.0  # cells were 1x1
    assert sum(c.volume() for c in kids) == pytest.approx(parent_volume)
    assert all(c.rho == 0 for c in kids)
    assert all(c.rho == 1 for c in out if c.id < 4)
    assert sum(len(c.samples) for c in out) == n_samples + 3 * 3


# ---------------------------------------------------------------------------
# End-to-end training determinism


def _smooth_setup():
    pd = ProblemData(
        k=lambda x, y: 1.0 + 0.0 * x,
        b1=lambda x, y: 0.0 * x,
        b2=lambda x, y: 0.0 * x,
        F=lambda x, y: np.sin(np.pi * x / 2.0) * (1.0 + y),
        dirichlet=lambda x, y: 0.0 * x,
        omega_x=(0.0, 2.0),
        omega_y=(0.0, 1.0),
    )
    return pd, LiftingFunction.zero()


def test_training_is_seed_reproducible():
    pd, lift = _smooth_setup()
    th = build_uniform_partition(0.0, 2.0, 12)
    yh = build_uniform_partition(0.0, 1.0, 8)
    kw = dict(m_max=3, i_max=1, n_xi=2, theta=0.5, sigma_thres=30.0,
              coarse_nhp=4, qbar=2)

    def run(seed):
        ops = reference_operators(pd, lift, TensorGrid(th, yh))
        return adaptive_train_extension(ops, 2, seed=seed, **kw)

    def samples(result):
        return [mu for cell in result.cells for mu in cell.samples]

    run_a = run(7)
    run_b = run(7)
    assert samples(run_a) == samples(run_b)
    assert np.array_equal(run_a.snapshots, run_b.snapshots)
    # snapshots come back as one array: every sample's rows (in active-hat
    # order), samples sorted by parameter
    solver = TransverseSolver(pd, lift, th, yh)
    expected = np.vstack([solver.solve(mu) for mu in sorted(samples(run_a))])
    assert np.array_equal(run_a.snapshots, expected)
    # the marked/refined loop actually grew the set
    assert len(run_a.cells) > 4
    run_c = run(8)
    assert samples(run_c) != samples(run_a)


def test_training_builds_coarse_operators_once(monkeypatch):
    pd, lift = _smooth_setup()
    calls = []
    original = training.reference_operators

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "reference_operators", counting)
    th = build_uniform_partition(0.0, 2.0, 12)
    yh = build_uniform_partition(0.0, 1.0, 8)
    ops = original(pd, lift, TensorGrid(th, yh))
    run = adaptive_train_extension(
        ops, 2, m_max=3, i_max=1, n_xi=2, theta=0.5, sigma_thres=30.0,
        coarse_nhp=4, qbar=2, seed=7)
    assert len(run.cells) > 4  # indicators ran over several rounds
    assert len(calls) == 1


def test_training_takes_lifting_and_mode_from_ops(monkeypatch):
    # plain_gD: the snapshots solve the boundary-blend problem, and the
    # coarse operators get the lifting the fine ones were handed (they blend
    # it themselves), in the fine operators' mode
    cs = case1()
    pd, lift = cs.problem, cs.lift
    calls = []
    original = training.reference_operators

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "reference_operators", recording)
    th = build_uniform_partition(*pd.omega_x, 12)
    yh = build_uniform_partition(*pd.omega_y, 8)
    ops = original(pd, lift, TensorGrid(th, yh), "plain_gD")
    run = adaptive_train_extension(ops, 2, 1, 1, 2, 0.5, 30.0, 4, seed=3)
    [(c_pd, c_lift, c_grid, c_mode)] = calls
    assert c_pd is pd and c_lift is lift and c_mode == "plain_gD"
    assert c_grid.tx.n == 4 and c_grid.ty is yh
    blend_solver = TransverseSolver(*ops.snapshot_problem, th, yh)
    mus = sorted(mu for cell in run.cells for mu in cell.samples)
    assert np.array_equal(run.snapshots,
                          np.vstack([blend_solver.solve(mu) for mu in mus]))
