"""Reduced block systems, recovery limits, and lifting reconstructions."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import STENCIL_GRIDS, build_grid, orthonormalize, same_bits
from skewlift import reduced
from skewlift.cases import case1, get_case
from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import (
    MODES,
    LiftingFunction,
    ProblemData,
    p1_interior,
    reference_operators,
    solve_reference,
)
from skewlift.reduced import ReducedSystem, assemble_reduced, solve_reduced
from skewlift.training import ReductionSpace, empty_space
from skewlift.transverse import block_band

_GP = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def _full_space(yh):
    """M-orthonormal basis spanning every interior transverse dof."""
    n_i = yh.n - 1
    cols = orthonormalize(np.zeros((n_i, 0)), np.eye(n_i),
                          p1_interior(yh, "mass"))
    modes = np.zeros((yh.n + 1, n_i))
    modes[1:-1, :] = cols
    return ReductionSpace(yh, modes, np.ones(n_i), np.zeros(n_i + 1))


def _space_from_columns(yh, cols_int):
    d, e = p1_interior(yh, "mass")
    out = []
    for c in cols_int.T:
        out.append(c / np.sqrt(c @ (d * c) + 2.0 * (e @ (c[:-1] * c[1:]))))
    modes = np.zeros((yh.n + 1, len(out)))
    modes[1:-1, :] = np.column_stack(out)
    m = len(out)
    return ReductionSpace(yh, modes, np.ones(m), np.zeros(m + 1))


def _gauss_load_1d(part, f):
    """Load vector int f v by the two-point Gauss rule, explicit loops."""
    out = np.zeros(part.n + 1)
    for e in range(part.n):
        x0 = part.nodes[e]
        for g in _GP:
            xg = x0 + g * part.h
            w = part.h / 2.0
            out[e] += w * f(xg) * (1.0 - g)
            out[e + 1] += w * f(xg) * g
    return out


# ---------------------------------------------------------------------------
# Full-space recovery: reduced == reference when nothing is truncated


def test_full_space_recovers_reference_in_every_mode():
    case = get_case(1)
    th = build_uniform_partition(0.0, 2.0, 10)
    yh = build_uniform_partition(0.0, 1.0, 6)
    grid = TensorGrid(th, yh)
    space = _full_space(yh)
    for mode in MODES:
        ops = reference_operators(case.problem, case.lift, grid, mode)
        ref = solve_reference(ops)
        system = assemble_reduced(ops, space)
        rsol = solve_reduced(system)
        scale = np.max(np.abs(ref.coeffs))
        diff = np.max(np.abs(rsol.interior_vector() - ref.interior_vector()))
        assert diff <= 1e-9 * scale, f"mode {mode}: {diff:.2e}"


# ---------------------------------------------------------------------------
# Hand-checked single-mode system


def test_single_mode_system_is_the_expected_tridiagonal(dense_from_band):
    th = build_uniform_partition(0.0, 2.0, 9)
    yh = build_uniform_partition(0.0, 1.0, 7)
    fx = lambda x: np.exp(0.3 * x)
    gy = lambda y: 1.0 + 2.0 * y
    pd = ProblemData(
        k=lambda x, y: 1.0 + 0.0 * x,
        b1=lambda x, y: 0.0 * x,
        b2=lambda x, y: 0.0 * x,
        F=lambda x, y: fx(x) * gy(y),
        omega_x=(0.0, 2.0),
        omega_y=(0.0, 1.0),
    )
    phi_int = (yh.nodes * (1.0 - yh.nodes))[1:-1]
    space = _space_from_columns(yh, phi_int[:, None])
    system = assemble_reduced(
        reference_operators(pd, LiftingFunction.zero(), TensorGrid(th, yh)),
        space)

    # closed-form 1D operators
    def k_tri(part):
        n_i = part.n - 1
        return ((np.diag(2.0 * np.ones(n_i)) - np.diag(np.ones(n_i - 1), 1)
                 - np.diag(np.ones(n_i - 1), -1)) / part.h)

    def m_tri(part):
        n_i = part.n - 1
        return (part.h / 6.0) * (np.diag(4.0 * np.ones(n_i))
                                 + np.diag(np.ones(n_i - 1), 1)
                                 + np.diag(np.ones(n_i - 1), -1))

    phi = space.modes[1:-1, 0]
    c_mass = phi @ (m_tri(yh) @ phi)
    c_stiff = phi @ (k_tri(yh) @ phi)
    A_exp = c_mass * k_tri(th) + c_stiff * m_tri(th)
    rhs_exp = _gauss_load_1d(th, fx)[1:-1] * (phi @ _gauss_load_1d(yh, gy)[1:-1])
    assert np.allclose(dense_from_band(block_band(system.blocks)), A_exp,
                       rtol=0, atol=1e-12 * np.max(np.abs(A_exp)))
    assert np.allclose(system.rhs.ravel(), rhs_exp, rtol=0,
                       atol=1e-12 * np.max(np.abs(rhs_exp)))
    expected = np.linalg.solve(A_exp, rhs_exp)
    rsol = solve_reduced(system)
    assert np.allclose(rsol.coeffs[0], expected, rtol=1e-12)


def test_discrete_sine_modes_decouple_the_blocks(dense_from_band):
    """With k=1 and b=0 the discrete sines diagonalize both 1D operators, so
    the reduced matrix must be block-diagonal across modes."""
    th = build_uniform_partition(0.0, 2.0, 6)
    yh = build_uniform_partition(0.0, 1.0, 8)
    j = np.arange(1, yh.n)
    sines = np.column_stack([np.sin(k * np.pi * j / yh.n) for k in (1, 2, 3)])
    space = _space_from_columns(yh, sines)
    pd = ProblemData(
        k=lambda x, y: 1.0 + 0.0 * x,
        b1=lambda x, y: 0.0 * x,
        b2=lambda x, y: 0.0 * x,
        F=lambda x, y: np.ones(np.broadcast(x, y).shape),
        omega_x=(0.0, 2.0),
        omega_y=(0.0, 1.0),
    )
    system = assemble_reduced(
        reference_operators(pd, LiftingFunction.zero(), TensorGrid(th, yh)),
        space)
    A = dense_from_band(block_band(system.blocks))
    m = 3
    scale = np.max(np.abs(A))
    n_x = th.n - 1
    for i in range(n_x):
        for jx in range(n_x):
            block = A[i * m:(i + 1) * m, jx * m:(jx + 1) * m]
            off = block - np.diag(np.diag(block))
            assert np.max(np.abs(off)) <= 1e-12 * scale


def test_reduced_solution_reconstruction_layout():
    case = get_case(1)
    th = build_uniform_partition(0.0, 2.0, 8)
    yh = build_uniform_partition(0.0, 1.0, 5)
    j = np.arange(1, yh.n)
    space = _space_from_columns(
        yh, np.column_stack([np.sin(np.pi * j / yh.n),
                             np.sin(2 * np.pi * j / yh.n)]))
    system = assemble_reduced(
        reference_operators(case.problem, case.lift, TensorGrid(th, yh)),
        space)
    rsol = solve_reduced(system)
    assert rsol.m == 2
    nodal = rsol.interior_vector().reshape(th.n - 1, yh.n - 1)
    # independent reconstruction: sum_k pbar_k(x_i) phi_k(y_j)
    rng = np.random.default_rng(0)
    for _ in range(12):
        i = int(rng.integers(1, th.n))
        jj = int(rng.integers(1, yh.n))
        val = sum(rsol.coeffs[k, i - 1] * space.modes[jj, k] for k in range(2))
        assert nodal[i - 1, jj - 1] == pytest.approx(val, abs=1e-14)


def test_prolongation_and_empty_space_guards():
    # modes of another transverse resolution than the operators' grid
    th = build_uniform_partition(0.0, 2.0, 8)
    yh = build_uniform_partition(0.0, 1.0, 5)
    other = build_uniform_partition(0.0, 1.0, 7)
    case = get_case(1)
    ops = reference_operators(case.problem, case.lift, TensorGrid(th, yh))
    with pytest.raises(ValueError):
        assemble_reduced(ops, _full_space(other))
    system = assemble_reduced(ops, empty_space(yh))
    with pytest.raises(ValueError):
        solve_reduced(system)
    # a singular reduced system is a numerical failure, not a LinAlgError
    system = assemble_reduced(ops, _full_space(yh))
    singular = ReducedSystem(np.zeros_like(system.blocks), system.rhs,
                             system.space, system.ops)
    with pytest.raises(RuntimeError):
        solve_reduced(singular)


# ---------------------------------------------------------------------------
# The x-block projection against the tensor-product oracle


def _random_space(yh, m, seed=0):
    """m generic M-orthonormal modes (no symmetry a wrong block could hide
    behind)."""
    n_i = yh.n - 1
    rng = np.random.default_rng(seed)
    cols = orthonormalize(np.zeros((n_i, 0)), rng.normal(size=(n_i, m)),
                          p1_interior(yh, "mass"))
    modes = np.zeros((yh.n + 1, m))
    modes[1:-1, :] = cols
    return ReductionSpace(yh, modes, np.ones(m), np.zeros(m + 1))


def _advective_setup(m=5):
    # nonsymmetric A: a transposed or shifted x-block fails the oracle
    cs = case1(b=(1.0, 0.5))
    th = build_uniform_partition(*cs.problem.omega_x, 11)
    yh = build_uniform_partition(*cs.problem.omega_y, 13)
    ops = reference_operators(cs.problem, cs.lift, TensorGrid(th, yh))
    return cs, th, _random_space(yh, m), ops


def test_block_projection_matches_kron_oracle(dense_from_band):
    cs, th, space, ops = _advective_setup()
    system = assemble_reduced(ops, space)
    P = np.kron(np.eye(th.n - 1), space.modes[1:-1, :])
    A_r = P.T @ ops.A_int.toarray() @ P
    rhs_r = P.T @ ops.rhs_int
    m = space.m
    assert system.blocks.shape == (3 * (th.n - 1) - 2, m, m)
    assert system.rhs.shape == (th.n - 1, m)
    A = dense_from_band(block_band(system.blocks))
    assert np.max(np.abs(A - A_r)) <= 1e-14 * np.max(np.abs(A_r))
    assert np.max(np.abs(system.rhs.ravel() - rhs_r)) \
        <= 1e-14 * np.max(np.abs(rhs_r))
    # the reduced coefficients are the dense Galerkin solution
    expected = np.linalg.solve(A_r, rhs_r).reshape(th.n - 1, m).T
    rsol = solve_reduced(system)
    assert np.max(np.abs(rsol.coeffs - expected)) \
        <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("slab_rows", [1, 3])
def test_projected_products_are_the_contracted_products_bitwise(
        slab_rows, monkeypatch):
    # nonsymmetric A and left != X; 10 block rows in slabs of 1 or 3 (the
    # last one partial) give the one-slab products bit for bit
    cs, th, space, ops = _advective_setup()
    X = space.modes[1:-1, :]
    L = _random_space(space.part, 3, seed=1).modes[1:-1, :]
    xb = reduced.XBlocks(ops)
    assert xb.n_x <= reduced._SLAB_ROWS
    whole = xb.products(X)
    assert same_bits(xb.products(X, L), L.T @ whole)
    monkeypatch.setattr(reduced, "_SLAB_ROWS", slab_rows)
    assert same_bits(xb.products(X), whole)
    assert same_bits(xb.products(X, L), L.T @ whole)


@pytest.mark.parametrize("nx,ny", STENCIL_GRIDS + [(4, 3)])
def test_products_are_sparse_products_of_one_block_column_bitwise(nx, ny):
    # A_ij X is row block i of the CSR product of A with X in block column j
    # and zeros elsewhere, bit for bit: the diagonals' three shifted
    # products sum each row as that product does. Nonsymmetric A, variable
    # k, a zero column and negative zeros in X (a sign of zero would show)
    cs = case1(b=(100.0, 7.0))
    pd = replace(cs.problem, k=lambda x, y: 1.0 + 0.3 * np.asarray(x)
                 + 0.1 * np.asarray(y))
    xb = reduced.XBlocks(reference_operators(
        pd, cs.lift, build_grid(pd.omega_x, pd.omega_y, nx, ny)))
    A = xb.ops.A_int.tocsr()
    A.sort_indices()
    X = np.random.default_rng(3).standard_normal((xb.n_y, 5))
    X[:, 1] = 0.0
    X[::2, 3] = -0.0
    got = xb.products(X)
    for p, (i, j) in enumerate(zip(xb.rows, xb.cols)):
        Xj = np.zeros((xb.n_x, xb.n_y, 5))
        Xj[j] = X
        want = (A @ Xj.reshape(-1, 5)).reshape(Xj.shape)[i]
        assert same_bits(got[p], want), (i, j)


def test_reduced_assembly_peak_memory():
    # the projection holds slab-sized products only: its peak stays below
    # 4.5 (n_x n_y m) stacks (the (n_pairs, n_y, m) stack of every A_ij Phi
    # and its temporaries peaked at 6)
    cs = case1()
    th = build_uniform_partition(*cs.problem.omega_x, 200)
    yh = build_uniform_partition(*cs.problem.omega_y, 100)
    ops = reference_operators(cs.problem, cs.lift, TensorGrid(th, yh))
    space = _random_space(yh, 8)
    assemble_reduced(ops, space)  # first-call allocations
    tracemalloc.start()
    try:
        assemble_reduced(ops, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stacks = peak / (8.0 * (th.n - 1) * (yh.n - 1) * space.m)
    assert stacks < 4.5, (f"reduced assembly peaks at {stacks:.2f} stacks "
                          f"of (n_x, n_y, m) float64 (limit 4.5)")


def test_truncated_system_is_the_system_of_the_truncated_space():
    # truncate() slices the leading m x m sub-blocks exactly; against a
    # fresh assembly it agrees to round-off only, because BLAS rounds
    # Phi^T A_ij Phi differently for different column counts (m = 1 takes
    # the matrix-vector kernel)
    cs, th, space, ops = _advective_setup()
    full = assemble_reduced(ops, space)
    for m in (1, 3, space.m):
        cut = full.truncate(m)
        direct = assemble_reduced(ops, space.truncate(m))
        assert cut.space.m == m
        assert np.array_equal(cut.blocks, full.blocks[:, :m, :m])
        assert np.array_equal(cut.rhs, full.rhs[:, :m])
        for got, want in ((cut.blocks, direct.blocks), (cut.rhs, direct.rhs),
                          (solve_reduced(cut).coeffs,
                           solve_reduced(direct).coeffs)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_inaccurate_reduced_solve_is_caught_by_the_residual(monkeypatch):
    # the guard multiplies the solution by the stacked blocks: an exact
    # solve of the nonsymmetric system passes it, and one off by a relative
    # 1e-6 raises
    _, _, space, ops = _advective_setup()
    system = assemble_reduced(ops, space)
    solve_reduced(system)
    exact = reduced.band_solve
    monkeypatch.setattr(reduced, "band_solve",
                        lambda *args, **kwargs: exact(*args, **kwargs)
                        * (1.0 + 1e-6))
    with pytest.raises(RuntimeError, match="reduced solve residual"):
        solve_reduced(system)


# ---------------------------------------------------------------------------
# The snapshot source and the strong-form lifting source


def _smooth_sine_lift():
    return LiftingFunction(
        value=lambda x, y: np.sin(np.pi * y) + 0.0 * x,
        dx=lambda x, y: np.zeros(np.broadcast(x, y).shape),
        dy=lambda x, y: np.pi * np.cos(np.pi * y) + 0.0 * x,
        laplacian=lambda x, y: -np.pi ** 2 * np.sin(np.pi * y) + 0.0 * x,
    )


def _plain_pd(**kw):
    base = dict(
        k=lambda x, y: 1.0 + 0.0 * x,
        b1=lambda x, y: 0.0 * x,
        b2=lambda x, y: 0.0 * x,
        F=lambda x, y: np.ones(np.broadcast(x, y).shape),
        omega_x=(0.0, 2.0),
        omega_y=(0.0, 1.0),
    )
    base.update(kw)
    return ProblemData(**base)


def test_lift_source_approximates_the_strong_form_source():
    """For h = sin(pi y), F = 0, k = 1, b = 0 the weak lifting's snapshot
    source, the L2 representative of f - a(h, .), must approach delta_h's
    F + k Lap(h) = -pi^2 sin(pi y); compared away from the vertical edges
    where the zero Dirichlet frame of the projection leaves a local
    layer."""
    grid = TensorGrid(build_uniform_partition(0.0, 2.0, 100),
                      build_uniform_partition(0.0, 1.0, 100))
    zero = lambda x, y: 0.0 * x
    source = reference_operators(_plain_pd(F=zero), _smooth_sine_lift(), grid,
                                 "weak_lifting").snapshot_source().values
    X, Y = grid.node_coords()
    target = -np.pi ** 2 * np.sin(np.pi * Y)
    inner = (X >= 0.2) & (X <= 1.8)
    err = np.max(np.abs(source[inner] - target[inner]))
    assert err <= 0.02 * np.max(np.abs(target))


def test_delta_h_and_weak_agree_on_a_smooth_lifting():
    """A C-infinity skewed ramp with b = 0: folding k*Lap(h) into the source
    (strong form) and subtracting a(h, .) (weak form) then differ by
    quadrature error only. (With advection the two modes
    differ by the b.grad(h) term that delta_h drops by construction.)"""
    s0, amp, span = 0.55, 0.45, 1.8
    prof = lambda t: s0 + amp * np.cos(np.pi * t / span)
    dprof = lambda t: -amp * np.pi / span * np.sin(np.pi * t / span)
    ddprof = lambda t: -amp * (np.pi / span) ** 2 * np.cos(np.pi * t / span)
    lift = LiftingFunction(
        value=lambda x, y: prof(y + 0.4 * x),
        dx=lambda x, y: 0.4 * dprof(y + 0.4 * x),
        dy=lambda x, y: dprof(y + 0.4 * x),
        laplacian=lambda x, y: 1.16 * ddprof(y + 0.4 * x),
    )
    pd = _plain_pd(
        F=lambda x, y: np.exp(0.5 * x) * (1.0 + y),
    )
    grid = TensorGrid(build_uniform_partition(0.0, 2.0, 64),
                      build_uniform_partition(0.0, 1.0, 32))
    sols = {}
    for mode in ("delta_h", "weak_lifting"):
        ops = reference_operators(pd, lift, grid, mode)
        sols[mode] = solve_reference(ops)
    a = sols["delta_h"].interior_vector()
    b = sols["weak_lifting"].interior_vector()
    assert np.linalg.norm(a - b) <= 0.1 * np.linalg.norm(b)
