"""Reference Q1 assembly: quadrature, modes, norms and convergence order."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import STENCIL_GRIDS, build_grid, same_bits
from skewlift import cli, problem
from skewlift.cases import case1, case2, case3, get_case
from skewlift.problem import (
    GridField,
    LiftingFunction,
    MODES,
    ProblemData,
    affine_boundary_blend,
    reference_operators,
    solve_reference,
)
from skewlift.transverse import _p1_diagonals

V_ENERGY_EXACT = 5.0 * np.pi**2 / 8.0  # int |grad(sin(pi x/2) sin(pi y))|^2


def _laplace_data(F=None):
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    return ProblemData(
        k=lambda x, y: np.ones(np.broadcast(x, y).shape),
        b1=zero, b2=zero,
        F=F if F is not None else zero,
        omega_x=(0.0, 2.0), omega_y=(0.0, 1.0),
    )


def _sine(x, y):
    return np.sin(0.5 * np.pi * np.asarray(x)) * np.sin(np.pi * np.asarray(y))


def _held_factors(ops):
    """The sparse factors an operator object holds."""
    return [v for v in vars(ops).values() if isinstance(v, spla.SuperLU)]


def test_v_inner_energy_of_sine_interpolant():
    # the sine vanishes on the boundary, so its energy is that of its
    # interior values
    pd = _laplace_data()
    vals = []
    for nx, ny in ((32, 16), (64, 32)):
        grid = build_grid(pd.omega_x, pd.omega_y, nx, ny)
        X, Y = grid.node_coords()
        u = _sine(X, Y)[1:-1, 1:-1].ravel()
        G = reference_operators(pd, LiftingFunction.zero(), grid).G_int
        vals.append(float(u @ (G @ u)))
    err = [abs(v - V_ENERGY_EXACT) for v in vals]
    assert vals[1] == pytest.approx(V_ENERGY_EXACT, rel=1e-2)
    # one uniform refinement cuts the energy error by ~4 (second order)
    assert 3.0 < err[0] / err[1] < 5.0


def test_reference_second_order_in_L2():
    # manufactured smooth solution with homogeneous boundary data
    F = lambda x, y: (1.25 * np.pi**2) * _sine(x, y)
    pd = _laplace_data(F)
    lift = LiftingFunction.zero()
    errs = []
    for nx, ny in ((20, 10), (40, 20)):
        grid = build_grid(pd.omega_x, pd.omega_y, nx, ny)
        ops = reference_operators(pd, lift, grid)
        sol = solve_reference(ops)
        X, Y = grid.node_coords()
        diff = (sol.coeffs - _sine(X, Y))[1:-1, 1:-1].ravel()
        errs.append(ops.l2_norm(diff))
    assert 3.6 < errs[0] / errs[1] < 4.4


def test_system_matrix_is_mode_independent():
    cs = case1()
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 24, 12)
    mats = [reference_operators(cs.problem, cs.lift, grid, m).A_int
            for m in MODES]
    ref = mats[0].toarray()
    for other in mats[1:]:
        np.testing.assert_array_equal(other.toarray(), ref)


def test_weak_and_delta_h_references_converge_together():
    cs = case1()
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 120, 60)
    ops = reference_operators(cs.problem, cs.lift, grid, "weak_lifting")
    weak = solve_reference(ops)
    dh = solve_reference(
        reference_operators(cs.problem, cs.lift, grid, "delta_h"))
    X, Y = grid.node_coords()
    exact = cs.exact_total(X, Y) - cs.lift.value(X, Y)
    nrm = ops.l2_norm(exact[1:-1, 1:-1].ravel())
    for sol in (weak, dh):
        err = ops.l2_norm((sol.coeffs - exact)[1:-1, 1:-1].ravel())
        assert err / nrm < 1e-2
    gap = ops.l2_norm((weak.coeffs - dh.coeffs)[1:-1, 1:-1].ravel())
    assert gap / nrm < 1e-2


def test_weak_lifting_cancels_band_source_like_delta_h():
    # F carries -(1+0.4^2) s''(t), which jumps at the band edges; the weak
    # right-hand side must integrate it so that it cancels against a(h, v)
    # as the folded delta_h integrand does pointwise (a plain 2x2 rule on
    # the cut cells leaves a band-shaped field of relative V-size 5.6e-2)
    cs = case1()
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 160, 80)
    ops = reference_operators(cs.problem, cs.lift, grid, "weak_lifting")
    weak = solve_reference(ops)
    dh = solve_reference(
        reference_operators(cs.problem, cs.lift, grid, "delta_h"))
    gap = ops.v_norm(weak.interior_vector() - dh.interior_vector())
    assert gap <= 1e-3 * ops.v_norm(dh.interior_vector())


def test_advection_is_discretely_skew_symmetric():
    # for constant b and zero-boundary fields, v' A v == v' G v exactly
    cs = case1(b=(100.0, 7.0))
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 20, 12)
    ops = reference_operators(cs.problem, cs.lift, grid)
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = rng.standard_normal(ops.A_int.shape[0])
        qa = float(v @ (ops.A_int @ v))
        qg = float(v @ (ops.G_int @ v))
        assert qa == pytest.approx(qg, rel=1e-12)
        assert qg > 0.0


def test_gram_matrix_is_symmetric():
    cs = case1(b=(10.0, 0.0))
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 16, 10)
    G = reference_operators(cs.problem, cs.lift, grid).G_int
    asym = np.abs((G - G.T).toarray()).max()
    assert asym <= 1e-13 * np.abs(G.toarray()).max()


def _p1_interior(part, kind):
    """Interior 1D P1 matrix of kind ("stiff" or "mass", coefficient 1)."""
    lower, diag, upper = _p1_diagonals(part, np.ones((part.n, 2)), kind)
    return sp.diags([lower[1:-1], diag[1:-1], upper[1:-1]], [-1, 0, 1],
                    shape=(part.n - 1, part.n - 1))


@pytest.mark.parametrize("nx,ny", STENCIL_GRIDS)
def test_unit_diffusivity_operators_are_kronecker_sums(nx, ny):
    # k = 1 on a tensor grid: the Q1 Gram is Kx (x) My + Mx (x) Ky and the
    # L2 norm is that of the mass Mx (x) My of the 1D P1 matrices (interior
    # nodes x-major; one interior y-node at ny = 2, one x-node at nx = 2)
    cs = case1()
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, nx, ny)
    ops = reference_operators(cs.problem, cs.lift, grid)
    (kx, mx), (ky, my) = ((_p1_interior(t, "stiff"), _p1_interior(t, "mass"))
                          for t in (grid.tx, grid.ty))
    want = (sp.kron(kx, my) + sp.kron(mx, ky)).toarray()
    assert (np.abs(ops.G_int.toarray() - want).max()
            <= 1e-14 * np.abs(want).max())
    mass = sp.kron(mx, my)
    rng = np.random.default_rng(4)
    for _ in range(3):
        u = rng.standard_normal(mass.shape[0])
        want = np.sqrt(u @ (mass @ u))
        assert ops.l2_norm(u) == pytest.approx(want, rel=1e-14, abs=0.0)


def _cell_loop_matrix(pd, grid):
    """Interior matrix of a (k grad u.grad v + (b.grad u) v) by a loop over
    the cells and their 2x2 Gauss points; hat of corner (a, b) of a cell is
    (a ? u : 1 - u) (b ? v : 1 - v) in local coordinates (u, v)."""
    tx, ty = grid.tx, grid.ty
    full = np.zeros((grid.node_count, grid.node_count))
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    gauss = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
    for cx in range(tx.n):
        for cy in range(ty.n):
            ids = [(cx + a) * (ty.n + 1) + cy + b for a, b in corners]
            for u in gauss:
                for v in gauss:
                    x, y = tx.nodes[cx] + u * tx.h, ty.nodes[cy] + v * ty.h
                    fu = [(u if a else 1 - u) for a, _ in corners]
                    fv = [(v if b else 1 - v) for _, b in corners]
                    val = [p * q for p, q in zip(fu, fv)]
                    gx = [(1 if a else -1) * q / tx.h
                          for (a, _), q in zip(corners, fv)]
                    gy = [(1 if b else -1) * p / ty.h
                          for (_, b), p in zip(corners, fu)]
                    k, b1, b2 = (float(np.broadcast_to(f(x, y), ()))
                                 for f in (pd.k, pd.b1, pd.b2))
                    w = tx.h * ty.h / 4.0
                    for t in range(4):
                        for s in range(4):
                            full[ids[t], ids[s]] += w * (
                                k * (gx[t] * gx[s] + gy[t] * gy[s])
                                + (b1 * gx[s] + b2 * gy[s]) * val[t])
    n = (tx.n - 1) * (ty.n - 1)
    return full.reshape(grid.shape * 2)[1:-1, 1:-1, 1:-1, 1:-1].reshape(n, n)


@pytest.mark.parametrize("nx,ny", STENCIL_GRIDS)
def test_variable_coefficient_matrix_matches_a_cell_loop(nx, ny):
    cs = case1(b=(100.0, 0.0))
    pd = replace(cs.problem, k=lambda x, y: 1.0 + 0.3 * np.asarray(x)
                 + 0.1 * np.asarray(y))
    grid = build_grid(pd.omega_x, pd.omega_y, nx, ny)
    ops = reference_operators(pd, cs.lift, grid)
    want = _cell_loop_matrix(pd, grid)
    got = ops.A_int.toarray()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the Gram is the same loop without advection
    zero = lambda x, y: 0.0
    want_g = _cell_loop_matrix(replace(pd, b1=zero, b2=zero), grid)
    assert (np.abs(ops.G_int.toarray() - want_g).max()
            <= 1e-13 * np.abs(want_g).max())


@pytest.mark.parametrize("nx,ny", STENCIL_GRIDS + [(4, 3)])
def test_interior_matrices_share_one_canonical_nine_point_pattern(nx, ny):
    # each matrix is the nine diagonals dx (ny - 1) + dy of the stencil in
    # ascending order; ny = 2 has no interior y-coupling (dy = 0 only) and
    # at ny = 3 the diagonals (dx, 1) and (dx + 1, -1) coincide
    cs = case1(b=(1.0, 0.5))
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, nx, ny)
    ops = reference_operators(cs.problem, cs.lift, grid)
    n_y, n = ny - 1, (nx - 1) * (ny - 1)
    dy = np.arange(-1, 2) if n_y > 1 else np.zeros(1, dtype=int)
    offsets = np.unique(np.arange(-1, 2)[:, None] * n_y + dy)
    tri = lambda n: sp.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)],
                             [-1, 0, 1], shape=(n, n))
    outside = sp.kron(tri(nx - 1), tri(ny - 1)).toarray() == 0
    for mat in (ops.A_int, ops.G_int):
        assert mat.format == "dia"
        np.testing.assert_array_equal(mat.offsets, offsets)
        assert mat.data.shape == (offsets.size, n)
        # couplings to boundary nodes are stored as zeros
        assert not mat.toarray()[outside].any()
    # the zeros drop out on conversion: SuperLU gets the Q1 pattern
    assert ops.A_int.tocsc().nnz == (3 * (nx - 1) - 2) * (3 * (ny - 1) - 2)


@pytest.mark.parametrize("nx,ny", STENCIL_GRIDS + [(4, 3), (3, 9), (11, 6)])
def test_stencil_slabs_give_the_one_slab_matrices_bitwise(nx, ny, monkeypatch):
    # a row's four cells lie in two neighbouring cell columns, which slab
    # borders split: the slab loop must still sum them in cell-id order, and
    # the node column on each border is an interior row that one slab
    # starts and the next completes
    cs = case1(b=(100.0, 0.0))
    pd = replace(cs.problem, k=lambda x, y: 1.0 + 0.3 * np.asarray(x)
                 + 0.1 * np.asarray(y))
    grid = build_grid(pd.omega_x, pd.omega_y, nx, ny)
    assert [lo for lo, _ in problem._column_slabs(grid)] == [0]
    whole = problem._interior_matrices(grid, pd)
    # at most 5 columns per slab: >= 3 slabs and a partial last one (a
    # one-column last slab at nx = 16 and 11; only one-column slabs at nx =
    # 2, 3 and 4, each completing the row carried into it and carrying one)
    step = max(1, min(5, (nx - 1) // 2))
    monkeypatch.setattr(problem, "_BLOCK_POINTS", ny * step)
    borders = [lo for lo, _ in problem._column_slabs(grid)]
    assert borders == list(range(0, nx, step))
    assert all(0 < lo < nx for lo in borders[1:])  # interior node columns
    sliced = problem._interior_matrices(grid, pd)
    assert whole[0] is not whole[1]  # b != 0: G and A are both assembled
    for got, want in zip(sliced, whole):
        assert same_bits(got.data, want.data)
        assert same_bits(got.offsets, want.offsets)


def _node_of(grid, cell, t):
    """Global (x-major) node id of corner t of cell (problem._CORNERS)."""
    cx, cy = divmod(cell, grid.ny)
    a, b = problem._CORNERS[t]
    return (cx + a) * (grid.ny + 1) + cy + b


@pytest.mark.parametrize("nx,ny,step", [(9, 2, 2), (9, 2, None), (11, 3, 3),
                                        (11, 3, 1), (7, 5, 2)])
def test_stencil_sums_each_entry_in_cell_id_order(nx, ny, step,
                                                  monkeypatch):
    # the summation order pinned bit for bit: a plain loop over the cells in
    # id order adds each cell's 16 entries into a dense matrix, and the DIA
    # data read from it must be the assembled diagonals' bytes (ny = 2 keeps
    # dy = 0 only, ny = 3 merges two pairs of diagonals, and step forces
    # slab borders)
    cs = case1(b=(100.0, 7.0))
    pd = replace(cs.problem, k=lambda x, y: 1.0 + 0.3 * np.asarray(x)
                 + 0.1 * np.asarray(y))
    grid = build_grid(pd.omega_x, pd.omega_y, nx, ny)
    if step is not None:
        monkeypatch.setattr(problem, "_BLOCK_POINTS", ny * step)
        assert len(list(problem._column_slabs(grid))) > 1
    # the cell matrices each assembly sums, recorded slab by slab
    slabs = {False: [], True: []}
    cell_matrices = problem._cell_matrices

    def recording(quad, diff, b1=None, b2=None):
        out = cell_matrices(quad, diff, b1, b2)
        slabs[b1 is not None].append((quad.cells, out.copy()))
        return out

    monkeypatch.setattr(problem, "_cell_matrices", recording)
    G, A = problem._interior_matrices(grid, pd)
    n = (nx - 1) * (ny - 1)
    interior = np.full(grid.shape, -1)  # interior row of a node, or -1
    interior[1:-1, 1:-1] = np.arange(n).reshape(nx - 1, ny - 1)
    interior = interior.ravel()
    for mat, advective in ((G, False), (A, True)):
        dense = np.zeros((n, n))
        for cells, L in slabs[advective]:
            for i, cell in enumerate(cells.tolist()):
                rows = [interior[_node_of(grid, cell, t)] for t in range(4)]
                for t in range(4):
                    for s in range(4):
                        if rows[t] >= 0 and rows[s] >= 0:
                            dense[rows[t], rows[s]] += L[4 * t + s, i]
        want = np.zeros(mat.data.shape)
        for k, off in enumerate(mat.offsets.tolist()):
            for j in range(max(off, 0), n + min(off, 0)):
                want[k, j] = dense[j - off, j]
        assert same_bits(mat.data, want)


@pytest.mark.parametrize("points", [None, 64])
def test_loads_sum_each_node_in_rule_then_cell_order(points, monkeypatch):
    # the oracle adds each block's cell loads node by node, the rules in
    # order and each rule's cells in order; _load must give its bytes (64
    # points: band blocks of one cell, plain blocks of 16)
    cs = case1(b=(100.0, 7.0))
    pd, lift = cs.problem, cs.lift
    grid = build_grid(pd.omega_x, pd.omega_y, 13, 7)
    if points is not None:
        monkeypatch.setattr(problem, "_BLOCK_POINTS", points)
    plain, band = problem._rhs_rules(grid, lift)
    assert plain[0].size and band[0].size
    for rules in ([plain, band], [band, plain], [band]):
        blocks = []

        def local(quad):
            loads = quad.w * (quad.evaluate(pd.F) @ quad.N
                              + quad.evaluate(lift.dx) @ quad.dNx)
            blocks.append((quad.cells, loads))
            return loads

        got = problem._load(grid, rules, local)
        want = np.zeros(grid.node_count)
        for cells, loads in blocks:
            for i, cell in enumerate(cells.tolist()):
                for t in range(4):
                    want[_node_of(grid, cell, t)] += loads[i, t]
        assert same_bits(got, want)


def test_operator_assembly_peak_memory():
    # every coefficient and cell-matrix array lives for one slab of cells
    # (163 of the 200 columns, 81 of the 400) and is summed in place into the
    # diagonals, and a load lives for one block of its rule and is summed in
    # place into the nodal vector: the peak is the live operators (about 9
    # interior vectors: the nine diagonals of one matrix, G_int = A_int at
    # b = 0; the mass is not assembled) and one slab's arrays. Measured 29.7
    # and 17.4 interior vectors; the limits, set 7 % and 8 % above the 36.1
    # and 19.2 of a row-aligned slab array copied into the diagonals and a
    # cell-to-node index table, stay. With the assembled mass
    # (nine more diagonals) the peak was 45.1 and 28.3, two CSR matrices and
    # their shared pattern peaked at 49.9 and 33.1, whole-grid offsets,
    # gather index and load arrays at 50.5 and 45.8, and the whole-grid
    # assembly before the slabs at 73 (200 x 100)
    cs = case1()
    for nx, ny, limit in ((200, 100, 38.5), (400, 200, 20.8)):
        grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, nx, ny)
        reference_operators(cs.problem, cs.lift, grid)  # first-call arrays
        tracemalloc.start()
        try:
            reference_operators(cs.problem, cs.lift, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vectors = peak / (8.0 * (grid.nx - 1) * (grid.ny - 1))
        assert vectors < limit, (
            f"operator assembly at {nx}x{ny} peaks at {vectors:.1f} "
            f"interior float64 vectors (limit {limit:g})")


def _rule_points(quad):
    """Coordinates of every point of quad listed one by one, (cells, q)."""
    shape = np.broadcast_shapes(quad.x.shape, quad.y.shape)
    return (np.ascontiguousarray(np.broadcast_to(c, shape)).reshape(
        shape[0], -1) for c in (quad.x, quad.y))


@pytest.mark.parametrize("case", [case1, lambda: case1(b=(100.0, 7.0)), case2,
                                  case3], ids=["case1", "case1-adv", "case2",
                                               "case3"])
def test_tensor_evaluation_equals_pointwise_evaluation(case):
    # a callback gets the rule's 1D point sets (cells, n, 1) and (cells, 1, n)
    # and must return, bit for bit, its values on the full list of points
    cs = case()
    pd, lift = cs.problem, cs.lift
    grid = build_grid(pd.omega_x, pd.omega_y, 12, 7)
    full = problem._Quadrature(grid)
    band = problem._Quadrature(grid, np.arange(0, 84, 5), problem._BAND_SUB)
    callbacks = [pd.k, pd.b1, pd.b2, pd.F, lift.value, lift.dx, lift.dy,
                 lift.laplacian, lambda x, y: 2.5]
    if cs.exact_total is not None:
        callbacks += [cs.exact_total,
                      lambda x, y: cs.exact_total(x, y) - cs.lift.value(x, y)]
    for quad in (full, band):
        X, Y = _rule_points(quad)
        assert X.shape == (quad.cells.size, quad.N.shape[0])
        for f in callbacks:
            want = np.broadcast_to(np.asarray(f(X, Y), dtype=float), X.shape)
            got = quad.evaluate(f)
            assert got.shape == X.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize("case", [case1, lambda: case1(b=(100.0, 7.0)), case2,
                                  case3], ids=["case1", "case1-adv", "case2",
                                               "case3"])
def test_lifting_term_vanishes_off_the_band(case):
    # the lifting's gradient is exactly 0 at every point of a plain cell, so
    # a(h, v) over the band alone is a(h, v) over every cell, bit for bit
    cs = case()
    pd, lift = cs.problem, cs.lift
    grid = build_grid(pd.omega_x, pd.omega_y, 37, 11)
    plain, band = problem._rhs_rules(grid, lift)  # (cells, sub) pairs
    assert plain[0].size and band[0].size
    every = problem._lifting_vector(grid, [plain, band], pd, lift)
    assert same_bits(problem._lifting_vector(grid, [band], pd, lift), every)
    # the zero lifting has no band and a zero lifting term
    assert problem._rhs_rules(grid, LiftingFunction.zero())[1][0].size == 0
    assert not problem._lifting_vector(grid, [], pd, lift).any()


@pytest.mark.parametrize("mode", ["lift", "delta-h"])
def test_one_factorization_per_grid(mode, tmp_path, monkeypatch):
    # b = 0: G is A, so the reference solve, every error_report and the
    # indicator all solve by PCG; the one factorisation of each grid is its
    # Gram preconditioner's stacked pttrf (fine grid, then the coarse
    # indicator grid), and nothing calls splu or spsolve (the snapshot
    # source is a tensor mass solve by ptsv)
    factored = []
    pttrf = problem.scipy.linalg.lapack.dpttrf

    def counting_pttrf(d, e, *args, **kwargs):
        factored.append(d.size)
        return pttrf(d, e, *args, **kwargs)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(problem.scipy.linalg.lapack, "dpttrf", counting_pttrf)
    monkeypatch.setattr(spla, "splu", forbidden("splu"))
    monkeypatch.setattr(spla, "spsolve", forbidden("spsolve"))
    cfg = cli.RunConfig(NH=16, nh=10, NHp=4, m_max=2, n_xi=2, theta=0.5,
                        mode=mode, out=str(tmp_path / "conv.csv"))
    reports = cli.run_case(cfg.validate(), log=lambda *a: None)
    assert len(reports) == 2
    assert factored == [15 * 9, 3 * 9]


def test_gram_is_assembled_separately_with_advection():
    grid = build_grid((0.0, 2.0), (0.0, 1.0), 12, 8)
    cs = case1(b=(1.0, 0.5))
    ops = reference_operators(cs.problem, cs.lift, grid)
    assert ops.G_int is not ops.A_int
    # G is the diffusion-only (b = 0) operator, which is then A itself
    still = reference_operators(case1().problem, cs.lift, grid)
    assert still.G_int is still.A_int
    assert (ops.G_int != still.A_int).nnz == 0
    # the reference solves with A_int, gram_solve with G_int
    r = ops.rhs_int
    x = solve_reference(ops).interior_vector()
    R = ops.gram_solve(r)
    np.testing.assert_allclose(ops.A_int @ x, r, rtol=0,
                               atol=1e-10 * np.linalg.norm(r))
    np.testing.assert_allclose(ops.G_int @ R, r, rtol=0,
                               atol=1e-10 * np.linalg.norm(r))
    assert _held_factors(ops) == []


def _counting_preconditioner(ops):
    """Wrap ops' Gram preconditioner; returns the list of its row counts
    per call (one call per PCG iteration, plus one for the start)."""
    precond, calls = ops._gram_preconditioner, []

    def counting(R):
        calls.append(R.shape[0])
        return precond(R)

    ops.__dict__["_gram_preconditioner"] = counting
    return calls


@pytest.mark.parametrize("k,b", [
    (lambda x, y: 1.0 + 0.2 * np.asarray(y), (0.0, 0.0)),
    (lambda x, y: 1.0 + 0.3 * np.asarray(x) + 0.1 * np.asarray(y), (0.0, 0.0)),
    (None, (1.5, -0.5)),
], ids=["k=1+0.2y", "k=1+0.3x+0.1y", "advective"])
def test_gram_solve_matches_spsolve(k, b):
    # variable k: the k = 1 preconditioner is no longer exact, and PCG
    # iterates to the same solution as a sparse direct solve
    # (the preconditioner's eigen direction is y on 24 x 14, x on 8 x 20)
    cs = case1(b=b)
    pd = cs.problem if k is None else replace(cs.problem, k=k)
    rng = np.random.default_rng(3)
    for nx, ny in ((24, 14), (8, 20)):
        ops = reference_operators(pd, cs.lift,
                                  build_grid(pd.omega_x, pd.omega_y, nx, ny))
        B = np.vstack([ops.rhs_int,
                       rng.standard_normal((2, ops.rhs_int.size))])
        X = ops.gram_solve(B)
        G = ops.G_int.tocsc()
        for x, rhs in zip(X, B):
            want = spla.spsolve(G, rhs)
            assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
        # one right-hand side alone gets the solution of its row in the
        # stack, bit for bit
        assert np.array_equal(ops.gram_solve(B[0]), X[0])
        assert np.array_equal(ops.gram_solve(B[1:]), X[1:])


def test_unit_diffusivity_converges_in_at_most_two_iterations():
    # k = 1: the preconditioner is G_int up to round-off; the 16 x 10 grid
    # takes its eigen direction in y, the 10 x 40 one in x
    cs = case1()
    for nx, ny in ((16, 10), (10, 40), (80, 40)):
        grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, nx, ny)
        ops = reference_operators(cs.problem, cs.lift, grid)
        calls = _counting_preconditioner(ops)
        rng = np.random.default_rng(0)
        ops.gram_solve(np.vstack([ops.rhs_int,
                                  rng.standard_normal(ops.rhs_int.size)]))
        assert 2 <= len(calls) <= 3, calls


def test_gram_solve_iteration_cap_raises(monkeypatch):
    cs = case1()
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 16, 10)
    ops = reference_operators(cs.problem, cs.lift, grid)
    monkeypatch.setattr(problem, "_PCG_MAXITER", 0)
    with pytest.raises(RuntimeError,
                       match=r"V-Gram system G_int: PCG did not converge in 0 "
                             r"iterations \(relative residual 1\.000e\+00"):
        ops.gram_solve(ops.rhs_int)
    # a zero right-hand side needs no iteration
    assert not np.any(ops.gram_solve(np.zeros_like(ops.rhs_int)))


def test_gram_solve_rejects_an_indefinite_matrix():
    cs = case1()
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 16, 10)
    ops = reference_operators(cs.problem, cs.lift, grid)
    ops.G_int = -ops.G_int
    with pytest.raises(RuntimeError, match=r"V-Gram system G_int: PCG found "
                                           r"p\.Gp = .* in iteration 1"):
        ops.gram_solve(ops.rhs_int)


def test_plain_gd_blend_carries_boundary_traces():
    cs = case1()
    ops = reference_operators(
        cs.problem, cs.lift,
        build_grid(cs.problem.omega_x, cs.problem.omega_y, 16, 10),
        "plain_gD")
    assert ops.lift is cs.lift  # the lifting handed in, kept for the coarse grid
    blend = affine_boundary_blend(cs.lift, cs.problem.omega_x)
    y = np.linspace(0.0, 1.0, 21)
    np.testing.assert_allclose(blend.value(0.0, y), cs.lift.value(0.0, y),
                               atol=1e-14)
    np.testing.assert_allclose(blend.value(2.0, y), cs.lift.value(2.0, y),
                               atol=1e-14)
    mid = 0.5 * (cs.lift.value(0.0, y) + cs.lift.value(2.0, y))
    np.testing.assert_allclose(blend.value(1.0, y), mid, atol=1e-14)
    # an x-independent lifting is reproduced identically
    flat = LiftingFunction(
        value=lambda x, y: np.sin(np.pi * np.asarray(y)) * np.ones(np.broadcast(x, y).shape),
        dx=lambda x, y: np.zeros(np.broadcast(x, y).shape),
        dy=lambda x, y: np.pi * np.cos(np.pi * np.asarray(y)) * np.ones(np.broadcast(x, y).shape),
    )
    blend2 = affine_boundary_blend(flat, (0.0, 2.0))
    x = np.linspace(0.0, 2.0, 9)[:, None]
    np.testing.assert_allclose(blend2.value(x, y[None, :]),
                               flat.value(x, y[None, :]), atol=1e-14)


@pytest.mark.parametrize("nx,ny", [(2, 7), (9, 2), (2, 2), (9, 7)])
def test_mass_solve_matches_the_dense_tensor_mass(nx, ny):
    # a direction with one interior node (nx or ny = 2) is a scalar divide
    grid = build_grid((0.0, 2.0), (0.0, 1.0), nx, ny)
    mass = sp.kron(_p1_interior(grid.tx, "mass"),
                   _p1_interior(grid.ty, "mass")).toarray()
    rhs = np.random.default_rng(nx + ny).standard_normal(mass.shape[0])
    got = problem._mass_solve(grid, rhs)
    assert got.shape == (nx - 1, ny - 1)
    np.testing.assert_allclose(got.ravel(), np.linalg.solve(mass, rhs),
                               rtol=1e-13, atol=0)


def test_snapshot_source_of_each_mode():
    # every mode's snapshot source is the L2 representative of its own
    # reference right-hand side: a bilinear field, zero on the boundary,
    # whose interior values Mx (x) My maps to rhs_int to round-off
    cs = case1()
    pd, lift = cs.problem, cs.lift
    grid = build_grid(pd.omega_x, pd.omega_y, 16, 10)
    mass = sp.kron(_p1_interior(grid.tx, "mass"), _p1_interior(grid.ty, "mass"))
    X, Y = grid.node_coords()
    for mode in MODES:
        ops = reference_operators(pd, lift, grid, mode)
        source = ops.snapshot_source()
        assert isinstance(source, GridField) and source.grid is grid
        values = source.values
        assert not values[[0, -1]].any() and not values[:, [0, -1]].any()
        np.testing.assert_allclose(source(X, Y), values, rtol=0,
                                   atol=1e-14 * np.abs(values).max())
        got = mass @ values[1:-1, 1:-1].ravel()
        assert (np.linalg.norm(got - ops.rhs_int)
                <= 1e-13 * np.linalg.norm(ops.rhs_int)), mode


def test_reference_is_solved_to_round_off_at_production_size():
    # b = 0: solve_reference adds one residual correction to its PCG
    # solve, after which a further correction moves the 800 x 400
    # reference by at most 1e-13 of its V-norm
    cs = case1()
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 800, 400)
    ops = reference_operators(cs.problem, cs.lift, grid)
    x = solve_reference(ops).interior_vector()
    step = ops.gram_solve(ops.rhs_int - ops.A_int @ x)
    assert ops.v_norm(step) <= 1e-13 * ops.v_norm(x)


@pytest.mark.parametrize("mode,b", [(m, (0.0, 0.0)) for m in MODES]
                         + [("weak_lifting", (1.5, -0.5))],
                         ids=[*MODES, "weak_lifting-advective"])
def test_operators_hold_the_interior_system_and_one_factor(mode, b,
                                                           monkeypatch):
    # the object keeps the interior restrictions only and no sparse
    # factor: G_int is solved by PCG, the snapshot source by a tensor mass
    # solve that the object does not keep, and the advective reference's
    # (b != 0) factor is local to its one solve
    factored = []
    splu = spla.splu

    def recording_splu(mat, *args, **kwargs):
        factored.append(mat)
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    cs = case1(b=b)
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 16, 10)
    ops = reference_operators(cs.problem, cs.lift, grid, mode)
    n = (grid.nx - 1) * (grid.ny - 1)
    # the system and the Gram are the only matrices: no mass matrix (l2_norm
    # applies Mx (x) My from its 1D factors)
    assert sorted(name for name, value in vars(ops).items()
                  if sp.issparse(value)) == ["A_int", "G_int"]
    assert (ops.G_int is ops.A_int) == (b == (0.0, 0.0))
    for name, value in vars(ops).items():
        if sp.issparse(value):
            assert value.shape == (n, n), name
        elif isinstance(value, np.ndarray):
            assert value.shape == (n,), name
    assert _held_factors(ops) == []
    assert factored == []

    ref = solve_reference(ops)
    ops.residual_norm(ref.interior_vector())
    held = dict(vars(ops))
    ops.snapshot_source()
    assert vars(ops) == held
    assert _held_factors(ops) == []
    if b == (0.0, 0.0):
        # the reference and the estimator both solve with G_int = A_int
        assert factored == []
    else:
        assert len(factored) == 1 and (factored[0] != ops.A_int).nnz == 0


def test_nonpositive_diffusivity_is_rejected():
    pd = _laplace_data()
    bad = ProblemData(
        k=lambda x, y: np.asarray(x) - 1.0,  # negative for x < 1
        b1=pd.b1, b2=pd.b2, F=pd.F,
        omega_x=pd.omega_x, omega_y=pd.omega_y,
    )
    grid = build_grid(pd.omega_x, pd.omega_y, 8, 4)
    with pytest.raises(ValueError):
        reference_operators(bad, LiftingFunction.zero(), grid)


def test_grid_domain_mismatch_is_rejected():
    cs = case1()
    grid = build_grid((0.0, 1.0), (0.0, 1.0), 8, 4)  # wrong x-extent
    with pytest.raises(ValueError):
        reference_operators(cs.problem, cs.lift, grid)


def test_delta_h_requires_laplacian():
    cs = case1()
    nolap = LiftingFunction(value=cs.lift.value, dx=cs.lift.dx, dy=cs.lift.dy)
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 8, 4)
    with pytest.raises(ValueError):
        reference_operators(cs.problem, nolap, grid, "delta_h")


def test_unknown_mode_is_rejected():
    cs = case1()
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 8, 4)
    with pytest.raises(ValueError):
        reference_operators(cs.problem, cs.lift, grid, "strong_lifting")


def test_grid_field_interpolates_bilinearly():
    grid = build_grid((0.0, 2.0), (0.0, 1.0), 4, 4)
    X, Y = grid.node_coords()
    vals = 2.0 * X + 3.0 * Y  # bilinear data is reproduced exactly
    f = GridField(grid, vals)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 2.0, 30)
    y = rng.uniform(0.0, 1.0, 30)
    np.testing.assert_allclose(f(x, y), 2.0 * x + 3.0 * y, atol=1e-13)
    with pytest.raises(ValueError):
        GridField(grid, np.ones((3, 3)))


def test_total_field_adds_lifting_back():
    cs = get_case(1)
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 60, 30)
    sol = solve_reference(reference_operators(cs.problem, cs.lift, grid))
    X, Y = grid.node_coords()
    total = sol.coeffs + cs.lift.value(X, Y)
    exact = cs.exact_total(X, Y)
    # interior nodal accuracy of the full field
    assert np.abs(total - exact)[1:-1, 1:-1].max() < 2e-2
