"""Reference Q1 assembly: quadrature, modes, norms and convergence order."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from skewlift import cli, problem
from skewlift.cases import case1, get_case
from skewlift.mesh import build_grid
from skewlift.problem import (
    GridField,
    LiftingFunction,
    MODES,
    ProblemData,
    reference_operators,
    solve_reference,
)

V_ENERGY_EXACT = 5.0 * np.pi**2 / 8.0  # int |grad(sin(pi x/2) sin(pi y))|^2


def _laplace_data(F=None):
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    return ProblemData(
        k=lambda x, y: np.ones(np.broadcast(x, y).shape),
        b1=zero, b2=zero,
        F=F if F is not None else zero,
        dirichlet=zero,
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
        u = _sine(X, Y).ravel()[grid.interior_ids()]
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


def test_riesz_rhs_equals_weak_rhs_on_matching_grid():
    # (R, v) = a(h, v) holds exactly on V^h, so the two references coincide
    cs = case1()
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 48, 24)
    weak = solve_reference(
        reference_operators(cs.problem, cs.lift, grid, "weak_lifting"))
    riesz = solve_reference(
        reference_operators(cs.problem, cs.lift, grid, "riesz_recon"))
    scale = np.abs(weak.coeffs).max()
    assert np.abs(weak.coeffs - riesz.coeffs).max() <= 1e-10 * scale


def test_weak_and_delta_h_references_converge_together():
    cs = case1()
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 120, 60)
    ops = reference_operators(cs.problem, cs.lift, grid, "weak_lifting")
    weak = solve_reference(ops)
    dh = solve_reference(
        reference_operators(cs.problem, cs.lift, grid, "delta_h"))
    X, Y = grid.node_coords()
    exact = cs.exact_homogenized(X, Y)
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


def test_one_factorization_per_grid(tmp_path, monkeypatch):
    # b = 0: G is A, so the reference solve and every error_report share the
    # fine grid's factor and the indicator the coarse grid's; nothing solves
    # through spsolve
    factored = []
    splu = problem.spla.splu

    def counting_splu(mat, *args, **kwargs):
        factored.append(mat.shape)
        return splu(mat, *args, **kwargs)

    def no_spsolve(*args, **kwargs):
        raise AssertionError("spsolve called")

    monkeypatch.setattr(problem.spla, "splu", counting_splu)
    monkeypatch.setattr(problem.spla, "spsolve", no_spsolve)
    cfg = cli.RunConfig(NH=16, nh=10, NHp=4, m_max=2, n_xi=2, theta=0.5,
                        out=str(tmp_path / "conv.csv"))
    reports = cli.run_case(cfg.validate(), log=lambda *a: None)
    assert len(reports) == 2
    assert factored == [(15 * 9,) * 2, (3 * 9,) * 2]


def test_gram_is_assembled_separately_with_advection():
    grid = build_grid((0.0, 2.0), (0.0, 1.0), 12, 8)
    cs = case1(b=(1.0, 0.5))
    ops = reference_operators(cs.problem, cs.lift, grid)
    assert ops.G_int is not ops.A_int
    # G is the diffusion-only (b = 0) operator, which is then A itself
    still = reference_operators(case1().problem, cs.lift, grid)
    assert still.G_int is still.A_int
    assert (ops.G_int != still.A_int).nnz == 0
    # a G solve does not reuse A's factor: the reference solves with A_int,
    # G_lu with G_int
    r = ops.rhs_int
    x = solve_reference(ops).interior_vector()
    R = ops.G_lu.solve(r)
    np.testing.assert_allclose(ops.A_int @ x, r, rtol=0,
                               atol=1e-10 * np.linalg.norm(r))
    np.testing.assert_allclose(ops.G_int @ R, r, rtol=0,
                               atol=1e-10 * np.linalg.norm(r))
    assert _held_factors(ops) == [ops.G_lu]


def test_plain_gd_blend_carries_boundary_traces():
    cs = case1()
    ops = reference_operators(
        cs.problem, cs.lift,
        build_grid(cs.problem.omega_x, cs.problem.omega_y, 16, 10),
        "plain_gD")
    assert ops.lift is cs.lift  # the lifting handed in, kept for the coarse grid
    snap_pd, blend = ops.snapshot_problem
    assert snap_pd is cs.problem
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
    from skewlift.problem import affine_boundary_blend
    blend2 = affine_boundary_blend(flat, (0.0, 2.0))
    x = np.linspace(0.0, 2.0, 9)[:, None]
    np.testing.assert_allclose(blend2.value(x, y[None, :]),
                               flat.value(x, y[None, :]), atol=1e-14)


def test_snapshot_problem_of_each_mode():
    # weak_lifting hands its own pair on; delta_h folds k Lap(h) into the
    # source, bit for bit the reference's integrand, and hands on the zero
    # lifting (riesz_recon: tests/test_transverse.py)
    cs = case1()
    pd, lift = cs.problem, cs.lift
    grid = build_grid(pd.omega_x, pd.omega_y, 16, 10)
    weak = reference_operators(pd, lift, grid, "weak_lifting")
    assert weak.snapshot_problem[0] is pd and weak.snapshot_problem[1] is lift
    ops = reference_operators(pd, lift, grid, "delta_h")
    snap_pd, snap_lift = ops.snapshot_problem
    rng = np.random.default_rng(1)
    x, y = rng.uniform(0.0, 2.0, 50), rng.uniform(0.0, 1.0, 50)
    assert np.array_equal(snap_pd.F(x, y),
                          pd.F(x, y) + pd.k(x, y) * lift.laplacian(x, y))
    for part in (snap_lift.value, snap_lift.dx, snap_lift.dy):
        assert not np.any(part(x, y))


def test_riesz_operators_hold_no_mass_factor():
    # only the reconstruction solves with M; its factor is freed before the
    # reference solve adds the A factor
    cs = case1()
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 16, 10)
    ops = reference_operators(cs.problem, cs.lift, grid, "riesz_recon")
    assert _held_factors(ops) == []
    solve_reference(ops)
    assert _held_factors(ops) == [ops.G_lu]


@pytest.mark.parametrize("mode,b", [(m, (0.0, 0.0)) for m in MODES]
                         + [("weak_lifting", (1.5, -0.5))],
                         ids=[*MODES, "weak_lifting-advective"])
def test_operators_hold_the_interior_system_and_one_factor(mode, b,
                                                           monkeypatch):
    # the object keeps the interior restrictions only (riesz_field, the
    # reconstructed nodal field, is riesz_recon's output), and its one
    # factor is G_int's: the mass and advective reference factors are local
    factored = []
    splu = problem.spla.splu

    def recording_splu(*args, **kwargs):
        factored.append(splu(*args, **kwargs))
        return factored[-1]

    monkeypatch.setattr(problem.spla, "splu", recording_splu)
    cs = case1(b=b)
    grid = build_grid(cs.problem.omega_x, cs.problem.omega_y, 16, 10)
    ops = reference_operators(cs.problem, cs.lift, grid, mode)
    n = (grid.nx - 1) * (grid.ny - 1)
    for name, value in vars(ops).items():
        if sp.issparse(value):
            assert value.shape == (n, n), name
        elif isinstance(value, np.ndarray) and name != "riesz_field":
            assert value.shape == (n,), name
    assert _held_factors(ops) == []
    assert len(factored) == (mode == "riesz_recon")

    ref = solve_reference(ops)
    ops.residual_norm(ref.interior_vector())
    assert _held_factors(ops) == [ops.G_lu]
    if b == (0.0, 0.0):
        # the estimator reuses the reference solve's factor
        assert ops.G_int is ops.A_int
        assert factored[-1] is ops.G_lu
        assert len(factored) == 1 + (mode == "riesz_recon")
    else:
        assert ops.G_int is not ops.A_int
        assert factored[-1] is ops.G_lu and len(factored) == 2


def test_nonpositive_diffusivity_is_rejected():
    pd = _laplace_data()
    bad = ProblemData(
        k=lambda x, y: np.asarray(x) - 1.0,  # negative for x < 1
        b1=pd.b1, b2=pd.b2, F=pd.F, dirichlet=pd.dirichlet,
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
    total = sol.total_field(cs.lift)
    exact = cs.exact_total(X, Y)
    # interior nodal accuracy of the full field
    assert np.abs(total - exact)[1:-1, 1:-1].max() < 2e-2
