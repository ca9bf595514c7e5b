"""Reduced block systems, recovery limits, and lifting reconstructions."""

import numpy as np
import pytest

from skewlift.cases import case1, get_case
from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import (
    MODES,
    LiftingFunction,
    ProblemData,
    reference_operators,
    solve_reference,
)
from skewlift.reduced import ReducedSystem, assemble_reduced, solve_reduced
from skewlift.training import (
    ReductionSpace,
    _orthonormalize,
    empty_space,
    transverse_mass,
)

_GP = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def _full_space(yh):
    """M-orthonormal basis spanning every interior transverse dof."""
    n_i = yh.n - 1
    M_int = transverse_mass(yh)[1:-1, 1:-1]
    cols = _orthonormalize(np.zeros((n_i, 0)), np.eye(n_i), M_int)
    modes = np.zeros((yh.n + 1, n_i))
    modes[1:-1, :] = cols
    return ReductionSpace(yh, modes, np.ones(n_i), np.zeros(n_i + 1))


def _space_from_columns(yh, cols_int):
    M_int = transverse_mass(yh)[1:-1, 1:-1]
    out = []
    for c in cols_int.T:
        out.append(c / np.sqrt(c @ (M_int @ c)))
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
        diff = np.max(np.abs(rsol.nodal_array() - ref.coeffs))
        assert diff <= 1e-9 * scale, f"mode {mode}: {diff:.2e}"


# ---------------------------------------------------------------------------
# Hand-checked single-mode system


def test_single_mode_system_is_the_expected_tridiagonal():
    th = build_uniform_partition(0.0, 2.0, 9)
    yh = build_uniform_partition(0.0, 1.0, 7)
    fx = lambda x: np.exp(0.3 * x)
    gy = lambda y: 1.0 + 2.0 * y
    pd = ProblemData(
        k=lambda x, y: 1.0 + 0.0 * x,
        b1=lambda x, y: 0.0 * x,
        b2=lambda x, y: 0.0 * x,
        F=lambda x, y: fx(x) * gy(y),
        dirichlet=lambda x, y: 0.0 * x,
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
    assert np.allclose(system.matrix.toarray(), A_exp, rtol=0,
                       atol=1e-12 * np.max(np.abs(A_exp)))
    assert np.allclose(system.rhs.ravel(), rhs_exp, rtol=0,
                       atol=1e-12 * np.max(np.abs(rhs_exp)))
    expected = np.linalg.solve(A_exp, rhs_exp)
    rsol = solve_reduced(system)
    assert np.allclose(rsol.coeffs[0], expected, rtol=1e-12)


def test_discrete_sine_modes_decouple_the_blocks():
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
        dirichlet=lambda x, y: 0.0 * x,
        omega_x=(0.0, 2.0),
        omega_y=(0.0, 1.0),
    )
    system = assemble_reduced(
        reference_operators(pd, LiftingFunction.zero(), TensorGrid(th, yh)),
        space)
    A = system.matrix.toarray()
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
    nodal = rsol.nodal_array()
    assert nodal.shape == (th.n + 1, yh.n + 1)
    # independent reconstruction: sum_k pbar_k(x_i) phi_k(y_j)
    rng = np.random.default_rng(0)
    for _ in range(12):
        i = int(rng.integers(0, th.n + 1))
        jj = int(rng.integers(0, yh.n + 1))
        val = sum(rsol.pbar(k)[i] * space.modes[jj, k] for k in range(2))
        assert nodal[i, jj] == pytest.approx(val, abs=1e-14)
    total = rsol.total_field(case.lift)
    X, Y = rsol.grid.node_coords()
    assert np.allclose(total, nodal + case.lift.value(X, Y), atol=1e-14)


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
                             system.space, system.grid, system.mode)
    with pytest.raises(RuntimeError):
        solve_reduced(singular)


# ---------------------------------------------------------------------------
# The x-block projection against the tensor-product oracle


def _random_space(yh, m, seed=0):
    """m generic M-orthonormal modes (no symmetry a wrong block could hide
    behind)."""
    n_i = yh.n - 1
    rng = np.random.default_rng(seed)
    M_int = transverse_mass(yh)[1:-1, 1:-1]
    cols = _orthonormalize(np.zeros((n_i, 0)), rng.normal(size=(n_i, m)),
                           M_int)
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


def test_block_projection_matches_kron_oracle():
    cs, th, space, ops = _advective_setup()
    system = assemble_reduced(ops, space)
    P = np.kron(np.eye(th.n - 1), space.modes[1:-1, :])
    A_r = P.T @ ops.A_int.toarray() @ P
    rhs_r = P.T @ ops.rhs_int
    m = space.m
    assert system.blocks.shape == (3 * (th.n - 1) - 2, m, m)
    assert system.rhs.shape == (th.n - 1, m)
    assert np.max(np.abs(system.matrix.toarray() - A_r)) \
        <= 1e-14 * np.max(np.abs(A_r))
    assert np.max(np.abs(system.rhs.ravel() - rhs_r)) \
        <= 1e-14 * np.max(np.abs(rhs_r))
    # the reduced coefficients are the dense Galerkin solution
    expected = np.linalg.solve(A_r, rhs_r).reshape(th.n - 1, m).T
    rsol = solve_reduced(system)
    assert np.max(np.abs(rsol.coeffs - expected)) \
        <= 1e-12 * np.max(np.abs(expected))


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


# ---------------------------------------------------------------------------
# Riesz reconstruction of the lifting source


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
        dirichlet=lambda x, y: 0.0 * x,
        omega_x=(0.0, 2.0),
        omega_y=(0.0, 1.0),
    )
    base.update(kw)
    return ProblemData(**base)


def test_riesz_reconstruction_approximates_minus_k_laplacian():
    """For h = sin(pi y), k = 1, b = 0 the reconstruction must approach
    pi^2 sin(pi y); compared away from the vertical edges where the zero
    Dirichlet frame of the projection leaves a local layer."""
    grid = TensorGrid(build_uniform_partition(0.0, 2.0, 100),
                      build_uniform_partition(0.0, 1.0, 100))
    rec = reference_operators(_plain_pd(), _smooth_sine_lift(), grid,
                              "riesz_recon").riesz_field
    X, Y = grid.node_coords()
    target = np.pi ** 2 * np.sin(np.pi * Y)
    inner = (X >= 0.2) & (X <= 1.8)
    err = np.max(np.abs(rec[inner] - target[inner]))
    assert err <= 0.02 * np.max(np.abs(target))


def test_delta_h_and_riesz_agree_on_a_smooth_lifting():
    """A C-infinity skewed ramp with b = 0: folding k*Lap(h) into the source
    (strong form) and subtracting the Riesz reconstruction (projected form)
    then differ by quadrature error only. (With advection the two modes
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
        dirichlet=lambda x, y: prof(y + 0.4 * x),
    )
    grid = TensorGrid(build_uniform_partition(0.0, 2.0, 64),
                      build_uniform_partition(0.0, 1.0, 32))
    sols = {}
    for mode in ("delta_h", "riesz_recon"):
        ops = reference_operators(pd, lift, grid, mode)
        sols[mode] = solve_reference(ops)
    a = sols["delta_h"].interior_vector()
    b = sols["riesz_recon"].interior_vector()
    assert np.linalg.norm(a - b) <= 0.1 * np.linalg.norm(b)
