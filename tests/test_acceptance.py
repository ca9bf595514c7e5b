"""Acceptance checks: one test per shipped claim, one summary line each.

The mini convergence studies (reference 160x80, indicator grid 10, seed 0)
are shared module-scoped fixtures so the expensive training runs happen once.
Criteria 2-4 state contrast targets; they are asserted at their stated
thresholds, and a failing one reports the numbers its run measured, next to
the reference's own slice-POD curve as the training-free yardstick, rather
than being loosened to fit the desk-scale configuration.
"""

import math
import time

import numpy as np
import pytest

from conftest import orthonormalize
from skewlift import cases
from skewlift.cli import RunConfig, run_case
from skewlift.estimator import error_report
from skewlift.interface import (
    WaterTable,
    boussinesq_steady_profile,
    locate_interface,
    solve_boussinesq,
)
from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import (
    MODES,
    LiftingFunction,
    ProblemData,
    p1_interior,
    reference_operators,
    solve_reference,
)
from skewlift.reduced import assemble_reduced, solve_reduced
from skewlift.training import ReductionSpace, pod

_SILENT = lambda *a, **k: None

MINI = dict(case=1, NH=160, nh=80, NHp=10, qbar=2, g0=2, n_xi=3,
            theta=0.02, sigma_thres=30.0, i_max=1, seed=0)


def _report(line, ok):
    print(f"criterion {line}: {'PASS' if ok else 'FAIL'}")


def _mini_cfg(out, **over):
    params = dict(MINI)
    params.update(over)
    return RunConfig(out=str(out), **params).validate()


def _first_m(reports, tol):
    for r in reports:
        if r.err_V_rel <= tol:
            return r.m
    return None


def _slice_pod_errors(mode, ms):
    """err_V_rel at each m in ms of the Galerkin solution in the POD space of
    the MINI reference's own x-slices: what m modes can do on this grid with
    no training set involved."""
    case = cases.get_case(MINI["case"])
    pd, lift = case.problem, case.lift
    th = build_uniform_partition(*pd.omega_x, MINI["NH"])
    yh = build_uniform_partition(*pd.omega_y, MINI["nh"])
    grid = TensorGrid(th, yh)
    ops = reference_operators(pd, lift, grid, mode)
    ref = solve_reference(ops)
    space = pod(list(ref.coeffs[1:-1]), yh, count=max(ms))
    out = {}
    for m in ms:
        sub = space.truncate(m)
        rsol = solve_reduced(assemble_reduced(ops, sub))
        out[m] = error_report(ops, ref, rsol).err_V_rel
    return out


def _log_linear_fit(errs):
    """Slope and R^2 of the least-squares line through log(errs) over m."""
    ms = np.arange(1, errs.size + 1, dtype=float)
    logs = np.log(errs)
    slope, intercept = np.polyfit(ms, logs, 1)
    fit = slope * ms + intercept
    ss_res = float(np.sum((logs - fit) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    return slope, 1.0 - ss_res / ss_tot


@pytest.fixture(scope="module")
def mini_weak(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc") / "weak.csv"
    t0 = time.perf_counter()
    reports = run_case(_mini_cfg(out, mode="lift", m_max=40), log=_SILENT)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mini_gd(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc") / "gd.csv"
    t0 = time.perf_counter()
    reports = run_case(_mini_cfg(out, mode="gD", m_max=30), log=_SILENT)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mini_q1(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc") / "q1.csv"
    t0 = time.perf_counter()
    reports = run_case(_mini_cfg(out, mode="lift", m_max=40, qbar=1),
                       log=_SILENT)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mini_delta_h(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc") / "dh.csv"
    t0 = time.perf_counter()
    try:
        reports = run_case(_mini_cfg(out, mode="delta-h", m_max=15),
                           log=_SILENT)
        return reports, None, time.perf_counter() - t0
    except RuntimeError as exc:
        return None, exc, time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_criterion_01_interface_detection():
    coarse = build_uniform_partition(0.0, 2.0, 20)
    fine = build_uniform_partition(0.0, 1.0, 100)
    data_plain = cases.detection_data("case1-f")
    data_adv = cases.detection_data("case1-f-adv")
    t0 = time.perf_counter()
    curve_plain = locate_interface(data_plain, coarse, fine, mode="both")
    curve_adv = locate_interface(data_adv, coarse, fine, mode="both")
    elapsed = time.perf_counter() - t0
    target = 0.85 - 0.4 * curve_plain.xs
    sup_plain = max(
        float(np.max(np.abs(curve_plain.ys_lo - target))),
        float(np.max(np.abs(curve_plain.ys_hi - target))))
    sup_adv = max(
        float(np.max(np.abs(curve_adv.ys_lo - target))),
        float(np.max(np.abs(curve_adv.ys_hi - target))))
    identical = (np.array_equal(curve_plain.ys_lo, curve_adv.ys_lo)
                 and np.array_equal(curve_plain.ys_hi, curve_adv.ys_hi))
    ok = sup_plain <= 0.06 and sup_adv <= 0.06 and identical and elapsed < 1.0
    _report(f"1 (detection): sup dev {sup_plain:.3f}/{sup_adv:.3f}, "
            f"selections identical={identical}, {elapsed * 1e3:.0f} ms", ok)
    assert sup_plain <= 0.06 and sup_adv <= 0.06
    assert identical, "advection changed the selected elements"
    assert elapsed < 1.0


def test_criterion_02_lifting_halves_basis_size(mini_weak, mini_gd):
    reports_w, t_w = mini_weak
    reports_g, t_g = mini_gd
    m_w = _first_m(reports_w, 0.05)
    m_g = _first_m(reports_g, 0.05)
    ok = m_w is not None and m_g is not None and m_w <= m_g / 2
    _report(f"2 (lifting benefit): m*(weak)={m_w}, m*(plain_gD)={m_g}, "
            f"runtime {t_w + t_g:.0f}s", ok)
    assert t_w + t_g < 600.0
    if not ok:
        half = max(m_g // 2, 1) if m_g is not None else len(reports_w)
        slices = _slice_pod_errors("weak_lifting", range(1, half + 1))
        m_s = next((m for m, e in slices.items() if e <= 0.05), None)
        reason = (
            f"POD of the weak reference's own x-slices reaches 0.05 at "
            f"m={m_s}, so the trained basis, not the reference, falls short"
            if m_s is not None else
            f"even POD of the weak reference's own x-slices stays above 0.05 "
            f"up to m={half} (err_V_rel {slices[half]:.3e})")
        pytest.fail(
            f"m*(weak_lifting)={m_w} is not <= half of m*(plain_gD)={m_g}. "
            f"At m={half} the weak study has err_V_rel="
            f"{reports_w[half - 1].err_V_rel:.3e} with POD tail e_pod="
            f"{reports_w[half - 1].e_pod:.3e}; {reason}.")


def test_criterion_03_delta_h_log_linear_decay(mini_delta_h):
    reports, exc, _t = mini_delta_h
    if reports is None:
        _report("3 (delta-h decay): training rank exhausted", False)
        pytest.fail(
            f"could not produce the m=1..15 sweep: {exc}. The delta-h "
            f"training snapshots span fewer numerically independent modes "
            f"than m_max (singular values of the mass-weighted snapshot "
            f"matrix below max(shape) * eps * s_1 count as zero).")
    errs = np.array([r.err_V_rel for r in reports])
    slope, r2 = _log_linear_fit(errs)
    ok = slope < 0 and r2 >= 0.9 and errs.size == 15
    _report(f"3 (delta-h decay): slope={slope:.3f}, R2={r2:.3f}", ok)
    if not ok:
        _, r2_2 = _log_linear_fit(errs[1:])
        slices = np.array(list(
            _slice_pod_errors("delta_h", range(1, errs.size + 1)).values()))
        s_slope, s_r2 = _log_linear_fit(slices)
        source = (
            "so the departure from one rate comes from the trained basis, "
            "not from the reference" if s_r2 >= 0.9 else
            "so the reference itself decays at no single rate")
        # the slice POD's last error is at the reference solve's round-off
        # (~3.5e-12), so it is printed to two digits: a change of the
        # reference solver moves its third digit, not the claim
        pytest.fail(
            f"slope={slope:.4f}, R2={r2:.4f} over m=1..{errs.size}: "
            f"err_V_rel(1)={errs[0]:.3e}, err_V_rel(2)={errs[1]:.3e}, "
            f"err_V_rel({errs.size})={errs[-1]:.3e} (R2={r2_2:.3f} over "
            f"m=2..{errs.size}). POD of the delta-h reference's own x-slices "
            f"gives err_V_rel(1)={slices[0]:.3e}, err_V_rel({errs.size})="
            f"{slices[-1]:.1e}, slope={s_slope:.3f}, R2={s_r2:.3f}, {source}; "
            f"nothing in this repository says what the first trained modes "
            f"must capture.")


def test_criterion_04_coupling_quadrature_contrast(mini_weak, mini_q1):
    q2 = {r.m: r.err_V_rel for r in mini_weak[0]}
    q1 = {r.m: r.err_V_rel for r in mini_q1[0]}
    stagnates = abs(q1[40] - q1[20]) <= 0.2 * q1[20]
    improvement = q2[20] / q2[40]
    ok = stagnates and improvement >= 5.0
    _report(f"4 (coupling): qbar=1 err20={q1[20]:.3e} err40={q1[40]:.3e}, "
            f"qbar=2 improvement x{improvement:.2f}", ok)
    if not ok:
        slices = _slice_pod_errors("weak_lifting", [20, 40])
        gap = min(min(q1[m], q2[m]) / slices[m] for m in (20, 40))
        floor = (
            f"both trained curves lie {gap:.0f}x or more above it, so the "
            f"trained bases, not the reference's slice spectrum, set both "
            f"numbers" if gap >= 2.0 else
            f"the trained curves come within {gap:.1f}x of it, so the "
            f"reference's slice spectrum limits both")
        pytest.fail(
            f"qbar=1 err_V_rel(40)={q1[40]:.3e} vs err(20)={q1[20]:.3e} "
            f"(ratio {q1[40] / q1[20]:.2f}, stagnation needs >= 0.8) and qbar=2 "
            f"improvement m=20->40 is x{improvement:.2f} (needs >= 5). POD of "
            f"the weak reference's own x-slices gives err_V_rel(20)="
            f"{slices[20]:.3e} and err(40)={slices[40]:.3e}; {floor}. The "
            f"transverse module lets a generic single point (qbar=1) couple "
            f"both hats of its element through xi', and nothing in this "
            f"repository says that a qbar=1 basis must stagnate.")


def test_criterion_05_estimator_identity_and_bound():
    t0 = time.perf_counter()
    th = build_uniform_partition(0.0, 2.0, 48)
    yh = build_uniform_partition(0.0, 1.0, 24)
    grid = TensorGrid(th, yh)
    lift = LiftingFunction.zero()

    def make_pd(b1, b2, kfun):
        return ProblemData(
            k=kfun, b1=lambda x, y: b1 + 0.0 * x,
            b2=lambda x, y: b2 + 0.0 * x,
            F=lambda x, y: np.exp(0.4 * x) * (1.0 + np.sin(np.pi * y)),
            omega_x=(0.0, 2.0), omega_y=(0.0, 1.0),
        )

    def sine_space(m):
        j = np.arange(1, yh.n)
        cols = np.column_stack(
            [np.sin(k * np.pi * j / yh.n) for k in range(1, m + 1)])
        d, e = p1_interior(yh, "mass")
        cols = cols / np.sqrt(d @ cols**2 + 2.0 * e @ (cols[:-1] * cols[1:]))
        modes = np.zeros((yh.n + 1, m))
        modes[1:-1, :] = cols
        return ReductionSpace(yh, modes, np.ones(m), np.zeros(m + 1))

    worst_id = 0.0
    for kfun in (lambda x, y: 1.0 + 0.2 * y, lambda x, y: 2.0 + 0.0 * x):
        pd = make_pd(0.0, 0.0, kfun)
        ops = reference_operators(pd, lift, grid, "weak_lifting")
        ref = solve_reference(ops)
        for m in (1, 2, 3, 5):
            rsol = solve_reduced(assemble_reduced(ops, sine_space(m)))
            rep = error_report(ops, ref, rsol)
            err_V = ops.v_norm(ref.interior_vector() - rsol.interior_vector())
            worst_id = max(worst_id, abs(rep.delta_m - err_V) / err_V)
            assert abs(rep.delta_m - err_V) <= 1e-8 * err_V

    for b1, b2 in ((100.0, 0.0), (3.0, -2.0), (10.0, 40.0)):
        pd = make_pd(b1, b2, lambda x, y: 1.0 + 0.2 * y)
        ops = reference_operators(pd, lift, grid, "weak_lifting")
        ref = solve_reference(ops)
        for m in (1, 3, 5):
            rsol = solve_reduced(assemble_reduced(ops, sine_space(m)))
            rep = error_report(ops, ref, rsol)
            err_V = ops.v_norm(ref.interior_vector() - rsol.interior_vector())
            assert err_V <= rep.delta_m + 1e-8
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(f"5 (estimator): identity dev {worst_id:.1e}, bound held, "
            f"{elapsed:.1f}s", ok)
    assert ok


def test_criterion_06_pod_matches_brute_force():
    worst_mode = 0.0
    worst_tail = 0.0
    for seed, (n_h, n_s) in ((0, (50, 20)), (1, (37, 14)), (2, (23, 9))):
        rng = np.random.default_rng(seed)
        part = build_uniform_partition(0.0, 1.0, n_h)
        x = part.nodes
        S = np.column_stack([
            rng.normal() * np.sin((1 + j % 5) * np.pi * x)
            + rng.normal(scale=0.3, size=x.size)
            for j in range(n_s)
        ])
        M = np.zeros((n_h + 1, n_h + 1))
        for e in range(n_h):
            M[e, e] += part.h / 3.0
            M[e + 1, e + 1] += part.h / 3.0
            M[e, e + 1] += part.h / 6.0
            M[e + 1, e] += part.h / 6.0
        K = S.T @ (M @ S)
        K = 0.5 * (K + K.T)
        lam, V = np.linalg.eigh(K)
        lam = np.clip(lam[::-1], 0.0, None)
        V = V[:, ::-1]
        modes_bf = S @ (V / np.sqrt(np.where(lam > 0, lam, 1.0)))
        flip = modes_bf[np.abs(modes_bf).argmax(axis=0),
                        np.arange(n_s)] < 0
        modes_bf[:, flip] *= -1.0
        space = pod([S[:, j] for j in range(n_s)], part)
        m = space.m
        scale = np.max(np.abs(modes_bf[:, :m]))
        dev = np.max(np.abs(space.modes - modes_bf[:, :m])) / scale
        worst_mode = max(worst_mode, dev)
        assert dev <= 1e-8
        assert np.allclose(space.eigenvalues, lam[:m], rtol=1e-8, atol=1e-12)
        total = lam.sum()
        for mm in range(n_s + 1):
            tail_sq = lam[mm:].sum() / total
            worst_tail = max(worst_tail,
                             abs(space.pod_tail[mm] ** 2 - tail_sq))
            assert abs(space.pod_tail[mm] ** 2 - tail_sq) <= 1e-8
    _report(f"6 (POD oracle): mode dev {worst_mode:.1e}, "
            f"energy dev {worst_tail:.1e}", True)


def test_criterion_07_full_space_recovery():
    case = cases.get_case(1)
    th = build_uniform_partition(0.0, 2.0, 12)
    yh = build_uniform_partition(0.0, 1.0, 8)
    grid = TensorGrid(th, yh)
    n_i = yh.n - 1
    cols = orthonormalize(np.zeros((n_i, 0)), np.eye(n_i),
                          p1_interior(yh, "mass"))
    modes = np.zeros((yh.n + 1, n_i))
    modes[1:-1, :] = cols
    space = ReductionSpace(yh, modes, np.ones(n_i), np.zeros(n_i + 1))
    worst = 0.0
    for mode in MODES:
        ops = reference_operators(case.problem, case.lift, grid, mode)
        ref = solve_reference(ops)
        rsol = solve_reduced(assemble_reduced(ops, space))
        diff = float(np.max(np.abs(rsol.interior_vector()
                                   - ref.interior_vector())))
        worst = max(worst, diff)
        assert diff <= 1e-9, f"mode {mode}: nodal max {diff:.2e}"
    _report(f"7 (full-space recovery): worst nodal max {worst:.1e} "
            f"across {len(MODES)} modes", True)


def test_criterion_08_reference_order():
    exact = lambda x, y: np.sin(np.pi * x / 2.0) * np.sin(np.pi * y)
    pd = ProblemData(
        k=lambda x, y: 1.0 + 0.0 * x,
        b1=lambda x, y: 0.0 * x,
        b2=lambda x, y: 0.0 * x,
        F=lambda x, y: 1.25 * np.pi ** 2 * exact(x, y),
        omega_x=(0.0, 2.0),
        omega_y=(0.0, 1.0),
    )
    lift = LiftingFunction.zero()
    errs = []
    for nx, ny in ((20, 10), (40, 20)):
        grid = TensorGrid(build_uniform_partition(0.0, 2.0, nx),
                          build_uniform_partition(0.0, 1.0, ny))
        ops = reference_operators(pd, lift, grid, "weak_lifting")
        ref = solve_reference(ops)
        X, Y = grid.node_coords()
        e = (ref.coeffs - exact(X, Y))[1:-1, 1:-1].ravel()
        errs.append(ops.l2_norm(e))
    ratio = errs[0] / errs[1]
    ok = 3.6 <= ratio <= 4.4
    _report(f"8 (FE order): L2 error ratio {ratio:.2f} under one refinement",
            ok)
    assert ok, f"ratio {ratio:.3f} outside [3.6, 4.4]"


def test_criterion_09_boussinesq_steady_state():
    part = build_uniform_partition(0.0, 1.0, 100)
    K, N, bc = 1.2, 0.1, (1.0, 0.7)
    w0 = bc[0] + (bc[1] - bc[0]) * part.nodes
    wt = WaterTable(part, w0, K, N)
    _times, W = solve_boussinesq(wt, dt=0.02, t_end=30.0, bc=bc)
    steady = boussinesq_steady_profile(part, K, N, bc)
    dev = float(np.max(np.abs(W[-1] - steady)))
    ok = dev <= 1e-3
    _report(f"9 (groundwater steady state): max deviation {dev:.2e} "
            f"on 100 cells", ok)
    assert ok, f"deviation {dev:.2e} > 1e-3"


def test_criterion_10_seeded_runs_are_byte_identical(tmp_path):
    outs = [tmp_path / n for n in ("run_a.csv", "run_b.csv")]
    for out in outs:
        cfg = RunConfig(case=1, NH=24, nh=12, NHp=6, m_max=3, n_xi=2,
                        theta=0.5, g0=2, seed=11, out=str(out)).validate()
        run_case(cfg, log=_SILENT)
    identical = outs[0].read_bytes() == outs[1].read_bytes()
    _report("10 (determinism): identical-seed CSVs byte-identical="
            f"{identical}", identical)
    assert identical
