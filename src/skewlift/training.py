"""Reduced-basis training: POD and adaptive parameter-domain refinement.

The training domain is the Qbar-fold product of the dominant-direction
interval. It is covered by hyper-rectangular cells, each carrying n_xi
uniform samples; transverse snapshots are solved per sample and compressed by
POD in the L2(omega_hat) inner product (thin SVD of the mass-weighted
snapshot matrix).

Training takes the reference TensorOperators of the study: its grid gives
the partitions, its snapshot_problem the transverse snapshot problem of the
lifting mode (one cached TransverseSolver per run), and its problem, lifting
and mode the coarse indicator operators, so the snapshots and the indicator
cannot disagree on the mode.

Cell indicators: for a sample mu the coarse-grid model estimator Delta is
evaluated with the current modes *augmented by mu's own snapshots*, so
eta(g) = min over g's samples is a lookahead ("how good could the model get
if this cell's parameters joined the basis") and marking the smallest eta
refines the most promising cells, as printed in the source algorithm. The
age indicator sigma(g) = diam(g) * rho(g) forces refinement of long-ignored
cells.

The indicator is the reduced Galerkin projection of reduced.py (x-block
moments Phi^T A_ij Phi, one banded block-tridiagonal solve) taken on the
coarse N_H' x n_h grid, in span(I (x) [Phi E]), and split by when its pieces
change:

* once per training run: the coarse reference operators and their x-block
  view (reduced.XBlocks);
* once per outer iteration: the block moments A_ij Phi, Phi^T A_ij Phi and
  Phi^T rhs_i of the base space Phi, the (m-1)-mode POD space (BaseMoments);
* once per sample: the <= 2 Qbar snapshot columns E, M-orthonormalized
  against Phi, their products A_ij E, the bordered w x w blocks
  [Phi E]^T A_ij [Phi E] (w = m - 1 + new columns), their banded solve
  (bandwidth 2w - 1) and the V-dual norm of the explicit coarse residual
  (TensorOperators.residual_norm, one Gram solve with a cached factor).
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg

from .mesh import Partition1D, TensorGrid, build_uniform_partition
from .problem import reference_operators
from .reduced import XBlocks
from .transverse import (TransverseSolver, _elements, _p1_diagonals,
                         band_solve, block_band)


# ---------------------------------------------------------------------------
# POD


@dataclass
class ReductionSpace:
    """L2-orthonormal transverse modes with their POD spectrum.

    modes has shape (n_h + 1, m) (nodal over part; boundary rows vanish, to
    round-off, when the snapshots' do); eigenvalues are the energies
    (squared singular values) of the kept modes; pod_tail[m] is the relative
    energy truncation error e_m = sqrt(sum_{l>m} lambda_l / sum_l lambda_l)
    over the full snapshot spectrum (length: min(n_h + 1, n_snapshots) + 1;
    the energies beyond are zero).
    """

    part: Partition1D
    modes: np.ndarray
    eigenvalues: np.ndarray
    pod_tail: np.ndarray

    @property
    def m(self):
        return self.modes.shape[1]

    def truncate(self, m):
        if m > self.m:
            raise ValueError(f"cannot truncate to {m} > {self.m} modes")
        return ReductionSpace(self.part, self.modes[:, :m],
                              self.eigenvalues[:m], self.pod_tail)

    def tail(self, m):
        return float(self.pod_tail[min(m, self.pod_tail.size - 1)])


def empty_space(part):
    return ReductionSpace(part, np.zeros((part.n + 1, 0)), np.zeros(0),
                          np.ones(1))


def transverse_mass(part):
    """Full (n_h + 1)^2 P1 mass matrix of part."""
    lower, diag, upper = _p1_diagonals(part, np.ones((part.n, 2)), "mass")
    return np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)


def pod(snapshots, part, count=None):
    """POD in the L2(omega_hat) inner product by a thin SVD.

    snapshots: sequence of TransverseSnapshot or plain nodal arrays over
    part (boundary entries allowed). With M = L L^T the Cholesky factor of
    the full transverse mass, the thin SVD L^T S = U diag(s) W^T gives the
    energies lambda = s^2 and the M-orthonormal modes L^{-T} U without
    squaring S into its Gram matrix, so energies far below eps * lambda_1
    stay resolved; singular values below max(shape) * eps * s_1 count as
    numerically zero. Returns a ReductionSpace with modes ordered by
    descending energy; the number of modes is count (if given), else every
    numerically meaningful mode. Mode signs are fixed (largest-magnitude
    entry positive) so equal snapshot sets give identical spaces regardless
    of input ordering.
    """
    arrs = [getattr(s, "values", s) for s in snapshots]
    if len(arrs) == 0:
        raise ValueError("empty snapshot set")
    S = np.column_stack([np.asarray(a, dtype=float) for a in arrs])
    if S.shape[0] != part.n + 1:
        raise ValueError("snapshot length does not match the partition")
    L = np.linalg.cholesky(transverse_mass(part))
    B = L.T @ S
    U, sv, _ = np.linalg.svd(B, full_matrices=False)
    lam = sv ** 2
    total = lam.sum()
    if total <= 0.0:
        raise ValueError("zero snapshot set (no energy)")
    tails = np.sqrt(np.maximum(lam[::-1].cumsum()[::-1], 0.0) / total)
    pod_tail = np.append(tails, 0.0)  # pod_tail[m], m = 0..rank bound
    m_avail = int(np.count_nonzero(sv > max(B.shape) * np.finfo(float).eps
                                   * sv[0]))
    m = m_avail if count is None else min(int(count), m_avail)
    modes = scipy.linalg.solve_triangular(L.T, U[:, :m], lower=False)
    flip = modes[np.abs(modes).argmax(axis=0), np.arange(m)] < 0
    modes[:, flip] *= -1.0
    return ReductionSpace(part, modes, lam[:m].copy(), pod_tail)


# ---------------------------------------------------------------------------
# Parameter cells


@dataclass
class ParamCell:
    """Axis-aligned training cell with its samples and bookkeeping."""

    id: int
    lo: np.ndarray
    hi: np.ndarray
    samples: list = dc_field(default_factory=list)
    rho: int = 0
    eta: float = math.nan

    @property
    def diam(self):
        return float(np.linalg.norm(self.hi - self.lo))

    @property
    def sigma(self):
        return self.diam * self.rho

    def volume(self):
        return float(np.prod(self.hi - self.lo))


def _draw_samples(rng, lo, hi, n_xi, th):
    """n_xi uniform samples; components redrawn until they land in distinct
    elements of th, classified as the coupled basis does (it rejects
    same-element parameters)."""
    out = []
    for _ in range(n_xi):
        for _attempt in range(200):
            mu = tuple(np.sort(rng.uniform(lo, hi)))
            if np.unique(_elements(th, mu)).size == len(mu):
                out.append(mu)
                break
        else:
            raise RuntimeError(
                f"cell [{lo}, {hi}] too small to hold distinct-element samples"
            )
    return out


def initial_cells(omega_x, qbar, n_per_dim, n_xi, rng, th):
    """Regular n_per_dim^qbar starting grid over the training domain."""
    edges = np.linspace(omega_x[0], omega_x[1], n_per_dim + 1)
    cells = []
    next_id = 0
    for idx in np.ndindex(*([n_per_dim] * qbar)):
        lo = np.array([edges[i] for i in idx])
        hi = np.array([edges[i + 1] for i in idx])
        cells.append(ParamCell(next_id, lo, hi,
                               _draw_samples(rng, lo, hi, n_xi, th)))
        next_id += 1
    return cells


def mark(cells, theta, sigma_thres, min_width=None):
    """Indices (positions) of cells to refine.

    The ceil(theta * N) cells of smallest eta (ties by cell id) are marked,
    plus every cell with sigma > sigma_thres. Cells narrower than min_width
    in any direction are never marked (their children could not hold valid
    samples).
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    eligible = [
        i for i, c in enumerate(cells)
        if min_width is None or np.all(c.hi - c.lo >= min_width)
    ]
    if not eligible:
        return []
    n_mark = math.ceil(theta * len(cells))
    by_eta = sorted(eligible, key=lambda i: (cells[i].eta, cells[i].id))
    chosen = set(by_eta[:n_mark])
    chosen.update(i for i in eligible if cells[i].sigma > sigma_thres)
    return sorted(chosen)


def refine(cells, marked, n_xi, rng, th):
    """Bisect marked cells into 2^qbar children with fresh samples.

    Children get fresh ids in creation order; unmarked cells keep their
    samples and age by one (rho += 1). Total sample count changes by
    k * (2^qbar - 1) * n_xi for k marked cells.
    """
    marked = set(marked)
    next_id = max((c.id for c in cells), default=-1) + 1
    out = []
    for i, c in enumerate(cells):
        if i not in marked:
            c.rho += 1
            out.append(c)
            continue
        mid = 0.5 * (c.lo + c.hi)
        qbar = c.lo.size
        for corner in np.ndindex(*([2] * qbar)):
            lo = np.where(np.array(corner) == 0, c.lo, mid)
            hi = np.where(np.array(corner) == 0, mid, c.hi)
            out.append(ParamCell(next_id, lo, hi,
                                 _draw_samples(rng, lo, hi, n_xi, th)))
            next_id += 1
    return out


# ---------------------------------------------------------------------------
# Indicators


def _orthonormalize(base_int, extra_int, M_int, drop_tol=1e-10):
    """Append extra columns to an M-orthonormal base, dropping near-dependent
    vectors.

    Each extra column is projected out of the base in one block step and out
    of the columns accepted before it one at a time, in two passes (twice is
    enough); it is kept if its M-norm is still above drop_tol times its norm
    before projection."""
    new = []
    for v in extra_int.T:
        nrm0 = math.sqrt(max(v @ (M_int @ v), 0.0))
        if nrm0 == 0.0:
            continue
        for _ in range(2):
            v = v - base_int @ (base_int.T @ (M_int @ v))
            for u in new:
                v = v - (u @ (M_int @ v)) * u
        nrm = math.sqrt(max(v @ (M_int @ v), 0.0))
        if nrm > drop_tol * nrm0:
            new.append(v / nrm)
    return np.column_stack([base_int] + new)


class BaseMoments:
    """Block moments of one base space Phi (interior rows of the POD modes)
    on the x-blocks of the coarse operators: A_ij Phi, Phi^T A_ij Phi and
    Phi^T rhs_i. Built once per outer iteration."""

    def __init__(self, xb, space):
        self.xb = xb
        self.phi = phi = space.modes[1:-1, :]
        self.M_y = transverse_mass(xb.ops.grid.ty)[1:-1, 1:-1]
        self.A_phi = xb.products(phi)
        self.phi_A_phi = phi.T @ self.A_phi
        self.phi_rhs = xb.rhs @ phi

    def delta(self, extra):
        """Model estimator Delta on the coarse grid for the base augmented by
        the M-orthonormalized extra columns: the Galerkin solution in
        span(I (x) [Phi E]) (x-major, mode-minor; a banded solve of the
        bordered block-tridiagonal system) and the V-dual norm of its
        explicit residual. When [Phi E] spans the whole interior transverse
        space, the Galerkin solution is the coarse FE solution and Delta is
        exactly 0 (computing it would only return round-off)."""
        xb, phi = self.xb, self.phi
        m = phi.shape[1]
        E = _orthonormalize(phi, extra, self.M_y)[:, m:]
        w = m + E.shape[1]
        if w >= xb.n_y:
            return 0.0
        A_E = xb.products(E)
        blocks = np.block([[self.phi_A_phi, phi.T @ A_E],
                           [E.T @ self.A_phi, E.T @ A_E]])
        rhs_r = np.hstack([self.phi_rhs, xb.rhs @ E])
        sol = band_solve(block_band(blocks), rhs_r.ravel(),
                         "coarse indicator system")
        u = sol.reshape(xb.n_x, w) @ np.hstack([phi, E]).T
        return xb.ops.residual_norm(u.ravel())


def element_indicators(base, cells, solver):
    """Per-cell (eta, sigma) on the coarse dominant-direction grid.

    base: BaseMoments of the current space. For every sample mu of a cell
    the reduced problem is solved on the N_H' x n_h grid with the space
    augmented by mu's snapshots and the model estimator Delta is evaluated
    there; eta is the minimum over the cell's samples. sigma = diam * rho.
    """
    eta = np.empty(len(cells))
    sigma = np.empty(len(cells))
    for ci, cell in enumerate(cells):
        best = math.inf
        for mu in cell.samples:
            extra = np.column_stack([s.values[1:-1] for s in solver.solve(mu)])
            best = min(best, base.delta(extra))
        eta[ci] = best
        sigma[ci] = cell.sigma
        cell.eta = best
    return eta, sigma


# ---------------------------------------------------------------------------
# Adaptive training loop


@dataclass
class TrainingResult:
    snapshots: list
    cells: list


def _all_snapshots(cells, solver):
    snaps = []
    for cell in cells:
        for mu in cell.samples:
            snaps.extend(solver.solve(mu))
    snaps.sort(key=lambda s: (s.mu, s.component))
    return snaps


def adaptive_train_extension(ops, g0, m_max, i_max, n_xi, theta, sigma_thres,
                             coarse_nhp, *, qbar=2, seed=0):
    """Adaptively grown training set plus its snapshots.

    ops: the reference TensorOperators, whose grid gives the partitions th
    and yh and whose snapshot_problem gives the transverse snapshots; g0:
    either an initial ParamCell list or an int n (regular n^qbar grid over
    the training domain). The coarse N_H' x n_h indicator operators are
    built once, from the problem, lifting and mode of ops. Each outer
    iteration m = 1..m_max computes indicators with the (m-1)-mode POD space
    of the current snapshots and runs i_max mark/refine/solve rounds; the
    caller compresses the returned snapshots with pod(). Identical seeds
    give identical training sets (the RNG is a counter-based Philox
    generator and snapshot caching is keyed by exact parameter tuples).
    """
    pd, th, yh = ops.pd, ops.grid.tx, ops.grid.ty
    solver = TransverseSolver(*ops.snapshot_problem, th, yh)
    rng = np.random.Generator(np.random.Philox(seed))
    if isinstance(g0, int):
        cells = initial_cells(pd.omega_x, qbar, g0, n_xi, rng, th)
    else:
        cells = list(g0)
    thp = build_uniform_partition(pd.omega_x[0], pd.omega_x[1], coarse_nhp)
    coarse = XBlocks(reference_operators(pd, ops.lift, TensorGrid(thp, yh),
                                         ops.mode))
    min_width = 2.0 * th.h
    for m in range(1, m_max + 1):
        snaps = _all_snapshots(cells, solver)
        space = pod(snaps, yh, count=m - 1) if m > 1 else empty_space(yh)
        base = BaseMoments(coarse, space)
        element_indicators(base, cells, solver)
        for _ in range(i_max):
            chosen = mark(cells, theta, sigma_thres, min_width=min_width)
            if not chosen:
                break
            cells = refine(cells, chosen, n_xi, rng, th)
            new_cells = [c for c in cells if math.isnan(c.eta)]
            for cell in new_cells:
                for mu in cell.samples:
                    solver.solve(mu)
            element_indicators(base, new_cells, solver)
    return TrainingResult(_all_snapshots(cells, solver), cells)
