"""Reduced-basis training: POD and adaptive parameter-domain refinement.

The training domain is the Qbar-fold product of the dominant-direction
interval. It is covered by hyper-rectangular cells, each carrying n_xi
uniform samples; transverse snapshots are solved per sample and compressed by
POD in the L2(omega_hat) inner product (thin SVD of the mass-weighted
snapshot matrix).

Cell indicators: for a sample mu the coarse-grid model estimator Delta is
evaluated with the current modes *augmented by mu's own snapshots*, so
eta(g) = min over g's samples is a lookahead ("how good could the model get
if this cell's parameters joined the basis") and marking the smallest eta
refines the most promising cells, as printed in the source algorithm. The
age indicator sigma(g) = diam(g) * rho(g) forces refinement of long-ignored
cells.

The indicator is a Galerkin solve in span(I (x) [Phi E]) on the coarse
N_H' x n_h grid, split by when its pieces change:

* once per training run: the coarse reference operators and the x-block
  structure of A (CoarseOperator);
* once per outer iteration: the block moments A_ij Phi, Phi^T A_ij Phi and
  Phi^T rhs_i of the base space Phi, the (m-1)-mode POD space (BaseMoments);
* once per sample: the <= 2 Qbar snapshot columns E, M-orthonormalized
  against Phi, their products A_ij E, the bordered blocks
  [Phi E]^T A_ij [Phi E], the dense reduced solve and the V-dual norm of the
  explicit coarse residual (one sparse Gram solve).
"""

import csv
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
import scipy.linalg

from .mesh import Partition1D, TensorGrid, build_uniform_partition
from .problem import reference_operators
from .transverse import TransverseSolver, _p1_diagonals


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


def pod(snapshots, part, count=None, tol=None):
    """POD in the L2(omega_hat) inner product by a thin SVD.

    snapshots: sequence of TransverseSnapshot or plain nodal arrays over
    part (boundary entries allowed). With M = L L^T the Cholesky factor of
    the full transverse mass, the thin SVD L^T S = U diag(s) W^T gives the
    energies lambda = s^2 and the M-orthonormal modes L^{-T} U without
    squaring S into its Gram matrix, so energies far below eps * lambda_1
    stay resolved; singular values below max(shape) * eps * s_1 count as
    numerically zero. Returns a ReductionSpace with modes ordered by
    descending energy; the number of modes is count (if given), else the
    smallest m with pod_tail <= tol (if given), else every numerically
    meaningful mode. Mode signs are fixed (largest-magnitude entry positive)
    so equal snapshot sets give identical spaces regardless of input
    ordering.
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
    if count is not None:
        m = min(int(count), m_avail)
    elif tol is not None:
        m = int(np.searchsorted(-pod_tail, -tol))  # first index with tail <= tol
        m = min(max(m, 1), m_avail)
    else:
        m = m_avail
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
    elements of th (the coupled basis rejects same-element parameters)."""
    out = []
    for _ in range(n_xi):
        for _attempt in range(200):
            mu = tuple(np.sort(rng.uniform(lo, hi)))
            els = np.floor((np.asarray(mu) - th.a) / th.h).astype(int)
            els = np.clip(els, 0, th.n - 1)
            if np.unique(els).size == len(mu):
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


def mark(cells, theta, sigma_thres, invert=False, min_width=None):
    """Indices (positions) of cells to refine.

    The ceil(theta * N) cells of smallest eta (largest with invert=True; ties
    by cell id) are marked, plus every cell with sigma > sigma_thres. Cells
    narrower than min_width in any direction are never marked (their children
    could not hold valid samples).
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
    key = (lambda i: (-cells[i].eta, cells[i].id)) if invert else \
          (lambda i: (cells[i].eta, cells[i].id))
    by_eta = sorted(eligible, key=key)
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


class CoarseOperator:
    """Coarse N_H' x n_h reference operators cut into x-blocks.

    In the x-major interior ordering the coarse A is block-tridiagonal in x
    with (n_h - 1) x (n_h - 1) blocks A_ij; the nonzero blocks, |i - j| <= 1,
    are the pairs (rows[p], cols[p]). Built once per training run.
    """

    def __init__(self, ops):
        self.ops = ops
        self.n_x = ops.grid.tx.n - 1
        self.n_y = ops.grid.ty.n - 1
        self.rhs = ops.rhs_int.reshape(self.n_x, self.n_y)
        self.M_y = transverse_mass(ops.grid.ty)[1:-1, 1:-1]
        self.rows, self.cols = np.array(
            [(i, j) for i in range(self.n_x)
             for j in range(max(i - 1, 0), min(i + 2, self.n_x))]).T

    def block_products(self, X):
        """A_ij X for every stored pair, shape (n_pairs, n_y, k).

        X goes into the block columns j = c (mod 3) for c = 0, 1, 2; a block
        row meets exactly one of each, so three sparse products give every
        A_ij X without summing two blocks.
        """
        k = X.shape[1]
        out = np.empty((3, self.n_x, self.n_y, k))
        for c in range(3):
            Xc = np.zeros((self.n_x, self.n_y, k))
            Xc[c::3] = X
            out[c] = (self.ops.A_int @ Xc.reshape(self.n_x * self.n_y, k)
                      ).reshape(self.n_x, self.n_y, k)
        return out[self.cols % 3, self.rows]

    def moments(self, space):
        return BaseMoments(self, space.modes[1:-1, :])


class BaseMoments:
    """Block moments of one base space Phi (interior rows of the POD modes):
    A_ij Phi, Phi^T A_ij Phi and Phi^T rhs_i. Built once per outer
    iteration."""

    def __init__(self, coarse, phi):
        self.coarse = coarse
        self.phi = phi
        self.A_phi = coarse.block_products(phi)
        self.phi_A_phi = phi.T @ self.A_phi
        self.phi_rhs = coarse.rhs @ phi

    def delta(self, extra):
        """Model estimator Delta on the coarse grid for the base augmented by
        the M-orthonormalized extra columns: the Galerkin solution in
        span(I (x) [Phi E]) (x-major, mode-minor) and the V-dual norm of its
        explicit residual. When [Phi E] spans the whole interior transverse
        space, the Galerkin solution is the coarse FE solution and Delta is
        exactly 0 (computing it would only return round-off)."""
        c, phi = self.coarse, self.phi
        m = phi.shape[1]
        E = _orthonormalize(phi, extra, c.M_y)[:, m:]
        w = m + E.shape[1]
        if w >= c.n_y:
            return 0.0
        A_E = c.block_products(E)
        blocks = np.block([[self.phi_A_phi, phi.T @ A_E],
                           [E.T @ self.A_phi, E.T @ A_E]])
        A_r = np.zeros((c.n_x, w, c.n_x, w))
        A_r[c.rows, :, c.cols, :] = blocks
        rhs_r = np.hstack([self.phi_rhs, c.rhs @ E])
        sol = np.linalg.solve(A_r.reshape(c.n_x * w, c.n_x * w),
                              rhs_r.ravel())
        u = sol.reshape(c.n_x, w) @ np.hstack([phi, E]).T
        r = c.ops.rhs_int - c.ops.A_int @ u.ravel()
        R = c.ops.gram_solve(r)
        return math.sqrt(max(r @ R, 0.0))


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
    solver: TransverseSolver


def _all_snapshots(cells, solver):
    snaps = []
    for cell in cells:
        for mu in cell.samples:
            snaps.extend(solver.solve(mu))
    snaps.sort(key=lambda s: (s.mu, s.component))
    return snaps


def adaptive_train_extension(g0, pd, lift, m_max, i_max, n_xi, theta,
                             sigma_thres, coarse_nhp, *, th, yh, mode,
                             solver=None, qbar=2, seed=0):
    """Adaptively grown training set plus its snapshots.

    g0: either an initial ParamCell list or an int n (regular n^qbar grid
    over the training domain). The coarse N_H' x n_h indicator operators are
    built once. Each outer iteration m = 1..m_max computes indicators with
    the (m-1)-mode POD space of the current snapshots and runs i_max
    mark/refine/solve rounds; the caller compresses the returned snapshots
    with pod(). Identical seeds give identical training sets (the RNG is a
    counter-based Philox generator and snapshot caching is keyed by exact
    parameter tuples).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    if solver is None:
        solver = TransverseSolver(pd, lift, th, yh, recon=mode)
    if isinstance(g0, int):
        cells = initial_cells(pd.omega_x, qbar, g0, n_xi, rng, th)
    else:
        cells = list(g0)
    thp = build_uniform_partition(pd.omega_x[0], pd.omega_x[1], coarse_nhp)
    coarse = CoarseOperator(
        reference_operators(pd, lift, TensorGrid(thp, yh), mode))
    min_width = 2.0 * th.h
    for m in range(1, m_max + 1):
        snaps = _all_snapshots(cells, solver)
        space = pod(snaps, yh, count=m - 1) if m > 1 else empty_space(yh)
        base = coarse.moments(space)
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
    return TrainingResult(_all_snapshots(cells, solver), cells, solver)


# ---------------------------------------------------------------------------
# Serialization


def training_set_to_csv(cells, path):
    if not cells:
        raise ValueError("no cells to write")
    qbar = cells[0].lo.size
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        header = (["cell_id"]
                  + [f"lo_{d + 1}" for d in range(qbar)]
                  + [f"hi_{d + 1}" for d in range(qbar)]
                  + ["rho", "eta", "sigma"])
        w.writerow(header)
        for c in cells:
            w.writerow([c.id]
                       + [f"{v:.17g}" for v in c.lo]
                       + [f"{v:.17g}" for v in c.hi]
                       + [c.rho, f"{c.eta:.17g}", f"{c.sigma:.17g}"])


def snapshots_to_csv(snaps, path):
    if not snaps:
        raise ValueError("no snapshots to write")
    qbar = len(snaps[0].mu)
    n_vals = snaps[0].values.size
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"mu_{d + 1}" for d in range(qbar)] + ["component"]
                   + [f"v_{j}" for j in range(n_vals)])
        for s in snaps:
            w.writerow([f"{m:.17g}" for m in s.mu] + [s.component]
                       + [f"{v:.17g}" for v in s.values])
