"""Reduced-basis training: POD and adaptive parameter-domain refinement.

The training domain is the Qbar-fold product of the dominant-direction
interval. It is covered by hyper-rectangular cells, each carrying n_xi
uniform samples; transverse snapshots are solved per sample and compressed by
POD in the L2(omega_hat) inner product (the SVD of the mass-weighted
snapshot matrix, through the R factor of its transpose when it is wide).
A sample's snapshots are the rows of the one array
TransverseSolver.solve_many returns, and the training set is one
(n_s, n_h + 1) array: every sample's rows, stacked in sorted-parameter
order.

Training takes the reference TensorOperators of the study: its grid gives
the partitions, its snapshot_source the source of the transverse snapshots
(built once, for one cached TransverseSolver per run), and its problem,
lifting and mode the coarse indicator operators, so the snapshots and the
indicator cannot disagree on the mode.

Cell indicators: for a sample mu the coarse-grid model estimator Delta is
evaluated with the current modes *augmented by mu's own snapshots*, so
eta(g) = min over g's samples is a lookahead ("how good could the model get
if this cell's parameters joined the basis") and marking the smallest eta
refines the most promising cells, as printed in the source algorithm. The
age indicator sigma(g) = diam(g) * rho(g) forces refinement of long-ignored
cells.

Only the etas that mark reads are computed. Each mark/refine round first
scores the cells not yet scored against the current base (every cell in the
first round of an outer iteration, the previous round's children in a later
one) and then marks. The children of an outer iteration's last round are
not scored against its base, because the next outer iteration rescores
every cell against a new base before marking; they keep eta = NaN, also in
the cells training returns, and the next _all_snapshots solves their
snapshots.

The indicator is the reduced Galerkin projection of reduced.py (x-block
moments Phi^T A_ij Phi, one banded block-tridiagonal solve) taken on the
coarse N_H' x n_h grid, in span(I (x) [Phi E]), and split by when its pieces
change:

* once per training run: the coarse reference operators;
* once per outer iteration: the block moments A_ij Phi, Phi^T A_ij Phi and
  Phi^T rhs_i of the base space Phi, the (m-1)-mode POD space (BaseMoments);
* once per chunk of up to _CHUNK samples: one TransverseSolver.solve_many
  call, which builds the geometry and the y-operators of the chunk's fresh
  samples per chunk, and their hat tables and assembly contraction per
  group of samples that share the active-hat and point counts; only the
  band scatter and band solve stay each fresh sample's own,
  then, in BaseMoments.deltas, the M-orthonormalization of all the chunk's
  <= 2 Qbar snapshot columns per sample against Phi (_orthonormalize_stack,
  one column slot at a time for every sample, on the (diag, off) pair of
  the interior transverse mass), the products
  A_ij E of all its new columns (TensorOperators.block_products, on slices
  of the diagonals, into the work array BaseMoments owns), the dense
  products Phi^T A_ij E, E^T A_ij Phi and rhs_i E over all of them, every
  sample's k x k blocks E^T A_ij E in one batched product, and the V-dual
  norms of all its explicit coarse residuals (TensorOperators.residual_norm,
  one multi-row Gram solve by PCG with the coarse grid's cached k = 1 Gram
  inverse as preconditioner: one iteration for k = 1, about
  sqrt(max k / min k) times more for a variable k; no sparse factor);
* once per sample: its bordered w x w blocks [Phi E]^T A_ij [Phi E]
  (w = m - 1 + new columns), filled from slices of the chunk's products,
  their banded solve (transverse.block_band and band_solve, bandwidth
  2w - 1) and its coarse state.

A chunk's dense products round differently from one sample's, so a Delta
can move at round-off with the samples that share its chunk.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg

from .mesh import Partition1D, TensorGrid, build_uniform_partition
from .problem import p1_interior, reference_operators
from .transverse import (TransverseSolver, _p1_diagonals, band_solve,
                         block_band)


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


def pod(snapshots, part, count=None):
    """POD in the L2(omega_hat) inner product by a thin SVD, taken through a
    QR for more snapshots than nodes.

    snapshots: the rows of one (n_s, n_h + 1) array, or a sequence of n_s
    nodal arrays, over part (boundary entries allowed); S is the
    (n_h + 1) x n_s matrix of their columns. With M = R^T R the banded
    Cholesky factorization of the full tridiagonal transverse mass (R upper
    bidiagonal), the thin SVD R S = U diag(s) W^T gives the energies
    lambda = s^2 and the M-orthonormal modes R^{-1} U (one banded solve).
    With more snapshots than nodes, U and s are taken from the Householder
    QR (R S)^T = Q T, which forms no Q, and the SVD of the
    (n_h + 1) x (n_h + 1) factor T^T = U diag(s) (Q^T W)^T, so no n_s-long
    singular vector is formed either (the R-SVD: T. F. Chan, ACM Trans.
    Math. Software 8, 1982). With at most as many snapshots as nodes, T
    would be as large as R S and the QR would only add time, so R S goes
    to the SVD directly. Both paths are orthogonal transformations of R S,
    never its Gram matrix, so energies far below eps * lambda_1 stay
    resolved; singular values below max(shape) * eps * s_1 count as
    numerically zero. No (n_h + 1)^2 array is formed for fewer snapshots
    than nodes. Returns a ReductionSpace with modes ordered by descending
    energy; the number of modes is count (if given), else every
    numerically meaningful mode. Mode signs are fixed (largest-magnitude
    entry positive) so equal snapshot sets give identical spaces
    regardless of input ordering.
    """
    S = np.asarray(snapshots, dtype=float)
    if S.size == 0:
        raise ValueError("empty snapshot set")
    if S.ndim != 2 or S.shape[1] != part.n + 1:
        raise ValueError("snapshot length does not match the partition")
    S = S.T
    _, diag, upper = _p1_diagonals(part, np.ones((part.n, 2)), "mass")
    R = scipy.linalg.cholesky_banded(np.vstack([np.append(0.0, upper), diag]))
    B = R[1, :, None] * S
    B[:-1] += R[0, 1:, None] * S[1:]
    if B.shape[1] > B.shape[0]:
        B = np.linalg.qr(B.T, mode="r").T
    U, sv, _ = np.linalg.svd(B, full_matrices=False)
    lam = sv ** 2
    total = lam.sum()
    if total <= 0.0:
        raise ValueError("zero snapshot set (no energy)")
    tails = np.sqrt(np.maximum(lam[::-1].cumsum()[::-1], 0.0) / total)
    pod_tail = np.append(tails, 0.0)  # pod_tail[m], m = 0..rank bound
    m_avail = int(np.count_nonzero(sv > max(S.shape) * np.finfo(float).eps
                                   * sv[0]))
    m = m_avail if count is None else min(int(count), m_avail)
    modes = scipy.linalg.solve_banded((0, 1), R, U[:, :m])
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
    same-element parameters).

    The candidates are drawn in blocks of as many as are still missing and
    accepted in stream order, so the generator is consumed exactly as by
    drawing one candidate at a time until n_xi are accepted. 200
    consecutive rejections fail the draw."""
    out = []
    rejected = 0
    while len(out) < n_xi:
        mus = np.sort(rng.uniform(lo, hi, size=(n_xi - len(out), lo.size)),
                      axis=1)
        ok = np.all(np.diff(th.element_of(mus), axis=1) != 0, axis=1)
        for mu, valid in zip(mus, ok.tolist()):
            if valid:
                out.append(tuple(mu))
                rejected = 0
            else:
                rejected += 1
                if rejected == 200:
                    raise RuntimeError(f"cell [{lo}, {hi}] too small to hold "
                                       "distinct-element samples")
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


def _splittable(cell, th):
    """Whether the children of cell can hold distinct-element samples: a
    child of a cell w elements of th wide (w within 1e-10 relative of a
    whole number is that number) meets ceil(w / 2) elements per axis, so a
    child on the diagonal meets qbar of them iff w > 2 (qbar - 1); cells
    narrower than 2 elements are not split either."""
    w = (cell.hi - cell.lo) / th.h
    w = np.where(np.abs(w - np.round(w)) <= 1e-10 * w, np.round(w), w)
    return bool(np.all(w >= 2) and np.all(w > 2 * (cell.lo.size - 1)))


def mark(cells, theta, sigma_thres, th):
    """Indices (positions) of cells to refine.

    The ceil(theta * N) cells of smallest eta (ties by cell id) are marked,
    plus every cell with sigma > sigma_thres. A cell whose children could
    not hold valid samples on the partition th the samples are drawn on
    (_splittable) is never marked.
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    eligible = [i for i, c in enumerate(cells) if _splittable(c, th)]
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


_DROP_TOL = 1e-10  # relative M-norm below which a column is dropped


def _stack_mass(M_y, n_s):
    """(diag, off) of I_{n_s} (x) M, M given as its (diag, off) pair M_y:
    the tridiagonal of a flattened stack of n_s rows, with zero coupling
    between consecutive rows. One product with it covers the stack in three
    contiguous operations (half the time of slicing the 2-D stack at
    32 x 79)."""
    d, e = M_y
    return np.tile(d, n_s), np.tile(np.append(e, 0.0), n_s)[:-1]


def _tridiag_times(M, x):
    """M x for the symmetric tridiagonal M given as its (diag, off) pair,
    in a new array: three slice operations on contiguous memory, which
    round as a CSR product of M does."""
    d, e = M
    out = d * x
    out[1:] += e * x[:-1]
    out[:-1] += e * x[1:]
    return out


def _orthonormalize_stack(base_int, extras, M_y):
    """M-orthonormalize a stack of samples' columns against a base and
    within each sample, M the interior transverse mass, given as its
    (diag, off) pair M_y (problem.p1_interior).

    base_int: (n, m) M-orthonormal base; extras: (S, k, n), sample s's
    columns as the rows of extras[s] (zero columns are dropped). Column slot
    j is handled for all S samples at once: projected out of the base in one
    block step (one _tridiag_times product for the stack) and out of its
    sample's columns accepted before it, in two passes (twice is enough); it
    is kept if its M-norm is still above _DROP_TOL times its norm before
    projection.
    The dense products are stacked over samples (matmul over the leading
    axis, one kernel call per sample), not gemms across samples: a nearly
    dependent column amplifies rounding by its inverse norm ratio, and a
    sample's columns should not depend on the samples that share its stack.
    Returns (E, counts): sample s's accepted columns, in order, are the rows
    E[s, :counts[s]]; the rest of E is zero.
    """
    n_s, k, _ = extras.shape
    E = np.zeros(extras.shape)
    counts = np.zeros(n_s, dtype=int)
    samples = np.arange(n_s)
    M_stack = _stack_mass(M_y, n_s)

    # contiguous (S, n, 1) stacks: matmul picks its kernel by the strides,
    # and one layout gives every stack size the same per-sample kernel
    def times_M(v):
        return _tridiag_times(M_stack, v.ravel()).reshape(v.shape)

    def m_norms(v):
        return np.sqrt(np.maximum((v.transpose(0, 2, 1) @ times_M(v))[:, 0, 0],
                                  0.0))

    for j in range(k):
        v = np.ascontiguousarray(extras[:, j, :, None])
        nrm0 = m_norms(v)
        prev = E[:, :j]
        for _ in range(2):
            v = v - base_int @ (base_int.T @ times_M(v))
            if j:
                v = v - prev.transpose(0, 2, 1) @ (prev @ times_M(v))
        nrm = m_norms(v)
        keep = nrm > _DROP_TOL * nrm0
        E[samples[keep], counts[keep]] = v[keep, :, 0] / nrm[keep, None]
        counts += keep
    return E, counts


# Samples per BaseMoments.deltas call in element_indicators: large enough to
# share the orthonormalization, the block and dense products and the Gram
# solve, small enough that the chunk's (3 N_H' - 5) x (n_h - 1) x
# (2 Qbar x chunk) products stay a few MB.
_CHUNK = 32


class BaseMoments:
    """Block moments of one base space Phi (interior rows of the POD modes)
    on the x-blocks of the coarse operators ops: A_ij Phi, Phi^T A_ij Phi and
    Phi^T rhs_i, with the interior transverse mass as its (diag, off) pair
    M_y (problem.p1_interior). Built once per outer iteration; it owns the
    work array that every deltas call fills with its products A_ij E,
    allocated by the first call and again only when a chunk needs more
    room, so the chunks of an outer iteration allocate no stack of
    products."""

    def __init__(self, ops, space):
        self.ops = ops
        self.phi = phi = space.modes[1:-1, :]
        self.M_y = p1_interior(ops.grid.ty, "mass")
        self.A_phi = ops.block_products(phi)
        self.phi_A_phi = phi.T @ self.A_phi
        self.phi_rhs = ops.rhs_blocks @ phi
        self._work = np.empty(0)

    def deltas(self, extras):
        """Model estimator Delta on the coarse grid for each entry of extras,
        the base augmented by the M-orthonormalized rows E of that entry, a
        (k, n_y) array of interior transverse snapshot values (one
        parameter's snapshots without their boundary entries).

        Per entry: the Galerkin solution in span(I (x) [Phi E]) (x-major,
        mode-minor; a banded solve of the bordered block-tridiagonal system
        [Phi E]^T A_ij [Phi E]) and the V-dual norm of its explicit residual.
        Per call, over all entries at once: the M-orthonormalization
        (_orthonormalize_stack), the products A_ij E, the dense
        products Phi^T A_ij E, E^T A_ij Phi and rhs_i E, each entry's k x k
        blocks E^T A_ij E (one batched product) and one Gram solve over all
        residuals. Per entry remain the bordered blocks, filled from slices
        of those products, their band solve and the entry's state. BLAS
        rounds a product over many entries differently from one over a
        single entry, so a Delta can move at round-off with the entries that
        share the call. When [Phi E] spans the whole interior transverse
        space, the Galerkin solution is the coarse FE solution and Delta is
        exactly 0 (computing it would only return round-off). When it is
        {0} (no base and every snapshot column dropped, e.g. an all-zero
        source along the sample's x-lines), the state is zero and Delta is
        the residual norm of the zero state.
        """
        ops, phi = self.ops, self.phi
        n_pairs, n_y, m = self.A_phi.shape
        n_x = self.phi_rhs.shape[0]
        n_s = len(extras)
        k_max = max(extra.shape[0] for extra in extras)
        stack = np.zeros((n_s, k_max, n_y))
        for s, extra in enumerate(extras):
            stack[s, :extra.shape[0]] = extra
        E, counts = _orthonormalize_stack(phi, stack, self.M_y)
        # entry s's columns are s * k_max + c of every chunk-wide product
        E_cat = E.reshape(n_s * k_max, n_y).T
        size = n_pairs * n_y * n_s * k_max
        if self._work.size < size:  # the first chunk, or a larger one
            self._work = np.empty(size)
        A_E = ops.block_products(E_cat, out=self._work[:size].reshape(
            n_pairs, n_y, -1))
        phi_A_E = phi.T @ A_E
        E_A_phi = E_cat.T @ self.A_phi
        rhs_E = ops.rhs_blocks @ E_cat
        # (n_s, n_pairs, k_max, k_max): one batched product over the entries
        E_A_E = E[:, None] @ A_E.reshape(-1, n_y, n_s, k_max).transpose(
            2, 0, 1, 3)
        w_max = m + k_max
        # bordered blocks, right-hand side and basis [Phi E]; the Phi parts
        # are the same for every entry
        blocks = np.empty((n_pairs, w_max, w_max))
        blocks[:, :m, :m] = self.phi_A_phi
        rhs_r = np.empty((n_x, w_max))
        rhs_r[:, :m] = self.phi_rhs
        basis = np.empty((n_y, w_max))
        basis[:, :m] = phi
        out = np.zeros(n_s)
        U = np.empty((n_s, n_x * n_y))
        solved = []
        for s, k in enumerate(counts):
            w = m + k
            if w >= n_y:
                continue
            if w == 0:  # the space is {0}, so the state is zero
                U[len(solved)] = 0.0
                solved.append(s)
                continue
            cols = slice(s * k_max, s * k_max + k)
            blocks[:, :m, m:w] = phi_A_E[:, :, cols]
            blocks[:, m:w, :m] = E_A_phi[:, cols]
            blocks[:, m:w, m:w] = E_A_E[s, :, :k, :k]
            rhs_r[:, m:w] = rhs_E[:, cols]
            basis[:, m:w] = E[s, :k].T
            sol = band_solve(block_band(blocks[:, :w, :w]),
                             rhs_r[:, :w].ravel(), "coarse indicator system")
            U[len(solved)] = (sol.reshape(n_x, w) @ basis[:, :w].T).ravel()
            solved.append(s)
        if solved:
            out[solved] = ops.residual_norm(U[:len(solved)])
        return out


def element_indicators(base, cells, solver):
    """Per-cell eta on the coarse dominant-direction grid (each also
    stored as cell.eta).

    base: BaseMoments of the current space. For every sample mu of a cell
    the reduced problem is solved on the N_H' x n_h grid with the space
    augmented by mu's snapshots and the model estimator Delta is evaluated
    there, _CHUNK samples per TransverseSolver.solve_many and
    BaseMoments.deltas call; eta is the minimum over the cell's samples.
    """
    owner = np.repeat(np.arange(len(cells)), [len(c.samples) for c in cells])
    mus = [mu for cell in cells for mu in cell.samples]
    delta = np.empty(len(mus))
    for lo in range(0, len(mus), _CHUNK):
        extras = [snaps[:, 1:-1]
                  for snaps in solver.solve_many(mus[lo:lo + _CHUNK])]
        delta[lo:lo + len(extras)] = base.deltas(extras)
    eta = np.full(len(cells), math.inf)
    np.minimum.at(eta, owner, delta)
    for ci, cell in enumerate(cells):
        cell.eta = float(eta[ci])
    return eta


# ---------------------------------------------------------------------------
# Adaptive training loop


@dataclass
class TrainingResult:
    snapshots: np.ndarray  # (n_s, n_h + 1), see _all_snapshots
    cells: list


def _all_snapshots(cells, solver):
    """Every sample's snapshot rows stacked into one (n_s, n_h + 1) array,
    in sorted-parameter order (each sample's rows in its active-hat
    order).

    The samples are requested in slices of _CHUNK, one solve_many each, so
    the fresh ones (the children of the last round, which no indicator has
    solved) are prepared _CHUNK at a time, as in element_indicators: one
    batch of all of them would hold every fresh key's blocks at once (137
    against 78 MB peak RSS on the benchmark's train-broad workload). A
    key's snapshot bits do not depend on its batch."""
    mus = sorted(mu for cell in cells for mu in cell.samples)
    return np.vstack([snaps for lo in range(0, len(mus), _CHUNK)
                      for snaps in solver.solve_many(mus[lo:lo + _CHUNK])])


def adaptive_train_extension(ops, g0, m_max, i_max, n_xi, theta, sigma_thres,
                             coarse_nhp, *, qbar=2, seed=0):
    """Adaptively grown training set plus its snapshots.

    ops: the reference TensorOperators, whose grid gives the partitions th
    and yh and whose snapshot_source the transverse snapshots' source; g0:
    the int n of the initial regular n^qbar cell grid over the training
    domain. The coarse N_H' x n_h indicator operators are built once, from
    the problem, lifting and mode of ops. Each outer iteration m = 1..m_max
    builds the (m-1)-mode POD space of the current snapshots and runs up to
    i_max rounds of score/mark/refine: a round scores (element_indicators)
    the cells without an eta, which are all cells in the first round and
    the previous round's children after it, marks, and stops the outer
    iteration when nothing is marked. The last round's children are not
    scored, so the newest returned cells carry eta = NaN; their snapshots
    are in the returned set. The caller compresses the returned snapshots
    with pod(). Identical seeds give identical training sets (the RNG is a
    counter-based Philox generator and snapshot caching is keyed by exact
    parameter tuples).
    """
    pd, th, yh = ops.pd, ops.grid.tx, ops.grid.ty
    solver = TransverseSolver(pd, ops.snapshot_source(), th, yh)
    rng = np.random.Generator(np.random.Philox(seed))
    cells = initial_cells(pd.omega_x, qbar, g0, n_xi, rng, th)
    thp = build_uniform_partition(pd.omega_x[0], pd.omega_x[1], coarse_nhp)
    coarse = reference_operators(pd, ops.lift, TensorGrid(thp, yh), ops.mode)
    for m in range(1, m_max + 1):
        snaps = _all_snapshots(cells, solver)
        space = pod(snaps, yh, count=m - 1) if m > 1 else empty_space(yh)
        base = BaseMoments(coarse, space)
        unscored = cells
        for _ in range(i_max):
            element_indicators(base, unscored, solver)
            chosen = mark(cells, theta, sigma_thres, th)
            if not chosen:
                break
            cells = refine(cells, chosen, n_xi, rng, th)
            unscored = [c for c in cells if math.isnan(c.eta)]
    return TrainingResult(_all_snapshots(cells, solver), cells)
