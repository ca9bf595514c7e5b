"""Parametrized transverse problems on deleted-node coupled bases.

Given quadrature points mu = (mu_1, ..., mu_Qbar) in distinct elements of the
dominant-direction partition, the 2D weak form is collapsed onto 1D unknowns
P_i(y) by (i) deleting all partition nodes strictly inside
(ceil(mu_l/H)H, floor(mu_{l+1}/H)H) so the surviving "long" hat functions
couple the quadrature points, (ii) inserting the midpoint of two consecutive
points whenever they are at least two elements apart, and (iii) integrating
in x with a point rule whose weights tile Omega_1D.

Weight convention (the single most consequential reading in this package):
each quadrature point owns the subinterval between handover boundaries; the
boundary between consecutive points is their midpoint when they share an
element and the midpoint of the empty node range
[ceil(x_l/H)H, floor(x_{l+1}/H)H] otherwise (which is the shared element edge
when the elements are adjacent, recovering the isolated-point weight H). The
first/last points extend to the domain ends. All weights are positive and sum
to |Omega_1D|, so the rule is exact for constants; placing one point per
element midpoint reproduces the midpoint-quadrature FE system exactly.

Where a point sits is decided once, by its snapped position
r = (x - a)/H (Partition1D.position: within 1e-10 relative of an integer,
r is that integer). The elements (Partition1D.element_of), the deleted
nodes, the active hats (the interior nodes floor(r) and ceil(r) of each
parameter's element), the inserted midpoints and the handover bounds all
derive from r, so a parameter within round-off of a node lies on that node
for each of them.

Per quadrature point x_l the trial combination sum_i xi_i(x_l) P_i enters the
diffusion-in-y and b2-advection rows while the derivative-weighted combination
sum_i xi_i'(x_l) P_i enters the diffusion-in-x/b1 row; the right-hand side
collects the source against xi_k(x_l). The source is one callable (x, y),
problem.TensorOperators.snapshot_source for a study; this module reads k, b1
and b2 of the ProblemData and never its F.

Unknown order and cost: with n_a active hats and n_i = n_h - 1 interior
y-nodes, unknown j * n_a + a is hat a at interior y-node j + 1 (y-node-major,
active-hat minor). Every x-point couples all active hats but only
neighbouring y-nodes, so the system is block-tridiagonal with n_a x n_a
blocks: bandwidth bw = 2 n_a - 1. Like every block-tridiagonal system of the
package (reduced m-sweep, training indicator, Boussinesq march), it is held
only as LAPACK band storage (block_band) and solved by band_solve.

Assembly is split by what it depends on. TransverseSolver.solve_many, the
one way to snapshots, prepares the uncached parameter vectors of a batch
together (_batch_systems):

* per batch: the geometry of every key as rows of (S, .) arrays
  (_geometry: snapped positions, deleted nodes, active hats with their kept
  neighbours, augmented points and weights), and the y-operators of all
  their points in one y_rows pass that evaluates every callback once
  (YRows: the interior diagonals of K + D, Mk and Mb and the load, which
  depend only on the point);
* per group of keys sharing qbar, n_a and the point count: the hat tables
  and the contraction of the points' rows with them into the n_a x n_a
  blocks and the right-hand side of each key, O((qbar + qhat) n_a^2 n_h)
  time per key (_Group.contract), written into one buffer for the batch;
* per key, in TransverseSolver.solve: the scatter of its blocks into band
  storage (assemble_transverse) and the banded LU in O(n bw^2) for
  n = n_a n_i unknowns (snapshot_solve).

Every batched step is elementwise along the keys, and the contraction adds
a key's points in order, so a key gets the bits of a batch of one;
build_coupled_basis and augment_quadrature are _geometry on a batch of one.
No dense or sparse n x n matrix is formed.

A parameter vector's snapshots are the rows of one (n_a, n_h + 1) array:
row a is the transverse solution P_a(y) of hat cb.active[a], nodal over
the y-partition with zero boundary entries (snapshot_solve), cached
read-only by TransverseSolver as a view of one array per batch.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .mesh import GAUSS_NODES, Partition1D



class QuadPointsInSameElement(ValueError):
    """Two transverse parameters fell into one dominant-direction element."""


@dataclass(frozen=True)
class QuadratureRule:
    """Augmented point rule in the dominant direction."""

    points: np.ndarray
    weights: np.ndarray
    qbar: int  # number of original (parameter) points
    qhat: int  # number of inserted midpoints


@dataclass(frozen=True)
class CoupledBasis:
    """Modified (long-support) hat basis after node deletion.

    kept_nodes are original node indices (always including both endpoints);
    active are the original node ids of interior hats whose support contains
    at least one parameter point.
    """

    mu: tuple
    kept_nodes: np.ndarray
    active: np.ndarray


@dataclass(frozen=True)
class _Group:
    """The keys of a batch that share qbar, the active-hat count n_a and the
    point count P = qbar + qhat, as (G, .) arrays, one row per key."""

    th: Partition1D
    index: np.ndarray  # (G,) positions of the keys in the batch
    mu: np.ndarray  # (G, qbar) sorted parameters
    keep: np.ndarray  # (G, n + 1) kept-node mask
    active: np.ndarray  # (G, n_a) active hats, increasing
    hats: np.ndarray  # (3, G, 1, n_a): x of left kept node, node, right one
    points: np.ndarray  # (G, P) augmented points, increasing
    weights: np.ndarray  # (G, P)

    def basis(self, g):
        return CoupledBasis(tuple(self.mu[g]),
                            np.flatnonzero(self.keep[g]), self.active[g])

    def rule(self, g):
        qbar = self.mu.shape[1]
        return QuadratureRule(self.points[g], self.weights[g], qbar=qbar,
                              qhat=self.points.shape[1] - qbar)

    def tables(self, x):
        """Values and derivatives of each key's active hats at its points
        x, shape (G, n_x): two (G, n_x, n_a) arrays. A hat is 1 at its node
        and linear down to 0 at the neighbouring kept nodes (an active hat
        is interior, so it has both); its derivative is right-continuous at
        the breakpoints."""
        left, center, right = self.hats
        x = np.asarray(x, dtype=float)[:, :, None]
        rise = (left < x) & (x < center)
        fall = (center < x) & (x < right)
        val = np.where(x == center, 1.0,
                       np.where(rise, (x - left) / (center - left),
                                np.where(fall, (right - x) / (right - center),
                                         0.0)))
        der = np.where((left <= x) & (x < center), 1.0 / (center - left),
                       np.where((center <= x) & (x < right),
                                -1.0 / (right - center), 0.0))
        return val, der

    def contract(self, rows, blocks, rhs):
        """Contract the YRows of the group's points (G P rows, key-major)
        with the hat tables, in place: blocks (G, n_a, n_a, 3 n_i - 2) gets
        each key's n_a x n_a blocks of the three y-diagonals (entry
        [t, s, p] couples test hat t to trial hat s in block p of
        block_pairs order) and rhs (G, n_a, n_i) its right-hand side, in
        O(G P n_a^2 n_h) time.

        The y axis is innermost, so every product runs along 3 n_i - 2
        contiguous entries. The points are added one at a time,
        l = 0..P-1, so each key gets the float operations, and the bits,
        of its own contraction.
        """
        G, P = self.points.shape
        val, der = self.tables(self.points)
        w = self.weights[:, :, None, None]
        # per-point block coefficients [g, l, test hat, trial hat]
        w_trial_val = w * val[:, :, None, :]
        w_trial_der = w * der[:, :, None, :]
        coefs = (w_trial_val * val[..., None], w_trial_der * der[..., None],
                 w_trial_der * val[..., None])
        ops = [f.reshape(G, P, 1, 1, -1) for f in (rows.kd, rows.mk, rows.mb)]
        block, term = np.empty_like(blocks), np.empty_like(blocks)
        blocks[...] = 0.0
        for l in range(P):
            np.multiply(coefs[0][:, l, ..., None], ops[0][:, l], out=block)
            for coef, op in zip(coefs[1:], ops[1:]):
                np.multiply(coef[:, l, ..., None], op[:, l], out=term)
                block += term
            blocks += block

        w_val = self.weights[..., None] * val
        load = rows.load.reshape(G, P, 1, -1)
        rhs[...] = 0.0
        for l in range(P):
            rhs += w_val[:, l, :, None] * load[:, l]


def _weights(th, pts, mu):
    """Tiling weights of the augmented points pts (G, P) of the sorted
    parameters mu (G, qbar), see module docstring."""
    rp = th.position(pts)
    lo, hi = np.floor(rp), np.ceil(rp)
    # handover between consecutive points: their midpoint within one
    # element, else the midpoint of the empty node range between them
    inner = np.where(lo[:, :-1] == lo[:, 1:], 0.5 * (pts[:, :-1] + pts[:, 1:]),
                     0.5 * ((th.a + hi[:, :-1] * th.h)
                            + (th.a + lo[:, 1:] * th.h)))
    ends = np.ones((pts.shape[0], 1))
    bounds = np.concatenate([th.a * ends, inner, th.b * ends], axis=1)
    weights = np.diff(bounds, axis=1)
    bad = np.any(weights <= 0, axis=1)
    if np.any(bad):
        raise RuntimeError(
            f"non-positive quadrature weight for mu={mu[np.argmax(bad)]}")
    return weights


def _geometry(th, keys):
    """Coupled bases and augmented rules of a batch of parameter vectors,
    as _Groups.

    Per qbar, every key is one row of (S, .) arrays. Of consecutive points,
    the nodes strictly between ceil(r_l) and floor(r_{l+1}) go, and their
    midpoint is inserted when their elements are at least two apart; the
    active hats are the interior nodes floor(r) and ceil(r) of each point's
    element (one node for a point on a node), which the deletion always
    keeps. Every formula is elementwise along the keys, so a key gets the
    bits of a batch of one. A key with two parameters in one element
    (QuadPointsInSameElement) or a non-positive weight fails the batch.
    """
    by_size = {}
    for i, key in enumerate(keys):
        by_size.setdefault(len(key), []).append(i)
    nodes = np.arange(th.n + 1)
    groups = []
    for index in by_size.values():
        index = np.array(index)
        mu = np.sort(np.asarray([keys[i] for i in index], dtype=float), axis=1)
        S, qbar = mu.shape
        if qbar < 1:
            raise ValueError("need at least one quadrature point")
        if np.any(mu[:, 0] <= th.a) or np.any(mu[:, -1] >= th.b):
            raise ValueError(
                f"parameters must lie strictly inside ({th.a}, {th.b})")
        r = th.position(mu)
        els = th.element_of(mu)
        same = np.diff(els, axis=1) == 0
        if np.any(same):
            s, l = np.argwhere(same)[0]
            raise QuadPointsInSameElement(f"parameters {mu[s]} share element "
                                          f"{els[s]} (near x={mu[s, l]:g})")
        left, right = np.floor(r).astype(int), np.ceil(r).astype(int)
        keep = ~np.any((right[:, :-1, None] < nodes)
                       & (nodes < left[:, 1:, None]), axis=1)
        # nearest kept node at or below / at or above each node (the end
        # nodes are always kept)
        below = np.maximum.accumulate(np.where(keep, nodes, 0), axis=1)
        above = np.minimum.accumulate(np.where(keep, nodes, th.n)[:, ::-1],
                                      axis=1)[:, ::-1]
        cand = np.sort(np.stack([left, right], axis=2).reshape(S, -1), axis=1)
        is_hat = (cand > 0) & (cand < th.n)
        is_hat[:, 1:] &= cand[:, 1:] != cand[:, :-1]
        # the points interleaved with the gap midpoints, which lie between
        pts = np.empty((S, 2 * qbar - 1))
        pts[:, ::2] = mu
        pts[:, 1::2] = 0.5 * (mu[:, :-1] + mu[:, 1:])
        has = np.ones(pts.shape, dtype=bool)
        has[:, 1::2] = np.diff(np.floor(r), axis=1) >= 2
        n_a, n_p = is_hat.sum(axis=1), has.sum(axis=1)
        for a, p in sorted(set(zip(n_a.tolist(), n_p.tolist()))):
            sel = (n_a == a) & (n_p == p)
            G = np.count_nonzero(sel)
            act = cand[sel][is_hat[sel]].reshape(G, a)
            hats = th.nodes[np.stack([
                np.take_along_axis(below[sel], act - 1, axis=1), act,
                np.take_along_axis(above[sel], act + 1, axis=1)])]
            x = pts[sel][has[sel]].reshape(G, p)
            groups.append(_Group(th, index[sel], mu[sel], keep[sel], act,
                                 hats[:, :, None, :], x,
                                 _weights(th, x, mu[sel])))
    return groups


def build_coupled_basis(th, mu):
    """Delete nodes between parameter points and collect the active hats:
    _geometry on a batch of one."""
    return _geometry(th, [mu])[0].basis(0)


def augment_quadrature(th, mu):
    """Insert gap midpoints and compute tiling weights (see module
    docstring): _geometry on a batch of one."""
    return _geometry(th, [mu])[0].rule(0)


# ---------------------------------------------------------------------------
# 1D P1 assembly helpers (coefficient values given at the 2 Gauss points of
# every element, shape (..., n_elements, 2); leading axes are batched)

_VAL = np.array([[1.0 - g, g] for g in GAUSS_NODES])  # (q, local) values


def _der(h):
    """(q, local) shape derivatives on elements of width h."""
    return np.array([[-1.0 / h, 1.0 / h]] * 2)


def _p1_diagonals(part, cvals, kind):
    """Diagonals (lower, diag, upper) of a 1D P1 matrix over all n + 1 nodes.

    kind is "stiff" (int c u' v'), "grad" (int c u' v: trial derivative,
    test value) or "mass" (int c u v). lower[..., i] is entry (i + 1, i) and
    upper[..., i] entry (i, i + 1); both have n entries, diag n + 1. Each
    local entry (test t, trial s) is its own (..., n) array, summed over the
    two Gauss points q in the order q = 0, 1.
    """
    der = _der(part.h)
    row, col = {"stiff": (der, der), "grad": (_VAL, der),
                "mass": (_VAL, _VAL)}[kind]
    c0, c1 = cvals[..., 0], cvals[..., 1]

    def local(t, s):
        return part.h / 2.0 * ((c0 * row[0, t]) * col[0, s]
                               + (c1 * row[1, t]) * col[1, s])

    diag = np.zeros(cvals.shape[:-2] + (part.n + 1,))
    diag[..., :-1] += local(0, 0)
    diag[..., 1:] += local(1, 1)
    return local(1, 0), diag, local(0, 1)


def _p1_load(part, cvals):
    """Load vector int c v at the interior nodes."""
    def local(t):
        return part.h / 2.0 * (cvals[..., 0] * _VAL[0, t]
                               + cvals[..., 1] * _VAL[1, t])

    return local(0)[..., 1:] + local(1)[..., :-1]


def _interior_stack(diags):
    """Interior diagonals of (lower, diag, upper) stacked as diag, upper,
    lower along the last axis: 3 n_i - 2 entries in block_pairs order."""
    lower, diag, upper = diags
    return np.concatenate([diag[..., 1:-1], upper[..., 1:-1],
                           lower[..., 1:-1]], axis=-1)


def block_pairs(n):
    """Block rows and columns of the 3 n - 2 nonzero blocks of a
    block-tridiagonal matrix with n block rows, in the one order every
    stacked-block array uses: the diagonal blocks (j, j), then the upper
    blocks (j, j + 1), then the lower blocks (j + 1, j)."""
    j = np.arange(n)
    return (np.concatenate([j, j[:-1], j[1:]]),
            np.concatenate([j, j[1:], j[:-1]]))


def block_band(blocks):
    """LAPACK band storage of a block-tridiagonal matrix.

    blocks has shape (3 n - 2, w, w), stacked in block_pairs(n) order; entry
    [t, s] of a block couples its row t to its column s. The n w x n w
    matrix has lower and upper bandwidth bw = 2 w - 1. It is stored one row
    per unknown, shape (n w, 3 bw + 1), with entry (r, c) at
    band[c, 2 bw + r - c]: band.T is the Fortran (3 bw + 1, n w) array that
    gbsv factors in place, its first bw rows left zero for the LU fill.
    Each of the three block diagonals is written through one strided view
    of the storage.
    """
    n_b, w, _ = blocks.shape
    n = (n_b + 2) // 3
    bw = 2 * w - 1
    band = np.zeros((n * w, 3 * bw + 1))
    item = band.itemsize
    # entry [t, s] of the block at block row J, column K = J + d is
    # band[K w + s, 2 bw - d w + t - s]: along a block diagonal the next
    # block is w rows down, t steps one column, s one row and a column back
    strides = (w * band.strides[0], item, band.strides[0] - item)
    for d, group in ((0, blocks[:n]), (1, blocks[n:2 * n - 1]),
                     (-1, blocks[2 * n - 1:])):
        if group.shape[0]:
            start = (max(d, 0) * w * (3 * bw + 1) + 2 * bw - d * w) * item
            np.ndarray(group.shape, band.dtype, band.data, start,
                       strides)[...] = group
    return band


_gbsv = scipy.linalg.lapack.dgbsv
_gtsv = scipy.linalg.lapack.dgtsv


def band_solve(band, rhs, what, overwrite_band=False):
    """LAPACK banded LU solve, O(n bw^2) for n unknowns.

    band is the (n, 3 bw + 1) storage of block_band, rhs one right-hand
    side of length n; neither is changed, except that gbsv factors band in
    place when overwrite_band is true (for a caller that owns a band it
    solves once, which then needs no copy of it). Tridiagonal systems
    (bw = 1, n > 1) go to gtsv, every other one to gbsv: the calls
    scipy.linalg.solve_banded makes after its input checks, without their
    per-call cost. A singular or non-finite solve raises RuntimeError
    naming the system (what).
    """
    n, width = band.shape
    bw = (width - 1) // 3
    if bw == 1 and n > 1:
        _, _, _, sol, info = _gtsv(band[:-1, 3], band[:, 2], band[1:, 1], rhs)
    else:
        _, _, sol, info = _gbsv(bw, bw, band.T, rhs,
                                overwrite_ab=overwrite_band)
    if info > 0:
        raise RuntimeError(f"{what} is singular")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gbsv/gtsv")
    if not np.all(np.isfinite(sol)):
        raise RuntimeError(f"{what}: solve diverged")
    return sol


def _y_gauss(part):
    return (part.nodes[:-1, None] + GAUSS_NODES[None, :] * part.h)  # (ne, 2)


@dataclass(frozen=True)
class YRows:
    """The y-operators of a set of x-points, one row per point.

    kd, mk and mb hold the interior diagonals (_interior_stack, block_pairs
    order) of K + D (int k u' v' + int b2 u' v), of int k u v and of
    int b1 u v; load holds the interior load int f v of the source f.
    Indexing takes a subset of the points.
    """

    kd: np.ndarray  # (n_points, 3 n_i - 2)
    mk: np.ndarray
    mb: np.ndarray
    load: np.ndarray  # (n_points, n_i)

    def __getitem__(self, points):
        return YRows(self.kd[points], self.mk[points], self.mb[points],
                     self.load[points])


def y_rows(pd, source, points, yh):
    """YRows of the coefficients of pd and the source at the x-points: every
    callback is evaluated once, at all points and y Gauss points together.

    Every operation is elementwise along the points, so a point's rows do
    not depend on the other points evaluated with it.
    """
    X, Y = (np.ascontiguousarray(c) for c in np.broadcast_arrays(
        np.asarray(points, dtype=float)[:, None, None], _y_gauss(yh)))
    shape = X.shape
    n_i = yh.n - 1
    widths = [3 * n_i - 2] * 3 + [n_i]
    # the rows outlive the temporaries below: one buffer taken before the
    # temporaries keeps the rows out of the space the temporaries free,
    # which would otherwise fragment the heap
    kd, mk, mb, load = np.split(
        np.empty((shape[0], sum(widths))), np.cumsum(widths)[:-1], axis=1)

    def at_points(f):
        return np.broadcast_to(np.asarray(f(X, Y), dtype=float), shape)

    kv, b1v, b2v = at_points(pd.k), at_points(pd.b1), at_points(pd.b2)
    np.add(_interior_stack(_p1_diagonals(yh, kv, "stiff")),
           _interior_stack(_p1_diagonals(yh, b2v, "grad")), out=kd)
    mk[:] = _interior_stack(_p1_diagonals(yh, kv, "mass"))
    mb[:] = _interior_stack(_p1_diagonals(yh, b1v, "mass"))
    load[:] = _p1_load(yh, at_points(source))
    return YRows(kd, mk, mb, load)


@dataclass
class TransverseSystem:
    """Coupled transverse system of one parameter vector.

    Unknowns are y-node-major, active-hat minor: row j * n_a + a belongs to
    hat cb.active[a] at interior y-node j + 1. matrix is the block_band
    storage of the block-tridiagonal system, one row per unknown: shape
    (n_a (n_h - 1), 3 bw + 1) with bw = 2 n_a - 1.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    cb: CoupledBasis


def assemble_transverse(blocks, rhs, cb):
    """The coupled transverse system of one parameter vector from its
    contracted blocks (3 n_i - 2, n_a, n_a) and right-hand side (n_i, n_a)
    (_Group.contract): the blocks are scattered into band storage
    (block_band) in O(n_a^2 n_h) time.

    The right-hand side is the source against xi psi (y_rows). Unknowns are
    y-node-major, active-hat minor (see TransverseSystem).
    """
    return TransverseSystem(block_band(blocks), rhs.ravel(), cb)


def _batch_systems(pd, source, th, yh, keys):
    """(blocks, rhs, cb, snaps) of every parameter vector in keys, in
    order: the arguments of its assemble_transverse and the (n_a, n_h + 1)
    rows that will hold its snapshots.

    The geometry of all keys comes from one _geometry call, the YRows of
    all their points from one y_rows pass, and the hat tables and the
    contraction from one _Group.contract per group. Every key's snapshot
    rows are a view of one array and its blocks and right-hand side views
    of one buffer, both allocated before the temporaries: the cached
    snapshots of a batch are then one block of memory, not one small
    allocation per key among the batch's freed temporaries, which would
    fragment the heap (up to 1.9 MB more peak RSS on the benchmark's
    train-broad workload). A key without active interior hats fails the
    batch with ValueError.
    """
    groups = _geometry(th, keys)
    if any(g.active.shape[1] == 0 for g in groups):
        raise ValueError("no active interior hats for the given parameters")
    n_i = yh.n - 1
    shapes = [((g.index.size,) + g.active.shape[1:] * 2 + (3 * n_i - 2,),
               (g.index.size, g.active.shape[1], n_i)) for g in groups]
    snaps = np.zeros((sum(g.active.size for g in groups), yh.n + 1))
    buf = np.empty(sum(math.prod(b) + math.prod(r) for b, r in shapes))
    rows = y_rows(pd, source,
                  np.concatenate([g.points.ravel() for g in groups]), yh)
    out = [None] * len(keys)
    at = lo = row = 0
    for g, (b_shape, r_shape) in zip(groups, shapes):
        blocks = buf[at:at + math.prod(b_shape)].reshape(b_shape)
        at += blocks.size
        rhs = buf[at:at + math.prod(r_shape)].reshape(r_shape)
        at += rhs.size
        g.contract(rows[lo:lo + g.points.size], blocks, rhs)
        lo += g.points.size
        n_a = g.active.shape[1]
        for j, i in enumerate(g.index.tolist()):
            out[i] = (blocks[j].transpose(2, 0, 1), rhs[j].T, g.basis(j),
                      snaps[row:row + n_a])
            row += n_a
    return out


def snapshot_solve(system):
    """Solve the coupled system: the parameter's snapshots as the rows of
    one (n_a, n_h + 1) array, row a the component P_a(y) of hat
    system.cb.active[a], nodal over the y-partition with zero boundary
    entries (n_h - 1 interior nodes: system.rhs.size // n_a).

    band_solve on the band storage system.matrix: O(n bw^2) time for
    n = n_a (n_h - 1) unknowns and bandwidth bw = 2 n_a - 1. A singular or
    non-finite solve raises RuntimeError.
    """
    cb = system.cb
    n_a = cb.active.size
    sol = band_solve(system.matrix, system.rhs,
                     f"transverse system for mu={cb.mu}")
    out = np.zeros((n_a, system.rhs.size // n_a + 2))
    out[:, 1:-1] = sol.reshape(-1, n_a).T
    return out


class TransverseSolver:
    """Snapshot factory with caching, keyed by the sorted parameter tuple.

    solve_many(mus), the one entry point, gives each mu snapshot_solve's
    (n_a, n_h + 1) array, one row per active hat in cb.active order. Every
    request for the same parameters returns the same cached, read-only
    array; the row order (sorted parameter tuple, then active hat) is what
    makes runs deterministic. Between calls the solver holds nothing but
    its cache.

    pd gives the coefficients k, b1 and b2 and source the right-hand side
    f(x, y) of the snapshot problem (problem.TensorOperators.snapshot_source
    in a study).

    A batch's fresh keys share their geometry, y_rows pass and snapshot
    array (per batch) and their hat tables and contraction (per group of
    keys with the same qbar, n_a and point count); per key, solve scatters
    the blocks to band storage and runs snapshot_solve.
    """

    def __init__(self, pd, source, th, yh):
        self.pd = pd
        self.source = source
        self.th = th
        self.yh = yh
        self._cache = {}

    def solve(self, key, prepared):
        """The snapshots of the sorted key: assembled (assemble_transverse),
        solved into its rows and cached from prepared =
        (blocks, rhs, cb, snaps) when given, else the cached array (an
        uncached key without prepared is a KeyError)."""
        if prepared is not None:
            blocks, rhs, cb, snaps = prepared
            snaps[...] = snapshot_solve(assemble_transverse(blocks, rhs, cb))
            snaps.setflags(write=False)
            self._cache[key] = snaps
        return self._cache[key]

    def solve_many(self, mus):
        """The snapshots of every parameter vector in mus, in order.

        The distinct uncached keys are prepared together (_batch_systems):
        their geometry and their YRows per batch, their hat tables and
        contraction per group of keys sharing qbar, n_a and the point
        count. A rejected key (QuadPointsInSameElement) thus fails the
        batch before anything is solved or cached. Each key still gets the
        bits of a batch of one, since every batched step is elementwise
        along the keys. solve runs once per requested key and, for a fresh
        one, scatters its blocks to band storage and solves
        (snapshot_solve).
        """
        keys = [tuple(np.sort(np.asarray(mu, dtype=float))) for mu in mus]
        fresh = [key for key in dict.fromkeys(keys) if key not in self._cache]
        prepared = {}
        if fresh:
            prepared = dict(zip(fresh, _batch_systems(
                self.pd, self.source, self.th, self.yh, fresh)))
        return [self.solve(key, prepared.pop(key, None)) for key in keys]
