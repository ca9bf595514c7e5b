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
r = (x - a)/H (_snapped: within 1e-10 relative of an integer, r is that
integer). The elements, the deleted nodes, the active hats (the interior
nodes floor(r) and ceil(r) of each parameter's element), the inserted
midpoints and the handover bounds all derive from r, so a parameter within
round-off of a node lies on that node for each of them.

Per quadrature point x_l the trial combination sum_i xi_i(x_l) P_i enters the
diffusion-in-y and b2-advection rows while the derivative-weighted combination
sum_i xi_i'(x_l) P_i enters the diffusion-in-x/b1 row; the right-hand side
collects F against xi_k(x_l) and the lifting terms k h_y against v' and
k h_x xi_k' + (b.grad h) xi_k against v. Every lifting mode reaches this
module as one (ProblemData, LiftingFunction) pair,
problem.TensorOperators.snapshot_problem: a mode that folds its lifting into
the source (delta_h, riesz_recon) hands over the zero lifting
(LiftingFunction.zero()), whose terms are assembled like any other's.

Unknown order and cost: with n_a active hats and n_i = n_h - 1 interior
y-nodes, unknown j * n_a + a is hat a at interior y-node j + 1 (y-node-major,
active-hat minor). Every x-point couples all active hats but only
neighbouring y-nodes, so the system is block-tridiagonal with n_a x n_a
blocks: bandwidth bw = 2 n_a - 1. Like every block-tridiagonal system of the
package (reduced m-sweep, training indicator, Boussinesq march), it is held
only as LAPACK band storage (block_band) and solved by band_solve.

Assembly is split by what it depends on. The y-operators of an x-point
(YRows: the interior diagonals of K + D, Mk and Mb, the load and the
lifting-gradient load) depend only on the point. TransverseSolver.solve_many,
the one way to snapshots, builds the geometry (build_coupled_basis,
augment_quadrature) of a batch's uncached parameter vectors and the rows of
all their points in one y_rows pass that evaluates every callback once,
kept only for the call. What is left per parameter vector is the
contraction of its points' rows with its hat tables in
O((qbar + qhat) n_a^2 n_h) time (assemble_transverse) and the banded LU in
O(n bw^2) for n = n_a n_i unknowns (snapshot_solve); no dense or sparse
n x n matrix is formed.

A parameter vector's snapshots are the rows of one (n_a, n_h + 1) array:
row a is the transverse solution P_a(y) of hat cb.active[a], nodal over
the y-partition with zero boundary entries (snapshot_solve), cached
read-only by TransverseSolver.
"""

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

    base: Partition1D
    mu: tuple
    kept_nodes: np.ndarray
    active: np.ndarray

    @property
    def kept_x(self):
        return self.base.nodes[self.kept_nodes]

    def tables(self, x):
        """Values and derivatives of the active hats at the points x.

        Returns two (len(x), n_active) arrays. A hat is 1 at its node and
        linear down to 0 at the neighbouring kept nodes (an active hat is
        interior, so it has both); its derivative is right-continuous at
        the breakpoints.
        """
        pos = np.searchsorted(self.kept_nodes, self.active)
        kx = self.kept_x
        left, center, right = kx[pos - 1], kx[pos], kx[pos + 1]
        x = np.asarray(x, dtype=float)[:, None]
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


def _snapped(th, x):
    """Positions r = (x - a)/H of the points x in element units, each
    snapped to the nearest integer when within 1e-10 max(1, |r|): the one
    place where a point's position on th is decided, so a point within
    round-off of a node lies on it for every decision taken from r."""
    r = (np.asarray(x, dtype=float) - th.a) / th.h
    node = np.round(r)
    return np.where(np.abs(r - node) <= 1e-10 * np.maximum(1.0, np.abs(r)),
                    node, r)


def _elements(th, r):
    """Element of th holding each snapped position r: a point on a node
    belongs to the element on its right."""
    return np.clip(np.floor(r).astype(int), 0, th.n - 1)


def _parameters(th, mu):
    """The parameter vector sorted, and its snapped positions."""
    mu = np.sort(np.asarray(mu, dtype=float))
    if mu.size < 1:
        raise ValueError("need at least one quadrature point")
    if mu[0] <= th.a or mu[-1] >= th.b:
        raise ValueError(f"parameters must lie strictly inside ({th.a}, {th.b})")
    return mu, _snapped(th, mu)


def build_coupled_basis(th, mu):
    """Delete nodes between parameter points and collect the active hats.

    The nodes strictly between ceil(r_l) and floor(r_{l+1}) of consecutive
    points go; the active hats are the interior nodes floor(r) and ceil(r)
    of each point's element (one node for a point on a node), which the
    deletion always keeps.
    """
    mu, r = _parameters(th, mu)
    els = _elements(th, r)
    if np.any(np.diff(els) == 0):
        dup = mu[np.argmin(np.diff(els))]
        raise QuadPointsInSameElement(
            f"parameters {mu} share element {els} (near x={dup:g})"
        )
    left, right = np.floor(r).astype(int), np.ceil(r).astype(int)
    keep = np.ones(th.n + 1, dtype=bool)
    for start, stop in zip(right[:-1].tolist(), left[1:].tolist()):
        keep[start + 1:stop] = False
    hats = np.unique(np.concatenate([left, right]))
    return CoupledBasis(th, tuple(mu), np.nonzero(keep)[0],
                        hats[(hats > 0) & (hats < th.n)])


def augment_quadrature(th, mu):
    """Insert gap midpoints and compute tiling weights (see module docstring)."""
    mu, r = _parameters(th, mu)
    gaps = np.diff(np.floor(r)) >= 2
    pts = np.sort(np.concatenate([mu, 0.5 * (mu[:-1] + mu[1:])[gaps]]))
    rp = _snapped(th, pts)
    lo, hi = np.floor(rp), np.ceil(rp)
    # handover between consecutive points: their midpoint within one
    # element, else the midpoint of the empty node range between them
    inner = np.where(lo[:-1] == lo[1:], 0.5 * (pts[:-1] + pts[1:]),
                     0.5 * ((th.a + hi[:-1] * th.h) + (th.a + lo[1:] * th.h)))
    weights = np.diff(np.concatenate([[th.a], inner, [th.b]]))
    if np.any(weights <= 0):
        raise RuntimeError(f"non-positive quadrature weight for mu={mu}")
    return QuadratureRule(pts, weights, qbar=mu.size,
                          qhat=int(np.count_nonzero(gaps)))


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


def _p1_load(part, cvals, against_deriv=False):
    """Load vector int c v (or int c v') at the interior nodes."""
    tab = _der(part.h) if against_deriv else _VAL

    def local(t):
        return part.h / 2.0 * (cvals[..., 0] * tab[0, t]
                               + cvals[..., 1] * tab[1, t])

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


def band_solve(band, rhs, what):
    """LAPACK banded LU solve, O(n bw^2) for n unknowns.

    band is the (n, 3 bw + 1) storage of block_band, rhs one right-hand
    side of length n; neither is changed. Tridiagonal systems (bw = 1,
    n > 1) go to gtsv, every other one to gbsv: the calls
    scipy.linalg.solve_banded makes after its input checks, without their
    per-call cost. A singular or non-finite solve raises RuntimeError
    naming the system (what).
    """
    n, width = band.shape
    bw = (width - 1) // 3
    if bw == 1 and n > 1:
        _, _, _, sol, info = _gtsv(band[:-1, 3], band[:, 2], band[1:, 1], rhs)
    else:
        _, _, sol, info = _gbsv(bw, bw, band.T, rhs)
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
    int b1 u v; load holds the interior load int F v minus the k h_y,
    b1 h_x and b2 h_y lifting terms, and load_der the lifting-gradient load
    int k h_x v. Indexing takes a subset of the points.
    """

    kd: np.ndarray  # (n_points, 3 n_i - 2)
    mk: np.ndarray
    mb: np.ndarray
    load: np.ndarray  # (n_points, n_i)
    load_der: np.ndarray

    def __getitem__(self, points):
        return YRows(self.kd[points], self.mk[points], self.mb[points],
                     self.load[points], self.load_der[points])


def y_rows(pd, lift, points, yh):
    """YRows of the snapshot problem (pd, lift) at the x-points: every
    callback is evaluated once, at all points and y Gauss points together.

    Every operation is elementwise along the points, so a point's rows do
    not depend on the other points evaluated with it.
    """
    X, Y = (np.ascontiguousarray(c) for c in np.broadcast_arrays(
        np.asarray(points, dtype=float)[:, None, None], _y_gauss(yh)))
    shape = X.shape
    n_i = yh.n - 1
    widths = [3 * n_i - 2] * 3 + [n_i] * 2
    # the rows outlive the temporaries below, and a batch's solves allocate
    # the cached snapshots while they are held: one buffer taken before the
    # temporaries keeps the rows out of the space the temporaries free,
    # which would otherwise fragment the heap (~1.5 MB more peak RSS on the
    # benchmark's train-broad workload)
    kd, mk, mb, load, load_der = np.split(
        np.empty((shape[0], sum(widths))), np.cumsum(widths)[:-1], axis=1)

    def at_points(f):
        return np.broadcast_to(np.asarray(f(X, Y), dtype=float), shape)

    kv, b1v, b2v = at_points(pd.k), at_points(pd.b1), at_points(pd.b2)
    np.add(_interior_stack(_p1_diagonals(yh, kv, "stiff")),
           _interior_stack(_p1_diagonals(yh, b2v, "grad")), out=kd)
    mk[:] = _interior_stack(_p1_diagonals(yh, kv, "mass"))
    mb[:] = _interior_stack(_p1_diagonals(yh, b1v, "mass"))
    load[:] = _p1_load(yh, at_points(pd.F))
    hx, hy = at_points(lift.dx), at_points(lift.dy)
    load -= _p1_load(yh, kv * hy, against_deriv=True)
    load -= _p1_load(yh, b1v * hx + b2v * hy)
    load_der[:] = _p1_load(yh, kv * hx)
    return YRows(kd, mk, mb, load, load_der)


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


def assemble_transverse(rows, cb, rule):
    """Assemble the coupled transverse system for one parameter vector.

    rows are the YRows of the snapshot problem at rule.points (y_rows; row l
    belongs to point l): the right-hand side is F . xi psi - a(h, xi psi),
    with the k h_y, k h_x and b.grad(h) terms of the lifting h folded into
    rows.load and rows.load_der.

    Unknowns are y-node-major, active-hat minor (see TransverseSystem). The
    rows are contracted with the hat tables of cb, point by point: the
    n_a x n_a blocks of the three y-diagonals are accumulated over the
    x-points and scattered once into band storage (block_band), in
    O((qbar + qhat) n_a^2 n_h) time and O(n_a^2 n_h) memory.
    """
    n_a = cb.active.size
    if n_a == 0:
        raise ValueError("no active interior hats for the given parameters")
    pts, wts = rule.points, rule.weights
    # xi_a(x_l) and xi_a'(x_l), shape (n_points, n_a)
    Xi, dXi = cb.tables(pts)
    # per-point block coefficients [l, test hat, trial hat]
    w_trial_val = wts[:, None, None] * Xi[:, None, :]
    w_trial_der = wts[:, None, None] * dXi[:, None, :]
    c_kd = w_trial_val * Xi[:, :, None]
    c_mk = w_trial_der * dXi[:, :, None]
    c_mb = w_trial_der * Xi[:, :, None]

    blocks = np.zeros((rows.kd.shape[1], n_a, n_a))
    for l in range(pts.size):
        block = c_kd[l] * rows.kd[l][:, None, None]
        block += c_mk[l] * rows.mk[l][:, None, None]
        block += c_mb[l] * rows.mb[l][:, None, None]
        blocks += block

    w_val = wts[:, None] * Xi
    w_der = wts[:, None] * dXi
    rhs = np.zeros((rows.load.shape[1], n_a))
    for l in range(pts.size):
        rhs += w_val[l] * rows.load[l][:, None]
        rhs -= w_der[l] * rows.load_der[l][:, None]

    return TransverseSystem(block_band(blocks), rhs.ravel(), cb)


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
    """

    def __init__(self, pd, lift, th, yh):
        self.pd = pd
        self.lift = lift
        self.th = th
        self.yh = yh
        self._cache = {}

    def solve(self, key, prepared):
        """The snapshots of the sorted key: assembled, solved and cached
        from prepared = (cb, rule, rows) when given, else the cached array
        (an uncached key without prepared is a KeyError)."""
        if prepared is not None:
            cb, rule, rows = prepared
            snaps = snapshot_solve(assemble_transverse(rows, cb, rule))
            snaps.setflags(write=False)
            self._cache[key] = snaps
        return self._cache[key]

    def solve_many(self, mus):
        """The snapshots of every parameter vector in mus, in order.

        The geometry of the distinct uncached keys is built first, so a
        rejected key (QuadPointsInSameElement) fails the batch before
        anything is solved; their YRows come from one y_rows pass, which
        gives each key the bits of a batch of one, since y_rows is
        elementwise along the points. solve runs once per requested key.
        """
        keys = [tuple(np.sort(np.asarray(mu, dtype=float))) for mu in mus]
        fresh = [key for key in dict.fromkeys(keys) if key not in self._cache]
        prepared = {}
        if fresh:
            geometry = [(build_coupled_basis(self.th, key),
                         augment_quadrature(self.th, key)) for key in fresh]
            points = np.concatenate([rule.points for _, rule in geometry])
            rows = y_rows(self.pd, self.lift, points, self.yh)
            lo = 0
            for key, (cb, rule) in zip(fresh, geometry):
                hi = lo + rule.points.size
                prepared[key] = (cb, rule, rows[lo:hi])
                lo = hi
        return [self.solve(key, prepared.pop(key, None)) for key in keys]
