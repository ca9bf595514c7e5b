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
the source (delta_h, riesz_recon) hands over the shared zero lifting
(LiftingFunction.zero()), whose terms assemble_transverse skips.

Unknown order and cost: with n_a active hats and n_i = n_h - 1 interior
y-nodes, unknown j * n_a + a is hat a at interior y-node j + 1 (y-node-major,
active-hat minor). Every x-point couples all active hats but only
neighbouring y-nodes, so the system is block-tridiagonal with n_a x n_a
blocks: bandwidth bw = 2 n_a - 1. Like every block-tridiagonal system of the
package (reduced m-sweep, training indicator, Boussinesq march), it is held
only as LAPACK band storage (block_band) and solved by band_solve. Assembly
takes O((qbar + qhat) n_a^2 n_h) time and the banded LU O(n bw^2) for
n = n_a n_i unknowns; no dense or sparse n x n matrix is formed.

A parameter vector's snapshots are the rows of one (n_a, n_h + 1) array:
row a is the transverse solution P_a(y) of hat cb.active[a], nodal over
the y-partition with zero boundary entries (snapshot_solve), cached
read-only by TransverseSolver.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .mesh import GAUSS_NODES, Partition1D
from .problem import LiftingFunction


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
    upper[..., i] entry (i, i + 1); both have n entries, diag n + 1.
    """
    der = _der(part.h)
    row, col = {"stiff": (der, der), "grad": (_VAL, der),
                "mass": (_VAL, _VAL)}[kind]
    c_row = cvals[..., None] * row  # (..., e, q, t)
    loc = part.h / 2.0 * (c_row[..., 0, :, None] * col[0]
                          + c_row[..., 1, :, None] * col[1])
    diag = np.zeros(loc.shape[:-3] + (part.n + 1,))
    diag[..., :-1] += loc[..., 0, 0]
    diag[..., 1:] += loc[..., 1, 1]
    return loc[..., 1, 0], diag, loc[..., 0, 1]


def _p1_load(part, cvals, against_deriv=False):
    """Load vector int c v (or int c v') at the interior nodes."""
    tab = _der(part.h) if against_deriv else _VAL
    loc = part.h / 2.0 * (cvals[..., 0, None] * tab[0]
                          + cvals[..., 1, None] * tab[1])
    return loc[..., 1:, 0] + loc[..., :-1, 1]


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


# 8 keys hold the training phase's widths (up to 2 Qbar transverse ones and
# the indicator's m - 1 + 1 .. m - 1 + 2 Qbar at Qbar = 2), so the reduced
# m-sweep's one key per m evicts them instead of piling up
@lru_cache(maxsize=8)
def _band_index(w, n):
    """Flat positions in block_band's storage of the entries of the
    (3 n - 2, w, w) blocks stacked in block_pairs(n) order."""
    bw = 2 * w - 1
    rows, cols = block_pairs(n)
    r = rows[:, None, None] * w + np.arange(w)[:, None]
    c = cols[:, None, None] * w + np.arange(w)
    # c (3 bw + 1) + 2 bw + r - c, with one full-size array: temporaries of
    # that size left between the cached indices fragment the heap
    return r + (3 * bw * c + 2 * bw)


def block_band(blocks):
    """LAPACK band storage of a block-tridiagonal matrix.

    blocks has shape (3 n - 2, w, w), stacked in block_pairs(n) order; entry
    [t, s] of a block couples its row t to its column s. The n w x n w
    matrix has lower and upper bandwidth bw = 2 w - 1. It is stored one row
    per unknown, shape (n w, 3 bw + 1), with entry (r, c) at
    band[c, 2 bw + r - c]: band.T is the Fortran (3 bw + 1, n w) array that
    gbsv factors in place, its first bw rows left zero for the LU fill.
    """
    n_b, w, _ = blocks.shape
    n = (n_b + 2) // 3
    bw = 2 * w - 1
    band = np.zeros((n * w, 3 * bw + 1))
    band.reshape(-1)[_band_index(w, n)] = blocks
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
    yh: Partition1D


def assemble_transverse(pd, lift, cb, rule, yh):
    """Assemble the coupled transverse system for one parameter vector.

    (pd, lift) is a snapshot problem (TensorOperators.snapshot_problem): the
    right-hand side is F . xi psi - a(h, xi psi), with the k h_y, k h_x and
    b.grad(h) terms of the lifting h; for LiftingFunction.zero() those terms
    are skipped, not assembled as zeros.

    Unknowns are y-node-major, active-hat minor (see TransverseSystem). Every
    callback is evaluated once, at all x-points and y Gauss points together;
    the n_a x n_a blocks of the three y-diagonals are accumulated over the
    x-points and scattered once into band storage (block_band), in
    O((qbar + qhat) n_a^2 n_h) time and O(n_a^2 n_h) memory.
    """
    act = cb.active
    n_a = act.size
    if n_a == 0:
        raise ValueError("no active interior hats for the given parameters")
    n_i = yh.n - 1
    yg = _y_gauss(yh)
    pts, wts = rule.points, rule.weights
    X, Y = (np.ascontiguousarray(c)
            for c in np.broadcast_arrays(pts[:, None, None], yg))
    shape = X.shape

    def at_points(f):
        return np.broadcast_to(np.asarray(f(X, Y), dtype=float), shape)

    # xi_a(x_l) and xi_a'(x_l), shape (n_points, n_a)
    Xi, dXi = cb.tables(pts)
    # per-point block coefficients [l, test hat, trial hat]
    w_trial_val = wts[:, None, None] * Xi[:, None, :]
    w_trial_der = wts[:, None, None] * dXi[:, None, :]
    c_kd = w_trial_val * Xi[:, :, None]
    c_mk = w_trial_der * dXi[:, :, None]
    c_mb = w_trial_der * Xi[:, :, None]

    kv, b1v, b2v = at_points(pd.k), at_points(pd.b1), at_points(pd.b2)
    K = _interior_stack(_p1_diagonals(yh, kv, "stiff"))
    D = _interior_stack(_p1_diagonals(yh, b2v, "grad"))
    Mk = _interior_stack(_p1_diagonals(yh, kv, "mass"))
    Mb = _interior_stack(_p1_diagonals(yh, b1v, "mass"))
    KD = K + D
    blocks = np.zeros((3 * n_i - 2, n_a, n_a))
    for l in range(pts.size):
        block = c_kd[l] * KD[l][:, None, None]
        block += c_mk[l] * Mk[l][:, None, None]
        block += c_mb[l] * Mb[l][:, None, None]
        blocks += block
    matrix = block_band(blocks)

    load = _p1_load(yh, at_points(pd.F))
    # the zero lifting (delta_h, riesz_recon) has no terms to subtract
    lifted = lift is not LiftingFunction.zero()
    if lifted:
        hx, hy = at_points(lift.dx), at_points(lift.dy)
        load = (load - _p1_load(yh, kv * hy, against_deriv=True)
                - _p1_load(yh, b1v * hx + b2v * hy))
        h2_grad = _p1_load(yh, kv * hx)
        w_der = wts[:, None] * dXi
    w_val = wts[:, None] * Xi
    rhs = np.zeros((n_i, n_a))
    for l in range(pts.size):
        rhs += w_val[l] * load[l][:, None]
        if lifted:
            rhs -= w_der[l] * h2_grad[l][:, None]

    return TransverseSystem(matrix, rhs.ravel(), cb, yh)


def snapshot_solve(system):
    """Solve the coupled system: the parameter's snapshots as the rows of
    one (n_a, n_h + 1) array, row a the component P_a(y) of hat
    system.cb.active[a], nodal over yh with zero boundary entries.

    band_solve on the band storage system.matrix: O(n bw^2) time for
    n = n_a (n_h - 1) unknowns and bandwidth bw = 2 n_a - 1. A singular or
    non-finite solve raises RuntimeError.
    """
    cb = system.cb
    sol = band_solve(system.matrix, system.rhs,
                     f"transverse system for mu={cb.mu}")
    out = np.zeros((cb.active.size, system.yh.n + 1))
    out[:, 1:-1] = sol.reshape(system.yh.n - 1, cb.active.size).T
    return out


class TransverseSolver:
    """Snapshot factory with caching, keyed by the sorted parameter tuple.

    solve(mu) returns snapshot_solve's (n_a, n_h + 1) array for mu, one row
    per active hat in cb.active order. Every call for the same parameters
    returns the same cached array, so it is read-only. Snapshot solves are
    independent and could run in parallel; the row order (sorted parameter
    tuple, then active hat) is what makes runs deterministic.
    """

    def __init__(self, pd, lift, th, yh):
        self.pd = pd
        self.lift = lift
        self.th = th
        self.yh = yh
        self._cache = {}

    def solve(self, mu):
        key = tuple(np.sort(np.asarray(mu, dtype=float)))
        if key not in self._cache:
            cb = build_coupled_basis(self.th, key)
            rule = augment_quadrature(self.th, key)
            system = assemble_transverse(self.pd, self.lift, cb, rule, self.yh)
            snaps = snapshot_solve(system)
            snaps.setflags(write=False)
            self._cache[key] = snaps
        return self._cache[key]
