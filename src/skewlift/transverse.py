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

Per quadrature point x_l the trial combination sum_i xi_i(x_l) P_i enters the
diffusion-in-y and b2-advection rows while the derivative-weighted combination
sum_i xi_i'(x_l) P_i enters the diffusion-in-x/b1 row; the right-hand side
collects F against xi_k(x_l) and the lifting terms k h_y against v' and
k h_x xi_k' + (b.grad h) xi_k against v. Every lifting mode reaches this
module as one (ProblemData, LiftingFunction) pair,
problem.TensorOperators.snapshot_problem: a mode that folds its lifting into
the source (delta_h, riesz_recon) hands over the zero lifting.

Unknown order and cost: with n_a active hats and n_i = n_h - 1 interior
y-nodes, unknown j * n_a + a is hat a at interior y-node j + 1 (y-node-major,
active-hat minor). Every x-point couples all active hats but only
neighbouring y-nodes, so the system is block-tridiagonal with n_a x n_a
blocks: a band matrix with lower and upper bandwidth bw = 2 n_a - 1, stored
in LAPACK band layout. Assembly takes O((qbar + qhat) n_a^2 n_h) time and the
banded LU O(n bw^2) for n = n_a n_i unknowns; no dense n x n matrix is formed.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .mesh import Partition1D

_GP = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


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

    def _neighbors(self, node_id):
        pos = np.searchsorted(self.kept_nodes, node_id)
        if pos >= self.kept_nodes.size or self.kept_nodes[pos] != node_id:
            raise KeyError(f"node {node_id} was deleted")
        kx = self.kept_x
        left = kx[pos - 1] if pos > 0 else None
        right = kx[pos + 1] if pos + 1 < kx.size else None
        return left, kx[pos], right

    def value(self, node_id, x):
        """Modified hat value at x (scalar)."""
        left, center, right = self._neighbors(node_id)
        if x == center:
            return 1.0
        if left is not None and left < x < center:
            return (x - left) / (center - left)
        if right is not None and center < x < right:
            return (right - x) / (right - center)
        return 0.0

    def deriv(self, node_id, x):
        """Modified hat derivative at x; right-continuous at breakpoints."""
        left, center, right = self._neighbors(node_id)
        if left is not None and left <= x < center:
            return 1.0 / (center - left)
        if right is not None and center <= x < right:
            return -1.0 / (right - center)
        return 0.0


def _rel(part, x):
    """(x - a)/H snapped to integers within 1e-10 relative tolerance."""
    r = (x - part.a) / part.h
    rr = round(r)
    return float(rr) if abs(r - rr) <= 1e-10 * max(1.0, abs(r)) else r


def _elements(th, mu):
    """Element of th holding each parameter, floor of the snapped _rel: a
    parameter within round-off of a node belongs to the element on its
    right."""
    els = np.floor([_rel(th, m) for m in mu]).astype(int)
    return np.clip(els, 0, th.n - 1)


def _sorted_mu(th, mu):
    mu = np.sort(np.asarray(mu, dtype=float))
    if mu.size < 1:
        raise ValueError("need at least one quadrature point")
    if mu[0] <= th.a or mu[-1] >= th.b:
        raise ValueError(f"parameters must lie strictly inside ({th.a}, {th.b})")
    return mu


def build_coupled_basis(th, mu):
    """Delete nodes between parameter points and collect the active hats."""
    mu = _sorted_mu(th, mu)
    els = _elements(th, mu)
    if np.any(np.diff(els) == 0):
        dup = mu[np.argmin(np.diff(els))]
        raise QuadPointsInSameElement(
            f"parameters {mu} share element {els} (near x={dup:g})"
        )
    keep = np.ones(th.n + 1, dtype=bool)
    for l in range(mu.size - 1):
        lo = int(np.ceil(_rel(th, mu[l])))
        hi = int(np.floor(_rel(th, mu[l + 1])))
        if hi - lo >= 2:
            keep[lo + 1:hi] = False
    kept = np.nonzero(keep)[0]
    kx = th.nodes[kept]
    active = set()
    for m in mu:
        pos = np.searchsorted(kx, m)
        if pos < kx.size and np.isclose(kx[pos], m, rtol=0, atol=1e-12 * max(1, abs(m))):
            cand = (kept[pos],)
        else:
            cand = (kept[pos - 1], kept[pos])
        for node in cand:
            if 0 < node < th.n:
                active.add(int(node))
    return CoupledBasis(th, tuple(mu), kept, np.array(sorted(active), dtype=int))


def augment_quadrature(th, mu):
    """Insert gap midpoints and compute tiling weights (see module docstring)."""
    mu = _sorted_mu(th, mu)
    inserted = []
    for l in range(mu.size - 1):
        if np.floor(_rel(th, mu[l + 1])) - np.floor(_rel(th, mu[l])) >= 2:
            inserted.append(0.5 * (mu[l] + mu[l + 1]))
    pts = np.sort(np.concatenate([mu, np.array(inserted)]))
    bounds = np.empty(pts.size + 1)
    bounds[0] = th.a
    bounds[-1] = th.b
    for l in range(pts.size - 1):
        p, q = pts[l], pts[l + 1]
        fp, fq = np.floor(_rel(th, p)), np.floor(_rel(th, q))
        if fp == fq:
            bounds[l + 1] = 0.5 * (p + q)
        else:
            edge_r = th.a + np.ceil(_rel(th, p)) * th.h
            edge_l = th.a + fq * th.h
            bounds[l + 1] = 0.5 * (edge_r + edge_l)
    weights = np.diff(bounds)
    if np.any(weights <= 0):
        raise RuntimeError(f"non-positive quadrature weight for mu={mu}")
    return QuadratureRule(pts, weights, qbar=mu.size, qhat=len(inserted))


# ---------------------------------------------------------------------------
# 1D P1 assembly helpers (coefficient values given at the 2 Gauss points of
# every element, shape (..., n_elements, 2); leading axes are batched)

_VAL = np.array([[1.0 - g, g] for g in _GP])  # (q, local) shape values


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
    lower along the last axis (length 3 n_i - 2 for n_i interior nodes)."""
    lower, diag, upper = diags
    return np.concatenate([diag[..., 1:-1], upper[..., 1:-1],
                           lower[..., 1:-1]], axis=-1)


@lru_cache(maxsize=32)
def _band_index(n_a, n_i):
    """Positions in LAPACK band storage (bandwidth 2 n_a - 1) of the entries
    of the n_a x n_a blocks stacked as in _interior_stack: diagonal blocks
    (j, j), then upper (j, j + 1), then lower (j + 1, j)."""
    bw = 2 * n_a - 1
    j = np.arange(n_i)
    col_node = np.concatenate([j, j[1:], j[:-1]])
    shift = np.repeat([0, -n_a, n_a], [n_i, n_i - 1, n_i - 1])
    t = np.arange(n_a)[:, None]
    s = np.arange(n_a)[None, :]
    band_row = bw + shift[:, None, None] + t - s
    band_col = col_node[:, None, None] * n_a + s
    return band_row, band_col


def block_band(blocks):
    """LAPACK band storage of a block-tridiagonal matrix.

    blocks has shape (3 n - 2, w, w): the n diagonal blocks (j, j), then the
    n - 1 upper blocks (j, j + 1), then the n - 1 lower blocks (j + 1, j)
    (the _interior_stack order); entry [t, s] of a block couples its row t
    to its column s. The n w x n w matrix has lower and upper bandwidth
    bw = 2 w - 1 and its entry (r, c) sits at band[bw + r - c, c].
    """
    n_b, w, _ = blocks.shape
    n = (n_b + 2) // 3
    bw = 2 * w - 1
    band = np.zeros((2 * bw + 1, n * w))
    band[_band_index(w, n)] = blocks
    return band


def band_matrix(band):
    """The band storage as a scipy.sparse DIA matrix (offsets bw, ..., -bw)."""
    bw, n = band.shape[0] // 2, band.shape[1]
    return sp.dia_matrix((band, np.arange(bw, -bw - 1, -1)), shape=(n, n))


def band_solve(band, rhs, what):
    """LAPACK banded LU solve, O(n bw^2) for n unknowns. A singular or
    non-finite solve raises RuntimeError naming the system (what)."""
    bw = band.shape[0] // 2
    try:
        sol = scipy.linalg.solve_banded((bw, bw), band, rhs,
                                        check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"{what} is singular") from exc
    if not np.all(np.isfinite(sol)):
        raise RuntimeError(f"{what}: solve diverged")
    return sol


def _y_gauss(part):
    return (part.nodes[:-1, None] + _GP[None, :] * part.h)  # (ne, 2)


@dataclass
class TransverseSystem:
    """Coupled transverse system of one parameter vector.

    Unknowns are y-node-major, active-hat minor: row j * n_a + a belongs to
    hat cb.active[a] at interior y-node j + 1. matrix is a scipy.sparse DIA
    matrix with offsets bw, ..., -bw, bw = 2 n_a - 1, so matrix.data is
    the LAPACK band storage of the block-tridiagonal system.
    """

    matrix: sp.dia_matrix
    rhs: np.ndarray
    cb: CoupledBasis
    yh: Partition1D


def assemble_transverse(pd, lift, cb, rule, yh):
    """Assemble the coupled transverse system for one parameter vector.

    (pd, lift) is a snapshot problem (TensorOperators.snapshot_problem): the
    right-hand side is F . xi psi - a(h, xi psi), with the k h_y, k h_x and
    b.grad(h) terms of the lifting h.

    Unknowns are y-node-major, active-hat minor (see TransverseSystem). Every
    callback is evaluated once, at all x-points and y Gauss points together;
    the n_a x n_a blocks of the three y-diagonals are accumulated over the
    x-points and scattered into band storage, in O((qbar + qhat) n_a^2 n_h)
    time and O(n_a^2 n_h) memory.
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
    Xi = np.array([[cb.value(a, x) for a in act] for x in pts])
    dXi = np.array([[cb.deriv(a, x) for a in act] for x in pts])
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
    matrix = band_matrix(block_band(blocks))

    hx, hy = at_points(lift.dx), at_points(lift.dy)
    load = (_p1_load(yh, at_points(pd.F))
            - _p1_load(yh, kv * hy, against_deriv=True)
            - _p1_load(yh, b1v * hx + b2v * hy))
    h2_grad = _p1_load(yh, kv * hx)
    w_val = wts[:, None] * Xi
    w_der = wts[:, None] * dXi
    rhs = np.zeros((n_i, n_a))
    for l in range(pts.size):
        rhs += w_val[l] * load[l][:, None]
        rhs -= w_der[l] * h2_grad[l][:, None]

    return TransverseSystem(matrix, rhs.ravel(), cb, yh)


@dataclass
class TransverseSnapshot:
    """One transverse solution component P_i(y) at parameter mu."""

    mu: tuple
    component: int  # original node id of the active hat
    values: np.ndarray  # nodal over yh, boundary entries zero


def snapshot_solve(system):
    """Solve the coupled system; one snapshot per active hat, in the order
    of system.cb.active.

    LAPACK banded LU on the band storage of system.matrix: O(n bw^2) time
    for n = n_a (n_h - 1) unknowns and bandwidth bw = 2 n_a - 1. A singular
    or non-finite solve raises RuntimeError.
    """
    cb = system.cb
    sol = band_solve(system.matrix.data, system.rhs,
                     f"transverse system for mu={cb.mu}")
    sol = sol.reshape(system.yh.n - 1, cb.active.size)
    out = []
    for a, node in enumerate(cb.active):
        vals = np.zeros(system.yh.n + 1)
        vals[1:-1] = sol[:, a]
        out.append(TransverseSnapshot(cb.mu, int(node), vals))
    return out


class TransverseSolver:
    """Snapshot factory with caching, keyed by the exact parameter tuple.

    Snapshot solves are independent and could run in parallel; the output
    ordering (sorted parameter tuple, then active component id) is what makes
    runs deterministic, so the cache preserves it.
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
            self._cache[key] = snapshot_solve(system)
        return self._cache[key]
