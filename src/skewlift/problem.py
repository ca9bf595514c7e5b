"""Reference advection-diffusion problem on a tensor-product Q1 grid.

Weak form on V = H^1_0(Omega):

    a(p, v) = int k grad(p).grad(v) + int (b.grad(p)) v = f(v) - a(h, v)

where h is a Dirichlet lifting carrying the boundary data (and, when it comes
from an interface band, the sharp transition). The full field is p~ = p + h.
Four right-hand-side treatments of the lifting are supported:

* ``weak_lifting`` -- subtract a(h, .) assembled from the partial derivatives
  of h (no second derivatives needed).
* ``delta_h``      -- fold the strong-form source int k*Lap(h) v into F and
  drop a(h, .); requires ``lift.laplacian``; equivalent to weak_lifting up to
  quadrature error with constant k and b = 0: O(h^2) for smooth h, and
  O(h^1.5) for the sharp cosine band of the built-in cases (the case-1
  references differ by 7.7e-4 relative in the V-norm at 160x80, 2.7e-4 at
  320x160).
* ``riesz_recon``  -- replace the lifting functional by its L2 Riesz
  representative R, (R, v)_L2 = a(h, v), and subtract int R v; no second
  derivatives of h required.
* ``plain_gD``     -- ignore the interface geometry: lift only the boundary
  data through an affine blend of the two vertical-side traces.

The system matrix is identical in all modes; only the right-hand side differs.
The mode is decided once, here: TensorOperators builds the mode's reference
right-hand side and fixes its transverse snapshot problem
(ops.snapshot_problem, see TensorOperators), so no other layer branches on
the mode. One TensorOperators object is the handle of a grid:
solve_reference(ops), reduced.assemble_reduced(ops, space),
estimator.error_report(ops, ...) and training.adaptive_train_extension(ops,
...) read the problem, lifting, grid and mode from it.
The object is the interior system: the homogenized solution vanishes on the
boundary, so every matrix and the right-hand side are restricted to the
interior nodes once, at assembly, and no full-grid array is kept. It holds
one sparse factor, G_int's, built on first use. The Riesz mass factor and,
under advection, A_int's reference factor are local to the function that
solves with them. If b = 0 at every quadrature point and div_b is None,
G_int is A_int, and the reference solve, estimator and indicator share one
factor.
Matrices use the 2x2 Gauss rule on every cell. The right-hand side of
weak_lifting, riesz_recon and plain_gD (F and every lifting term) uses 2x2
Gauss on 4x4 sub-cells of the cells where the lifting's gradient is nonzero
at a corner or Gauss point (the interface band; for plain_gD the band of the
lifting handed in), and the 2x2 rule elsewhere: F carries the lifting's
Laplacian, which jumps at the band edges, and on cut cells the plain 2x2 rule
misses the cancellation of f(v) against a(h, v) by O(h^1.5). delta_h folds
that cancellation into one smooth integrand and keeps the 2x2 rule.

The V-inner product is the symmetric part of a: (u, v)_V = int k grad(u).grad(v)
- 1/2 int div(b) u v, so the coercivity constant is 1 by construction (the
skew advection part drops out of a(v, v)).
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import GAUSS_NODES, TensorGrid

MODES = ("weak_lifting", "delta_h", "riesz_recon", "plain_gD")


@dataclass(frozen=True)
class ProblemData:
    """Coefficients and data of the advection-diffusion problem.

    All callbacks must be numpy-vectorized: they receive coordinate arrays of
    a common shape and return an array broadcastable to it (scalar returns are
    broadcast automatically).

    Parameters
    ----------
    k, b1, b2 : callable(x, y)
        Diffusivity (must be positive on the domain) and advective field.
    F : callable(x, y)
        Volume source of the full problem.
    dirichlet : callable(x, y)
        Boundary data g_D; only its restriction to the boundary is used.
    omega_x, omega_y : (float, float)
        Domain extents.
    div_b : callable(x, y), optional
        Divergence of b, used by the -1/2 div(b) u v term of the V-inner
        product. None means divergence-free (all built-in cases).
    """

    k: Callable
    b1: Callable
    b2: Callable
    F: Callable
    dirichlet: Callable
    omega_x: tuple
    omega_y: tuple
    div_b: Optional[Callable] = None


@dataclass(frozen=True)
class LiftingFunction:
    """Dirichlet lifting h with first derivatives and optional Laplacian."""

    value: Callable
    dx: Callable
    dy: Callable
    laplacian: Optional[Callable] = None

    @classmethod
    def zero(cls):
        """The zero lifting: one shared instance, so an assembler can skip
        its terms by identity (lift is LiftingFunction.zero())."""
        return _ZERO_LIFTING


_zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
_ZERO_LIFTING = LiftingFunction(value=_zero, dx=_zero, dy=_zero,
                                laplacian=_zero)


@dataclass
class FullSolution:
    """Homogenized nodal solution p on the full grid (boundary entries 0)."""

    grid: TensorGrid
    coeffs: np.ndarray  # (nx+1, ny+1)
    mode: str

    def total_field(self, lift):
        """Nodal values of p~ = p + h."""
        X, Y = self.grid.node_coords()
        return self.coeffs + lift.value(X, Y)

    def interior_vector(self):
        return self.coeffs.ravel()[self.grid.interior_ids()]


class GridField:
    """Bilinear interpolant of nodal values on a TensorGrid (vectorized)."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"nodal array shape {values.shape} != {grid.shape}")
        self.grid = grid
        self.values = values

    def __call__(self, x, y):
        g = self.grid
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        cx = g.tx.element_of(x)
        cy = g.ty.element_of(y)
        sx = (x - g.tx.nodes[cx]) / g.tx.h
        sy = (y - g.ty.nodes[cy]) / g.ty.h
        v = self.values
        return (
            v[cx, cy] * (1 - sx) * (1 - sy)
            + v[cx + 1, cy] * sx * (1 - sy)
            + v[cx + 1, cy + 1] * sx * sy
            + v[cx, cy + 1] * (1 - sx) * sy
        )


_BAND_SUB = 4  # sub-cells per direction of the lifting-band rule


def _shape_tables(sub=1):
    """Q1 shape values/derivatives at the 2x2 Gauss points of each of the
    sub x sub sub-cells of the unit square. Node order (0,0),(1,0),(1,1),(0,1);
    qpoint order u-major. Returns (u, v, N, dNu, dNv), N etc. of shape (q, 4)."""
    u1 = ((np.arange(sub)[:, None] + GAUSS_NODES[None, :]) / sub).ravel()
    u = np.repeat(u1, u1.size)
    v = np.tile(u1, u1.size)
    N = np.stack([(1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v], axis=1)
    dNu = np.stack([-(1 - v), (1 - v), v, -v], axis=1)
    dNv = np.stack([-(1 - u), -u, u, (1 - u)], axis=1)
    return u, v, N, dNu, dNv


class _Quadrature:
    """Tensor 2x2 Gauss points on sub x sub sub-cells of the selected cells
    (default: every cell, one sub-cell), plus cell->global node indexing.

    Cell ids are x-major (id = cx * ny_cells + cy); the values of a callback
    come back with shape (n_selected_cells, 4 * sub**2).
    """

    def __init__(self, grid, cells=None, sub=1):
        tx, ty = grid.tx, grid.ty
        hx, hy = tx.h, ty.h
        cells = np.arange(tx.n * ty.n) if cells is None else np.asarray(cells)
        u, v, N, dNu, dNv = _shape_tables(sub)
        cx, cy = np.divmod(cells, ty.n)
        self.X = tx.nodes[cx][:, None] + u[None, :] * hx
        self.Y = ty.nodes[cy][:, None] + v[None, :] * hy
        self.w = hx * hy / (4.0 * sub * sub)
        self.N = N
        self.dNx = dNu / hx
        self.dNy = dNv / hy
        n_y = ty.n + 1
        base = cx * n_y + cy
        self.cell_nodes = np.stack(
            [base, base + n_y, base + n_y + 1, base + 1], axis=-1)
        self.grid = grid

    def evaluate(self, f):
        vals = np.asarray(f(self.X, self.Y), dtype=float)
        return np.broadcast_to(vals, self.X.shape)


def _rhs_rules(quad, lift):
    """Quadrature of the lifting right-hand side on quad's grid.

    Cells on which the lifting's gradient is nonzero at a corner or at a 2x2
    Gauss point (the interface band) get 2x2 Gauss on each of their
    _BAND_SUB x _BAND_SUB sub-cells, all other cells the 2x2 rule. F carries
    the lifting's Laplacian, which jumps at the band edges; the 2x2 rule on a
    cut cell does not reproduce the cancellation of f(v) against a(h, v) and
    leaves an O(h^1.5) band-shaped field in the homogenized solution.
    """
    grid = quad.grid
    X, Y = grid.node_coords()
    nonzero = lambda g: np.broadcast_to(np.asarray(g) != 0.0, X.shape)
    at_nodes = (nonzero(lift.dx(X, Y)) | nonzero(lift.dy(X, Y))).ravel()
    at_gauss = (quad.evaluate(lift.dx) != 0.0) | (quad.evaluate(lift.dy) != 0.0)
    band = at_nodes[quad.cell_nodes].any(axis=1) | at_gauss.any(axis=1)
    rules = [_Quadrature(grid, np.nonzero(~band)[0]),
             _Quadrature(grid, np.nonzero(band)[0], _BAND_SUB)]
    return [q for q in rules if q.cell_nodes.size]


def _assemble_matrix(quad, diff=None, b1=None, b2=None, react=None):
    """Assemble int diff grad(u).grad(v) + (b1 u_x + b2 u_y) v + react u v
    over all nodes of the grid (trial index s, test index t)."""
    ncells = quad.cell_nodes.shape[0]
    loc = np.zeros((ncells, 4, 4))
    w = quad.w
    if diff is not None:
        c = quad.evaluate(diff) * w
        loc += np.einsum("cq,qt,qs->cts", c, quad.dNx, quad.dNx)
        loc += np.einsum("cq,qt,qs->cts", c, quad.dNy, quad.dNy)
    if b1 is not None:
        c = quad.evaluate(b1) * w
        loc += np.einsum("cq,qt,qs->cts", c, quad.N, quad.dNx)
    if b2 is not None:
        c = quad.evaluate(b2) * w
        loc += np.einsum("cq,qt,qs->cts", c, quad.N, quad.dNy)
    if react is not None:
        c = quad.evaluate(react) * w
        loc += np.einsum("cq,qt,qs->cts", c, quad.N, quad.N)
    rows = np.repeat(quad.cell_nodes, 4, axis=1).ravel()
    cols = np.tile(quad.cell_nodes, (1, 4)).ravel()
    n = quad.grid.node_count
    return sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _assemble_load(quads, f):
    """Load vector int f v of a callback f over the cells of every rule."""
    out = np.zeros(quads[0].grid.node_count)
    for quad in quads:
        loc = quad.w * quad.evaluate(f) @ quad.N  # sum_q w f[q] N[q, t]
        np.add.at(out, quad.cell_nodes.ravel(), loc.ravel())
    return out


def _lifting_vector(quads, pd, lift):
    """Vector of a(h, v_t) for every nodal hat v_t."""
    out = np.zeros(quads[0].grid.node_count)
    for quad in quads:
        kv = quad.evaluate(pd.k)
        hx = quad.evaluate(lift.dx)
        hy = quad.evaluate(lift.dy)
        b1v = quad.evaluate(pd.b1)
        b2v = quad.evaluate(pd.b2)
        # sum_q w (k h_x dN_t/dx + k h_y dN_t/dy + (b.grad h) N_t)
        loc = quad.w * ((kv * hx) @ quad.dNx + (kv * hy) @ quad.dNy
                        + (b1v * hx + b2v * hy) @ quad.N)
        np.add.at(out, quad.cell_nodes.ravel(), loc.ravel())
    return out


def _factor(mat):
    """SuperLU factor, minimum-degree ordered on A + A^T (the Q1 pattern
    is structurally symmetric)."""
    return spla.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _lu_solve(lu, rhs, name):
    """lu.solve(rhs); a non-finite result raises RuntimeError."""
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise RuntimeError(f"interior {name} solve produced non-finite "
                           f"values (singular matrix?)")
    return x


class TensorOperators:
    """Interior system of one (problem, lifting, grid, mode) combination.

    The unknowns are the (nx-1)(ny-1) interior nodes in x-major order.
    A_int is the bilinear form a, G_int the V-Gram matrix (the symmetric
    part of a; A_int itself when b = 0 and div_b is None), M_int the mass
    matrix and rhs_int the mode-consistent right-hand side. G_lu, G_int's
    factor, is built on first use and is the only factor held.
    lift is the lifting handed in; riesz_field is the reconstructed nodal
    field under riesz_recon, else None. snapshot_problem is the mode's
    transverse snapshot problem as a (ProblemData, LiftingFunction) pair,
    solved as source . xi psi - a(h, xi psi): (pd, lift) for weak_lifting,
    (pd, affine boundary blend) for plain_gD, and pd with F + k Lap(h)
    (delta_h) or F - R (riesz_recon, R the bilinear interpolant of
    riesz_field) plus the zero lifting.
    """

    def __init__(self, pd, lift, grid, mode="weak_lifting"):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        gx, gy = grid.tx, grid.ty
        if not (
            np.isclose(gx.a, pd.omega_x[0]) and np.isclose(gx.b, pd.omega_x[1])
            and np.isclose(gy.a, pd.omega_y[0]) and np.isclose(gy.b, pd.omega_y[1])
        ):
            raise ValueError("grid extents do not match the problem domain")
        self.pd = pd
        self.grid = grid
        self.mode = mode
        quad = _Quadrature(grid)
        kv = quad.evaluate(pd.k)
        if kv.min() <= 0.0:
            raise ValueError(f"diffusivity not positive (min {kv.min():g})")
        interior = grid.interior_ids()

        def assemble(**terms):
            mat = _assemble_matrix(quad, **terms)
            return mat[np.ix_(interior, interior)].tocsr()

        self.A_int = assemble(diff=pd.k, b1=pd.b1, b2=pd.b2)
        self.G_int = self.A_int  # b = 0, div_b None: a is symmetric
        if pd.div_b is not None:
            react = lambda x, y: -0.5 * pd.div_b(x, y)
            self.G_int = assemble(diff=pd.k, react=react)
        elif quad.evaluate(pd.b1).any() or quad.evaluate(pd.b2).any():
            self.G_int = assemble(diff=pd.k)
        self.M_int = assemble(react=lambda x, y: 1.0)
        self.riesz_field = None
        self.lift = lift

        if mode == "delta_h":
            if lift.laplacian is None:
                raise ValueError("delta_h mode needs lift.laplacian")
            # F + k Lap(h) is smooth (the band terms cancel pointwise), so
            # the 2x2 rule suffices
            folded = lambda x, y: pd.k(x, y) * lift.laplacian(x, y)
            self.rhs_int = (_assemble_load([quad], pd.F)
                            + _assemble_load([quad], folded))[interior]
            self.snapshot_problem = (
                replace(pd, F=lambda x, y: pd.F(x, y) + folded(x, y)),
                LiftingFunction.zero())
            return
        # F jumps where the interface lifting's Laplacian does, so the band
        # of the lifting handed in (not the plain_gD blend) selects the rule
        rule = _rhs_rules(quad, lift)
        load_f = _assemble_load(rule, pd.F)[interior]
        if mode == "riesz_recon":
            # M's factor lives for this one solve only
            rec = np.zeros(grid.node_count)
            rec[interior] = _lu_solve(
                _factor(self.M_int), _lifting_vector(rule, pd, lift)[interior],
                "M")
            self.riesz_field = rec.reshape(grid.shape)
            self.rhs_int = load_f - self.M_int @ rec[interior]
            field = GridField(grid, self.riesz_field)
            self.snapshot_problem = (
                replace(pd, F=lambda x, y: pd.F(x, y) - field(x, y)),
                LiftingFunction.zero())
            return
        if mode == "plain_gD":
            lift = affine_boundary_blend(lift, pd.omega_x)
        self.rhs_int = load_f - _lifting_vector(rule, pd, lift)[interior]
        self.snapshot_problem = (pd, lift)

    @cached_property
    def G_lu(self):
        """G_int's factor, built on first use; also the reference solve's
        factor when G_int is A_int."""
        return _factor(self.G_int)

    def residual_norm(self, u_int):
        """V-dual norm sqrt(r . G_int^-1 r) of the residual r = rhs - A u.

        u_int is one interior state, or a (k, n) stack of k states (one per
        row), which gives the k norms from one k-column Gram solve."""
        U = np.atleast_2d(u_int)
        R = np.ascontiguousarray(self.rhs_int - (self.A_int @ U.T).T)
        Z = np.ascontiguousarray(_lu_solve(self.G_lu, R.T, "G").T)
        norms = np.array([math.sqrt(max(r @ z, 0.0)) for r, z in zip(R, Z)])
        return norms if np.ndim(u_int) == 2 else float(norms[0])

    def v_norm(self, u_int):
        return float(np.sqrt(max(u_int @ (self.G_int @ u_int), 0.0)))

    def l2_norm(self, u_int):
        return float(np.sqrt(max(u_int @ (self.M_int @ u_int), 0.0)))


def reference_operators(pd, lift, grid, mode="weak_lifting"):
    """TensorOperators(pd, lift, grid, mode).

    A function, not the bare constructor, so that building a grid's
    operators is one named call: the benchmark times it as the span
    problem.reference_operators, and tests/test_api.py checks that a study
    makes two such calls (the fine reference grid and the coarse indicator
    grid).
    """
    return TensorOperators(pd, lift, grid, mode)


def solve_reference(ops):
    """Solve the interior reference system A_int x = rhs_int of ops.

    Returns the FullSolution on ops.grid in ops.mode (zero on the boundary).
    When G_int is A_int the solve uses ops.G_lu, which the estimator and the
    indicator reuse; otherwise A_int's factor is local and freed on return.
    """
    lu = ops.G_lu if ops.G_int is ops.A_int else _factor(ops.A_int)
    x = _lu_solve(lu, ops.rhs_int, "A")
    res = np.linalg.norm(ops.A_int @ x - ops.rhs_int)
    scale = max(np.linalg.norm(ops.rhs_int), 1.0)
    if res > 1e-10 * scale:
        raise RuntimeError(f"reference solve residual {res:.3e} exceeds tolerance")
    grid = ops.grid
    coeffs = np.zeros(grid.node_count)
    coeffs[grid.interior_ids()] = x
    return FullSolution(grid, coeffs.reshape(grid.shape), ops.mode)


def affine_boundary_blend(lift, omega_x):
    """Lifting that carries only the boundary data: the affine-in-x blend of
    the two vertical-side traces, g(x, y) = (1-s) h(x0, y) + s h(x1, y)."""
    x0, x1 = omega_x
    L = x1 - x0

    def value(x, y):
        s = (np.asarray(x) - x0) / L
        return (1 - s) * lift.value(x0, y) + s * lift.value(x1, y)

    def dx(x, y):
        out = (lift.value(x1, y) - lift.value(x0, y)) / L
        return np.broadcast_to(out, np.broadcast(x, y).shape)

    def dy(x, y):
        s = (np.asarray(x) - x0) / L
        return (1 - s) * lift.dy(x0, y) + s * lift.dy(x1, y)

    return LiftingFunction(value=value, dx=dx, dy=dy, laplacian=None)
