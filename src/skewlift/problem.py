"""Reference advection-diffusion problem on a tensor-product Q1 grid.

Weak form on V = H^1_0(Omega):

    a(p, v) = int k grad(p).grad(v) + int (b.grad(p)) v = f(v) - a(h, v)

where h is a Dirichlet lifting carrying the boundary data (and, when it comes
from an interface band, the sharp transition). The full field is p~ = p + h.
Three right-hand-side treatments of the lifting are supported:

* ``weak_lifting`` -- subtract a(h, .) assembled from the partial derivatives
  of h (no second derivatives needed).
* ``delta_h``      -- fold the strong-form source int k*Lap(h) v into F and
  drop a(h, .); requires ``lift.laplacian``; equivalent to weak_lifting up to
  quadrature error with constant k and b = 0: O(h^2) for smooth h, and
  O(h^1.5) for the sharp cosine band of the built-in cases (the case-1
  references differ by 7.7e-4 relative in the V-norm at 160x80, 2.7e-4 at
  320x160).
* ``plain_gD``     -- ignore the interface geometry: lift only the boundary
  data through an affine blend of the two vertical-side traces.

The system matrix is identical in all modes; only the right-hand side differs.
The mode is decided once, here: TensorOperators builds the mode's reference
right-hand side, and every mode's transverse snapshots take their source from
it (TensorOperators.snapshot_source, the right-hand side's L2
representative), so no other layer branches on the mode or sees the lifting.
One TensorOperators object is the handle of a grid:
solve_reference(ops), reduced.assemble_reduced(ops, space),
estimator.error_report(ops, ...) and training.adaptive_train_extension(ops,
...) read the problem, lifting, grid and mode from it.
The object is the interior system: the homogenized solution vanishes on the
boundary, so every matrix and the right-hand side are restricted to the
interior nodes once, at assembly, and no full-grid array is kept. It holds
no sparse factor. Every V-Gram solve (TensorOperators.gram_solve: the
estimator, the training indicator and, when b = 0 at every quadrature point
so that G_int is A_int, the reference solve) is preconditioned CG on G_int.
The preconditioner is the exact inverse of the k = 1 Gram Kx (x) My +
Mx (x) Ky of the grid by fast diagonalisation (Lynch, Rice & Thomas 1964),
built on first use: one generalized eigenproblem of size min(nx, ny) - 1
and one stacked tridiagonal factorisation. For k = 1 (every built-in case) it is
G_int up to round-off, and one PCG iteration leaves the solution as accurate
as the sparse direct solve it replaces; for a variable k the count grows
like sqrt(max k / min k), independent of the grid.
SuperLU serves only the advective reference: under advection, A_int is
factored in solve_reference for its one solve and freed on return, so a
b = 0 study of any mode makes no sparse factor.
Matrices use the 2x2 Gauss rule on every cell, and every rule keeps its
tensor structure: the points of a cell are n x-abscissae times n y-abscissae,
and a callback receives them as two broadcasting arrays of shapes
(cells, n, 1) and (cells, 1, n), so a factor of x or y alone is evaluated n,
not n^2, times per cell. Each interior matrix is built directly as its
9-point stencil, one slab of whole x-columns of cells (about 2^14 cells) at a
time: the slab's 4 x 4 cell matrices (one product of the coefficient values
with a table of shape-function products per term) are added by 16 slice-adds
into the 9 stencil offsets of the slab's node columns, each row's four cells
in cell-id order. The rows a slab completes are copied straight into the
matrix's diagonals, and the node column on the slab's border, whose rows have
only the cells left of it, carries its partial sums into the next slab.
A_int and G_int are scipy DIA arrays of the stencil's nine diagonals,
at offsets dx (ny - 1) + dy in ascending order: one (9, n) data array each,
couplings to boundary nodes stored as zeros (ny = 2 keeps dy = 0 only; ny = 3
merges the two pairs of diagonals that coincide). Their products sum each row
in ascending column order, as CSR's do, and their x-blocks A_ij are slices of
the diagonals (reduced.XBlocks). No coefficient, cell-matrix or offset array
of the whole grid is formed. The Q1 mass matrix is not assembled: on the
tensor grid it is Mx (x) My, the Kronecker product of the two interior 1D P1
masses, and the L2 norm (TensorOperators.l2_norm) and the snapshot source's
mass solve (_mass_solve) apply it from their tridiagonals. The right-hand
side of weak_lifting and plain_gD (F and every lifting term) uses 2x2
Gauss on 4x4 sub-cells of the cells where the lifting's gradient is nonzero
at a corner or Gauss point (the interface band; for plain_gD the band of the
lifting handed in), and the 2x2 rule elsewhere: F carries the lifting's Laplacian, which jumps at the
band edges, and on cut cells the plain 2x2 rule misses the cancellation of
f(v) against a(h, v) by O(h^1.5). delta_h folds that cancellation into one
smooth integrand and keeps the 2x2 rule. The lifting term a(h, v) is
integrated over the band alone, where the lifting's gradient has its support,
except for plain_gD's blend, which is integrated over every cell. A rule is
its cell ids; loads and the band test build it block by block, 2^14 points at
a time (_blocks), so the temporaries stay in cache, and each block's cell
loads are added into the nodal vector as soon as they exist (np.add.at, in
rule, then cell order), so no point or load array of a whole rule is formed.
The Gram solves (PCG) and the estimator update their work vectors in place: a
solve holds five stacks of its right-hand sides at most.

The V-inner product is the symmetric part of a for a divergence-free b (every
built-in case): (u, v)_V = int k grad(u).grad(v), so the coercivity constant
is 1 by construction (the skew advection part drops out of a(v, v)).
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.linalg  # after scipy.sparse: ~10 ms faster to import

from .mesh import GAUSS_NODES
from .transverse import _p1_diagonals

MODES = ("weak_lifting", "delta_h", "plain_gD")
# PCG stops at sqrt(r . P^-1 r) <= tol sqrt(b . P^-1 b), the relative
# V-norm error when P is close to G: about the round-off of a sparse direct
# solve of the 800x400 Gram (V-norm error 2.4e-12), which one iteration
# reaches at k = 1
_PCG_TOL = 1e-11
_PCG_MAXITER = 1000


@dataclass(frozen=True)
class ProblemData:
    """Coefficients and data of the advection-diffusion problem.

    All callbacks must be numpy-vectorized: they receive coordinate arrays
    that broadcast against each other and return an array broadcastable to
    their shape (scalar returns are broadcast automatically). The assembly
    passes each rule's points as x of shape (cells, n, 1) and y of shape
    (cells, 1, n); other callers pass arrays of one common shape.

    Parameters
    ----------
    k, b1, b2 : callable(x, y)
        Diffusivity (must be positive on the domain) and advective field.
    F : callable(x, y)
        Volume source of the full problem.
    omega_x, omega_y : (float, float)
        Domain extents.

    The Dirichlet data is no field here: it is the trace on the boundary of
    the lifting h (LiftingFunction) handed in with the problem, which the
    interface lifting is chosen to carry. b must be divergence-free: the
    V-inner product is the diffusion part of a alone.
    """

    k: Callable
    b1: Callable
    b2: Callable
    F: Callable
    omega_x: tuple
    omega_y: tuple


@dataclass(frozen=True)
class LiftingFunction:
    """Dirichlet lifting h with first derivatives and optional Laplacian."""

    value: Callable
    dx: Callable
    dy: Callable
    laplacian: Optional[Callable] = None

    @classmethod
    def zero(cls):
        """The zero lifting (one shared instance): its terms are zero."""
        return _ZERO_LIFTING


_zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
_ZERO_LIFTING = LiftingFunction(value=_zero, dx=_zero, dy=_zero,
                                laplacian=_zero)


@dataclass
class FullSolution:
    """Homogenized nodal solution p on the full grid of ops, the operators
    it was solved with (boundary entries 0)."""

    ops: object
    coeffs: np.ndarray  # (nx+1, ny+1)

    def interior_vector(self):
        """A copy (ravel() can be a view) of the x-major interior values."""
        return self.coeffs[1:-1, 1:-1].flatten()

    @cached_property
    def norms(self):
        """(V-norm, L2-norm) of the interior vector under ops, computed on
        first use: an m-sweep's error reports all divide by them."""
        u = self.interior_vector()
        return self.ops.v_norm(u), self.ops.l2_norm(u)


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
# points per block of a load's rule (_blocks), cells per slab of the
# stencil assembly (_column_slabs)
_BLOCK_POINTS = 1 << 14
# corner of the cell's local node t: (0,0), (1,0), (1,1), (0,1)
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _shape_tables(sub):
    """1D points and Q1 shape values/derivatives at the 2x2 Gauss points of
    each of the sub x sub sub-cells of the unit square. The points are the
    tensor product of u1 with itself; node order as _CORNERS, qpoint order
    u-major (q = iu * u1.size + iv). Returns (u1, N, dNu, dNv), N etc. of
    shape (q, 4), read-only: _SHAPE_TABLES shares them with every rule."""
    u1 = ((np.arange(sub)[:, None] + GAUSS_NODES[None, :]) / sub).ravel()
    u = np.repeat(u1, u1.size)
    v = np.tile(u1, u1.size)
    N = np.stack([(1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v], axis=1)
    dNu = np.stack([-(1 - v), (1 - v), v, -v], axis=1)
    dNv = np.stack([-(1 - u), -u, u, (1 - u)], axis=1)
    tables = (u1, N, dNu, dNv)
    for a in tables:
        a.flags.writeable = False
    return tables


# the tables of the two rules, built once: a grid's rules are built block by
# block and slab by slab, hundreds of them at 800 x 400
_SHAPE_TABLES = {sub: _shape_tables(sub) for sub in (1, _BAND_SUB)}


class _Quadrature:
    """Tensor 2x2 Gauss points on sub x sub sub-cells of the selected cells
    (default: every cell, one sub-cell), plus cell->global node indexing.

    Cell ids are x-major (id = cx * ny_cells + cy). The points of a cell are
    the tensor product of n = 2 * sub abscissae in x and n in y, kept as the
    1D sets x of shape (cells, n, 1) and y of shape (cells, 1, n): a callback
    receives these two broadcasting arrays, so a factor of x alone or y alone
    is evaluated n, not n^2, times per cell. evaluate returns its values with
    shape (n_selected_cells, n^2), u-major (q = iu * n + iv).
    """

    def __init__(self, grid, cells=None, sub=1):
        tx, ty = grid.tx, grid.ty
        cells = np.arange(tx.n * ty.n) if cells is None else np.asarray(cells)
        u1, self.N, dNu, dNv = _SHAPE_TABLES[sub]
        self._cells = cells
        cx, cy = np.divmod(cells, ty.n)
        self.x = (tx.nodes[cx][:, None] + u1[None, :] * tx.h)[:, :, None]
        self.y = (ty.nodes[cy][:, None] + u1[None, :] * ty.h)[:, None, :]
        self.w = tx.h * ty.h / (4.0 * sub * sub)
        self.dNx = dNu / tx.h
        self.dNy = dNv / ty.h
        self.grid = grid

    @cached_property
    def cell_nodes(self):
        """(cells, 4) global node ids of each cell's local nodes (_CORNERS
        order), formed on first use: the stencil slabs never use them."""
        n_y = self.grid.ny + 1
        cx, cy = np.divmod(self._cells, self.grid.ny)
        base = cx * n_y + cy
        return np.stack([base, base + n_y, base + n_y + 1, base + 1], axis=-1)

    def evaluate(self, f):
        vals = np.asarray(f(self.x, self.y), dtype=float)
        shape = np.broadcast_shapes(self.x.shape, self.y.shape)
        return np.broadcast_to(vals, shape).reshape(shape[0], -1)


def _rhs_rules(grid, lift):
    """Quadrature of the lifting right-hand side on grid as two rules, the
    plain cells, then the interface band, each a (cells, sub) pair of cell
    ids and sub-cells per direction, which _load evaluates block by block
    (_blocks).

    Cells on which the lifting's gradient is nonzero at a corner or at a 2x2
    Gauss point (the interface band) get 2x2 Gauss on each of their
    _BAND_SUB x _BAND_SUB sub-cells, all other cells the 2x2 rule. F carries
    the lifting's Laplacian, which jumps at the band edges; the 2x2 rule on a
    cut cell does not reproduce the cancellation of f(v) against a(h, v) and
    leaves an O(h^1.5) band-shaped field in the homogenized solution. The
    Gauss-point test runs block by block. The lifting's gradient is exactly
    0 at the points of a plain cell, so a(h, v) has its support in the band.
    """
    x, y = grid.tx.nodes[:, None], grid.ty.nodes[None, :]
    nonzero = lambda g: np.broadcast_to(np.asarray(g) != 0.0, grid.shape)
    at_nodes = (nonzero(lift.dx(x, y)) | nonzero(lift.dy(x, y))).ravel()
    band = np.concatenate([
        at_nodes[q.cell_nodes].any(axis=1)
        | (q.evaluate(lift.dx) != 0.0).any(axis=1)
        | (q.evaluate(lift.dy) != 0.0).any(axis=1)
        for q in _blocks(grid, np.arange(grid.nx * grid.ny))])
    return (np.nonzero(~band)[0], 1), (np.nonzero(band)[0], _BAND_SUB)


def _blocks(grid, cells, sub=1):
    """The rule of _Quadrature(grid, cells, sub) as rules over consecutive
    cells, _BLOCK_POINTS points each (the last fewer), built one at a time:
    a load evaluates its integrand block by block, so the temporaries stay
    in cache and no point array of the whole rule exists."""
    step = _BLOCK_POINTS // (2 * sub) ** 2
    for lo in range(0, len(cells), step):
        yield _Quadrature(grid, cells[lo:lo + step], sub)


def _column_slabs(grid):
    """Rules (_Quadrature) over slabs of whole x-columns of cells, about
    _BLOCK_POINTS cells each, in x order, with each slab's first column.

    A slab's (16, cells) cell matrices take 2 MB, against 41 MB for every
    cell of 800 x 400, and a grid of up to _BLOCK_POINTS cells (160 x 80) is
    one slab: with slabs of 2^14 points, the C allocator returned the
    training indicator's per-chunk temporaries to the system after every
    chunk of a 160 x 80 study, and the page faults made it up to a third
    slower."""
    ny = grid.ny
    step = max(1, _BLOCK_POINTS // ny)
    for lo in range(0, grid.nx, step):
        hi = min(lo + step, grid.nx)
        yield lo, _Quadrature(grid, np.arange(lo * ny, hi * ny))


def _stencil_matrix(grid, cell_matrices):
    """Interior matrix of the cell matrices of every cell of grid, as a
    scipy DIA array of its nine diagonals.

    cell_matrices(quad) returns the (16, cells) cell matrices of the cells
    of the rule quad (row 4 t + s couples test node t with trial node s).
    They are formed slab by slab (_column_slabs), and each slab is added by
    one slice-add per (t, s) into the 9 stencil offsets of the node columns
    it reaches. A row's four cells lie in two neighbouring columns, so the
    slabs in x order and t = 2, 1, 3, 0 within a slab sum them in cell id
    order, as one slab of every cell would. A slab completes the rows of
    its node columns but the last, whose partial sums carry over to the
    next slab; the completed rows go into the diagonals (one slice copy per
    offset) as soon as the slab is added, so only one slab's offsets exist
    at a time.

    The coupling of interior node (ix, iy), row ix n_y + iy (n_y = ny - 1),
    to (ix + dx, iy + dy) lies on the diagonal of offset dx n_y + dy. The
    (3, 3, nx - 1, n_y) data [dx + 1, dy + 1] is column-aligned, as DIA
    stores it, and a coupling to a boundary node is stored as a zero."""
    nx, ny = grid.nx, grid.ny
    n_x, n_y = nx - 1, ny - 1
    D = np.zeros((3, 3, n_x, n_y))
    carry = 0.0  # offsets of node column lo from the slabs before
    for lo, quad in _column_slabs(grid):
        L = cell_matrices(quad).reshape(4, 4, -1, ny)
        hi = lo + L.shape[2]
        # offsets of the interior rows of node columns lo .. hi
        S = np.zeros((3, 3, hi - lo + 1, n_y))
        S[:, :, 0] = carry
        # a row node is corner t of cell (ix - at, iy - bt); t = 2, 1, 3, 0
        # visits its four cells in id order
        for t in (2, 1, 3, 0):
            at, bt = _CORNERS[t]
            for s, (a_s, b_s) in enumerate(_CORNERS):
                S[a_s - at + 1, b_s - bt + 1, at:at + hi - lo] += L[
                    t, s, :, 1 - bt:ny - bt]
        carry = S[:, :, -1].copy()
        # the rows of node columns max(lo, 1) .. hi - 1, interior block rows
        # r0 .. r1 - 1, are complete: row (jx - dx, jy - dy) goes to column
        # (jx, jy)
        r0, r1 = max(lo, 1) - 1, hi - 1
        for dx in (-1, 0, 1):
            j0, j1 = max(r0 + dx, 0), min(r1 + dx, n_x)
            for dy in (-1, 0, 1) if j0 < j1 else ():
                D[dx + 1, dy + 1, j0:j1, max(dy, 0):n_y + min(dy, 0)] = S[
                    dx + 1, dy + 1, j0 - dx + 1 - lo:j1 - dx + 1 - lo,
                    max(-dy, 0):n_y - max(dy, 0)]
    e = min(n_y - 1, 1)  # ny = 2: every y-coupling reaches the boundary
    offsets, slot = np.unique((np.arange(-1, 2)[:, None] * n_y
                               + np.arange(-e, e + 1)).ravel(),
                              return_inverse=True)
    data = D[:, 1 - e:2 + e].reshape(slot.size, -1)  # a view for e = 1
    if offsets.size < slot.size:  # ny = 3: (dx, 1) and (dx + 1, -1) coincide
        data = np.stack([data[slot == k].sum(axis=0)
                         for k in range(offsets.size)])
    return sp.dia_array((data, offsets), shape=(n_x * n_y,) * 2)


def _cell_matrices(quad, diff, b1=None, b2=None):
    """(16, cells) cell matrices of int diff grad(u).grad(v)
    + (b1 u_x + b2 u_y) v, from the coefficients' values at quad's points
    (cells, q); row 4 t + s is test node t, trial node s.
    Each term is one (16, q) @ (q, cells) product with its weighted table
    of shape-function products at the points."""
    w, N, dx, dy = quad.w, quad.N, quad.dNx, quad.dNy
    table = lambda a, b: w * (a[:, :, None] * b[:, None, :]).reshape(-1, 16).T
    terms = ((diff, table(dx, dx) + table(dy, dy)), (b1, table(N, dx)),
             (b2, table(N, dy)))
    mats = (tab @ values.T for values, tab in terms if values is not None)
    out = next(mats)
    for mat in mats:  # summed in place
        out += mat
    return out


def _interior_matrices(grid, pd):
    """(G_int, A_int) of grid on the 2x2 rule of every cell, each one slab
    loop (_stencil_matrix) that evaluates the coefficients slab by slab.
    G_int is A_int when b = 0 at every point (a is then symmetric); b is
    checked slab by slab first. The mass is not assembled (l2_norm)."""
    def diffusivity(quad):
        kv = quad.evaluate(pd.k)
        if kv.min() <= 0.0:
            raise ValueError(f"diffusivity not positive (min {kv.min():g})")
        return kv

    G = A = _stencil_matrix(grid, lambda quad: _cell_matrices(
        quad, diffusivity(quad)))
    if any(quad.evaluate(pd.b1).any() or quad.evaluate(pd.b2).any()
           for _, quad in _column_slabs(grid)):
        A = _stencil_matrix(grid, lambda quad: _cell_matrices(
            quad, quad.evaluate(pd.k), b1=quad.evaluate(pd.b1),
            b2=quad.evaluate(pd.b2)))
    return G, A


def _load(grid, rules, local):
    """Nodal vector of the per-cell loads local(quad) (cells, 4) of every
    (cells, sub) rule, block by block (_blocks). Each block is added into
    the vector as soon as it is evaluated, node by node in rule, then cell
    order (zero without rules)."""
    out = np.zeros(grid.node_count)
    for cells, sub in rules:
        for quad in _blocks(grid, cells, sub):
            np.add.at(out, quad.cell_nodes.ravel(), local(quad).ravel())
    return out


def _assemble_load(grid, rules, f):
    """Load vector int f v of a callback f over the cells of every rule."""
    # sum_q w f[q] N[q, t]
    return _load(grid, rules, lambda quad: quad.w * quad.evaluate(f) @ quad.N)


def _lifting_vector(grid, rules, pd, lift):
    """Vector of a(h, v_t) for every nodal hat v_t, over the cells of every
    rule."""
    def local(quad):
        kv = quad.evaluate(pd.k)
        hx = quad.evaluate(lift.dx)
        hy = quad.evaluate(lift.dy)
        b1v = quad.evaluate(pd.b1)
        b2v = quad.evaluate(pd.b2)
        # sum_q w (k h_x dN_t/dx + k h_y dN_t/dy + (b.grad h) N_t)
        return quad.w * ((kv * hx) @ quad.dNx + (kv * hy) @ quad.dNy
                         + (b1v * hx + b2v * hy) @ quad.N)
    return _load(grid, rules, local)


def p1_interior(part, kind):
    """(diag, upper) of the interior block of the 1D P1 matrix of kind
    ("stiff" or "mass", coefficient 1) on part (transverse._p1_diagonals):
    n - 1 and n - 2 entries; the matrix is symmetric, so upper is also its
    lower diagonal."""
    _, diag, upper = _p1_diagonals(part, np.ones((part.n, 2)), kind)
    return diag[1:-1], upper[1:-1]


def _mass_solve(grid, rhs):
    """(Mx (x) My)^-1 rhs for one x-major interior vector rhs, as the
    (nx - 1, ny - 1) array of nodal values: one LAPACK ptsv on the interior
    1D P1 mass per direction: the Q1 mass of the tensor grid is Mx (x) My.
    A direction with one interior node is a scalar divide (ptsv rejects its
    empty off-diagonal)."""
    U = rhs.reshape(grid.nx - 1, grid.ny - 1)
    for part in (grid.tx, grid.ty):  # solve along axis 0, then swap axes
        d, e = p1_interior(part, "mass")
        if d.size == 1:
            U = U / d[0]
        else:
            *_, U, info = scipy.linalg.lapack.dptsv(d, e, U)
            if info != 0:
                raise RuntimeError(f"mass solve failed (ptsv info {info})")
        U = U.T
    return U


class _LaplaceGramInverse:
    """Exact inverse of the k = 1 interior Q1 Gram Kx (x) My + Mx (x) Ky of
    a grid, by fast diagonalisation (Lynch, Rice & Thomas, Numer. Math. 6,
    1964) along the direction with fewer interior nodes, say y: with
    Ky V = My V diag(lam) and V^T My V = I, the solve splits into the ny - 1
    SPD tridiagonal systems (Kx + lam_j Mx) w_j = (R V)_j. They are factored
    once, as one LAPACK pttrf on their stack (zero coupling between
    consecutive systems), and applied by one pttrs between two products
    with V, O(nx ny min(nx, ny)) per right-hand side. The 1D matrices are
    transverse._p1_diagonals'.
    """

    def __init__(self, grid):
        self.shape = (grid.nx - 1, grid.ny - 1)
        self.along_x = grid.nx < grid.ny  # the eigen direction
        eig, tri = (grid.tx, grid.ty) if self.along_x else (grid.ty, grid.tx)
        ke, me = (np.diag(d) + np.diag(e, 1) + np.diag(e, -1) for d, e in
                  (p1_interior(eig, "stiff"), p1_interior(eig, "mass")))
        lam, self.V = scipy.linalg.eigh(ke, me)
        (kt, et), (mt, ft) = (p1_interior(tri, kind)
                              for kind in ("stiff", "mass"))
        off = np.zeros((lam.size, kt.size))
        off[:, :-1] = et + lam[:, None] * ft
        self.d, self.e, info = scipy.linalg.lapack.dpttrf(
            (kt + lam[:, None] * mt).ravel(), off.ravel()[:-1])
        if info != 0:
            raise RuntimeError(f"Gram preconditioner factorisation failed "
                               f"(pttrf info {info})")

    def __call__(self, R):
        """The solutions of the k = 1 Gram for the rows of R, (c, n), in a
        new array; R is not changed."""
        U = R.reshape(-1, *self.shape)
        if not self.along_x:
            U = U.transpose(0, 2, 1)  # eigen direction first
        Y = np.matmul(self.V.T, U)
        W, _ = scipy.linalg.lapack.dpttrs(self.d, self.e,
                                          Y.reshape(len(R), -1).T,
                                          overwrite_b=1)
        U = np.matmul(self.V, W.T.reshape(Y.shape))
        if self.along_x:
            return U.reshape(len(R), -1)
        # Y's values are spent: its memory takes the x-major solutions
        out = Y.reshape(len(R), -1)
        out.reshape(U.shape[0], *self.shape)[...] = U.transpose(0, 2, 1)
        return out


def _pcg(G, precond, B, name):
    """Solve G x = b for each row b of B by preconditioned CG, each row with
    its own step lengths, until sqrt(r . P^-1 r) <= _PCG_TOL sqrt(b . P^-1 b).

    A row that has converged leaves the iteration. Reaching _PCG_MAXITER
    iterations, a non-positive p . G p or a non-finite result raises
    RuntimeError naming the system, the iteration count and the residual.
    The work arrays are the iterates, the residuals and the directions of
    the rows, each updated in place, plus G p or the preconditioner's two
    arrays at a time: five stacks of B's size at most.
    """
    X = np.zeros_like(B)  # the iterates; a converged row stays as it is
    rows = np.arange(len(B))  # the rows of B still iterating
    r = B.copy()
    p = precond(r)
    rz = rz0 = np.einsum("ij,ij->i", r, p)
    it = 0
    while True:
        done = rz <= _PCG_TOL ** 2 * rz0
        if done.any():
            keep = ~done
            rows, r, p, rz, rz0 = (v[keep] for v in (rows, r, p, rz, rz0))
        if not rows.size:
            break
        if it == _PCG_MAXITER:
            raise RuntimeError(
                f"{name}: PCG did not converge in {it} iterations (relative "
                f"residual {math.sqrt(np.max(rz / rz0)):.3e} > {_PCG_TOL:g})")
        # contiguous rows: einsum then sums each row as it would alone, so
        # a row's iterates do not depend on the rows it is stacked with
        q = np.ascontiguousarray((G @ p.T).T)
        pq = np.einsum("ij,ij->i", p, q)
        if not np.all(pq > 0.0):
            raise RuntimeError(
                f"{name}: PCG found p.Gp = {np.min(pq):.3e} <= 0 in iteration "
                f"{it + 1} (matrix not positive definite?)")
        alpha = (rz / pq)[:, None]
        # r -= alpha q and x += alpha p, each product formed in q's memory
        q *= alpha
        r -= q
        np.multiply(alpha, p, out=q)
        if rows.size == len(X):
            X += q
        else:
            X[rows] += q
        del q  # freed before the preconditioner allocates
        z = precond(r)
        rz, rz_old = np.einsum("ij,ij->i", r, z), rz
        p *= (rz / rz_old)[:, None]
        p += z
        del z  # likewise freed before the next G p
        it += 1
    if not np.all(np.isfinite(X)):
        raise RuntimeError(f"{name}: PCG produced non-finite values after "
                           f"{it} iterations")
    return X


class TensorOperators:
    """Interior system of one (problem, lifting, grid, mode) combination.

    The unknowns are the (nx-1)(ny-1) interior nodes in x-major order.
    A_int is the bilinear form a, G_int the V-Gram matrix (the diffusion
    part of a; A_int itself when b = 0 at every quadrature point) and rhs_int
    the mode-consistent right-hand side. The mass matrix Mx (x) My is not
    assembled: l2_norm applies it from the interior 1D P1 mass tridiagonals.
    gram_solve solves with G_int by PCG, preconditioned by the k = 1 Gram
    inverse of the grid (_LaplaceGramInverse, built on first use; each grid,
    the coarse indicator grid too, has its own); the object makes no sparse
    factor. lift is the lifting handed in (the coarse indicator grid builds
    its operators from it). snapshot_source gives the one transverse
    snapshot source of every mode.
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
        self.G_int, self.A_int = _interior_matrices(grid, pd)
        interior = lambda v: v.reshape(grid.shape)[1:-1, 1:-1].ravel()
        self.lift = lift

        if mode == "delta_h":
            if lift.laplacian is None:
                raise ValueError("delta_h mode needs lift.laplacian")
            # F + k Lap(h) is smooth (the band terms cancel pointwise), so
            # the 2x2 rule suffices
            folded = lambda x, y: pd.k(x, y) * lift.laplacian(x, y)
            rule = [(np.arange(grid.nx * grid.ny), 1)]
            self.rhs_int = interior(_assemble_load(grid, rule, pd.F)
                                    + _assemble_load(grid, rule, folded))
            return
        # F jumps where the interface lifting's Laplacian does, so the band
        # of the lifting handed in (not the plain_gD blend) selects the rule
        plain, band = _rhs_rules(grid, lift)
        load_f = interior(_assemble_load(grid, [plain, band], pd.F))
        support = [band]  # a(h, .) of the lifting handed in
        if mode == "plain_gD":
            # the blend's gradient is nonzero off the band too
            lift = affine_boundary_blend(lift, pd.omega_x)
            support = [plain, band]
        self.rhs_int = load_f - interior(_lifting_vector(grid, support, pd,
                                                         lift))

    def snapshot_source(self):
        """The transverse snapshot source of the mode: the L2 representative
        f~ = (Mx (x) My)^-1 rhs_int (_mass_solve), zero on the boundary, as a
        GridField, built anew on each call. Every snapshot test function
        xi psi (a long x-hat times a y-hat) lies in V_h, so
        (f~, xi psi) = f(xi psi) - a(h, xi psi) of the reference right-hand
        side: the lifting's band has cancelled in f~ before the snapshot's
        x point rule samples it."""
        values = np.zeros(self.grid.shape)
        values[1:-1, 1:-1] = _mass_solve(self.grid, self.rhs_int)
        return GridField(self.grid, values)

    @cached_property
    def _gram_preconditioner(self):
        """The k = 1 Gram inverse of this grid, built on first use."""
        return _LaplaceGramInverse(self.grid)

    def gram_solve(self, rhs):
        """G_int^-1 rhs by PCG with the k = 1 Gram inverse as preconditioner.

        rhs is one interior vector or a (c, n) stack of c right-hand sides
        (one per row), solved together with per-row step lengths; a row's
        solution is the one it gets alone, bit for bit. For k = 1
        the preconditioner is G_int up to round-off and the solve takes one
        iteration up to 800x400 (two once the round-off of a grid exceeds
        _PCG_TOL); otherwise at most about
        sqrt(max k / min k) ln(2 / _PCG_TOL) / 2 iterations, the CG bound
        for a condition number of at most max k / min k. A failure to
        converge raises RuntimeError (see _pcg)."""
        B = np.atleast_2d(rhs)
        X = _pcg(self.G_int, self._gram_preconditioner, B,
                 "V-Gram system G_int")
        return X if np.ndim(rhs) == 2 else X[0]

    def residual_norm(self, u_int):
        """V-dual norm sqrt(r . G_int^-1 r) of the residual r = rhs - A u.

        u_int is one interior state, or a (k, n) stack of k states (one per
        row), which gives the k norms from one k-row Gram solve."""
        R = self.A_int @ np.atleast_2d(u_int).T
        np.subtract(self.rhs_int[:, None], R, out=R)
        R = np.ascontiguousarray(R.T)  # a copy for k > 1 only
        Z = self.gram_solve(R)
        norms = np.array([math.sqrt(max(r @ z, 0.0)) for r, z in zip(R, Z)])
        return norms if np.ndim(u_int) == 2 else float(norms[0])

    def v_norm(self, u_int):
        return float(np.sqrt(max(u_int @ (self.G_int @ u_int), 0.0)))

    def l2_norm(self, u_int):
        """sqrt(u . (Mx (x) My) u) of one interior vector, from the interior
        1D P1 mass tridiagonals (dx, ex) and (dy, ey): with U_i the rows of
        the (nx - 1, ny - 1) nodal array, the square is
        sum_i dx_i U_i . My U_i + 2 ex_i U_i . My U_i+1. Each U_i . My U_k is
        three weighted row-wise dot products of shifted slices (einsum), so
        no interior-sized array is formed."""
        grid = self.grid
        (dx, ex), (dy, ey) = (p1_interior(part, "mass")
                              for part in (grid.tx, grid.ty))
        U = u_int.reshape(grid.nx - 1, grid.ny - 1)

        def rows_my(a, b):  # a_i . My b_i for each row i
            dot = lambda p, q, w: np.einsum("ij,ij,j->i", p, q, w)
            return (dot(a, b, dy) + dot(a[:, :-1], b[:, 1:], ey)
                    + dot(a[:, 1:], b[:, :-1], ey))

        s = dx @ rows_my(U, U) + 2.0 * (ex @ rows_my(U[:-1], U[1:]))
        return float(np.sqrt(max(s, 0.0)))


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

    Returns the FullSolution of ops on ops.grid (zero on the boundary).
    When G_int is A_int (b = 0) the solve is ops.gram_solve, PCG with the
    k = 1 Gram inverse, whose preconditioner the estimator and the indicator
    reuse, plus one residual correction x += G_int^-1 (rhs - A x): the
    b = 0 identity Delta_m = ||e_m||_V holds only as well as the reference
    is solved (800x400, case 1: V-error 4.0e-12 of ||x||_V before the
    correction, 1.8e-14 after). Otherwise SuperLU, imported only here,
    factors A_int for this one solve (minimum degree on A + A^T: the Q1
    pattern is structurally symmetric). A non-finite solution raises RuntimeError (a NaN residual
    passes the residual test).
    """
    if ops.G_int is ops.A_int:
        x = ops.gram_solve(ops.rhs_int)
        x += ops.gram_solve(ops.rhs_int - ops.A_int @ x)
    else:
        import scipy.sparse.linalg as spla
        x = spla.splu(ops.A_int.tocsc(),
                      permc_spec="MMD_AT_PLUS_A").solve(ops.rhs_int)
        if not np.all(np.isfinite(x)):
            raise RuntimeError("interior A solve produced non-finite values")
    res = np.linalg.norm(ops.A_int @ x - ops.rhs_int)
    scale = max(np.linalg.norm(ops.rhs_int), 1.0)
    if res > 1e-10 * scale:
        raise RuntimeError(f"reference solve residual {res:.3e} exceeds tolerance")
    grid = ops.grid
    coeffs = np.zeros(grid.shape)
    coeffs[1:-1, 1:-1] = x.reshape(grid.nx - 1, grid.ny - 1)
    return FullSolution(ops, coeffs)


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
