"""Reduced tensor-product systems p_m(x,y) = sum_k pbar_k(x) phi_k(y).

The reduced system is the Galerkin projection of the assembled reference
operators onto span{xi_i(x) phi_k(y)}, taken x-block by x-block:
assemble_reduced(ops, space) takes the grid's TensorOperators and a
ReductionSpace on its transverse partition. In the x-major interior
ordering the reference A is block-tridiagonal in x with (n_h - 1) x
(n_h - 1) blocks A_ij; with Phi the modes' interior nodal
values, the reduced matrix has the m x m blocks Phi^T A_ij Phi (x-node
major, mode minor) and the right-hand side Phi^T rhs_i. It is
block-tridiagonal too; ReducedSystem keeps only its blocks, solved as a
band matrix (transverse.block_band) of bandwidth 2m - 1.
The blocks are read in place: A_int is stored as its nine diagonals (a
scipy DIA array, see problem.py), and A_ij is three of them sliced at block
column j. XBlocks.products forms the products A_ij Phi from those slices one
slab of x-block rows at a time and contracts each with Phi^T as soon as it
exists, so the reduced assembly never holds the (3 (NH - 1) - 2, n_h - 1, m)
stack of A_ij Phi. The training indicator (training.BaseMoments) is the same
projection on its coarse x-grid; it goes through the same loop without the
contraction, as it reuses A_ij Phi, and writes into a work array it owns.

Because fine and reduced quadratures coincide by construction, discrete
Galerkin orthogonality holds exactly: modes spanning the full transverse
space reproduce the reference solution, and with b = 0 the error estimator
equals the V-norm error to round-off. Assembled once at the largest m,
smaller systems are the leading m x m sub-blocks (ReducedSystem.truncate),
so m-sweeps cost one projection plus banded solves.
"""

from dataclasses import dataclass

import numpy as np

from .transverse import band_solve, block_band, block_pairs


# Block rows per slab of XBlocks.products: the slab's products and their
# work array stay a few MB at 800 x 400 (1.6 MB each at m = 8)
_SLAB_ROWS = 64


class XBlocks:
    """x-block view of assembled tensor operators.

    The nonzero blocks A_ij of the interior A, |i - j| <= 1, are the pairs
    (rows[p], cols[p]) = transverse.block_pairs(n_x), the block order of
    transverse.block_band. rhs holds the interior right-hand side as
    (n_x, n_y) x-block rows; diagonals[dx n_y + dy][j] is block column j of
    the coupling (dx, dy) = (j - i, dy), a view of A's DIA data.
    """

    def __init__(self, ops):
        self.ops = ops
        self.n_x = ops.grid.nx - 1
        self.n_y = ops.grid.ny - 1
        self.rhs = ops.rhs_int.reshape(self.n_x, self.n_y)
        self.rows, self.cols = block_pairs(self.n_x)
        A = ops.A_int
        self.diagonals = dict(zip(A.offsets.tolist(),
                                  A.data.reshape(-1, self.n_x, self.n_y)))

    def products(self, X, left=None, out=None):
        """A_ij X for every stored pair, shape (n_pairs, n_y, k), or with
        left (n_y, l) given its projection left^T A_ij X, (n_pairs, l, k);
        written into out if given.

        One loop over slabs of _SLAB_ROWS block rows and, in each, over the
        block offsets dx = j - i, whose pairs are consecutive: A_ij X is X
        times block column j of the diagonals dy = -1, 0, 1, each shifted by
        dy and added in that order to zeros, every row summed as in the CSR
        product A @ X. With left, each slab's products are contracted with
        left^T at once (per block the product of left.T @ products(X)), so
        only slab-sized arrays are formed.
        """
        n_x, n_y, k = self.n_x, self.n_y, X.shape[1]
        if out is None:
            out = np.empty((self.rows.size,
                            n_y if left is None else left.shape[1], k))
        dys = (-1, 0, 1) if n_y > 1 else (0,)  # ny = 2 keeps dy = 0 only
        tmp = np.empty((min(n_x, _SLAB_ROWS), n_y, k))
        AX = None if left is None else np.empty_like(tmp)
        for r0 in range(0, n_x, _SLAB_ROWS):
            in_slab = (self.rows >= r0) & (self.rows < r0 + _SLAB_ROWS)
            for dx in (-1, 0, 1):
                p = np.flatnonzero(in_slab & (self.cols - self.rows == dx))
                if not p.size:
                    continue
                p0, p1, j0 = p[0], p[-1] + 1, self.cols[p[0]]
                ax = out[p0:p1] if left is None else AX[:p.size]
                ax[...] = 0.0
                for dy in dys:
                    src = slice(max(dy, 0), n_y + min(dy, 0))  # X rows
                    dst = slice(max(-dy, 0), n_y - max(dy, 0))
                    diag = self.diagonals[dx * n_y + dy][j0:j0 + p.size]
                    # a broadcast multiply, 2-3x faster as einsum
                    np.einsum("py,yk->pyk", diag[:, src], X[src],
                              out=tmp[:p.size, dst])
                    ax[:, dst] += tmp[:p.size, dst]
                if left is not None:
                    out[p0:p1] = left.T @ ax
        return out


@dataclass
class ReducedSystem:
    """Block-tridiagonal reduced system, x-node major / mode minor.

    blocks: (3 (NH - 1) - 2, m, m) projected x-blocks Phi^T A_ij Phi in
    XBlocks order; rhs: (NH - 1, m) projected right-hand side; ops: the
    operators projected.
    """

    blocks: np.ndarray
    rhs: np.ndarray
    space: object
    ops: object

    def truncate(self, m):
        """The system of the leading m modes: leading m x m sub-blocks."""
        return ReducedSystem(self.blocks[:, :m, :m], self.rhs[:, :m],
                             self.space.truncate(m), self.ops)


def assemble_reduced(ops, space):
    """Project the operators ops onto span{xi_i(x) phi_k(y)} of space.

    The modes live on the operators' transverse partition (space.part equals
    ops.grid.ty); the reduced system and its solution refer to ops.
    """
    if space.part != ops.grid.ty:
        raise ValueError("space.part is not the operators' y-partition")
    xb = XBlocks(ops)
    phi = space.modes[1:-1, :]
    return ReducedSystem(xb.products(phi, phi), xb.rhs @ phi, space, ops)


@dataclass
class ReducedSolution:
    """Coefficient functions pbar_k on the dominant partition of ops, the
    operators whose reduced system was solved."""

    space: object
    coeffs: np.ndarray  # (m, NH-1), interior x-nodes
    ops: object

    @property
    def m(self):
        return self.space.m

    def interior_vector(self):
        """Nodal values of p_m on the interior tensor-grid dofs."""
        phi_int = self.space.modes[1:-1, :]
        # (NH-1, m) @ (m, ny-1) -> x-major, y-minor flattening
        return (self.coeffs.T @ phi_int.T).ravel()


def solve_reduced(system):
    """Banded LU solve of system.blocks; a residual (one block matvec over
    the blocks) above 1e-9 max(|rhs|, 1) raises RuntimeError. The band is
    built for this one solve and factored in place (61 MB at 800 x 400,
    m = 40)."""
    m = system.space.m
    if m == 0:
        raise ValueError("cannot solve with an empty reduction space")
    rhs = system.rhs
    sol = band_solve(block_band(system.blocks), rhs.ravel(),
                     f"reduced system at m={m}",
                     overwrite_band=True).reshape(rhs.shape)
    rows, cols = block_pairs(rhs.shape[0])
    product = np.zeros_like(sol)
    np.add.at(product, rows, np.einsum("pts,ps->pt", system.blocks, sol[cols]))
    res = np.linalg.norm(product - rhs)
    if res > 1e-9 * max(np.linalg.norm(rhs), 1.0):
        raise RuntimeError(f"reduced solve residual {res:.3e} too large")
    coeffs = sol.T
    return ReducedSolution(system.space, coeffs, system.ops)
