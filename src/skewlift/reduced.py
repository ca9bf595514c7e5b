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
XBlocks.products forms the products A_ij Phi one slab of x-block rows at a
time and contracts each with Phi^T as soon as it exists, so the reduced
assembly never holds the (3 (NH - 1) - 2, n_h - 1, m) stack of A_ij Phi.
The training indicator (training.BaseMoments) is the same projection on
its coarse x-grid; it goes through the same loop without the contraction,
as it reuses A_ij Phi.

Because fine and reduced quadratures coincide by construction, discrete
Galerkin orthogonality holds exactly: modes spanning the full transverse
space reproduce the reference solution, and with b = 0 the error estimator
equals the V-norm error to round-off. Assembled once at the largest m,
smaller systems are the leading m x m sub-blocks (ReducedSystem.truncate),
so m-sweeps cost one projection plus banded solves.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .transverse import band_solve, block_band, block_pairs


# Block rows per slab of XBlocks.products: the slab's zero-padded X and
# sparse product stay a few MB at 800 x 400 (3.3 MB at m = 8)
_SLAB_ROWS = 64


class XBlocks:
    """x-block view of assembled tensor operators.

    The nonzero blocks A_ij of the interior A, |i - j| <= 1, are the pairs
    (rows[p], cols[p]) = transverse.block_pairs(n_x), the block order of
    transverse.block_band. rhs holds the interior right-hand side as
    (n_x, n_y) x-block rows.
    """

    def __init__(self, ops):
        self.ops = ops
        self.n_x = ops.grid.nx - 1
        self.n_y = ops.grid.ny - 1
        self.rhs = ops.rhs_int.reshape(self.n_x, self.n_y)
        self.rows, self.cols = block_pairs(self.n_x)

    def products(self, X, left=None):
        """A_ij X for every stored pair, shape (n_pairs, n_y, k), or with
        left (n_y, l) given its projection left^T A_ij X, (n_pairs, l, k).

        One loop over slabs of _SLAB_ROWS block rows: the slab's rows of A
        (a CSR matrix on A's data, its block columns renumbered) take
        X in the block columns j = c (mod 3) for c = 0, 1, 2; a block row
        meets exactly one of each, so three sparse products give every
        A_ij X of the slab without summing two blocks, each row summed as
        in A @ X. With left, each product is contracted with left^T block
        by block as soon as it exists (the same product per block as
        left.T @ products(X)), so only slab-sized arrays are formed.
        """
        A, n_x, n_y, k = self.ops.A_int, self.n_x, self.n_y, X.shape[1]
        out = np.empty((self.rows.size,
                        n_y if left is None else left.shape[1], k))
        for r0 in range(0, n_x, _SLAB_ROWS):
            r1 = min(r0 + _SLAB_ROWS, n_x)
            w0, w1 = max(r0 - 1, 0), min(r1 + 1, n_x)  # block columns met
            p0, p1 = A.indptr[r0 * n_y], A.indptr[r1 * n_y]
            slab = sp.csr_matrix(
                (A.data[p0:p1], A.indices[p0:p1] - w0 * n_y,
                 A.indptr[r0 * n_y:r1 * n_y + 1] - p0),
                shape=((r1 - r0) * n_y, (w1 - w0) * n_y))
            in_slab = (self.rows >= r0) & (self.rows < r1)
            for c in range(3):
                Xc = np.zeros((slab.shape[1], k))
                Xc.reshape(w1 - w0, n_y, k)[(c - w0) % 3::3] = X
                AX = (slab @ Xc).reshape(r1 - r0, n_y, k)
                if left is not None:
                    AX = left.T @ AX
                hit = in_slab & (self.cols % 3 == c)
                out[hit] = AX[self.rows[hit] - r0]
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

    def pbar(self, k):
        """k-th coefficient function (0-based), nodal on the x-partition."""
        out = np.zeros(self.ops.grid.nx + 1)
        out[1:-1] = self.coeffs[k]
        return out


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
