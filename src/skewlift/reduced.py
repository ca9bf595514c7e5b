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
The blocks are read in place: TensorOperators.block_products (problem.py,
the one module that knows A_int's diagonal layout) forms the products
A_ij Phi one slab of x-block rows at a time and contracts each with Phi^T as
soon as it exists, so the reduced assembly never holds the
(3 (NH - 1) - 2, n_h - 1, m) stack of A_ij Phi. The training indicator
(training.BaseMoments) is the same projection on its coarse x-grid; it goes
through the same loop without the contraction, as it reuses A_ij Phi, and
writes into a work array it owns.

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


@dataclass
class ReducedSystem:
    """Block-tridiagonal reduced system, x-node major / mode minor.

    blocks: (3 (NH - 1) - 2, m, m) projected x-blocks Phi^T A_ij Phi in
    transverse.block_pairs order; rhs: (NH - 1, m) projected right-hand
    side; ops: the operators projected.
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
    phi = space.modes[1:-1, :]
    return ReducedSystem(ops.block_products(phi, phi), ops.rhs_blocks @ phi,
                         space, ops)


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
