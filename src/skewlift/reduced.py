"""Reduced tensor-product systems p_m(x,y) = sum_k pbar_k(x) phi_k(y).

The reduced system is the Galerkin projection of the assembled reference
operators onto span{xi_i(x) phi_k(y)}, taken x-block by x-block:
assemble_reduced(ops, space) takes the grid's TensorOperators and a
ReductionSpace on its transverse partition. In the x-major interior
ordering the reference A is block-tridiagonal in x with (n_h - 1) x
(n_h - 1) blocks A_ij; with Phi the modes' interior nodal
values, the reduced matrix has the m x m blocks Phi^T A_ij Phi (x-node
major, mode minor) and the right-hand side Phi^T rhs_i. It is
block-tridiagonal too and is solved as a band matrix of bandwidth 2m - 1.
The training indicator (training.BaseMoments) is the same projection on
its coarse x-grid.

Because fine and reduced quadratures coincide by construction, discrete
Galerkin orthogonality holds exactly: modes spanning the full transverse
space reproduce the reference solution, and with b = 0 the error estimator
equals the V-norm error to round-off. Assembled once at the largest m,
smaller systems are the leading m x m sub-blocks (ReducedSystem.truncate),
so m-sweeps cost one projection plus banded solves.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import TensorGrid
from .transverse import band_matrix, band_solve, block_band


class XBlocks:
    """x-block view of assembled tensor operators.

    The nonzero blocks A_ij of the interior A, |i - j| <= 1, are the pairs
    (rows[p], cols[p]), stacked diagonal (i, i), upper (i, i + 1), lower
    (i + 1, i): the block order of transverse.block_band. rhs holds the
    interior right-hand side as (n_x, n_y) x-block rows.
    """

    def __init__(self, ops):
        self.ops = ops
        self.n_x = ops.grid.nx - 1
        self.n_y = ops.grid.ny - 1
        self.rhs = ops.rhs_int.reshape(self.n_x, self.n_y)
        i = np.arange(self.n_x)
        self.rows = np.concatenate([i, i[:-1], i[1:]])
        self.cols = np.concatenate([i, i[1:], i[:-1]])

    def products(self, X):
        """A_ij X for every stored pair, shape (n_pairs, n_y, k).

        X goes into the block columns j = c (mod 3) for c = 0, 1, 2; a block
        row meets exactly one of each, so three sparse products give every
        A_ij X without summing two blocks.
        """
        k = X.shape[1]
        out = np.empty((self.rows.size, self.n_y, k))
        for c in range(3):
            Xc = np.zeros((self.n_x, self.n_y, k))
            Xc[c::3] = X
            AX = (self.ops.A_int @ Xc.reshape(self.n_x * self.n_y, k)
                  ).reshape(self.n_x, self.n_y, k)
            hit = self.cols % 3 == c
            out[hit] = AX[self.rows[hit]]
        return out


@dataclass
class ReducedSystem:
    """Block-tridiagonal reduced system, x-node major / mode minor.

    blocks: (3 (NH - 1) - 2, m, m) projected x-blocks Phi^T A_ij Phi in
    XBlocks order; rhs: (NH - 1, m) projected right-hand side.
    """

    blocks: np.ndarray
    rhs: np.ndarray
    space: object
    grid: TensorGrid
    mode: str

    @property
    def matrix(self):
        """The assembled (m (NH - 1))^2 matrix, in band storage (DIA)."""
        return band_matrix(block_band(self.blocks))

    def truncate(self, m):
        """The system of the leading m modes: leading m x m sub-blocks."""
        return ReducedSystem(self.blocks[:, :m, :m], self.rhs[:, :m],
                             self.space.truncate(m), self.grid, self.mode)


def assemble_reduced(ops, space):
    """Project the operators ops onto span{xi_i(x) phi_k(y)} of space.

    The modes live on the operators' transverse partition (space.part equals
    ops.grid.ty); the reduced system inherits ops' grid and mode.
    """
    if space.part != ops.grid.ty:
        raise ValueError("space.part is not the operators' y-partition")
    xb = XBlocks(ops)
    phi = space.modes[1:-1, :]
    return ReducedSystem(phi.T @ xb.products(phi), xb.rhs @ phi, space,
                         ops.grid, ops.mode)


@dataclass
class ReducedSolution:
    """Coefficient functions pbar_k on the dominant partition."""

    space: object
    coeffs: np.ndarray  # (m, NH-1), interior x-nodes
    grid: TensorGrid
    mode: str

    @property
    def m(self):
        return self.space.m

    def interior_vector(self):
        """Nodal values of p_m on the interior tensor-grid dofs."""
        phi_int = self.space.modes[1:-1, :]
        # (NH-1, m) @ (m, ny-1) -> x-major, y-minor flattening
        return (self.coeffs.T @ phi_int.T).ravel()

    def nodal_array(self):
        full = np.zeros(self.grid.shape)
        full[1:-1, 1:-1] = self.interior_vector().reshape(
            self.grid.nx - 1, self.grid.ny - 1)
        return full

    def total_field(self, lift):
        X, Y = self.grid.node_coords()
        return self.nodal_array() + lift.value(X, Y)

    def pbar(self, k):
        """k-th coefficient function (0-based), nodal on the x-partition."""
        out = np.zeros(self.grid.nx + 1)
        out[1:-1] = self.coeffs[k]
        return out


def solve_reduced(system):
    m = system.space.m
    if m == 0:
        raise ValueError("cannot solve with an empty reduction space")
    matrix = system.matrix
    rhs = system.rhs.ravel()
    sol = band_solve(matrix.data, rhs, f"reduced system at m={m}")
    res = np.linalg.norm(matrix @ sol - rhs)
    if res > 1e-9 * max(np.linalg.norm(rhs), 1.0):
        raise RuntimeError(f"reduced solve residual {res:.3e} too large")
    coeffs = sol.reshape(system.grid.nx - 1, m).T
    return ReducedSolution(system.space, coeffs, system.grid, system.mode)
