"""Helpers shared by the oracle tests."""

import numpy as np
import pytest

from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.training import _orthonormalize_stack


# grids with one interior column (nx = 2) or row (ny = 2), and non-square
STENCIL_GRIDS = [(16, 10), (2, 7), (9, 2), (5, 13)]


def build_grid(omega_x, omega_y, nx, ny):
    """Uniform nx x ny TensorGrid of omega_x x omega_y."""
    return TensorGrid(build_uniform_partition(*omega_x, nx),
                      build_uniform_partition(*omega_y, ny))


def same_bits(a, b):
    """Whether two arrays have the same shape and the same bytes (a
    bitwise comparison: -0.0 differs from 0.0)."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def orthonormalize(base_int, extra_int, M_y):
    """[base_int, E]: the columns of extra_int M-orthonormalized against
    the M-orthonormal base_int and each other (M the interior transverse
    mass, M_y its (diag, off) pair from problem.p1_interior), near-dependent
    ones dropped, by training._orthonormalize_stack on a stack of one
    sample."""
    E, counts = _orthonormalize_stack(base_int, extra_int.T[None], M_y)
    return np.hstack([base_int, E[0, :counts[0]].T])


def _dense_from_band(band):
    """Dense matrix of a transverse.block_band storage, read entry by entry
    from LAPACK's padded band layout: shape (n, 3 bw + 1), entry (r, c) at
    band[c, 2 bw + r - c]. Every other slot (the bw rows of LU fill and the
    corners outside the matrix) must hold zero."""
    n, width = band.shape
    bw = (width - 1) // 3
    assert width == 3 * bw + 1
    dense = np.zeros((n, n))
    rest = band.copy()
    for c in range(n):
        for r in range(max(0, c - bw), min(n, c + bw + 1)):
            dense[r, c] = band[c, 2 * bw + r - c]
            rest[c, 2 * bw + r - c] = 0.0
    assert not np.any(rest), "band storage holds entries outside the band"
    return dense


@pytest.fixture
def dense_from_band():
    return _dense_from_band
