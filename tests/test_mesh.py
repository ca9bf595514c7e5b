"""Partition and tensor-grid indexing."""

import numpy as np
import pytest

from conftest import build_grid
from skewlift.mesh import Partition1D, build_uniform_partition


def test_partition_basic_geometry():
    part = build_uniform_partition(0.0, 2.0, 8)
    assert part.n == 8
    assert part.h == pytest.approx(0.25)
    assert part.length == pytest.approx(2.0)
    np.testing.assert_allclose(part.nodes, np.linspace(0.0, 2.0, 9))
    np.testing.assert_allclose(part.midpoints(), np.linspace(0.125, 1.875, 8))


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition1D(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        Partition1D(0.0, 1.0, 0)


def test_element_of_is_right_continuous():
    part = build_uniform_partition(0.0, 1.0, 4)
    # interior nodes belong to the element on their right
    assert part.element_of(0.25) == 1
    assert part.element_of(0.5) == 2
    # the last element is closed at b
    assert part.element_of(1.0) == 3
    assert part.element_of(0.0) == 0
    np.testing.assert_array_equal(
        part.element_of([0.1, 0.26, 0.99]), [0, 1, 3]
    )


def test_element_of_snaps_to_a_node_within_round_off():
    # one rule for where a point lies: a point within round-off below an
    # interior node is on the node, so it is in the element on its right,
    # as the transverse geometry and the training sampler decide
    part = build_uniform_partition(0.0, 1.0, 4)
    x = 0.5 - 1e-14 * part.h
    assert x < 0.5
    assert part.element_of(x) == 2
    assert part.position(x) == 2.0
    np.testing.assert_array_equal(
        part.element_of([0.25 - 1e-14 * part.h, 0.75 + 1e-14 * part.h]), [1, 3])
    # beyond the 1e-10 snap a point stays inside its element
    assert part.element_of(0.5 - 1e-9 * part.h) == 1


def test_tensor_grid_node_numbering_is_x_major():
    grid = build_grid((0.0, 2.0), (0.0, 1.0), 4, 3)
    assert grid.shape == (5, 4)
    assert grid.node_count == 20
    # node id ix * (ny + 1) + iy is the C-order position in grid.shape
    X, Y = grid.node_coords()
    assert (X.ravel()[9], Y.ravel()[9]) == (grid.tx.nodes[2], grid.ty.nodes[1])
    assert (X.ravel()[3], Y.ravel()[3]) == (grid.tx.nodes[0], grid.ty.nodes[3])


def test_node_coords_match_ids():
    grid = build_grid((0.0, 1.0), (0.0, 1.0), 3, 2)
    X, Y = grid.node_coords()
    assert X.shape == grid.shape
    assert X[2, 1] == pytest.approx(grid.tx.nodes[2])
    assert Y[2, 1] == pytest.approx(grid.ty.nodes[1])
