"""Uniform 1D partitions and tensor-product grids."""

from dataclasses import dataclass, field

import numpy as np

# two-point Gauss-Legendre nodes on the reference element [0, 1]
GAUSS_NODES = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
GAUSS_NODES.setflags(write=False)


@dataclass(frozen=True)
class Partition1D:
    """Uniform partition of [a, b] into n elements (n+1 nodes).

    position is the one place where a point's place on the partition is
    decided: every element, node and handover derived from a point (the
    bilinear interpolant, the transverse geometry, the training samples)
    reads it, so a point within round-off of a node lies on that node for
    each of them."""

    a: float
    b: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"empty interval [{self.a}, {self.b}]")
        if self.n < 1:
            raise ValueError(f"need at least one element, got n={self.n}")
        nodes = np.linspace(self.a, self.b, self.n + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self):
        return (self.b - self.a) / self.n

    @property
    def length(self):
        return self.b - self.a

    def position(self, x):
        """Positions r = (x - a)/h of the points x in element units, each
        snapped to the nearest integer when within 1e-10 max(1, |r|)."""
        r = (np.asarray(x, dtype=float) - self.a) / self.h
        node = np.round(r)
        return np.where(np.abs(r - node) <= 1e-10 * np.maximum(1.0, np.abs(r)),
                        node, r)

    def element_of(self, x):
        """Index of the element containing x by its position: a point on an
        interior node belongs to the element on its right, and the last
        element is closed. Works on scalars and arrays."""
        return np.clip(np.floor(self.position(x)).astype(int), 0, self.n - 1)

    def midpoints(self):
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


def build_uniform_partition(a, b, n):
    """Uniform partition of [a, b] with n elements."""
    return Partition1D(float(a), float(b), int(n))


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of two 1D partitions; Q1 nodal layout is x-major
    (node id = ix * (ny + 1) + iy). A nodal array has shape `shape`, and its
    interior (the non-Dirichlet unknowns, x-major) is [1:-1, 1:-1]."""

    tx: Partition1D
    ty: Partition1D

    @property
    def nx(self):
        return self.tx.n

    @property
    def ny(self):
        return self.ty.n

    @property
    def node_count(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def shape(self):
        return (self.nx + 1, self.ny + 1)

    def node_coords(self):
        """Arrays X, Y of shape (nx+1, ny+1) with nodal coordinates."""
        return np.meshgrid(self.tx.nodes, self.ty.nodes, indexing="ij")

