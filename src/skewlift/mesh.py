"""Uniform 1D partitions and tensor-product grids."""

from dataclasses import dataclass, field

import numpy as np

# two-point Gauss-Legendre nodes on the reference element [0, 1]
GAUSS_NODES = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
GAUSS_NODES.setflags(write=False)


@dataclass(frozen=True)
class Partition1D:
    """Uniform partition of [a, b] into n elements (n+1 nodes)."""

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

    def element_of(self, x):
        """Index of the element containing x (right-continuous; last element
        is closed). Works on scalars and arrays."""
        idx = np.floor((np.asarray(x) - self.a) / self.h).astype(int)
        return np.clip(idx, 0, self.n - 1)

    def midpoints(self):
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


def build_uniform_partition(a, b, n):
    """Uniform partition of [a, b] with n elements."""
    return Partition1D(float(a), float(b), int(n))


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of two 1D partitions; Q1 nodal layout is x-major
    (node id = ix * (ny + 1) + iy)."""

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

    def interior_ids(self):
        """Node ids of interior (non-Dirichlet) nodes, x-major order."""
        ix = np.arange(1, self.nx)
        iy = np.arange(1, self.ny)
        return (ix[:, None] * (self.ny + 1) + iy[None, :]).ravel()

    def node_coords(self):
        """Arrays X, Y of shape (nx+1, ny+1) with nodal coordinates."""
        return np.meshgrid(self.tx.nodes, self.ty.nodes, indexing="ij")

