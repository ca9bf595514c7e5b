"""skewlift: tensor-product model reduction around skewed interfaces.

The package locates sharp skewed interfaces in the data of 2D
advection-diffusion problems, removes them from the model-reduction loop via
Dirichlet lifting functions, and builds reduced tensor approximations
p_m(x, y) = sum_k pbar_k(x) phi_k(y) whose transverse basis comes from
adaptively trained POD snapshots.
"""

__version__ = "0.1.0"
