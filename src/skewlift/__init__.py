"""skewlift: tensor-product model reduction around skewed interfaces.

The package locates sharp skewed interfaces in the data of 2D
advection-diffusion problems, removes them from the model-reduction loop via
Dirichlet lifting functions, and builds reduced tensor approximations
p_m(x, y) = sum_k pbar_k(x) phi_k(y) whose transverse basis comes from
adaptively trained POD snapshots.
"""

from .mesh import Partition1D, TensorGrid, build_grid, build_uniform_partition
from .problem import (MODES, FullSolution, GridField, LiftingFunction,
                      ProblemData, ReferenceSystem, TensorOperators,
                      affine_boundary_blend, assemble_reference_system,
                      reference_operators, solve_reference)
from .interface import (InterfaceCurve, InterfaceNotFoundError, Profile1D,
                        WaterTable, boussinesq_steady_profile, build_lifting,
                        detection_partitions, locate_interface,
                        solve_boussinesq)
from .transverse import (CoupledBasis, QuadPointsInSameElement,
                         QuadratureRule, TransverseSnapshot, TransverseSolver,
                         TransverseSystem, assemble_transverse,
                         augment_quadrature, build_coupled_basis,
                         snapshot_solve)
from .training import (ParamCell, ReductionSpace, TrainingResult,
                       adaptive_train_extension, element_indicators,
                       empty_space, initial_cells, mark, pod, refine,
                       transverse_mass)
from .reduced import (ReducedSolution, ReducedSystem, assemble_reduced,
                      solve_reduced)
from .estimator import ErrorReport, error_report, reports_to_csv
from .cases import (CaseSpec, box_source, case1, case2, case3,
                    cosine_profile, detection_data, get_case, skew_lifting,
                    smooth_part)
from .cli import DetectConfig, RunConfig, main, run_case, run_detect

__version__ = "0.1.0"

__all__ = [
    "Partition1D", "TensorGrid", "build_grid", "build_uniform_partition",
    "MODES", "FullSolution", "GridField", "LiftingFunction", "ProblemData",
    "ReferenceSystem", "TensorOperators", "affine_boundary_blend",
    "assemble_reference_system", "reference_operators", "solve_reference",
    "InterfaceCurve", "InterfaceNotFoundError", "Profile1D", "WaterTable",
    "boussinesq_steady_profile", "build_lifting", "detection_partitions",
    "locate_interface", "solve_boussinesq",
    "CoupledBasis", "QuadPointsInSameElement", "QuadratureRule",
    "TransverseSnapshot", "TransverseSolver", "TransverseSystem",
    "assemble_transverse", "augment_quadrature", "build_coupled_basis",
    "snapshot_solve",
    "ParamCell", "ReductionSpace", "TrainingResult",
    "adaptive_train_extension", "element_indicators", "empty_space",
    "initial_cells", "mark", "pod", "refine", "transverse_mass",
    "ReducedSolution", "ReducedSystem", "assemble_reduced", "solve_reduced",
    "ErrorReport", "error_report", "reports_to_csv",
    "CaseSpec", "box_source", "case1", "case2", "case3", "cosine_profile",
    "detection_data", "get_case", "skew_lifting", "smooth_part",
    "DetectConfig", "RunConfig", "main", "run_case", "run_detect",
    "__version__",
]
