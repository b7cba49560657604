"""calmcert: isolated-calmness certificates for regularized least squares."""

__version__ = "0.1.0"

from .linalg import Tolerances, Subspace, null_space, range_space
from .regularizers import GroupLasso, Nuclear, PolyhedralIndicator
from .model import (LinearOp, ProblemInstance, SolutionPair,
                    InstanceError, load_instance, instance_hash,
                    group_lasso, l1, nuclear, polyhedral_indicator)
from .solver import SolverConfig, SolverError, solve, solve_perturbed, kkt_residual
from .certificates import (CertificateReport, CertificateError, Conclusion,
                           read_pair, certify_solution_map,
                           certify_primal_dual, strong_solution_equivalence,
                           uniqueness_equivalence_check)
from .empirics import (KappaEstimate, perturbation_sweep, instability_probe,
                       kernel_formula_check, zero_product_check)
from .cones import (TrivialityVerdict, trivial_intersection, preimage,
                    tangent_with_range_restriction)
from .reporting import save_report

__all__ = [name for name in dir() if not name.startswith("_")]
