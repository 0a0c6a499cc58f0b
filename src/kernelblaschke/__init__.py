"""Inner-function analogues of finite Blaschke products in kernel Hilbert spaces.

Construction routes (Gram determinant, Hermitian solve, finite-dimensional
projection oracle, closed forms) plus numerical verification of innerness,
zero structure, subspace equalities, and extremal optimality.
"""

from .errors import (ConfigError, DegenerateResidueSystem, DivergentSeries,
                     IllConditioned, InadmissibleMultiset, KernelSpaceError,
                     MissingReproducibility, SingularGram,
                     ToleranceUnreachable, TruncationDominatesResidual,
                     UnboundedTail, UnsupportedRoute, ZeroFunction)
from .spaces import (CustomGram, DirichletType, FactoredPoly, LocalDirichlet,
                     ReproducibleMultiset, ReproducibleOrder, SpaceSpec,
                     WeightedHardy, bergman_space, dirichlet_space,
                     hardy_space, monomial_inner, reproducible_multiset,
                     reproducible_order, space_from_json)
from .kernels import (DEFAULT_POLICY, KernelCombo, KernelTerm, TaylorSeries,
                      TruncationPolicy, combo_derivative_at, combo_taylor,
                      kernel_pairing, kernel_taylor,
                      shift_inner_product, shift_inner_products)
from .construct import (ConstructionResult, RationalRep, bergman_rational,
                        classical_blaschke, inner_projection_of,
                        multiset_from_combo, oracle_result, project_kernel_fd,
                        rational_residue_at_double_pole, shapiro_shields)
from .verify import (ComparisonReport, ExtremalReport, InnerReport, ZeroReport,
                     extraneous_zero_scan, extremal_check, inner_report,
                     scalar_multiple_check, subspace_equal, zero_report)

__version__ = "0.1.0"
