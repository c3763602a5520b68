"""diracdeform: exact verification toolkit for pre-symplectic deformations
via Dirac geometry.

Layers:
  rational       exact scalars: Q and Q(x1..xn) with canonical fractions
  exterior       Grassmann calculus on a chart (wedge, d, contractions,
                 Schouten bracket, multi-sharp)
  linalg         exact linear algebra: field RREF (kernels, inverses),
                 fraction-free Bareiss (determinants, span tests, ranks of
                 constant matrices), Pfaffians
  dirac          Dirac linear algebra: V + V*, Lagrangians, tau, F, exp_eta
  courant        generalized sections and the Dorfman bracket
  koszul         Koszul/trinary brackets, the L-infinity[1] structure,
                 Maurer-Cartan residuals, symbolic F
  presymplectic  constant-rank certification, horizontality, deformations
  suites/cli     seeded verification harness with replayable reports
"""

from .rational import Poly, PoleError, Scalar
from .exterior import (
    Chart,
    ChartMismatchError,
    DegreeError,
    DifferentialForm,
    MultivectorField,
    contract,
    de_rham,
    dx,
    evaluate,
    lie_cartan,
    lie_derivative,
    multi_sharp,
    partial,
    schouten,
    wedge,
)
from .dirac import (
    Bivector,
    SkewBilinear,
    Subspace,
    NotInIZError,
    dirac_exp,
    F,
    in_I_Z,
    is_lagrangian,
    lagrangian_graph,
    rank_and_kernel,
    tau_bivector,
    tau_form,
    verify_linear_lemmas,
    Z_from_eta_G,
)
from .courant import GeneralizedSection, courant_pairing, dorfman, section
from .koszul import (
    KoszulContext,
    ShiftedForm,
    F_symbolic,
    F_symbolic_form,
    jacobi_residual,
    koszul_bracket,
    lam,
    mc_equivalence_report,
    mc_residual,
    mu,
    trinary_bracket,
)
from .presymplectic import (
    CannotCertifyError,
    DistributionFrame,
    PreSymplecticData,
    build_presymplectic,
    certify_constant_rank,
    deform,
    horizontal_preservation_conditions,
    is_horizontal,
    kernel_distribution,
)

__version__ = "0.1.0"
