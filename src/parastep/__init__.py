"""parastep: implicit monotone finite-difference schemes on parabolic meshes
for fully nonlinear uniformly parabolic equations u_t = F(D^2 u), plus the
verification toolkit used to interrogate the computed solutions (convolution
regularizations, monotone envelopes, touching-paraboloid diagnostics, and an
empirical convergence harness).
"""

import os as _os

# PARASTEP_THREADS pins the BLAS/OpenMP pool sizes.  Those libraries read
# their environment when first loaded, so this must happen before numpy is
# imported below.  Only a positive integer is copied, and explicitly set
# per-library variables win; the CLI reports any other value as an error.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
try:
    _threads = int(_os.environ.get("PARASTEP_THREADS", ""))
except ValueError:
    _threads = 0
if _threads > 0:
    for _var in _THREAD_VARS:
        _os.environ.setdefault(_var, str(_threads))
del _os, _threads

from .errors import (
    ConfigError,
    DiagnosticsError,
    EnvelopeError,
    GridError,
    NonlinearityError,
    ParastepError,
    SchemeError,
    SolverConvergenceError,
)
from .geometry import (
    Cylinder,
    KBox,
    MeshFunction,
    MeshSpec,
    ParabolicPoint,
    classify_mesh_points,
    discrete_holder_norm,
    euclidean_distance,
    parabolic_distance,
    region_mask,
)
from .nonlinearity import (
    EllipticityConstants,
    NonlinearityDescriptor,
    evaluate_F,
    pucci_minus,
    pucci_plus,
    verify_uniform_ellipticity,
)
from .scheme import (
    SchemeDescriptor,
    Stencil,
    TestFunction,
    build_monotone_scheme,
    check_monotonicity,
    consistency_error,
    consistency_fit,
    scheme_residual_field,
    scheme_tables_text,
)
from .envelopes import (
    abp_diagnostic,
    contact_set,
    lower_monotone_envelope,
    upper_monotone_envelope,
)
from .solver import SolveReport, residual_sweep, solve
from .convolutions import (
    ConvolutionReport,
    inf_convolution_mesh,
    sup_convolution_mesh,
    verify_convolution_properties,
    x_inf_convolution,
    x_sup_convolution,
)
from .diagnostics import (
    FalsifierConfig,
    GoodSetReport,
    Paraboloid,
    ViolationCertificate,
    certificates_to_rows,
    delta_falsifier,
    evaluate_paraboloid,
    good_set_measure,
    paraboloid_derivatives,
    psi_M_membership,
    replay_violation,
    row_to_certificate,
)
from .harness import (
    ConvergenceStudy,
    ExactSolution,
    exact_library,
    get_problem,
    run_convergence_study,
    run_diagnostics,
)
from .config import ProblemConfig

__version__ = "0.1.0"
