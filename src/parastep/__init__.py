"""parastep: implicit monotone finite-difference schemes on parabolic meshes
for fully nonlinear uniformly parabolic equations u_t = F(D^2 u), plus the
verification toolkit used to interrogate the computed solutions (convolution
regularizations, monotone envelopes, touching-paraboloid diagnostics, and an
empirical convergence harness).
"""

import os as _os

# PARASTEP_THREADS pins the BLAS/OpenMP pool sizes.  Those libraries read
# their environment when first loaded, so this must happen before numpy is
# imported below; explicitly set per-library variables still win (the CLI
# follows the same rule).
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_threads = _os.environ.get("PARASTEP_THREADS")
if _threads:
    for _var in _THREAD_VARS:
        _os.environ.setdefault(_var, _threads)
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
    cylinder_nodes,
    discrete_holder_norm,
    euclidean_distance,
    parabolic_distance,
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
    apply_scheme,
    build_monotone_scheme,
    check_monotonicity,
    consistency_error,
    consistency_fit,
    delta2_y,
    delta_tau_minus,
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
    ConvolutionParams,
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
from .config import ProblemConfig, load_config, parse_config

__version__ = "0.1.0"
