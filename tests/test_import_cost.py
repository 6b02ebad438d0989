"""Start-up cost guard: a fresh interpreter that imports parastep, or runs
``python -m parastep --help``, loads every parastep module (the benchmark's
span wrappers look them up in ``sys.modules``) but no part of scipy: each
one is imported where it is used (``scipy.spatial`` by the envelopes, and
only for a non-constant slice in n >= 2: the ABP ratio of a grid that is
positive on its cylinder loads none, one with an interior dip does).  A
small ``diagnose`` run loads none of them either, with the falsifier alone
(it draws its Sobol' probes in the package, not with ``scipy.stats``) or
with the good-set sweep, whose fits the exchange certifies.  A good-set fit
that the exchange cannot certify raises and loads no scipy module on the
way: there is no LP route behind it.

A ``solve`` or ``converge`` run loads one scipy module, SuperLU's extension,
which the solver's ``_factor`` takes from its file without running any
``scipy.sparse`` package ``__init__``.  That factor is the one ``splu`` makes,
and a later ``import scipy.sparse.linalg`` finds the same module.

The package's public names are pinned too, so that removing or adding one is
a deliberate change to this list."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import parastep

PACKAGE = Path(parastep.__file__).resolve().parent
# What ``import parastep`` loads: every module but the command line.
LIBRARY = {"parastep"} | {
    f"parastep.{p.stem}"
    for p in PACKAGE.glob("*.py")
    if p.stem not in ("__init__", "__main__", "cli")
}

PROGRAMS = {
    "import": "import parastep",
    "help": (
        "import runpy\n"
        "sys.argv = ['parastep', '--help']\n"
        "try:\n"
        "    runpy.run_module('parastep', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    ),
    "diagnose": (
        "from pathlib import Path\n"
        "from parastep import MeshFunction, MeshSpec\n"
        "from parastep.cli import cli_main\n"
        "spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)\n"
        "MeshFunction.from_callable(spec, lambda x, t: -t).write_text('grid.txt')\n"
        "Path('run.cfg').write_text(\n"
        "    'boundary.file = grid.txt\\nscheme.kind = linear\\ndiagnostics.samples = 16\\n'\n"
        ")\n"
        "assert cli_main(['diagnose', '--config', 'run.cfg']) == 0\n"
        "assert 'probe=sobol[' in Path('certificates.txt').read_text()\n"
    ),
    "goodset": (
        "from pathlib import Path\n"
        "import numpy as np\n"
        "from parastep import MeshFunction, MeshSpec\n"
        "from parastep.cli import cli_main\n"
        "spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)\n"
        "f = lambda x, t: np.sin(np.pi * x[..., 0]) * np.exp(-np.pi**2 * t)\n"
        "MeshFunction.from_callable(spec, f).write_text('grid.txt')\n"
        "Path('run.cfg').write_text(\n"
        "    'boundary.file = grid.txt\\nscheme.kind = linear\\ndiagnostics.samples = 4\\n'\n"
        "    'diagnostics.M_values = [1, 4, 16, 64]\\n'\n"
        ")\n"
        "assert cli_main(['diagnose', '--config', 'run.cfg']) == 0\n"
        "assert 'good_set nodes=960 ' in Path('diagnostics.txt').read_text()\n"
    ),
    "solve": (
        "from pathlib import Path\n"
        "from parastep.cli import cli_main\n"
        "assert cli_main(['solve', '--problem', 'heat_sine', '--h-list', '0.0625']) == 0\n"
        "assert Path('solution_heat_sine_h0.0625.txt').is_file()\n"
    ),
    "converge": (
        "from pathlib import Path\n"
        "from parastep.cli import cli_main\n"
        "argv = ['converge', '--problem', 'pucci_plus_concave', '--h-list', '0.125,0.0625']\n"
        "assert cli_main(argv) == 0\n"
        "rows = Path('convergence.csv').read_text().splitlines()\n"
        "assert [r.split(',')[0] for r in rows if r[0] == '0'] == ['0.125', '0.0625']\n"
    ),
}
# The one scipy module that a solve loads.
SUPERLU = {"scipy.sparse.linalg._dsolve._superlu"}


def loaded_modules(program: str, cwd: Path) -> set:
    code = f"import json, sys\n{program}\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
        timeout=120,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("case", sorted(PROGRAMS))
def test_start_up_loads_parastep_but_not_scipy(case, tmp_path):
    modules = loaded_modules(PROGRAMS[case], tmp_path)
    scipy = {m for m in modules if m.partition(".")[0] == "scipy"}
    assert scipy <= (SUPERLU if case in ("solve", "converge") else set()), sorted(scipy)
    want = LIBRARY | ({"parastep.cli"} if case != "import" else set())
    assert want <= modules, sorted(want - modules)


# A level factor made before scipy.sparse.linalg is imported, against splu's
# factor of the same matrix made after it.  With no extension suffix the
# factor imports its module by name, which loads scipy.sparse.linalg.
FACTOR = (
    "import importlib.machinery\n"
    "import numpy as np\n"
    "from parastep import MeshSpec, NonlinearityDescriptor, build_monotone_scheme\n"
    "from parastep.solver import _SUPERLU, _factor, _LevelProblem\n"
    "{suffixes}"
    "spec = MeshSpec(h=1 / 8, bounds=[(0.0, 1.0)] * 2, T=0.125, N=2)\n"
    "lp = _LevelProblem(build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2)), spec)\n"
    "rng = np.random.default_rng(5)\n"
    "coef = lp.flat_forms[rng.integers(0, lp.flat_forms.shape[0], lp.K)] * lp.weights\n"
    "lu = _factor(lp.K, lp.values(coef), lp.indices, lp.indptr)\n"
    "loaded = {{m for m in sys.modules if m.startswith('scipy')}}\n"
    "assert {check}, sorted(loaded)\n"
    "superlu = sys.modules[_SUPERLU]\n"
    "import scipy.sparse.linalg as spla\n"
    "from scipy.sparse import csc_matrix\n"
    "assert spla._dsolve.linsolve._superlu is superlu and type(lu) is spla.SuperLU\n"
    "A = csc_matrix((lp.values(coef), lp.indices, lp.indptr), shape=(lp.K, lp.K))\n"
    "want = spla.splu(A, permc_spec='MMD_AT_PLUS_A')\n"
    "assert lu.nnz == want.nnz\n"
    "for p in ('perm_r', 'perm_c'):\n"
    "    assert np.array_equal(getattr(lu, p), getattr(want, p)), p\n"
    "for f in ('L', 'U'):\n"
    "    assert (getattr(lu, f) != getattr(want, f)).nnz == 0, f\n"
    "b = rng.standard_normal((lp.K, 8))\n"
    "assert np.array_equal(lu.solve(b), want.solve(b))\n"
)


@pytest.mark.parametrize("route", ["file", "import"])
def test_a_fresh_factor_equals_splu_and_shares_its_module(route, tmp_path):
    if route == "file":
        program = FACTOR.format(suffixes="", check="loaded == {_SUPERLU}")
    else:
        program = FACTOR.format(
            suffixes="importlib.machinery.EXTENSION_SUFFIXES = []\n",
            check="{_SUPERLU, 'scipy.sparse.linalg'} <= loaded",
        )
    assert SUPERLU <= loaded_modules(program, tmp_path)


# The ABP ratio on the benchmark's verify 2-D grid (heat, h = 1/12), which is
# positive on the cylinder: the zero extension's slices are constant, and
# their envelopes take no hull.  The same grid with one interior dip needs one.
ABP = (
    "from parastep import FalsifierConfig, MeshFunction, MeshSpec, build_monotone_scheme\n"
    "from parastep import get_problem, run_diagnostics, solve\n"
    "sol = get_problem('heat_product_2d')\n"
    "spec = MeshSpec(h=1 / 12, bounds=sol.bounds, T=0.25, N=2)\n"
    "u, _ = solve(build_monotone_scheme(sol.descriptor), spec, sol.fn)\n"
    "fcfg = FalsifierConfig(samples=4)\n"
    "abp = run_diagnostics(u, sol.descriptor, falsifier_config=fcfg, abp=True)['abp']\n"
    "assert abp['lhs'] == 0.0, abp\n"
    "spatial = [m for m in sys.modules if m.startswith('scipy.spatial')]\n"
    "assert not spatial, spatial\n"
    "vals, node = u.values.copy(), spec.middle_node()\n"
    "vals[(node[-1] - 4,) + spec.offset(node)[1:]] = -0.3\n"
    "dip = MeshFunction(spec, vals)\n"
    "abp = run_diagnostics(dip, sol.descriptor, falsifier_config=fcfg, abp=True)['abp']\n"
    "assert abp['lhs'] > 0.0, abp\n"
)


def test_abp_loads_scipy_spatial_only_for_a_non_constant_slice(tmp_path):
    # the program checks that the verify grid's ratio loaded no scipy.spatial
    modules = loaded_modules(ABP, tmp_path)
    assert "scipy.spatial" in modules


# A good-set sweep whose fits the exchange may not certify: with no pivot
# allowed, some first reference is not optimal and the sweep raises.
UNCERTIFIED = (
    "import numpy as np\n"
    "import parastep.diagnostics as diagnostics\n"
    "from parastep import DiagnosticsError, KBox, MeshFunction, MeshSpec\n"
    "diagnostics._FIT_PIVOTS = 0\n"
    "spec = MeshSpec(h=0.25, bounds=[(-1.0, 1.0)], T=0.25, N=2)\n"
    "u = MeshFunction.from_callable(spec, lambda x, t: np.abs(x[..., 0]) ** 3)\n"
    "try:\n"
    "    diagnostics.good_set_measure(u, [1.0], KBox(((0.0,), spec.tau), r=4.0))\n"
    "except DiagnosticsError as exc:\n"
    "    assert 'node (' in str(exc), exc\n"
    "else:\n"
    "    raise AssertionError('the uncertified fit did not raise')\n"
)


def test_an_uncertified_fit_loads_no_lp_solver(tmp_path):
    modules = loaded_modules(UNCERTIFIED, tmp_path)
    assert not {"scipy.optimize", "scipy.sparse"} & modules


PUBLIC = """
ConfigError ConvergenceStudy ConvolutionReport Cylinder
DiagnosticsError EllipticityConstants EnvelopeError ExactSolution FalsifierConfig
GoodSetReport GridError KBox MeshFunction MeshSpec NonlinearityDescriptor
NonlinearityError ParabolicPoint Paraboloid ParastepError ProblemConfig
SchemeDescriptor SchemeError SolveReport SolverConvergenceError Stencil
TestFunction ViolationCertificate abp_diagnostic build_monotone_scheme
certificates_to_rows check_monotonicity classify_mesh_points consistency_error
consistency_fit contact_set delta_falsifier discrete_holder_norm
euclidean_distance evaluate_F evaluate_paraboloid exact_library get_problem
good_set_measure inf_convolution_mesh lower_monotone_envelope parabolic_distance
paraboloid_derivatives psi_M_membership pucci_minus pucci_plus region_mask
replay_violation residual_sweep row_to_certificate run_convergence_study
run_diagnostics scheme_residual_field scheme_tables_text solve
sup_convolution_mesh upper_monotone_envelope verify_convolution_properties
verify_uniform_ellipticity x_inf_convolution x_sup_convolution
""".split()

# Removed package-level names: the per-node quotients and scheme, the node
# list of a region (now ``region_mask``), the untyped config parser and the
# validation-only convolution parameter record.
REMOVED = """
ConvolutionParams apply_scheme cylinder_nodes delta2_y delta_tau_minus load_config
parse_config
""".split()


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(parastep).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC)
    assert not set(REMOVED) & set(dir(parastep))
