"""Config text format: round trips, coercions, line-numbered failures, and
the resolution of what a run works on (`cli._inputs`)."""

import numpy as np
import pytest

from parastep.cli import _inputs, cli_main
from parastep.config import ProblemConfig
from parastep.errors import ConfigError
from parastep.geometry import MeshFunction, MeshSpec


@pytest.fixture()
def grid_2d(tmp_path):
    """v = -t on the unit square at h = 1/4, stored."""
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.125, N=2)
    path = tmp_path / "grid2.txt"
    MeshFunction.from_callable(spec, lambda x, t: -t + 0.0 * x[..., 0]).write_text(path)
    return path


def test_scalars_and_sections():
    text = """
    # comment
    problem = heat_sine
    T = 0.5            # trailing comment
    stencil.N = 3
    strict = true
    solver.tol = 1e-8
    """
    cfg = ProblemConfig.from_text(text)
    assert (cfg.problem, cfg.T, cfg.N, cfg.strict, cfg.tol) == ("heat_sine", 0.5, 3, True, 1e-8)


def test_lists_and_matrices():
    cfg = ProblemConfig.from_text(
        "h_list = [0.125, 0.0625]\nscheme.matrix = [[1.0, 0.5], [0.5, 2]]\n"
    )
    assert cfg.h_list == [0.125, 0.0625]
    assert cfg.scheme_matrix == [[1.0, 0.5], [0.5, 2.0]]


def test_quoted_strings_and_bare_paths():
    cfg = ProblemConfig.from_text('out = "results dir"\nboundary.file = grids/u.txt\n')
    assert cfg.out == "results dir"
    assert cfg.boundary_file == "grids/u.txt"


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("just words", "expected 'key = value'"),
        ("1bad = 2", "bad key name"),
        ("a.b = [1, 2", "unterminated list"),
        ("a.b = [1,, 2]", "empty list item"),
        ("a.b = [1] trailing", "trailing text"),
        ("a.b =", "missing value"),
    ],
)
def test_syntax_errors_carry_line_numbers(line, fragment):
    with pytest.raises(ConfigError, match=fragment) as exc:
        ProblemConfig.from_text("seed = 1\n" + line + "\n", source="run.cfg")
    assert "run.cfg:2" in str(exc.value)


def test_duplicate_keys_rejected_with_both_lines():
    with pytest.raises(ConfigError, match="duplicate key 'seed'.*line 1"):
        ProblemConfig.from_text("seed = 1\nseed = 2\n")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        ProblemConfig.from_file("/nonexistent/run.cfg")


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def test_problem_config_from_text_full():
    cfg = ProblemConfig.from_text(
        """
        problem = pucci_plus_concave
        T = 0.125
        h_list = [0.25, 0.125]
        stencil.N = 2
        solver.tol = 1e-9
        seed = 42
        strict = true
        diagnostics.delta_multiple = 3.0
        diagnostics.theta = 0.05
        diagnostics.M_values = [1, 4, 16]
        diagnostics.samples = 32
        diagnostics.abp = true
        """
    )
    assert cfg.problem == "pucci_plus_concave"
    assert cfg.h_list == [0.25, 0.125]
    assert cfg.tol == 1e-9
    assert cfg.seed == 42 and cfg.strict
    assert cfg.delta_multiple == 3.0 and cfg.theta == 0.05
    assert cfg.M_values == [1.0, 4.0, 16.0]
    assert cfg.samples == 32 and cfg.abp


def test_unknown_key_is_line_numbered():
    with pytest.raises(ConfigError, match=r"cfg:3: unknown key 'solver\.tolerance'"):
        ProblemConfig.from_text("seed = 1\n\nsolver.tolerance = 1e-8\n", source="cfg")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("T = [1.0]", "expected a number"),
        ("seed = 1.5", "expected an integer"),
        ("strict = 1", "expected true or false"),
        ("h_list = 0.1", "flat nonempty list"),
        ("domain = [0, 1]", "list of rows"),
        ("scheme.matrix = [[1, 0], [1]]", "unequal lengths"),
        ("problem = [1]", "expected a name"),
    ],
)
def test_type_errors_name_the_key(text, fragment):
    key = text.split(" =")[0]
    with pytest.raises(ConfigError, match=fragment) as exc:
        ProblemConfig.from_text("# run\n" + text, source="run.cfg")
    assert str(exc.value).startswith(f"run.cfg:2: key {key!r}: ")


@pytest.mark.parametrize(
    "text",
    [
        "h_list = [true]",
        'h_list = ["0.5"]',
        "scheme.matrix = [[true]]",
        "domain = [[0.0, false]]",
        "diagnostics.M_values = [true, 4]",
    ],
)
def test_number_lists_take_numbers_only(text):
    # list items go through the scalar number rule: these used to parse as
    # [1.0], [0.5], [[1.0]], [[0.0, 0.0]] and [1.0, 4.0]
    key = text.split(" =")[0]
    with pytest.raises(ConfigError, match="expected a number") as exc:
        ProblemConfig.from_text("# run\n" + text, source="run.cfg")
    assert str(exc.value).startswith(f"run.cfg:2: key {key!r}: ")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("h_list = [0.1, -0.2]", "positive spacings"),
        ("T = -1.0", "T must be a finite positive number, got -1.0"),
        ("T = nan", "T must be a finite positive number, got nan"),
        ("T = inf", "T must be a finite positive number, got inf"),
        ("h_list = [0.1, nan]", "finite positive spacings"),
        ("h_list = [inf]", "finite positive spacings"),
        ("stencil.N = 1", "at least 2"),
        ("scheme.kind = monge_ampere", "not a built-in operator"),
        ("diagnostics.theta = 0.0", r"diagnostics\.theta must be a finite positive number, got 0\.0"),
        ("diagnostics.M_values = []", "nonempty"),
        ("seed = -2", "seed must be nonnegative, got -2"),
        ("solver.tol = -1", "solver.tol must be a finite positive number, got -1.0"),
        ("solver.tol = 0", "solver.tol must be a finite positive number, got 0.0"),
        ("solver.tol = nan", "solver.tol must be a finite positive number, got nan"),
        ("solver.tol = inf", "solver.tol must be a finite positive number, got inf"),
        ("diagnostics.theta = inf", "diagnostics.theta must be a finite positive number, got inf"),
        ("diagnostics.theta = nan", "diagnostics.theta must be a finite positive number, got nan"),
        (
            "diagnostics.delta_multiple = 0",
            "diagnostics.delta_multiple must be a finite positive number, got 0.0",
        ),
        (
            "diagnostics.delta_multiple = inf",
            "diagnostics.delta_multiple must be a finite positive number, got inf",
        ),
        (
            "diagnostics.delta_multiple = nan",
            "diagnostics.delta_multiple must be a finite positive number, got nan",
        ),
        ("diagnostics.M_values = [nan]", r"finite positive levels, got \[nan\]"),
        ("diagnostics.M_values = [1.0, inf]", r"finite positive levels, got \[1.0, inf\]"),
        ("diagnostics.rate_floor = nan", "diagnostics.rate_floor must be finite, got nan"),
        ("diagnostics.rate_floor = -inf", "diagnostics.rate_floor must be finite, got -inf"),
    ],
)
def test_value_validation(text, fragment):
    # every rule reports its line; the range rules name the key themselves
    with pytest.raises(ConfigError, match=fragment) as exc:
        ProblemConfig.from_text("# run\n" + text, source="run.cfg")
    assert str(exc.value).startswith("run.cfg:2: ")


SPD = "must be a symmetric positive definite matrix of finite numbers, got "


@pytest.mark.parametrize(
    "text,must",
    [
        ("scheme.lam = -1", "must be a finite positive number, got -1.0"),
        ("scheme.lam = nan", "must be a finite positive number, got nan"),
        ("scheme.Lam = 0", "must be a finite positive number, got 0.0"),
        ("scheme.Lam = inf", "must be a finite positive number, got inf"),
        ("scheme.matrix = [[-1.0]]", SPD + "[[-1.0]]"),
        ("scheme.matrix = [[1.0, 0.5], [0.0, 1.0]]", SPD + "[[1.0, 0.5], [0.0, 1.0]]"),
        ("scheme.matrix = [[1.0, 0.0]]", SPD + "[[1.0, 0.0]]"),
        ("scheme.matrix = [[nan]]", SPD + "[[nan]]"),
    ],
)
def test_scheme_keys_are_checked_on_their_line(text, must):
    # each key's own part of NonlinearityDescriptor's checks, at parse time
    key = text.split(" =")[0]
    with pytest.raises(ConfigError) as exc:
        ProblemConfig.from_text("# run\n" + text, source="run.cfg")
    assert str(exc.value) == f"run.cfg:2: {key} {must}"


def test_lam_above_Lam_is_left_to_the_descriptor(tmp_path, capsys, grid_2d):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"boundary.file = {grid_2d}\nscheme.kind = pucci_plus\nscheme.lam = 3.0\nscheme.Lam = 2.0\n"
    )
    assert cli_main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", "parastep: error: ellipticity constants need finite 0 < lam <= Lam, got (3.0, 2.0)\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["solver.method", "solver.max_iterations"])
def test_removed_solver_keys_fail_loudly(key, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"problem = heat_sine\n{key} = 1\n")
    want = rf"run\.cfg:2: key '{key}' was removed; Howard policy iteration is the only solver"
    with pytest.raises(ConfigError, match=want):
        ProblemConfig.from_file(path)


def test_removed_dimension_key_names_its_reason():
    with pytest.raises(ConfigError) as exc:
        ProblemConfig.from_text("problem = heat_sine\n# n\nscheme.dimension = 2\n", source="run.cfg")
    assert str(exc.value) == (
        "run.cfg:3: key 'scheme.dimension' was removed; the operator takes the stored grid's dimension"
    )


def test_overrides_replace_only_given_fields():
    cfg = ProblemConfig.from_text("problem = heat_sine\nseed = 3\n")
    out = cfg.with_overrides(
        {"--seed": ("seed", None), "--T": ("T", 0.0625), "--strict": ("strict", True)}
    )
    assert out.seed == 3 and out.T == 0.0625 and out.strict
    assert cfg.T == 0.25  # original untouched
    with pytest.raises(ConfigError, match="^--seed: seed must be nonnegative, got -3$"):
        cfg.with_overrides({"--seed": ("seed", -3)})


def test_descriptor_resolution(grid_2d):
    # the one place that picks the operator: the library problem's, else
    # scheme.* with the stored grid's dimension
    lib = _inputs(ProblemConfig.from_text("problem = heat_sine\n"), "diagnose")
    assert lib.grid is None and lib.descriptor is lib.problem.descriptor
    assert lib.descriptor.kind == "linear" and lib.descriptor.dimension == 1

    grid = f"boundary.file = {grid_2d}\n"
    pucci = _inputs(
        ProblemConfig.from_text(grid + "scheme.kind = pucci_minus\nscheme.lam = 1.0\nscheme.Lam = 3.0\n"),
        "diagnose",
    )
    assert pucci.problem is None and pucci.grid.spec.n == 2
    F = pucci.descriptor
    assert (F.kind, F.dimension, F.pucci_pair) == ("pucci_minus", 2, (1.0, 3.0))

    F = _inputs(ProblemConfig.from_text(grid + "scheme.kind = linear\n"), "certify").descriptor
    assert F.kind == "linear" and np.array_equal(F.matrix, np.eye(2))

    with pytest.raises(ConfigError, match="^config needs problem = <name> or scheme.kind = <operator>$"):
        _inputs(ProblemConfig.from_text(grid), "diagnose")


def test_bounds_resolution(tmp_path, capsys):
    # solve takes domain over the library problem's own bounds
    cases = [("", ((0.0, 1.0),)), ("domain = [[-1.0, 2.0]]\n", ((-1.0, 2.0),))]
    for k, (domain, bounds) in enumerate(cases):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem = heat_sine\nh_list = [0.25]\nT = 0.0625\n{domain}")
        out = tmp_path / f"o{k}"
        assert cli_main(["solve", "--config", str(cfg), "--out", str(out)]) == 0, capsys.readouterr()
        grid = MeshFunction.read_text(out / "solution_heat_sine_h0.25.txt")
        assert grid.spec.bounds == bounds
