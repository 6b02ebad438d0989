"""Config text format: round trips, coercions, and line-numbered failures."""

import pytest

from parastep.config import ProblemConfig
from parastep.errors import ConfigError


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


@pytest.mark.parametrize("key", ["solver.method", "solver.max_iterations"])
def test_removed_solver_keys_fail_loudly(key, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"problem = heat_sine\n{key} = 1\n")
    want = rf"run\.cfg:2: key '{key}' was removed; Howard policy iteration is the only solver"
    with pytest.raises(ConfigError, match=want):
        ProblemConfig.from_file(path)


def test_overrides_replace_only_given_fields():
    cfg = ProblemConfig.from_text("problem = heat_sine\nseed = 3\n")
    out = cfg.with_overrides(
        {"--seed": ("seed", None), "--T": ("T", 0.0625), "--strict": ("strict", True)}
    )
    assert out.seed == 3 and out.T == 0.0625 and out.strict
    assert cfg.T == 0.25  # original untouched
    with pytest.raises(ConfigError, match="^--seed: seed must be nonnegative, got -3$"):
        cfg.with_overrides({"--seed": ("seed", -3)})


def test_descriptor_resolution():
    lib = ProblemConfig.from_text("problem = heat_sine\n").descriptor()
    assert lib.kind == "linear" and lib.dimension == 1

    pucci = ProblemConfig.from_text(
        "scheme.kind = pucci_minus\nscheme.lam = 1.0\nscheme.Lam = 3.0\nscheme.dimension = 2\n"
    ).descriptor()
    assert pucci.kind == "pucci_minus" and pucci.dimension == 2

    ident = ProblemConfig.from_text(
        "scheme.kind = linear\ndomain = [[0.0, 1.0], [0.0, 1.0]]\n"
    )
    A = ident.descriptor()
    assert A.dimension == 2

    with pytest.raises(ConfigError, match="problem = <name> or scheme.kind"):
        ProblemConfig().descriptor()


def test_bounds_resolution():
    assert ProblemConfig.from_text("problem = heat_sine\n").bounds() == ((0.0, 1.0),)
    cfg = ProblemConfig.from_text("scheme.kind = linear\ndomain = [[-1.0, 2.0]]\n")
    assert cfg.bounds() == ((-1.0, 2.0),)
    with pytest.raises(ConfigError, match="needs domain"):
        ProblemConfig.from_text("scheme.kind = linear\n").bounds()
