"""Model-problem library and convergence-study tests.

Library entries are verified against their own operators through the closed
forms (analytic route) before any discretization enters; studies are checked
for rate plausibility and byte-stable CSV output.
"""

import math

import numpy as np
import pytest

from parastep.diagnostics import FalsifierConfig
from parastep.errors import ConfigError
from parastep.geometry import KBox, MeshFunction, MeshSpec
from parastep.harness import (
    ConvergenceStudy,
    ExactSolution,
    exact_library,
    get_problem,
    run_convergence_study,
    run_diagnostics,
)
from parastep.nonlinearity import NonlinearityDescriptor
from parastep.scheme import build_monotone_scheme
from parastep.solver import solve


# ---------------------------------------------------------------------------
# exact-solution library
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(exact_library()))
def test_library_solutions_satisfy_their_equations(name):
    sol = get_problem(name)
    assert sol.pde_residual(samples=300) <= 1e-10


def test_heat_sine_hand_values():
    sol = get_problem("heat_sine")
    x = np.array([[0.5]])
    assert sol(x, 0.0)[0] == pytest.approx(1.0)
    assert sol(x, 0.1)[0] == pytest.approx(math.exp(-math.pi**2 * 0.1))
    assert sol(np.array([[0.25]]), 0.0)[0] == pytest.approx(math.sin(math.pi / 4))


def test_pucci_profiles_decay_at_their_effective_rates():
    x = np.array([[0.5]])
    plus = get_problem("pucci_plus_concave")
    minus = get_problem("pucci_minus_concave")
    # concave where positive: M^+ acts with lam = 1, M^- with Lam = 2
    assert plus(x, 0.2)[0] == pytest.approx(math.exp(-math.pi**2 * 0.2))
    assert minus(x, 0.2)[0] == pytest.approx(math.exp(-2 * math.pi**2 * 0.2))


def test_unknown_problem_name():
    with pytest.raises(ConfigError, match="unknown problem"):
        get_problem("burgers")


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def test_heat_sine_rate_is_second_order_on_a_short_sweep():
    study = run_convergence_study("heat_sine", [1 / 8, 1 / 16, 1 / 32], T=0.25)
    assert study.sup_errors[0] > study.sup_errors[1] > study.sup_errors[2]
    # second order asymptotically; the coarsest pair is still pre-asymptotic
    assert 1.2 < study.fitted_rate < 2.5
    assert study.pairwise_rates[-1] == pytest.approx(2.0, abs=0.35)
    assert all(r > 0.9 for r in study.pairwise_rates)
    assert study.max_residual < 1e-8
    assert study.levels == [16, 64, 256]


def test_product_solution_converges_in_two_dimensions():
    study = run_convergence_study("heat_product_2d", [1 / 8, 1 / 16], T=1 / 16)
    assert study.sup_errors[1] < study.sup_errors[0]


def test_csv_runs_are_byte_identical():
    a = run_convergence_study("heat_sine", [1 / 8, 1 / 16], T=0.0625, seed=7)
    b = run_convergence_study("heat_sine", [1 / 8, 1 / 16], T=0.0625, seed=7)
    assert a.to_csv() == b.to_csv()
    assert a.to_csv().encode() == b.to_csv().encode()


def test_csv_layout(tmp_path):
    study = run_convergence_study("heat_sine", [1 / 8, 1 / 16], T=0.0625, seed=3)
    text = study.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "# parastep convergence study"
    assert "problem=heat_sine" in lines[1] and "seed=3" in lines[1]
    assert lines[2].startswith("# fitted_rate=")
    assert lines[3] == "h,sup_error,rate_pairwise,iterations"
    assert len(lines) == 4 + 2
    first = lines[4].split(",")
    assert float(first[0]) == 0.125
    assert first[2] == ""  # no pairwise rate for the coarsest mesh
    assert int(first[3]) == study.iterations[0] > 0
    out = tmp_path / "study.csv"
    study.write_csv(out)
    assert out.read_text() == text


def test_zero_error_keeps_one_rate_per_pair():
    # u = x^2 + 2t solves u_t = u_xx and the scheme reproduces it exactly, so
    # the errors are 0 or roundoff and some pairwise rates are undefined
    quadratic = ExactSolution(
        name="heat_quadratic",
        descriptor=NonlinearityDescriptor.linear([[1.0]]),
        bounds=((0.0, 1.0),),
        fn=lambda x, t: x[..., 0] ** 2 + 2.0 * np.asarray(t),
        du_dt=lambda x, t: 2.0 + 0.0 * x[..., 0],
        hessian=lambda x, t: 2.0 + 0.0 * x[..., 0, None, None],
    )
    study = run_convergence_study(quadratic, [1 / 4, 1 / 8, 1 / 16], T=0.25)
    errors = study.sup_errors
    assert errors[0] == 0.0 and max(errors) < 1e-12
    assert len(study.pairwise_rates) == 2
    rows = [line.split(",") for line in study.to_csv().strip().split("\n")[4:]]
    assert len(rows) == 3 and rows[0][2] == ""
    for (e0, e1), rate, row in zip(zip(errors, errors[1:]), study.pairwise_rates, rows[1:]):
        if e0 > 0 and e1 > 0:
            assert row[2] == repr(rate)
        else:
            assert math.isnan(rate) and row[2] == ""


def test_empty_sweep_rejected():
    with pytest.raises(ConfigError, match="empty h sweep"):
        run_convergence_study("heat_sine", [])


def test_elapsed_time_not_in_csv():
    study = run_convergence_study("heat_sine", [1 / 8], T=0.0625)
    assert study.elapsed_seconds > 0
    assert "elapsed" not in study.to_csv()


# ---------------------------------------------------------------------------
# diagnostics bundle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def computed_heat():
    sol = get_problem("heat_sine")
    spec = MeshSpec(h=1 / 16, bounds=sol.bounds, T=0.25, N=2)
    u, _ = solve(build_monotone_scheme(sol.descriptor), spec, sol.fn)
    return sol, spec, u


def test_bundle_core_is_falsifier_only(computed_heat):
    sol, spec, u = computed_heat
    out = run_diagnostics(u, sol.descriptor, falsifier_config=FalsifierConfig(samples=32))
    assert out["delta"] == pytest.approx(2 / 16)
    assert out["falsifier"]["clean"]
    assert out["falsifier"]["super"]["violations"] == 0
    assert out["falsifier"]["sub"]["certificates"] == []
    assert "convolution" not in out and "good_set" not in out and "abp" not in out


def test_bundle_optional_sections(computed_heat):
    sol, spec, u = computed_heat
    box = KBox(((0.5,), 8 * spec.tau), r=1.0)
    out = run_diagnostics(
        u,
        sol.descriptor,
        falsifier_config=FalsifierConfig(samples=8),
        theta=0.05,
        M_values=[1.0, 64.0],
        kbox=box,
        abp=True,
    )
    assert out["convolution"]["checks"]["ordering"]["passed"]
    gs = out["good_set"]
    assert gs["node_count"] > 0
    assert gs["bad_fraction"][-1] <= gs["bad_fraction"][0]
    assert np.isfinite(out["abp"]["ratio"])


def test_bundle_flags_the_drifting_counterexample():
    spec = MeshSpec(h=1 / 8, bounds=[(0.0, 1.0)], T=0.25, N=2)
    v = MeshFunction.from_callable(spec, lambda x, t: -t + 0.0 * x[..., 0])
    out = run_diagnostics(
        v,
        get_problem("heat_sine").descriptor,
        falsifier_config=FalsifierConfig(samples=4, max_violations=10),
    )
    assert not out["falsifier"]["clean"]
    assert out["falsifier"]["super"]["violations"] > 0
    assert all("side=super" in row for row in out["falsifier"]["super"]["certificates"])
