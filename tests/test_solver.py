import math

import numpy as np
import pytest
import scipy.sparse as sp

import parastep.solver as solver_module
from parastep.errors import SchemeError, SolverConvergenceError
from parastep.geometry import MeshFunction, MeshSpec
from parastep.nonlinearity import NonlinearityDescriptor
from parastep.scheme import (
    TestFunction,
    build_monotone_scheme,
    consistency_error,
    scheme_residual_field,
    second_quotient_field,
)
from parastep.solver import _LevelProblem, residual_sweep, solve

# ---------------------------------------------------------------------------
# oracle: dense implicit Euler for linear 1D problems
# ---------------------------------------------------------------------------


def dense_implicit_oracle_1d(spec, g, coeff=1.0):
    """March (w - b)/tau = coeff * delta2 w with a dense np.linalg.solve per
    level.  Assembles the tridiagonal system explicitly from the equations,
    independent of the package's index plumbing."""
    vals = MeshFunction.from_callable(spec, g).values.copy()
    h, tau = spec.h, spec.tau
    xs = spec.axis_coords(0)
    lat_ok = np.minimum(xs - spec.bounds[0][0], spec.bounds[0][1] - xs) >= spec.N * h - 1e-12
    unk = np.flatnonzero(lat_ok)
    K = unk.size
    for m in range(spec.N**2, spec.levels + 1):
        b = vals[m - 2]
        row = vals[m - 1].copy()
        A = np.zeros((K, K))
        rhs = np.zeros(K)
        for a, k in enumerate(unk):
            A[a, a] = 1.0 / tau + 2.0 * coeff / h**2
            rhs[a] = b[k] / tau
            for nb in (k - 1, k + 1):
                pos = np.where(unk == nb)[0]
                if pos.size:
                    A[a, pos[0]] -= coeff / h**2
                else:
                    rhs[a] += coeff / h**2 * row[nb]
        row[unk] = np.linalg.solve(A, rhs)
        vals[m - 1] = row
    return vals


def sine_data(lam=1.0):
    return lambda x, t: np.exp(-lam * math.pi**2 * t) * np.sin(math.pi * x[..., 0])


MESH_1D = dict(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)


# ---------------------------------------------------------------------------
# linear problems against the dense oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["picard", "howard"])
def test_heat_solver_matches_dense_oracle(method):
    spec = MeshSpec(**MESH_1D)
    heat = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    u, report = solve(heat, spec, sine_data(), method=method)
    want = dense_implicit_oracle_1d(spec, sine_data())
    np.testing.assert_allclose(u.values, want, atol=5e-9)
    assert report.method == method
    assert report.max_residual <= report.tol
    assert len(report.iterations) == spec.levels - spec.N**2 + 1


def test_heat_solver_random_boundary_matches_oracle(rng):
    spec = MeshSpec(**MESH_1D)
    heat = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    coeffs = rng.standard_normal(3)

    def g(x, t):
        s = 0.0 * x[..., 0]
        for j, c in enumerate(coeffs, start=1):
            s = s + c * np.sin(j * math.pi * x[..., 0]) * np.exp(-t * j)
        return s

    u, _ = solve(heat, spec, g, method="howard")
    np.testing.assert_allclose(u.values, dense_implicit_oracle_1d(spec, g), atol=5e-9)


def test_scaled_heat_uses_coefficient():
    # F(X) = tr(2X): the oracle with coeff=2 must match, coeff=1 must not
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.linear([[2.0]]))
    u, _ = solve(sch, spec, sine_data())
    np.testing.assert_allclose(u.values, dense_implicit_oracle_1d(spec, sine_data(), 2.0), atol=5e-9)
    wrong = dense_implicit_oracle_1d(spec, sine_data(), 1.0)
    assert np.max(np.abs(u.values - wrong)) > 1e-3


# ---------------------------------------------------------------------------
# Pucci problems: regime reduction to linear solves
# ---------------------------------------------------------------------------


def test_pucci_plus_concave_profile_reduces_to_lambda_heat():
    # data concave in x keeps every second quotient <= 0, where
    # max(lam r, Lam r) = lam r: the nonlinear solve must coincide with the
    # lam-coefficient linear solve
    spec = MeshSpec(**MESH_1D)
    plus = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    u, _ = solve(plus, spec, sine_data(1.0))
    want = dense_implicit_oracle_1d(spec, sine_data(1.0), coeff=1.0)
    np.testing.assert_allclose(u.values, want, atol=5e-9)
    q = second_quotient_field(u.values, spec, (1,))
    assert np.nanmax(q[:, 1:-1]) <= 1e-9


def test_pucci_minus_concave_profile_reduces_to_Lambda_heat():
    spec = MeshSpec(**MESH_1D)
    minus = build_monotone_scheme(NonlinearityDescriptor.pucci_minus(1.0, 2.0))
    u, _ = solve(minus, spec, sine_data(2.0))
    want = dense_implicit_oracle_1d(spec, sine_data(2.0), coeff=2.0)
    np.testing.assert_allclose(u.values, want, atol=5e-9)


@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_picard_and_howard_agree_on_pucci(kind, rng):
    spec = MeshSpec(**MESH_1D)
    desc = (
        NonlinearityDescriptor.pucci_plus(1.0, 2.0)
        if kind == "plus"
        else NonlinearityDescriptor.pucci_minus(1.0, 2.0)
    )
    sch = build_monotone_scheme(desc)
    coeffs = rng.standard_normal(4)

    def g(x, t):  # sign-changing data exercises both slope regimes
        s = 0.0 * x[..., 0]
        for j, c in enumerate(coeffs, start=1):
            s = s + c * np.sin(j * math.pi * x[..., 0]) * np.exp(-t * j)
        return s

    up, rp = solve(sch, spec, g, method="picard")
    uh, rh = solve(sch, spec, g, method="howard")
    np.testing.assert_allclose(up.values, uh.values, atol=1e-8)
    assert rp.omega is not None and 0 < rp.omega < 1
    assert rh.omega is None


# ---------------------------------------------------------------------------
# structural properties: constants, comparison, maximum principle
# ---------------------------------------------------------------------------


def test_constants_are_exact_solutions():
    # F(0) = 0 makes constants discrete solutions; the warm start is already
    # a fixed point, so picard should do single-sweep levels
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    u, report = solve(sch, spec, lambda x, t: 3.7 + 0.0 * x[..., 0], method="picard")
    np.testing.assert_allclose(u.values, 3.7, rtol=0, atol=1e-12)
    assert report.iterations == [1] * len(report.iterations)


def test_discrete_comparison_principle(rng):
    # g1 <= g2 on the band implies u1 <= u2 everywhere (monotone scheme)
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    for _ in range(10):
        c = rng.standard_normal(3)
        d = rng.uniform(0.0, 1.0, size=3)

        def g1(x, t, c=c):
            return (
                c[0] * np.sin(math.pi * x[..., 0])
                + c[1] * np.cos(2 * math.pi * x[..., 0]) * np.exp(-t)
                + c[2] * x[..., 0]
            )

        def g2(x, t, c=c, d=d):
            bump = d[0] + d[1] * np.sin(math.pi * x[..., 0]) ** 2 + d[2] * t
            return g1(x, t, c) + bump

        u1, _ = solve(sch, spec, g1)
        u2, _ = solve(sch, spec, g2)
        assert np.all(u1.values <= u2.values + 1e-9)


def test_discrete_maximum_principle(rng):
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_minus(1.0, 2.0))
    vals = rng.standard_normal(spec.shape)
    g = MeshFunction(spec, vals)
    u, _ = solve(sch, spec, g)
    band = spec.classification().boundary
    lo, hi = float(vals[band].min()), float(vals[band].max())
    assert np.all(u.values >= lo - 1e-9)
    assert np.all(u.values <= hi + 1e-9)


def test_solution_residual_is_small():
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    u, report = solve(sch, spec, sine_data())
    sweep = residual_sweep(sch, u)
    assert sweep["sup_residual"] <= report.tol
    assert sweep["interior_nodes"] == int(spec.classification().interior.sum())


# ---------------------------------------------------------------------------
# 2D and mixed min-max schemes
# ---------------------------------------------------------------------------


def test_heat_2d_picard_howard_agree():
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.125, N=2)
    sch = build_monotone_scheme(NonlinearityDescriptor.linear(np.eye(2)))

    def g(x, t):
        return np.exp(-2 * math.pi**2 * t) * np.sin(math.pi * x[..., 0]) * np.sin(
            math.pi * x[..., 1]
        )

    up, _ = solve(sch, spec, g, method="picard")
    uh, _ = solve(sch, spec, g, method="howard")
    np.testing.assert_allclose(up.values, uh.values, atol=1e-8)
    assert residual_sweep(sch, up)["sup_residual"] <= 1e-9


@pytest.mark.parametrize("h", [1 / 8, 1 / 16])
def test_isaacs_howard_matches_picard(h):
    A1 = np.array([[1.0, 0.2], [0.2, 1.5]])
    A2 = np.array([[2.0, -0.3], [-0.3, 1.0]])
    desc = NonlinearityDescriptor.bellman_isaacs([[A1, A2], [np.eye(2), 1.5 * np.eye(2)]])
    sch = build_monotone_scheme(desc)
    assert len(sch.tables) > 1 and max(tab.shape[0] for tab in sch.tables) > 1
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.125, N=2)

    def g(x, t):
        return np.sin(math.pi * x[..., 0]) * np.cos(math.pi * x[..., 1]) * np.exp(-t)

    uh, report = solve(sch, spec, g)  # auto -> howard
    assert report.method == "howard"
    up, _ = solve(sch, spec, g, method="picard")
    assert np.max(np.abs(uh.values - up.values)) <= 1e-9
    assert residual_sweep(sch, uh)["sup_residual"] <= report.tol


# ---------------------------------------------------------------------------
# failure modes and input validation
# ---------------------------------------------------------------------------


def test_iteration_cap_raises():
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    with pytest.raises(SolverConvergenceError, match="residual"):
        solve(sch, spec, sine_data(), method="picard", max_iterations=2)


def test_boundary_mesh_mismatch():
    spec = MeshSpec(**MESH_1D)
    other = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.125, N=2)
    sch = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    g = MeshFunction(other, np.zeros(other.shape))
    with pytest.raises(SchemeError, match="different mesh"):
        solve(sch, spec, g)


def test_unknown_method_rejected():
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    with pytest.raises(SchemeError):
        solve(sch, spec, sine_data(), method="newton")


def test_dimension_mismatch_rejected():
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.linear(np.eye(2)))
    with pytest.raises(SchemeError, match="dimension"):
        solve(sch, spec, lambda x, t: 0.0 * x[..., 0])


@pytest.mark.parametrize(
    "scheme_n, scheme_N, mesh_n",
    [(1, 2, 2), (2, 2, 1), (1, 3, 1)],
    ids=["1d-scheme-2d-mesh", "2d-scheme-1d-mesh", "reach-beyond-band"],
)
def test_residual_rejects_scheme_mesh_mismatch(scheme_n, scheme_N, mesh_n):
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)] * mesh_n, T=0.25, N=2)
    sch = build_monotone_scheme(NonlinearityDescriptor.linear(np.eye(scheme_n)), N=scheme_N)
    phi = TestFunction.class_P(np.zeros(mesh_n), 1.0, np.zeros(mesh_n), np.eye(mesh_n))
    u = MeshFunction.from_callable(spec, phi.fn)
    with pytest.raises(SchemeError):
        solve(sch, spec, phi.fn)
    with pytest.raises(SchemeError):
        scheme_residual_field(sch, u)
    with pytest.raises(SchemeError):
        residual_sweep(sch, u)
    with pytest.raises(SchemeError):
        consistency_error(sch, phi, spec)


@pytest.mark.parametrize(
    "descriptor",
    [
        NonlinearityDescriptor.linear([[1.0, 0.3], [0.3, 0.8]]),
        NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2),
        NonlinearityDescriptor.pucci_minus(1.0, 2.0, 1),
    ],
    ids=lambda d: f"{d.kind}-{d.dimension}d",
)
def test_level_quotients_equal_quotient_field_bitwise(descriptor, rng):
    n = descriptor.dimension
    spec = MeshSpec(h=1 / 12, bounds=[(0.0, 1.0)] * n, T=8 / 144, N=2)
    sch = build_monotone_scheme(descriptor)
    values = rng.standard_normal(spec.shape)
    lp = _LevelProblem(sch, spec)
    cols = spec.classification().interior_columns
    fields = [second_quotient_field(values, spec, y) for y in sch.stencil.directions]
    for m in range(spec.levels):
        want = np.stack([f[m][cols] for f in fields], axis=-1)
        assert np.array_equal(lp.quotients(values[m].ravel()), want)


# ---------------------------------------------------------------------------
# policy evaluation: fixed sparsity pattern and factor reuse
# ---------------------------------------------------------------------------


def coo_level_system(lp, gamma, w_flat, b_flat):
    """The level system of per-node forms ``gamma`` (K, ndir), assembled as a
    fresh COO matrix the way the solver did before it kept a fixed pattern."""
    K, tau = lp.K, lp.spec.tau
    diag = 1.0 / tau + 2.0 * (gamma * lp.weights).sum(axis=1)
    rows, cols, data = [np.arange(K)], [np.arange(K)], [diag]
    rhs = b_flat[lp.int_flat] / tau
    for j in range(len(lp.dirs)):
        g = gamma[:, j] * lp.weights[j]
        for nb in (lp.plus_flat[j], lp.minus_flat[j]):
            nb_id = lp.inv[nb]
            inside = nb_id >= 0
            rows.append(np.arange(K)[inside])
            cols.append(nb_id[inside])
            data.append(-g[inside])
            rhs = rhs + np.where(inside, 0.0, g * w_flat[nb])
    A = sp.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(K, K)
    )
    return A, rhs


@pytest.mark.parametrize(
    "descriptor",
    [
        NonlinearityDescriptor.pucci_plus(1.0, 2.0, 1),
        NonlinearityDescriptor.bellman_isaacs(
            [[np.eye(2), [[2.0, 0.5], [0.5, 1.0]]], [[[1.0, -0.3], [-0.3, 2.0]], 1.5 * np.eye(2)]]
        ),
    ],
    ids=lambda d: f"{d.kind}-{d.dimension}d",
)
def test_fixed_pattern_system_equals_coo_assembly(descriptor, rng):
    n = descriptor.dimension
    spec = MeshSpec(h=1 / 8, bounds=[(0.0, 1.0)] * n, T=0.125, N=2)
    lp = _LevelProblem(build_monotone_scheme(descriptor), spec)
    # boundary-adjacent unknowns read out-of-mesh neighbours into the rhs
    assert lp.inside.any() and not lp.inside.all()
    for _ in range(5):
        values = rng.standard_normal((2,) + spec.spatial_shape)
        w_flat, b_flat = values[1].ravel(), values[0].ravel()
        policy = rng.integers(0, lp.flat_forms.shape[0], lp.K)
        gamma = lp.flat_forms[policy]
        want_A, want_rhs = coo_level_system(lp, gamma, w_flat, b_flat)
        coef = gamma * lp.weights
        assert np.array_equal(lp.matrix(coef).toarray(), want_A.toarray())
        assert np.array_equal(lp.rhs(coef, w_flat, b_flat), want_rhs)


@pytest.fixture
def splu_calls(monkeypatch):
    calls = []
    splu = solver_module.spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(solver_module.spla, "splu", counting)
    return calls


def test_linear_solve_factors_once(splu_calls):
    spec = MeshSpec(h=1 / 32, bounds=[(0.0, 1.0)], T=0.25, N=2)
    heat = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    _, report = solve(heat, spec, sine_data())
    assert len(report.iterations) == spec.levels - spec.N**2 + 1 > 200
    assert len(splu_calls) == 1


def test_pucci_factors_at_most_once_per_policy(splu_calls, rng):
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    coeffs = rng.standard_normal(4)

    def g(x, t):
        s = 0.0 * x[..., 0]
        for j, c in enumerate(coeffs, start=1):
            s = s + c * np.sin(j * math.pi * x[..., 0]) * np.exp(-t * j)
        return s

    _, report = solve(sch, spec, g)
    assert 0 < len(splu_calls) <= report.total_iterations()
