import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import parastep.solver as solver_module
from parastep.errors import SchemeError, SolverConvergenceError
from parastep.geometry import MeshFunction, MeshSpec, quotient_weight, second_quotient_field
from parastep.nonlinearity import NonlinearityDescriptor
from parastep.scheme import (
    TestFunction,
    _InteriorGather,
    build_monotone_scheme,
    consistency_error,
    scheme_residual_field,
)
from parastep.solver import _howard_level, _LevelProblem, residual_sweep, solve

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


# ---------------------------------------------------------------------------
# oracle: the damped fixed-point iteration policy iteration replaced
# ---------------------------------------------------------------------------


def picard_oracle(scheme, spec, boundary, F_h, max_sweeps=100_000):
    """Per level, the damped sweep w <- w - omega tau S_h[w] with
    omega = 1/(1 + tau Lambda0 sum_y 2/|hy|^2).  Monotonicity of F_h makes it
    a sup-norm contraction with factor 1 - omega; it evaluates S_h through
    ``F_h``, the per-table oracle, not through the padded forms policy
    iteration reads.  Same tolerance and warm start as ``solve``; returns
    (values, sweeps per level)."""
    if isinstance(boundary, MeshFunction):
        values = boundary.values.copy()
    else:
        values = MeshFunction.from_callable(spec, boundary).values
    op = _InteriorGather(scheme, spec)
    band = spec.classification().boundary
    tol = 1e-10 * (1.0 + float(np.max(np.abs(values[band]))))
    omega = 1.0 / (
        1.0
        + spec.tau
        * scheme.Lambda0
        * sum(2.0 * quotient_weight(spec.h, y) for y in scheme.stencil.directions)
    )
    sweeps = []
    for m in range(spec.N**2, spec.levels + 1):
        b_flat = values[m - 2].ravel()
        w_flat = values[m - 1].ravel().copy()
        w_flat[op.int_flat] = b_flat[op.int_flat]
        for it in range(1, max_sweeps + 1):
            dtau = (w_flat[op.int_flat] - b_flat[op.int_flat]) / spec.tau
            R = dtau - F_h(scheme, op.quotients(w_flat))
            if np.max(np.abs(R)) <= tol:
                break
            w_flat[op.int_flat] -= omega * spec.tau * R
        else:
            raise AssertionError(f"damped sweep stalled on level {m}")
        sweeps.append(it)
        values[m - 1] = w_flat.reshape(spec.spatial_shape)
    return values, sweeps


def sine_data(lam=1.0):
    return lambda x, t: np.exp(-lam * math.pi**2 * t) * np.sin(math.pi * x[..., 0])


MESH_1D = dict(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)


# ---------------------------------------------------------------------------
# linear problems against the dense oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("route", ["picard", "howard"])
def test_heat_solver_matches_dense_oracle(route, F_h_oracle):
    # the damped-sweep oracle is held to the dense oracle too
    spec = MeshSpec(**MESH_1D)
    heat = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    want = dense_implicit_oracle_1d(spec, sine_data())
    levels = spec.levels - spec.N**2 + 1
    if route == "picard":
        values, sweeps = picard_oracle(heat, spec, sine_data(), F_h_oracle)
        np.testing.assert_allclose(values, want, atol=5e-9)
        assert len(sweeps) == levels
        return
    u, report = solve(heat, spec, sine_data())
    np.testing.assert_allclose(u.values, want, atol=5e-9)
    assert report.max_residual <= report.tol
    assert len(report.iterations) == levels


def test_heat_solver_random_boundary_matches_oracle(rng):
    spec = MeshSpec(**MESH_1D)
    heat = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    coeffs = rng.standard_normal(3)

    def g(x, t):
        s = 0.0 * x[..., 0]
        for j, c in enumerate(coeffs, start=1):
            s = s + c * np.sin(j * math.pi * x[..., 0]) * np.exp(-t * j)
        return s

    u, _ = solve(heat, spec, g)
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
def test_picard_and_howard_agree_on_pucci(kind, rng, F_h_oracle):
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

    up, _ = picard_oracle(sch, spec, g, F_h_oracle)
    uh, _ = solve(sch, spec, g)
    np.testing.assert_allclose(up, uh.values, atol=1e-8)


# ---------------------------------------------------------------------------
# structural properties: constants, comparison, maximum principle
# ---------------------------------------------------------------------------


def test_constants_are_exact_solutions():
    # F(0) = 0 makes constants discrete solutions; the warm start is already
    # one, so every level takes a single policy evaluation
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    u, report = solve(sch, spec, lambda x, t: 3.7 + 0.0 * x[..., 0])
    np.testing.assert_allclose(u.values, 3.7, rtol=0, atol=1e-12)
    assert report.iterations == [1] * (spec.levels - spec.N**2 + 1)


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


def test_heat_2d_picard_howard_agree(F_h_oracle):
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.125, N=2)
    sch = build_monotone_scheme(NonlinearityDescriptor.linear(np.eye(2)))

    def g(x, t):
        return np.exp(-2 * math.pi**2 * t) * np.sin(math.pi * x[..., 0]) * np.sin(
            math.pi * x[..., 1]
        )

    up, _ = picard_oracle(sch, spec, g, F_h_oracle)
    uh, _ = solve(sch, spec, g)
    np.testing.assert_allclose(up, uh.values, atol=1e-8)
    assert residual_sweep(sch, MeshFunction(spec, up))["sup_residual"] <= 1e-9


@pytest.mark.parametrize("h", [1 / 8, 1 / 16])
def test_isaacs_howard_matches_picard(h, F_h_oracle):
    A1 = np.array([[1.0, 0.2], [0.2, 1.5]])
    A2 = np.array([[2.0, -0.3], [-0.3, 1.0]])
    desc = NonlinearityDescriptor.bellman_isaacs([[A1, A2], [np.eye(2), 1.5 * np.eye(2)]])
    sch = build_monotone_scheme(desc)
    assert len(sch.tables) > 1 and max(tab.shape[0] for tab in sch.tables) > 1
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.125, N=2)

    def g(x, t):
        return np.sin(math.pi * x[..., 0]) * np.cos(math.pi * x[..., 1]) * np.exp(-t)

    uh, report = solve(sch, spec, g)
    up, _ = picard_oracle(sch, spec, g, F_h_oracle)
    assert np.max(np.abs(uh.values - up)) <= 1e-9
    assert residual_sweep(sch, uh)["sup_residual"] <= report.tol


# ---------------------------------------------------------------------------
# failure modes and input validation
# ---------------------------------------------------------------------------


def test_howard_stall_raises(rng):
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    coeffs = rng.standard_normal(4)

    def g(x, t):  # sign-changing data: the first level needs several policies
        s = 0.0 * x[..., 0]
        for j, c in enumerate(coeffs, start=1):
            s = s + c * np.sin(j * math.pi * x[..., 0]) * np.exp(-t * j)
        return s

    values = MeshFunction.from_callable(spec, g).values
    lp = _LevelProblem(sch, spec)
    m = spec.N**2
    b_flat = values[m - 2].ravel()
    w_flat = values[m - 1].ravel().copy()
    w_flat[lp.int_flat] = b_flat[lp.int_flat]
    its, _ = _howard_level(lp, w_flat.copy(), b_flat, 1e-10)
    assert its > 1
    with pytest.raises(SolverConvergenceError, match="policy iteration stalled"):
        _howard_level(lp, w_flat.copy(), b_flat, 1e-10, max_policy=1)


def test_boundary_mesh_mismatch():
    spec = MeshSpec(**MESH_1D)
    other = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.125, N=2)
    sch = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    g = MeshFunction(other, np.zeros(other.shape))
    with pytest.raises(SchemeError, match="different mesh"):
        solve(sch, spec, g)


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
        assert np.array_equal(lp.op.quotients(values[m].ravel()), want)


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
    for j in range(len(lp.weights)):
        g = gamma[:, j] * lp.weights[j]
        for nb in (lp.op.plus_flat[j], lp.op.minus_flat[j]):
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


# ---------------------------------------------------------------------------
# low-rank (Woodbury) update of the base factor, against refactoring at
# every policy change (``_RANK = 0``)
# ---------------------------------------------------------------------------


def nonconvex_data(seed=None):
    """Smooth data whose Hessian changes sign inside the unit square: a
    product mode, a cosine mode and a saddle.  A seed moves each amplitude
    within 2 percent."""
    amp = np.ones(3)
    if seed is not None:
        amp += 0.02 * (2.0 * np.random.default_rng(seed).random(3) - 1.0)

    def g(x, t):
        x0, x1 = x[..., 0], x[..., 1]
        return (
            amp[0] * np.sin(math.pi * x0) * np.sin(math.pi * x1) * np.exp(-t)
            + 0.5 * amp[1] * np.cos(2.0 * math.pi * x0 + 1.0) * np.cos(math.pi * x1)
            + 0.3 * amp[2] * (x0 - 0.5) * (x1 - 0.5) * (1.0 + t)
        )

    return g


ISAACS_2D = NonlinearityDescriptor.bellman_isaacs(
    [[np.eye(2), [[2.0, 0.5], [0.5, 1.0]]], [[[1.0, -0.3], [-0.3, 2.0]], 1.5 * np.eye(2)]]
)
UPDATE_CASES = {
    "pucci_plus-2d-h16": (NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2), 1 / 16),
    "isaacs-2d-h8": (ISAACS_2D, 1 / 8),
}


def solve_case(name, monkeypatch=None, rank=None):
    descriptor, h = UPDATE_CASES[name]
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)
    if rank is not None:
        monkeypatch.setattr(solver_module, "_RANK", rank)
    return solve(build_monotone_scheme(descriptor), spec, nonconvex_data())


@pytest.mark.parametrize("name", list(UPDATE_CASES))
def test_update_route_matches_refactor_oracle(name, monkeypatch, splu_calls):
    u, report = solve_case(name)
    updated = len(splu_calls)
    want, want_report = solve_case(name, monkeypatch, rank=0)
    oracle = len(splu_calls) - updated
    # the update route ran, and every level took the oracle's iterations
    assert 0 < updated < oracle <= want_report.total_iterations()
    assert report.iterations == want_report.iterations
    np.testing.assert_allclose(u.values, want.values, rtol=0, atol=1e-12)
    assert report.max_residual <= report.tol


@pytest.mark.parametrize("n", [1, 2])
def test_linear_solve_is_unchanged_by_the_update_route(n, monkeypatch):
    spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)] * n, T=0.25, N=2)
    heat = build_monotone_scheme(NonlinearityDescriptor.linear(np.eye(n)))
    g = nonconvex_data() if n == 2 else sine_data()
    u, report = solve(heat, spec, g)
    monkeypatch.setattr(solver_module, "_RANK", 0)
    want, want_report = solve(heat, spec, g)
    assert np.array_equal(u.values, want.values)
    assert report.iterations == want_report.iterations


def test_pucci_2d_factor_count(splu_calls):
    # seeded non-convex data as in the benchmark's march workload: 305
    # factorizations when every policy change refactored
    spec = MeshSpec(h=1 / 32, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2))
    u, report = solve(sch, spec, nonconvex_data(seed=21))
    assert report.total_iterations() > 400
    assert len(splu_calls) <= 80
    assert residual_sweep(sch, u)["sup_residual"] <= report.tol


def random_level(name, rng):
    """The scheme and mesh of ``name``, with random level data (w, b)."""
    descriptor, h = UPDATE_CASES[name]
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.125, N=2)
    values = rng.standard_normal((2,) + spec.spatial_shape)
    return build_monotone_scheme(descriptor), spec, values[1].ravel(), values[0].ravel()


def level_solution(lp, policy, w_flat, b_flat):
    """The level equation of ``policy`` solved by a fresh sparse solve."""
    coef = lp.flat_forms[policy] * lp.weights
    x = w_flat.copy()
    x[lp.int_flat] = sp.linalg.spsolve(lp.matrix(coef), lp.rhs(coef, w_flat, b_flat))
    return x


def test_update_solves_the_changed_system(splu_calls, rng):
    scheme, spec, w_flat, b_flat = random_level("pucci_plus-2d-h16", rng)
    lp = _LevelProblem(scheme, spec)
    forms = lp.flat_forms.shape[0]
    base = rng.integers(0, forms, lp.K)
    lp.evaluate(base, w_flat.copy(), b_flat)
    # ranks up to the cap, each changed row drawn afresh from a few rows so
    # that the cache both hits and grows
    pool = rng.choice(lp.K, solver_module._RANK + 8, replace=False)
    for r in [1, 2, 5, solver_module._RANK, 3]:
        policy = base.copy()
        rows = rng.choice(pool, r, replace=False)
        policy[rows] = (policy[rows] + rng.integers(1, forms, r)) % forms
        x = w_flat.copy()
        lp.evaluate(policy, x, b_flat)
        want = level_solution(lp, policy, w_flat, b_flat)
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
        assert lp._cached <= solver_module._CACHE
    assert len(splu_calls) == 1
    # one changed row more than the rank cap refactors
    policy = base.copy()
    policy[pool] = (policy[pool] + 1) % forms
    lp.evaluate(policy, w_flat.copy(), b_flat)
    assert len(splu_calls) == 2 and lp._base_policy is policy and lp._cached == 0


@pytest.mark.parametrize("cap", [None, 8])
def test_column_cache_stays_under_its_cap(cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(solver_module, "_CACHE", cap)
    cap = solver_module._CACHE
    held = []
    evaluate = _LevelProblem.evaluate

    def recording(self, *args):
        evaluate(self, *args)
        held.append(self._cached)
        assert self._Z is None or self._Z.shape == (self.K, cap)

    monkeypatch.setattr(_LevelProblem, "evaluate", recording)
    u, report = solve_case("pucci_plus-2d-h16")
    assert 0 < max(held) <= cap
    monkeypatch.setattr(_LevelProblem, "evaluate", evaluate)
    want, want_report = solve_case("pucci_plus-2d-h16", monkeypatch, rank=0)
    assert report.iterations == want_report.iterations
    np.testing.assert_allclose(u.values, want.values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("failure", ["raise", "nan"])
def test_failed_capacitance_solve_refactors(failure, monkeypatch, splu_calls, rng):
    scheme, spec, w_flat, b_flat = random_level("isaacs-2d-h8", rng)
    lp = _LevelProblem(scheme, spec)
    forms = lp.flat_forms.shape[0]
    base = rng.integers(0, forms, lp.K)
    lp.evaluate(base, w_flat.copy(), b_flat)
    failed = []
    linalg_solve = np.linalg.solve

    def failing_once(*args):
        if failed:
            return linalg_solve(*args)
        failed.append(1)
        if failure == "raise":
            raise np.linalg.LinAlgError("singular matrix")
        return np.full_like(args[1], np.nan)

    monkeypatch.setattr(np.linalg, "solve", failing_once)
    policy = base.copy()
    policy[:3] = (policy[:3] + 1) % forms
    x = w_flat.copy()
    lp.evaluate(policy, x, b_flat)
    assert failed and len(splu_calls) == 2 and lp._base_policy is policy
    # the oracle's answer: the refactor route factors the new policy afresh
    want = w_flat.copy()
    _LevelProblem(scheme, spec).evaluate(policy, want, b_flat)
    assert np.array_equal(x, want)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_bad_tol_is_refused_up_front(tol):
    # a negative or NaN tol used to run 60 policy iterations on the first
    # level and then report a stall at a residual near 1e-14
    spec = MeshSpec(**MESH_1D)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    with pytest.raises(SchemeError, match="tol must be a finite positive number"):
        solve(sch, spec, sine_data(), tol=tol)


# ---------------------------------------------------------------------------
# frozen-policy blocks, against the per-level route (``_BLOCK = 0``)
# ---------------------------------------------------------------------------


@pytest.fixture
def block_log(monkeypatch):
    """Record (level, block length, levels accepted) per block and
    (level, evaluations) per Howard level."""
    log = {"blocks": [], "howard": []}
    frozen_block, howard_level = solver_module._frozen_block, solver_module._howard_level

    def block(lp, flat, m, length, tol):
        resid = frozen_block(lp, flat, m, length, tol)
        log["blocks"].append((m, length, resid.size))
        return resid

    def howard(*args, **kwargs):
        its, resid = howard_level(*args, **kwargs)
        log["howard"].append((kwargs["level"], its))
        return its, resid

    monkeypatch.setattr(solver_module, "_frozen_block", block)
    monkeypatch.setattr(solver_module, "_howard_level", howard)
    return log


def assert_same_as_per_level_route(monkeypatch, log, scheme, spec, g, tol=None):
    """Values and report of the block route are the per-level route's bit
    for bit; ``log`` keeps the block route's calls only."""
    budget = solver_module._BLOCK
    monkeypatch.setattr(solver_module, "_BLOCK", 0)
    want, want_report = solve(scheme, spec, g, tol=tol)
    monkeypatch.setattr(solver_module, "_BLOCK", budget)
    for calls in log.values():
        calls.clear()
    u, report = solve(scheme, spec, g, tol=tol)
    assert np.array_equal(u.values, want.values)
    assert report.iterations == want_report.iterations
    assert report.max_residual == want_report.max_residual
    assert report.max_residual <= report.tol


BLOCK_CASES = {
    "heat-1d-h32": (NonlinearityDescriptor.linear([[1.0]]), 1 / 32, sine_data()),
    "heat-2d-h16": (NonlinearityDescriptor.linear(np.eye(2)), 1 / 16, nonconvex_data()),
    "pucci_plus_concave-1d-h64": (NonlinearityDescriptor.pucci_plus(1.0, 2.0), 1 / 64, sine_data()),
    "pucci_plus-2d-h16": (NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2), 1 / 16, nonconvex_data()),
    "isaacs-2d-h8": (ISAACS_2D, 1 / 8, nonconvex_data()),
}


@pytest.mark.parametrize("name", list(BLOCK_CASES))
def test_block_route_matches_per_level_route(name, monkeypatch, block_log):
    descriptor, h, g = BLOCK_CASES[name]
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * descriptor.dimension, T=0.25, N=2)
    assert_same_as_per_level_route(monkeypatch, block_log, build_monotone_scheme(descriptor), spec, g)
    accepted = sum(n for _, _, n in block_log["blocks"])
    if name.startswith(("heat", "pucci_plus_concave")):
        # only the first level is Howard's; blocks take all the rest
        assert block_log["howard"][0] == (spec.N**2, 1)
        assert accepted == spec.levels - spec.N**2
    else:
        # the policy moves under non-convex data: no level of these is a
        # one-evaluation level of the base factor's own policy
        assert block_log["blocks"] == []


def test_rejected_level_restarts_howard_at_that_level(monkeypatch, block_log):
    # the band data jumps from a concave profile to a constant at t = 1/8:
    # the frozen concave policy fails at level 32, the first level after it
    spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))

    def g(x, t):
        return np.where(np.asarray(t) < 0.125, 0.2 + x[..., 0] * (1.0 - x[..., 0]), 5.0)

    assert_same_as_per_level_route(monkeypatch, block_log, sch, spec, g)
    first, length, accepted = block_log["blocks"][0]
    assert (first, accepted) == (5, 27) and length > accepted  # levels 5-31
    # Howard takes level 32 straight away, in two evaluations, and no block
    # is tried there
    assert block_log["howard"][:2] == [(4, 1), (32, 2)]
    assert all(m != 32 for m, _, _ in block_log["blocks"])


@pytest.mark.parametrize("tol", [None, 1.0])
def test_block_rejects_a_level_whose_first_policy_moves(tol, monkeypatch, block_log):
    # the profile's amplitude changes sign in time, and the policy with it.
    # At tol = 1 every frozen solution passes the residual test, so only the
    # policy test at the warm starts keeps the blocks on Howard's route
    spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
    sch = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))

    def g(x, t):
        return (0.3 + np.cos(8.0 * math.pi * t)) * np.sin(math.pi * x[..., 0])

    assert_same_as_per_level_route(monkeypatch, block_log, sch, spec, g, tol=tol)
    assert any(accepted < length for _, length, accepted in block_log["blocks"])


def test_stall_names_the_same_level_on_both_routes(monkeypatch):
    # a tol just under the largest level residual: the first level above it
    # stalls, in the middle of a block
    spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
    heat = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    _, report = solve(heat, spec, sine_data())
    messages = []
    for budget in [solver_module._BLOCK, 0]:
        monkeypatch.setattr(solver_module, "_BLOCK", budget)
        for tol in [1e-30, 0.999 * report.max_residual]:
            with pytest.raises(SolverConvergenceError, match="policy iteration stalled at level") as exc:
                solve(heat, spec, sine_data(), tol=tol)
            messages.append(str(exc.value))
    assert messages[:2] == messages[2:]
    assert messages[0].startswith("policy iteration stalled at level 4 (t=0.01562) at residual")
    level = int(messages[1].split()[5])
    assert spec.N**2 + 1 < level <= spec.levels


@pytest.mark.parametrize("budget", [None, 256 << 10])
def test_block_scratch_stays_under_its_budget(budget, monkeypatch):
    # heat 2D h=1/32: blocks of 43 levels at the 4 MiB default and of 2 at
    # 256 KiB; the traced peak was 0.64 and 0.59 of the budget
    if budget is not None:
        monkeypatch.setattr(solver_module, "_BLOCK", budget)
    budget = solver_module._BLOCK
    spec = MeshSpec(h=1 / 32, bounds=[(0.0, 1.0)] * 2, T=0.25, N=2)
    heat = build_monotone_scheme(NonlinearityDescriptor.linear(np.eye(2)))
    peaks = []
    frozen_block = solver_module._frozen_block

    def traced(*args):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        resid = frozen_block(*args)
        peaks.append((tracemalloc.get_traced_memory()[1] - held, args[3]))
        return resid

    monkeypatch.setattr(solver_module, "_frozen_block", traced)
    tracemalloc.start()
    try:
        solve(heat, spec, nonconvex_data())
    finally:
        tracemalloc.stop()
    lengths = {length for _, length in peaks}
    assert max(lengths) == solver_module._block_length(_LevelProblem(heat, spec)) >= 2
    assert 0 < max(peak for peak, _ in peaks) <= budget
