import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parastep.errors import SchemeError
from parastep.geometry import MeshFunction, MeshSpec, second_quotient_field, shift
from parastep.nonlinearity import NonlinearityDescriptor, evaluate_F
from parastep import scheme as scheme_module
from parastep.scheme import (
    SchemeDescriptor,
    _form_max,
    _InteriorGather,
    _min_max,
    _sweep,
    Stencil,
    TestFunction,
    build_monotone_scheme,
    check_monotonicity,
    consistency_error,
    consistency_fit,
    scheme_residual_field,
)
from parastep.solver import residual_sweep

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def pucci2d_frame_oracle(X, lam, Lam, sign):
    """Enumerate the 2D min-max family directly: two orthogonal frames (axes
    and the rotated-by-45-degrees pair), each frame weighted by all four
    (a, b) in {lam, Lam}^2.  Independent of the coefficient-table machinery."""
    frames = [
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
        [np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)],
    ]
    vals = []
    for w1, w2 in frames:
        q1, q2 = float(w1 @ X @ w1), float(w2 @ X @ w2)
        for a in (lam, Lam):
            for b in (lam, Lam):
                vals.append(a * q1 + b * q2)
    return max(vals) if sign > 0 else min(vals)


def quotient_vector(scheme, X):
    """Second quotients of the pure quadratic x -> x.(X/2).x: exactly the
    frame evaluations yhat.X.yhat (symmetric quotients kill odd terms)."""
    out = []
    for y in scheme.stencil.directions:
        v = np.asarray(y, dtype=float)
        v /= np.linalg.norm(v)
        out.append(float(v @ X @ v))
    return np.array(out)


def heat_sine_consistency_oracle(spec):
    """Closed-form sup consistency error of the 1D heat scheme on
    e^{-pi^2 t} sin(pi x): separability gives

        S_h[u](x,t) = e^{-pi^2 t} sin(pi x) * bracket(h),
        bracket(h) = (1 - e^{pi^2 h^2})/h^2 - (2 cos(pi h) - 2)/h^2,

    and u_t - u_xx = 0, so the error is |bracket| * max over the interior of
    the amplitude factor."""
    h, tau = spec.h, spec.tau
    bracket = (1 - math.exp(math.pi**2 * tau)) / tau - (2 * math.cos(math.pi * h) - 2) / h**2
    interior = spec.classification().interior
    best = 0.0
    for idx in spec.node_indices():
        if not interior[spec.offset(idx)]:
            continue
        p = spec.node_point(idx)
        best = max(best, math.exp(-math.pi**2 * p.t) * abs(math.sin(math.pi * p.x[0])))
    return best * abs(bracket)


def reconstruct_matrix(scheme, row):
    """sum_y gamma_y yhat yhat^T for one coefficient row -- the identity a
    linear decomposition must satisfy."""
    n = scheme.stencil.n
    A = np.zeros((n, n))
    for g, y in zip(row, scheme.stencil.directions):
        v = np.asarray(y, dtype=float)
        v /= np.linalg.norm(v)
        A += g * np.outer(v, v)
    return A


MESH_1D = dict(h=0.125, bounds=[(0.0, 1.0)], T=0.5, N=2)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def time_quotient_field(u):
    """delta_tau^- over the whole mesh, as ``scheme_residual_field`` forms it."""
    return (u.values - shift(u.values, (-1,) + (0,) * u.spec.n)) / u.spec.tau


def test_delta_tau_minus_on_t_squared():
    # (t^2 - (t-tau)^2)/tau = 2t - tau, exactly; delta^2 t^2 = 0, so the heat
    # residual is the time quotient on the interior levels
    spec = MeshSpec(**MESH_1D)
    u = MeshFunction.from_callable(spec, lambda x, t: t**2)
    dtau = time_quotient_field(u)
    res = scheme_residual_field(build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]])), u)
    for m in (2, 8, 20):
        t = m * spec.tau
        assert dtau[spec.offset((4, m))] == pytest.approx(2 * t - spec.tau, rel=1e-12)
    for m in (8, 20):
        t = m * spec.tau
        assert res[spec.offset((4, m))] == pytest.approx(2 * t - spec.tau, rel=1e-12)


def test_delta2_on_quadratic_is_exact():
    spec = MeshSpec(**MESH_1D)
    u = MeshFunction.from_callable(spec, lambda x, t: 3.0 * x[..., 0] ** 2 + 2.0 * x[..., 0] + 1.0)
    # second quotient of a quadratic equals the second derivative exactly
    q = second_quotient_field(u.values, spec, (1,))
    assert q[spec.offset((4, 8))] == pytest.approx(6.0, rel=1e-12)


def test_delta2_on_quartic_frozen():
    # ((x+h)^4 + (x-h)^4 - 2x^4)/h^2 = 12 x^2 + 2 h^2; at x=1/2, h=1/8: 3.03125
    spec = MeshSpec(**MESH_1D)
    u = MeshFunction.from_callable(spec, lambda x, t: x[..., 0] ** 4)
    q = second_quotient_field(u.values, spec, (1,))
    assert q[spec.offset((4, 8))] == pytest.approx(3.03125, rel=1e-13)


def test_delta2_diagonal_direction_reads_mixed_entry():
    # u = x1^2 + 3 x1 x2 has Hessian [[2,3],[3,0]]; quotients along the four
    # canonical directions evaluate yhat.H.yhat
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)
    u = MeshFunction.from_callable(
        spec, lambda x, t: x[..., 0] ** 2 + 3.0 * x[..., 0] * x[..., 1]
    )
    off = spec.offset((4, 4, 8))

    def q(y):
        return second_quotient_field(u.values, spec, y)[off]

    assert q((1, 0)) == pytest.approx(2.0, rel=1e-12)
    assert q((0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert q((1, 1)) == pytest.approx(4.0, rel=1e-12)
    assert q((1, -1)) == pytest.approx(-2.0, rel=1e-12)


def test_quotient_fields_are_nan_off_mesh():
    spec = MeshSpec(**MESH_1D)
    u = MeshFunction.from_callable(spec, lambda x, t: 0.0 * x[..., 0])
    # the predecessor of level m=1 is not on the mesh
    assert np.isnan(time_quotient_field(u)[spec.offset((4, 1))])
    # x - 2h leaves the box
    assert np.isnan(second_quotient_field(u.values, spec, (2,))[spec.offset((1, 8))])
    with pytest.raises(SchemeError, match="zero vector"):
        Stencil(n=1, N=2, directions=((0,),))


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


def test_stencil_make():
    assert Stencil.make(1).directions == ((1,),)
    assert Stencil.make(2).directions == ((1, 0), (0, 1), (1, 1), (1, -1))
    s3 = Stencil.make(3)
    assert len(s3.directions) == 3 + 6
    for y in s3.directions:
        assert 0 < sum(c * c for c in y) < 9


def test_stencil_validation():
    with pytest.raises(SchemeError):
        Stencil(n=1, N=2, directions=((2,),))  # |y| = 2 not < N
    with pytest.raises(SchemeError):
        Stencil(n=1, N=2, directions=((-1,),))  # not canonical
    with pytest.raises(SchemeError):
        Stencil(n=2, N=2, directions=((1, 0), (1, 0)))  # duplicate
    with pytest.raises(SchemeError):
        Stencil(n=1, N=2, directions=())
    with pytest.raises(SchemeError):
        Stencil(n=1, N=1, directions=((1,),))


def test_build_requires_axes_in_stencil():
    desc = NonlinearityDescriptor.linear(np.eye(2))
    lean = Stencil(n=2, N=2, directions=((1, 0), (1, 1), (1, -1)))
    with pytest.raises(SchemeError, match="axis"):
        build_monotone_scheme(desc, stencil=lean)


# ---------------------------------------------------------------------------
# building schemes: linear
# ---------------------------------------------------------------------------


def test_heat_1d_scheme():
    scheme = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    assert scheme.stencil.directions == ((1,),)
    assert scheme.lambda0 == scheme.Lambda0 == 1.0
    assert scheme.F_h(np.array([3.5])) == pytest.approx(3.5)


def test_linear_2d_decomposition_reconstructs_matrix():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    scheme = build_monotone_scheme(NonlinearityDescriptor.linear(A))
    (table,) = scheme.tables
    assert table.shape[0] == 1
    np.testing.assert_allclose(reconstruct_matrix(scheme, table[0]), A, atol=1e-14)
    # negative off-diagonal rides on the other diagonal
    B = np.array([[2.0, -0.5], [-0.5, 1.0]])
    schB = build_monotone_scheme(NonlinearityDescriptor.linear(B))
    np.testing.assert_allclose(reconstruct_matrix(schB, schB.tables[0][0]), B, atol=1e-14)
    assert (1, -1) in schB.stencil.directions
    assert (1, 1) not in schB.stencil.directions  # pruned: coefficient is zero


def test_heat_2d_scheme_prunes_diagonals():
    scheme = build_monotone_scheme(NonlinearityDescriptor.linear(np.eye(2)))
    assert scheme.stencil.directions == ((1, 0), (0, 1))
    assert scheme.lambda0 == scheme.Lambda0 == 1.0


def test_linear_decomposition_random_spd(rng):
    # random diagonally dominant SPD matrices reconstruct exactly
    for _ in range(20):
        d = rng.uniform(0.5, 2.0, size=2)
        b = rng.uniform(-1, 1) * min(d) * 0.9
        A = np.array([[d[0] + abs(b), b], [b, d[1] + abs(b)]])
        scheme = build_monotone_scheme(NonlinearityDescriptor.linear(A))
        np.testing.assert_allclose(
            reconstruct_matrix(scheme, scheme.tables[0][0]), A, atol=1e-12
        )


def test_linear_not_representable_raises():
    # PD but far from diagonally dominant: row 2 has 0.25 < |0.9|
    A = np.array([[4.0, 0.9], [0.9, 0.25]])
    assert np.linalg.eigvalsh(A)[0] > 0
    with pytest.raises(SchemeError, match="enlarge N"):
        build_monotone_scheme(NonlinearityDescriptor.linear(A))


# ---------------------------------------------------------------------------
# building schemes: Pucci
# ---------------------------------------------------------------------------


def test_pucci_1d_tables():
    plus = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    minus = build_monotone_scheme(NonlinearityDescriptor.pucci_minus(1.0, 2.0))
    # M^+(r) = max(lam r, Lam r), M^-(r) = min(lam r, Lam r) on scalars
    for r in (-3.0, -0.5, 0.0, 0.7, 2.0):
        assert plus.F_h(np.array([r])) == pytest.approx(max(1.0 * r, 2.0 * r), abs=1e-14)
        assert minus.F_h(np.array([r])) == pytest.approx(min(1.0 * r, 2.0 * r), abs=1e-14)
    assert plus.lambda0 == 1.0 and plus.Lambda0 == 2.0
    assert minus.lambda0 == 1.0 and minus.Lambda0 == 2.0


def test_pucci_1d_matches_eigenvalue_route():
    # dual route: coefficient tables vs the eigenvalue-based operator
    plus = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    for q in (-2.0, -0.3, 0.0, 1.1):
        X = np.array([[q]])
        assert plus.F_h(quotient_vector(plus, X)) == pytest.approx(
            evaluate_F(plus.nonlinearity, X), abs=1e-13
        )


def test_pucci_2d_matches_frame_oracle(rng):
    plus = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, dimension=2))
    minus = build_monotone_scheme(NonlinearityDescriptor.pucci_minus(1.0, 2.0, dimension=2))
    for _ in range(50):
        G = rng.standard_normal((2, 2))
        X = (G + G.T) / 2
        r = quotient_vector(plus, X)
        assert plus.F_h(r) == pytest.approx(pucci2d_frame_oracle(X, 1, 2, +1), rel=1e-12, abs=1e-12)
        assert minus.F_h(quotient_vector(minus, X)) == pytest.approx(
            pucci2d_frame_oracle(X, 1, 2, -1), rel=1e-12, abs=1e-12
        )


def test_pucci_2d_exact_on_frame_diagonal_hessians():
    # Hessians diagonalized by one of the two frames are evaluated exactly
    plus = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, dimension=2))
    for X in (np.diag([3.0, -1.0]), np.array([[0.0, 1.5], [1.5, 0.0]])):
        assert plus.F_h(quotient_vector(plus, X)) == pytest.approx(
            evaluate_F(plus.nonlinearity, X), abs=1e-12
        )


def test_pucci_2d_rotated_witness_frozen():
    # X = R diag(1,-1) R^T with R the rotation by pi/8 is diagonal in neither
    # frame: both frames read off +-sqrt(2)/2, so F_h = sqrt(2)/2 while
    # M^+(X) = 1.  The family underestimates off-frame Hessians.
    th = math.pi / 8
    X = np.array(
        [[math.cos(2 * th), math.sin(2 * th)], [math.sin(2 * th), -math.cos(2 * th)]]
    )
    plus = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, dimension=2))
    got = plus.F_h(quotient_vector(plus, X))
    assert got == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
    assert got < evaluate_F(plus.nonlinearity, X) - 0.25


@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_pucci_2d_family_is_sandwiched(entries):
    # every form is tr(AX) for some admissible A, so the discrete max stays
    # within the Pucci envelope [M^-, M^+]
    a, b, c = entries
    X = np.array([[a, c], [c, b]])
    plus = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, dimension=2))
    got = plus.F_h(quotient_vector(plus, X))
    from parastep.nonlinearity import pucci_minus as Mm, pucci_plus as Mp

    assert got <= Mp(X, 1, 2) + 1e-9
    assert got >= Mm(X, 1, 2) - 1e-9


def test_pucci_2d_slope_bounds_frozen():
    # frame switching: each form carries zeros on the other frame's
    # coordinates, so the per-coordinate lower slope bound is 0
    plus = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, dimension=2))
    assert plus.lambda0 == 0.0
    assert plus.Lambda0 == 2.0
    assert len(plus.stencil.directions) == 4


def test_pucci_3d_not_wired():
    with pytest.raises(SchemeError):
        build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, dimension=3))


# ---------------------------------------------------------------------------
# building schemes: Bellman-Isaacs / custom
# ---------------------------------------------------------------------------


def test_bellman_scheme_exact_on_quadratics(rng):
    A1 = np.array([[1.0, 0.2], [0.2, 1.5]])
    A2 = np.array([[2.0, -0.3], [-0.3, 1.0]])
    A3 = np.eye(2)
    desc = NonlinearityDescriptor.bellman_isaacs([[A1, A2], [A3]])
    scheme = build_monotone_scheme(desc)
    for _ in range(20):
        G = rng.standard_normal((2, 2))
        X = (G + G.T) / 2
        # min over rows of max over matrices of tr(AX), straight enumeration
        want = min(
            max(float(np.trace(A1 @ X)), float(np.trace(A2 @ X))),
            float(np.trace(A3 @ X)),
        )
        got = scheme.F_h(quotient_vector(scheme, X))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_custom_kind_rejected():
    from parastep.nonlinearity import EllipticityConstants

    desc = NonlinearityDescriptor.custom(
        lambda X: float(np.trace(X)), 1, EllipticityConstants(1.0, 1.0)
    )
    with pytest.raises(SchemeError, match="bellman_isaacs"):
        build_monotone_scheme(desc)


def test_negative_table_rejected():
    heat = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    with pytest.raises(SchemeError):
        SchemeDescriptor(
            stencil=heat.stencil,
            tables=(np.array([[-1.0]]),),
            nonlinearity=heat.nonlinearity,
            lambda0=1.0,
            Lambda0=1.0,
        )


# ---------------------------------------------------------------------------
# applying schemes
# ---------------------------------------------------------------------------


def apply_scheme_oracle(scheme, u, index):
    """S_h[u] at one interior node, from the node values one quotient at a
    time (the per-node evaluation the residual field replaced)."""
    spec, (*k, m) = u.spec, index
    r = []
    for y in scheme.stencil.directions:
        plus = u.value(tuple(a + c for a, c in zip(k, y)) + (m,))
        minus = u.value(tuple(a - c for a, c in zip(k, y)) + (m,))
        r.append((plus + minus - 2.0 * u.value(index)) / (spec.h**2 * sum(c * c for c in y)))
    dtau = (u.value(index) - u.value(tuple(k) + (m - 1,))) / spec.tau
    return dtau - float(scheme.F_h(np.array(r)))


def test_apply_scheme_heat_on_separable_solution():
    # S_h[u] at a node, against a by-hand evaluation of the two quotients
    spec = MeshSpec(**MESH_1D)
    scheme = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    u = MeshFunction.from_callable(
        spec, lambda x, t: np.exp(-np.pi**2 * t) * np.sin(np.pi * x[..., 0])
    )
    idx = (4, 8)
    by_hand = (u.value(idx) - u.value((4, 7))) / spec.tau - (
        u.value((5, 8)) + u.value((3, 8)) - 2.0 * u.value(idx)
    ) / spec.h**2
    res = scheme_residual_field(scheme, u)
    assert res[spec.offset(idx)] == pytest.approx(by_hand, rel=1e-12)


def test_residual_field_matches_per_node(rng):
    spec = MeshSpec(**MESH_1D)
    scheme = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    res = scheme_residual_field(scheme, u)
    interior = spec.classification().interior
    np.testing.assert_array_equal(np.isnan(res), ~interior)
    for idx in spec.node_indices():
        if interior[spec.offset(idx)]:
            assert res[spec.offset(idx)] == pytest.approx(
                apply_scheme_oracle(scheme, u, idx), rel=1e-12, abs=1e-12
            )


# generated differential tests: the interior gather against the per-direction
# quotient fields and the per-table F_h they replaced
GENERATED_SCHEMES = [
    build_monotone_scheme(d)
    for d in (
        NonlinearityDescriptor.pucci_plus(1.0, 2.0),
        NonlinearityDescriptor.pucci_minus(1.0, 2.0),
        NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2),
        NonlinearityDescriptor.pucci_minus(1.0, 2.0, 2),
        NonlinearityDescriptor.bellman_isaacs(
            [[np.eye(2), [[2.0, 0.5], [0.5, 1.0]]], [[[1.0, -0.3], [-0.3, 2.0]], 1.5 * np.eye(2)]]
        ),
        # rows of 3 forms and of 1: the short row is padded in ``forms``
        NonlinearityDescriptor.bellman_isaacs([[[[1.0]], [[2.0]], [[0.5]]], [[[1.5]]]]),
        NonlinearityDescriptor.linear([[2.0, 0.3, 0.0], [0.3, 2.0, -0.2], [0.0, -0.2, 1.5]]),
    )
]
DATA_FAMILIES = ["constant", "affine", "quadratic", "noisy", "tie"]


def generated_data(spec, family, seed):
    """Mesh values of one data family.  ``tie`` holds small integers: their
    quotients and form products are exact, so forms tie exactly."""
    rng = np.random.default_rng(seed)
    c, m = rng.standard_normal(2)
    l, Q = rng.standard_normal(spec.n), rng.standard_normal((spec.n, spec.n))
    if family == "noisy":
        return MeshFunction(spec, rng.standard_normal(spec.shape))
    if family == "tie":
        return MeshFunction(spec, rng.integers(-2, 3, spec.shape).astype(float))
    fn = {
        "constant": lambda x, t: c + 0.0 * t,
        "affine": lambda x, t: c + x @ l + m * t,
        "quadratic": lambda x, t: np.einsum("...i,ij,...j->...", x, Q, x) + m * t,
    }[family]
    return MeshFunction.from_callable(spec, fn)


@settings(max_examples=80, derandomize=True)
@given(
    scheme=st.sampled_from(GENERATED_SCHEMES),
    k=st.integers(4, 12),
    levels=st.integers(1, 7),
    family=st.sampled_from(DATA_FAMILIES),
    seed=st.integers(0, 2**32 - 1),
)
def test_residual_field_equals_the_quotient_field_oracle(
    scheme, k, levels, family, seed, residual_field_oracle
):
    # levels below N^2 = 4 leave no interior level: an all-NaN field
    n = scheme.stencil.n
    spec = MeshSpec(h=1 / k, bounds=[(0.0, 1.0)] * n, T=levels / k**2, N=2)
    u = generated_data(spec, family, seed)
    want = residual_field_oracle(scheme, u)
    assert np.array_equal(scheme_residual_field(scheme, u), want, equal_nan=True)


@settings(max_examples=80, derandomize=True)
@given(scheme=st.sampled_from(GENERATED_SCHEMES), data=st.data())
def test_F_h_equals_the_per_table_oracle_on_ties(scheme, data, F_h_oracle):
    ndir = len(scheme.stencil.directions)
    size = data.draw(st.integers(1, 6)) * ndir
    ints = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    scale = data.draw(st.sampled_from([1.0, 0.5, 1 / 3, 1e-3]))
    # integer quotients tie forms exactly; the zero and the isotropic vector
    # tie every frame of a Pucci scheme
    r = np.vstack([np.reshape(ints, (-1, ndir)), np.zeros(ndir), np.ones(ndir)]) * scale
    # shape for shape: numpy's matmul on a 3-D stack takes another kernel,
    # whose last bit can differ from the 2-D product's even in the oracle
    assert np.array_equal(scheme.F_h(r), F_h_oracle(scheme, r))
    for v in r:
        assert scheme.F_h(v) == F_h_oracle(scheme, v)


@settings(max_examples=40, derandomize=True)
@given(
    scheme=st.sampled_from(
        [
            build_monotone_scheme(NonlinearityDescriptor.pucci_minus(0.7, 1.3, 2)),
            build_monotone_scheme(
                NonlinearityDescriptor.bellman_isaacs(
                    [[np.eye(2), [[2.0, 0.5], [0.5, 1.0]], [[1.5, -0.4], [-0.4, 1.0]]],
                     [1.5 * np.eye(2)]]
                )
            ),
        ]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_F_h_matches_the_oracle_to_rounding_on_one_form_rows(scheme, seed, F_h_oracle):
    # a one-form table is a matrix-vector product in the oracle, whose dot
    # products round differently from the same column of one (M, rows x forms)
    # product; both stay within n_dir eps sum |gamma_i r_i| of the exact value
    r = np.random.default_rng(seed).standard_normal((200, len(scheme.stencil.directions)))
    bound = 2 * r.shape[1] * np.finfo(float).eps * scheme.Lambda0 * np.abs(r).sum(axis=-1)
    assert np.all(np.abs(scheme.F_h(r) - F_h_oracle(scheme, r)) <= bound)


# the chunked S_h sweep: n in {1, 2}, linear, Pucci+-, Isaacs
CHUNK_SCHEMES = [s for s in GENERATED_SCHEMES if s.stencil.n <= 2] + [
    build_monotone_scheme(NonlinearityDescriptor.linear([[1.5]])),
    build_monotone_scheme(NonlinearityDescriptor.linear([[2.0, 0.5], [0.5, 1.0]])),
]


@settings(max_examples=40, derandomize=True)
@given(
    scheme=st.sampled_from(CHUNK_SCHEMES),
    k=st.integers(4, 10),
    levels=st.integers(1, 12),
    family=st.sampled_from(["noisy", "tie"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_generated_sweep_chunks_match_the_oracle(
    scheme, k, levels, family, seed, residual_field_oracle
):
    # the budget gives chunks of one level, of three and of every level; each
    # route must equal the one-pass oracle field and its reductions
    n = scheme.stencil.n
    spec = MeshSpec(h=1 / k, bounds=[(0.0, 1.0)] * n, T=levels / k**2, N=2)
    u = generated_data(spec, family, seed)
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    phi = TestFunction.class_P(
        l=rng.standard_normal(n), m=rng.standard_normal(), a=rng.standard_normal(n), Q=Q + Q.T
    )
    want = residual_field_oracle(scheme, u)
    interior = spec.classification().interior
    want_sweep = {
        "sup_residual": float(np.max(np.abs(want[interior]), initial=0.0)),
        "interior_nodes": int(interior.sum()),
    }
    if interior.any():
        res = residual_field_oracle(scheme, MeshFunction.from_callable(spec, phi.fn))
        ut = MeshFunction.from_callable(spec, phi.ut).values
        FH = MeshFunction.from_callable(
            spec, lambda x, t: evaluate_F(scheme.nonlinearity, phi.hessian(x, t))
        ).values
        want_error = float(np.abs(ut[interior] - FH[interior] - res[interior]).max())
    op = _InteriorGather(scheme, spec)
    flat = u.values.reshape(spec.levels, -1)
    interior_levels = max(0, spec.levels - spec.N**2 + 1)
    for length in (1, 3, spec.levels):
        with mock.patch.object(scheme_module, "_SCRATCH_BYTES", length * op.level_bytes()):
            chunks = [stop - start for start, stop, _ in _sweep(op, lambda a, b: flat[a:b])]
            starts = range(0, interior_levels, length)
            assert chunks == [min(length, interior_levels - i) for i in starts]
            assert np.array_equal(scheme_residual_field(scheme, u), want, equal_nan=True)
            assert residual_sweep(scheme, u) == want_sweep
            if interior.any():
                assert consistency_error(scheme, phi, spec) == want_error
            else:
                with pytest.raises(SchemeError, match="no interior nodes"):
                    consistency_error(scheme, phi, spec)


def test_residual_field_peaks_below_the_oracle_route(residual_field_oracle, rng, traced_peak):
    # Pucci+ 2D h=1/32: the gather holds one chunk of levels x K x (ndir +
    # rows x forms) floats next to the NaN field, less than the oracle's
    # per-direction NaN-filled fields
    spec = MeshSpec(h=1 / 32, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)
    scheme = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2))
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    spec.classification()  # cached on the mesh, outside both traces
    (field, peak), (oracle, oracle_peak) = (
        traced_peak(route, scheme, u) for route in (scheme_residual_field, residual_field_oracle)
    )
    assert np.array_equal(field, oracle, equal_nan=True)
    assert peak <= oracle_peak, (peak, oracle_peak)


def test_sweep_memory_does_not_grow_with_the_levels(traced_peak):
    # Pucci+ 2D h=1/32: the sweeps hold one chunk of levels at a time, so
    # doubling T leaves their peaks where they were
    scheme = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2))
    phi = TestFunction.class_P(l=[0.1, 0.2], m=0.5, a=[0.3, -0.1], Q=np.diag([1.0, -0.5]))
    rng = np.random.default_rng(7)
    peaks = []
    for T in (0.25, 0.5):
        spec = MeshSpec(h=1 / 32, bounds=[(0.0, 1.0)] * 2, T=T, N=2)
        spec.classification()  # cached on the mesh, outside the traces
        u = MeshFunction(spec, rng.standard_normal(spec.shape))
        sweep = traced_peak(residual_sweep, scheme, u)[1]
        peaks.append((sweep, traced_peak(consistency_error, scheme, phi, spec)[1]))
    (sweep, cons), (sweep2, cons2) = peaks
    assert sweep <= 8 * 2**20, sweep
    # 64 KiB of slack for the interpreter's own allocations; a pass over
    # every level would add megabytes
    assert sweep2 <= sweep + 2**16 and cons2 <= cons + 2**16, peaks


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "desc",
    [
        NonlinearityDescriptor.linear([[1.0]]),
        NonlinearityDescriptor.pucci_plus(1.0, 2.0),
        NonlinearityDescriptor.pucci_minus(1.0, 2.0),
        NonlinearityDescriptor.pucci_plus(1.0, 2.0, dimension=2),
        NonlinearityDescriptor.linear([[2.0, 0.5], [0.5, 1.0]]),
    ],
    ids=["heat", "pucci+", "pucci-", "pucci2d", "linear2d"],
)
def test_check_monotonicity_passes(desc):
    scheme = build_monotone_scheme(desc)
    report = check_monotonicity(scheme, trials=2000, seed=3)
    assert report["passed"], report
    assert report["min_slope"] >= scheme.lambda0 - 1e-6
    assert report["max_slope"] <= scheme.Lambda0 + 1e-6


@pytest.mark.parametrize(
    "tables",
    [(), (np.zeros((0, 1)),), (np.ones((2, 2)),), (np.ones(1),)],
    ids=["none", "no-forms", "wrong-width", "one-axis"],
)
def test_malformed_tables_rejected(tables):
    # no table, or one without forms, used to pass and fail later inside numpy
    heat = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    with pytest.raises(SchemeError, match="nonempty coefficient tables of shape"):
        SchemeDescriptor(heat.stencil, tables, heat.nonlinearity, lambda0=1.0, Lambda0=1.0)


def test_check_monotonicity_flags_wrong_bounds():
    # same tables, deliberately overstated lower bound: the check must fail
    heat = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    rigged = SchemeDescriptor(
        stencil=heat.stencil,
        tables=heat.tables,
        nonlinearity=heat.nonlinearity,
        lambda0=1.5,
        Lambda0=2.0,
    )
    report = check_monotonicity(rigged, trials=2000, seed=3)
    assert not report["passed"]


@given(st.floats(-10, 10), st.floats(0.01, 5))
def test_fh_increments_within_slope_band(r, s):
    # definition of monotone slopes: F_h(r + s e) - F_h(r) in [lam0 s, Lam0 s]
    scheme = build_monotone_scheme(NonlinearityDescriptor.pucci_minus(1.0, 2.0))
    lo = scheme.F_h(np.array([r]))
    hi = scheme.F_h(np.array([r + s]))
    assert scheme.lambda0 * s - 1e-9 <= hi - lo <= scheme.Lambda0 * s + 1e-9


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------


def test_consistency_exact_on_quadratic_polynomials(rng):
    # time-linear, space-quadratic test functions are reproduced exactly by
    # the representable schemes (backward quotient exact in t, symmetric
    # quotient exact on quadratics)
    spec = MeshSpec(**MESH_1D)
    heat = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    for _ in range(5):
        phi = TestFunction.class_P(
            l=rng.standard_normal(1),
            m=rng.standard_normal(),
            a=rng.standard_normal(1),
            Q=rng.standard_normal((1, 1)),
            c=rng.standard_normal(),
        )
        assert consistency_error(heat, phi, spec) < 1e-12


def test_consistency_exact_pucci_1d(rng):
    spec = MeshSpec(**MESH_1D)
    for desc in (
        NonlinearityDescriptor.pucci_plus(1.0, 2.0),
        NonlinearityDescriptor.pucci_minus(1.0, 2.0),
    ):
        scheme = build_monotone_scheme(desc)
        for q in (-1.3, 0.0, 0.8):
            phi = TestFunction.class_P(l=[0.4], m=-0.2, a=[1.0], Q=[[q]])
            assert consistency_error(scheme, phi, spec) < 1e-12


def test_consistency_exact_pucci_2d_frame_hessians():
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)
    scheme = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, dimension=2))
    for Q in (np.diag([1.0, -0.5]), np.array([[0.0, 0.7], [0.7, 0.0]])):
        phi = TestFunction.class_P(l=[0.0, 0.0], m=0.5, a=[0.0, 0.0], Q=Q)
        assert consistency_error(scheme, phi, spec) < 1e-12


def test_consistency_gap_off_frame_hessian():
    # the same scheme is NOT exact once the Hessian eigenframe leaves the
    # stencil frames; the defect equals |M^+(2Q) - F_h| > 0.29 here
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)
    scheme = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, dimension=2))
    th = math.pi / 8
    X = np.array(
        [[math.cos(2 * th), math.sin(2 * th)], [math.sin(2 * th), -math.cos(2 * th)]]
    )
    phi = TestFunction.class_P(l=[0.0, 0.0], m=0.0, a=[0.0, 0.0], Q=X / 2)
    assert consistency_error(scheme, phi, spec) > 0.29


def test_consistency_heat_sine_matches_closed_form():
    spec = MeshSpec(**MESH_1D)
    heat = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    pi = math.pi

    def fn(x, t):
        return np.exp(-pi**2 * t) * np.sin(pi * x[..., 0])

    phi = TestFunction(
        fn=fn,
        ut=lambda x, t: -pi**2 * np.exp(-pi**2 * t) * np.sin(pi * x[..., 0]),
        hessian=lambda x, t: (-pi**2 * np.exp(-pi**2 * t) * np.sin(pi * x[..., 0]))[
            ..., None, None
        ],
        d3_bound=pi**3,
        utt_bound=pi**4,
        d4_bound=pi**4,
        name="heat-sine",
    )
    got = consistency_error(heat, phi, spec)
    assert got == pytest.approx(heat_sine_consistency_oracle(spec), rel=1e-12)


def test_consistency_fit_second_order_for_heat_sine():
    heat = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    pi = math.pi
    phi = TestFunction(
        fn=lambda x, t: np.exp(-pi**2 * t) * np.sin(pi * x[..., 0]),
        ut=lambda x, t: -pi**2 * np.exp(-pi**2 * t) * np.sin(pi * x[..., 0]),
        hessian=lambda x, t: (-pi**2 * np.exp(-pi**2 * t) * np.sin(pi * x[..., 0]))[
            ..., None, None
        ],
        d3_bound=pi**3,
        utt_bound=pi**4,
        d4_bound=pi**4,
    )
    hs = [1 / 8, 1 / 16, 1 / 32]
    fit = consistency_fit(heat, phi, bounds=[(0.0, 1.0)], T=0.5, h_list=hs)
    errs = [fit["errors"][h] for h in hs]
    # each sweep entry must agree with the closed form
    for h, e in fit["errors"].items():
        spec = MeshSpec(h=h, bounds=[(0.0, 1.0)], T=0.5, N=2)
        assert e == pytest.approx(heat_sine_consistency_oracle(spec), rel=1e-12)
    assert errs[0] > errs[1] > errs[2]
    # second order in h up to the moving first-interior-level amplitude;
    # quartering h shrinks the error well beyond the first-order factor 4
    assert errs[0] / errs[2] > 8.0
    assert math.isfinite(fit["K_first_order"]) and fit["K_first_order"] > 0
    assert fit["K_second_order"] is not None and math.isfinite(fit["K_second_order"])
    # both envelopes actually bound the data
    for h in hs:
        assert fit["errors"][h] <= fit["K_first_order"] * (
            h + h * phi.d3_bound + h * h * phi.utt_bound
        ) * (1 + 1e-12)
        assert fit["errors"][h] <= fit["K_second_order"] * h * h * (
            phi.d4_bound + phi.utt_bound
        ) * (1 + 1e-12)


@pytest.mark.parametrize("forms", [1, 2, 3, 8])
def test_form_fold_equals_the_axis_max_on_ties(forms):
    # small integers tie within rows and across forms; the fold must give
    # the axis max bit for bit, and so the same row argmin, first on ties
    from parastep.solver import _LevelProblem

    rng = np.random.default_rng(forms)
    scores = rng.integers(-2, 3, size=(5, 7, 4, forms)).astype(float)
    scores[0] = -0.0
    assert np.array_equal(_form_max(scores), scores.max(axis=-1))
    assert np.array_equal(_form_max(scores[2]), scores[2].max(axis=-1))
    assert np.array_equal(_min_max(scores), scores.max(axis=-1).min(axis=-1))
    scheme = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0))
    rows = _LevelProblem(scheme, MeshSpec(**MESH_1D)).rows(scores)
    assert np.array_equal(rows, scores.max(axis=-1).argmin(axis=-1))
