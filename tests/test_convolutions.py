import math

import numpy as np
import pytest

from parastep.convolutions import (
    _transform,
    inf_convolution_mesh,
    sup_convolution_mesh,
    verify_convolution_properties,
    x_inf_convolution,
    x_sup_convolution,
)
from parastep.errors import GridError
from parastep.geometry import MeshFunction, MeshSpec, discrete_holder_norm
from parastep.scheme import second_quotient_field

# ---------------------------------------------------------------------------
# oracle: brute-force double loop over all mesh nodes
# ---------------------------------------------------------------------------


def _node_arrays(v):
    spec = v.spec
    pts = []
    vals = []
    for idx in spec.node_indices():
        p = spec.node_point(idx)
        pts.append(p.x + (p.t,))
        vals.append(v.value(idx))
    return np.asarray(pts), np.asarray(vals)


def brute_convolution(v, theta, points, mode="inf"):
    """min/max over every node of v +- (|x-y|^2 + (t-s)^2)/(2 theta)."""
    pts, vals = _node_arrays(v)
    out = []
    for q in points:
        q = np.asarray(q, dtype=float)
        cost = ((pts - q) ** 2).sum(axis=1) / (2.0 * theta)
        if mode == "inf":
            out.append(float(np.min(vals + cost)))
        else:
            out.append(float(np.max(vals - cost)))
    return np.asarray(out)


def brute_max_shift(v, theta, mode="inf"):
    """Largest euclidean distance from a node to its extremizer."""
    pts, vals = _node_arrays(v)
    best = 0.0
    for q in pts:
        cost = ((pts - q) ** 2).sum(axis=1) / (2.0 * theta)
        total = vals + cost if mode == "inf" else -(vals - cost)
        j = int(np.argmin(total))
        best = max(best, math.sqrt(float(((pts[j] - q) ** 2).sum())))
    return best


def all_node_points(spec):
    return [spec.node_point(idx).x + (spec.node_point(idx).t,) for idx in spec.node_indices()]


MESH_1D = dict(h=0.125, bounds=[(0.0, 1.0)], T=0.0625, N=2)


def rough_mesh(rng, spec):
    return MeshFunction(spec, rng.standard_normal(spec.shape))


# ---------------------------------------------------------------------------
# fast path vs brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.05, 0.3, 2.0])
def test_inf_convolution_matches_brute_1d(theta, rng):
    spec = MeshSpec(**MESH_1D)
    v = rough_mesh(rng, spec)
    w, _ = inf_convolution_mesh(v, theta)
    want = brute_convolution(v, theta, all_node_points(spec), "inf")
    np.testing.assert_allclose(w.values.ravel(), want, atol=1e-12, rtol=0)


def test_inf_convolution_matches_brute_2d_grid(rng):
    # 9 x 9 x 4 node grid
    spec = MeshSpec(h=0.1, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.04, N=2)
    assert spec.shape == (4, 9, 9)
    v = rough_mesh(rng, spec)
    for theta in (0.1, 1.0):
        w, _ = inf_convolution_mesh(v, theta)
        want = brute_convolution(v, theta, all_node_points(spec), "inf")
        np.testing.assert_allclose(w.values.ravel(), want, atol=1e-12, rtol=0)


def test_sup_convolution_matches_brute(rng):
    spec = MeshSpec(**MESH_1D)
    v = rough_mesh(rng, spec)
    w, _ = sup_convolution_mesh(v, 0.3)
    want = brute_convolution(v, 0.3, all_node_points(spec), "sup")
    np.testing.assert_allclose(w.values.ravel(), want, atol=1e-12, rtol=0)


def test_off_mesh_queries_match_brute(rng):
    spec = MeshSpec(**MESH_1D)
    v = rough_mesh(rng, spec)
    queries = [
        ((rng.uniform(0.0, 1.0),), rng.uniform(0.0, spec.T))
        for _ in range(12)
    ]
    flat = [(q[0][0], q[1]) for q in queries]
    got, _ = inf_convolution_mesh(v, 0.25, queries=queries)
    want = brute_convolution(v, 0.25, flat, "inf")
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
    got_sup, _ = sup_convolution_mesh(v, 0.25, queries=queries)
    want_sup = brute_convolution(v, 0.25, flat, "sup")
    np.testing.assert_allclose(got_sup, want_sup, atol=1e-12, rtol=0)


def test_inf_convolution_matches_brute_3d(rng):
    spec = MeshSpec(h=1 / 6, bounds=[(0.0, 1.0)] * 3, T=3 / 36, N=2)
    assert spec.shape == (3, 5, 5, 5)
    v = rough_mesh(rng, spec)
    for theta in (0.05, 0.5):
        w, report = inf_convolution_mesh(v, theta)
        want = brute_convolution(v, theta, all_node_points(spec), "inf")
        np.testing.assert_allclose(w.values.ravel(), want, atol=1e-12, rtol=0)
        assert report.max_shift == pytest.approx(brute_max_shift(v, theta, "inf"), abs=1e-12)


@pytest.mark.parametrize(
    "mesh",
    [
        MESH_1D,
        dict(h=0.2, bounds=[(0.0, 1.0), (-0.4, 0.6)], T=0.12, N=2),
        dict(h=1 / 6, bounds=[(0.0, 1.0)] * 3, T=3 / 36, N=2),
    ],
    ids=["1d", "2d", "3d"],
)
def test_query_on_a_node_equals_the_node_transform(mesh, rng):
    # a query placed on a node is the node transform at that node, bit for
    # bit: same envelope, same abscissa, same chained extremizer
    spec = MeshSpec(**mesh)
    v = rough_mesh(rng, spec)
    positions = [spec.times()] + [spec.axis_coords(a) for a in range(spec.n)]
    for theta in (0.02, 0.4):
        w, _ = inf_convolution_mesh(v, theta)
        s, _ = sup_convolution_mesh(v, theta)
        _, shift = _transform(v.values, positions, theta, positions)
        _, shift_sup = _transform(-v.values, positions, theta, positions)
        for idx in list(spec.node_indices())[::5]:
            p, off = spec.node_point(idx), spec.offset(idx)
            got, report = inf_convolution_mesh(v, theta, queries=[(p.x, p.t)])
            assert got[0] == w.values[off] and report.max_shift == shift[off], idx
            got, report = sup_convolution_mesh(v, theta, queries=[(p.x, p.t)])
            assert got[0] == s.values[off] and report.max_shift == shift_sup[off], idx


def test_reported_shift_matches_brute(rng):
    spec = MeshSpec(**MESH_1D)
    v = rough_mesh(rng, spec)
    _, report = inf_convolution_mesh(v, 0.2)
    assert report.max_shift == pytest.approx(brute_max_shift(v, 0.2, "inf"), abs=1e-12)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_constant_is_fixed_point():
    spec = MeshSpec(**MESH_1D)
    v = MeshFunction(spec, np.full(spec.shape, 2.5))
    w, _ = inf_convolution_mesh(v, 0.7)
    np.testing.assert_array_equal(w.values, 2.5)
    s, _ = sup_convolution_mesh(v, 0.7)
    np.testing.assert_array_equal(s.values, 2.5)


def test_large_theta_approaches_global_min():
    spec = MeshSpec(**MESH_1D)
    v = MeshFunction.from_callable(spec, lambda x, t: x[..., 0] ** 2)
    gmin = float(v.values.min())  # (1/8)^2
    got, _ = inf_convolution_mesh(v, 1e6, queries=[((0.5,), 0.03)])
    assert got[0] == pytest.approx(gmin, abs=1e-5)
    assert got[0] >= gmin  # the quadratic cost only adds


def test_ordering_exact(rng):
    spec = MeshSpec(**MESH_1D)
    v = rough_mesh(rng, spec)
    w, _ = inf_convolution_mesh(v, 0.15)
    s, _ = sup_convolution_mesh(v, 0.15)
    assert np.all(w.values <= v.values)
    assert np.all(v.values <= s.values)


def test_theta_monotonicity(rng):
    spec = MeshSpec(**MESH_1D)
    v = rough_mesh(rng, spec)
    w1, _ = inf_convolution_mesh(v, 0.1)
    w2, _ = inf_convolution_mesh(v, 0.4)
    assert np.all(w1.values >= w2.values)


@pytest.mark.parametrize("profile", ["smooth", "corner"])
def test_semiconcavity_exact(profile, rng):
    # delta^2_y v^- <= 1/theta for every grid direction -- an algebraic
    # identity of infima, so no grid slack is allowed beyond fp noise
    spec = MeshSpec(**MESH_1D)
    if profile == "smooth":
        v = MeshFunction.from_callable(
            spec, lambda x, t: np.sin(3 * x[..., 0]) * np.exp(-t)
        )
    else:
        v = MeshFunction.from_callable(spec, lambda x, t: np.abs(x[..., 0] - 0.5) + 0 * t)
    theta = 0.05
    w, _ = inf_convolution_mesh(v, theta)
    q = second_quotient_field(w.values, spec, (1,))
    assert np.nanmax(q) <= 1.0 / theta + 1e-12


def test_time_lipschitz_bound(rng):
    spec = MeshSpec(**MESH_1D)
    v = rough_mesh(rng, spec)
    theta = 0.2
    w, _ = inf_convolution_mesh(v, theta)
    lip = float(np.max(np.abs(np.diff(w.values, axis=0)))) / spec.tau
    assert lip <= 3.0 * spec.T / theta + 1e-9


def test_duality_against_brute(rng):
    # v+ must be the reflected inf-convolution; checked against the brute
    # sup so the identity is not vacuous
    spec = MeshSpec(**MESH_1D)
    v = rough_mesh(rng, spec)
    neg = MeshFunction(spec, -v.values)
    winf, _ = inf_convolution_mesh(neg, 0.3)
    want = brute_convolution(v, 0.3, all_node_points(spec), "sup")
    np.testing.assert_allclose(-winf.values.ravel(), want, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# x-convolutions
# ---------------------------------------------------------------------------


def test_x_sup_quadratic_frozen():
    # u(y) = -y^2/2, theta = 1: maximizer y* = x/(1+theta) = 0.25 lies on the
    # grid, so the grid sup equals the continuum value -x^2/(2(1+theta))
    spec = MeshSpec(h=0.25, bounds=[(-1.0, 1.0)], T=0.125, N=2)
    v = MeshFunction.from_callable(spec, lambda x, t: -x[..., 0] ** 2 / 2.0)
    got = x_sup_convolution(v, 1.0, (0.5,), spec.tau)
    assert got == pytest.approx(-(0.5**2) / 4.0, abs=1e-14)


def test_x_sup_converges_to_continuum_value():
    # generic x: grid value within O(h) of -x^2/(2(1+theta)), improving as h drops
    theta, x = 0.5, 0.3
    want = -(x**2) / (2 * (1 + theta))
    errs = []
    for h in (0.25, 0.125, 0.0625):
        spec = MeshSpec(h=h, bounds=[(-1.0, 1.0)], T=4 * h * h, N=2)
        v = MeshFunction.from_callable(spec, lambda x_, t: -x_[..., 0] ** 2 / 2.0)
        errs.append(abs(x_sup_convolution(v, theta, (x,), spec.tau) - want))
    # nested grids can share the best node, so decrease need not be strict
    # at every halving -- only overall
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] < errs[0]
    assert errs[2] < 0.25 * 0.0625  # well within O(h)


def test_x_convolutions_match_brute(rng):
    spec = MeshSpec(**MESH_1D)
    v = rough_mesh(rng, spec)
    theta = 0.4
    m = 3
    t = m * spec.tau
    xs = spec.axis_coords(0)
    row = v.values[m - 1]
    for xq in (0.3, 0.55, 0.825):
        want_inf = float(np.min(row + (xs - xq) ** 2 / (2 * theta)))
        want_sup = float(np.max(row - (xs - xq) ** 2 / (2 * theta)))
        assert x_inf_convolution(v, theta, (xq,), t) == pytest.approx(want_inf, abs=1e-12)
        assert x_sup_convolution(v, theta, (xq,), t) == pytest.approx(want_sup, abs=1e-12)


def test_x_convolution_argmax_shift_bound(rng):
    # |x - y*| <= 2 theta Lip(u) + h for the space-only sup convolution
    spec = MeshSpec(**MESH_1D)
    v = MeshFunction.from_callable(spec, lambda x, t: np.sin(3 * x[..., 0]) + 0 * t)
    xs = spec.axis_coords(0)
    lip = float(np.max(np.abs(np.diff(v.values[0])))) / spec.h
    theta = 0.3
    for xq in np.linspace(0.15, 0.85, 9):
        row = v.values[0]
        j = int(np.argmax(row - (xs - xq) ** 2 / (2 * theta)))
        assert abs(xs[j] - xq) <= 2 * theta * lip + spec.h + 1e-12


def test_x_convolution_rejects_off_lattice_time():
    spec = MeshSpec(**MESH_1D)
    v = MeshFunction(spec, np.zeros(spec.shape))
    with pytest.raises(GridError, match="lattice"):
        x_inf_convolution(v, 0.5, (0.5,), 0.7 * spec.tau)
    with pytest.raises(GridError):
        x_inf_convolution(v, 0.5, (0.5,), spec.T + spec.tau)  # past final level


def test_x_convolution_constant():
    spec = MeshSpec(**MESH_1D)
    v = MeshFunction(spec, np.full(spec.shape, -1.25))
    assert x_sup_convolution(v, 0.2, (0.5,), spec.tau) == pytest.approx(-1.25, abs=1e-15)


# ---------------------------------------------------------------------------
# reports and parameter validation
# ---------------------------------------------------------------------------


def test_report_omega_and_admissible_region(rng):
    spec = MeshSpec(**MESH_1D)
    v = rough_mesh(rng, spec)
    eta, theta = 0.5, 0.05
    _, report = inf_convolution_mesh(v, theta, eta=eta)
    norm = discrete_holder_norm(v, eta)["norm"]
    diam = math.sqrt(sum((hi - lo) ** 2 for lo, hi in spec.bounds) + spec.T)
    want_omega = spec.n * spec.h + 2 * math.sqrt(theta) * norm * diam**eta
    assert report.omega == pytest.approx(want_omega, rel=1e-12)
    # admissible: min(t, lateral distance) >= omega + N h, transcribed directly
    for idx in spec.node_indices():
        p = spec.node_point(idx)
        lat = min(p.x[0] - 0.0, 1.0 - p.x[0])
        ok = min(p.t, lat) >= report.omega + spec.N * spec.h
        assert bool(report.admissible[spec.offset(idx)]) == ok
    assert report.holder_norm == pytest.approx(norm)


def _convolution_calls(theta, eta=0.5):
    """Every public convolution function, bound to theta (and eta where it
    takes one)."""
    spec = MeshSpec(**MESH_1D)
    v = MeshFunction(spec, np.zeros(spec.shape))
    query = [((0.5,), 0.03)]
    calls = [
        lambda: inf_convolution_mesh(v, theta, eta=eta),
        lambda: sup_convolution_mesh(v, theta, eta=eta),
        lambda: inf_convolution_mesh(v, theta, queries=query, eta=eta),
        lambda: sup_convolution_mesh(v, theta, queries=query, eta=eta),
        lambda: verify_convolution_properties(v, theta, eta=eta),
    ]
    if eta == 0.5:
        calls += [
            lambda: x_inf_convolution(v, theta, (0.5,), spec.tau),
            lambda: x_sup_convolution(v, theta, (0.5,), spec.tau),
        ]
    return calls


def test_convolution_validation():
    # every public function refuses a bad theta or eta; inf used to end in an
    # IndexError inside the envelope, and nan in a non-finite mesh function
    # or (x-convolutions) a silent nan
    for theta in (0.0, -1.0, math.inf, math.nan):
        for call in _convolution_calls(theta):
            want = f"theta must be a finite positive number, got {theta}"
            with pytest.raises(GridError, match=want):
                call()
    for call in _convolution_calls(1.0, eta=1.5):
        with pytest.raises(GridError, match=r"eta must lie in \(0, 1\], got 1.5"):
            call()


# ---------------------------------------------------------------------------
# the bundled property report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile", ["smooth", "corner", "zero"])
def test_verify_convolution_properties_passes(profile):
    spec = MeshSpec(**MESH_1D)
    if profile == "smooth":
        v = MeshFunction.from_callable(
            spec, lambda x, t: np.sin(math.pi * x[..., 0]) * np.exp(-t)
        )
    elif profile == "corner":
        v = MeshFunction.from_callable(spec, lambda x, t: np.abs(x[..., 0] - 0.5) + 0 * t)
    else:
        v = MeshFunction(spec, np.zeros(spec.shape))
    out = verify_convolution_properties(v, theta=0.1)
    assert out["passed"], out
    for name in ("ordering", "semiconcavity", "time_lipschitz", "theta_monotone", "omega_lower_bound"):
        assert out["checks"][name]["passed"], (name, out["checks"][name])


def test_verify_convolution_properties_reports_fields(rng):
    spec = MeshSpec(**MESH_1D)
    v = rough_mesh(rng, spec)
    out = verify_convolution_properties(v, theta=0.25, eta=0.5)
    assert out["theta"] == 0.25
    assert out["omega"] > 0
    assert out["max_shift_minus"] >= 0
    assert out["max_shift_plus"] >= 0
    assert out["checks"]["semiconcavity"]["bound"] == pytest.approx(4.0)
