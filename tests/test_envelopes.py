import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from parastep import envelopes
from parastep.envelopes import (
    abp_diagnostic,
    contact_set,
    lower_monotone_envelope,
    upper_monotone_envelope,
)
from parastep.errors import EnvelopeError, GridError
from parastep.geometry import Cylinder, MeshFunction, MeshSpec, region_mask
from parastep.harness import get_problem
from parastep.scheme import build_monotone_scheme
from parastep.solver import solve

# ---------------------------------------------------------------------------
# oracle: per-node affine-minorant LP
#
# Gamma(z, t) = max { a.z + b : a.y + b <= min_{s<=t} u(y, s) for all grid y },
# one linear program per node, solved independently of the hull code.
# ---------------------------------------------------------------------------


def lp_envelope_oracle(u):
    spec = u.spec
    m = np.minimum.accumulate(u.values, axis=0)
    grids = np.meshgrid(*[spec.axis_coords(i) for i in range(spec.n)], indexing="ij")
    Y = np.stack([g.ravel() for g in grids], axis=1)
    A = np.column_stack([Y, np.ones(len(Y))])
    free = [(None, None)] * (spec.n + 1)
    out = np.empty_like(m)
    for lev in range(spec.levels):
        b_ub = m[lev].ravel()
        vals = np.empty(len(Y))
        for r in range(len(Y)):
            res = linprog(-np.append(Y[r], 1.0), A_ub=A, b_ub=b_ub, bounds=free, method="highs")
            assert res.status == 0
            vals[r] = -res.fun
        out[lev] = vals.reshape(m[lev].shape)
    return out


MESH_1D = dict(h=0.125, bounds=[(0.0, 1.0)], T=0.0625, N=2)


# ---------------------------------------------------------------------------
# lower/upper envelopes
# ---------------------------------------------------------------------------


def test_convex_time_constant_is_fixed_point():
    spec = MeshSpec(**MESH_1D)
    u = MeshFunction.from_callable(spec, lambda x, t: x[..., 0] ** 2 + 0 * t)
    g = lower_monotone_envelope(u)
    np.testing.assert_array_equal(g.values, u.values)


def test_concave_profile_flattens_to_chord():
    # -x^2 on (-1,1): extreme node columns sit at +-0.75, so every slice
    # collapses to the constant chord value -(0.75)^2
    spec = MeshSpec(h=0.25, bounds=[(-1.0, 1.0)], T=0.25, N=2)
    u = MeshFunction.from_callable(spec, lambda x, t: -x[..., 0] ** 2 + 0 * t)
    g = lower_monotone_envelope(u)
    np.testing.assert_array_equal(g.values, np.full(spec.shape, -0.5625))


@pytest.mark.parametrize("trial", range(5))
def test_matches_lp_oracle_1d(trial):
    rng = np.random.default_rng(500 + trial)
    spec = MeshSpec(**MESH_1D)
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    g = lower_monotone_envelope(u)
    np.testing.assert_allclose(g.values, lp_envelope_oracle(u), atol=1e-9, rtol=0)


def test_matches_lp_oracle_2d():
    rng = np.random.default_rng(77)
    # 9 x 9 spatial nodes, 5 levels
    spec = MeshSpec(h=0.1, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.05, N=2)
    assert spec.shape == (5, 9, 9)
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    g = lower_monotone_envelope(u)
    np.testing.assert_allclose(g.values, lp_envelope_oracle(u), atol=1e-9, rtol=0)


@pytest.mark.parametrize("dim", [1, 2])
def test_idempotent_exactly(dim, rng):
    if dim == 1:
        spec = MeshSpec(**MESH_1D)
    else:
        spec = MeshSpec(h=0.2, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.16, N=2)
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    g1 = lower_monotone_envelope(u)
    g2 = lower_monotone_envelope(g1)
    np.testing.assert_array_equal(g2.values, g1.values)


def test_monotone_in_argument(rng):
    spec = MeshSpec(**MESH_1D)
    u1 = MeshFunction(spec, rng.standard_normal(spec.shape))
    u2 = MeshFunction(spec, u1.values + rng.uniform(0.0, 1.0, spec.shape))
    g1 = lower_monotone_envelope(u1)
    g2 = lower_monotone_envelope(u2)
    assert np.all(g1.values <= g2.values)


def test_below_and_nonincreasing(rng):
    spec = MeshSpec(h=0.2, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.16, N=2)
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    g = lower_monotone_envelope(u)
    assert np.all(g.values <= u.values)
    assert np.all(np.diff(g.values, axis=0) <= 0.0)


def test_slices_discretely_convex(rng):
    spec = MeshSpec(h=0.2, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.16, N=2)
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    g = lower_monotone_envelope(u)
    for axis in (1, 2):
        dd = np.diff(g.values, n=2, axis=axis)
        assert dd.min() >= -1e-9


def test_upper_envelope_duality(rng):
    spec = MeshSpec(**MESH_1D)
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    up = upper_monotone_envelope(u)
    low_neg = lower_monotone_envelope(MeshFunction(spec, -u.values))
    np.testing.assert_array_equal(up.values, -low_neg.values)
    assert np.all(up.values >= u.values)
    assert np.all(np.diff(up.values, axis=0) >= 0.0)


def test_upper_envelope_concave_fixed_point():
    spec = MeshSpec(**MESH_1D)
    u = MeshFunction.from_callable(spec, lambda x, t: -((x[..., 0] - 0.5) ** 2) + 0 * t)
    up = upper_monotone_envelope(u)
    np.testing.assert_array_equal(up.values, u.values)


def test_two_column_grid_reduces_to_running_min():
    # two nodes per slice: every profile is trivially convex, so the
    # envelope is just the running minimum
    spec = MeshSpec(h=0.4, bounds=[(0.0, 1.0)], T=0.48, N=2)
    assert spec.spatial_shape == (2,)
    u = MeshFunction(spec, np.array([[1.0, 3.0], [0.5, -1.0], [2.0, 4.0]]))
    g = lower_monotone_envelope(u)
    np.testing.assert_array_equal(g.values, np.minimum.accumulate(u.values, axis=0))


# ---------------------------------------------------------------------------
# one hull per distinct running-minimum slice
# ---------------------------------------------------------------------------


@st.composite
def repeating_slices(draw):
    """Data whose running minimum repeats level after level: each level
    either stays above the running minimum (so its slice repeats), dips at
    one node, or dips at many; small integers make hull ties exact."""
    n = draw(st.sampled_from([1, 2]))
    h = 1.0 / draw(st.sampled_from([4, 5, 6, 8]))
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=draw(st.integers(2, 6)) * h * h, N=2)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    vals = np.empty(spec.shape)
    vals[0] = rng.integers(-2, 3, size=spec.spatial_shape)
    low = vals[0].copy()
    for lev in range(1, spec.levels):
        vals[lev] = low + rng.integers(0, 3, size=spec.spatial_shape)
        kind = draw(st.sampled_from(["repeat", "one dip", "dips"]))
        if kind == "one dip":
            vals[lev].flat[draw(st.integers(0, low.size - 1))] = low.min() - draw(st.integers(1, 3))
        elif kind == "dips":
            vals[lev] = np.minimum(vals[lev], rng.integers(-4, 1, size=spec.spatial_shape))
        low = np.minimum(low, vals[lev])
    return MeshFunction(spec, vals)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(u=repeating_slices())
def test_generated_envelope_matches_the_no_reuse_oracle(u, monotone_envelope_oracle):
    assert np.array_equal(lower_monotone_envelope(u).values, monotone_envelope_oracle(u).values)
    neg = MeshFunction(u.spec, -u.values)
    assert np.array_equal(
        upper_monotone_envelope(neg).values, -monotone_envelope_oracle(u).values
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_a_slice_that_differs_in_one_node_gets_its_own_hull(dim, monotone_envelope_oracle):
    # level 1 repeats level 0's running minimum except at one node, which
    # dips; the dip changes the hull wherever it sits, first and last included
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.0)] * dim, T=3 / 16, N=2)
    base = np.zeros(spec.spatial_shape)
    for node in range(base.size):
        vals = np.stack([base, base + 1.0, base])
        vals[1].flat[node] = -1.0
        u = MeshFunction(spec, vals)
        got = lower_monotone_envelope(u).values
        assert np.array_equal(got, monotone_envelope_oracle(u).values), node
        assert got[1].flat[node] == -1.0 and np.array_equal(got[0], base)


# ---------------------------------------------------------------------------
# constant slices skip Qhull
# ---------------------------------------------------------------------------


@st.composite
def slice_kinds(draw):
    """2-D data whose levels are each of a drawn kind: zero, another
    constant, zero with one dip, exactly affine (small integers on a dyadic
    mesh) or random.  The running minimum of a first level is that level;
    a later one mixes kinds, e.g. a zero level under a dip keeps the dip."""
    h = 1.0 / draw(st.sampled_from([4, 8]))
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * 2, T=draw(st.integers(1, 4)) * h * h, N=2)
    x, y = np.meshgrid(spec.axis_coords(0), spec.axis_coords(1), indexing="ij")
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    vals = np.empty(spec.shape)
    for lev in range(spec.levels):
        kind = draw(st.sampled_from(["zero", "constant", "dip", "affine", "random"]))
        if kind == "constant":
            vals[lev] = draw(st.floats(-1e6, 1e6, allow_subnormal=True))
        elif kind == "affine":
            a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
            vals[lev] = a * x + b * y + c
        elif kind == "random":
            vals[lev] = rng.standard_normal(spec.spatial_shape)
        else:
            vals[lev] = 0.0
            if kind == "dip":
                vals[lev].flat[draw(st.integers(0, x.size - 1))] = -draw(st.floats(1e-6, 10.0))
    return MeshFunction(spec, vals)


SQUARE_2D = MeshSpec(h=0.25, bounds=[(0.0, 1.0)] * 2, T=2 / 16, N=2)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(u=slice_kinds())
@example(u=MeshFunction(SQUARE_2D, np.full(SQUARE_2D.shape, 2.5)))
def test_generated_envelope_skips_qhull_on_constant_slices_only(u, monotone_envelope_oracle):
    # the same envelope bit for bit as Qhull on every slice, and one hull per
    # distinct non-constant running-minimum slice
    calls = []
    qhull = envelopes._qhull_envelope

    def counted(axes, f):
        calls.append(f)
        return qhull(axes, f)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envelopes, "_qhull_envelope", counted)
        got = lower_monotone_envelope(u).values
    assert np.array_equal(got, monotone_envelope_oracle(u).values)
    m = np.minimum.accumulate(u.values, axis=0)
    hulls = [
        lev
        for lev in range(u.spec.levels)
        if np.ptp(m[lev]) > 0.0 and not (lev and np.array_equal(m[lev], m[lev - 1]))
    ]
    assert len(calls) == len(hulls)


def verify_2d_grid():
    """The benchmark's verify 2-D grid: heat on the unit square, h = 1/12,
    solved to T = 1/4; positive on the whole cylinder."""
    sol = get_problem("heat_product_2d")
    spec = MeshSpec(h=1 / 12, bounds=sol.bounds, T=0.25, N=2)
    return solve(build_monotone_scheme(sol.descriptor), spec, sol.fn)[0]


def with_interior_dip(u):
    """``u`` with one negative node three levels below the default ABP
    cylinder's top center."""
    vals = u.values.copy()
    node = u.spec.middle_node()
    vals[(node[-1] - 4,) + u.spec.offset(node)[1:]] = -0.3
    return MeshFunction(u.spec, vals)


@pytest.mark.parametrize("grid", ["verify-2d", "interior-dip"])
def test_abp_is_unchanged_by_the_constant_slice_route(grid, monotone_envelope_oracle, monkeypatch):
    u = verify_2d_grid()
    if grid == "interior-dip":
        u = with_interior_dip(u)
    got = abp_diagnostic(u)
    monkeypatch.setattr(envelopes, "lower_monotone_envelope", monotone_envelope_oracle)
    want = abp_diagnostic(u)
    for key in ("lhs", "K", "contact_count", "ratio", "rhs_core"):
        assert got[key] == want[key], key
    assert np.array_equal(got["envelope"].values, want["envelope"].values)
    assert (got["lhs"] > 0.0) == (grid == "interior-dip")


# ---------------------------------------------------------------------------
# contact sets
# ---------------------------------------------------------------------------


def test_contact_full_grid_for_convex_nonincreasing():
    spec = MeshSpec(**MESH_1D)
    u = MeshFunction.from_callable(spec, lambda x, t: x[..., 0] ** 2 - t)
    g = lower_monotone_envelope(u)
    cs = contact_set(u, g)
    assert cs["count"] == u.values.size
    assert np.all(cs["mask"])
    assert cs["measure"] == pytest.approx(u.values.size * spec.h**3)


def test_contact_concave_profile_extreme_columns_only():
    spec = MeshSpec(h=0.25, bounds=[(-1.0, 1.0)], T=0.25, N=2)
    u = MeshFunction.from_callable(spec, lambda x, t: -x[..., 0] ** 2 + 0 * t)
    g = lower_monotone_envelope(u)
    cs = contact_set(u, g)
    want = np.zeros(spec.shape, dtype=bool)
    want[:, 0] = True
    want[:, -1] = True
    np.testing.assert_array_equal(cs["mask"], want)
    assert cs["count"] == 2 * spec.levels


def test_contact_measure_monotone_in_tol(rng):
    spec = MeshSpec(**MESH_1D)
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    g = lower_monotone_envelope(u)
    measures = [contact_set(u, g, tol)["measure"] for tol in (1e-12, 1e-6, 1e-2, 1.0)]
    assert measures == sorted(measures)


def test_contact_mesh_mismatch():
    u = MeshFunction(MeshSpec(**MESH_1D), np.zeros(MeshSpec(**MESH_1D).shape))
    other = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.03125, N=2)
    with pytest.raises(GridError, match="different meshes"):
        contact_set(u, MeshFunction(other, np.zeros(other.shape)))


# ---------------------------------------------------------------------------
# ABP diagnostic
# ---------------------------------------------------------------------------

ABP_MESH = dict(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)


def test_abp_nonnegative_input_gives_zero():
    spec = MeshSpec(**ABP_MESH)
    u = MeshFunction.from_callable(spec, lambda x, t: 1.0 + np.sin(x[..., 0]) + 0 * t)
    out = abp_diagnostic(u)
    assert out["lhs"] == 0.0
    assert out["ratio"] == 0.0


def test_abp_single_dip_frozen_ratio():
    # h = 1/8, default cylinder: center x = 0.5, top level 16, rho = 0.5.
    # One dip of depth 1 at (x = 0.5, m = 10).  Hand computation:
    #   lhs = 1
    #   contact = the dip node plus the 63 zero nodes at earlier levels
    #           -> measure 64 h^3 = 1/8
    #   K = max axis second quotient = 2/h^2 = 128
    #   rhs = sqrt(1/2) sqrt(1/8) 128 = 32, ratio = 1/32
    spec = MeshSpec(**ABP_MESH)
    vals = np.zeros(spec.shape)
    vals[9, spec.offset((4, 10))[1]] = -1.0
    u = MeshFunction(spec, vals)
    out = abp_diagnostic(u)
    assert out["rho"] == pytest.approx(0.5)
    assert out["lhs"] == 1.0
    assert out["K"] == pytest.approx(128.0)
    assert out["contact_count"] == 64
    assert out["contact_measure"] == pytest.approx(0.125, rel=1e-12)
    assert out["ratio"] == pytest.approx(1.0 / 32.0, rel=1e-9)


def test_abp_ratio_invariant_under_scaling():
    # lhs and K are 1-homogeneous and the contact set is scale-free, so the
    # ratio must not move under u -> c u
    spec = MeshSpec(**ABP_MESH)
    base = np.zeros(spec.shape)
    base[9, spec.offset((4, 10))[1]] = -1.0
    base[11, spec.offset((3, 12))[1]] = -0.4
    ratios = []
    for c in (0.5, 1.0, 8.0):
        out = abp_diagnostic(MeshFunction(spec, c * base))
        ratios.append(out["ratio"])
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)
    assert ratios[1] == pytest.approx(ratios[2], rel=1e-9)


def test_abp_cylinder_node_count_matches_geometry_helper(cylinder_nodes):
    spec = MeshSpec(**ABP_MESH)
    u = MeshFunction(spec, np.zeros(spec.shape))
    out = abp_diagnostic(u)
    cyl = Cylinder(out["center"], out["rho"], "backward")
    assert out["cylinder_node_count"] == len(cylinder_nodes(spec, cyl))
    assert out["cylinder_node_count"] == int(region_mask(spec, cyl).sum())


@pytest.mark.parametrize("h", [1 / 12, 1 / 20], ids=["h=1/12", "h=1/20"])
def test_abp_cylinder_equals_region_mask(h):
    # ABP builds its cylinder in integers; the region rule must agree on every
    # radius j h, whose ball edge and open bottom fall on lattice nodes
    for n in (1, 2):
        spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=20 * h * h, N=2)
        u = MeshFunction(spec, np.zeros(spec.shape))
        x0 = ((round(0.5 / h) - 1) * h,) * n
        for j in (1, 2, 3, 4):
            for center in (None, (x0, 16 * spec.tau)):
                out = abp_diagnostic(u, center=center, rho=j * h)
                cyl = Cylinder(out["center"], out["rho"], "backward")
                assert out["cylinder_node_count"] == int(region_mask(spec, cyl).sum()), (n, j)


def test_abp_extension_zero_outside_cylinder():
    spec = MeshSpec(**ABP_MESH)
    vals = np.zeros(spec.shape)
    vals[9, spec.offset((4, 10))[1]] = -1.0
    out = abp_diagnostic(MeshFunction(spec, vals))
    w = out["extension"]
    # doubled grid starts three quarters of its depth before the cylinder
    assert w.spec.T == pytest.approx(1.0)
    assert np.all(w.values <= 0.0)
    assert np.all(w.values[: 3 * 16] == 0.0)  # pre-cylinder levels untouched
    assert w.values.min() == -1.0
    # the dip (k = 4, m = 10) sits at local level 3*16 + 10, column k - k_min
    assert w.spec.k_min == (-3,)
    assert np.argwhere(w.values == -1.0).tolist() == [[3 * 16 + 9, 7]]


def test_abp_boundary_violation_raises():
    spec = MeshSpec(**ABP_MESH)
    vals = np.zeros(spec.shape)
    vals[0, spec.offset((4, 1))[1]] = -0.5  # bottom level of the default cylinder
    with pytest.raises(EnvelopeError, match="parabolic boundary"):
        abp_diagnostic(MeshFunction(spec, vals))


def test_abp_lateral_boundary_violation_raises():
    # the default cylinder is |k - 4| <= 3 over levels 1..16: column 1 is on
    # its lateral shell, column 2 inside it
    spec = MeshSpec(**ABP_MESH)
    vals = np.zeros(spec.shape)
    vals[9, spec.offset((2, 10))[1]] = -0.5
    assert abp_diagnostic(MeshFunction(spec, vals))["lhs"] == 0.5
    vals[9, spec.offset((1, 10))[1]] = -0.25
    with pytest.raises(EnvelopeError, match="parabolic boundary.*min -2.500e-01"):
        abp_diagnostic(MeshFunction(spec, vals))


def test_abp_parameter_validation():
    spec = MeshSpec(**ABP_MESH)
    u = MeshFunction(spec, np.zeros(spec.shape))
    with pytest.raises(EnvelopeError, match="lattice"):
        abp_diagnostic(u, center=((0.51,), spec.T))
    with pytest.raises(EnvelopeError, match="lattice"):
        abp_diagnostic(u, rho=0.3)
    with pytest.raises(EnvelopeError, match="fit"):
        abp_diagnostic(u, rho=0.625)  # needs rho^2 <= top time and ball inside box


def test_abp_refuses_a_top_off_the_mesh_a_zero_radius_and_a_mesh_too_narrow():
    spec = MeshSpec(**ABP_MESH)
    u = MeshFunction(spec, np.zeros(spec.shape))
    for m in (0, spec.levels + 1):
        with pytest.raises(EnvelopeError, match=f"^cylinder top time {m * spec.tau} outside the mesh$"):
            abp_diagnostic(u, center=((0.5,), m * spec.tau))
    with pytest.raises(EnvelopeError, match="positive multiple of h, got 0.0"):
        abp_diagnostic(u, rho=0.0)
    # bounds off the lattice: columns 1/8 and 1/4 only, so no radius-h ball fits
    narrow = MeshSpec(h=0.125, bounds=[(0.05, 0.35)], T=0.25, N=2)
    assert narrow.k_min == (1,) and narrow.k_max == (2,)
    with pytest.raises(EnvelopeError, match="no backward cylinder of radius h fits this mesh"):
        abp_diagnostic(MeshFunction(narrow, np.zeros(narrow.shape)))


@pytest.mark.parametrize(
    "kw, fragment",
    [
        (dict(center=((0.5,), math.nan)), "center time must be finite"),
        (dict(center=((math.inf,), 0.25)), "center coordinate must be finite"),
        (dict(rho=math.nan), "radius must be finite"),
        (dict(rho=math.inf), "radius must be finite"),
    ],
    ids=["t=nan", "x=inf", "rho=nan", "rho=inf"],
)
def test_abp_refuses_non_finite_lattice_values(kw, fragment):
    # round() used to raise ValueError on nan and OverflowError on inf
    spec = MeshSpec(**ABP_MESH)
    with pytest.raises(EnvelopeError, match=fragment):
        abp_diagnostic(MeshFunction(spec, np.zeros(spec.shape)), **kw)


@pytest.mark.parametrize("tol", [math.nan, -1e-12, math.inf, -math.inf])
def test_nonsense_contact_tolerances_are_refused(tol):
    # unchecked, nan and -1e-12 gave ratio inf with 0 contacts and inf
    # counted all 960 nodes
    spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
    u = MeshFunction.from_callable(
        spec, lambda x, t: 4 * (x[..., 0] - 0.5) ** 2 + 4 * (0.25 - t) - 0.05
    )
    with pytest.raises(EnvelopeError, match="tol must be a finite number >= 0"):
        abp_diagnostic(u, tol=tol)
    with pytest.raises(EnvelopeError, match="tol must be a finite number >= 0"):
        contact_set(u, lower_monotone_envelope(u), tol=tol)


@pytest.mark.parametrize("K", [math.nan, -1.0, math.inf])
def test_nonsense_K_is_refused(K):
    # unchecked, K = nan gave ratio nan and K = -1 gave ratio -2.26
    spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
    u = MeshFunction.from_callable(
        spec, lambda x, t: 4 * (x[..., 0] - 0.5) ** 2 + 4 * (0.25 - t) - 0.05
    )
    with pytest.raises(EnvelopeError, match="K must be a finite number >= 0"):
        abp_diagnostic(u, K=K)


def test_zero_K_and_zero_tol_are_legal():
    spec = MeshSpec(**ABP_MESH)
    vals = np.zeros(spec.shape)
    vals[13, spec.offset((4, 14))[1]] = -1.0
    u = MeshFunction(spec, vals)
    out = abp_diagnostic(u, K=0.0, tol=0.0)
    assert out["K"] == 0.0 and out["contact_tol"] == 0.0 and out["ratio"] == math.inf
    assert contact_set(u, lower_monotone_envelope(u), tol=0)["tol"] == 0.0


def test_abp_supplied_K_and_rho():
    spec = MeshSpec(**ABP_MESH)
    vals = np.zeros(spec.shape)
    vals[13, spec.offset((4, 14))[1]] = -1.0
    u = MeshFunction(spec, vals)
    out = abp_diagnostic(u, K=10.0, rho=0.25)
    assert out["K"] == 10.0
    assert out["rho"] == 0.25
    assert out["lhs"] == 1.0
    assert math.isfinite(out["ratio"]) and out["ratio"] > 0


def test_abp_2d_smoke():
    spec = MeshSpec(h=0.1, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.04, N=2)
    vals = np.zeros(spec.shape)
    center_off = spec.offset((5, 5, 3))
    vals[center_off] = -0.7
    out = abp_diagnostic(MeshFunction(spec, vals))
    assert out["rho"] == pytest.approx(0.2)
    assert out["lhs"] == pytest.approx(0.7)
    assert out["contact_count"] >= 1
    assert math.isfinite(out["ratio"]) and out["ratio"] > 0
