import math

import numpy as np
import pytest
from scipy.optimize import linprog

from parastep.envelopes import (
    abp_diagnostic,
    contact_set,
    lower_monotone_envelope,
    upper_monotone_envelope,
)
from parastep.errors import EnvelopeError, GridError
from parastep.geometry import Cylinder, MeshFunction, MeshSpec, region_mask

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


def test_abp_boundary_violation_raises():
    spec = MeshSpec(**ABP_MESH)
    vals = np.zeros(spec.shape)
    vals[0, spec.offset((4, 1))[1]] = -0.5  # bottom level of the default cylinder
    with pytest.raises(EnvelopeError, match="parabolic boundary"):
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
