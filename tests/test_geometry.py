import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parastep import (
    Cylinder,
    GridError,
    KBox,
    MeshFunction,
    MeshSpec,
    ParabolicPoint,
    classify_mesh_points,
    discrete_holder_norm,
    euclidean_distance,
    parabolic_distance,
    region_mask,
)
from parastep import geometry
from parastep.geometry import second_quotient_field, shift
from parastep.harness import get_problem
from parastep.scheme import Stencil, build_monotone_scheme
from parastep.solver import solve

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def boundary_distance_oracle(spec, x, t, samples=4001):
    """Parabolic distance to the parabolic boundary by dense sampling.

    The parabolic boundary of box x (0,T] is (closed box x {0}) union
    (box faces x (0,T)).  Independent of the closed-form rule used in the
    implementation.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    best = math.inf
    # initial slice: sample the closed box at t=0
    axes = [np.linspace(lo, hi, 81) for lo, hi in spec.bounds]
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grid], axis=-1)
    d2 = ((pts - x) ** 2).sum(axis=1) + t
    best = min(best, math.sqrt(d2.min()))
    # lateral faces: for each axis, both faces, sampled in remaining coords x time
    ts = np.linspace(0.0, spec.T, samples)
    for a in range(spec.n):
        for face in spec.bounds[a]:
            others = [np.linspace(lo, hi, 81) for i, (lo, hi) in enumerate(spec.bounds) if i != a]
            if others:
                og = np.meshgrid(*others, indexing="ij")
                opts = np.stack([g.ravel() for g in og], axis=-1)
            else:
                opts = np.zeros((1, 0))
            y = np.empty((opts.shape[0], spec.n))
            cols = [i for i in range(spec.n) if i != a]
            for j, c in enumerate(cols):
                y[:, c] = opts[:, j]
            y[:, a] = face
            dx2 = ((y - x) ** 2).sum(axis=1)
            dt = np.abs(ts[None, :] - t)
            best = min(best, math.sqrt((dx2[:, None] + dt).min()))
    return best


def contains_oracle(region, x, t):
    """Direct transcription of the region definitions, kept separate from the
    implementation's vectorized filtering."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = np.asarray(region.center.x)
    if isinstance(region, Cylinder):
        if ((x - c) ** 2).sum() >= region.radius**2:
            return False
        if region.orientation == "backward":
            return region.center.t - region.radius**2 < t <= region.center.t
        return region.center.t < t <= region.center.t + region.radius**2
    w = region.r / (9.0 * math.sqrt(len(c)))
    if np.any(np.abs(x - c) > w):
        return False
    return region.center.t < t <= region.center.t + region.r**2 / (81.0 * len(c))


def mask_nodes(spec, mask):
    """The node indices of a boolean mesh mask, time-major."""
    return [spec.index_from_offset(off) for off in np.argwhere(mask)]


def delta_tau_minus(u, index):
    """Backward time quotient (u(x,t) - u(x, t - h^2)) / h^2 at one node;
    GridError when the node or its predecessor is off the mesh."""
    spec = u.spec
    prev = index[:-1] + (index[-1] - 1,)
    if not spec.contains_index(index) or not spec.contains_index(prev):
        raise GridError(f"delta_tau_minus needs {index} and its predecessor on the mesh")
    return (u.value(index) - u.value(prev)) / spec.tau


def delta2_y(u, index, y):
    """(u(x + hy, t) + u(x - hy, t) - 2 u(x,t)) / |hy|^2 at one node;
    GridError when the stencil leaves the mesh."""
    spec = u.spec
    plus = tuple(k + c for k, c in zip(index[:-1], y)) + (index[-1],)
    minus = tuple(k - c for k, c in zip(index[:-1], y)) + (index[-1],)
    if not (spec.contains_index(index) and spec.contains_index(plus) and spec.contains_index(minus)):
        raise GridError(f"delta2 stencil of {index} along {y} leaves the mesh")
    h2y2 = spec.h**2 * sum(c * c for c in y)
    return (u.value(plus) + u.value(minus) - 2.0 * u.value(index)) / h2y2


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_parabolic_distance_frozen():
    # (|0.3|^2 + |0.04|)^(1/2) with the time gap entering linearly
    p = ParabolicPoint((0.0,), 0.05)
    q = ParabolicPoint((0.3,), 0.09)
    assert parabolic_distance(p, q) == pytest.approx(math.sqrt(0.09 + 0.04), abs=1e-15)
    assert euclidean_distance(p, q) == pytest.approx(math.sqrt(0.09 + 0.0016), abs=1e-15)


@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    st.floats(0, 3),
    st.floats(0, 3),
)
def test_parabolic_distance_properties(x, y, t, s):
    p, q = ParabolicPoint(tuple(x), t), ParabolicPoint(tuple(y), s)
    d = parabolic_distance(p, q)
    assert d == parabolic_distance(q, p)
    assert d >= 0
    assert parabolic_distance(p, p) == 0
    # squared distance decomposes exactly
    assert d**2 == pytest.approx(sum((a - b) ** 2 for a, b in zip(x, y)) + abs(t - s), rel=1e-12, abs=1e-12)
    # parabolic vs euclidean ordering for small time gaps (|dt| <= 1 => d >= d_e)
    if abs(t - s) <= 1.0:
        assert d >= euclidean_distance(p, q) - 1e-12


def test_distance_dimension_mismatch():
    with pytest.raises(GridError):
        parabolic_distance(ParabolicPoint((0.0,), 0.0), ParabolicPoint((0.0, 0.0), 0.0))


# ---------------------------------------------------------------------------
# mesh spec
# ---------------------------------------------------------------------------


def test_mesh_spec_basic():
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)
    assert spec.tau == 0.125**2
    assert spec.levels == 16
    assert spec.spatial_shape == (7,)
    np.testing.assert_allclose(spec.axis_coords(0), np.arange(1, 8) / 8.0)
    np.testing.assert_allclose(spec.times(), np.arange(1, 17) / 64.0)


def test_mesh_spec_T_rounded_down():
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.26, N=2)
    assert spec.levels == 16
    assert spec.T == pytest.approx(0.25)
    assert spec.T_requested == 0.26


def test_mesh_spec_rejects_large_N():
    with pytest.raises(GridError):
        MeshSpec(h=0.25, bounds=[(0.0, 1.0)], T=1.0, N=4)  # N*h = 1 not < 1


@pytest.mark.parametrize(
    "h, T, fragment",
    [
        (math.nan, 0.25, "h must be a finite positive number, got nan"),
        (math.inf, 0.25, "h must be a finite positive number, got inf"),
        (0.125, math.nan, "T must be finite, got nan"),
        (0.125, math.inf, "T must be finite, got inf"),
    ],
)
def test_mesh_spec_rejects_non_finite_h_and_T(h, T, fragment):
    # T = nan or inf used to escape as a ValueError or OverflowError from the
    # level count, and h = nan as a misleading stencil-reach message
    with pytest.raises(GridError, match=fragment):
        MeshSpec(h=h, bounds=[(0.0, 1.0)], T=T, N=2)


@pytest.mark.parametrize(
    "h, bounds, T, fragment",
    [
        (0.25, [(0.0, math.inf)], 0.25, r"invalid bounds \(0.0, inf\): need finite lo < hi"),
        (0.25, [(-math.inf, 1.0)], 0.25, r"invalid bounds \(-inf, 1.0\)"),
        (0.25, [(0.0, 1.0), (0.0, math.inf)], 0.25, r"invalid bounds \(0.0, inf\)"),
        # the quotients overflow to inf; the node counts exceed numpy's arrays
        (1e-10, [(0.0, 1e308)], 0.25, "has too many nodes"),
        (0.25, [(0.0, 1.0)], 1e300, "more nodes than one float array can hold"),
        (1e-3, [(0.0, 1.0), (0.0, 1.0)], 1e9, "more nodes than one float array can hold"),
    ],
)
def test_mesh_spec_refuses_infinite_bounds_and_unindexable_meshes(h, bounds, T, fragment):
    # an infinite bound used to end in an OverflowError from k_max, and
    # T = 1e300 in "ValueError: Maximum allowed size exceeded" from times()
    with pytest.raises(GridError, match=fragment):
        MeshSpec(h=h, bounds=bounds, T=T, N=2)


def test_mesh_spec_accepts_the_largest_indexable_mesh():
    # levels x columns at the cap is a legal mesh (nothing is allocated); T
    # holds the level count to about 1e-16 relative
    levels = geometry._MAX_NODES // 7
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=levels * 0.125**2, N=2)
    assert 0 <= levels - spec.levels < 64 and spec.node_count() <= geometry._MAX_NODES


def test_mesh_spec_index_round_trip():
    spec = MeshSpec(h=0.1, bounds=[(0.0, 1.0), (-0.5, 0.5)], T=0.05, N=2)
    for idx in spec.node_indices():
        assert spec.index_from_offset(spec.offset(idx)) == idx
    p = spec.node_point((3, -2, 4))
    np.testing.assert_allclose(p.x, (0.3, -0.2), rtol=1e-15)
    assert p.t == pytest.approx(4 * 0.01)


@pytest.mark.parametrize(
    "index", [(3.7, 5), (3.0, 5), (True, 5), (3, False), ("3", "5"), (np.float64(3.0), 5), (None, 5)]
)
def test_a_node_index_takes_integers_only(index):
    # int() used to truncate each component: (3.7, 5) read node (3, 5)
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.125, N=2)
    v = MeshFunction.from_callable(spec, lambda x, t: x[..., 0] + t)
    assert spec.contains_index((3, 5)) and spec.offset((3, 5)) == (4, 2)
    assert not spec.contains_index(index)
    message = re.escape(f"node {index} is not in the mesh")
    with pytest.raises(GridError, match=f"^{message}$"):
        spec.offset(index)
    with pytest.raises(GridError, match=f"^{message}$"):
        v.value(index)


@pytest.mark.parametrize("index", [(3.7, 5), (3.0, 5), (True, 5), (3, False), ("3", "5"), (None, 5), (3,)])
def test_a_node_point_takes_integers_only(index):
    # int() used to truncate: (3.7, 5) gave x = 0.375, (True, 5) node (1, 5)
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.125, N=2)
    assert spec.node_point((3, 5)) == ParabolicPoint((0.375,), 5 * 0.125**2)
    assert spec.node_point((np.int64(-3), np.uint8(9))) == ParabolicPoint((-0.375,), 9 * 0.125**2)
    message = re.escape(f"index must be 2 integers, got {index}")
    with pytest.raises(GridError, match=f"^{message}$"):
        spec.node_point(index)


def test_a_node_index_may_hold_numpy_integers():
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.125, N=2)
    v = MeshFunction.from_callable(spec, lambda x, t: x[..., 0] + t)
    for index in ((np.int64(3), 5), (3, np.int32(5)), np.array([3, 5]), [np.uint8(3), 5]):
        assert spec.contains_index(index) and spec.offset(index) == (4, 2)
        assert v.value(index) == v.value((3, 5))
        assert all(type(i) is int for i in spec.offset(index))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classification_1d_frozen():
    # [0,1], h=1/8, N=2: interior needs t >= (2/8)^2 = 1/16 (m >= 4) and
    # x in [0.25, 0.75].
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)
    cls = classify_mesh_points(spec)
    assert cls.interior.shape == spec.shape
    # node (x=1/2, t=1/8): interior
    assert cls.interior[spec.offset((4, 8))]
    # first interior level is m=4
    assert not cls.interior[spec.offset((4, 3))]
    assert cls.interior[spec.offset((4, 4))]
    # lateral band: x=1/8 is always boundary
    assert not cls.interior[spec.offset((1, 10))]
    # x=0.25 is exactly at distance Nh: interior (>= Nh)
    assert cls.interior[spec.offset((2, 8))]
    assert int(cls.interior.sum()) == 13 * 5


def test_classification_matches_sampled_boundary_distance():
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.5)], T=0.5, N=2)
    cls = classify_mesh_points(spec)
    for idx in spec.node_indices():
        p = spec.node_point(idx)
        d = boundary_distance_oracle(spec, p.x, p.t)
        want_interior = d >= spec.N * spec.h - 1e-6
        assert cls.interior[spec.offset(idx)] == want_interior, (idx, d)


def test_classification_2d_band():
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)
    cls = classify_mesh_points(spec)
    # spatial interior columns are x,y in [0.25, 0.75] -> 5x5, levels m>=4
    assert int(cls.interior.sum()) == 13 * 25


# ---------------------------------------------------------------------------
# cylinders / boxes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -0.25])
def test_regions_refuse_a_radius_that_is_not_finite_and_positive(radius):
    # nan and inf used to construct, and cylinder_steps(inf) ended in OverflowError
    center = ParabolicPoint((0.5,), 0.25)
    with pytest.raises(GridError, match="cylinder radius must be finite and positive"):
        Cylinder(center, radius=radius)
    with pytest.raises(GridError, match="K-box scale must be finite and positive"):
        KBox(center, r=radius)
    with pytest.raises(GridError, match="cylinder radius must be finite and positive"):
        MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2).cylinder_steps(radius)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_lattice_index_refuses_a_non_finite_value_with_the_callers_error(value):
    with pytest.raises(ValueError, match="time must be finite"):
        geometry.lattice_index(value, 0.125, "time", ValueError)
    with pytest.raises(GridError, match="radius must be finite"):
        geometry.lattice_index(value, 0.125, "radius")


@pytest.mark.parametrize(
    "bounds", [[(0.0, 1.0)], [(0.0, 0.95)], [(-0.3, 0.7), (0.1, 0.85)], [(0.0, 0.75)] * 3]
)
def test_cylinder_fits_one_node_as_the_mask_does(bounds):
    spec = MeshSpec(h=0.125, bounds=bounds, T=0.25, N=2)
    mid = spec.middle_node()
    assert spec.contains_index(mid)
    lat = spec.lateral_distance()
    assert lat[spec.offset(mid)[1:]] == lat.max()
    for radius in (0.1, 0.125, 0.25, math.sqrt(2) * 0.125, 0.3, 0.375, 0.5):
        mask = spec.cylinder_fits(radius)
        assert mask.shape == spec.shape
        assert [bool(spec.cylinder_fits(radius, i)) for i in spec.node_indices()] == (
            mask.ravel().tolist()
        )
        assert mask.any() == spec.cylinder_fits(radius, mid)
    # a node off the box never fits, whichever side it is on
    outside = tuple(k - 20 for k in mid[:-1]) + (mid[-1],)
    assert not spec.cylinder_fits(0.01, outside)


def test_tiny_cylinder_hits_single_node():
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)
    cyl = Cylinder(ParabolicPoint((0.5,), 0.125), radius=0.05, orientation="backward")
    assert mask_nodes(spec, region_mask(spec, cyl)) == [(4, 8)]


def test_cylinder_nodes_match_oracle(rng, cylinder_nodes):
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)
    for _ in range(40):
        center = ParabolicPoint((rng.uniform(0, 1),), rng.uniform(0, 0.25))
        r = rng.uniform(0.03, 0.45)
        orient = "backward" if rng.random() < 0.5 else "forward"
        cyl = Cylinder(center, r, orient)
        got = set(mask_nodes(spec, region_mask(spec, cyl)))
        want = {
            idx
            for idx in spec.node_indices()
            if contains_oracle(cyl, spec.node_point(idx).x, spec.node_point(idx).t)
        }
        assert got == want == set(cylinder_nodes(spec, cyl))


def test_cylinder_nodes_match_oracle_2d(rng, cylinder_nodes):
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.5), (0.0, 1.5)], T=0.5, N=2)
    for _ in range(15):
        center = ParabolicPoint((rng.uniform(0, 1.5), rng.uniform(0, 1.5)), rng.uniform(0, 0.5))
        cyl = Cylinder(center, rng.uniform(0.1, 0.8), "backward")
        got = set(mask_nodes(spec, region_mask(spec, cyl)))
        want = {
            idx
            for idx in spec.node_indices()
            if contains_oracle(cyl, spec.node_point(idx).x, spec.node_point(idx).t)
        }
        assert got == want == set(cylinder_nodes(spec, cyl))


def test_kbox_nodes_match_oracle(rng, cylinder_nodes):
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)
    for _ in range(25):
        box = KBox(ParabolicPoint((rng.uniform(0.2, 0.8),), rng.uniform(0, 0.2)), rng.uniform(0.5, 2.5))
        got = set(mask_nodes(spec, region_mask(spec, box)))
        want = {
            idx
            for idx in spec.node_indices()
            if contains_oracle(box, spec.node_point(idx).x, spec.node_point(idx).t)
        }
        assert got == want == set(cylinder_nodes(spec, box))


def tie_regions(n, h):
    """Regions whose edges fall on lattice nodes: radii k h and sqrt(k tau)
    in both orientations, and K-boxes of lattice half width and height."""
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=24 * h * h, N=2)
    center = (tuple(round(0.5 / h) * h for _ in range(n)), 12 * spec.tau)
    regions = []
    for k in (1, 2, 3, 5):
        for orient in ("backward", "forward"):
            regions.append(Cylinder(center, k * h, orient))
            regions.append(Cylinder(center, math.sqrt(k * spec.tau), orient))
        regions.append(KBox(center, 9.0 * math.sqrt(n) * k * h))
        regions.append(KBox(center, math.sqrt(81.0 * n * k * spec.tau)))
    return spec, regions


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("h", [1 / 8, 1 / 12, 1 / 16, 1 / 20, 0.1], ids=lambda h: f"h={h:.4g}")
def test_region_mask_matches_cylinder_nodes_on_ties(n, h, cylinder_mask):
    spec, regions = tie_regions(n, h)
    for region in regions:
        mask = region_mask(spec, region)
        assert mask.any()
        assert np.array_equal(mask, cylinder_mask(spec, region)), region


def whole_mesh_mask(spec, region):
    """``region.contains_points`` over every node in one call.  This was
    ``region_mask`` before it took a chunk of levels at a time."""
    off = np.indices(spec.shape).reshape(spec.n + 1, -1).T
    inside = region.contains_points((off[:, 1:] + spec.k_min) * spec.h, (off[:, 0] + 1) * spec.tau)
    return inside.reshape(spec.shape)


@pytest.mark.parametrize("levels", [1, 5, None])
@pytest.mark.parametrize("n", [1, 2])
def test_region_mask_by_level_chunks_equals_the_whole_mesh_mask(monkeypatch, rng, n, levels):
    # chunks of one level, of five, and one chunk (the verify meshes' case)
    for h in (1 / 8, 1 / 12, 0.1):
        spec, regions = tie_regions(n, h)
        if levels is not None:
            per_level = 8 * (2 * n + 6) * math.prod(spec.spatial_shape)
            monkeypatch.setattr(geometry, "_SCRATCH_BYTES", levels * per_level)
        for _ in range(6):
            center = (tuple(rng.uniform(0.0, 1.0, n)), rng.uniform(0.0, spec.T))
            r = rng.uniform(0.05, 0.6)
            regions += [Cylinder(center, r, "backward"), Cylinder(center, r, "forward"), KBox(center, 9 * r)]
        for region in regions:
            assert np.array_equal(region_mask(spec, region), whole_mesh_mask(spec, region)), region


def test_region_mask_peak_stays_within_its_budget(traced_peak):
    # the default K-box of diagnose on 2-D h = 1/32 covers all 246,016 nodes;
    # one contains_points call over them peaked at 21.1 MiB
    spec = MeshSpec(h=1 / 32, bounds=[(0.0, 1.0)] * 2, T=0.25, N=2)
    box = KBox(((0.5, 0.5), 0.0), math.sqrt(81.0 * 2 * spec.T))
    mask, peak = traced_peak(region_mask, spec, box)
    assert mask.all()
    assert peak <= mask.nbytes + geometry._SCRATCH_BYTES


def test_region_on_open_bottom_level_is_left_out():
    # r^2 rounds to 0.007812500000000002 > 2 tau, so level 6 sits on the open
    # bottom t = 0.0234375 only up to rounding: 3 nodes on each of levels 7, 8
    spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
    cyl = Cylinder(((0.5,), 0.03125), math.sqrt(2 * spec.tau))
    nodes = mask_nodes(spec, region_mask(spec, cyl))
    assert sorted(nodes) == [(k, m) for k in (7, 8, 9) for m in (7, 8)]


def test_region_mask_rejects_dimension_mismatch():
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)] * 2, T=0.25, N=2)
    with pytest.raises(GridError, match="dimension"):
        region_mask(spec, Cylinder(((0.5,), 0.125), 0.25))


def test_kbox_frozen_geometry():
    # n=1, r=0.9: half width 0.1, height 0.01; time interval (t, t+0.01]
    box = KBox(ParabolicPoint((0.5,), 0.1), 0.9)
    assert box.half_width == pytest.approx(0.1)
    assert box.height == pytest.approx(0.01)
    assert box.contains(ParabolicPoint((0.6,), 0.105))
    assert not box.contains(ParabolicPoint((0.61,), 0.105))
    assert not box.contains(ParabolicPoint((0.5,), 0.1))  # bottom time excluded
    assert box.contains(ParabolicPoint((0.5,), 0.11))  # top time included


def test_cylinder_orientation_conventions():
    c = Cylinder(ParabolicPoint((0.0,), 1.0), 0.5, "backward")
    assert c.contains(ParabolicPoint((0.0,), 1.0))  # top included
    assert not c.contains(ParabolicPoint((0.0,), 0.75))  # bottom excluded
    assert not c.contains(ParabolicPoint((0.5,), 1.0))  # open ball edge
    f = Cylinder(ParabolicPoint((0.0,), 1.0), 0.5, "forward")
    assert not f.contains(ParabolicPoint((0.0,), 1.0))
    assert f.contains(ParabolicPoint((0.0,), 1.25))


# ---------------------------------------------------------------------------
# mesh functions and serialization
# ---------------------------------------------------------------------------


def test_mesh_function_from_callable_and_value():
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)
    u = MeshFunction.from_callable(spec, lambda x, t: x[..., 0] + 10 * t)
    assert u.value((4, 8)) == pytest.approx(0.5 + 10 * 0.125)


def _from_callable_oracle(spec, f):
    """``MeshFunction.from_callable`` by ``np.meshgrid`` and ``np.stack``, as
    it was built before the level sampler."""
    axes = [spec.axis_coords(a) for a in range(spec.n)]
    grids = np.meshgrid(spec.times(), *axes, indexing="ij")
    vals = np.asarray(f(np.stack(grids[1:], axis=-1), grids[0]), dtype=float)
    return np.broadcast_to(vals, spec.shape).copy()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "f",
    [
        lambda x, t: np.sin(x.sum(axis=-1)) * np.exp(-t) + x[..., 0] * t,
        lambda x, t: np.einsum("...i,ij,...j->...", x, np.eye(x.shape[-1]) + 0.5, x) + t,
        lambda x, t: 2.5,
        lambda x, t: np.cos(x[0, ..., 0]),  # one level's shape, broadcast over time
        lambda x, t: t[(slice(None),) + (slice(0, 1),) * (t.ndim - 1)] ** 2,
    ],
    ids=["elementwise", "einsum", "scalar", "spatial", "temporal"],
)
def test_from_callable_equals_the_meshgrid_oracle(n, f):
    spec = MeshSpec(h=1 / 8, bounds=[(0.0, 1.0)] * n, T=0.1, N=2)
    u = MeshFunction.from_callable(spec, f)
    assert np.array_equal(u.values, _from_callable_oracle(spec, f))


def test_from_callable_hands_out_writable_coordinates():
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.0)] * 2, T=0.25, N=2)

    def f(x, t):
        x += 1.0  # a callable may work in place on its own arguments
        t *= 2.0
        return x[..., 0] + t

    want = _from_callable_oracle(spec, lambda x, t: x[..., 0] + 1.0 + 2.0 * t)
    assert np.array_equal(MeshFunction.from_callable(spec, f).values, want)


@pytest.mark.parametrize(
    "n, h, T", [(1, 1 / 128, 0.25), (2, 1 / 32, 0.5), (3, 1 / 16, 0.25)], ids=["1d", "2d", "3d"]
)
def test_from_callable_holds_n_plus_one_grids(n, h, T, traced_peak):
    # t and x are the only full-shape arrays while f runs: n + 1 grids, where
    # np.meshgrid and np.stack held 2n + 1
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=T, N=2)
    grid = spec.node_count() * 8
    assert grid >= 2**20
    _, peak = traced_peak(MeshFunction.from_callable, spec, lambda x, t: t)
    assert peak <= (n + 1) * grid + 2**20, peak / grid


def test_mesh_function_text_round_trip(tmp_path, rng):
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.5), (-1.0, 0.5)], T=0.5, N=2)
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    path = tmp_path / "u.txt"
    u.write_text(path)
    v = MeshFunction.read_text(path)
    assert v.spec == spec
    np.testing.assert_array_equal(v.values, u.values)


def test_mesh_function_read_rejects_missing_nodes(tmp_path):
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.0)], T=0.25, N=2)
    u = MeshFunction(spec, np.zeros(spec.shape))
    path = tmp_path / "u.txt"
    u.write_text(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(GridError):
        MeshFunction.read_text(path)


def test_mesh_function_read_rejects_bad_header(tmp_path):
    path = tmp_path / "u.txt"
    path.write_text("1 0.25 2 0.0\n")
    with pytest.raises(GridError):
        MeshFunction.read_text(path)


def test_mesh_function_shape_mismatch():
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.0)], T=0.25, N=2)
    with pytest.raises(GridError):
        MeshFunction(spec, np.zeros((2, 2)))


# The per-node text writer and reader that the array-wide versions replaced;
# the differential tests below hold the new ones to them.


def write_text_oracle(u, path):
    spec = u.spec
    head = [str(spec.n), repr(spec.h), str(spec.N)]
    for lo, hi in spec.bounds:
        head += [repr(lo), repr(hi)]
    head.append(repr(spec.T))
    lines = [" ".join(head)]
    for idx in spec.node_indices():
        lines.append(" ".join(map(str, idx)) + " " + repr(u.value(idx)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_text_oracle(path):
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw:
        raise GridError(f"{path}: empty mesh-function file")
    head = raw[0].split()
    try:
        n = int(head[0])
        h = float(head[1])
        N = int(head[2])
        if len(head) != 3 + 2 * n + 1:
            raise IndexError
        bounds = [(float(head[3 + 2 * a]), float(head[4 + 2 * a])) for a in range(n)]
        T = float(head[3 + 2 * n])
    except (IndexError, ValueError) as exc:
        raise GridError(f"{path}: malformed header {raw[0]!r}") from exc
    spec = MeshSpec(h, bounds, T, N)
    vals = np.full(spec.shape, np.nan)
    if len(raw) - 1 != spec.node_count():
        raise GridError(f"{path}: expected {spec.node_count()} node lines, got {len(raw) - 1}")
    for ln in raw[1:]:
        parts = ln.split()
        if len(parts) != n + 2:
            raise GridError(f"{path}: malformed node line {ln!r}")
        idx = tuple(int(p) for p in parts[:-1])
        if not spec.contains_index(idx):
            raise GridError(f"{path}: node {idx} outside the declared mesh")
        value = float(parts[-1])
        if not math.isfinite(value):
            raise GridError(f"{path}: non-finite value in node line {ln!r}")
        vals[spec.offset(idx)] = value
    if np.isnan(vals).any():
        raise GridError(f"{path}: some mesh nodes missing from file")
    return MeshFunction(spec, vals)


TEXT_MESHES = {
    "1d": dict(h=0.125, bounds=[(0.0, 1.0)], T=0.125, N=2),
    "1d-negative-kmin": dict(h=0.125, bounds=[(-1.0, -0.25)], T=0.0625, N=2),
    "2d": dict(h=0.25, bounds=[(0.0, 1.5), (-1.0, 0.5)], T=0.25, N=2),
    "3d-negative-kmin": dict(h=0.25, bounds=[(-0.75, 0.5), (0.0, 1.0), (-1.0, -0.25)], T=0.125, N=2),
}
SPECIAL_VALUES = [-0.0, 5e-324, 1e300, 0.1 + 0.2, -1 / 3]


def special_mesh_function(name, rng):
    spec = MeshSpec(**TEXT_MESHES[name])
    vals = rng.standard_normal(spec.node_count())
    vals[: len(SPECIAL_VALUES)] = SPECIAL_VALUES
    vals[-len(SPECIAL_VALUES) :] = SPECIAL_VALUES[::-1]
    return MeshFunction(spec, vals.reshape(spec.shape))


def read_chunks_of(mp, lines, n):
    """Make ``read_text`` parse ``lines`` node lines per chunk on an n-D mesh:
    its chunks are _SCRATCH_BYTES // (160 (n + 2)) lines long."""
    mp.setattr(geometry, "_SCRATCH_BYTES", lines * 160 * (n + 2))


@pytest.fixture(params=["one-chunk", "4-line-chunks"])
def read_chunks(request, monkeypatch):
    """Run a reader test with the whole file as one chunk, then with many:
    call the fixture with the mesh's dimension before reading."""

    def chunked(n):
        if request.param == "4-line-chunks":
            read_chunks_of(monkeypatch, 4, n)

    return chunked


@pytest.mark.parametrize("name", sorted(TEXT_MESHES))
def test_text_io_matches_per_node_oracle(name, tmp_path, rng, read_chunks):
    u = special_mesh_function(name, rng)
    assert min(u.spec.k_min) < 0 or "negative" not in name
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    u.write_text(new)
    write_text_oracle(u, old)
    assert new.read_bytes() == old.read_bytes()

    read_chunks(u.spec.n)
    v = MeshFunction.read_text(new)
    assert v.spec == u.spec
    assert np.array_equal(v.values, u.values)
    assert np.array_equal(np.signbit(v.values), np.signbit(u.values))
    assert np.array_equal(read_text_oracle(new).values, v.values)

    # blank and indented lines are skipped anywhere, as before
    lines = new.read_text().splitlines()
    padded = tmp_path / "padded.txt"
    padded.write_text("\n\n" + "\n  \n".join("  " + ln + "\t" for ln in lines) + "\n\n")
    assert np.array_equal(MeshFunction.read_text(padded).values, u.values)


@st.composite
def text_mesh_functions(draw):
    """Small 1- to 3-D meshes anywhere on the lattice (on or off it at the
    bounds), with values drawn from all finite doubles and the edge cases."""
    h = draw(st.sampled_from([0.25, 0.125, 0.1]))
    bounds = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.integers(-8, 4)) * h + draw(st.sampled_from([0.0, h / 3]))
        bounds.append((lo, lo + draw(st.integers(3, 4)) * h))
    spec = MeshSpec(h, bounds, draw(st.integers(1, 3)) * h * h, N=2)
    # SPECIAL_VALUES plus +0.0, -5e-324, the largest subnormal and the lowest double
    edges = SPECIAL_VALUES + [0.0, -5e-324, 2.225073858507201e-308, -1.7976931348623157e308]
    value = st.one_of(st.sampled_from(edges), st.floats(allow_nan=False, allow_infinity=False))
    size = spec.node_count()
    vals = draw(st.lists(value, min_size=size, max_size=size))
    return MeshFunction(spec, np.array(vals).reshape(spec.shape))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(u=text_mesh_functions(), chunk=st.sampled_from([None, 1, 3]))
@example(
    u=MeshFunction(
        MeshSpec(0.25, [(-1.0, 0.0)], 0.125, N=2),
        np.array([[-0.0, 5e-324, -5e-324], [0.0, -2.2250738585072014e-308, 1e300]]),
    ),
    chunk=1,
)
def test_generated_text_io_matches_the_per_node_oracle(u, chunk, tmp_path_factory):
    # same file bytes as the per-node writer, and the same values, sign bits
    # included, from the array-wide reader (in chunks of `chunk` lines) and
    # the per-node reader (chunk None: the shipped budget)
    new, old = (tmp_path_factory.mktemp("text") / name for name in ("new.txt", "old.txt"))
    u.write_text(new)
    write_text_oracle(u, old)
    assert new.read_bytes() == old.read_bytes()
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            read_chunks_of(mp, chunk, u.spec.n)
        v = MeshFunction.read_text(new)
    w = read_text_oracle(new)
    assert v.spec == u.spec and w.spec == u.spec
    for got in (v.values, w.values):
        assert np.array_equal(got, u.values)
        assert np.array_equal(np.signbit(got), np.signbit(u.values))


def _node_line_swap(lines, i, text):
    return lines[:i] + [text] + lines[i + 1 :]


# Each case maps the lines of a valid 2-D file (header first) to a broken one.
BROKEN_TEXT = {
    "empty": lambda lines: [],
    "blank-only": lambda lines: ["", "   "],
    "header-short": lambda lines: ["2 0.25 2 0.0 1.5 -1.0 0.5"] + lines[1:],
    "header-not-a-number": lambda lines: ["2 0.25 two 0.0 1.5 -1.0 0.5 0.25"] + lines[1:],
    "one-line-too-few": lambda lines: lines[:-1],
    "one-line-too-many": lambda lines: lines + [lines[-1]],
    "too-few-tokens": lambda lines: _node_line_swap(lines, 7, "1 -3 1"),
    "too-many-tokens": lambda lines: _node_line_swap(lines, 7, "1 -3 1 0.5 0.5"),
    "space-outside": lambda lines: _node_line_swap(lines, 3, "9 -3 1 0.5"),
    "time-outside": lambda lines: _node_line_swap(lines, 3, "1 -3 0 0.5"),
    "outside-after-malformed": lambda lines: _node_line_swap(
        _node_line_swap(lines, 9, "9 -3 1 0.5"), 4, "1 -3"
    ),
    "malformed-after-outside": lambda lines: _node_line_swap(
        _node_line_swap(lines, 9, "1 -3"), 4, "9 -3 1 0.5"
    ),
    "duplicate-hides-missing": lambda lines: _node_line_swap(lines, 2, lines[1]),
    "nan-value": lambda lines: _node_line_swap(lines, 5, lines[5].rsplit(" ", 1)[0] + " nan"),
    "inf-value": lambda lines: _node_line_swap(lines, 6, lines[6].rsplit(" ", 1)[0] + " inf"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_TEXT))
def test_text_reader_errors_match_per_node_oracle(case, tmp_path, rng, read_chunks):
    spec = MeshSpec(**TEXT_MESHES["2d"])
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    good = tmp_path / "good.txt"
    u.write_text(good)
    path = tmp_path / "broken.txt"
    path.write_text("".join(ln + "\n" for ln in BROKEN_TEXT[case](good.read_text().splitlines())))
    with pytest.raises(GridError) as want:
        read_text_oracle(path)
    read_chunks(spec.n)
    with pytest.raises(GridError) as got:
        MeshFunction.read_text(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("case", sorted(BROKEN_TEXT))
def test_text_reader_opens_a_refused_file_once(case, tmp_path, rng, read_chunks, monkeypatch):
    # a refused file used to be opened up to twice more, to find its error
    spec = MeshSpec(**TEXT_MESHES["2d"])
    good = tmp_path / "good.txt"
    MeshFunction(spec, rng.standard_normal(spec.shape)).write_text(good)
    path = tmp_path / "broken.txt"
    path.write_text("".join(ln + "\n" for ln in BROKEN_TEXT[case](good.read_text().splitlines())))
    opened = []

    def counted(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(geometry, "open", counted, raising=False)
    read_chunks(spec.n)
    with pytest.raises(GridError):
        MeshFunction.read_text(path)
    assert opened == [path]


def test_text_reader_names_unparsable_node_line(tmp_path):
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.0)], T=0.125, N=2)
    path = tmp_path / "u.txt"
    MeshFunction(spec, np.zeros(spec.shape)).write_text(path)
    lines = path.read_text().splitlines()
    lines[2] = "2 one 0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridError, match=r"malformed node line '2 one 0\.0'"):
        MeshFunction.read_text(path)


@pytest.mark.parametrize(
    "n, h, times", [(1, 1 / 64, (0.125, 0.25)), (2, 1 / 32, (0.03125,))], ids=["1d-64", "2d-32"]
)
def test_text_reader_peak_stays_within_the_budget(n, h, times, tmp_path, traced_peak):
    # the reader held every line of the file: 6.9 and 9.6 MiB traced on the
    # 1-D grid at T = 1/8 and 1/4 (32,257 and 64,513 lines), 6.8 MiB on the
    # 2-D one at T = 1/32 (30,753 lines; 25.1 MiB at T = 1/4).  Both T of the
    # 1-D grid put level numbers past 256, which are int objects, in a chunk;
    # the 64 KiB of slack are for token lengths (a level number past 999
    # takes a fourth digit, 4 KiB per chunk) and the interpreter's own use
    peaks = []
    for T in times:
        spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=T, N=2)
        path = tmp_path / f"T{T}.txt"
        MeshFunction.from_callable(spec, lambda x, t: -t).write_text(path)
        u, peak = traced_peak(MeshFunction.read_text, path)
        assert peak <= u.values.nbytes + geometry._SCRATCH_BYTES, peak / 2**20
        peaks.append((peak, u.values.nbytes))
    for (peak, grid), (peak2, grid2) in zip(peaks, peaks[1:]):
        assert peak2 - peak <= grid2 - grid + 2**16, peaks


# ---------------------------------------------------------------------------
# Holder norms
# ---------------------------------------------------------------------------


def holder_oracle(u, eta):
    """Plain double loop over node pairs."""
    spec = u.spec
    idxs = list(spec.node_indices())
    best = 0.0
    for i, p in enumerate(idxs):
        for q in idxs[i + 1 :]:
            pp, qq = spec.node_point(p), spec.node_point(q)
            d = parabolic_distance(pp, qq)
            best = max(best, abs(u.value(p) - u.value(q)) / d**eta)
    return best


def pair_max_ratio(pts, vals, eta, block=2048):
    """max over node pairs of |u(p)-u(q)| / d(p,q)^eta, blockwise O(N^2).
    This was the library's all-pairs routine; the tile search must return
    its result bit for bit."""
    best = 0.0
    npts = pts.shape[0]
    for i0 in range(0, npts, block):
        P = pts[i0 : i0 + block]
        V = vals[i0 : i0 + block]
        for j0 in range(i0, npts, block):
            Q = pts[j0 : j0 + block]
            W = vals[j0 : j0 + block]
            dx2 = ((P[:, None, :-1] - Q[None, :, :-1]) ** 2).sum(axis=-1)
            d = np.sqrt(dx2 + np.abs(P[:, None, -1] - Q[None, :, -1]))
            dv = np.abs(V[:, None] - W[None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(d > 0, dv / d**eta, 0.0)
            m = float(r.max(initial=0.0))
            if m > best:
                best = m
    return best


def holder_pairs_oracle(u, eta, region=None):
    """``pair_max_ratio`` over the nodes of ``region``, at the mesh's own
    node coordinates: ``axis_coords`` and ``times``.  The block size does
    not change the result; 256 is faster than 2048 here."""
    spec = u.spec
    if region is None:
        region = np.ones(spec.shape, dtype=bool)
    offs = np.argwhere(region)
    pts = np.empty((offs.shape[0], spec.n + 1))
    for a in range(spec.n):
        pts[:, a] = spec.axis_coords(a)[offs[:, a + 1]]
    pts[:, -1] = spec.times()[offs[:, 0]]
    return pair_max_ratio(pts, u.values[region], eta, block=256)


def test_holder_norm_linear_frozen():
    # u(x,t) = x on [0,1]: same-time pairs give ratio exactly 1, cross-time
    # pairs are strictly smaller, so the eta=1 seminorm is 1.
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)
    u = MeshFunction.from_callable(spec, lambda x, t: x[..., 0])
    res = discrete_holder_norm(u, eta=1.0)
    assert res["seminorm"] == pytest.approx(1.0, abs=1e-12)
    assert res["sup"] == pytest.approx(0.875)
    assert res["norm"] == pytest.approx(1.875, abs=1e-12)


def test_holder_norm_matches_pair_oracle(rng):
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.0)], T=0.25, N=2)
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    for eta in (0.5, 1.0):
        res = discrete_holder_norm(u, eta=eta)
        assert res["seminorm"] == holder_oracle(u, eta)


def test_holder_norm_region_mask(rng):
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.0)], T=0.25, N=2)
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    cls = classify_mesh_points(spec)
    res = discrete_holder_norm(u, eta=1.0, region=cls.interior)
    assert res["sup"] == pytest.approx(float(np.max(np.abs(u.values[cls.interior]))))
    assert res["seminorm"] == holder_pairs_oracle(u, 1.0, cls.interior)


@pytest.mark.parametrize("masked", [False, True], ids=["all", "interior"])
@pytest.mark.parametrize(
    "n, h",
    [(1, 1 / 16), (1, 1 / 32), (2, 1 / 8), (2, 1 / 12)],
    ids=["1d-16", "1d-32", "2d-8", "2d-12"],
)
def test_holder_norm_equals_all_pairs(n, h, masked, rng):
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=0.25, N=2)
    region = classify_mesh_points(spec).interior if masked else None
    random = MeshFunction(spec, rng.standard_normal(spec.shape))
    smooth = MeshFunction.from_callable(spec, lambda x, t: np.sin(np.pi * x[..., 0]) * np.exp(-t))
    # u = x_0 at eta = 1/2: the ratio sqrt|dx| peaks at the farthest pair
    # of columns, so the search must reach the far tiles.  A little noise
    # leaves one maximal pair, deep in the search order.
    far = MeshFunction.from_callable(spec, lambda x, t: x[..., 0])
    far_noisy = MeshFunction(spec, far.values + 1e-3 * h * rng.standard_normal(spec.shape))
    for u, eta in [(random, 0.5), (random, 1.0), (smooth, 0.5), (far_noisy, 0.5), (far, 0.5)]:
        got = discrete_holder_norm(u, eta, region)["seminorm"]
        assert np.array_equal(got, holder_pairs_oracle(u, eta, region)), (eta, got)
    # ``far`` came last: its seminorm is the root of its columns' width.
    cols = far.values[0][classify_mesh_points(spec).interior_columns if masked else ...]
    assert got == pytest.approx(math.sqrt(cols.max() - cols.min()), rel=1e-12)
    constant = MeshFunction(spec, np.full(spec.shape, 0.375))
    for eta in (0.5, 1.0):
        assert discrete_holder_norm(constant, eta, region)["seminorm"] == 0.0


def test_holder_norm_finds_the_maximum_on_a_tight_tile_pair():
    # Neighbours +1, -1 in one level hold the largest ratio.  A chain a, -a,
    # a along time in another column comes within 1e-4 of it; when the pair
    # straddles two tiles, the chain sets the running maximum first, and the
    # bound of the pair's two tiles equals its ratio up to rounding.  Moving
    # the pair over every column boundary makes it straddle two tiles for
    # some of them.
    spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
    a = 1.0 - 1e-4
    cols = spec.spatial_shape[0]
    for k in range(cols - 1):
        v = np.zeros(spec.shape)
        v[20, k : k + 2] = 1.0, -1.0
        v[40:43, (k + cols // 2) % cols] = a, -a, a
        u = MeshFunction(spec, v)
        for eta in (0.5, 1.0):
            got = discrete_holder_norm(u, eta)["seminorm"]
            assert np.array_equal(got, holder_pairs_oracle(u, eta)), (k, eta)


def test_holder_norm_stops_at_the_first_row_bounded_by_the_maximum(monkeypatch):
    # one spike on a zero grid: every pair of zero tiles has bound 0, so the
    # search stops once the rows next to the spike are done, long before the
    # 105 pairs of this mesh's 15 tiles
    spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
    v = np.zeros(spec.shape)
    v[30, 7] = 1.0
    u = MeshFunction(spec, v)
    ratio_max, cross = geometry._ratio_max, []

    def counted(P, V, Q, W, eta):
        if len(P) == 1:  # one row tile against a batch of column tiles
            cross.append(len(Q))
        return ratio_max(P, V, Q, W, eta)

    monkeypatch.setattr(geometry, "_ratio_max", counted)
    for eta in (0.5, 1.0):
        cross.clear()
        got = discrete_holder_norm(u, eta)["seminorm"]
        assert np.array_equal(got, holder_pairs_oracle(u, eta)) and got == 16.0**eta
        assert 1 <= sum(cross) <= 8, cross


def test_holder_norm_takes_the_mesh_node_times():
    # The search built its times as o tau + tau, which differs in the last
    # bit from the mesh's m tau at about a third of the levels at h = 1/12;
    # on this solved grid that moved the eta = 3/4 seminorm by one ulp.
    sol = get_problem("heat_product_2d")
    spec = MeshSpec(h=1 / 12, bounds=sol.bounds, T=0.25, N=2)
    u, _ = solve(build_monotone_scheme(sol.descriptor, N=2), spec, sol.fn)
    assert np.array_equal(discrete_holder_norm(u, 0.75)["seminorm"], holder_pairs_oracle(u, 0.75))


@pytest.mark.parametrize("n, h", [(2, 1 / 12), (1, 1 / 64)], ids=["2d-12", "1d-64"])
def test_holder_norm_memory_stays_within_budget(n, h, traced_peak):
    # The all-pairs blocks peaked at 224 MiB on 2D h=1/12 (4,356 nodes).
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=0.25, N=2)
    u = MeshFunction.from_callable(spec, lambda x, t: np.sin(np.pi * x[..., 0]) * np.exp(-t))
    discrete_holder_norm(u, 0.5)
    _, peak = traced_peak(discrete_holder_norm, u, 0.5)
    assert peak <= 32 * 2**20, peak


@st.composite
def holder_cases(draw):
    """(u, eta, tile nodes, block bytes) on a small 1-D or 2-D mesh on the
    dyadic lattice, so that coordinates and squared distances are exact:
    affine data (every pair in a row ties in 1-D at eta = 1), data tied to
    a few values, or noise.  Small tiles and blocks make the search prune
    and batch on a few dozen nodes."""
    n = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from([0.25, 0.125]))
    bounds = []
    for _ in range(n):
        lo = draw(st.integers(-4, 2)) * h
        bounds.append((lo, lo + draw(st.integers(3, 6) if n == 1 else st.integers(3, 4)) * h))
    spec = MeshSpec(h, bounds, draw(st.integers(1, 6) if n == 1 else st.integers(1, 3)) * h * h, N=2)
    kind = draw(st.sampled_from(["affine", "tied", "noise"]))
    if kind == "affine":
        coef = draw(st.lists(st.integers(-8, 8), min_size=n + 2, max_size=n + 2))
        u = MeshFunction.from_callable(
            spec, lambda x, t: coef[0] / 4 + np.tensordot(x, np.array(coef[1:-1]) / 4, 1) + coef[-1] * t
        )
    else:
        value = st.sampled_from([0.0, 1.0, -1.0, 0.5]) if kind == "tied" else st.floats(-1.0, 1.0)
        size = spec.node_count()
        u = MeshFunction(spec, np.array(draw(st.lists(value, min_size=size, max_size=size))).reshape(spec.shape))
    eta = draw(st.sampled_from([1.0, 0.5, 0.75, 0.25]))
    return u, eta, draw(st.sampled_from([1, 2, 3, 5, 64])), draw(st.sampled_from([256, 1 << 22]))


def _affine_pow_case():
    # u = 1.75 - x - t: the search returned the all-pairs maximum bit for
    # bit, one ulp above the pair loop's, as numpy's array ``d**0.25`` (SIMD
    # on AVX-512) and the C library's ``pow`` round apart
    spec = MeshSpec(0.125, [(0.0, 0.625)], 5 * 0.125**2, N=2)
    return MeshFunction.from_callable(spec, lambda x, t: 1.75 - x[..., 0] - t), 0.25, 5, 256


@settings(max_examples=20, derandomize=True, deadline=None)
@given(case=holder_cases())
@example(case=_affine_pow_case())
def test_generated_holder_tiles_match_the_pair_loop(case):
    # bit for bit the all-pairs maximum in numpy's arithmetic, and the plain
    # pair loop's up to pow's rounding: 4 eps relative
    u, eta, tile, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_HOLDER_TILE_NODES", tile)
        mp.setattr(geometry, "_SCRATCH_BYTES", block)
        got = discrete_holder_norm(u, eta)["seminorm"]
    assert np.array_equal(got, holder_pairs_oracle(u, eta))
    want = holder_oracle(u, eta)
    assert abs(got - want) <= 4 * np.finfo(float).eps * want


def test_holder_norm_rejects_bad_eta(rng):
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.0)], T=0.25, N=2)
    u = MeshFunction(spec, np.zeros(spec.shape))
    with pytest.raises(GridError):
        discrete_holder_norm(u, eta=1.5)


# ---------------------------------------------------------------------------
# lattice-stencil layer: vectorized fields against the scalar quotients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("h", [0.1, 1 / 12], ids=["h=0.1", "h=1/12"])
def test_quotient_fields_match_scalar_quotients(n, h, rng):
    spec = MeshSpec(h=h, bounds=[(0.0, 0.5)] * n, T=5 * h * h, N=2)
    u = MeshFunction(spec, rng.standard_normal(spec.shape))
    fields = {y: second_quotient_field(u.values, spec, y) for y in Stencil.make(n).directions}
    dtau = (u.values - shift(u.values, (-1,) + (0,) * n)) / spec.tau
    cases = [(dtau, lambda idx: delta_tau_minus(u, idx))]
    cases += [(f, lambda idx, y=y: delta2_y(u, idx, y)) for y, f in fields.items()]
    for field, scalar in cases:
        for idx in spec.node_indices():
            got = field[spec.offset(idx)]
            try:
                want = scalar(idx)
            except GridError:
                assert np.isnan(got), idx
            else:
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), idx


def test_second_quotient_field_rejects_zero_direction():
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)] * 2, T=0.25, N=2)
    with pytest.raises(GridError, match=r"bad direction \(0, 0\)"):
        second_quotient_field(np.zeros(spec.shape), spec, (0, 0))


def test_shift_rejects_offset_of_wrong_length():
    values = np.zeros((3, 4, 4))
    with pytest.raises(GridError, match="offset"):
        shift(values, (0, 1))
    spec = MeshSpec(h=0.25, bounds=[(0.0, 1.0)] * 2, T=0.25, N=2)
    with pytest.raises(GridError, match="offset"):
        second_quotient_field(np.zeros(spec.shape), spec, (1,))
