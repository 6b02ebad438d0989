"""Falsifier and good-set tests.

The paraboloid algebra is checked against a plain-Python loop evaluator and
finite differences; the membership LP is pinned by a hand-solved Chebyshev
problem for the cube kink |x|^3 (worked in comments below); falsifier
certificates are replayed from scratch.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from parastep.diagnostics import (
    FalsifierConfig,
    Paraboloid,
    certificates_to_rows,
    delta_falsifier,
    evaluate_paraboloid,
    good_set_measure,
    paraboloid_derivatives,
    psi_M_membership,
    replay_violation,
    row_to_certificate,
)
from parastep.diagnostics import _centered_to_absolute
from parastep.errors import DiagnosticsError
from parastep.geometry import KBox, MeshFunction, MeshSpec, cylinder_nodes
from parastep.nonlinearity import NonlinearityDescriptor, evaluate_F
from parastep.scheme import build_monotone_scheme
from parastep.solver import solve


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def loop_poly(c, l, m, a, Q, x, t):
    """P(x,t) term by term in plain Python."""
    val = c + m * t
    for i in range(len(l)):
        val += l[i] * x[i] + a[i] * x[i] * t
        for j in range(len(l)):
            val += x[i] * Q[i][j] * x[j]
    return val


def fd_time_derivative(P, x, t, s=1e-4):
    return (evaluate_paraboloid(P, (x, t + s)) - evaluate_paraboloid(P, (x, t - s))) / (2 * s)


def fd_hessian(P, x, t, s=1e-4):
    n = len(x)
    H = np.zeros((n, n))
    base = evaluate_paraboloid(P, (x, t))
    for i in range(n):
        for j in range(n):
            xpp = list(x)
            xpp[i] += s
            xpp[j] += s
            xp_i = list(x)
            xp_i[i] += s
            xp_j = list(x)
            xp_j[j] += s
            H[i, j] = (
                evaluate_paraboloid(P, (xpp, t))
                - evaluate_paraboloid(P, (xp_i, t))
                - evaluate_paraboloid(P, (xp_j, t))
                + base
            ) / s**2
    return H


def random_paraboloid(rng, n):
    G = rng.standard_normal((n, n))
    return Paraboloid(
        c=float(rng.standard_normal()),
        l=rng.standard_normal(n),
        m=float(rng.standard_normal()),
        a=rng.standard_normal(n),
        Q=(G + G.T) / 2.0,
    )


HEAT = NonlinearityDescriptor.linear([[1.0]])


# ---------------------------------------------------------------------------
# paraboloid algebra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluation_matches_loop_oracle(rng, n):
    for _ in range(20):
        P = random_paraboloid(rng, n)
        x = rng.standard_normal(n)
        t = float(rng.standard_normal())
        assert_allclose(
            evaluate_paraboloid(P, (tuple(x), t)),
            loop_poly(P.c, P.l, P.m, P.a, P.Q, x, t),
            rtol=1e-12,
            atol=1e-12,
        )


@pytest.mark.parametrize("n", [1, 2])
def test_derivatives_match_finite_differences(rng, n):
    for _ in range(10):
        P = random_paraboloid(rng, n)
        x = rng.standard_normal(n)
        t = float(rng.standard_normal())
        pt, d2 = paraboloid_derivatives(P, (tuple(x), t))
        assert abs(pt - fd_time_derivative(P, tuple(x), t)) < 1e-6
        assert_allclose(d2, fd_hessian(P, tuple(x), t), atol=1e-6)


def test_half_norm_square_has_identity_hessian():
    P = Paraboloid(c=0.0, l=[0.0, 0.0], m=0.0, a=[0.0, 0.0], Q=0.5 * np.eye(2))
    pt, d2 = paraboloid_derivatives(P, ((0.3, -0.7), 0.2))
    assert pt == 0.0
    assert_allclose(d2, np.eye(2))
    assert evaluate_paraboloid(P, ((3.0, 4.0), 0.0)) == pytest.approx(12.5)


def test_centered_and_absolute_forms_agree(rng):
    for n in (1, 2):
        x0 = rng.standard_normal(n)
        t0 = float(rng.standard_normal())
        l = rng.standard_normal(n)
        a = rng.standard_normal(n)
        G = rng.standard_normal((n, n))
        Q = (G + G.T) / 2.0
        c, m = 0.7, -1.3
        P = _centered_to_absolute(c, l, m, a, Q, x0, t0)
        for _ in range(10):
            y = rng.standard_normal(n)
            s = float(rng.standard_normal())
            dy, ds = y - x0, s - t0
            centered = c + l @ dy + m * ds + (a @ dy) * ds + dy @ Q @ dy
            assert_allclose(evaluate_paraboloid(P, (tuple(y), s)), centered, atol=1e-10)


def test_paraboloid_class_tags():
    P = Paraboloid(c=0.0, l=[1.0], m=2.0, a=[0.0], Q=[[1.5]])
    assert P.no_mixed_term
    assert P.opening_class(3.0) == "+"
    assert P.opening_class(2.0) is None  # Q != (M/2) I at M = 2
    Pm = Paraboloid(c=0.0, l=[0.0], m=-1.0, a=[0.0], Q=[[-0.5]])
    assert Pm.opening_class(1.0) == "-"
    assert not Paraboloid(c=0, l=[0.0], m=0, a=[2.0], Q=[[0.0]]).no_mixed_term


def test_asymmetric_Q_rejected():
    with pytest.raises(DiagnosticsError, match="symmetric"):
        Paraboloid(c=0, l=[0, 0], m=0, a=[0, 0], Q=[[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(DiagnosticsError, match="disagree"):
        Paraboloid(c=0, l=[0, 0], m=0, a=[0.0], Q=np.zeros((2, 2)))
    P = Paraboloid(c=0, l=[0.0], m=0, a=[0.0], Q=[[1.0]])
    with pytest.raises(DiagnosticsError, match="dimension"):
        evaluate_paraboloid(P, ((0.0, 0.0), 0.0))


# ---------------------------------------------------------------------------
# falsifier
# ---------------------------------------------------------------------------


def drift_mesh(h=0.125, T=0.25):
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0)], T=T, N=2)
    v = MeshFunction.from_callable(spec, lambda x, t: -t + 0.0 * x[..., 0])
    return spec, v


def test_pure_time_drift_is_flagged_as_supersolution_failure():
    # v = -t touches every interior paraboloid test with P = -s and gives
    # margin P_t - F(0) = -1; the osculating probe finds it exactly.
    spec, v = drift_mesh()
    cfg = FalsifierConfig(samples=8, max_violations=50)
    certs = delta_falsifier(v, HEAT, delta=2 * spec.h, side="super", config=cfg)
    assert certs
    osc = [c for c in certs if c.probe == "osculating"]
    assert osc
    for c in osc:
        assert c.margin == pytest.approx(-1.0, abs=1e-12)
        assert c.touch_gap == pytest.approx(0.0, abs=1e-12)
        assert c.paraboloid.m == pytest.approx(-1.0, abs=1e-12)
        assert_allclose(c.paraboloid.l, 0.0, atol=1e-12)


def test_pure_time_drift_is_clean_on_the_sub_side():
    spec, v = drift_mesh()
    cfg = FalsifierConfig(samples=8)
    assert delta_falsifier(v, HEAT, delta=2 * spec.h, side="sub", config=cfg) == []


def test_every_certificate_replays():
    spec, v = drift_mesh()
    cfg = FalsifierConfig(samples=8, max_violations=50)
    certs = delta_falsifier(v, HEAT, delta=2 * spec.h, side="super", config=cfg)
    assert certs
    for c in certs:
        rep = replay_violation(c, v, HEAT)
        assert rep["valid"]
        assert rep["touching"]
        assert rep["margin_matches"]


def test_tampered_certificate_fails_replay():
    spec, v = drift_mesh()
    cfg = FalsifierConfig(samples=0, max_violations=5)
    cert = delta_falsifier(v, HEAT, delta=2 * spec.h, side="super", config=cfg)[0]
    P = cert.paraboloid
    lifted = dataclasses.replace(
        cert, paraboloid=Paraboloid(c=P.c + 1.0, l=P.l, m=P.m, a=P.a, Q=P.Q)
    )
    rep = replay_violation(lifted, v, HEAT)
    assert not rep["touching"]
    assert not rep["valid"]


def test_certificate_rows_are_deterministic():
    spec, v = drift_mesh()
    cfg = FalsifierConfig(samples=16, max_violations=40)
    rows1 = certificates_to_rows(delta_falsifier(v, HEAT, 2 * spec.h, "super", cfg))
    rows2 = certificates_to_rows(delta_falsifier(v, HEAT, 2 * spec.h, "super", cfg))
    assert rows1 == rows2
    assert all("side=super" in r and "margin=" in r for r in rows1)


def test_certificate_rows_round_trip_and_replay():
    # repr floats survive the text trip exactly, so a parsed row must replay
    # against the original mesh function just like the in-memory certificate.
    spec, v = drift_mesh()
    cfg = FalsifierConfig(samples=8, max_violations=10)
    certs = delta_falsifier(v, HEAT, delta=2 * spec.h, side="super", config=cfg)
    assert certs
    for cert in certs:
        back = row_to_certificate(cert.row())
        assert back.node == cert.node
        assert back.margin == cert.margin
        assert back.paraboloid.c == cert.paraboloid.c
        assert np.array_equal(back.paraboloid.Q, cert.paraboloid.Q)
        assert back.row() == cert.row()
        assert replay_violation(back, v, HEAT)["valid"]
    with pytest.raises(DiagnosticsError, match="missing field"):
        row_to_certificate("side=super margin=0.0")
    with pytest.raises(DiagnosticsError, match="malformed"):
        row_to_certificate(certs[0].row().replace("delta=", "delta=zzz"))


def test_exact_paraboloid_solution_is_unflagged_on_both_sides():
    # u = x^2 + 2t solves u_t = u_xx in dyadic-exact arithmetic; every probe
    # either fails the tight touching test or has margin exactly zero.
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)
    u = MeshFunction.from_callable(spec, lambda x, t: x[..., 0] ** 2 + 2.0 * t)
    for side in ("super", "sub"):
        assert delta_falsifier(u, HEAT, delta=2 * spec.h, side=side) == []


def test_super_flags_mirror_to_sub_flags_under_duality():
    # certificates of v against F match certificates of -v against the dual
    # operator with the opposite side, node for node, margins negated.
    spec, v = drift_mesh()
    w = MeshFunction(spec, -v.values)
    cfg = FalsifierConfig(samples=0)
    sup_certs = delta_falsifier(v, HEAT, 2 * spec.h, "super", cfg)
    sub_certs = delta_falsifier(w, HEAT.dual(), 2 * spec.h, "sub", cfg)
    assert {c.node for c in sup_certs} == {c.node for c in sub_certs}
    sup_m = {c.node: c.margin for c in sup_certs if c.probe == "osculating"}
    sub_m = {c.node: c.margin for c in sub_certs if c.probe == "osculating"}
    for node, mg in sup_m.items():
        assert sub_m[node] == pytest.approx(-mg, abs=1e-12)


def test_computed_heat_solution_passes_at_grid_tolerance():
    spec = MeshSpec(h=1.0 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
    scheme = build_monotone_scheme(HEAT)
    u, _ = solve(scheme, spec, lambda x, t: np.exp(-np.pi**2 * t) * np.sin(np.pi * x[..., 0]))
    # discrete regularity constant straight from the data
    dt = np.diff(u.values, axis=0) / spec.tau
    dxx = np.diff(u.values, n=2, axis=1) / spec.h**2
    K = max(np.max(np.abs(dt)), np.max(np.abs(dxx)))
    cfg = FalsifierConfig(violation_tol=10.0 * K * spec.h, samples=64)
    for side in ("super", "sub"):
        assert delta_falsifier(u, HEAT, delta=2 * spec.h, side=side, config=cfg) == []


def test_computed_pucci_solution_passes_at_grid_tolerance():
    desc = NonlinearityDescriptor.pucci_plus(1.0, 2.0)
    spec = MeshSpec(h=1.0 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
    u, _ = solve(
        build_monotone_scheme(desc),
        spec,
        lambda x, t: np.exp(-np.pi**2 * t) * np.sin(np.pi * x[..., 0]),
    )
    dt = np.diff(u.values, axis=0) / spec.tau
    dxx = np.diff(u.values, n=2, axis=1) / spec.h**2
    K = max(np.max(np.abs(dt)), np.max(np.abs(dxx)))
    cfg = FalsifierConfig(violation_tol=10.0 * K * spec.h, samples=64)
    for side in ("super", "sub"):
        assert delta_falsifier(u, desc, delta=2 * spec.h, side=side, config=cfg) == []


def test_falsifier_parameter_validation():
    spec, v = drift_mesh()
    with pytest.raises(DiagnosticsError, match="cell diameter"):
        delta_falsifier(v, HEAT, delta=0.5 * spec.h)
    with pytest.raises(DiagnosticsError, match="side"):
        delta_falsifier(v, HEAT, delta=2 * spec.h, side="above")
    with pytest.raises(DiagnosticsError, match="dimension"):
        delta_falsifier(v, NonlinearityDescriptor.linear(np.eye(2)), delta=2 * spec.h)
    with pytest.raises(DiagnosticsError, match="enlarge"):
        delta_falsifier(v, HEAT, delta=0.51)  # needs lat >= 0.51: no such column


def test_falsifier_memory_is_bounded_by_one_probe():
    # One probe's fields (gradient, slope, half-Hessian) are three mesh-sized
    # arrays in 1D.  The shifted stack adds 12 more (delta = 2h gives 12
    # cylinder offsets), the local model 3, the per-probe loop a few
    # temporaries.  Holding all 200 Sobol probes at once would take ~200x.
    spec, v = drift_mesh(h=1 / 64, T=1 / 16)
    probe_bytes = 3 * spec.node_count() * 8
    cfg = FalsifierConfig(samples=200, seed=3)

    def run():
        return delta_falsifier(v, HEAT, delta=2 * spec.h, side="sub", config=cfg)

    assert run() == []  # side "sub" is clean, so every probe is visited
    # the warm-up call above also keeps the deferred scipy.stats import out
    # of the measurement
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * probe_bytes, peak / probe_bytes


def test_grid_touch_config_scales_with_tau():
    spec, _ = drift_mesh()
    cfg = FalsifierConfig.with_grid_touch(spec, c_touch=10.0)
    assert cfg.touch_tol == pytest.approx(10.0 * spec.h**2)


# ---------------------------------------------------------------------------
# expansion-budget membership
# ---------------------------------------------------------------------------


def cube_kink_mesh(levels=1):
    # [-1, 1] with h = 1/4: columns k = -3..3; u = |x|^3, time-independent.
    spec = MeshSpec(h=0.25, bounds=[(-1.0, 1.0)], T=levels * 0.0625, N=2)
    u = MeshFunction.from_callable(spec, lambda x, t: np.abs(x[..., 0]) ** 3)
    return spec, u


def test_cube_kink_ratio_matches_hand_solved_chebyshev_value():
    # At the kink node x = 0 with a single time level the binding constraints
    # are |j h|^3 vs the weight |j h|^3, j = 1..3.  Odd symmetry kills l; m
    # and the mixed term multiply ds = 0.  What is left is
    #   min_Q max_j |1 - Q/(j h)|,
    # the balance 4Q - 1 = 1 - 4Q/3 at h = 1/4 giving Q = 3/8 and value 1/2.
    spec, u = cube_kink_mesh(levels=1)
    out = psi_M_membership(u, (0, 1), M=0.5)
    assert out["worst_ratio"] == pytest.approx(0.5, rel=1e-9)
    assert out["paraboloid"].Q[0, 0] == pytest.approx(0.375, rel=1e-9)
    assert out["constraint_count"] == 6
    assert out["member"]  # budget n M = 0.5 exactly
    assert not psi_M_membership(u, (0, 1), M=0.49)["member"]
    assert psi_M_membership(u, (0, 1), M=0.51)["member"]


def test_cube_kink_ratio_is_stable_under_extra_past_levels():
    # earlier-time constraints carry strictly larger weights and stay slack,
    # so the optimum is still the single-level Chebyshev value.
    _, u = cube_kink_mesh(levels=2)
    out = psi_M_membership(u, (0, 2), M=0.5)
    assert out["worst_ratio"] == pytest.approx(0.5, rel=1e-9)


def test_membership_paraboloid_vanishes_at_the_node():
    spec, u = cube_kink_mesh(levels=2)
    out = psi_M_membership(u, (1, 2), M=4.0)
    P = out["paraboloid"]
    assert evaluate_paraboloid(P, spec.node_point((1, 2))) == pytest.approx(0.0, abs=1e-12)


def test_quadratic_data_is_member_at_every_budget(rng):
    spec = MeshSpec(h=0.25, bounds=[(-1.0, 1.0)], T=0.125, N=2)
    u = MeshFunction.from_callable(
        spec, lambda x, t: 0.3 * x[..., 0] ** 2 - 1.2 * t + 0.5 * x[..., 0] - 0.1 * x[..., 0] * t
    )
    out = psi_M_membership(u, (0, 2), M=1e-6)
    assert out["worst_ratio"] < 1e-9
    assert out["member"]
    assert out["excess"] == pytest.approx(-1e-6, abs=1e-9)


def test_membership_nests_in_M():
    _, u = cube_kink_mesh(levels=1)
    flags = [psi_M_membership(u, (0, 1), M)["member"] for M in (0.1, 0.3, 0.5, 0.7)]
    assert flags == [False, False, True, True]


def test_region_restriction_cannot_increase_the_ratio():
    spec, u = cube_kink_mesh(levels=2)
    full = psi_M_membership(u, (0, 2), M=1.0)["worst_ratio"]
    box = KBox(((0.0,), 0.0), r=6.0)
    assert box.contains(spec.node_point((0, 2)))
    boxed = psi_M_membership(u, (0, 2), M=1.0, region=box)["worst_ratio"]
    assert boxed <= full + 1e-12


def test_membership_error_paths():
    spec, u = cube_kink_mesh(levels=2)
    with pytest.raises(DiagnosticsError, match="outside the study region"):
        psi_M_membership(u, (0, 1), M=1.0, region=KBox(((0.9,), 0.05), r=0.1))
    tiny = MeshSpec(h=0.25, bounds=[(0.0, 1.0)], T=0.0625, N=2)
    w = MeshFunction.from_callable(tiny, lambda x, t: 0.0 * x[..., 0])
    with pytest.raises(DiagnosticsError, match="cannot pin"):
        psi_M_membership(w, (1, 1), M=1.0)


# ---------------------------------------------------------------------------
# good set
# ---------------------------------------------------------------------------


def test_good_set_on_quadratic_data_is_everything():
    spec = MeshSpec(h=1.0 / 16, bounds=[(0.0, 1.0)], T=0.0625, N=2)
    u = MeshFunction.from_callable(spec, lambda x, t: x[..., 0] ** 2 + 2.0 * t)
    box = KBox(((0.5,), 4 * spec.tau), r=1.0)
    rep = good_set_measure(u, [0.01, 1.0], box)
    assert rep.node_count == len(cylinder_nodes(spec, box))
    assert rep.node_count > 0
    assert rep.worst_ratios.shape == (rep.node_count,)
    assert np.all(rep.worst_ratios < 1e-8)
    assert np.all(rep.bad_fraction == 0.0)
    assert np.all(rep.bad_measure == 0.0)
    assert math.isnan(rep.slope)


def test_bad_set_decays_and_empties_for_the_cube_kink():
    spec = MeshSpec(h=0.25, bounds=[(-1.0, 1.0)], T=0.25, N=2)
    u = MeshFunction.from_callable(spec, lambda x, t: np.abs(x[..., 0]) ** 3)
    box = KBox(((0.0,), spec.tau), r=4.0)
    Ms = [2.0**k for k in range(-8, 3)]
    rep = good_set_measure(u, Ms, box)
    assert rep.node_count > 0
    assert rep.bad_fraction[0] > 0.0
    assert rep.bad_fraction[-1] == 0.0
    assert np.all(np.diff(rep.bad_fraction) <= 0)
    assert np.all(np.diff(rep.bad_measure) <= 0)
    assert isinstance(rep.slope, float)


def test_good_set_error_paths():
    spec, u = cube_kink_mesh(levels=1)
    box = KBox(((0.0,), 0.0), r=1.0)
    with pytest.raises(DiagnosticsError, match="empty M sweep"):
        good_set_measure(u, [], box)
    far = KBox(((50.0,), 0.0), r=0.5)
    with pytest.raises(DiagnosticsError, match="no mesh nodes"):
        good_set_measure(u, [1.0], far)
