"""Falsifier and good-set tests.

The paraboloid algebra is checked against a plain-Python loop evaluator and
finite differences; the membership LP is pinned by a hand-solved Chebyshev
problem for the cube kink |x|^3 (worked in comments below); falsifier
certificates are replayed from scratch.
"""

import dataclasses
import functools
import importlib.util
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog
from scipy.stats import qmc

from parastep import diagnostics
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
    replay_violations,
    row_to_certificate,
)
from parastep.cli import _centered_kbox
from parastep.diagnostics import (
    ViolationCertificate,
    _centered_to_absolute,
    _local_model,
    _margins,
)
from parastep import geometry
from parastep.envelopes import abp_diagnostic
from parastep.errors import DiagnosticsError, EnvelopeError, GridError, NonlinearityError
from parastep.geometry import _FP_SLACK, Cylinder, KBox, MeshFunction, MeshSpec, region_mask, shift
from parastep.harness import get_problem, run_diagnostics
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


def _eval_paraboloid_many(P, X, T):
    """P at k points: positions X (k, n), times T (k,)."""
    X = np.asarray(X, dtype=float).reshape(-1, P.n)
    T = np.asarray(T, dtype=float).ravel()
    quad = np.einsum("ki,ij,kj->k", X, P.Q, X)
    return P.c + X @ P.l + P.m * T + (X @ P.a) * T + quad


def _margin_field(F, m_f, Q_f, shape):
    """m - F(2Q), NaN-safe, broadcast to ``shape``, through the checked
    ``evaluate_F``.  This was the falsifier's margin; ``_margins`` must
    give the same array."""
    if np.ndim(Q_f) > 2:
        nanq = np.isnan(Q_f).any(axis=(-2, -1))
        FQ = evaluate_F(F, 2.0 * np.where(np.isnan(Q_f), 0.0, Q_f))
        FQ = np.where(nanq, np.nan, FQ)
    else:
        FQ = evaluate_F(F, 2.0 * np.asarray(Q_f, dtype=float))
    return np.broadcast_to(np.asarray(m_f, dtype=float) - FQ, shape)


def replay_oracle(cert, v, F):
    """One certificate's replay, check by check and with the scalar
    paraboloid helpers.  This was ``replay_violation`` before the batch;
    ``replay_violations`` must give the same fields and refusals."""
    spec = v.spec
    node = tuple(int(i) for i in cert.node)
    if len(node) != spec.n + 1 or cert.paraboloid.n != spec.n:
        raise DiagnosticsError(f"certificate node {node} does not live on a {spec.n}-D mesh")
    if not spec.cylinder_fits(cert.delta, spec.middle_node()):
        raise DiagnosticsError(f"delta = {cert.delta!r} is too large for the mesh")
    idx = np.array(node) + spec.node_steps(cert.delta)
    flat = spec.flat_offsets(idx)
    if (flat < 0).any():
        spec.offset(idx[np.argmax(flat < 0)].tolist())  # the GridError naming that node
    if not spec.cylinder_fits(cert.delta, node):
        raise DiagnosticsError(f"node {node}: its delta = {cert.delta!r} cylinder leaves the domain")
    vvals = v.values.ravel()[flat]
    pvals = _eval_paraboloid_many(cert.paraboloid, idx[:, :-1] * spec.h, idx[:, -1] * spec.tau)
    sign = 1.0 if cert.side == "super" else -1.0
    vscale = 1.0 + float(np.max(np.abs(vvals)))
    side_ok = float(np.min(sign * (vvals - pvals))) >= -1e-9 * vscale
    center = spec.node_point(node)
    touch_gap = sign * (v.value(node) - evaluate_paraboloid(cert.paraboloid, center))
    touching = side_ok and touch_gap <= cert.touch_gap + 1e-9 * vscale
    pt, d2 = paraboloid_derivatives(cert.paraboloid, center)
    margin = float(pt - evaluate_F(F, d2))
    return {
        "valid": bool(touching and sign * margin < 0.0),
        "touching": bool(touching),
        "touch_gap": float(touch_gap),
        "margin": margin,
        "margin_matches": bool(abs(margin - cert.margin) <= 1e-9 * (1.0 + abs(cert.margin))),
    }


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


def constraint_rows(u, node, mask):
    """A node's constraint nodes (the region's other nodes with s <= t): global
    indices, value differences u(y,s) - u(x,t), offsets dx and ds, weights."""
    spec = u.spec
    offs = np.argwhere(mask)
    idx = np.column_stack([offs[:, 1:] + np.asarray(spec.k_min), offs[:, 0] + 1])
    sel = (idx[:, -1] <= node[-1]) & ~np.all(idx == np.asarray(node), axis=1)
    offs, idx = offs[sel], idx[sel]
    dx = idx[:, :-1] * spec.h - np.asarray(node[:-1], dtype=float) * spec.h
    ds = idx[:, -1] * spec.tau - node[-1] * spec.tau
    r = np.sqrt((dx**2).sum(axis=1))
    du = u.values[tuple(offs.T)] - u.value(node)
    return idx, du, dx, ds, r**3 + r**2 * np.abs(ds) + ds**2


def full_lp_worst_ratio(u, node, mask):
    """The membership fit as one full HiGHS LP over every constraint row.
    Returns the LP value z and the number of constraint nodes.

    HiGHS runs at feasibility tolerances of 1e-10: at its defaults (1e-7)
    a row |du - phi.p| <= w z may be violated by far more than 1e-9 of z
    where the weight w is small (noisy data at h = 1/6 gave z 4e-6 below
    the optimum, which its own p exceeded)."""
    n = u.spec.n
    idx, du, dx, ds, w = constraint_rows(u, node, mask)
    quad = [dx[:, i] ** 2 for i in range(n)]
    quad += [2.0 * dx[:, i] * dx[:, j] for i in range(n) for j in range(i + 1, n)]
    phi = np.column_stack([dx, ds, dx * ds[:, None]] + quad)
    k = phi.shape[1]
    res = linprog(
        np.append(np.zeros(k), 1.0),
        A_ub=np.vstack([np.column_stack([-phi, -w]), np.column_stack([phi, -w])]),
        b_ub=np.concatenate([-du, du]),
        bounds=[(None, None)] * k + [(0, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.x[-1]), len(idx)


def row_ratios(u, node, P, mask):
    """|u(y,s) - u(x,t) - P(y,s)| / weight over every constraint node, with
    P in absolute coordinates (vanishing at the node)."""
    idx, du, _, _, w = constraint_rows(u, node, mask)
    PX = _eval_paraboloid_many(P, idx[:, :-1] * u.spec.h, idx[:, -1] * u.spec.tau)
    return np.abs(du - PX) / w


def _cylinder_offsets(spec, delta):
    """Integer offsets (dk, dm) with |dk| h < delta and -delta^2 < dm tau <= 0,
    by their own tie rule.  This was the falsifier's enumeration;
    ``MeshSpec.cylinder_steps`` must give the same steps in the same order."""
    reach = int(delta / spec.h + _FP_SLACK)
    depth = int(math.ceil(delta**2 / spec.tau - _FP_SLACK)) - 1
    r2 = (delta / spec.h) ** 2 * (1.0 - 1e-12)
    out = []
    for dk in np.ndindex(*([2 * reach + 1] * spec.n)):
        dk = tuple(d - reach for d in dk)
        if sum(d * d for d in dk) >= r2:
            continue
        for dm in range(-depth, 1):
            out.append((dk, dm))
    return out


def _old_eligible(spec, delta):
    """The falsifier's eligible set before ``MeshSpec.cylinder_fits``, with its
    own 1e-12 relative slack."""
    lat = spec.lateral_distance()[None, ...]
    t = spec.times().reshape((-1,) + (1,) * spec.n)
    return (
        spec.classification().interior
        & (lat >= delta * (1.0 - 1e-12))
        & (t >= delta**2 * (1.0 - 1e-12))
    )


def falsifier_oracle(v, F, delta, side="super", config=None):
    """The falsifier as one whole-mesh pass per probe and offset: the probe's
    (l, m, Q) fields, its touching value w_ext, the gap and the margin at
    every node, certificates in probe order and C node order.  This is the
    direct evaluation that ``delta_falsifier``'s screen-then-confirm
    reproduces."""
    spec = v.spec
    n = spec.n
    if side not in ("super", "sub"):
        raise DiagnosticsError(f"side must be 'super' or 'sub', got {side!r}")
    if F.dimension != n:
        raise DiagnosticsError(f"F has dimension {F.dimension}, mesh has {n}")
    cell = spec.h * math.sqrt(n + 1)
    if delta < cell * (1.0 - 1e-12):
        raise DiagnosticsError(
            f"delta = {delta} is below the parabolic cell diameter {cell}"
        )
    cfg = config or FalsifierConfig()
    scale = 1.0 + float(np.max(np.abs(v.values)))
    touch_tol = cfg.touch_tol if cfg.touch_tol is not None else 1e-9 * scale
    viol_tol = cfg.violation_tol if cfg.violation_tol is not None else 1e-9 * scale

    eligible = _old_eligible(spec, delta)
    if not eligible.any():
        raise DiagnosticsError(
            f"no node admits a delta-cylinder with delta = {delta}; enlarge the mesh"
        )

    offsets = _cylinder_offsets(spec, delta)
    shifted = np.stack([shift(v.values, (dm,) + dk) for dk, dm in offsets], axis=0)
    geo = [(spec.h * np.asarray(dk, dtype=float), spec.tau * dm) for dk, dm in offsets]

    grad, slope, Qhat = _local_model(v)
    with np.errstate(invalid="ignore"):
        s_l = float(np.nanmax(np.abs(grad))) if not np.isnan(grad).all() else 0.0
        s_m = float(np.nanmax(np.abs(slope))) if not np.isnan(slope).all() else 0.0
        s_q = float(np.nanmax(np.abs(Qhat))) if not np.isnan(Qhat).all() else 0.0

    def probes():
        """(name, l, m, Q) per probe; a Sobol probe's mesh-sized fields are
        built only when the loop reaches it, so one probe is live at a time."""
        yield "osculating", grad, slope, Qhat
        if cfg.include_battery:
            base = max(s_m, 2.0 * n * s_q, 16e-9 * scale / spec.tau)
            eye = np.eye(n)
            for M in (0.25 * base, base, 4.0 * base):
                for qs in (1.0, -1.0):
                    for ms in (-1.0, 1.0):
                        yield f"opening_battery(M={M:.3g})", grad, ms * M, qs * (M / 2.0) * eye
        if cfg.samples > 0:
            dim = n + 1 + n * (n + 1) // 2
            sob = qmc.Sobol(d=dim, scramble=True, seed=cfg.seed)
            draw = sob.random(1 << max(0, (cfg.samples - 1).bit_length()))[: cfg.samples]
            xi = 2.0 * draw - 1.0
            for r in range(cfg.samples):
                dQ = np.zeros((n, n))
                dQ[np.triu_indices(n)] = xi[r, n + 1 :]
                dQ = 0.5 * (dQ + dQ.T)
                yield f"sobol[{r}]", grad + s_l * xi[r, :n], slope + s_m * xi[r, n], Qhat + s_q * dQ

    sign = 1.0 if side == "super" else -1.0
    certs: list[ViolationCertificate] = []
    for name, l_f, m_f, Q_f in probes():
        w_ext = None
        for o, (d, dt) in enumerate(geo):
            lin = (
                np.einsum("...i,i->...", l_f, d)
                if np.ndim(l_f) > 1
                else float(np.asarray(l_f) @ d)
            )
            quad = (
                np.einsum("i,...ij,j->...", d, Q_f, d)
                if np.ndim(Q_f) > 2
                else float(d @ np.asarray(Q_f) @ d)
            )
            w = shifted[o] - (lin + np.multiply(m_f, dt) + quad)
            if w_ext is None:
                w_ext = w
            elif side == "super":
                w_ext = np.minimum(w_ext, w)
            else:
                w_ext = np.maximum(w_ext, w)
        with np.errstate(invalid="ignore"):
            gap = sign * (v.values - w_ext)
            margin = _margin_field(F, m_f, Q_f, spec.shape)
            bad = eligible & (gap <= touch_tol) & (sign * margin < -viol_tol)
        if not bad.any():
            continue
        for off in np.argwhere(bad):
            off = tuple(int(i) for i in off)
            node = spec.index_from_offset(off)
            x = np.asarray(node[:-1], dtype=float) * spec.h
            tt = node[-1] * spec.tau
            l_here = l_f[off] if np.ndim(l_f) > 1 else np.asarray(l_f, dtype=float)
            m_here = float(m_f[off]) if np.ndim(m_f) > 0 else float(m_f)
            Q_here = Q_f[off] if np.ndim(Q_f) > 2 else np.asarray(Q_f, dtype=float)
            P = _centered_to_absolute(
                float(w_ext[off]), l_here, m_here, np.zeros(n), Q_here, x, tt
            )
            certs.append(
                ViolationCertificate(
                    node=node,
                    side=side,
                    paraboloid=P,
                    margin=float(margin[off]),
                    touch_gap=float(gap[off]),
                    delta=delta,
                    probe=name,
                )
            )
            if len(certs) >= cfg.max_violations:
                return certs
    return certs


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_evaluation_rounds_as_one_points_matmul(rng, n):
    # the one evaluator of the replay's cylinder and centres and of
    # evaluate_paraboloid: equal, bit for bit, to the scalar expression at
    # each point (an einsum over the stack rounds apart in 2-D and 3-D)
    k, p = 7, 11
    Ps = [random_paraboloid(rng, n) for _ in range(k)]
    X = rng.integers(-40, 40, (k, p, n)) * (1 / 12)
    T = rng.integers(1, 60, (k, p)) * (1 / 144)
    got = diagnostics._paraboloid_values(*diagnostics._paraboloid_arrays(Ps), X, T)
    for i, P in enumerate(Ps):
        for j, (x, t) in enumerate(zip(X[i], T[i])):
            assert got[i, j] == P.c + P.l @ x + P.m * t + (P.a @ x) * t + x @ P.Q @ x
            assert evaluate_paraboloid(P, (x, t)) == got[i, j]


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


def test_asymmetric_Q_rejected():
    with pytest.raises(DiagnosticsError, match="symmetric"):
        Paraboloid(c=0, l=[0, 0], m=0, a=[0, 0], Q=[[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(DiagnosticsError, match="disagree"):
        Paraboloid(c=0, l=[0, 0], m=0, a=[0.0], Q=np.zeros((2, 2)))
    P = Paraboloid(c=0, l=[0.0], m=0, a=[0.0], Q=[[1.0]])
    with pytest.raises(DiagnosticsError, match="dimension"):
        evaluate_paraboloid(P, ((0.0, 0.0), 0.0))


def test_nearly_symmetric_Q_is_symmetrized():
    # a skew within _SYM_TOL (1 + max |Q|) is rounding: Q becomes Q/2 + Q^T/2
    Q = np.array([[1.0, 0.25 + 1e-13], [0.25, -2.0]])
    P = Paraboloid(c=0, l=[0, 0], m=0, a=[0, 0], Q=Q)
    assert np.array_equal(P.Q, 0.5 * Q + 0.5 * Q.T)
    assert P.Q[0, 1] == P.Q[1, 0] and 0.25 < P.Q[0, 1] < 0.25 + 1e-13
    assert Q[0, 1] == 0.25 + 1e-13  # the caller's array is not touched


def test_inverses_of_a_stack_with_a_singular_matrix():
    # numpy refuses the whole stack; the singular matrix alone gets NaN
    B = np.array([[[2.0, 0.0], [0.0, 4.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [1.0, 3.0]]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(B)
    got = diagnostics._inverses(B)
    assert np.isnan(got[1]).all()
    for i in (0, 2):
        assert np.array_equal(got[i], np.linalg.inv(B[i]))


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


def test_lowered_certificate_is_not_touching():
    # c - 1 keeps the paraboloid below v on the whole cylinder, but it no
    # longer touches at the node: its gap is 1, the recorded one 0
    spec, v = drift_mesh()
    cfg = FalsifierConfig(samples=0, max_violations=5)
    for cert in delta_falsifier(v, HEAT, delta=2 * spec.h, side="super", config=cfg):
        P = cert.paraboloid
        lowered = dataclasses.replace(
            cert, paraboloid=Paraboloid(c=P.c - 1.0, l=P.l, m=P.m, a=P.a, Q=P.Q)
        )
        rep = replay_violation(lowered, v, HEAT)
        assert rep["touch_gap"] == pytest.approx(1.0)
        assert not rep["touching"] and not rep["valid"]
        assert replay_violation(cert, v, HEAT)["valid"]


def test_replay_refuses_a_cylinder_larger_than_the_mesh():
    # 7 columns and 16 levels at h = 1/8: delta = 4h fits around the middle
    # node, 4.5h is wider than the columns and 50 would be a huge offset box
    spec, v = drift_mesh()
    cert = delta_falsifier(v, HEAT, 2 * spec.h, "super", FalsifierConfig(samples=0))[0]
    replay_violation(dataclasses.replace(cert, node=(4, 16), delta=4 * spec.h), v, HEAT)
    for delta in (4.5 * spec.h, 50.0):
        with pytest.raises(DiagnosticsError, match="too large for the mesh"):
            replay_violation(dataclasses.replace(cert, delta=delta), v, HEAT)
    deep = MeshFunction(MeshSpec(h=0.125, bounds=[(0.0, 4.0)], T=0.125, N=2), np.zeros((8, 31)))
    with pytest.raises(DiagnosticsError, match="too large for the mesh"):
        replay_violation(dataclasses.replace(cert, node=(16, 8), delta=3 * spec.h), deep, HEAT)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -0.25, 0.0])
def test_certificate_refuses_a_delta_that_is_not_finite_and_positive(delta):
    # in memory, nan and inf used to replay as "too large for the mesh", and
    # -0.25 and 0.0 failed later in Cylinder with a GridError
    spec, v = drift_mesh()
    cert = delta_falsifier(v, HEAT, 2 * spec.h, "super", FalsifierConfig(samples=0))[0]
    want = f"delta must be a finite positive number, got {delta!r}"
    with pytest.raises(DiagnosticsError, match=re.escape(want)):
        dataclasses.replace(cert, delta=delta)


def test_certificate_refuses_a_side_that_is_not_super_or_sub():
    # a parsed side=banana used to replay with the sub side's sign
    spec, v = drift_mesh()
    cert = delta_falsifier(v, HEAT, 2 * spec.h, "super", FalsifierConfig(samples=0))[0]
    want = "side must be 'super' or 'sub', got 'banana'"
    with pytest.raises(DiagnosticsError, match=re.escape(want)):
        dataclasses.replace(cert, side="banana")
    with pytest.raises(DiagnosticsError, match=re.escape(want)):
        row_to_certificate(cert.row().replace("side=super ", "side=banana "))


def test_replay_refuses_a_node_where_the_cylinder_does_not_fit():
    # on (0, 0.95) at h = 1/8, node (6, 4) is 0.2 from the boundary, less than
    # delta = 0.25, yet every node of its cylinder (columns 5..7, levels 1..4)
    # is in the mesh; the falsifier never certifies there, and the replay
    # used to accept such a certificate as valid
    spec = MeshSpec(h=0.125, bounds=[(0.0, 0.95)], T=0.25, N=2)
    v = MeshFunction.from_callable(spec, lambda x, t: -t + 0.0 * x[..., 0])
    cfg = FalsifierConfig(samples=0, max_violations=10**6)
    certs = delta_falsifier(v, HEAT, 0.25, "super", cfg)
    assert certs[0].node == (2, 4) and replay_violation(certs[0], v, HEAT)["valid"]
    assert {c.node[0] for c in certs} == {2, 3, 4, 5}
    moved = dataclasses.replace(certs[0], node=(6, 4))
    cylinder = np.array((6, 4)) + np.roll(spec.cylinder_steps(0.25), -1, axis=1)
    assert (spec.flat_offsets(cylinder) >= 0).all()
    with pytest.raises(DiagnosticsError, match=r"node \(6, 4\): its delta = 0.25 cylinder leaves"):
        replay_violation(moved, v, HEAT)


def test_one_slack_moves_every_cylinder_fit_decision(monkeypatch):
    # The falsifier's eligible set, the replay's refusal and ABP's radius
    # check all ask MeshSpec.cylinder_fits, so a wider _FP_SLACK moves them
    # together.  On v = -t the osculating probe certifies every eligible node.
    h = 0.125
    cfg = FalsifierConfig(samples=0, include_battery=False, max_violations=10**6)
    # (a) delta = 2h (1 + 1e-4) on (0, 1): in a 1e-3 tie band it counts as 2h,
    # so lateral distance 2h and a depth of 4 levels fit; at 1e-9 they do not
    spec, v = drift_mesh()
    delta = 2 * h * (1 + 1e-4)
    # (b) the tie in the bound, so that ABP, whose radius is a multiple of h,
    # meets it too: on (0, 1 - 1e-4 h), column 5 is 3h (1 - 3.3e-5) from the
    # boundary, and its delta = 3h cylinder (columns 3..7) is in the mesh
    short = MeshSpec(h=h, bounds=[(0.0, 1.0 - 1e-4 * h)], T=0.25, N=2)
    w = MeshFunction.from_callable(short, lambda x, t: -t + 0.0 * x[..., 0])
    zero = MeshFunction(short, np.zeros(short.shape))
    at5 = ((5 * h,), short.T)

    def eligible():
        return [
            sorted(c.node for c in delta_falsifier(u, HEAT, d, "super", cfg))
            for u, d in ((v, delta), (w, 3 * h))
        ]

    narrow = eligible()
    assert [len(e) for e in narrow] == [3 * 12, 2 * 8]  # as the old rules decide
    assert abp_diagnostic(zero, center=at5)["rho"] == 2 * h
    with pytest.raises(EnvelopeError, match="does not fit"):
        abp_diagnostic(zero, center=at5, rho=3 * h)
    monkeypatch.setattr(geometry, "_FP_SLACK", 1e-3)
    wide = eligible()
    assert [len(e) for e in wide] == [5 * 13, 3 * 8]
    assert set(narrow[0]) < set(wide[0]) and set(narrow[1]) < set(wide[1])
    assert abp_diagnostic(zero, center=at5)["rho"] == 3 * h
    assert abp_diagnostic(zero, center=at5, rho=3 * h)["rho"] == 3 * h
    edge = delta_falsifier(v, HEAT, delta, "super", cfg)[0]
    last = delta_falsifier(w, HEAT, 3 * h, "super", cfg)[-1]
    assert (edge.node, last.node) == ((2, 4), (5, 16))
    assert replay_violation(edge, v, HEAT)["valid"] and replay_violation(last, w, HEAT)["valid"]
    monkeypatch.setattr(geometry, "_FP_SLACK", _FP_SLACK)
    assert eligible() == narrow
    with pytest.raises(GridError, match=r"node \(0, 0\) is not in the mesh"):
        replay_violation(edge, v, HEAT)
    with pytest.raises(DiagnosticsError, match=r"node \(5, 16\): its delta = 0.375 cylinder leaves"):
        replay_violation(last, w, HEAT)


def test_replay_refuses_a_certificate_of_another_dimension():
    # a 1-D certificate on a 2-D mesh used to end in a numpy broadcast error
    spec, v = drift_mesh()
    cert = delta_falsifier(v, HEAT, 2 * spec.h, "super", FalsifierConfig(samples=0))[0]
    flat = MeshSpec(h=0.125, bounds=[(0.0, 1.0)] * 2, T=0.25, N=2)
    other = MeshFunction(flat, np.zeros(flat.shape))
    with pytest.raises(DiagnosticsError, match=r"node \(2, 4\) does not live on a 2-D mesh"):
        replay_violation(cert, other, NonlinearityDescriptor.linear(np.eye(2)))


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
    with pytest.raises(DiagnosticsError, match="repeated certificate field 'margin'"):
        row_to_certificate(certs[0].row() + " margin=5.0")
    with pytest.raises(DiagnosticsError, match="unknown certificate field 'colour'"):
        row_to_certificate(certs[0].row() + " colour=red")


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e308, -1e308]
_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_SPOILS = ["c", "l", "m", "a", "Q", "delta", "margin", "touch_gap"]


@st.composite
def certificate_fields(draw):
    """The fields of a certificate (n = 1..3, finite pieces with signed
    zeros, subnormals and +-1e308, delta, margin and touch_gap as Python
    floats or numpy scalars, probe labels with ``=``), and perhaps one
    field to spoil with a non-finite value."""
    n = draw(st.integers(1, 3))

    def floats(k):
        return draw(st.lists(_FINITE, min_size=k, max_size=k))

    Q = np.zeros((n, n))
    Q[np.triu_indices(n)] = Q.T[np.triu_indices(n)] = floats(n * (n + 1) // 2)
    pieces = dict(c=draw(_FINITE), l=floats(n), m=draw(_FINITE), a=floats(n), Q=Q)
    kind = st.sampled_from([float, np.float64])
    positive = st.one_of(st.sampled_from([5e-324, 1e308]), st.floats(min_value=5e-324, max_value=1e308))
    fields = dict(
        node=tuple(draw(st.lists(st.integers(-(10**6), 10**6), min_size=n + 1, max_size=n + 1))),
        side=draw(st.sampled_from(["super", "sub"])),
        delta=draw(kind)(draw(positive)),
        margin=draw(kind)(draw(_FINITE)),
        touch_gap=draw(kind)(draw(_FINITE)),
        probe=draw(st.text(st.sampled_from("ab=[]()0.9_"), max_size=12)),
    )
    bad = st.sampled_from([math.inf, -math.inf, math.nan])
    spoil = draw(st.none() | st.tuples(st.sampled_from(_SPOILS), bad))
    return pieces, fields, spoil


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=certificate_fields())
@example(  # a numpy delta was written as its numpy repr, which no parser read
    case=(
        dict(c=0.0, l=[0.0], m=-1.0, a=[0.0], Q=[[0.0]]),
        dict(node=(8, 9), side="super", delta=np.float64(0.15625), margin=-1.0, touch_gap=0.0, probe=""),
        None,
    )
)
@example(  # an infinite recorded gap parsed, and made any paraboloid touch
    case=(
        dict(c=-1.0, l=[0.0], m=-1.0, a=[0.0], Q=[[0.0]]),
        dict(node=(8, 9), side="super", delta=0.125, margin=-1.0, touch_gap=0.0, probe=""),
        ("touch_gap", math.inf),
    )
)
def test_generated_certificate_rows_round_trip(case):
    # row() and row_to_certificate read one field table: a parsed row is the
    # certificate bit for bit (signed zeros too), and writes the same row;
    # a non-finite number is refused in memory and in a row
    pieces, fields, spoil = case
    cert = ViolationCertificate(paraboloid=Paraboloid(**pieces), **fields)
    if spoil is not None:
        key, bad = spoil
        spoilt = np.full(np.shape(pieces.get(key, 0.0)), bad)
        with pytest.raises(DiagnosticsError, match="must be .*finite"):
            if key in pieces:
                Paraboloid(**{**pieces, key: spoilt})
            else:
                ViolationCertificate(paraboloid=cert.paraboloid, **{**fields, key: bad})
        row = " ".join(
            f"{k}={','.join(map(repr, spoilt.ravel().tolist()))}" if k == key else f"{k}={v}"
            for k, _, v in (f.partition("=") for f in cert.row().split())
        )
        with np.errstate(all="raise", under="ignore"):
            with pytest.raises(DiagnosticsError, match="must be .*finite"):
                row_to_certificate(row)
        return
    back = row_to_certificate(cert.row())
    assert (back.node, back.side, back.probe) == (cert.node, cert.side, cert.probe)
    for name in ("delta", "margin", "touch_gap"):
        assert type(getattr(back, name)) is float and type(getattr(cert, name)) is float
        assert _bits(getattr(back, name)) == _bits(getattr(cert, name)) == _bits(fields[name]), name
    for name in "clmaQ":
        got, want = getattr(back.paraboloid, name), getattr(cert.paraboloid, name)
        assert _bits(got) == _bits(want) == _bits(pieces[name]), name
    assert back.row() == cert.row()


@pytest.mark.parametrize("probe", ["a b", "a\tb", "a\nb", 7])
def test_a_probe_label_with_whitespace_is_refused(probe):
    # probe="a b" used to build a certificate whose row did not read back
    # ("malformed certificate field 'b'"); labels with "=" stay legal
    P = Paraboloid(c=0.0, l=[0.0], m=-1.0, a=[0.0], Q=[[0.0]])
    fields = dict(node=(8, 9), side="super", delta=0.125, margin=-1.0, touch_gap=0.0)
    with pytest.raises(DiagnosticsError, match="probe must be a str with no whitespace"):
        ViolationCertificate(paraboloid=P, probe=probe, **fields)
    row = ViolationCertificate(paraboloid=P, probe="a=b", **fields).row()
    assert row_to_certificate(row).probe == "a=b"


@pytest.mark.parametrize("node", [(3.7, 5.9), (3.0, 5), (True, 5), (3, np.float64(5.0)), ("3", "5")])
def test_a_certificate_node_takes_integers_only(node):
    # int() used to truncate: node=(3.7, 5.9) was stored as (3, 5) and
    # written as node=3,5, and (True, 5) as (1, 5)
    P = Paraboloid(c=0.0, l=[0.0], m=-1.0, a=[0.0], Q=[[0.0]])
    fields = dict(side="super", delta=0.125, margin=-1.0, touch_gap=0.0, probe="p")
    with pytest.raises(DiagnosticsError, match=f"^{re.escape(f'node must hold ints, got {node!r}')}$"):
        ViolationCertificate(paraboloid=P, node=node, **fields)
    cert = ViolationCertificate(paraboloid=P, node=(np.int64(3), np.uint8(5)), **fields)
    assert cert.node == (3, 5) and all(type(i) is int for i in cert.node)
    assert " node=3,5 " in cert.row()


def test_a_numpy_delta_writes_rows_that_read_back():
    # delta = np.float64(2.5) * h was written as delta=np.float64(0.15625)
    spec, v = drift_mesh(h=1 / 16)
    delta = np.float64(2.5) * spec.h
    certs = delta_falsifier(v, HEAT, delta, "super", FalsifierConfig(samples=4))
    assert certs and all(type(c.delta) is float for c in certs)
    rows = certificates_to_rows(certs)
    assert all(" delta=0.15625 " in row for row in rows)
    assert [row_to_certificate(row).row() for row in rows] == rows
    report = run_diagnostics(v, HEAT, delta=delta, falsifier_config=FalsifierConfig(samples=4))
    assert report["falsifier"]["super"]["certificates"] == rows


def test_non_finite_pieces_and_numbers_are_refused_at_construction():
    # a non-finite Q used to build a certificate that the replay refused
    # late, without its row; an infinite touch_gap made any lowered
    # paraboloid replay as touching
    spec, v = drift_mesh(h=1 / 16)
    cert = delta_falsifier(v, HEAT, 2 * spec.h, "super", FalsifierConfig(samples=4))[0]
    P = cert.paraboloid
    lowered = dataclasses.replace(cert, paraboloid=dataclasses.replace(P, c=P.c - 1.0))
    assert replay_violation(lowered, v, HEAT)["touching"] is False
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DiagnosticsError, match="touch_gap must be finite"):
            dataclasses.replace(lowered, touch_gap=bad)
        with pytest.raises(DiagnosticsError, match="margin must be finite"):
            dataclasses.replace(cert, margin=bad)
        for piece in ("c", "l", "m", "a", "Q"):
            value = np.full(np.shape(getattr(P, piece)), bad)
            with np.errstate(all="raise"), pytest.raises(DiagnosticsError, match="pieces must be finite"):
                dataclasses.replace(P, **{piece: value})
    # a finite Q near the largest float stays finite
    big = Paraboloid(c=0.0, l=[0.0, 0.0], m=0.0, a=[0.0, 0.0], Q=[[1e308, -1e308], [-1e308, 1e308]])
    assert np.array_equal(big.Q, [[1e308, -1e308], [-1e308, 1e308]])


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


def test_falsifier_memory_is_bounded_by_one_probe(traced_peak):
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
    # the warm-up call above also keeps the first read of the Sobol' table
    # out of the measurement
    _, peak = traced_peak(run)
    assert peak <= 16 * probe_bytes, peak / probe_bytes


def test_grid_touch_config_scales_with_tau():
    spec, _ = drift_mesh()
    cfg = FalsifierConfig.with_grid_touch(spec, c_touch=10.0)
    assert cfg.touch_tol == pytest.approx(10.0 * spec.h**2)


def test_falsifier_config_rejects_invalid_values():
    # max_violations = 0 used to return one certificate, and negative
    # counts or tolerances were accepted silently
    spec, _ = drift_mesh(h=1 / 16)
    for kw, match in [
        (dict(max_violations=0), "max_violations must be at least 1"),
        (dict(max_violations=-2), "max_violations must be at least 1"),
        (dict(samples=-1), "samples must be nonnegative"),
        (dict(touch_tol=-1e-12), "touch_tol must be nonnegative"),
        (dict(touch_tol=math.nan), "touch_tol must be nonnegative"),
        (dict(violation_tol=-1.0), "violation_tol must be nonnegative"),
        (dict(seed=-3), "seed must be a nonnegative integer, got -3"),
        (dict(seed=1.5), "seed must be a nonnegative integer, got 1.5"),
        (dict(seed="7"), "seed must be a nonnegative integer"),
        (dict(seed=True), "seed must be a nonnegative integer, got True"),
        # non-integer counts: 2.5 samples failed inside the Sobol draw, and
        # 2.5 violations returned 3 certificates
        (dict(samples=2.5), "samples must be an integer, got 2.5"),
        (dict(samples=True), "samples must be an integer, got True"),
        (dict(samples="8"), "samples must be an integer, got '8'"),
        (dict(max_violations=2.5), "max_violations must be an integer, got 2.5"),
        (dict(max_violations=True), "max_violations must be an integer, got True"),
    ]:
        with pytest.raises(DiagnosticsError, match=match):
            FalsifierConfig(**kw)
    with pytest.raises(DiagnosticsError, match="touch_tol must be nonnegative"):
        FalsifierConfig.with_grid_touch(spec, c_touch=-1.0)
    # infinite tolerances used to be accepted: violation_tol = inf reported
    # every grid clean, and touch_tol = inf let every probe touch
    for kw in (dict(touch_tol=math.inf), dict(violation_tol=math.inf)):
        with pytest.raises(DiagnosticsError, match="must be nonnegative and finite, got inf"):
            FalsifierConfig(**kw)
    with pytest.raises(DiagnosticsError, match="touch_tol must be nonnegative and finite"):
        FalsifierConfig.with_grid_touch(spec, c_touch=math.inf)
    FalsifierConfig(samples=0, touch_tol=0.0, violation_tol=0.0, max_violations=1)
    FalsifierConfig(seed=np.int64(3))
    FalsifierConfig(samples=np.int64(4), max_violations=np.int32(2))


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_falsifier_refuses_a_non_finite_delta(delta):
    # nan and inf used to report "no node admits a delta-cylinder; enlarge the mesh"
    spec, v = drift_mesh()
    assert len(delta_falsifier(v, HEAT, 2 * spec.h, "super", FalsifierConfig(samples=0))) == 65
    with pytest.raises(DiagnosticsError, match=f"delta = {delta} must be finite"):
        delta_falsifier(v, HEAT, delta, "super", FalsifierConfig(samples=0))


# the probe dimension n + 1 + n (n + 1) / 2 for n = 1..4
@pytest.mark.parametrize("d", [3, 6, 10, 15])
@pytest.mark.parametrize("seed", [0, 7, 11, 12345])
def test_sobol_matches_scipy_qmc(d, seed):
    for m in (1, 2, 16, 256):
        want = qmc.Sobol(d=d, scramble=True, seed=seed).random(m)
        assert np.array_equal(diagnostics._sobol(d, m, seed), want), m
    # a count that is not a power of two is the start of the same sequence
    assert np.array_equal(diagnostics._sobol(d, 200, seed), want[:200])


def test_sobol_table_keeps_only_the_rows_it_uses():
    # the first d rows of scipy's direction numbers, read column by column,
    # for every probe dimension up to 3-D (d <= 10), and the draws they make
    (root,) = importlib.util.find_spec("scipy").submodule_search_locations
    with np.load(os.path.join(root, "stats", "_sobol_direction_numbers.npz")) as npz:
        poly, vinit = npz["poly"], npz["vinit"]
    for d in range(1, 11):
        got = diagnostics._joe_kuo_table(d)
        assert np.array_equal(got[0], poly[:d]) and np.array_equal(got[1], vinit[:d]), d
        want = qmc.Sobol(d=d, scramble=True, seed=7).random(64)
        assert np.array_equal(diagnostics._sobol(d, 64, 7), want), d
    # a first call peaks at under 1 MiB (4.4 MiB when the whole 21,201-row
    # table was loaded) and keeps a few KiB (3.1 MiB for the whole table)
    diagnostics._joe_kuo_table.cache_clear()
    tracemalloc.start()
    try:
        diagnostics._sobol(3, 200, 11)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and kept < 64 << 10, (peak, kept)


def test_sobol_refuses_more_points_than_its_bits():
    with pytest.raises(DiagnosticsError, match="at most 2\\*\\*30"):
        diagnostics._sobol(3, (1 << 30) + 1, 0)


@pytest.mark.parametrize("side", ["super", "sub"])
def test_falsifier_certificates_equal_those_of_the_qmc_draw(side, monkeypatch):
    # without the battery, every certificate after the osculating probe's
    # comes from a Sobol probe
    v, F, delta, _, _ = falsifier_case("perturbed-1d")
    cfg = FalsifierConfig.with_grid_touch(
        v.spec, samples=16, seed=1, include_battery=False, max_violations=10**6
    )
    got = certificates_to_rows(delta_falsifier(v, F, delta, side, cfg))
    assert "sobol" in {family(r) for r in got}
    monkeypatch.setattr(
        diagnostics,
        "_sobol",
        lambda d, m, seed: qmc.Sobol(d=d, scramble=True, seed=seed).random(m),
    )
    assert certificates_to_rows(delta_falsifier(v, F, delta, side, cfg)) == got


FAMILIES = ("osculating", "opening_battery", "sobol")
ISAACS_2D = NonlinearityDescriptor.bellman_isaacs(
    [[np.eye(2), [[2.0, 0.5], [0.5, 1.0]]], [[[1.0, -0.3], [-0.3, 2.0]], 1.5 * np.eye(2)]]
)


def saddle_boundary(x, t):
    """Smooth 2D data whose Hessian changes sign inside the unit square."""
    x0, x1 = x[..., 0], x[..., 1]
    return (
        np.sin(np.pi * x0) * np.sin(np.pi * x1) * np.exp(-t)
        + 0.5 * np.cos(2.0 * np.pi * x0 + 1.0) * np.cos(np.pi * x1)
        + 0.3 * (x0 - 0.5) * (x1 - 0.5) * (1.0 + t)
    )


def perturbed(problem, h, amplitude, seed=5):
    """A computed grid plus seeded noise of size amplitude * h^2: not a
    polynomial, so touching gaps and margins carry rounding."""
    u = solved(problem, h)
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, u.spec.shape)
    return MeshFunction(u.spec, u.values + amplitude * u.spec.tau * noise)


@functools.lru_cache(maxsize=None)
def falsifier_case(case):
    """(v, F, delta, config, families the oracle must emit on both sides)."""
    if case in ("heat-1d", "heat-2d"):  # the verify inputs
        problem, h, samples = {
            "heat-1d": ("heat_sine", 1 / 16, 200),
            "heat-2d": ("heat_product_2d", 1 / 12, 32),
        }[case]
        cfg = FalsifierConfig(samples=samples, seed=7)
        return solved(problem, h), get_problem(problem).descriptor, 2 * h, cfg, ()
    if case in ("pucci-2d", "isaacs-2d"):
        F = NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2) if case == "pucci-2d" else ISAACS_2D
        spec = MeshSpec(h=1 / 8, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)
        u, _ = solve(build_monotone_scheme(F), spec, saddle_boundary)
        cfg = FalsifierConfig.with_grid_touch(spec, samples=64, max_violations=10**6)
        return u, F, 2 * spec.h, cfg, ("osculating",)
    if case.startswith("drift-cut-"):  # the cli grid; the cut falls inside a probe
        spec, v = drift_mesh(h=1 / 64)
        cfg = FalsifierConfig(samples=8, max_violations=int(case.rsplit("-", 1)[1]))
        return v, HEAT, 2 * spec.h, cfg, ()
    if case == "heat-1d-grid-touch":  # cut at 1000 inside the Sobol family
        u = solved("heat_sine", 1 / 16)
        return u, HEAT, 2 * u.spec.h, FalsifierConfig.with_grid_touch(u.spec, samples=64), ()
    if case.startswith("perturbed-1d"):
        v = perturbed("heat_sine", 1 / 16, 0.3)
        kw = dict(samples=16, seed=1, max_violations=10**6)
        if case == "perturbed-1d-no-battery":
            kw.update(include_battery=False, max_violations=300)
        if case == "perturbed-1d-no-samples":
            kw["samples"] = 0
        cfg = FalsifierConfig.with_grid_touch(v.spec, **kw)
        return v, HEAT, 2 * v.spec.h, cfg, FAMILIES if case == "perturbed-1d" else ()
    v = perturbed("heat_product_2d", 1 / 8, 1.0)
    cfg = FalsifierConfig.with_grid_touch(v.spec, samples=32, seed=1, max_violations=10**6)
    return v, get_problem("heat_product_2d").descriptor, 2 * v.spec.h, cfg, FAMILIES


@functools.lru_cache(maxsize=None)
def oracle_certificates(case, side):
    v, F, delta, cfg, _ = falsifier_case(case)
    return tuple(falsifier_oracle(v, F, delta, side, cfg))


def family(row):
    probe = row.split(" probe=")[1].split(" ")[0]
    return probe.split("(")[0].split("[")[0]


@pytest.mark.parametrize("side", ["super", "sub"])
@pytest.mark.parametrize(
    "case",
    [
        "heat-1d",
        "heat-2d",
        "pucci-2d",
        "isaacs-2d",
        "drift-cut-7",
        "drift-cut-1000",
        "heat-1d-grid-touch",
        "perturbed-1d",
        "perturbed-1d-no-battery",
        "perturbed-1d-no-samples",
        "perturbed-2d",
    ],
)
def test_falsifier_matches_whole_mesh_oracle(case, side):
    v, F, delta, cfg, families = falsifier_case(case)
    want = certificates_to_rows(oracle_certificates(case, side))
    got = certificates_to_rows(delta_falsifier(v, F, delta, side, cfg))
    assert got == want
    # the comparison must see certificates of every family listed
    assert {family(r) for r in want} >= set(families)
    if case.startswith("drift-cut-"):
        assert len(want) == (cfg.max_violations if side == "super" else 0)


@pytest.mark.parametrize("side", ["super", "sub"])
@pytest.mark.parametrize(
    "case, budget",
    [
        (case, 16384)
        for case in ("heat-1d", "heat-2d", "pucci-2d", "drift-cut-7", "perturbed-1d", "perturbed-2d")
    ]
    + [("pucci-2d", 4096), ("perturbed-2d", 4096)],
)
def test_falsifier_matches_the_oracle_across_chunks_and_tiles(case, budget, side, monkeypatch):
    # at the shipped 2 MiB no oracle case crosses a probe chunk and most run
    # as one tile of nodes; these budgets give chunks of a few probes and
    # tiles of tens of nodes
    monkeypatch.setattr(diagnostics, "_SCRATCH_BYTES", budget)
    v, F, delta, cfg, _ = falsifier_case(case)
    want = certificates_to_rows(oracle_certificates(case, side))
    assert certificates_to_rows(delta_falsifier(v, F, delta, side, cfg)) == want


@pytest.mark.parametrize("side", ["super", "sub"])
def test_falsifier_pair_on_the_touch_threshold(side):
    # touch_tol equal to one of the oracle's exact gaps (a Sobol probe's)
    # puts that pair on the threshold: gap <= touch_tol holds with equality,
    # and only the screen's slack lets the screen flag it
    v, F, delta, cfg, _ = falsifier_case("perturbed-1d")
    certs = oracle_certificates("perturbed-1d", side)
    gaps = sorted({c.touch_gap for c in certs if c.probe.startswith("sobol")})
    gap = gaps[len(gaps) // 2]
    assert gap > 0.0
    tight = dataclasses.replace(cfg, touch_tol=gap)
    want = falsifier_oracle(v, F, delta, side, tight)
    assert any(c.touch_gap == gap for c in want)
    got = delta_falsifier(v, F, delta, side, tight)
    assert certificates_to_rows(got) == certificates_to_rows(want)


SCREEN_OPERATORS = {
    "heat-1d": HEAT,
    "pucci_plus-1d": NonlinearityDescriptor.pucci_plus(1.0, 2.0),
    "heat-2d": NonlinearityDescriptor.linear(np.eye(2)),
    "pucci_plus-2d": NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2),
}


@st.composite
def screen_cases(draw):
    """(v, F, delta, side, config) on a small mesh.  v is a smooth profile
    plus seeded noise of size tau, either raw or quantized to quarters of
    tau (so that many gaps tie exactly), or the pure drift -c t, whose gaps
    tie at zero.  The config touches at grid resolution with no cut."""
    name = draw(st.sampled_from(sorted(SCREEN_OPERATORS)))
    F = SCREEN_OPERATORS[name]
    n = F.dimension
    h = 1.0 / draw(st.sampled_from([8, 16] if n == 1 else [6, 8]))
    spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=0.25, N=2)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["noise", "quantized", "drift"]))
    if kind == "drift":
        vals = -draw(st.integers(1, 4)) * spec.times().reshape((-1,) + (1,) * n) + np.zeros(spec.shape)
    else:
        v = MeshFunction.from_callable(
            spec, lambda x, t: np.prod(np.sin(np.pi * x), axis=-1) * np.exp(-np.pi**2 * t)
        )
        noise = rng.uniform(-1.0, 1.0, spec.shape)
        if kind == "quantized":
            noise = np.round(4.0 * noise) / 4.0
        vals = v.values + spec.tau * noise
    cfg = FalsifierConfig.with_grid_touch(
        spec, samples=draw(st.integers(0, 8)), seed=draw(st.integers(0, 99)), max_violations=10**6
    )
    delta = draw(st.sampled_from([2.0, 2.5])) * h
    return MeshFunction(spec, vals), F, delta, draw(st.sampled_from(["super", "sub"])), cfg


@settings(max_examples=16, derandomize=True, deadline=None)
@given(case=screen_cases(), data=st.data())
def test_generated_screen_matches_the_whole_mesh_oracle(case, data):
    # the screen-then-confirm route gives the oracle's certificates: with
    # touch_tol set to one of the oracle's own gaps, so that pair sits on the
    # threshold, and with a max_violations cut inside each probe family
    v, F, delta, side, cfg = case
    certs = falsifier_oracle(v, F, delta, side, cfg)
    if certs:
        gap = certs[data.draw(st.integers(0, len(certs) - 1), label="tie")].touch_gap
        cfg = dataclasses.replace(cfg, touch_tol=gap)
        certs = falsifier_oracle(v, F, delta, side, cfg)
        assert any(c.touch_gap == gap for c in certs)
    want = certificates_to_rows(certs)
    assert certificates_to_rows(delta_falsifier(v, F, delta, side, cfg)) == want
    families = [family(r) for r in want]
    for name in dict.fromkeys(families):
        first, last = families.index(name), len(families) - families[::-1].index(name)
        cut = data.draw(st.integers(first + 1, last), label=f"{name} cut")
        got = delta_falsifier(v, F, delta, side, dataclasses.replace(cfg, max_violations=cut))
        assert certificates_to_rows(got) == want[:cut], (name, cut)


@pytest.mark.parametrize("grid", ["one", "minus-one", "zero", "1e6", "affine"])
@pytest.mark.parametrize("case", ["heat-1d", "pucci-2d", "isaacs-2d"])
def test_flat_grids_give_no_certificate(case, grid):
    # A constant or affine v solves u_t = F(D^2 u) when F(0) = 0.  The
    # battery's floor used to be 1e-9 (1 + sup|v|): its two weakest probes
    # bent by less than touch_tol, "touched" everywhere and were flagged on
    # both sides (130 + 130 certificates on the constant 1-D grid)
    n, F = {
        "heat-1d": (1, HEAT),
        "pucci-2d": (2, NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2)),
        "isaacs-2d": (2, ISAACS_2D),
    }[case]
    for h in (1 / 8, 1 / 16) if n == 1 else (1 / 8,):
        spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=0.25, N=2)
        if grid == "affine":
            v = MeshFunction.from_callable(
                spec, lambda x, t: 0.3 + 0.5 * x[..., 0] - 0.2 * x[..., -1] * (n > 1)
            )
        else:
            c = {"one": 1.0, "minus-one": -1.0, "zero": 0.0, "1e6": 1e6}[grid]
            v = MeshFunction(spec, np.full(spec.shape, c))
        for multiple in (2.0, 2.5, 3.0):
            fcfg = FalsifierConfig(samples=4)
            out = run_diagnostics(v, F, delta=multiple * h, falsifier_config=fcfg)
            assert out["falsifier"]["super"]["violations"] == 0, (h, multiple)
            assert out["falsifier"]["sub"]["violations"] == 0, (h, multiple)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cylinder_steps_match_the_offset_oracle(n):
    checked = 0
    for h in (1 / 8, 1 / 12, 1 / 16, 1 / 20, 1 / 64, 0.1):
        spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=0.25, N=2)
        deltas = [m * h / 4 for m in range(1, 21)] + [math.sqrt(k) * h for k in range(1, 26)]
        for delta in deltas:
            want = [(dm,) + dk for dk, dm in _cylinder_offsets(spec, delta)]
            got = spec.cylinder_steps(delta)
            assert got.shape == (len(want), n + 1) and got.tolist() == [list(w) for w in want]
            # the same steps in (k, m) order
            assert spec.node_steps(delta).tolist() == [list(w[1:] + w[:1]) for w in want]
            checked += 1
    assert checked == 6 * 45


def _old_abp_radius(spec, node):
    """ABP's largest fitting multiple j of h at a node before
    ``MeshSpec.cylinder_fits``: its absolute slack 1e-9 h and integer levels."""
    x = [k * spec.h for k in node[:-1]]
    lat = min(min(c - lo, hi - c) for c, (lo, hi) in zip(x, spec.bounds))
    return min(int(lat / spec.h + _FP_SLACK), int(math.isqrt(node[-1])))


@st.composite
def fit_cases(draw, exact=False):
    """A small mesh (n <= 3, h from 1/4 to 1/12, bounds on an h/4 grid,
    lattice-aligned or not, sides and depth near those that the cylinder
    or the stencil reach 2h needs, so that ties with the boundary are
    common), a radius sqrt(k) h or m h/4, perhaps times 1 +- 1e-10, and a
    node.  ``exact``: lattice-aligned bounds and an untilted radius."""
    n = draw(st.integers(1, 3))
    h = 1.0 / draw(st.integers(4, 12))
    if draw(st.booleans()):
        lattice = math.sqrt(draw(st.integers(1, (12, 12, 6)[n - 1]))) * h
    else:
        lattice = draw(st.integers(1, (14, 14, 10)[n - 1])) * h / 4
    tilt = 1.0 if exact else draw(st.sampled_from([1.0, 1.0 + 1e-10, 1.0 - 1e-10]))
    aligned = exact or draw(st.booleans())
    reach = max(lattice, 2 * h)
    bounds = []
    for _ in range(n):  # in quarters of h
        lo = draw(st.integers(-8, 8))
        side = 2 * math.ceil(4 * reach / h) + draw(st.integers(-4, 8))
        if aligned:
            lo, side = 4 * (lo // 4), 4 * -(-side // 4)
        bounds.append((lo * h / 4, (lo + side) * h / 4))
    levels = max(1, math.ceil(reach**2 / h**2) + draw(st.integers(-2, 4)))
    spec = MeshSpec(h=h, bounds=bounds, T=levels * h * h, N=2)
    at = draw(st.integers(0, spec.node_count() - 1))
    return spec, lattice, tilt, spec.index_from_offset(np.unravel_index(at, spec.shape))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=fit_cases())
def test_generated_cylinder_steps_match_the_oracle_and_fit_the_mesh(case):
    spec, lattice, tilt, _ = case
    radius = lattice * tilt
    # the steps are the oracle's; within 1e-10 of a lattice radius they stay
    # those of the lattice radius (the oracle's own 1e-12 tie rule would not)
    steps = spec.cylinder_steps(radius)
    assert steps.tolist() == [[dm, *dk] for dk, dm in _cylinder_offsets(spec, lattice)]
    # wherever the rule holds, the whole cylinder is in the mesh
    fits = spec.cylinder_fits(radius)
    cells = np.argwhere(fits)[:, None, :] + steps[None, :, :]
    assert (cells >= 0).all() and (cells < np.array(spec.shape)).all()
    assert fits.any() == spec.cylinder_fits(radius, spec.middle_node())


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=fit_cases(exact=True))
def test_generated_fit_decisions_match_the_old_rules(case):
    # on lattice radii and lattice-aligned bounds, the falsifier's eligible
    # set (v = -t: the osculating probe certifies every eligible node) is the
    # old one
    spec, radius, _, node = case
    old = _old_eligible(spec, radius)
    v = MeshFunction.from_callable(spec, lambda x, t: -t + 0.0 * x[..., 0])
    F = NonlinearityDescriptor.linear(np.eye(spec.n))
    cfg = FalsifierConfig(samples=0, include_battery=False, max_violations=10**6)
    if radius < spec.h * math.sqrt(spec.n + 1) * (1.0 - 1e-12) or not old.any():
        with pytest.raises(DiagnosticsError, match="cell diameter|enlarge the mesh"):
            delta_falsifier(v, F, radius, "super", cfg)
    else:
        got = {spec.offset(c.node) for c in delta_falsifier(v, F, radius, "super", cfg)}
        assert got == {tuple(i) for i in np.argwhere(old)}
    # ABP's default radius and its check of a given one, at the middle node
    # and at a drawn node, are the old ones
    zero = MeshFunction(spec, np.zeros(spec.shape))
    for at in (spec.middle_node(), node):
        center = (tuple(k * spec.h for k in at[:-1]), at[-1] * spec.tau)
        j = _old_abp_radius(spec, at)
        if j < 1:
            with pytest.raises(EnvelopeError, match="no backward cylinder"):
                abp_diagnostic(zero, center=center)
        else:
            assert abp_diagnostic(zero, center=center)["rho"] == j * spec.h
        with pytest.raises(EnvelopeError, match="does not fit"):
            abp_diagnostic(zero, center=center, rho=(max(j, 0) + 1) * spec.h)


def test_falsifier_memory_stays_within_budget_at_delta_4h(traced_peak):
    # delta = 4h on the 2D heat grid at h=1/16: 720 cylinder offsets and
    # 14,400 nodes, so an offsets x mesh stack alone would be 83 MB
    u = solved("heat_product_2d", 1 / 16)
    F = get_problem("heat_product_2d").descriptor
    delta = 4 * u.spec.h
    assert len(u.spec.cylinder_steps(delta)) == 720
    cfg = FalsifierConfig(samples=16)
    # warm-up at delta = 2h: the Sobol' table read and first-call allocations
    delta_falsifier(u, F, 2 * u.spec.h, side="super", config=cfg)
    _, peak = traced_peak(delta_falsifier, u, F, delta, side="super", config=cfg)
    assert peak <= 16 * 2**20, peak / 2**20


def test_region_mask_matches_per_node_contains(cylinder_mask):
    checked = 0
    for n, h in ((1, 1 / 16), (2, 1 / 8)):
        spec = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=16 * h * h, N=2)
        # the K-boxes of verify (1D, h=1/16, T=0.25) and of the CLI
        full = MeshSpec(h=h, bounds=[(0.0, 1.0)] * n, T=0.25, N=2) if n == 1 else spec
        cases = [(full, centred_kbox(full)), (full, _centered_kbox(full))]
        center = ((0.5,) * n, 8 * spec.tau)
        for k in (1, 2):
            cases += [
                # radii landing on lattice nodes: in space (k h) and in time (k tau)
                (spec, Cylinder(center, k * h, "backward")),
                (spec, Cylinder(center, k * h, "forward")),
                (spec, Cylinder(center, math.sqrt(k * spec.tau), "backward")),
                (spec, Cylinder(center, math.sqrt(k * spec.tau), "forward")),
                (spec, KBox(center, 9.0 * math.sqrt(n) * k * h)),
                (spec, KBox(center, math.sqrt(81.0 * n * k * spec.tau))),
            ]
        points = {}
        for mesh, region in cases:
            mask = region_mask(mesh, region)
            if mesh not in points:
                offs = np.ndindex(mesh.shape)
                points[mesh] = [mesh.node_point(mesh.index_from_offset(o)) for o in offs]
            per_node = np.array([region.contains(p) for p in points[mesh]]).reshape(mesh.shape)
            assert np.array_equal(mask, per_node)
            assert np.array_equal(mask, cylinder_mask(mesh, region))
            checked += int(mask.any() and not mask.all())
    assert checked >= 20


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


def test_one_acceptance_rule_with_its_slack():
    # the fits' stop rule, the membership test and the bad set all accept a
    # ratio up to level (1 + 1e-9) + 1e-12
    assert not diagnostics._exceeds(1.0 + 0.5e-9, 1.0)
    assert diagnostics._exceeds(1.0 + 2e-9, 1.0)
    assert not diagnostics._exceeds(0.5e-12, 0.0) and diagnostics._exceeds(2e-12, 0.0)
    _, u = cube_kink_mesh(levels=1)
    worst = psi_M_membership(u, (0, 1), 1.0)["worst_ratio"]
    for scale, member in ((1.0 + 0.5e-9, True), (1.0 + 2e-9, False)):
        assert psi_M_membership(u, (0, 1), worst / scale)["member"] is member
        box = KBox(((0.0,), 0.06), 1.0)  # the node (0, 1) alone
        bad = good_set_measure(u, [worst / scale], box).bad_fraction
        assert bool(bad[0] == 0.0) is member


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


def test_a_repeated_opening_is_refused_before_any_fit(monkeypatch):
    # The verify sweep's openings at the 20/50/80% quantiles of its worst
    # ratios give a slope CI of width 1.18; a fit that counted the first
    # opening twice would read 0.73, a falsely narrow interval.
    u = solved("heat_sine", 1 / 16)
    box = centred_kbox(u.spec)
    ratios = good_set_measure(u, [1.0], box).worst_ratios
    Ms = [float(M) for M in np.quantile(ratios, [0.2, 0.5, 0.8])]
    rep = good_set_measure(u, Ms, box)
    assert rep.slope_ci[1] - rep.slope_ci[0] > 1.0
    monkeypatch.setattr(diagnostics, "_expansion_fits", None)  # any fit would fail
    with pytest.raises(DiagnosticsError, match=f"^M sweep repeats the opening {re.escape(repr(Ms[0]))}$"):
        good_set_measure(u, Ms + Ms[:1], box)


@pytest.mark.parametrize("node", [(0.7, 2), (True, 2), ("1", "2"), (1.0, 2)])
def test_membership_refuses_a_node_that_is_not_integers(node):
    # (0.7, 2) used to fit node (0, 2), and (True, 2) node (1, 2)
    _, u = cube_kink_mesh(levels=2)
    with pytest.raises(GridError, match=f"^{re.escape(f'node {node} is not in the mesh')}$"):
        psi_M_membership(u, node, 1.0)


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


def test_good_set_on_quadratic_data_is_everything(cylinder_nodes):
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
    with pytest.raises(DiagnosticsError, match=r"^M sweep repeats the opening 1\.0$"):
        good_set_measure(u, [4.0, 1.0, 2, np.int64(1)], box)
    far = KBox(((50.0,), 0.0), r=0.5)
    with pytest.raises(DiagnosticsError, match="no mesh nodes"):
        good_set_measure(u, [1.0], far)


def centred_kbox(spec, r=None):
    """A K-box centred in space whose top is the final time; by default the
    largest one, as ``parastep diagnose`` builds it."""
    n = spec.n
    half = min((hi - lo) / 2.0 for lo, hi in spec.bounds)
    if r is None:
        r = min(9.0 * math.sqrt(n) * half, math.sqrt(81.0 * n * spec.T))
    center = tuple((lo + hi) / 2.0 for lo, hi in spec.bounds)
    return KBox((center, max(0.0, spec.T - r * r / (81.0 * n))), r)


def solved(problem, h):
    sol = get_problem(problem)
    spec = MeshSpec(h=h, bounds=sol.bounds, T=0.25, N=2)
    u, _ = solve(build_monotone_scheme(sol.descriptor), spec, sol.fn)
    return u


def sweep_case(case):
    """(u, kbox, region, M sweep) for the differential good-set tests."""
    Ms = [2.0**k for k in range(-4, 9)]
    if case == "heat-1d":
        u = solved("heat_sine", 1 / 8)
        return u, centred_kbox(u.spec), None, Ms
    if case == "heat-2d-subset":
        # 5 x 5 columns on the top 5 of 16 levels: 125 of the mesh's 784 nodes
        u = solved("heat_product_2d", 1 / 8)
        return u, centred_kbox(u.spec, r=math.sqrt(162.0 * 4.5 * u.spec.tau)), None, Ms
    # an off-centre region gives the box's columns ratios 1/3, 1/2 and 0.55;
    # M = 0.5 puts the middle one exactly on the budget
    spec = MeshSpec(h=0.25, bounds=[(-1.0, 1.0)], T=0.25, N=2)
    u = MeshFunction.from_callable(spec, lambda x, t: np.abs(x[..., 0]) ** 3)
    Ms = [0.25, 0.3, 0.4, 0.5, 0.53, 0.6, 1.0]
    return u, KBox(((0.0,), spec.tau), r=4.0), KBox(((0.125,), 0.0), r=6.0), Ms


@pytest.mark.parametrize(
    "case, scratch",
    [("heat-1d", None), ("heat-2d-subset", None), ("cube-kink-region", None), ("cube-kink-region", 1)],
)
def test_good_set_matches_full_lp_oracle(case, scratch, monkeypatch):
    u, kbox, region, Ms = sweep_case(case)
    if scratch is not None:  # one node per scan chunk
        monkeypatch.setattr(diagnostics, "_SCRATCH_BYTES", scratch)
    new = good_set_measure(u, Ms, kbox, region)

    def full_lp_fits(u, nodes, mask):
        fits = [full_lp_worst_ratio(u, u.spec.index_from_offset(o), mask) for o in nodes]
        z = np.array([z for z, _ in fits])
        return z, None, np.array([c for _, c in fits])

    monkeypatch.setattr(diagnostics, "_expansion_fits", full_lp_fits)
    old = good_set_measure(u, Ms, kbox, region)
    assert new.node_count == old.node_count
    # the sweep must cross the ratios for the comparison to bite
    assert 0.0 < old.bad_fraction[0] and old.bad_fraction[-1] == 0.0
    assert np.any((old.bad_fraction > 0) & (old.bad_fraction < 1))
    assert np.array_equal(new.bad_fraction, old.bad_fraction)
    assert np.array_equal(new.bad_measure, old.bad_measure)
    assert np.array_equal(new.slope, old.slope, equal_nan=True)
    assert np.array_equal(new.slope_ci, old.slope_ci, equal_nan=True)
    assert_allclose(new.worst_ratios, old.worst_ratios, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("case", ["heat-1d", "heat-2d-subset", "cube-kink-region"])
def test_membership_paraboloid_reaches_the_reported_ratio(case, cylinder_nodes):
    u, kbox, region, _ = sweep_case(case)
    spec = u.spec
    mask = region_mask(spec, region)
    nodes = cylinder_nodes(spec, kbox)
    for node in nodes[:: max(1, len(nodes) // 7)]:
        out = psi_M_membership(u, node, M=1.0, region=region)
        ratios = row_ratios(u, node, out["paraboloid"], mask)
        z, count = full_lp_worst_ratio(u, node, mask)
        assert out["constraint_count"] == count == len(ratios)
        # the absolute-coordinate evaluation rounds differently from the fit
        assert ratios.max() == pytest.approx(out["worst_ratio"], rel=1e-12, abs=1e-13)
        assert out["worst_ratio"] == pytest.approx(z, rel=1e-9, abs=0.0)


def test_verify_sweep_needs_few_lp_calls(monkeypatch):
    # the benchmark's verify sweep: heat 1D at h=1/16, every node in the K-box;
    # each constraint round is one batched exchange over all the sweep's
    # unresolved nodes (three rounds today)
    u = solved("heat_sine", 1 / 16)
    calls, exchange = [], diagnostics._exchange
    monkeypatch.setattr(diagnostics, "_exchange", lambda *args: calls.append(len(args[0])) or exchange(*args))
    rep = good_set_measure(u, [1.0, 4.0, 16.0, 64.0], centred_kbox(u.spec))
    assert rep.node_count == u.spec.node_count() == 960
    assert 0 < len(calls) <= 6
    assert calls[0] == 960


def test_verify_sweep_peak_stays_within_the_active_rows_and_the_budget(monkeypatch):
    # Each node keeps only its active rows (the exchange's a and b take
    # k + 1 doubles a row) and the scan's full rows stay within the scratch
    # budget, so the sweep's peak is bounded by the mask, the nodes times the
    # widest active-row list, and _SCRATCH_BYTES; nothing grows as nodes x
    # rows.  Sweeping by 64-node chunks of full rows (per_chunk_fits below)
    # peaked at 7.8 MiB on this sweep.
    u = solved("heat_sine", 1 / 16)
    spec = u.spec
    nodes = np.argwhere(region_mask(spec, centred_kbox(spec)))
    mask = region_mask(spec, None)
    widths, exchange = [], diagnostics._exchange
    monkeypatch.setattr(diagnostics, "_exchange", lambda *args: widths.append(args[0].shape[1]) or exchange(*args))
    diagnostics._expansion_fits(u, nodes, mask)
    tracemalloc.start()
    try:
        diagnostics._expansion_fits(u, nodes, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = 4
    bound = mask.nbytes + len(nodes) * max(widths) * (k + 1) * 8 + geometry._SCRATCH_BYTES
    assert peak <= bound
    assert peak <= 7.8 * 2**20


@pytest.mark.parametrize("case", ["heat-1d", "noisy-2d"])
def test_an_uncertified_fit_raises_naming_the_node(case, monkeypatch):
    # with no pivot allowed, a node whose first reference is not optimal is
    # not certified, and there is no other route to its fit
    if case == "heat-1d":
        u, kbox, region, Ms = sweep_case(case)
    else:
        (u, kbox, region), Ms = _noisy_2d_case(), [2.0**j for j in range(-12, 9, 2)]
    monkeypatch.setattr(diagnostics, "_FIT_PIVOTS", 0)
    with pytest.raises(DiagnosticsError, match=r"node \(.*did not certify"):
        good_set_measure(u, Ms, kbox, region)


def test_a_non_finite_first_reference_raises_naming_the_node(monkeypatch):
    # no known input gives one, so the flag is forced on every node
    reference = diagnostics._reference

    def non_finite(a, live):
        code, bad = reference(a, live)
        return code, np.ones_like(bad)

    monkeypatch.setattr(diagnostics, "_reference", non_finite)
    u, kbox, region, Ms = sweep_case("heat-1d")
    with pytest.raises(DiagnosticsError, match=r"node \(.*did not certify"):
        good_set_measure(u, Ms, kbox, region)


def tiny_fit():
    """One parameter p fitted to the rows (a_i, b_i) = (3, 3), (1, -3),
    (3, -3): min_p max |b_i - a_i p| is 3, at p = 0, where every row is
    tight, so the optimum has two references."""
    return np.array([[[3.0], [1.0], [3.0]]]), np.array([[3.0, -3.0, -3.0]]), np.ones((1, 3), bool)


def test_exchange_enters_the_most_violated_row():
    a, b, live = tiny_fit()
    # The first reference pivots on row 0 (largest |a|) and completes with
    # row 1; the null vector (-1/3, 1) of their features signs them row 0 -,
    # row 1 +, i.e. codes 2 i + (sign < 0) = 1, 2.
    code, bad = diagnostics._reference(a, live)
    assert code.tolist() == [[1, 2]] and not bad.any()
    # Levelling -(3 - 3p) = z = -3 - p gives p = 0, z = -3: every row errs
    # by 3, so the rows' order is 0, 1, 2, and it breaks the three-way tie:
    # row 0 enters with sign + and the ratio test drops row 1 (p = 1, z = 0).
    # The errors are then (0, -4, -6): row 2, the most violated, enters with
    # sign - (Bland's rule would take row 1, first in the order).  Its column
    # is row 0 -'s, so row 0 - leaves.  The reference {row 2 -, row 0 +}
    # levels 3 + 3p = z = 3 - 3p at p = 0, z = 3, and no row exceeds it.
    ok, y, final = diagnostics._exchange(a, b, live, code)
    assert ok.all()
    assert y[0].tolist() == pytest.approx([0.0, 3.0], abs=1e-15)
    assert final.tolist() == [[5, 0]]


def test_exchange_turns_to_blands_rule_after_a_stall():
    # One parameter, five rows (a_i, b_i); rows 0 and 2 have a = 0, so z >= 2,
    # and |b_i - a_i p| <= 2 on the others pins p = 0: the optimum is z = 2.
    a = np.array([[[0.0], [-1.0], [0.0], [2.0], [2.0]]])
    b = np.array([[1.0, -2.0, 2.0, -2.0, 1.0]])
    live = np.ones((1, 5), bool)
    code, bad = diagnostics._reference(a, live)
    # {row 3 +, row 0 +} levels -2 - 2p = z = 1 at p = -1.5, with all the
    # weight on row 0.  The errors (1, -3.5, 2, 1, 4) order the rows 4, 1,
    # 2, 0, 3.
    assert code.tolist() == [[6, 0]] and not bad.any()
    # Pivot 1: row 4 (error 4) enters and takes row 3's weightless slot:
    # p = 0, z stays 1; the errors are (1, -2, 2, -2, 1).  Pivot 2: rows 1,
    # 2 and 3 tie at 2 and row 1 enters by the order, again into the
    # weightless slot: p = 1, z stays 1.  That is k + 1 = 2 pivots without a
    # rise, so at the errors (1, -1, 2, -4, -1) Bland's rule enters row 2,
    # first in the order, not row 3 (error 4).  Row 2's column is row 0's,
    # which leaves: {row 1 -, row 2 +} levels at p = 0, z = 2, the optimum.
    # Entering row 3 instead ends at the other optimal reference
    # {row 1 -, row 3 -}.
    ok, y, final = diagnostics._exchange(a, b, live, code)
    assert ok.all()
    assert y[0].tolist() == pytest.approx([0.0, 2.0], abs=1e-15)
    assert final.tolist() == [[3, 4]]


def test_exchange_stops_at_the_pivot_cap(monkeypatch):
    a, b, live = tiny_fit()
    code, _ = diagnostics._reference(a, live)
    monkeypatch.setattr(diagnostics, "_FIT_PIVOTS", 1)  # the fit above takes 2
    ok, y, _ = diagnostics._exchange(a, b, live, code)
    assert not ok.any() and np.isnan(y).all()


def test_reference_pads_dependent_and_zero_columns():
    live = np.ones((2, 4), bool)
    a = np.zeros((2, 4, 2))
    a[0, :, 0] = [1.0, 2.0, 3.0, 4.0]
    a[0, :, 1] = 2.0 * a[0, :, 0]  # dependent on parameter 0
    a[1, :, 1] = [1.0, -1.0, 2.0, 0.5]  # parameter 0 moves no row
    code, bad = diagnostics._reference(a, live)
    assert bad.tolist() == [False, False]
    assert code[0, 1] == -2  # the artificial column e_1
    assert code[1, 0] == -1  # the artificial column e_0
    # node 0 fits p_0 + 2 p_1 alone; its artificial column pins p_1 = 0 and
    # the exchange ends at the full LP's optimum, z = 1.4
    b0 = np.array([1.0, -1.0, 2.0, 0.5])
    ok, y, _ = diagnostics._exchange(a[:1], b0[None], live[:1], code[:1])
    assert ok.all() and y[0, 1] == 0.0
    res = linprog(
        [0.0, 0.0, 1.0],
        A_ub=np.vstack([np.column_stack([-a[0], -np.ones(4)]), np.column_stack([a[0], -np.ones(4)])]),
        b_ub=np.concatenate([-b0, b0]),
        bounds=[(None, None)] * 2 + [(0, None)],
        method="highs",
    )
    assert y[0, 2] == pytest.approx(1.4, rel=0.0, abs=1e-12)
    assert abs(y[0, 2] - res.fun) <= 1e-12
    ok, y, _ = diagnostics._exchange(a[1:], np.array([[1.0, 0.0, -1.0, 2.0]]), live[1:], code[1:])
    assert ok.all() and y[0, 0] == 0.0


@pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf, 0.0, -1.0, True, False, "1.0", None])
def test_bad_openings_are_refused(M):
    _, u = cube_kink_mesh(levels=1)
    box = KBox(((0.0,), 0.06), 1.0)
    with pytest.raises(DiagnosticsError, match="finite positive"):
        good_set_measure(u, [M, 1.0], box)
    with pytest.raises(DiagnosticsError, match="finite positive"):
        psi_M_membership(u, (0, 1), M=M)


def test_integer_openings_are_numbers():
    _, u = cube_kink_mesh(levels=1)
    box = KBox(((0.0,), 0.06), 1.0)
    rep = good_set_measure(u, [np.int64(1), 2, np.float64(0.25)], box)
    assert rep.M_values.tolist() == [0.25, 1.0, 2.0]
    assert psi_M_membership(u, (0, 1), M=1)["member"]


# ---------------------------------------------------------------------------
# generated differential test: exchange fits against the full HiGHS LP
# ---------------------------------------------------------------------------

FIT_FAMILIES = ("constant", "affine", "quadratic", "smooth", "noisy", "kinked", "ties")


def fit_family(name, spec, seed):
    """A mesh function of one data family; ``quadratic`` is a centred
    paraboloid of the fits' own form, so every ratio is 0."""
    rng = np.random.default_rng(seed)
    n = spec.n
    c = rng.integers(-4, 5, size=3 * n + 2) / 4.0
    l, a, q = c[:n], c[n : 2 * n], c[2 * n : 3 * n]

    def f(x, t):
        lin = x @ l
        if name == "constant":
            return 0.0 * t + c[-1]
        if name == "affine":
            return c[-1] + lin + c[-2] * t
        if name == "quadratic":
            return lin + c[-2] * t + (x @ a) * t + (x**2) @ q + 0.5 * x[..., 0] * x[..., -1]
        if name == "kinked":
            return np.linalg.norm(x - 0.1 * c[-1], axis=-1) ** 3
        smooth = np.sin(2.0 * x[..., 0] + c[-1]) * np.cos(x[..., -1]) * np.exp(-t)
        if name == "noisy":
            return smooth + 1e-3 * rng.standard_normal(t.shape)
        if name == "ties":
            return rng.integers(-2, 3, size=t.shape).astype(float)
        return smooth

    return MeshFunction.from_callable(spec, f)


@st.composite
def fit_cases(draw):
    n = draw(st.sampled_from([1, 2]))
    h = 1.0 / draw(st.sampled_from([4, 5, 6, 8]))
    levels = draw(st.integers(1, 3))
    bounds = [(-1.0, 1.0)] if n == 1 else [(-0.5, 0.5)] * 2
    spec = MeshSpec(h=h, bounds=bounds, T=levels * h * h, N=2)
    u = fit_family(draw(st.sampled_from(FIT_FAMILIES)), spec, draw(st.integers(0, 2**16)))
    # the fitted nodes: a K-box of half width c h around a node, c levels deep
    c = draw(st.sampled_from([1, 2] if n == 1 else [1]))
    col = [draw(st.integers(k0, k0 + size - 1)) * h for k0, size in zip(spec.k_min, spec.spatial_shape)]
    bottom = draw(st.integers(0, levels - 1)) * spec.tau
    kbox = KBox((tuple(col), bottom), 9.0 * math.sqrt(n) * c * h)
    region = None
    if draw(st.booleans()):
        # an off-centre study region around the fitted nodes, down to t = 0
        off = draw(st.sampled_from([0.5, 1.5])) * h
        half = c * h + off + draw(st.integers(1, 2)) * h
        half = max(half, 1.001 * math.sqrt(levels) * h)
        region = KBox((tuple(x + off for x in col), 0.0), 9.0 * math.sqrt(n) * half)
    return u, kbox, region


def _noisy_2d_case():
    # HiGHS at its default tolerances missed node (0, 1, 3) by 4e-6 as the oracle
    spec = MeshSpec(h=1 / 6, bounds=[(-0.5, 0.5)] * 2, T=3 / 36, N=2)
    return fit_family("noisy", spec, 0), KBox(((1 / 6, 0.0), 2 / 36), 9.0 * math.sqrt(2.0) / 6), None


@settings(max_examples=60, derandomize=True, deadline=None)
@given(fit_cases())
@example(_noisy_2d_case())
def test_generated_fits_match_the_full_lp(case):
    u, kbox, region = case
    spec = u.spec
    Ms = [2.0**j for j in range(-12, 9, 2)]
    try:
        new = good_set_measure(u, Ms, kbox, region)
    except DiagnosticsError as exc:
        # too few region nodes below some fitted node to pin the paraboloid
        assume("cannot pin" not in str(exc))
        raise
    mask = region_mask(spec, region)
    z = np.array(
        [full_lp_worst_ratio(u, spec.index_from_offset(o), mask)[0] for o in np.argwhere(region_mask(spec, kbox))]
    )
    assert_allclose(new.worst_ratios, z, rtol=1e-9, atol=1e-12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "_expansion_fits", lambda *_: (z, None, None))
        old = good_set_measure(u, Ms, kbox, region)
    assert np.array_equal(new.bad_fraction, old.bad_fraction)
    assert np.array_equal(new.bad_measure, old.bad_measure)


# ---------------------------------------------------------------------------
# sweep-wide rounds against the per-chunk constraint generation
# ---------------------------------------------------------------------------


def per_chunk_fits(u, nodes, mask, chunk_nodes=64, chunk_rows=1 << 18):
    """The expansion fits by chunks of nodes, as the package ran them before
    its rounds spanned the sweep: each chunk builds all its nodes' full rows
    (padded to the chunk's longest prefix) once and runs its own rounds, one
    batched exchange per round.  Seeds, added rows, warm starts and the stop
    rule are the package's."""
    spec = u.spec
    n = spec.n
    k = 2 * n + 1 + n * (n + 1) // 2
    flat = np.ravel_multi_index(tuple(nodes.T), spec.shape)
    region = np.flatnonzero(mask)
    offs = np.column_stack(np.unravel_index(region, spec.shape))
    y = (offs[:, 1:] + np.asarray(spec.k_min)) * spec.h
    s = (offs[:, 0] + 1) * spec.tau
    u_r = u.values.ravel()[region]
    ends = np.searchsorted(offs[:, 0], nodes[:, 0], side="right")
    me = np.searchsorted(region, flat)
    seed_rows, add_rows = diagnostics._FIT_SEED_ROWS, diagnostics._FIT_ADD_ROWS
    ratios = np.empty(len(nodes))
    coefs = np.empty((len(nodes), k))
    chunk = max(1, min(chunk_nodes, chunk_rows // len(region)))
    for lo in range(0, len(nodes), chunk):
        sel = np.arange(lo, min(lo + chunk, len(nodes)))
        R = int(ends[sel].max())
        pos = np.arange(R)
        valid = (pos < ends[sel, None]) & (pos != me[sel, None])
        dx = np.where(valid[..., None], y[None, :R] - y[me[sel], None], 0.0)
        ds = np.where(valid, s[None, :R] - s[me[sel], None], 0.0)
        du = np.where(valid, u_r[None, :R] - u_r[me[sel], None], 0.0)
        r = np.sqrt((dx**2).sum(axis=2))
        w = np.where(valid, r**3 + r**2 * np.abs(ds) + ds**2, 1.0)
        phi = np.concatenate([dx, ds[..., None], dx * ds[..., None], diagnostics._quad_features(dx)], axis=2)
        seed = np.where(valid, w, np.inf)
        if R > seed_rows:
            seed = np.argpartition(seed, seed_rows - 1, axis=1)[:, :seed_rows]
        else:
            seed = np.broadcast_to(pos, valid.shape)
        pad = max(0, k + 1 - seed.shape[1])
        active = np.concatenate([seed, np.repeat(me[sel, None], pad, axis=1)], axis=1)
        live = np.concatenate([valid[np.arange(len(sel))[:, None], seed], np.zeros((len(sel), pad), bool)], axis=1)
        active = np.where(live, active, me[sel, None])
        code = np.full((len(sel), k + 1), -1, dtype=np.int64)
        has_ref = np.zeros(len(sel), dtype=bool)
        pending = np.arange(len(sel))
        while pending.size:
            at = (pending[:, None], active[pending])
            a = phi[at] / w[at][..., None]
            b = du[at] / w[at]
            lv = live[pending]
            zero = ~(a != 0).any(axis=1)
            arts = (code[pending, :, None] == -1 - np.arange(k)).any(axis=1)
            cold = ~has_ref[pending] | (arts != zero).any(axis=1)
            ref = code[pending]
            ref[cold], bad = diagnostics._reference(a[cold], lv[cold])
            ok, fits, code[pending] = diagnostics._exchange(a, b, lv, ref)
            ok[cold] &= ~bad
            assert ok.all()
            has_ref[pending] = True
            P, Z = fits[:, :k], fits[:, k]
            ratio = np.abs(du[pending] - np.einsum("prk,pk->pr", phi[pending], P)) / w[pending]
            ratios[sel[pending]] = ratio.max(axis=1)
            coefs[sel[pending]] = P
            viol = diagnostics._exceeds(ratio, Z[:, None])
            viol[np.arange(len(pending))[:, None], active[pending]] = False
            add = min(add_rows, R)
            top = np.sort(np.argpartition(np.where(viol, -ratio, np.inf), add - 1, axis=1)[:, :add], axis=1)
            grow = viol[np.arange(len(pending))[:, None], top]
            more = np.zeros((len(sel), add), dtype=bool)
            more[pending] = grow
            extra = np.repeat(me[sel, None], add, axis=1)
            extra[pending] = np.where(grow, top, me[sel[pending], None])
            active = np.concatenate([active, extra], axis=1)
            live = np.concatenate([live, more], axis=1)
            pending = pending[grow.any(axis=1)]
    return ratios, coefs, ends - 1


def assert_matches_per_chunk_fits(u, kbox, region, Ms):
    new = good_set_measure(u, Ms, kbox, region)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "_expansion_fits", per_chunk_fits)
        old = good_set_measure(u, Ms, kbox, region)
    assert new.node_count == old.node_count
    assert np.array_equal(new.bad_fraction, old.bad_fraction)
    assert np.array_equal(new.bad_measure, old.bad_measure)
    assert np.array_equal(new.slope, old.slope, equal_nan=True)
    assert np.array_equal(new.slope_ci, old.slope_ci, equal_nan=True)
    assert_allclose(new.worst_ratios, old.worst_ratios, rtol=1e-9, atol=0.0)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(fit_cases(), st.sampled_from([None, 1]))
@example(_noisy_2d_case(), None)
@example(_noisy_2d_case(), 1)
def test_generated_sweep_matches_the_per_chunk_fits(case, scratch):
    # scratch = 1 byte: one node per scan chunk
    u, kbox, region = case
    Ms = [2.0**j for j in range(-12, 9, 2)]
    with pytest.MonkeyPatch.context() as mp:
        if scratch is not None:
            mp.setattr(diagnostics, "_SCRATCH_BYTES", scratch)
        try:
            assert_matches_per_chunk_fits(u, kbox, region, Ms)
        except DiagnosticsError as exc:
            assume("cannot pin" not in str(exc))
            raise


def test_verify_sweep_matches_the_per_chunk_fits():
    u = solved("heat_sine", 1 / 16)
    assert_matches_per_chunk_fits(u, centred_kbox(u.spec), None, [1.0, 4.0, 16.0, 64.0])


# ---------------------------------------------------------------------------
# batched replay against the per-certificate oracle
# ---------------------------------------------------------------------------

REPLAY_OPERATORS = {
    "linear-1d": HEAT,
    "pucci_plus-1d": NonlinearityDescriptor.pucci_plus(1.0, 2.0),
    "pucci_minus-1d": NonlinearityDescriptor.pucci_minus(1.0, 3.0),
    "linear-2d": NonlinearityDescriptor.linear([[2.0, 0.5], [0.5, 1.0]]),
    "pucci_plus-2d": NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2),
    "pucci_minus-2d": NonlinearityDescriptor.pucci_minus(1.0, 3.0, 2),
    "isaacs-2d": ISAACS_2D,
}
REPLAY_DELTAS = (2.0, 2.5)  # multiples of h


@functools.lru_cache(maxsize=None)
def replay_pool(name):
    """(v, F, certificates) on a small mesh: -t left of x_0 = 1/2 and 3t right
    of it, plus a quadratic, so the falsifier certifies on both sides at both
    deltas.  The domain ends at x_0 = 0.95, off the lattice, so that column 6
    is 0.2 < 2h from the boundary while its whole 2h-cylinder is in the mesh."""
    F = REPLAY_OPERATORS[name]
    n = F.dimension
    spec = MeshSpec(h=1 / 8, bounds=[(0.0, 0.95)] + [(0.0, 1.0)] * (n - 1), T=0.25, N=2)
    v = MeshFunction.from_callable(
        spec,
        lambda x, t: np.where(x[..., 0] < 0.5, -t, 3.0 * t)
        + 0.25 * x[..., 0] ** 2
        + 0.5 * (x[..., 0] - 0.5) * (x[..., -1] - 0.4),
    )
    cfg = FalsifierConfig(samples=4, max_violations=30)
    certs = [
        c
        for m in REPLAY_DELTAS
        for side in ("super", "sub")
        for c in delta_falsifier(v, F, m * spec.h, side, cfg)
    ]
    return v, F, tuple(certs)


def _tweaked(cert, how, rng, pool):
    """A certificate that replays without refusal: as found, lowered (c - 1),
    tampered (c moved by up to 1), side flipped, moved to another found node
    of its delta, or a random paraboloid with random recorded fields."""
    P = cert.paraboloid
    if how == "lowered":
        P = dataclasses.replace(P, c=P.c - 1.0)
    elif how == "tampered":
        P = dataclasses.replace(P, c=P.c + float(rng.uniform(-1.0, 1.0)))
    elif how == "flipped":
        return dataclasses.replace(cert, side="sub" if cert.side == "super" else "super")
    elif how == "moved":
        nodes = [c.node for c in pool if c.delta == cert.delta]
        return dataclasses.replace(cert, node=nodes[rng.integers(len(nodes))])
    elif how == "random":
        P = random_paraboloid(rng, P.n)
        return dataclasses.replace(
            cert, paraboloid=P, margin=float(rng.standard_normal()), touch_gap=float(rng.uniform(0.0, 1e-8))
        )
    return dataclasses.replace(cert, paraboloid=P)


@st.composite
def replay_cases(draw, n):
    """(v, F, certificates) in dimension n: found ones of both sides and both
    deltas, some lowered, tampered, flipped, moved or random, in a drawn order."""
    names = sorted(name for name, F in REPLAY_OPERATORS.items() if F.dimension == n)
    v, F, pool = replay_pool(draw(st.sampled_from(names)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=16))
    hows = ["as found", "lowered", "tampered", "flipped", "moved", "random"]
    certs = [_tweaked(pool[i], draw(st.sampled_from(hows)), rng, pool) for i in picks]
    # random paraboloids round at every step, so their gaps and margins
    # show any change in the order of the arithmetic
    for _ in range(draw(st.integers(0, 12))):
        at = int(rng.integers(len(certs) + 1))
        certs.insert(at, _tweaked(pool[rng.integers(len(pool))], "random", rng, pool))
    return v, F, certs


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_generated_batch_replay_matches_the_per_certificate_oracle(n, data):
    v, F, certs = data.draw(replay_cases(n), label="case")
    want = [replay_oracle(c, v, F) for c in certs]
    assert replay_violations(certs, v, F) == want
    assert [replay_violation(c, v, F) for c in certs] == want
    assert replay_violations([], v, F) == []


def _refused(kind, cert, v, rng):
    """A certificate that the replay refuses, of the given kind."""
    spec = v.spec
    h = spec.h
    if kind == "dimension":
        return dataclasses.replace(cert, node=cert.node + (4,))
    if kind == "paraboloid dimension":
        return dataclasses.replace(cert, paraboloid=random_paraboloid(rng, spec.n + 1))
    if kind == "too large":
        return dataclasses.replace(cert, delta=float(rng.choice([4.5 * h, 50.0])))
    if kind == "off mesh":  # column 1 at delta = 2h reaches column 0
        return dataclasses.replace(cert, node=(1,) + cert.node[1:], delta=2.0 * h)
    # leaves: column 6 is 0.2 < 2h from x_0 = 0.95
    return dataclasses.replace(cert, node=(6,) + cert.node[1:-1] + (8,), delta=2.0 * h)


REFUSALS = ["dimension", "paraboloid dimension", "too large", "off mesh", "leaves"]


@pytest.mark.parametrize("kind", REFUSALS)
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_generated_batch_replay_refuses_as_the_loop_does(kind, data):
    # the first refused certificate in order raises its own first refusal,
    # whatever delta group it falls in and whatever refused ones follow it
    v, F, certs = data.draw(replay_cases(data.draw(st.sampled_from([1, 2]), label="n")), label="case")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    base = list(certs)
    at = data.draw(st.integers(0, len(certs)), label="at")
    later = data.draw(st.lists(st.sampled_from(REFUSALS), max_size=2), label="later")
    for j, k in enumerate(later):
        where = data.draw(st.integers(at, len(certs)), label=f"later {j}")
        certs.insert(where, _refused(k, base[rng.integers(len(base))], v, rng))
    certs.insert(at, _refused(kind, base[rng.integers(len(base))], v, rng))
    with np.errstate(all="ignore"):
        with pytest.raises(Exception) as want:
            [replay_oracle(c, v, F) for c in certs]
        with pytest.raises(want.type) as got:
            replay_violations(certs, v, F)
        assert str(got.value) == str(want.value)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            replay_oracle(certs[at], v, F)  # the drawn kind is the first refusal


@pytest.mark.parametrize("name", sorted(REPLAY_OPERATORS))
def test_margins_match_the_checked_margin_field(name):
    # the falsifier's margins skip evaluate_F's symmetry check on the
    # matrices it built symmetric: the local model with its NaN rows at the
    # mesh's edges, and a Sobol-like perturbation of it
    v, F, _ = replay_pool(name)
    _, slope, Qhat = _local_model(v)
    assert np.isnan(Qhat).any() and not np.isnan(Qhat).all()
    rng = np.random.default_rng(3)
    dQ = rng.uniform(-1.0, 1.0, Qhat.shape[-2:])
    for m, Q in [(slope, Qhat), (slope + 0.5, Qhat + 2.0 * (dQ + dQ.T)), (0.25, Qhat[-1, ...])]:
        want = _margin_field(F, m, Q, Q.shape[:-2])
        assert np.array_equal(_margins(F, m, Q, Q.shape[:-2]), want, equal_nan=True)
    # one matrix (the battery's) and a finite stack
    Q = 0.5 * (dQ + dQ.T)
    assert _margins(F, 1.5, Q, (3,)).tolist() == _margin_field(F, 1.5, Q, (3,)).tolist()
    for bad in (np.inf, -np.inf):
        Qbad = Qhat.copy()
        Qbad[5, ..., 0, 0] = bad
        for margins in (_margins, _margin_field):
            with pytest.raises(NonlinearityError, match="matrix entries must be finite"):
                margins(F, slope, Qbad, Qbad.shape[:-2])
    with pytest.raises(NonlinearityError, match="matrix entries must be finite"):
        _margins(F, 1.0, np.full(Q.shape, np.nan), ())
