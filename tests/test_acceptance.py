"""Acceptance gate: one test per shipped claim, numbered and self-contained.

Each criterion re-derives its expected values through an independent route
(closed forms, brute-force transforms, per-node linear programs) rather than
trusting the implementation under test, and prints a ``[criterion N] PASS``
line with the measured numbers; ``pytest -v`` therefore yields a pass/fail
line per criterion.

    1  heat_sine convergence: errors strictly decreasing, rate >= 0.9, <= 30 s
    2  pucci convergence (lam, Lam) = (1, 2): rates >= 0.9, <= 60 s
    3  scheme monotonicity (1e4 probes) + discrete comparison on 50 pairs
    4  consistency: exact on class-P, finite K on a sin/exp battery
    5  inf/sup convolutions vs. brute force + regularization properties
    6  monotone envelope vs. per-node LP oracle, idempotent, monotone
    7  falsifier soundness on computed solutions; v = -t certified unsound
    8  good-set fraction nonincreasing in M and reaching zero
    9  dip-family ABP ratio finite with a single observed constant
    10 byte-identical convergence CSV under a fixed seed
"""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from parastep.diagnostics import FalsifierConfig, delta_falsifier, replay_violation
from parastep.envelopes import abp_diagnostic, lower_monotone_envelope
from parastep.convolutions import inf_convolution_mesh, sup_convolution_mesh
from parastep.geometry import KBox, MeshFunction, MeshSpec, second_quotient_field
from parastep.harness import exact_library, run_convergence_study
from parastep.nonlinearity import NonlinearityDescriptor
from parastep.scheme import (
    Stencil,
    TestFunction,
    build_monotone_scheme,
    check_monotonicity,
    consistency_error,
    consistency_fit,
)
from parastep.solver import solve
from parastep.diagnostics import good_set_measure

H_SWEEP = [1 / 8, 1 / 16, 1 / 32, 1 / 64]


@pytest.fixture(scope="module")
def heat_study():
    return run_convergence_study("heat_sine", H_SWEEP, T=0.25, seed=0)


def _report(n, message):
    print(f"[criterion {n}] PASS: {message}")


# ---------------------------------------------------------------------------
# 1-2: convergence rates
# ---------------------------------------------------------------------------


def test_criterion_01_heat_sine_convergence(heat_study):
    errs = heat_study.sup_errors
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:])), errs
    assert heat_study.fitted_rate >= 0.9, heat_study.fitted_rate
    assert heat_study.elapsed_seconds <= 30.0
    _report(
        1,
        f"errors {['%.3e' % e for e in errs]} strictly decreasing, "
        f"fitted rate {heat_study.fitted_rate:.3f} >= 0.9, "
        f"elapsed {heat_study.elapsed_seconds:.2f}s <= 30s",
    )


def test_criterion_02_pucci_convergence():
    elapsed = 0.0
    rates = {}
    for name in ("pucci_plus_concave", "pucci_minus_concave"):
        study = run_convergence_study(name, H_SWEEP, T=0.25, seed=0)
        errs = study.sup_errors
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:])), (name, errs)
        assert study.fitted_rate >= 0.9, (name, study.fitted_rate)
        elapsed += study.elapsed_seconds
        rates[name] = study.fitted_rate
    assert elapsed <= 60.0
    _report(
        2,
        f"fitted rates {[f'{k}={v:.3f}' for k, v in rates.items()]} >= 0.9, "
        f"elapsed {elapsed:.2f}s <= 60s",
    )


# ---------------------------------------------------------------------------
# 3: monotonicity and the discrete comparison principle
# ---------------------------------------------------------------------------


def _builtin_schemes():
    """Every scheme constructible from the built-in operator library."""
    descriptors = [sol.descriptor for _, sol in sorted(exact_library().items())]
    descriptors += [
        NonlinearityDescriptor.pucci_plus(1.0, 2.0, dimension=2),
        NonlinearityDescriptor.pucci_minus(1.0, 2.0, dimension=2),
    ]
    return [build_monotone_scheme(d) for d in descriptors]


def test_criterion_03_monotonicity_and_comparison():
    schemes = _builtin_schemes()
    for scheme in schemes:
        rep = check_monotonicity(scheme, trials=10_000, seed=0, tol=1e-6)
        assert rep["passed"], (scheme.nonlinearity.kind, rep)
        assert rep["min_slope"] >= scheme.lambda0 - 1e-6
        assert rep["max_slope"] <= scheme.Lambda0 + 1e-6

    # 50 random ordered boundary pairs, round-robin over the schemes; the
    # monotone implicit step must preserve the order up to solver tolerance.
    specs = {
        1: MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2),
        2: MeshSpec(h=0.25, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.5, N=2),
    }
    rng = np.random.default_rng(20260814)
    worst = -math.inf
    for pair in range(50):
        scheme = schemes[pair % len(schemes)]
        spec = specs[scheme.stencil.n]
        g1 = MeshFunction(spec, rng.standard_normal(spec.shape))
        g2 = MeshFunction(spec, g1.values + np.abs(rng.standard_normal(spec.shape)))
        u1, _ = solve(scheme, spec, g1)
        u2, _ = solve(scheme, spec, g2)
        worst = max(worst, float(np.max(u1.values - u2.values)))
        assert worst <= 1e-8, (pair, worst)
    _report(
        3,
        f"{len(schemes)} schemes x 1e4 probes inside [lambda0-1e-6, Lambda0+1e-6]; "
        f"50 ordered pairs, worst order defect {worst:.2e} <= 1e-8",
    )


# ---------------------------------------------------------------------------
# 4: consistency
# ---------------------------------------------------------------------------


def test_criterion_04_consistency():
    rng = np.random.default_rng(4)
    spec1 = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)
    spec2 = MeshSpec(h=0.125, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)
    heat1 = build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]]))
    heat2 = build_monotone_scheme(NonlinearityDescriptor.linear(np.eye(2)))
    worst = 0.0

    # class-P polynomials: backward quotient exact in t, symmetric quotient
    # exact on quadratics, so the residual is pure rounding
    for _ in range(5):
        phi = TestFunction.class_P(
            l=rng.standard_normal(1),
            m=rng.standard_normal(),
            a=rng.standard_normal(1),
            Q=rng.standard_normal((1, 1)),
            c=rng.standard_normal(),
        )
        worst = max(worst, consistency_error(heat1, phi, spec1))
    for _ in range(3):
        Q = rng.standard_normal((2, 2))
        phi = TestFunction.class_P(l=[0.0, 0.0], m=0.3, a=[0.0, 0.0], Q=Q + Q.T)
        worst = max(worst, consistency_error(heat2, phi, spec2))
    for desc in (
        NonlinearityDescriptor.pucci_plus(1.0, 2.0),
        NonlinearityDescriptor.pucci_minus(1.0, 2.0),
    ):
        scheme = build_monotone_scheme(desc)
        for q in (-1.3, 0.0, 0.8):
            phi = TestFunction.class_P(l=[0.4], m=-0.2, a=[1.0], Q=[[q]])
            worst = max(worst, consistency_error(scheme, phi, spec1))
    pucci2 = build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0, dimension=2))
    for Q in (np.diag([1.0, -0.5]), np.array([[0.0, 0.7], [0.7, 0.0]])):
        phi = TestFunction.class_P(l=[0.0, 0.0], m=0.5, a=[0.0, 0.0], Q=Q)
        worst = max(worst, consistency_error(pucci2, phi, spec2))
    assert worst <= 1e-12, worst

    # sin/exp battery under dyadic refinement: finite K, decreasing errors
    pi = math.pi
    sine = TestFunction(
        fn=lambda x, t: np.exp(-pi**2 * t) * np.sin(pi * x[..., 0]),
        ut=lambda x, t: -pi**2 * np.exp(-pi**2 * t) * np.sin(pi * x[..., 0]),
        hessian=lambda x, t: (-pi**2 * np.exp(-pi**2 * t) * np.sin(pi * x[..., 0]))[
            ..., None, None
        ],
        d3_bound=pi**3,
        utt_bound=pi**4,
    )
    grow = math.e ** 1.25  # sup of e^(x+t) on [0,1] x [0, 0.25]
    expo = TestFunction(
        fn=lambda x, t: np.exp(x[..., 0] + t),
        ut=lambda x, t: np.exp(x[..., 0] + t),
        hessian=lambda x, t: np.exp(x[..., 0] + t)[..., None, None],
        d3_bound=grow,
        utt_bound=grow,
    )
    Ks = []
    for scheme, phi, label in (
        (heat1, sine, "heat/sine"),
        (build_monotone_scheme(NonlinearityDescriptor.pucci_plus(1.0, 2.0)), expo, "pucci/exp"),
    ):
        fit = consistency_fit(scheme, phi, bounds=[(0.0, 1.0)], T=0.25, h_list=H_SWEEP[:3])
        errs = [fit["errors"][h] for h in H_SWEEP[:3]]
        assert errs[0] > errs[1] > errs[2], (label, errs)
        K = fit["K_first_order"]
        assert math.isfinite(K) and K > 0, (label, K)
        Ks.append((label, K))
    _report(
        4,
        f"class-P residual {worst:.2e} <= 1e-12; battery "
        + ", ".join(f"{lbl}: K={K:.3f}, errors decreasing" for lbl, K in Ks),
    )


# ---------------------------------------------------------------------------
# 5: convolution suite against brute force
# ---------------------------------------------------------------------------


def _brute_convolution(v, theta, mode):
    """min/max over every node of v(y,s) +- (|x-y|^2 + (t-s)^2)/(2 theta)."""
    spec = v.spec
    pts, vals = [], []
    for idx in spec.node_indices():
        p = spec.node_point(idx)
        pts.append(p.x + (p.t,))
        vals.append(v.value(idx))
    pts, vals = np.asarray(pts), np.asarray(vals)
    out = np.empty(len(pts))
    for r, q in enumerate(pts):
        cost = ((pts - q) ** 2).sum(axis=1) / (2.0 * theta)
        out[r] = np.min(vals + cost) if mode == "inf" else np.max(vals - cost)
    return out.reshape(spec.shape)


def test_criterion_05_convolution_suite():
    rng = np.random.default_rng(5)
    spec1 = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.0625, N=2)
    spec2 = MeshSpec(h=0.25, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.125, N=2)
    cases = [spec1] * 16 + [spec2] * 4
    worst_gap = 0.0
    for trial, spec in enumerate(cases):
        v = MeshFunction(spec, rng.standard_normal(spec.shape))
        theta = float(rng.choice([0.05, 0.1, 0.2]))
        w_minus, _ = inf_convolution_mesh(v, theta)
        w_plus, _ = sup_convolution_mesh(v, theta)

        gap = max(
            float(np.max(np.abs(w_minus.values - _brute_convolution(v, theta, "inf")))),
            float(np.max(np.abs(w_plus.values - _brute_convolution(v, theta, "sup")))),
        )
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-12, (trial, gap)

        # ordering is exact: the cost vanishes at the node itself
        assert np.all(w_minus.values <= v.values)
        assert np.all(v.values <= w_plus.values)

        # semiconcavity/-convexity at every in-mesh triple
        slack = 1e-12 * (1.0 + 1.0 / theta + v.sup_norm())
        for y in Stencil.make(spec.n, spec.N).directions:
            q_minus = second_quotient_field(w_minus.values, spec, y)
            q_plus = second_quotient_field(w_plus.values, spec, y)
            with np.errstate(invalid="ignore"):
                assert np.nanmax(q_minus) <= 1.0 / theta + slack
                assert np.nanmin(q_plus) >= -1.0 / theta - slack

        # theta-monotonicity of the inf-convolution, exact
        w_half, _ = inf_convolution_mesh(v, theta / 2.0)
        assert np.all(w_half.values >= w_minus.values)
    _report(
        5,
        f"20 random mesh functions: fast vs brute sup gap {worst_gap:.2e} <= 1e-12; "
        "semiconcavity, ordering and theta-monotonicity all hold",
    )


# ---------------------------------------------------------------------------
# 6: envelope against the affine-minorant LP oracle
# ---------------------------------------------------------------------------


def _lp_envelope(u):
    """Per node: maximize a.x + b over affine minorants of the running min."""
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


def test_criterion_06_envelope_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    instances = 0
    for trial in range(30):
        if trial % 5 == 4:
            spec = MeshSpec(h=0.25, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)
        else:
            nx = int(rng.integers(6, 14))
            levels = int(rng.integers(2, 6))
            h = 1.0 / nx
            spec = MeshSpec(h=h, bounds=[(0.0, 1.0)], T=levels * h * h, N=2)
        assert spec.node_count() <= 500
        u = MeshFunction(spec, rng.standard_normal(spec.shape))
        gamma = lower_monotone_envelope(u)
        worst = max(worst, float(np.max(np.abs(gamma.values - _lp_envelope(u)))))
        assert worst <= 1e-9, (trial, worst)

        # idempotence and monotonicity, exact
        again = lower_monotone_envelope(gamma)
        assert np.array_equal(again.values, gamma.values)
        w = MeshFunction(spec, u.values + np.abs(rng.standard_normal(spec.shape)))
        assert np.all(lower_monotone_envelope(w).values >= gamma.values)
        instances += 1
    assert instances >= 30
    _report(
        6,
        f"{instances} random grids <= 500 nodes: envelope vs LP oracle gap "
        f"{worst:.2e} <= 1e-9; idempotence and monotonicity exact",
    )


# ---------------------------------------------------------------------------
# 7: falsifier soundness
# ---------------------------------------------------------------------------


def _solution_stiffness(u):
    """K = max discrete time slope / axis second quotient magnitude."""
    spec = u.spec
    K = float(np.max(np.abs(np.diff(u.values, axis=0)))) / spec.tau
    for axis in range(1, spec.n + 1):
        K = max(K, float(np.max(np.abs(np.diff(u.values, n=2, axis=axis)))) / spec.h**2)
    return K


def test_criterion_07_falsifier_soundness():
    h = 1 / 16
    checked = []
    for name in ("heat_sine", "pucci_plus_concave", "pucci_minus_concave"):
        sol = exact_library()[name]
        spec = MeshSpec(h=h, bounds=sol.bounds, T=0.25, N=2)
        scheme = build_monotone_scheme(sol.descriptor)
        u, _ = solve(scheme, spec, sol.fn)
        delta = spec.N * spec.h
        tol_v = 10.0 * _solution_stiffness(u) * h
        cfg = FalsifierConfig(samples=200, seed=0, violation_tol=tol_v)
        for side in ("super", "sub"):
            certs = delta_falsifier(u, sol.descriptor, delta, side=side, config=cfg)
            assert certs == [], (name, side, len(certs))
        checked.append(f"{name} (tol {tol_v:.2f})")

    # the drift v = -t is not a supersolution anywhere; the falsifier must
    # flag it and every certificate must replay from scratch
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)
    drift = MeshFunction.from_callable(spec, lambda x, t: -t)
    heat = NonlinearityDescriptor.linear([[1.0]])
    certs = delta_falsifier(
        drift, heat, spec.N * spec.h, side="super", config=FalsifierConfig(samples=16, seed=0)
    )
    assert certs
    for cert in certs:
        rep = replay_violation(cert, drift, heat)
        assert rep["valid"] and rep["touching"] and rep["margin_matches"], cert.row()
    _report(
        7,
        f"computed {', '.join(checked)}: zero violations at 10*K*h with delta = Nh; "
        f"drift flagged with {len(certs)} certificates, all replayed",
    )


# ---------------------------------------------------------------------------
# 8: good-set fraction sweep
# ---------------------------------------------------------------------------


def test_criterion_08_good_set_sweep():
    sol = exact_library()["heat_sine"]
    spec = MeshSpec(h=1 / 32, bounds=sol.bounds, T=0.25, N=2)
    u, _ = solve(build_monotone_scheme(sol.descriptor), spec, sol.fn)
    # centered calibrated box: 9 columns around x = 1/2, top 16 levels
    kbox = KBox(((0.5,), 0.234375), r=1.125)
    M_values = [2.0**j for j in range(9)]  # 1, 2, 4, ..., 256
    rep = good_set_measure(u, M_values, kbox)
    assert rep.node_count > 0
    fracs = [float(f) for f in rep.bad_fraction]
    assert all(f2 <= f1 for f1, f2 in zip(fracs, fracs[1:])), fracs
    assert fracs[-1] == 0.0, fracs
    first_zero = M_values[fracs.index(0.0)]
    _report(
        8,
        f"{rep.node_count} nodes in the centered box: bad fractions {fracs} "
        f"nonincreasing over M in 1..256, zero from M = {first_zero:g}",
    )


# ---------------------------------------------------------------------------
# 9: ABP diagnostic over a dip family
# ---------------------------------------------------------------------------


def test_criterion_09_abp_dip_family():
    spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
    # dips vanish on the default cylinder's parabolic boundary (lateral
    # shell at |x - 1/2| >= 7h and the bottom level t = tau) and sink inside
    R = 7.0 * spec.h
    ratios = []
    for depth in (0.5, 1.0, 2.0, 4.0, 8.0):
        for power in (1, 2):
            def dip(x, t, a=depth, p=power):
                bump = np.maximum(0.0, R**2 - (x[..., 0] - 0.5) ** 2) ** p
                return -a * bump * np.maximum(0.0, t - spec.tau)

            u = MeshFunction.from_callable(spec, dip)
            rep = abp_diagnostic(u)
            assert rep["lhs"] > 0 and rep["contact_count"] > 0, (depth, power)
            assert math.isfinite(rep["ratio"]), (depth, power)
            ratios.append(rep["ratio"])
    bound = max(ratios)
    assert all(r <= bound for r in ratios) and math.isfinite(bound)
    _report(
        9,
        f"10 dips: ratios in [{min(ratios):.3f}, {bound:.3f}], all finite; "
        f"observed constant {bound:.3f}",
    )


# ---------------------------------------------------------------------------
# 10: determinism
# ---------------------------------------------------------------------------


def test_criterion_10_deterministic_csv(heat_study):
    again = run_convergence_study("heat_sine", H_SWEEP, T=0.25, seed=0)
    first = heat_study.to_csv().encode()
    second = again.to_csv().encode()
    assert first == second
    _report(10, f"two identical-seed runs, byte-identical CSV ({len(first)} bytes)")
