"""Paraboloid probes, delta-viscosity falsification, and good-set estimation.

The falsifier is a sound violation-finder, not a completeness certificate.
It samples paraboloid test objects, rebuilds the touching constant exactly,
and records a violation only when the discrete touching test and the margin
test both fail -- so every emitted certificate replays.  Absence of
violations does NOT prove that a mesh function is a delta-viscosity
solution: the test class is infinite and only finitely many probes run.

Touch tolerance: a probe "touches at the center" when the gap between the
node value and the cylinder extremum of v - P is at most ``touch_tol``.  The
default is tight (1e-9 scaled): a slack of order h^2 feeds an O(1) error
into the margin through the 1/h^2 chord quotients and then flags exact
discrete solutions.  The grid-resolution variant (c * h^2) is available
through :meth:`FalsifierConfig.with_grid_touch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import DiagnosticsError
from .geometry import (
    _FP_SLACK,
    KBox,
    MeshFunction,
    MeshSpec,
    _coerce_point,
    lattice_directions,
    second_quotient_field,
    shift,
)
from .nonlinearity import NonlinearityDescriptor, evaluate_F

__all__ = [
    "Paraboloid",
    "evaluate_paraboloid",
    "paraboloid_derivatives",
    "FalsifierConfig",
    "ViolationCertificate",
    "delta_falsifier",
    "replay_violation",
    "certificates_to_rows",
    "psi_M_membership",
    "GoodSetReport",
    "good_set_measure",
]

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class Paraboloid:
    """P(x, t) = c + l.x + m t + (a.x) t + x.Q.x.

    a = 0 puts P in the no-mixed-term class; Q = +-(M/2) I with |m| <= M puts
    it in the opening-M convex/concave family.
    """

    c: float
    l: np.ndarray
    m: float
    a: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        l = np.atleast_1d(np.asarray(self.l, dtype=float))
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim == 0:
            Q = Q.reshape(1, 1)
        n = len(l)
        if a.shape != (n,) or Q.shape != (n, n):
            raise DiagnosticsError(
                f"paraboloid pieces disagree: l {l.shape}, a {a.shape}, Q {Q.shape}"
            )
        if np.max(np.abs(Q - Q.T)) > _SYM_TOL * (1.0 + np.max(np.abs(Q))):
            raise DiagnosticsError("Q must be symmetric")
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))

    @property
    def n(self) -> int:
        return len(self.l)

    @property
    def no_mixed_term(self) -> bool:
        """True iff a = 0, i.e. P_t is constant in x."""
        return bool(np.all(self.a == 0.0))

    def opening_class(self, M: float) -> str | None:
        """'+' / '-' when Q is exactly +-(M/2) I and |m| <= M, else None."""
        if abs(self.m) > M:
            return None
        for sign, tag in ((1.0, "+"), (-1.0, "-")):
            if np.array_equal(self.Q, sign * (M / 2.0) * np.eye(self.n)):
                return tag
        return None


def evaluate_paraboloid(P: Paraboloid, point) -> float:
    """Exact polynomial evaluation at one (x, t) point."""
    p = _coerce_point(point)
    if p.n != P.n:
        raise DiagnosticsError(f"dimension mismatch: paraboloid n={P.n}, point n={p.n}")
    x = np.asarray(p.x)
    return float(P.c + P.l @ x + P.m * p.t + (P.a @ x) * p.t + x @ P.Q @ x)


def paraboloid_derivatives(P: Paraboloid, point) -> tuple[float, np.ndarray]:
    """(P_t at the point, D^2 P).  P_t = m + a.x; D^2 P = 2 Q everywhere."""
    p = _coerce_point(point)
    if p.n != P.n:
        raise DiagnosticsError(f"dimension mismatch: paraboloid n={P.n}, point n={p.n}")
    return float(P.m + P.a @ np.asarray(p.x)), 2.0 * P.Q


def _eval_paraboloid_many(P: Paraboloid, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float).reshape(-1, P.n)
    T = np.asarray(T, dtype=float).ravel()
    quad = np.einsum("ki,ij,kj->k", X, P.Q, X)
    return P.c + X @ P.l + P.m * T + (X @ P.a) * T + quad


def _centered_to_absolute(c, l, m, a, Q, x, t) -> Paraboloid:
    """Rewrite c + l.dy + m ds + (a.dy) ds + dy.Q.dy, dy = y - x, ds = s - t,
    as a paraboloid in absolute coordinates."""
    x = np.asarray(x, dtype=float)
    l = np.atleast_1d(np.asarray(l, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    Q = np.asarray(Q, dtype=float)
    if Q.ndim == 0:
        Q = Q.reshape(1, 1)
    l_abs = l - 2.0 * Q @ x - t * a
    m_abs = m - float(a @ x)
    c_abs = c + float(x @ Q @ x) + t * float(a @ x) - float(l @ x) - m * t
    return Paraboloid(c=c_abs, l=l_abs, m=m_abs, a=a, Q=Q)


# ---------------------------------------------------------------------------
# delta-viscosity falsifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FalsifierConfig:
    """Sampler and tolerance knobs for :func:`delta_falsifier`.

    samples : quasi-random probes on top of the deterministic battery.
    touch_tol / violation_tol : None means 1e-9 * (1 + sup|v|).
    """

    samples: int = 200
    seed: int = 0
    touch_tol: float | None = None
    violation_tol: float | None = None
    max_violations: int = 1000
    include_battery: bool = True

    @classmethod
    def with_grid_touch(cls, spec: MeshSpec, c_touch: float = 10.0, **kw) -> "FalsifierConfig":
        """Grid-resolution touching (c_touch * h^2) instead of the tight default."""
        return cls(touch_tol=c_touch * spec.tau, **kw)


@dataclass(frozen=True)
class ViolationCertificate:
    """A replayable counterexample to one delta-viscosity inequality."""

    node: tuple
    side: str
    paraboloid: Paraboloid
    margin: float
    touch_gap: float
    delta: float
    probe: str

    def row(self) -> str:
        P = self.paraboloid
        fields = [
            f"side={self.side}",
            "node=" + ",".join(str(int(i)) for i in self.node),
            f"delta={self.delta!r}",
            f"margin={self.margin!r}",
            f"touch_gap={self.touch_gap!r}",
            f"probe={self.probe}",
            f"c={float(P.c)!r}",
            "l=" + ",".join(repr(float(v)) for v in P.l),
            f"m={float(P.m)!r}",
            "a=" + ",".join(repr(float(v)) for v in P.a),
            "Q=" + ",".join(repr(float(v)) for v in P.Q.ravel()),
        ]
        return " ".join(fields)


def certificates_to_rows(certs) -> list[str]:
    return [c.row() for c in certs]


def row_to_certificate(row: str) -> ViolationCertificate:
    """Inverse of :meth:`ViolationCertificate.row`.

    Floats are written with ``repr`` so the round trip is exact; the probe
    label is the only field that may itself contain an ``=``.
    """
    kv = {}
    for field in row.split():
        key, sep, val = field.partition("=")
        if not sep:
            raise DiagnosticsError(f"malformed certificate field {field!r}")
        kv[key] = val
    try:
        node = tuple(int(s) for s in kv["node"].split(","))
        l = [float(s) for s in kv["l"].split(",")]
        a = [float(s) for s in kv["a"].split(",")]
        Q = np.array([float(s) for s in kv["Q"].split(",")]).reshape(len(l), len(l))
        P = Paraboloid(c=float(kv["c"]), l=l, m=float(kv["m"]), a=a, Q=Q)
        return ViolationCertificate(
            node=node,
            side=kv["side"],
            paraboloid=P,
            margin=float(kv["margin"]),
            touch_gap=float(kv["touch_gap"]),
            delta=float(kv["delta"]),
            probe=kv["probe"],
        )
    except KeyError as exc:
        raise DiagnosticsError(f"certificate row missing field {exc}") from None
    except ValueError as exc:
        raise DiagnosticsError(f"malformed certificate row: {exc}") from None


def _cylinder_offsets(spec: MeshSpec, delta: float) -> list[tuple[tuple[int, ...], int]]:
    """Integer offsets (dk, dm) with |dk| h < delta and -delta^2 < dm tau <= 0."""
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


def _local_model(v: MeshFunction):
    """Per-node central gradient, backward time slope, and half-Hessian
    estimate (NaN where a needed neighbor leaves the mesh)."""
    spec = v.spec
    vals = v.values
    n = spec.n
    axes, pairs = lattice_directions(n)
    grad = np.stack(
        [
            (shift(vals, (0,) + e) - shift(vals, (0,) + tuple(-c for c in e)))
            / (2.0 * spec.h)
            for e in axes
        ],
        axis=-1,
    )
    slope = (vals - shift(vals, (-1,) + (0,) * n)) / spec.tau
    Q = np.zeros(vals.shape + (n, n))
    for a, e in enumerate(axes):
        Q[..., a, a] = 0.5 * second_quotient_field(vals, spec, e)
    for (a, b), (ep, em) in pairs.items():
        mixed = 0.25 * (
            second_quotient_field(vals, spec, ep) - second_quotient_field(vals, spec, em)
        )
        Q[..., a, b] = mixed
        Q[..., b, a] = mixed
    return grad, slope, Q


def _margin_field(F, m_f, Q_f, shape):
    """m - F(2Q), NaN-safe, broadcast to the mesh shape."""
    if np.ndim(Q_f) > 2:
        nanq = np.isnan(Q_f).any(axis=(-2, -1))
        FQ = evaluate_F(F, 2.0 * np.where(np.isnan(Q_f), 0.0, Q_f))
        FQ = np.where(nanq, np.nan, FQ)
    else:
        FQ = evaluate_F(F, 2.0 * np.asarray(Q_f, dtype=float))
    return np.broadcast_to(np.asarray(m_f, dtype=float) - FQ, shape)


def delta_falsifier(
    v: MeshFunction,
    F: NonlinearityDescriptor,
    delta: float,
    side: str = "super",
    config: FalsifierConfig | None = None,
) -> list[ViolationCertificate]:
    """Search for paraboloids falsifying the delta-viscosity inequality.

    For each node whose backward delta-cylinder sits inside the domain and
    each probe (l, m, Q), the constant is chosen so the probe touches v from
    below (super) or above (sub) over the cylinder's mesh nodes.  When the
    touching point is the center and the margin m - F(2Q) has the forbidden
    sign beyond ``violation_tol``, a certificate is recorded.

    Returns the certificate list; empty means "nothing found", not a proof.
    """
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

    lat = spec.lateral_distance()[None, ...]
    t = spec.times().reshape((-1,) + (1,) * n)
    eligible = (
        spec.classification().interior
        & (lat >= delta * (1.0 - 1e-12))
        & (t >= delta**2 * (1.0 - 1e-12))
    )
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
            base = max(s_m, 2.0 * n * s_q, 1e-9 * scale)
            eye = np.eye(n)
            for M in (0.25 * base, base, 4.0 * base):
                for qs in (1.0, -1.0):
                    for ms in (-1.0, 1.0):
                        yield f"opening_battery(M={M:.3g})", grad, ms * M, qs * (M / 2.0) * eye
        if cfg.samples > 0:
            from scipy.stats import qmc  # deferred: scipy.stats is slow to import

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


def replay_violation(
    cert: ViolationCertificate, v: MeshFunction, F: NonlinearityDescriptor
) -> dict:
    """Re-run a certificate from scratch: side inequality on the cylinder
    nodes, touching at the center, and the margin sign."""
    spec = v.spec
    node = tuple(int(i) for i in cert.node)
    pts, tvals, vvals = [], [], []
    for dk, dm in _cylinder_offsets(spec, cert.delta):
        idx = tuple(k + d for k, d in zip(node[:-1], dk)) + (node[-1] + dm,)
        pts.append(np.asarray(idx[:-1], dtype=float) * spec.h)
        tvals.append(idx[-1] * spec.tau)
        vvals.append(v.value(idx))
    pvals = _eval_paraboloid_many(cert.paraboloid, np.asarray(pts), np.asarray(tvals))
    diff = np.asarray(vvals) - pvals
    sign = 1.0 if cert.side == "super" else -1.0
    vscale = 1.0 + float(np.max(np.abs(vvals)))
    side_ok = float(np.min(sign * diff)) >= -1e-9 * vscale
    x = np.asarray(node[:-1], dtype=float) * spec.h
    t = node[-1] * spec.tau
    center = (tuple(x), t)
    touch_gap = sign * (v.value(node) - evaluate_paraboloid(cert.paraboloid, center))
    pt, d2 = paraboloid_derivatives(cert.paraboloid, center)
    margin = float(pt - evaluate_F(F, d2))
    return {
        "valid": bool(side_ok and sign * margin < 0.0),
        "touching": side_ok,
        "touch_gap": float(touch_gap),
        "margin": margin,
        "margin_matches": bool(abs(margin - cert.margin) <= 1e-9 * (1.0 + abs(cert.margin))),
    }


# ---------------------------------------------------------------------------
# expansion-budget membership and the good set
# ---------------------------------------------------------------------------


def _region_mask(spec: MeshSpec, region) -> np.ndarray:
    if region is None:
        return np.ones(spec.shape, dtype=bool)
    mask = np.empty(spec.shape, dtype=bool)
    for off in np.ndindex(spec.shape):
        mask[off] = region.contains(spec.node_point(spec.index_from_offset(off)))
    return mask


def _quad_features(dx: np.ndarray) -> np.ndarray:
    """Columns multiplying the free entries of symmetric Q in dy.Q.dy:
    dy_i^2 on the diagonal, 2 dy_i dy_j off it."""
    n = dx.shape[1]
    cols = [dx[:, i] * dx[:, i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cols.append(2.0 * dx[:, i] * dx[:, j])
    return np.stack(cols, axis=1)


def _qvec_to_matrix(q: np.ndarray, n: int) -> np.ndarray:
    Q = np.zeros((n, n))
    Q[np.diag_indices(n)] = q[:n]
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            Q[i, j] = Q[j, i] = q[k]
            k += 1
    return Q


def psi_M_membership(u: MeshFunction, node, M: float, region=None) -> dict:
    """Best second-order expansion at a node against the cubic-in-space,
    quadratic-in-time weight.

    Fits a paraboloid P (mixed term allowed) minimizing the worst ratio
    |u(y,s) - u(x,t) - P| / (|x-y|^3 + |x-y|^2 |t-s| + |t-s|^2) over the
    region's nodes with s <= t; membership at opening M means that ratio
    stays within n*M.

    Returns ``member``, ``worst_ratio``, ``excess`` (ratio - n*M),
    ``paraboloid`` (absolute coordinates, vanishing at the node), and
    ``constraint_count``.
    """
    spec = u.spec
    n = spec.n
    node = tuple(int(i) for i in node)
    mask = _region_mask(spec, region)
    if not mask[spec.offset(node)]:
        raise DiagnosticsError(f"node {node} lies outside the study region")
    x = np.asarray(node[:-1], dtype=float) * spec.h
    t = node[-1] * spec.tau

    offs = np.argwhere(mask)
    idx = np.column_stack([offs[:, 1:] + np.asarray(spec.k_min), offs[:, 0] + 1])
    sel = (idx[:, -1] <= node[-1]) & ~np.all(idx == np.asarray(node), axis=1)
    offs, idx = offs[sel], idx[sel]

    nparams = 2 * n + 1 + n * (n + 1) // 2
    if len(idx) < nparams:
        raise DiagnosticsError(
            f"{len(idx)} constraint nodes cannot pin {nparams} paraboloid parameters"
        )

    du = u.values[tuple(offs.T)] - u.value(node)
    dx = idx[:, :-1] * spec.h - x
    ds = idx[:, -1] * spec.tau - t
    r = np.sqrt((dx**2).sum(axis=1))
    w = r**3 + r**2 * np.abs(ds) + ds**2

    phi = np.column_stack([dx, ds, dx * ds[:, None], _quad_features(dx)])
    A = np.vstack([np.column_stack([-phi, -w]), np.column_stack([phi, -w])])
    b = np.concatenate([-du, du])
    res = linprog(
        np.append(np.zeros(nparams), 1.0),
        A_ub=A,
        b_ub=b,
        bounds=[(None, None)] * nparams + [(0, None)],
        method="highs",
    )
    if res.status != 0:
        raise DiagnosticsError(f"membership fit failed: {res.message}")
    coef = res.x
    worst = float(coef[-1])
    P = _centered_to_absolute(
        0.0,
        coef[:n],
        float(coef[n]),
        coef[n + 1 : 2 * n + 1],
        _qvec_to_matrix(coef[2 * n + 1 : -1], n),
        x,
        t,
    )
    budget = n * M
    member = worst <= budget * (1.0 + 1e-9) + 1e-12
    return {
        "member": bool(member),
        "worst_ratio": worst,
        "excess": worst - budget,
        "paraboloid": P,
        "constraint_count": int(len(idx)),
    }


@dataclass(frozen=True)
class GoodSetReport:
    """Bad-set decay under the opening sweep, with the empirical exponent."""

    M_values: np.ndarray
    bad_fraction: np.ndarray
    bad_measure: np.ndarray
    node_count: int
    worst_ratios: np.ndarray
    slope: float
    slope_ci: tuple[float, float]


def good_set_measure(u: MeshFunction, M_values, kbox: KBox, region=None) -> GoodSetReport:
    """Sweep the expansion budget over the nodes of a K-box.

    The worst expansion ratio at a node does not depend on M, so one fit per
    node serves the whole sweep; the per-M bad set is {ratio > n M} and its
    measure uses the h^(n+2) node-counting convention.  The log-log slope of
    measure against M comes with a 95 percent confidence interval and is
    reported, never asserted against any theoretical exponent.
    """
    spec = u.spec
    M_values = np.asarray(sorted(float(m) for m in M_values))
    if len(M_values) == 0:
        raise DiagnosticsError("empty M sweep")
    nodes = [
        spec.index_from_offset(off)
        for off in np.ndindex(spec.shape)
        if kbox.contains(spec.node_point(spec.index_from_offset(off)))
    ]
    if not nodes:
        raise DiagnosticsError("the K-box contains no mesh nodes")
    ratios = np.array(
        [psi_M_membership(u, nd, M_values[0], region)["worst_ratio"] for nd in nodes]
    )
    n = spec.n
    bad = ratios[None, :] > n * M_values[:, None] * (1.0 + 1e-9) + 1e-12
    frac = bad.mean(axis=1)
    meas = bad.sum(axis=1) * spec.h ** (n + 2)
    pos = (meas > 0) & (M_values > 0)
    slope, ci = math.nan, (math.nan, math.nan)
    if pos.sum() >= 2:
        lx, ly = np.log(M_values[pos]), np.log(meas[pos])
        sxx = float(((lx - lx.mean()) ** 2).sum())
        if sxx > 0:
            slope = float(((lx - lx.mean()) * (ly - ly.mean())).sum() / sxx)
            if pos.sum() >= 3:
                resid = ly - ly.mean() - slope * (lx - lx.mean())
                se = math.sqrt(float((resid**2).sum()) / (int(pos.sum()) - 2) / sxx)
                ci = (slope - 1.96 * se, slope + 1.96 * se)
    return GoodSetReport(
        M_values=M_values,
        bad_fraction=frac,
        bad_measure=meas,
        node_count=len(nodes),
        worst_ratios=ratios,
        slope=slope,
        slope_ci=ci,
    )
