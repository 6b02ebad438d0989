"""Inf/sup convolutions of mesh functions (space-time and space-only).

v^-_{theta,theta}(x,t) = min over mesh nodes (y,s) of
    v(y,s) + |x-y|^2/(2 theta) + |t-s|^2/(2 theta),

v^+ the mirrored sup.  The quadratic cost splits per coordinate, so the
transform is a sequence of one-dimensional lower envelopes of parabolas
(one per axis, time included with step h^2); argmin indices are chained
through the passes so extremizer shifts can be reported.

Each report carries omega(h, theta) = n*h + 2*theta^(1/2) * ||v||_{C^{0,eta}}
* (diam U)^eta and the admissible node set {d_e(p, boundary) >= omega + N h}
on which the regularization theorems apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .geometry import (
    MeshFunction,
    MeshSpec,
    discrete_holder_norm,
    lattice_index,
    second_quotient_field,
)
from .scheme import Stencil

__all__ = [
    "ConvolutionParams",
    "ConvolutionReport",
    "inf_convolution_mesh",
    "sup_convolution_mesh",
    "x_inf_convolution",
    "x_sup_convolution",
    "verify_convolution_properties",
]


@dataclass(frozen=True)
class ConvolutionParams:
    """theta > 0; mode 'inf'/'sup'; variables 'space_time' or 'space_only'."""

    theta: float
    mode: str = "inf"
    variables: str = "space_time"
    eta: float = 0.5

    def __post_init__(self):
        if self.theta <= 0:
            raise GridError(f"theta must be positive, got {self.theta}")
        if self.mode not in ("inf", "sup"):
            raise GridError(f"mode must be 'inf' or 'sup', got {self.mode!r}")
        if self.variables not in ("space_time", "space_only"):
            raise GridError(f"bad variables choice {self.variables!r}")
        if not 0 < self.eta <= 1:
            raise GridError(f"eta must lie in (0, 1], got {self.eta}")


@dataclass
class ConvolutionReport:
    """omega(h,theta), the admissible node mask, and the extremizer shift."""

    theta: float
    eta: float
    omega: float
    holder_norm: float
    admissible: np.ndarray  # boolean, mesh shape: d_e >= omega + N h
    admissible_note: str
    max_shift: float


# ---------------------------------------------------------------------------
# one-dimensional lower envelope of parabolas
# ---------------------------------------------------------------------------


def _envelope_structure(pos, f, theta):
    """Lower envelope of q -> f[j] + (q - pos[j])^2/(2 theta) over j.

    pos must be strictly increasing.  Returns (parabola indices, left
    breakpoints) with breakpoints[0] = -inf; piece k is active on
    [z[k], z[k+1]).
    """
    v = [0]
    z = [-math.inf]
    for j in range(1, len(pos)):
        while True:
            i = v[-1]
            # intersection abscissa of parabolas i and j
            s = (theta * (f[j] - f[i]) + (pos[j] ** 2 - pos[i] ** 2) / 2.0) / (
                pos[j] - pos[i]
            )
            if s <= z[-1]:
                v.pop()
                z.pop()
            else:
                break
        v.append(j)
        z.append(s)
    return np.asarray(v), np.asarray(z)


def _envelope_eval(pos, f, theta, v, z, q):
    """Evaluate an envelope at abscissae q; returns (values, source indices)."""
    piece = np.searchsorted(z, q, side="right") - 1
    src = v[piece]
    return f[src] + (q - pos[src]) ** 2 / (2.0 * theta), src


def _transform_axis(V, axis, pos, theta):
    """Envelope transform along one array axis, evaluated at the grid
    positions themselves; returns (out, arg) with arg the source index."""
    moved = np.moveaxis(V, axis, -1)
    shp = moved.shape
    flat = moved.reshape(-1, shp[-1])
    out = np.empty_like(flat)
    arg = np.empty(flat.shape, dtype=np.int64)
    for r in range(flat.shape[0]):
        v, z = _envelope_structure(pos, flat[r], theta)
        out[r], arg[r] = _envelope_eval(pos, flat[r], theta, v, z, pos)
    return np.moveaxis(out.reshape(shp), -1, axis), np.moveaxis(arg.reshape(shp), -1, axis)


def _reduce_axis_at(A, axis, pos, theta, q):
    """Envelope transform along one axis evaluated at the single abscissa q;
    the axis is consumed."""
    moved = np.moveaxis(A, axis, -1)
    shp = moved.shape
    flat = moved.reshape(-1, shp[-1])
    out = np.empty(flat.shape[0])
    arg = np.empty(flat.shape[0], dtype=np.int64)
    qq = np.array([q], dtype=float)
    for r in range(flat.shape[0]):
        v, z = _envelope_structure(pos, flat[r], theta)
        vals, src = _envelope_eval(pos, flat[r], theta, v, z, qq)
        out[r] = vals[0]
        arg[r] = src[0]
    return out.reshape(shp[:-1]), arg.reshape(shp[:-1])


# ---------------------------------------------------------------------------
# full space-time transforms
# ---------------------------------------------------------------------------


def _node_transform(spec: MeshSpec, values: np.ndarray, theta: float):
    """Separable inf-convolution evaluated at every mesh node.

    Returns (out values, args) where args[axis] holds, per node, the source
    index along that array axis of the attaining node.
    """
    positions = [spec.times()] + [spec.axis_coords(a) for a in range(spec.n)]
    V = values
    args: dict[int, np.ndarray] = {}
    for axis in range(spec.n + 1):
        V, arg = _transform_axis(V, axis, positions[axis], theta)
        for b in args:
            args[b] = np.take_along_axis(args[b], arg, axis=axis)
        args[axis] = arg
    return V, args


def _shift_distances(spec: MeshSpec, args: dict[int, np.ndarray]) -> np.ndarray:
    """Euclidean space-time distance from each node to its extremizer."""
    positions = [spec.times()] + [spec.axis_coords(a) for a in range(spec.n)]
    d2 = np.zeros(spec.shape)
    for axis, arg in args.items():
        own = positions[axis].reshape([-1 if a == axis else 1 for a in range(spec.n + 1)])
        attained = positions[axis][arg]
        d2 += (attained - np.broadcast_to(own, spec.shape)) ** 2
    return np.sqrt(d2)


def _query_transform(spec: MeshSpec, values: np.ndarray, theta: float, point):
    """Single off-mesh query: reduce time, then each spatial axis, at the
    query coordinates.  Returns (value, shift distance)."""
    x, t = point
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != spec.n:
        raise GridError(f"query point has dimension {x.size}, mesh has {spec.n}")
    A, arg_t = _reduce_axis_at(values, 0, spec.times(), theta, float(t))
    gathered = {"t": arg_t}
    for a in range(spec.n):
        A, arg = _reduce_axis_at(A, 0, spec.axis_coords(a), theta, float(x[a]))
        for key in gathered:
            gathered[key] = np.take_along_axis(gathered[key], arg[None, ...], axis=0)[0]
        gathered[a] = arg
    tstar = spec.times()[int(gathered["t"])]
    d2 = (tstar - float(t)) ** 2
    for a in range(spec.n):
        ystar = spec.axis_coords(a)[int(gathered[a])]
        d2 += (ystar - float(x[a])) ** 2
    return float(A), math.sqrt(d2)


def _make_report(v: MeshFunction, theta, eta, max_shift, holder_norm=None) -> ConvolutionReport:
    spec = v.spec
    if holder_norm is None:
        holder_norm = discrete_holder_norm(v, eta)["norm"]
    omega = spec.n * spec.h + 2.0 * math.sqrt(theta) * holder_norm * spec.parabolic_diameter() ** eta
    admissible = spec.euclidean_boundary_distance() >= omega + spec.N * spec.h
    note = (
        f"U^h_theta: nodes with d_e(p, parabolic boundary) >= omega + N*h "
        f"= {omega + spec.N * spec.h:.6g}"
    )
    return ConvolutionReport(
        theta=float(theta),
        eta=float(eta),
        omega=float(omega),
        holder_norm=float(holder_norm),
        admissible=admissible,
        admissible_note=note,
        max_shift=float(max_shift),
    )


def inf_convolution_mesh(
    v: MeshFunction,
    theta: float,
    queries=None,
    eta: float = 0.5,
    holder_norm: float | None = None,
):
    """Inf-convolution v^-_{theta,theta}.

    Parameters
    ----------
    v : MeshFunction
    theta : float > 0
    queries : None for all mesh nodes (returns a MeshFunction), or a sequence
        of (x, t) points anywhere in the closed domain (returns an ndarray).
    eta : Holder exponent used in the omega(h, theta) bookkeeping.
    holder_norm : optional precomputed discrete C^{0,eta} norm of v (the
        all-pairs computation is quadratic in the node count).

    Returns
    -------
    (MeshFunction | ndarray, ConvolutionReport)
    """
    ConvolutionParams(theta=theta, eta=eta)
    spec = v.spec
    if queries is None:
        out, args = _node_transform(spec, v.values, theta)
        max_shift = float(_shift_distances(spec, args).max())
        report = _make_report(v, theta, eta, max_shift, holder_norm)
        return MeshFunction(spec, out), report
    vals = np.empty(len(queries))
    max_shift = 0.0
    for i, point in enumerate(queries):
        vals[i], d = _query_transform(spec, v.values, theta, point)
        max_shift = max(max_shift, d)
    report = _make_report(v, theta, eta, max_shift, holder_norm)
    return vals, report


def sup_convolution_mesh(
    v: MeshFunction,
    theta: float,
    queries=None,
    eta: float = 0.5,
    holder_norm: float | None = None,
):
    """Sup-convolution v^+_{theta,theta} = -((-v)^-_{theta,theta})."""
    neg = MeshFunction(v.spec, -v.values)
    # the eta-norm is sign-invariant, so reuse it for the report
    if holder_norm is None:
        holder_norm = discrete_holder_norm(v, eta)["norm"]
    out, report = inf_convolution_mesh(neg, theta, queries, eta, holder_norm)
    if isinstance(out, MeshFunction):
        return MeshFunction(v.spec, -out.values), report
    return -out, report


# ---------------------------------------------------------------------------
# x-convolutions (space only, at a fixed mesh time)
# ---------------------------------------------------------------------------

def x_inf_convolution(v: MeshFunction, theta: float, x, t: float):
    """Space-only inf-convolution at fixed mesh time t:
    min over spatial nodes y of v(y,t) + |x-y|^2/(2 theta)."""
    ConvolutionParams(theta=theta, variables="space_only")
    spec = v.spec
    m = lattice_index(t, spec.tau, "time")
    if not 1 <= m <= spec.levels:
        raise GridError(f"time level {m} outside 1..{spec.levels}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != spec.n:
        raise GridError(f"query has dimension {x.size}, mesh has {spec.n}")
    A = v.values[m - 1]
    for a in range(spec.n):
        A, _ = _reduce_axis_at(A, 0, spec.axis_coords(a), theta, float(x[a]))
    return float(A)


def x_sup_convolution(v: MeshFunction, theta: float, x, t: float):
    """Space-only sup-convolution: max over y of v(y,t) - |x-y|^2/(2 theta)."""
    neg = MeshFunction(v.spec, -v.values)
    return -x_inf_convolution(neg, theta, x, t)


# ---------------------------------------------------------------------------
# property verification
# ---------------------------------------------------------------------------


def verify_convolution_properties(v: MeshFunction, theta: float, eta: float = 0.5) -> dict:
    """Check the regularization properties of v^-/v^+ on the mesh.

    Checks (reported, never raised):
      ordering         v^- <= v <= v^+ at every node (exact);
      semiconcavity    delta^2_y v^- <= 1/theta and delta^2_y v^+ >= -1/theta
                       for every stencil direction (exact algebra of infima);
      time_lipschitz   adjacent-level slopes of v^+/- bounded by 3T/theta;
      theta_monotone   v^-_{theta/2} >= v^-_{theta} pointwise;
      omega_lower_bound  v^- >= v - ||v||_{C^0,eta} * omega^eta on the
                       admissible set (the omega-correction bound).
    """
    spec = v.spec
    norm = discrete_holder_norm(v, eta)["norm"]
    w_minus, report = inf_convolution_mesh(v, theta, eta=eta, holder_norm=norm)
    w_plus, report_plus = sup_convolution_mesh(v, theta, eta=eta, holder_norm=norm)
    slack = 1e-12 * (1.0 + 1.0 / theta + v.sup_norm())
    checks = {}

    worst = float(np.max(w_minus.values - v.values))
    worst = max(worst, float(np.max(v.values - w_plus.values)))
    checks["ordering"] = {"passed": worst <= 0.0, "worst": worst, "bound": 0.0}

    dirs = Stencil.make(spec.n, spec.N).directions
    worst_cc = -math.inf
    for y in dirs:
        q_minus = second_quotient_field(w_minus.values, spec, y)
        q_plus = second_quotient_field(w_plus.values, spec, y)
        with np.errstate(invalid="ignore"):
            worst_cc = max(worst_cc, float(np.nanmax(q_minus)), float(np.nanmax(-q_plus)))
    checks["semiconcavity"] = {
        "passed": worst_cc <= 1.0 / theta + slack,
        "worst": worst_cc,
        "bound": 1.0 / theta,
    }

    lip = 0.0
    for w in (w_minus, w_plus):
        if spec.levels > 1:
            lip = max(lip, float(np.max(np.abs(np.diff(w.values, axis=0)))) / spec.tau)
    bound_lip = 3.0 * spec.T / theta
    checks["time_lipschitz"] = {
        "passed": lip <= bound_lip + slack,
        "worst": lip,
        "bound": bound_lip,
    }

    w_half, _ = inf_convolution_mesh(v, theta / 2.0, eta=eta, holder_norm=norm)
    worst_mono = float(np.max(w_minus.values - w_half.values))
    checks["theta_monotone"] = {"passed": worst_mono <= 0.0, "worst": worst_mono, "bound": 0.0}

    adm = report.admissible
    if adm.any():
        corr = norm * report.omega**eta
        worst_lb = float(np.max(v.values[adm] - w_minus.values[adm]))
        checks["omega_lower_bound"] = {
            "passed": worst_lb <= corr + slack,
            "worst": worst_lb,
            "bound": corr,
            "admissible_nodes": int(adm.sum()),
        }
    else:
        checks["omega_lower_bound"] = {
            "passed": True,
            "worst": 0.0,
            "bound": 0.0,
            "admissible_nodes": 0,
        }

    return {
        "passed": all(c["passed"] for c in checks.values()),
        "theta": float(theta),
        "eta": float(eta),
        "omega": report.omega,
        "max_shift_minus": report.max_shift,
        "max_shift_plus": report_plus.max_shift,
        "checks": checks,
    }
