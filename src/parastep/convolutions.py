"""Inf/sup convolutions of mesh functions (space-time and space-only).

v^-_{theta,theta}(x,t) = min over mesh nodes (y,s) of
    v(y,s) + |x-y|^2/(2 theta) + |t-s|^2/(2 theta),

v^+ the mirrored sup.  The quadratic cost splits per coordinate, so one
separable transform serves every convolution here: along each axis in turn
(time first, with step h^2), the lower envelope of the parabolas
f_j + (q - y_j)^2/(2 theta) is evaluated at given abscissae q, and the
argmin indices are chained through the passes so each point's distance to
its extremizer can be reported.  Each pass is batched over all lines of its
axis: one stack sweep builds every line's envelope, and one ranking of the
breakpoints among the abscissae evaluates them, in scratch memory linear in
lines x (line length + abscissae).  It has three kinds of caller:

  mesh nodes        ``inf_/sup_convolution_mesh`` with ``queries=None``
                    pass the node positions on every axis;
  off-mesh queries  ``queries=[(x, t), ...]`` pass one abscissa per axis,
                    for points of the closed box x [0, T];
  x-convolutions    ``x_inf_/x_sup_convolution`` run the transform over the
                    spatial axes of their one time level.

theta must be a finite positive number.  Each report carries
omega(h, theta) = n*h + 2*theta^(1/2) * ||v||_{C^{0,eta}} * (diam U)^eta and
the admissible node set {d_e(p, boundary) >= omega + N h} on which the
regularization theorems apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .geometry import (
    _FP_SLACK,
    MeshFunction,
    MeshSpec,
    discrete_holder_norm,
    lattice_index,
    second_quotient_field,
)
from .scheme import Stencil

__all__ = [
    "ConvolutionReport",
    "inf_convolution_mesh",
    "sup_convolution_mesh",
    "x_inf_convolution",
    "x_sup_convolution",
    "verify_convolution_properties",
]


def _check(theta, eta=0.5):
    if not (math.isfinite(theta) and theta > 0):
        raise GridError(f"theta must be a finite positive number, got {theta}")
    if not 0 < eta <= 1:
        raise GridError(f"eta must lie in (0, 1], got {eta}")


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
# the separable transform: lower envelopes of parabolas, axis by axis
# ---------------------------------------------------------------------------


def _lower_envelopes(pos, F, theta):
    """Lower envelopes of q -> F[r, j] + (q - pos[j])^2/(2 theta) over j, one
    per row r of F, all rows at once.

    pos must be strictly increasing.  This is the stack sweep of Felzenszwalb
    and Huttenlocher run on every row together, with the stacks kept as
    links: parabola j is pushed at step j with ``start[r, j]`` its
    intersection abscissa with the parabola ``below[r, j]`` under it, and a
    pop only marks a parabola as ``popped``.  Parabola j first meets j - 1,
    so those abscissae are one array operation; the loop over j visits only
    the rows that pop, with the same intersection arithmetic as a one-line
    stack.  Returns (alive, start): row r's envelope is its alive parabolas
    in increasing order, each active from its start to the next one's, with
    start[r, 0] = -inf.
    """
    R, L = F.shape
    start = np.empty((R, L))
    start[:, 0] = -math.inf
    # intersection abscissa of parabolas i and j, here i = j - 1
    start[:, 1:] = (theta * (F[:, 1:] - F[:, :-1]) + (pos[1:] ** 2 - pos[:-1] ** 2) / 2.0) / (
        pos[1:] - pos[:-1]
    )
    below = np.broadcast_to(np.arange(-1, L - 1), (R, L)).copy()
    popped = np.zeros((R, L), dtype=bool)
    for j in range(2, L):
        # rows whose top parabola j - 1 starts no earlier than j overtakes it
        idx = np.flatnonzero(start[:, j] <= start[:, j - 1])
        i = np.full(idx.size, j - 1)
        while idx.size:
            popped[idx, i] = True
            i = below[idx, i]
            s = (theta * (F[idx, j] - F[idx, i]) + (pos[j] ** 2 - pos[i] ** 2) / 2.0) / (
                pos[j] - pos[i]
            )
            start[idx, j] = s
            below[idx, j] = i
            pop = s <= start[idx, i]
            idx, i = idx[pop], i[pop]
    return ~popped, start


def _envelope_at(V, axis, pos, theta, q):
    """Envelope of the parabolas along one axis of V (positions pos),
    evaluated at the abscissae q.  The axis keeps its place and gets one
    entry per abscissa; returns (values, source index along the axis).

    Every line of the axis goes through one :func:`_lower_envelopes` call.
    The active parabola at q_i is the last alive one that starts at or
    before q_i: each alive start is ranked once among the sorted abscissae,
    and a running count of the ranks, row after row, reads it off, so the
    scratch arrays are rows x (L + Q), never rows x L x Q.
    """
    moved = np.moveaxis(V, axis, -1)
    F = moved.reshape(-1, moved.shape[-1])
    (R, L), Q = F.shape, len(q)
    alive, start = _lower_envelopes(pos, F, theta)
    flat = np.flatnonzero(alive)  # row by row, each row's in order
    order = np.argsort(q, kind="stable")
    # start <= q_i iff fewer than i + 1 abscissae lie below the start
    rank = np.searchsorted(q[order], start.ravel()[flat], side="left")
    rank += (Q + 1) * (flat // L)
    # alive parabolas up to row r's abscissa i (rows < r included), less one:
    # the position in ``flat`` of the one active there
    count = np.cumsum(np.bincount(rank, minlength=R * (Q + 1))).reshape(R, Q + 1)
    src = np.empty((R, Q), dtype=np.int64)
    src[:, order] = flat[count[:, :Q] - 1] - L * np.arange(R)[:, None]
    out = np.take_along_axis(F, src, axis=1) + (q - pos[src]) ** 2 / (2.0 * theta)
    shape = moved.shape[:-1] + (Q,)
    return np.moveaxis(out.reshape(shape), -1, axis), np.moveaxis(src.reshape(shape), -1, axis)


def _transform(values, positions, theta, at):
    """Separable inf-convolution of ``values`` (node positions ``positions``
    per axis), evaluated on the product of the abscissae ``at`` per axis.

    Returns (values, shift): shift is each point's euclidean distance to the
    node that attains its infimum.
    """
    V = values
    args = []
    for axis, (pos, q) in enumerate(zip(positions, at)):
        V, arg = _envelope_at(V, axis, pos, theta, q)
        args = [np.take_along_axis(a, arg, axis=axis) for a in args] + [arg]
    d2 = np.zeros(V.shape)
    for axis, (pos, q, arg) in enumerate(zip(positions, at, args)):
        d2 += (pos[arg] - q.reshape([-1 if a == axis else 1 for a in range(V.ndim)])) ** 2
    return V, np.sqrt(d2)


def _spatial_abscissae(spec: MeshSpec, x) -> list:
    """One single-entry abscissa array per spatial axis of a query point,
    which must be finite and lie in the closed box (up to ``_FP_SLACK`` h)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != spec.n:
        raise GridError(f"query point has dimension {x.size}, mesh has {spec.n}")
    slack = _FP_SLACK * spec.h
    # a NaN fails every comparison, so it is refused too
    if not all(lo - slack <= c <= hi + slack for c, (lo, hi) in zip(x, spec.bounds)):
        box = list(spec.bounds)
        raise GridError(f"query point x = {x.tolist()} lies outside the closed box {box}")
    return [x[a : a + 1] for a in range(spec.n)]


def _query_abscissae(spec: MeshSpec, x, t) -> list:
    """The abscissae of a space-time query point in the closed domain
    (closed box) x [0, T]."""
    t = float(t)
    if not -_FP_SLACK * spec.tau <= t <= spec.T + _FP_SLACK * spec.tau:
        raise GridError(f"query time t = {t} lies outside [0, {spec.T}]")
    return [np.array([t])] + _spatial_abscissae(spec, x)


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
        of (x, t) points anywhere in the closed domain, the closed box times
        [0, T] (returns an ndarray); a point outside it or with a non-finite
        coordinate raises GridError.
    eta : Holder exponent used in the omega(h, theta) bookkeeping.
    holder_norm : optional precomputed discrete C^{0,eta} norm of v (the
        all-pairs computation is quadratic in the node count).

    Returns
    -------
    (MeshFunction | ndarray, ConvolutionReport)
    """
    _check(theta, eta)
    spec = v.spec
    positions = [spec.times()] + [spec.axis_coords(a) for a in range(spec.n)]
    if queries is None:
        out, shift = _transform(v.values, positions, theta, positions)
        report = _make_report(v, theta, eta, float(shift.max()), holder_norm)
        return MeshFunction(spec, out), report
    vals = np.empty(len(queries))
    max_shift = 0.0
    for i, (x, t) in enumerate(queries):
        out, shift = _transform(v.values, positions, theta, _query_abscissae(spec, x, t))
        vals[i] = out.item()
        max_shift = max(max_shift, shift.item())
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
    min over spatial nodes y of v(y,t) + |x-y|^2/(2 theta), for x in the
    closed box."""
    _check(theta)
    spec = v.spec
    m = lattice_index(t, spec.tau, "time")
    if not 1 <= m <= spec.levels:
        raise GridError(f"time level {m} outside 1..{spec.levels}")
    positions = [spec.axis_coords(a) for a in range(spec.n)]
    out, _ = _transform(v.values[m - 1], positions, theta, _spatial_abscissae(spec, x))
    return out.item()


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

    The semiconcavity check holds two ``second_quotient_field`` arrays of the
    mesh's size (v^- and v^+) and their shift temporaries for one stencil
    direction at a time: its scratch peaks at five mesh-sized arrays
    (``tracemalloc``, 2D h = 1/32), whatever the number of directions.
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
