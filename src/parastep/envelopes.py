"""Monotone envelopes, contact sets, and a backward-cylinder ABP-type diagnostic.

The lower monotone envelope of a mesh function is the largest minorant that is
nonincreasing in t and convex in x.  On the grid it reduces to a running
minimum over time followed by a per-slice lower convex hull: an affine function
``zeta . x + c`` lies below u on all of ``(a, t]`` iff it lies below
``m_t(y) = min_{s <= t} u(y, s)``, so the envelope of u at level t is the
convex envelope of m_t.

The ABP-type diagnostic bounds an interior dip ``sup u^-`` against the measure
of the contact set between u and the monotone envelope of ``-u^-`` taken on the
doubled backward cylinder (with ``-u^-`` extended by zero).  The universal
constant in the continuum inequality is unknown, so the observable is the
ratio of the two sides.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EnvelopeError, GridError
from .geometry import (
    _FP_SLACK,
    Cylinder,
    MeshFunction,
    MeshSpec,
    ParabolicPoint,
    lattice_directions,
    lattice_index,
    region_mask,
    second_quotient_field,
)

__all__ = [
    "lower_monotone_envelope",
    "upper_monotone_envelope",
    "contact_set",
    "abp_diagnostic",
]

_SNAP = 1e-12


def _chain_envelope(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Lower convex hull of the graph {(x_j, f_j)}, sampled back at every x_j.

    Collinear hull vertices are kept (the pop test is strict), so convex data
    passes through unchanged and a second application is the identity.
    """
    keep = [0]
    for j in range(1, len(x)):
        while len(keep) >= 2:
            i0, i1 = keep[-2], keep[-1]
            # positive cross: vertex i1 sits strictly above the chord i0 -> j
            cross = (x[j] - x[i0]) * (f[i1] - f[i0]) - (x[i1] - x[i0]) * (f[j] - f[i0])
            if cross > 0.0:
                keep.pop()
            else:
                break
        keep.append(j)
    return np.interp(x, x[keep], f[keep])


def _qhull_envelope(axes: list[np.ndarray], f: np.ndarray) -> np.ndarray:
    """Convex envelope over a product grid via the lower hull of the graph.

    Every lower facet's plane is a global affine minorant of the data, and at
    points projecting into that facet it attains the envelope, so the envelope
    equals the max over lower-facet planes.
    """
    from scipy.spatial import ConvexHull, QhullError

    grids = np.meshgrid(*axes, indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    vals = f.ravel()
    d = X.shape[1]
    try:
        hull = ConvexHull(np.column_stack([X, vals]))
    except QhullError:
        # qhull refuses flat input; that happens exactly when the graph is
        # affine, in which case the data is its own envelope
        A = np.column_stack([X, np.ones(len(vals))])
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        if np.max(np.abs(A @ coef - vals)) <= 1e-9 * (1.0 + np.max(np.abs(vals))):
            return f.copy()
        raise EnvelopeError("convex hull failed on a non-affine slice")
    eq = hull.equations  # outward normals: n . p + b = 0
    lower = eq[eq[:, d] < -1e-12]
    if len(lower) == 0:
        return f.copy()
    a = -lower[:, :d] / lower[:, d : d + 1]
    b = -lower[:, d + 1] / lower[:, d]
    env = (X @ a.T + b[None, :]).max(axis=1)
    return env.reshape(f.shape)


def lower_monotone_envelope(u: MeshFunction) -> MeshFunction:
    """Largest minorant of u that is convex in x and nonincreasing in t.

    Parameters
    ----------
    u : MeshFunction
        Complete mesh function on a box domain.

    Returns
    -------
    MeshFunction
        The envelope Gamma with Gamma <= u everywhere; per-slice values within
        snapping distance of u are set exactly equal, which keeps contact
        detection and idempotence free of hull round-off.
    """
    spec = u.spec
    m = np.minimum.accumulate(u.values, axis=0)
    snap = _SNAP * (1.0 + float(np.max(np.abs(u.values))))
    axes = [spec.axis_coords(i) for i in range(spec.n)]
    live = [i for i in range(spec.n) if len(axes[i]) > 1]
    out = np.empty_like(m)
    for lev in range(spec.levels):
        sl = m[lev]
        if not live:
            env = sl.copy()
        else:
            red = sl.reshape([len(axes[i]) for i in live])
            if len(live) == 1:
                env = _chain_envelope(axes[live[0]], red.ravel())
            else:
                env = _qhull_envelope([axes[i] for i in live], red)
            env = env.reshape(sl.shape)
        env = np.minimum(env, sl)
        out[lev] = np.where(env >= sl - snap, sl, env)
    # the envelope of a running min is nonincreasing; enforce it against
    # hull round-off so the invariant is exact on the grid
    np.minimum.accumulate(out, axis=0, out=out)
    return MeshFunction(spec, out)


def upper_monotone_envelope(u: MeshFunction) -> MeshFunction:
    """Smallest majorant concave in x and nondecreasing in t; equals -Gamma(-u)."""
    neg = lower_monotone_envelope(MeshFunction(u.spec, -u.values))
    return MeshFunction(u.spec, -neg.values)


def contact_set(u: MeshFunction, gamma: MeshFunction, tol: float | None = None) -> dict:
    """Nodes where u touches its envelope, with the h^(n+2) counting measure.

    Parameters
    ----------
    u, gamma : MeshFunction
        The function and an envelope produced by the envelope ops.
    tol : float, optional
        Contact threshold |u - gamma| <= tol; defaults to 1e-9 (1 + sup|u|).

    Returns
    -------
    dict with ``mask`` (bool array over the grid), ``count``, ``measure``
    (count x h^(n+2)) and the ``tol`` used.
    """
    if u.spec != gamma.spec:
        raise GridError("u and gamma live on different meshes")
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.max(np.abs(u.values))))
    mask = np.abs(u.values - gamma.values) <= tol
    count = int(mask.sum())
    measure = count * u.spec.h ** (u.spec.n + 2)
    return {"mask": mask, "count": count, "measure": measure, "tol": tol}


def abp_diagnostic(
    u: MeshFunction,
    K: float | None = None,
    center: ParabolicPoint | tuple | None = None,
    rho: float | None = None,
    tol: float | None = None,
) -> dict:
    """Dip-versus-contact-measure diagnostic on a backward cylinder.

    Takes the backward cylinder of radius rho at ``center`` (defaults: top
    time over the snapped spatial midpoint, largest radius that fits), checks
    u >= 0 on its discrete parabolic boundary, extends ``-u^-`` by zero to the
    doubled cylinder on a local grid, and compares

        lhs  = sup of u^- over the cylinder
        rhs_core = rho^(n/(n+1)) |{u = Gamma}|^(1/(n+1)) K

    where Gamma is the lower monotone envelope of the extension.  The
    continuum bound is lhs <= C rhs_core with universal C, so the returned
    ``ratio`` is the observable.  K defaults to the larger of the discrete
    time slope and the largest positive axis second quotient on the cylinder.
    """
    spec = u.spec
    h, tau, n = spec.h, spec.tau, spec.n

    if center is None:
        kc = tuple(
            round(((lo + hi) / 2.0) / h) for lo, hi in spec.bounds
        )
        mc = spec.levels
    else:
        center = ParabolicPoint(center[0], center[1]) if isinstance(center, tuple) else center
        kc = tuple(
            lattice_index(c, h, "cylinder center coordinate", EnvelopeError) for c in center.x
        )
        mc = lattice_index(center.t, tau, "cylinder center time", EnvelopeError)
    if not 1 <= mc <= spec.levels:
        raise EnvelopeError(f"cylinder top time {mc * tau} outside the mesh")
    cx = tuple(k * h for k in kc)
    lat = min(min(cx[i] - lo, hi - cx[i]) for i, (lo, hi) in enumerate(spec.bounds))

    if rho is None:
        j = min(int(lat / h + _FP_SLACK), int(math.isqrt(mc)))
        if j < 1:
            raise EnvelopeError("no backward cylinder of radius h fits this mesh")
        rho = j * h
    else:
        j = lattice_index(rho, h, "cylinder radius", EnvelopeError)
        if j < 1:
            raise EnvelopeError(f"cylinder radius must be a positive multiple of h, got {rho}")
        if j * h > lat + _FP_SLACK * h or j * j > mc:
            raise EnvelopeError("backward cylinder does not fit inside the mesh")
        rho = j * h

    # integer masks over the parent grid: exact ball and level membership
    kgrids = np.meshgrid(
        *[np.arange(km, kx + 1) for km, kx in zip(spec.k_min, spec.k_max)],
        indexing="ij",
    )
    dk2 = sum((g - k0) ** 2 for g, k0 in zip(kgrids, kc))
    in_ball = dk2 < j * j
    levels_in = np.arange(1, spec.levels + 1)
    level_in = (levels_in > mc - j * j) & (levels_in <= mc)
    cyl_mask = level_in[(slice(None),) + (None,) * n] & in_ball[None, ...]
    if not cyl_mask.any():
        raise EnvelopeError("backward cylinder contains no mesh nodes")

    if tol is None:
        tol = 1e-9 * (1.0 + float(np.max(np.abs(u.values))))

    # discrete parabolic boundary: lateral shell of width h plus the bottom level
    shell = in_ball & (dk2 >= (j - 1) ** 2)
    bottom = levels_in == mc - j * j + 1
    bd_mask = cyl_mask & (
        shell[None, ...] | bottom[(slice(None),) + (None,) * n]
    )
    if bd_mask.any() and float(u.values[bd_mask].min()) < -tol:
        raise EnvelopeError(
            "u is negative on the parabolic boundary of the cylinder; "
            f"min {float(u.values[bd_mask].min()):.3e}"
        )

    lhs = max(0.0, -float(u.values[cyl_mask].min()))

    # local doubled cylinder: box of half-width 2 rho, depth (2 rho)^2,
    # same lattice; parent level mc - 4 j^2 + ell maps to local offset ell - 1.
    # N = 2 here: only the envelope runs on this grid, no stencil does.
    local = MeshSpec(h, [(c - 2 * rho, c + 2 * rho) for c in cx], (2 * rho) ** 2, N=2)
    # the cylinder on the local grid, and the parent values under it
    lcyl = region_mask(local, Cylinder((cx, local.T), rho))
    idx = local.index_columns()[lcyl.ravel()]
    idx[:, -1] += mc - 4 * j * j
    u_cyl = u.values.ravel()[spec.flat_offsets(idx)]
    w = np.zeros(local.shape)
    w[lcyl] = np.minimum(u_cyl, 0.0)
    w_fn = MeshFunction(local, w)
    gamma = lower_monotone_envelope(w_fn)

    # contact {u = Gamma}: compare against the parent values on the cylinder
    contact = np.zeros(local.shape, dtype=bool)
    contact[lcyl] = np.abs(u_cyl - gamma.values[lcyl]) <= tol
    count = int(contact.sum())
    measure = count * h ** (n + 2)

    if K is None:
        vals = np.where(cyl_mask, u.values, np.nan)
        with np.errstate(invalid="ignore"):
            dt = np.abs(np.diff(vals, axis=0)) / tau
            tlip = float(np.nanmax(dt)) if np.isfinite(dt).any() else 0.0
            d2 = 0.0
            for e in lattice_directions(n)[0]:
                q = second_quotient_field(vals, spec, e)
                if np.isfinite(q).any():
                    d2 = max(d2, float(np.nanmax(q)))
        K = max(tlip, d2, 0.0)

    rhs_core = rho ** (n / (n + 1)) * measure ** (1.0 / (n + 1)) * K
    if lhs == 0.0:
        ratio = 0.0
    elif rhs_core == 0.0:
        ratio = math.inf
    else:
        ratio = lhs / rhs_core

    return {
        "lhs": lhs,
        "rhs_core": rhs_core,
        "ratio": ratio,
        "K": float(K),
        "rho": rho,
        "center": ParabolicPoint(cx, mc * tau),
        "cylinder_node_count": int(cyl_mask.sum()),
        "contact_count": count,
        "contact_measure": measure,
        "contact_tol": tol,
        "envelope": gamma,
        "extension": w_fn,
    }
