"""Monotone envelopes, contact sets, and a backward-cylinder ABP-type diagnostic.

The lower monotone envelope of a mesh function is the largest minorant that is
nonincreasing in t and convex in x.  On the grid it reduces to a running
minimum over time followed by a per-slice lower convex hull: an affine function
``zeta . x + c`` lies below u on all of ``(a, t]`` iff it lies below
``m_t(y) = min_{s <= t} u(y, s)``, so the envelope of u at level t is the
convex envelope of m_t.  The running minimum often stands still (every level
of a nonnegative function, or below the cylinder in the ABP extension, is the
zero slice), so a level whose slice equals the previous one copies its
envelope instead of taking the hull again, and a constant slice is its own
envelope with no hull at all.

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
    MeshFunction,
    MeshSpec,
    ParabolicPoint,
    lattice_directions,
    lattice_index,
    second_quotient_field,
)

__all__ = [
    "lower_monotone_envelope",
    "upper_monotone_envelope",
    "contact_set",
    "abp_diagnostic",
]

_SNAP = 1e-12


def _nonnegative(value, what: str) -> float:
    """A finite value >= 0 as a float; else raises EnvelopeError."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise EnvelopeError(f"{what} must be a finite number >= 0, got {value}")
    return value


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
    equals the max over lower-facet planes.  ``lower_monotone_envelope`` calls
    it only on a non-constant slice in n >= 2, so only such a slice loads
    ``scipy.spatial``; a constant one is its own envelope, as the flat-input
    fallback below would also return.
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

    One hull is taken per distinct non-constant running-minimum slice: a
    level whose slice equals the previous level's copies that level's
    envelope, and a constant slice (``np.ptp`` exactly 0) is its own
    envelope, copied without the hull that Qhull would refuse as flat.
    """
    spec = u.spec
    m = np.minimum.accumulate(u.values, axis=0)
    snap = _SNAP * (1.0 + float(np.max(np.abs(u.values))))
    axes = [spec.axis_coords(i) for i in range(spec.n)]
    live = [i for i in range(spec.n) if len(axes[i]) > 1]
    out = np.empty_like(m)
    for lev in range(spec.levels):
        sl = m[lev]
        if lev and np.array_equal(sl, m[lev - 1]):
            # the same slice has the same envelope
            out[lev] = out[lev - 1]
            continue
        if not live or np.ptp(sl) == 0.0:
            # a constant slice is its own envelope (Qhull refuses it as flat)
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
        Contact threshold |u - gamma| <= tol, a finite number >= 0; defaults
        to 1e-9 (1 + sup|u|).

    Returns
    -------
    dict with ``mask`` (bool array over the grid), ``count``, ``measure``
    (count x h^(n+2)) and the ``tol`` used.
    """
    if u.spec != gamma.spec:
        raise GridError("u and gamma live on different meshes")
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.max(np.abs(u.values))))
    tol = _nonnegative(tol, "contact tolerance tol")
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

    Takes the backward cylinder of radius rho at ``center`` (defaults: the middle node,
    the largest multiple of h that :meth:`MeshSpec.cylinder_fits` accepts), checks
    u >= 0 on its discrete parabolic boundary (the lateral shell of width h
    and the bottom level), extends ``-u^-`` by zero to the doubled cylinder
    on a local grid, and compares

        lhs  = sup of u^- over the cylinder
        rhs_core = rho^(n/(n+1)) |{u = Gamma}|^(1/(n+1)) K

    where Gamma is the lower monotone envelope of the extension.  The
    continuum bound is lhs <= C rhs_core with universal C, so the returned
    ``ratio`` is the observable.  K defaults to the larger of the discrete
    time slope and the largest positive axis second quotient on the cylinder.
    A given K or contact tolerance ``tol`` must be a finite number >= 0
    (K = 0 is legal: it is the default on a flat cylinder), else
    EnvelopeError.  The cylinder's nodes are the steps of
    :meth:`MeshSpec.cylinder_steps` about the center on u's mesh and about
    the top center of the local grid, so one gather pairs each local node
    with its parent node.  The default K's ``second_quotient_field`` runs on
    the cylinder's bounding box ((j^2 + 1) levels x (2j + 1)^n columns for
    rho = j h), one axis at a time, so its scratch is a few box-sized arrays
    whatever the size of the mesh.
    """
    spec = u.spec
    h, tau, n = spec.h, spec.tau, spec.n

    if center is None:
        node = spec.middle_node()
    else:
        center = ParabolicPoint(center[0], center[1]) if isinstance(center, tuple) else center
        node = tuple(
            lattice_index(c, h, "cylinder center coordinate", EnvelopeError) for c in center.x
        ) + (lattice_index(center.t, tau, "cylinder center time", EnvelopeError),)
    mc = node[-1]
    if not 1 <= mc <= spec.levels:
        raise EnvelopeError(f"cylinder top time {mc * tau} outside the mesh")
    center = spec.node_point(node)

    if rho is None:  # the largest multiple of h that fits; none with j^2 > mc does
        fitting = (j for j in range(math.isqrt(mc) + 1, 0, -1) if spec.cylinder_fits(j * h, node))
        j = next(fitting, 0)
        if j < 1:
            raise EnvelopeError("no backward cylinder of radius h fits this mesh")
    else:
        j = lattice_index(rho, h, "cylinder radius", EnvelopeError)
        if j < 1:
            raise EnvelopeError(f"cylinder radius must be a positive multiple of h, got {rho}")
        if not spec.cylinder_fits(j * h, node):
            raise EnvelopeError("backward cylinder does not fit inside the mesh")
    rho = j * h

    # the cylinder's steps about its center on u's mesh and about the top center
    # of the local doubled cylinder (half-width 2 rho, depth (2 rho)^2, same
    # lattice; N = 2 there: only the envelope runs on it, no stencil does)
    steps = spec.node_steps(rho)
    local = MeshSpec(h, [(c - 2 * rho, c + 2 * rho) for c in center.x], (2 * rho) ** 2, N=2)
    cyl = spec.flat_offsets(np.array(node) + steps)
    lcyl = local.flat_offsets(np.array(node[:-1] + (local.levels,)) + steps)
    u_cyl = u.values.ravel()[cyl]

    if tol is None:
        tol = 1e-9 * (1.0 + float(np.max(np.abs(u.values))))
    tol = _nonnegative(tol, "contact tolerance tol")
    if K is not None:
        K = _nonnegative(K, "K")

    # discrete parabolic boundary: the lateral shell of width h and the bottom level
    edge = (np.sum(steps[:, :-1] ** 2, axis=1) >= (j - 1) ** 2) | (steps[:, -1] == 1 - j * j)
    if float(u_cyl[edge].min()) < -tol:
        raise EnvelopeError(
            "u is negative on the parabolic boundary of the cylinder; "
            f"min {float(u_cyl[edge].min()):.3e}"
        )

    lhs = max(0.0, -float(u_cyl.min()))

    w = np.zeros(local.shape)
    w.flat[lcyl] = np.minimum(u_cyl, 0.0)
    w_fn = MeshFunction(local, w)
    gamma = lower_monotone_envelope(w_fn)

    # contact {u = Gamma}: compare against the parent values on the cylinder
    count = int(np.count_nonzero(np.abs(u_cyl - gamma.values.flat[lcyl]) <= tol))
    measure = count * h ** (n + 2)

    if K is None:
        # slopes between cylinder nodes only, on the cylinder's bounding box
        box = np.roll(steps - steps.min(axis=0), 1, axis=1)  # time first
        vals = np.full(tuple(box.max(axis=0) + 1), np.nan)
        vals[tuple(box.T)] = u_cyl
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
        "center": center,
        "cylinder_node_count": len(cyl),
        "contact_count": count,
        "contact_measure": measure,
        "contact_tol": tol,
        "envelope": gamma,
        "extension": w_fn,
    }
