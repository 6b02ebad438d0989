import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def _traced_peak(call, *args, **kwargs):
    """Run ``call(*args, **kwargs)`` under ``tracemalloc``; returns its result
    and the traced peak in bytes.  Tracing stops even when the call raises."""
    tracemalloc.start()
    try:
        out = call(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# session scope: ``hypothesis`` refuses function-scoped fixtures in @given tests
@pytest.fixture(scope="session")
def traced_peak():
    return _traced_peak


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def _cylinder_nodes(spec, region):
    """Mesh node indices inside a cylinder or K-box, by an index window around
    the region and then a filter with the lattice slack 1e-9 h in space and
    1e-9 of a level in time.  This was the library's ``cylinder_nodes``;
    ``region_mask`` must select the same nodes."""
    from parastep.geometry import Cylinder

    slack_rel = 1e-9
    if isinstance(region, Cylinder):
        half = region.radius
        t0, r2 = region.center.t, region.radius**2
        a, b = (t0 - r2, t0) if region.orientation == "backward" else (t0, t0 + r2)
    else:
        half = region.half_width
        a, b = region.center.t, region.center.t + region.height
    h, tau = spec.h, spec.tau
    slack = slack_rel * h
    k_ranges = []
    for ax in range(spec.n):
        c = region.center.x[ax]
        klo = max(spec.k_min[ax], int(math.ceil((c - half - slack) / h)))
        khi = min(spec.k_max[ax], int(math.floor((c + half + slack) / h)))
        if khi < klo:
            return []
        k_ranges.append(np.arange(klo, khi + 1))
    m_lo = max(1, int(math.floor(a / tau + slack_rel)) + 1)  # m tau > a, bottom out
    m_hi = min(spec.levels, int(math.floor(b / tau + slack_rel)))  # m tau <= b
    if m_hi < m_lo:
        return []
    grids = np.meshgrid(*k_ranges, indexing="ij")
    pos = [g * h for g in grids]
    if isinstance(region, Cylinder):
        d2 = sum((p - c) ** 2 for p, c in zip(pos, region.center.x))
        keep = d2 < half**2 - slack * half  # open ball
    else:
        keep = np.ones_like(grids[0], dtype=bool)
        for p, c in zip(pos, region.center.x):
            keep &= np.abs(p - c) <= half + slack
    spatial = [tuple(int(g[tuple(idx)]) for g in grids) for idx in np.argwhere(keep)]
    return [ks + (m,) for m in range(m_lo, m_hi + 1) for ks in spatial]


def _cylinder_mask(spec, region):
    """:func:`_cylinder_nodes` as a boolean array over the mesh."""
    mask = np.zeros(spec.shape, dtype=bool)
    for idx in _cylinder_nodes(spec, region):
        mask[spec.offset(idx)] = True
    return mask


@pytest.fixture
def cylinder_nodes():
    return _cylinder_nodes


@pytest.fixture
def cylinder_mask():
    return _cylinder_mask


def _F_h_oracle(scheme, r):
    """F_h one coefficient table at a time: each table's own product and row
    max, then the least of them.  This was ``SchemeDescriptor.F_h``; it never
    reads the padded ``forms``."""
    r = np.asarray(r, dtype=float)
    rows = [np.max(r @ tab.T, axis=-1) for tab in scheme.tables]
    out = np.min(np.stack(rows, axis=0), axis=0)
    return float(out) if np.ndim(out) == 0 else out


def _residual_field_oracle(scheme, u):
    """S_h[u] on the interior set, NaN on the band, from one NaN-filled
    ``second_quotient_field`` per direction and :func:`_F_h_oracle`.  This
    was ``scheme_residual_field``; the interior gather must match it."""
    from parastep.geometry import second_quotient_field, shift

    spec = u.spec
    scheme.check_mesh(spec)
    v = u.values
    dtau = (v - shift(v, (-1,) + (0,) * spec.n)) / spec.tau
    quotients = np.stack(
        [second_quotient_field(v, spec, y) for y in scheme.stencil.directions], axis=-1
    )
    interior = spec.classification().interior
    res = np.full(spec.shape, np.nan)
    with np.errstate(invalid="ignore"):
        res[interior] = dtau[interior] - _F_h_oracle(scheme, quotients[interior])
    return res


# session scope: ``hypothesis`` refuses function-scoped fixtures in @given tests
@pytest.fixture(scope="session")
def F_h_oracle():
    return _F_h_oracle


@pytest.fixture(scope="session")
def residual_field_oracle():
    return _residual_field_oracle


def _envelope_structure(pos, f, theta):
    """Lower envelope of q -> f[j] + (q - pos[j])^2/(2 theta) over j, by one
    stack per line.  pos must be strictly increasing.  Returns (parabola
    indices, left breakpoints) with breakpoints[0] = -inf; piece k is active
    on [z[k], z[k+1]).  This was the library's per-line envelope; the batched
    ``convolutions._lower_envelopes`` must pop exactly as it does."""
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


def _transform_oracle(values, positions, theta, at):
    """``convolutions._transform`` with one :func:`_envelope_structure` per
    line: (values, shift) on the product of the abscissae ``at``."""
    V = values
    args = []
    for axis, (pos, q) in enumerate(zip(positions, at)):
        moved = np.moveaxis(V, axis, -1)
        flat = moved.reshape(-1, moved.shape[-1])
        out = np.empty((flat.shape[0], len(q)))
        arg = np.empty(out.shape, dtype=np.int64)
        for r, f in enumerate(flat):
            v, z = _envelope_structure(pos, f, theta)
            src = v[np.searchsorted(z, q, side="right") - 1]
            out[r] = f[src] + (q - pos[src]) ** 2 / (2.0 * theta)
            arg[r] = src
        shape = moved.shape[:-1] + (len(q),)
        V = np.moveaxis(out.reshape(shape), -1, axis)
        arg = np.moveaxis(arg.reshape(shape), -1, axis)
        args = [np.take_along_axis(a, arg, axis=axis) for a in args] + [arg]
    d2 = np.zeros(V.shape)
    for axis, (pos, q, arg) in enumerate(zip(positions, at, args)):
        d2 += (pos[arg] - q.reshape([-1 if a == axis else 1 for a in range(V.ndim)])) ** 2
    return V, np.sqrt(d2)


@pytest.fixture(scope="session")
def envelope_structure():
    return _envelope_structure


@pytest.fixture(scope="session")
def transform_oracle():
    return _transform_oracle


def _monotone_envelope_oracle(u):
    """``lower_monotone_envelope`` taking every level's hull afresh, even
    where the running minimum repeats the previous level's slice."""
    from parastep.envelopes import _SNAP, _chain_envelope, _qhull_envelope
    from parastep.geometry import MeshFunction

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
    np.minimum.accumulate(out, axis=0, out=out)
    return MeshFunction(spec, out)


@pytest.fixture(scope="session")
def monotone_envelope_oracle():
    return _monotone_envelope_oracle
