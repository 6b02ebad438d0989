import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


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
