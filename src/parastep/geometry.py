"""Parabolic mesh geometry.

Space-time points carry the parabolic distance d((x,t),(y,s)) =
(|x-y|^2 + |s-t|)^(1/2); meshes live on the lattice hZ^n x h^2 Z.  A node is
addressed by its global integer index (k_1, ..., k_n, m) with position
x_i = k_i*h and t = m*h^2.

This module owns the lattice neighbour arithmetic and its tolerance: the
neighbour shift (NaN off the mesh), the standard stencil directions, the
quotient weight 1/|hy|^2 and the second quotient fields, and ``_FP_SLACK``
with its snap helper :func:`lattice_index` and the regions' tie rule, and a
backward cylinder's lattice steps and fit rule (:meth:`MeshSpec.cylinder_steps`, ``cylinder_fits``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import GridError

__all__ = [
    "ParabolicPoint",
    "Cylinder",
    "KBox",
    "MeshSpec",
    "MeshFunction",
    "parabolic_distance",
    "euclidean_distance",
    "classify_mesh_points",
    "region_mask",
    "discrete_holder_norm",
    "lattice_index",
    "lattice_directions",
    "quotient_weight",
    "shift",
    "second_quotient_field",
]

# Relative slack used when deciding lattice membership / region containment
# and when snapping near-lattice values, so that exact rational grids are
# classified exactly.
_FP_SLACK = 1e-9

# The most nodes a mesh may have: numpy allocates no larger float64 array.
_MAX_NODES = np.iinfo(np.intp).max // 8

# The one scratch budget, the bytes of one chunk of work.  region_mask, the
# Hölder search and read_text size their chunks from it; the S_h sweep, the
# solver's frozen-policy blocks, the falsifier's screen and the certificate
# replay import the name, so patching one module's binding resizes its chunks.
_SCRATCH_BYTES = 1 << 21

# Hölder search (see _holder_seminorm): region nodes per tile and the
# relative slack of its tile-pair bound.
_HOLDER_TILE_NODES = 64
_HOLDER_SLACK = 64 * np.finfo(float).eps


def lattice_index(value: float, step: float, what: str, error: type[Exception] = GridError) -> int:
    """The integer k with value = k*step up to ``_FP_SLACK``; else raises ``error``."""
    q = value / step
    if not (math.isfinite(q) and abs(q - round(q)) <= _FP_SLACK):
        raise error(f"{what} must be finite and sit on the lattice (step {step}), got {value}")
    return round(q)


def lattice_directions(n: int) -> tuple[list, dict]:
    """Unit axes e_i and pair diagonals (e_i + e_j, e_i - e_j), i < j, of Z^n.

    Returns ``(axes, pairs)`` with ``pairs[i, j] = (plus, minus)``; every
    direction is in canonical +- form (first nonzero entry positive).
    """
    axes = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    pairs = {
        (i, j): tuple(tuple(a + s * b for a, b in zip(axes[i], axes[j])) for s in (1, -1))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return axes, pairs


def quotient_weight(h: float, y: Sequence[int]) -> float:
    """1/|hy|^2, the weight of the second quotient along the scaled direction h*y."""
    return 1.0 / (h**2 * sum(c * c for c in y))


def shift(values: np.ndarray, off: Sequence[int]) -> np.ndarray:
    """values[idx + off] over every axis (time first on mesh arrays), NaN
    where idx + off leaves the array."""
    off = tuple(int(c) for c in off)
    if len(off) != values.ndim:
        raise GridError(f"offset {off} has {len(off)} entries, the array has {values.ndim} axes")
    out = np.full_like(values, np.nan)
    src = tuple(slice(max(c, 0), min(c, 0) or None) for c in off)
    dst = tuple(slice(max(-c, 0), min(-c, 0) or None) for c in off)
    out[dst] = values[src]
    return out


def second_quotient_field(values: np.ndarray, spec: MeshSpec, y: Sequence[int]) -> np.ndarray:
    """delta^2_y over a whole time-major array; NaN where neighbors are missing.
    The arithmetic matches the scheme's gather bit for bit."""
    if not any(y):
        raise GridError(f"bad direction {tuple(y)}")
    neighbours = shift(values, (0, *y)) + shift(values, (0, *np.negative(y)))
    return (neighbours - 2.0 * values) * quotient_weight(spec.h, y)


@dataclass(frozen=True)
class ParabolicPoint:
    """A point (x, t) in R^n x R."""

    x: tuple[float, ...]
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(c) for c in np.atleast_1d(self.x)))
        object.__setattr__(self, "t", float(self.t))

    @property
    def n(self) -> int:
        return len(self.x)


def _coerce_point(p) -> ParabolicPoint:
    if isinstance(p, ParabolicPoint):
        return p
    x, t = p
    return ParabolicPoint(tuple(np.atleast_1d(np.asarray(x, dtype=float))), float(t))


def parabolic_distance(p, q) -> float:
    """d((x,t),(y,s)) = (|x-y|^2 + |s-t|)^(1/2)."""
    p, q = _coerce_point(p), _coerce_point(q)
    if p.n != q.n:
        raise GridError(f"dimension mismatch: {p.n} vs {q.n}")
    dx = np.subtract(p.x, q.x)
    return math.sqrt(float(dx @ dx) + abs(p.t - q.t))


def euclidean_distance(p, q) -> float:
    """d_e((x,t),(y,s)) = (|x-y|^2 + |s-t|^2)^(1/2)."""
    p, q = _coerce_point(p), _coerce_point(q)
    if p.n != q.n:
        raise GridError(f"dimension mismatch: {p.n} vs {q.n}")
    dx = np.subtract(p.x, q.x)
    return math.sqrt(float(dx @ dx) + (p.t - q.t) ** 2)


@dataclass(frozen=True)
class Cylinder:
    """Open-ball cylinder B_r(x) x (t, t+r^2] (forward) or B_r(x) x (t-r^2, t] (backward).

    Space is the open ball |y-x| < r; time is half-open with the endpoint at
    the center's time excluded (forward) / included (backward) exactly as the
    orientation convention states: backward includes its top time, forward
    includes its far (later) time.  A point within ``_FP_SLACK * r^2`` of an
    edge counts as on it, so lattice nodes that sit on an edge get that
    edge's open/closed rule whichever way the arithmetic rounds.
    """

    center: ParabolicPoint
    radius: float
    orientation: str = "backward"

    def __post_init__(self):
        object.__setattr__(self, "center", _coerce_point(self.center))
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise GridError(f"cylinder radius must be finite and positive, got {self.radius}")
        if self.orientation not in ("forward", "backward"):
            raise GridError(f"orientation must be 'forward' or 'backward', got {self.orientation!r}")

    def contains(self, p) -> bool:
        p = _coerce_point(p)
        return bool(self.contains_points([p.x], [p.t])[0])

    def contains_points(self, x, t) -> np.ndarray:
        """:meth:`contains` for k points at once: positions x (k, n), times t (k,)."""
        dx = np.asarray(x, dtype=float) - np.asarray(self.center.x)
        # stacked 1 x n by n x 1 products round as a single point's dx @ dx does
        d2 = np.matmul(dx[:, None, :], dx[:, :, None])[:, 0, 0]
        dt = np.asarray(t, dtype=float) - self.center.t
        r2 = self.radius**2
        e = _FP_SLACK * r2
        if self.orientation == "backward":
            in_time = (e - r2 < dt) & (dt <= e)
        else:
            in_time = (e < dt) & (dt <= r2 + e)
        return (d2 < r2 - e) & in_time


@dataclass(frozen=True)
class KBox:
    """The calibrated box K_r(x,t) = [x +- r/(9 sqrt n)]^n x (t, t + r^2/(81 n)].

    Closed in space, half-open (bottom excluded, top included) in time;
    ties are decided as for :class:`Cylinder`, with the slack scaled by the
    half width in space and by the height in time.
    """

    center: ParabolicPoint
    r: float

    def __post_init__(self):
        object.__setattr__(self, "center", _coerce_point(self.center))
        if not (math.isfinite(self.r) and self.r > 0):
            raise GridError(f"K-box scale must be finite and positive, got {self.r}")

    @property
    def half_width(self) -> float:
        return self.r / (9.0 * math.sqrt(self.center.n))

    @property
    def height(self) -> float:
        return self.r**2 / (81.0 * self.center.n)

    def contains(self, p) -> bool:
        p = _coerce_point(p)
        return bool(self.contains_points([p.x], [p.t])[0])

    def contains_points(self, x, t) -> np.ndarray:
        """:meth:`contains` for k points at once: positions x (k, n), times t (k,)."""
        dx = np.asarray(x, dtype=float) - np.asarray(self.center.x)
        dt = np.asarray(t, dtype=float) - self.center.t
        in_box = np.all(np.abs(dx) <= self.half_width * (1.0 + _FP_SLACK), axis=1)
        e = _FP_SLACK * self.height
        return in_box & (e < dt) & (dt <= self.height + e)


def _is_int(value) -> bool:
    """An int or numpy integer; ``bool`` is an int subclass, but not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class MeshSpec:
    """Mesh over (open box) x (0, T] drawn from the lattice hZ^n x h^2 Z.

    Parameters
    ----------
    h : float
        Spatial step; the time step is tau = h^2.
    bounds : sequence of (lo, hi)
        The spatial domain, an axis-aligned open box with finite sides.
    T : float
        Final time.  Rounded down to a multiple of h^2 if it is not one.
    N : int
        Stencil reach: directions satisfy 0 < |y| < N*h, and nodes within
        parabolic distance N*h of the parabolic boundary form the boundary band.

    A mesh with more nodes than one float64 array can hold is refused
    (GridError), before anything is allocated.
    """

    def __init__(self, h: float, bounds: Sequence[Sequence[float]], T: float, N: int = 2):
        h = float(h)
        T = float(T)
        if not (math.isfinite(h) and h > 0):
            raise GridError(f"h must be a finite positive number, got {h}")
        if not math.isfinite(T):
            raise GridError(f"T must be finite, got {T}")
        if int(N) != N or N < 2:
            raise GridError(f"N must be an integer >= 2, got {N}")
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        if not bounds:
            raise GridError("bounds must be non-empty")
        for lo, hi in bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise GridError(f"invalid bounds ({lo}, {hi}): need finite lo < hi")
        min_side = min(hi - lo for lo, hi in bounds)
        if not N * h < min_side:
            raise GridError(
                f"stencil reach N*h = {N * h} must be smaller than the smallest "
                f"domain side {min_side}"
            )
        self.h = h
        self.tau = h * h
        self.bounds = bounds
        self.N = int(N)
        self.n = len(bounds)
        # Global index ranges: k with lo < k*h < hi, and time levels 1..levels.
        # A quotient that overflows to inf has more nodes than numpy can index.
        try:
            self.k_min = tuple(int(math.floor(lo / h + _FP_SLACK)) + 1 for lo, _ in bounds)
            self.k_max = tuple(int(math.ceil(hi / h - _FP_SLACK)) - 1 for _, hi in bounds)
            self.levels = int(math.floor(T / self.tau + _FP_SLACK))
        except OverflowError:
            raise GridError(f"a mesh at h={h} on {bounds} up to T={T} has too many nodes") from None
        for (lo, hi), klo, khi in zip(bounds, self.k_min, self.k_max):
            if khi < klo:
                raise GridError(f"no lattice nodes inside ({lo}, {hi}) at h={h}")
        if self.levels < 1:
            raise GridError(f"T={T} admits no time level at tau={self.tau}")
        self.T = self.levels * self.tau  # effective final time
        self.T_requested = T
        self.spatial_shape = tuple(khi - klo + 1 for klo, khi in zip(self.k_min, self.k_max))
        self.shape = (self.levels,) + self.spatial_shape
        if math.prod(self.shape) > _MAX_NODES:
            raise GridError(
                f"a mesh of shape {self.shape} has more nodes than one float array can hold"
            )
        self._classification = None

    # -- coordinates ---------------------------------------------------------

    def axis_coords(self, axis: int) -> np.ndarray:
        """Positions k*h of the in-domain lattice columns along one axis."""
        return self.h * np.arange(self.k_min[axis], self.k_max[axis] + 1)

    def times(self) -> np.ndarray:
        """Time levels m*h^2, m = 1..levels."""
        return self.tau * np.arange(1, self.levels + 1)

    def node_point(self, index: Sequence[int]) -> ParabolicPoint:
        """The point of a lattice node, in the mesh or not: ``index`` is n + 1
        ints or numpy integers (not bools), else a GridError."""
        index = tuple(index)
        if len(index) != self.n + 1 or not all(map(_is_int, index)):
            raise GridError(f"index must be {self.n + 1} integers, got {index}")
        index = tuple(map(int, index))
        return ParabolicPoint(tuple(k * self.h for k in index[:-1]), index[-1] * self.tau)

    def contains_index(self, index: Sequence[int]) -> bool:
        """Whether ``index`` names a node: n + 1 ints or numpy integers (not
        bools) within the mesh; any other component is no node."""
        index = tuple(index)
        if len(index) != self.n + 1 or not all(map(_is_int, index)):
            return False
        for k, klo, khi in zip(index[:-1], self.k_min, self.k_max):
            if not klo <= k <= khi:
                return False
        return 1 <= index[-1] <= self.levels

    def offset(self, index: Sequence[int]) -> tuple[int, ...]:
        """Array offset (time-major) of a global node index."""
        if not self.contains_index(index):
            raise GridError(f"node {tuple(index)} is not in the mesh")
        index = tuple(int(i) for i in index)
        return (index[-1] - 1,) + tuple(k - klo for k, klo in zip(index[:-1], self.k_min))

    def index_from_offset(self, offset: Sequence[int]) -> tuple[int, ...]:
        offset = tuple(int(i) for i in offset)
        return tuple(o + klo for o, klo in zip(offset[1:], self.k_min)) + (offset[0] + 1,)

    def node_indices(self) -> Iterator[tuple[int, ...]]:
        """Iterate all node indices (k_1..k_n, m), time-major."""
        for off in np.ndindex(self.shape):
            yield self.index_from_offset(off)

    def node_count(self) -> int:
        return int(np.prod(self.shape))

    def cylinder_steps(self, radius: float) -> np.ndarray:
        """Integer steps (dm, dk_1, ..., dk_n) from a node to the nodes of the
        backward :class:`Cylinder` of this radius about it, as its
        ``contains_points`` decides: spatial steps in C order, each with its
        levels from the deepest up.  The falsifier, the certificate replay
        and the ABP diagnostic all take their cylinders from here."""
        cyl = Cylinder((np.zeros(self.n), 0.0), radius)
        reach = int(radius / self.h) + 1
        dk = np.indices((2 * reach + 1,) * self.n).reshape(self.n, -1).T - reach
        dk = dk[cyl.contains_points(dk * self.h, np.zeros(len(dk)))]
        dm = np.arange(-int(radius**2 / self.tau) - 1, 1)
        dm = dm[cyl.contains_points(np.zeros((len(dm), self.n)), dm * self.tau)]
        return np.column_stack([np.tile(dm, len(dk)), np.repeat(dk, len(dm), axis=0)])

    def node_steps(self, radius: float) -> np.ndarray:
        """:meth:`cylinder_steps` as rows (dk_1, ..., dk_n, dm) to add to a node
        index (certificate replay, ABP)."""
        return np.roll(self.cylinder_steps(radius), -1, axis=1)

    def cylinder_fits(self, radius: float, index: Sequence[int] | None = None):
        """Whether the backward :class:`Cylinder` of this radius about a node lies in
        the domain: iff lat^2 >= r^2 - e and t >= r^2 - e, with lat the node's lateral
        distance (0 off the box), t its time and e = ``_FP_SLACK`` r^2 the cylinder's
        own edge slack, so ``contains_points`` holds at no point of the domain's
        boundary.  A mask over the mesh, or a bool at one global ``index`` in O(n).
        The falsifier, the certificate replay and the ABP diagnostic all ask here."""
        if index is None:
            lat, t = self.lateral_distance(), self.times().reshape((-1,) + (1,) * self.n)
        else:
            x = [k * self.h for k in index[:-1]]
            lat = max(0.0, min(min(c - lo, hi - c) for c, (lo, hi) in zip(x, self.bounds)))
            t = index[-1] * self.tau
        edge = radius**2 - _FP_SLACK * radius**2  # r2 - e, as Cylinder computes it
        return (lat**2 >= edge) & (t >= edge)

    def middle_node(self) -> tuple[int, ...]:
        """The final-time node over the snapped box midpoint: a cylinder fits somewhere iff here."""
        return tuple(round((lo + hi) / 2.0 / self.h) for lo, hi in self.bounds) + (self.levels,)

    def flat_offsets(self, index: np.ndarray) -> np.ndarray:
        """Time-major flat array offsets of rows (k_1, ..., k_n, m) of global
        node indices; -1 for a row outside the mesh."""
        off = np.roll(index - np.array(self.k_min + (1,)), 1, axis=1).T
        inside = np.all((off >= 0) & (off < np.array(self.shape)[:, None]), axis=0)
        return np.where(inside, np.ravel_multi_index(off, self.shape, mode="clip"), -1)

    # -- boundary distances ---------------------------------------------------

    def lateral_distance(self) -> np.ndarray:
        """Euclidean distance of each spatial column to the box boundary."""
        per_axis = []
        for a in range(self.n):
            xs = self.axis_coords(a)
            lo, hi = self.bounds[a]
            per_axis.append(np.minimum(xs - lo, hi - xs))
        grids = np.meshgrid(*per_axis, indexing="ij")
        return np.minimum.reduce(grids)

    def euclidean_boundary_distance(self) -> np.ndarray:
        """Euclidean distance d_e(p, parabolic boundary), shape (levels, *spatial)."""
        lat = self.lateral_distance()
        t = self.times().reshape((-1,) + (1,) * self.n)
        return np.minimum(t, lat)

    def parabolic_diameter(self) -> float:
        """sup of the parabolic distance over the closed space-time domain."""
        diag2 = sum((hi - lo) ** 2 for lo, hi in self.bounds)
        return math.sqrt(diag2 + self.T)

    def classification(self) -> "MeshClassification":
        """Cached interior masks (see classify_mesh_points)."""
        if self._classification is None:
            self._classification = classify_mesh_points(self)
        return self._classification

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MeshSpec)
            and self.h == other.h
            and self.bounds == other.bounds
            and self.levels == other.levels
            and self.N == other.N
        )

    def __hash__(self):
        return hash((self.h, self.bounds, self.levels, self.N))

    def __repr__(self):
        return (
            f"MeshSpec(h={self.h}, bounds={self.bounds}, T={self.T}, N={self.N}, "
            f"shape={self.shape})"
        )


@dataclass(frozen=True)
class MeshClassification:
    """Boolean masks over the mesh array, time-major."""

    interior: np.ndarray  # the boundary band is its complement
    interior_columns: np.ndarray  # spatial mask: lateral distance >= N*h


def classify_mesh_points(spec: MeshSpec) -> MeshClassification:
    """Split mesh nodes into the interior set and the boundary band.

    A node is interior iff its parabolic distance to the parabolic boundary of
    the space-time domain is >= N*h; equivalently t >= (N*h)^2 and the lateral
    distance to the box boundary is >= N*h.  Everything else is boundary band.
    """
    lat = spec.lateral_distance()
    slack = _FP_SLACK * spec.h
    lat_ok = lat >= spec.N * spec.h - slack
    m = np.arange(1, spec.levels + 1).reshape((-1,) + (1,) * spec.n)
    time_ok = m >= spec.N**2  # t = m*h^2 >= (N*h)^2, exact in integers
    interior = np.logical_and(time_ok, lat_ok)
    return MeshClassification(interior=interior, interior_columns=lat_ok)


def _sample_levels(spec: MeshSpec, f: Callable, start: int, stop: int) -> np.ndarray:
    """``f(x, t)`` on the array rows start:stop (levels start+1 .. stop), as an
    array of shape (stop - start, *spatial).  ``t`` and ``x`` (..., n) are fresh,
    writable full-shape arrays filled in place, so n + 1 of them are alive
    while f runs; a scalar or broadcastable result is expanded."""
    shape = (stop - start,) + spec.spatial_shape
    t = np.empty(shape)
    t[...] = (spec.tau * np.arange(start + 1, stop + 1)).reshape((-1,) + (1,) * spec.n)
    x = np.empty(shape + (spec.n,))
    for a in range(spec.n):
        x[..., a] = spec.axis_coords(a).reshape([-1 if b == a else 1 for b in range(spec.n)])
    vals = np.asarray(f(x, t), dtype=float)
    if vals.shape != shape:
        vals = np.broadcast_to(vals, shape).copy()
    return vals


def region_mask(spec: MeshSpec, region: Cylinder | KBox | None) -> np.ndarray:
    """The nodes that ``region.contains``, as a boolean array over the mesh
    (every node when ``region`` is None).  ``region.contains_points`` decides
    a chunk of levels at a time, within ``_SCRATCH_BYTES`` next to the mask."""
    if region is None:
        return np.ones(spec.shape, dtype=bool)
    if region.center.n != spec.n:
        raise GridError(f"region dimension {region.center.n} != mesh dimension {spec.n}")
    x = (np.indices(spec.spatial_shape).reshape(spec.n, -1).T + spec.k_min) * spec.h
    levels = max(1, _SCRATCH_BYTES // (8 * (2 * spec.n + 6) * len(x)))
    mask = np.empty(spec.shape, dtype=bool)
    for m0 in range(0, spec.levels, levels):
        m = np.arange(m0 + 1, min(m0 + levels, spec.levels) + 1)
        inside = region.contains_points(np.tile(x, (len(m), 1)), np.repeat(m * spec.tau, len(x)))
        mask[m0 : m0 + len(m)] = inside.reshape((len(m),) + spec.spatial_shape)
    return mask


class MeshFunction:
    """Real-valued function on the nodes of a mesh, stored time-major.

    ``values[m-1, k_1-k_min_1, ..., k_n-k_min_n]`` holds the value at node
    ``(k_1, ..., k_n, m)``.
    """

    def __init__(self, spec: MeshSpec, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != spec.shape:
            raise GridError(f"values shape {values.shape} != mesh shape {spec.shape}")
        if not np.all(np.isfinite(values)):
            raise GridError("mesh function values must be finite")
        self.spec = spec
        self.values = values

    @classmethod
    def from_callable(cls, spec: MeshSpec, f: Callable) -> "MeshFunction":
        """Sample ``f(x, t)`` (x an n-vector) on every node, in one call."""
        return cls(spec, _sample_levels(spec, f, 0, spec.levels))

    def value(self, index: Sequence[int]) -> float:
        return float(self.values[self.spec.offset(index)])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def copy(self) -> "MeshFunction":
        return MeshFunction(self.spec, self.values.copy())

    # -- serialization --------------------------------------------------------
    #
    # Text format: one header line "n h N lo_1 hi_1 ... lo_n hi_n T", then one
    # line "k_1 ... k_n m value" per node.  Floats are round-trip reprs so a
    # write/read cycle is exact.

    def write_text(self, path) -> None:
        spec = self.spec
        head = [str(spec.n), repr(spec.h), str(spec.N)]
        for lo, hi in spec.bounds:
            head += [repr(lo), repr(hi)]
        head.append(repr(spec.T))
        # One time level at a time: the spatial index columns repeat per level.
        levels = self.values.reshape(spec.levels, -1)
        ks = np.indices(spec.spatial_shape).reshape(spec.n, -1) + np.array(spec.k_min)[:, None]
        # one %r template per grid; each level fills in its number, then its values
        template = "".join(" ".join(map(str, k)) + " {m} %r\n" for k in ks.T.tolist())
        with open(path, "w") as fh:
            fh.write(" ".join(head) + "\n")
            for m, level in enumerate(levels, start=1):
                fh.write(template.replace("{m}", str(m)) % tuple(level.tolist()))

    @classmethod
    def read_text(cls, path) -> "MeshFunction":
        """Node lines are streamed in chunks of _SCRATCH_BYTES // (160 (n + 2))
        lines (a token took 80-95 bytes in flight, next to its chunk's
        lines), so the scratch stays within ``_SCRATCH_BYTES`` next to the
        grid.  The file is opened once, also when it is refused: every chunk
        before one that fails to parse parsed clean, so the first bad line is
        in that chunk."""
        with open(path) as fh:
            lines = filter(None, map(str.strip, fh))
            header = next(lines, None)
            if header is None:
                raise GridError(f"{path}: empty mesh-function file")
            head = header.split()
            try:
                n, h, N = int(head[0]), float(head[1]), int(head[2])
                if len(head) != 3 + 2 * n + 1:
                    raise IndexError
                bounds = [(float(head[3 + 2 * a]), float(head[4 + 2 * a])) for a in range(n)]
                T = float(head[3 + 2 * n])
            except (IndexError, ValueError) as exc:
                raise GridError(f"{path}: malformed header {header!r}") from exc
            spec = MeshSpec(h, bounds, T, N)
            width, count = n + 2, 0
            size = max(1, _SCRATCH_BYTES // (160 * width))
            vals = np.full(spec.shape, np.nan)
            while chunk := list(itertools.islice(lines, size)):
                try:
                    # one flat token list per chunk: per-line lists would wake the cyclic GC
                    tokens: list[str] = []
                    for parts in map(str.split, chunk):
                        if len(parts) != width:
                            raise ValueError
                        tokens += parts
                    index = np.array(
                        [list(map(int, tokens[a::width])) for a in range(n + 1)], dtype=np.int64
                    ).T
                    flat = spec.flat_offsets(index)
                    values = np.array(list(map(float, tokens[n + 1 :: width])))
                    if np.any(flat < 0) or not np.isfinite(values).all():
                        raise ValueError
                except (ValueError, OverflowError):
                    _refuse_node_lines(path, spec, count + len(chunk) + sum(1 for _ in lines), chunk)
                    raise
                vals.flat[flat] = values
                count += len(chunk)
        _refuse_node_lines(path, spec, count, ())
        if np.isnan(vals).any():
            raise GridError(f"{path}: some mesh nodes missing from file")
        return cls(spec, vals)


def _refuse_node_lines(path, spec: MeshSpec, count: int, lines) -> None:
    """Raise the GridError of a grid file with ``count`` node lines, if it is
    the wrong count, else of the first bad line among ``lines``, if any."""
    if count != spec.node_count():
        raise GridError(f"{path}: expected {spec.node_count()} node lines, got {count}") from None
    for ln in lines:
        parts = ln.split()
        try:
            if len(parts) != spec.n + 2:
                raise ValueError
            idx = tuple(map(int, parts[:-1]))
            if spec.contains_index(idx):
                value = float(parts[-1])
        except ValueError:
            raise GridError(f"{path}: malformed node line {ln!r}") from None
        if not spec.contains_index(idx):
            raise GridError(f"{path}: node {idx} outside the declared mesh") from None
        if not math.isfinite(value):
            raise GridError(f"{path}: non-finite value in node line {ln!r}") from None


def _ratio_max(P: np.ndarray, V: np.ndarray, Q: np.ndarray, W: np.ndarray, eta: float) -> float:
    """max of |V_i - W_j| / d(P_i, Q_j)^eta over batches of node pairs,
    P (b, s, n+1) against Q (b, s, n+1) (either b may be 1); 0 where d = 0.
    The squares are summed over the axes in order, as numpy's ``sum``
    over a short last axis does, but without its slow reduction loop."""

    def diff(a):
        return P[:, :, None, a] - Q[:, None, :, a]

    dx2 = diff(0) ** 2
    for a in range(1, P.shape[-1] - 1):
        dx2 = dx2 + diff(a) ** 2
    d = np.sqrt(dx2 + np.abs(diff(-1)))
    dv = np.abs(V[:, :, None] - W[:, None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(d > 0, dv / d**eta, 0.0)
    return float(r.max(initial=0.0))


def _holder_seminorm(pts: np.ndarray, offs: np.ndarray, vals: np.ndarray, eta: float) -> float:
    """max over node pairs of |u(p)-u(q)| / d(p,q)^eta by branch-and-bound
    over tiles of the index grid; ``offs`` are the nodes' array offsets.

    Nodes are grouped into index boxes of about ``_HOLDER_TILE_NODES``
    nodes, s columns wide in space and about s^2 levels long in time, and
    padded to one length with copies of the tile's last node (a copy only
    repeats pairs or meets itself at d = 0).  For tiles I != J no pair
    ratio exceeds

        max(vmax_I - vmin_J, vmax_J - vmin_I) / dlb^eta * (1 + _HOLDER_SLACK),

    with dlb the parabolic gap between the two coordinate boxes.  The bound
    repeats a pair's own operations, in the same order, on values and
    coordinates that bound the pair's from the right side; IEEE rounding is
    monotone, so only ``pow``'s few ulps need the slack.  Every tile is
    paired with itself; rows I then go in descending order of their largest
    bound, and each row's tiles J > I in descending bound order, until a
    bound is <= the running maximum.  A visited pair computes ``dx2``,
    ``d``, ``dv`` and ``dv / d**eta`` like all pairs do, and ``max`` does not
    depend on order, so the result is the all-pairs maximum bit for bit.
    Scratch arrays (one block of tile-pair bounds, one batch of node-pair
    ratios) stay within ``_SCRATCH_BYTES``, next to a tile-ordered copy
    of the nodes' coordinates and values.
    """
    n = pts.shape[1] - 1
    side = max(1, round(_HOLDER_TILE_NODES ** (1.0 / (n + 2))))
    tile_shape = np.array([max(1, _HOLDER_TILE_NODES // side**n)] + [side] * n)
    grid = -(-(offs.max(axis=0) + 1) // tile_shape)
    key = np.ravel_multi_index((offs // tile_shape).T, grid)
    order = np.argsort(key, kind="stable")
    _, start, count = np.unique(key[order], return_index=True, return_counts=True)
    nt, size = start.size, int(count.max())
    member = order[start[:, None] + np.minimum(np.arange(size), count[:, None] - 1)]
    TP, TV = pts[member], vals[member]
    lo, hi = TP.min(axis=1), TP.max(axis=1)
    vmin, vmax = TV.min(axis=1), TV.max(axis=1)

    entries = _SCRATCH_BYTES // (8 * (3 * n + 9))
    batch = max(1, entries // (size * size))
    rows_per_block = max(1, entries // nt)
    cols = np.arange(nt)

    def bounds(rows):
        """Bounds of the tile pairs (rows x all tiles); -inf where J <= I."""
        gap = np.maximum(np.maximum(lo - hi[rows, None], lo[rows, None] - hi), 0.0)
        dlb2 = gap[..., 0] ** 2
        for a in range(1, n):
            dlb2 = dlb2 + gap[..., a] ** 2
        dv = np.maximum(vmax[rows, None] - vmin, vmax - vmin[rows, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            b = dv / np.sqrt(dlb2 + gap[..., -1]) ** eta * (1.0 + _HOLDER_SLACK)
        return np.where(cols > rows[:, None], b, -np.inf)

    best = 0.0
    for k in range(0, nt, batch):
        tp, tv = TP[k : k + batch], TV[k : k + batch]
        best = max(best, _ratio_max(tp, tv, tp, tv, eta))
    row_max = np.concatenate(
        [bounds(cols[k : k + rows_per_block]).max(axis=1) for k in range(0, nt, rows_per_block)]
    )
    row_order = np.argsort(-row_max, kind="stable")
    for k in range(0, nt, rows_per_block):
        rows = row_order[k : k + rows_per_block]
        block = bounds(rows)
        for i, b in zip(rows, block):
            if row_max[i] <= best:
                return best
            J = np.flatnonzero(b > best)
            J = J[np.argsort(-b[J], kind="stable")]
            while J.size:
                Jb, J = J[:batch], J[batch:]
                best = max(best, _ratio_max(TP[i : i + 1], TV[i : i + 1], TP[Jb], TV[Jb], eta))
                J = J[: np.count_nonzero(b[J] > best)]
    return best


def discrete_holder_norm(
    u: MeshFunction,
    eta: float,
    region: np.ndarray | None = None,
) -> dict:
    """Discrete parabolic C^{0,eta} seminorm/norm of a mesh function.

    Parameters
    ----------
    u : MeshFunction
    eta : float in (0, 1]
    region : optional boolean mask over ``u.values`` restricting the node set.

    Returns
    -------
    dict with keys ``seminorm``, ``sup`` and ``norm`` (= seminorm + sup).
    The seminorm is the maximum over all node pairs, bit for bit; a
    branch-and-bound over tiles of nodes (``_holder_seminorm``) finds it
    with scratch memory under ``_SCRATCH_BYTES``.  Its last bit follows
    numpy's SIMD dispatch of ``d**eta``, so it can differ by one ulp on a CPU
    without AVX-512.
    """
    if not 0 < eta <= 1:
        raise GridError(f"eta must lie in (0, 1], got {eta}")
    spec = u.spec
    if region is None:
        region = np.ones(spec.shape, dtype=bool)
    region = np.asarray(region, dtype=bool)
    if region.shape != spec.shape:
        raise GridError("region mask shape mismatch")
    if not region.any():
        raise GridError("empty region")
    sup = float(np.max(np.abs(u.values[region])))

    offs = np.argwhere(region)
    pts = np.empty((offs.shape[0], spec.n + 1))
    for a in range(spec.n):
        pts[:, a] = spec.axis_coords(a)[offs[:, a + 1]]
    pts[:, -1] = spec.times()[offs[:, 0]]
    semi = _holder_seminorm(pts, offs, u.values[region], eta)
    return {"seminorm": semi, "sup": sup, "norm": semi + sup}
