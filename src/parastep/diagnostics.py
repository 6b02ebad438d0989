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

Evaluation: for a paraboloid probe, v - P over a node's backward cylinder
splits into a per-node and a per-probe part, so each probe family's
touching values form one min-plus product of a nodes x offsets matrix with
a probes x offsets matrix.  The falsifier screens that product one
cylinder offset at a time over tiles of nodes, flagging every (probe, node)
pair within the touch tolerance plus a stated rounding slack, then
re-decides only the flagged pairs with the direct per-offset evaluation, in
probe order and node order.
The certificates are exactly those of the direct evaluation over the whole
mesh, and the screen's arrays stay within ``_SCRATCH_BYTES`` (2 MiB)
instead of growing as offsets x nodes.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import numbers
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticsError, GridError, NonlinearityError
from .geometry import (
    _FP_SLACK,
    _SCRATCH_BYTES,
    KBox,
    MeshFunction,
    MeshSpec,
    _coerce_point,
    _is_int,
    lattice_directions,
    region_mask,
    second_quotient_field,
    shift,
)
from .nonlinearity import NonlinearityDescriptor, _apply_F, evaluate_F

__all__ = [
    "Paraboloid",
    "evaluate_paraboloid",
    "paraboloid_derivatives",
    "FalsifierConfig",
    "ViolationCertificate",
    "delta_falsifier",
    "replay_violation",
    "replay_violations",
    "certificates_to_rows",
    "psi_M_membership",
    "GoodSetReport",
    "good_set_measure",
    "opening_sweep",
]

_SYM_TOL = 1e-12

# Expansion fits (_expansion_fits): seed rows per node; rows added per node
# and round; exchange pivots per node and round, past which the node's fit is
# not certified, a DiagnosticsError (the longest exchange of the benchmark's
# verify sweep takes 15).
_FIT_SEED_ROWS = 24
_FIT_ADD_ROWS = 16
_FIT_PIVOTS = 200

# Bits of the Sobol' direction numbers, as scipy.stats.qmc.Sobol uses them.
_SOBOL_BITS = 30


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at the first call.  No package
    code calls it: only the benchmark's span wrappers bind it, and it goes
    once they read package spans (ROADMAP item 1(b))."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _npy_rows(member, d: int) -> np.ndarray:
    """The first d rows of the ``.npy`` array streamed by ``member``, read
    only (the table cache hands them to every caller).  A Fortran-order
    array is read one column at a time, keeping the first d entries of
    each, so no more than one column of it is held at once."""
    fmt = np.lib.format
    version = fmt.read_magic(member)
    header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
    shape, fortran, dtype = header(member)
    width = math.prod(shape[1:])
    if fortran:
        out = np.empty((d, width), dtype)
        for j in range(width):
            out[:, j] = np.frombuffer(member.read(shape[0] * dtype.itemsize), dtype)[:d]
        out.flags.writeable = False
        return out.reshape((d,) + shape[1:], order="F")
    return np.frombuffer(member.read(d * width * dtype.itemsize), dtype).reshape((d,) + shape[1:])


@functools.lru_cache(maxsize=16)
def _joe_kuo_table(d: int):
    """The first d Joe & Kuo (2008) primitive polynomials and rows of
    initial direction numbers that scipy ships, found without importing
    scipy.stats; the other 21,201 - d rows are read past, not kept."""
    (root,) = importlib.util.find_spec("scipy").submodule_search_locations
    with zipfile.ZipFile(os.path.join(root, "stats", "_sobol_direction_numbers.npz")) as npz:
        with npz.open("poly.npy") as poly, npz.open("vinit.npy") as vinit:
            return _npy_rows(poly, d), _npy_rows(vinit, d)


def _sobol(d: int, m: int, seed: int) -> np.ndarray:
    """The first m points of the d-dimensional Sobol' sequence with LMS and
    digital-shift scrambling (Matousek 1998), equal to
    ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random(m)``: the
    same direction numbers, the same draws from ``default_rng(seed)`` and
    the same gray-code order."""
    bits = _SOBOL_BITS
    if m > 1 << bits:
        raise DiagnosticsError(f"at most 2**{bits} Sobol' points, asked for {m}")
    poly, vinit = _joe_kuo_table(d)
    v = np.ones((d, bits), dtype=np.int64)
    for i in range(1, d):
        p = int(poly[i])
        deg = p.bit_length() - 1
        v[i, :deg] = vinit[i, :deg]
        for j in range(deg, bits):
            new = int(v[i, j - deg])
            for k in range(deg):
                if (p >> (deg - 1 - k)) & 1:
                    new ^= int(v[i, j - k - 1]) << (k + 1)
            v[i, j] = new
    lsb = np.arange(bits)
    msb = lsb[::-1]
    v <<= msb
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(d, bits), dtype=np.uint32).astype(np.int64) << lsb
    ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32)).astype(np.int64)
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # LMS: the MSB-first bit vector of each direction number times ltm, mod 2
    v = ((np.einsum("dpi,dji->djp", ltm, (v[:, :, None] >> msb) & 1) & 1) << msb).sum(axis=2)
    gray = np.arange(m) ^ (np.arange(m) >> 1)
    q = np.broadcast_to(shift.sum(axis=1), (m, d)).copy()
    for j in range(int(m - 1).bit_length()):
        q ^= ((gray[:, None] >> j) & 1) * v[:, j]
    return q * 2.0**-bits


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
        c, m = float(self.c), float(self.m)
        l = np.atleast_1d(np.asarray(self.l, dtype=float))
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        Q = np.array(self.Q, dtype=float)
        if Q.ndim == 0:
            Q = Q.reshape(1, 1)
        n = len(l)
        if a.shape != (n,) or Q.shape != (n, n):
            raise DiagnosticsError(
                f"paraboloid pieces disagree: l {l.shape}, a {a.shape}, Q {Q.shape}"
            )
        if not np.isfinite(np.concatenate(([c, m], l, a, Q.ravel()))).all():
            raise DiagnosticsError("paraboloid pieces must be finite")
        if (Q != Q.T).any():
            with np.errstate(over="ignore"):  # an overflowing difference is refused too
                skew = np.max(np.abs(Q - Q.T))
            if skew > _SYM_TOL * (1.0 + np.max(np.abs(Q))):
                raise DiagnosticsError("Q must be symmetric")
            Q = 0.5 * Q + 0.5 * Q.T  # halves first, so that no finite Q overflows
        for name, value in dict(c=c, l=l, m=m, a=a, Q=Q).items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.l)


def evaluate_paraboloid(P: Paraboloid, point) -> float:
    """P at one (x, t) point, by :func:`_paraboloid_values`."""
    p = _coerce_point(point)
    if p.n != P.n:
        raise DiagnosticsError(f"dimension mismatch: paraboloid n={P.n}, point n={p.n}")
    x = np.asarray(p.x, dtype=float).reshape(1, 1, P.n)
    return float(_paraboloid_values(*_paraboloid_arrays([P]), x, np.array([[p.t]]))[0, 0])


def _paraboloid_arrays(Ps):
    """The pieces (c, l, m, a, Q) of k paraboloids as arrays (k,), (k, n), (k,), (k, n), (k, n, n)."""
    return (
        np.array([P.c for P in Ps]),
        np.array([P.l for P in Ps]),
        np.array([P.m for P in Ps]),
        np.array([P.a for P in Ps]),
        np.array([P.Q for P in Ps]),
    )


def _paraboloid_values(c, l, m, a, Q, X, T) -> np.ndarray:
    """Paraboloid k, stacked as :func:`_paraboloid_arrays` gives it, at the
    points (X[k, p], T[k, p]): a (k, p) array.  Each product is a stacked
    (1, n) @ (n, 1) or (1, n) @ (n, n), so every value rounds as one point's
    ``c + l @ x + m * t + (a @ x) * t + x @ Q @ x`` does; an einsum does not."""
    x = X[..., None, :]
    lx = (x @ l[:, None, :, None])[..., 0, 0]
    ax = (x @ a[:, None, :, None])[..., 0, 0]
    xQx = (x @ Q[:, None] @ x.swapaxes(-1, -2))[..., 0, 0]
    return c[:, None] + lx + m[:, None] * T + ax * T + xQx


def paraboloid_derivatives(P: Paraboloid, point) -> tuple[float, np.ndarray]:
    """(P_t at the point, D^2 P).  P_t = m + a.x; D^2 P = 2 Q everywhere."""
    p = _coerce_point(point)
    if p.n != P.n:
        raise DiagnosticsError(f"dimension mismatch: paraboloid n={P.n}, point n={p.n}")
    return float(P.m + P.a @ np.asarray(p.x)), 2.0 * P.Q


def _centered_to_absolute(c, l, m, a, Q, x, t) -> Paraboloid:
    """Rewrite c + l.dy + m ds + (a.dy) ds + dy.Q.dy, dy = y - x, ds = s - t,
    as a paraboloid in absolute coordinates; l, a, Q and x are float arrays
    (n,), (n,), (n, n) and (n,), and :class:`Paraboloid` checks the result."""
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

    def __post_init__(self):
        for name in ("samples", "max_violations"):
            if not _is_int(getattr(self, name)):
                raise DiagnosticsError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_violations < 1:
            raise DiagnosticsError("max_violations must be at least 1")
        if self.samples < 0:
            raise DiagnosticsError("samples must be nonnegative")
        if not _is_int(self.seed) or self.seed < 0:
            raise DiagnosticsError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name in ("touch_tol", "violation_tol"):
            tol = getattr(self, name)
            if tol is not None and not (tol >= 0 and math.isfinite(tol)):
                raise DiagnosticsError(f"{name} must be nonnegative and finite, got {tol!r}")

    @classmethod
    def with_grid_touch(cls, spec: MeshSpec, c_touch: float = 10.0, **kw) -> "FalsifierConfig":
        """Grid-resolution touching (c_touch * h^2) instead of the tight default."""
        return cls(touch_tol=c_touch * spec.tau, **kw)


@dataclass(frozen=True)
class ViolationCertificate:
    """A replayable counterexample to one delta-viscosity inequality; its
    ``side`` must be ``super`` or ``sub``, its ``delta`` finite and positive,
    its ``margin`` and ``touch_gap`` finite and its ``probe`` a str with no
    whitespace, which would split its row, and its node ints or numpy
    integers, not bools (DiagnosticsError).  The node is stored as a tuple
    of ints, the three numbers as Python floats."""

    node: tuple
    side: str
    paraboloid: Paraboloid
    margin: float
    touch_gap: float
    delta: float
    probe: str

    def __post_init__(self):
        if self.side not in ("super", "sub"):
            raise DiagnosticsError(f"side must be 'super' or 'sub', got {self.side!r}")
        if not isinstance(self.probe, str) or any(ch.isspace() for ch in self.probe):
            raise DiagnosticsError(f"probe must be a str with no whitespace, got {self.probe!r}")
        for name in ("delta", "margin", "touch_gap"):
            value = getattr(self, name)
            if not math.isfinite(value) or name == "delta" and not value > 0:
                rule = "a finite positive number" if name == "delta" else "finite"
                raise DiagnosticsError(f"{name} must be {rule}, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not all(map(_is_int, self.node)):
            raise DiagnosticsError(f"node must hold ints, got {self.node!r}")
        object.__setattr__(self, "node", tuple(int(i) for i in self.node))

    def row(self) -> str:
        P = self.paraboloid
        return " ".join(
            f"{key}={text(getattr(P if key in _PIECES else self, key))}"
            for key, (text, _) in _ROW_FIELDS.items()
        )


def _joined(values) -> str:
    return ",".join(map(repr, np.ravel(values).tolist()))


def _floats(text: str) -> list[float]:
    return [float(s) for s in text.split(",")]


# The fields of a certificate row, in row order, each with its text form and
# its parser; the paraboloid's pieces come last, Q flat in C order.  Floats
# are written with ``repr``, so they read back exactly.
_PIECES = ("c", "l", "m", "a", "Q")
_ROW_FIELDS = dict(
    side=(str, str),
    node=(_joined, lambda text: tuple(int(s) for s in text.split(","))),
    delta=(repr, float),
    margin=(repr, float),
    touch_gap=(repr, float),
    probe=(str, str),
    c=(repr, float),
    l=(_joined, _floats),
    m=(repr, float),
    a=(_joined, _floats),
    Q=(_joined, _floats),
)


def certificates_to_rows(certs) -> list[str]:
    return [c.row() for c in certs]


def row_to_certificate(row: str) -> ViolationCertificate:
    """Inverse of :meth:`ViolationCertificate.row`, by the same field table.

    The probe label is the only field that may itself contain an ``=``.
    Each field is taken once, so a repeated field or one left over is
    refused; so is every number that is not finite.
    """
    kv = {}
    for field in row.split():
        key, sep, val = field.partition("=")
        if not sep:
            raise DiagnosticsError(f"malformed certificate field {field!r}")
        if key in kv:
            raise DiagnosticsError(f"repeated certificate field {key!r}")
        kv[key] = val
    try:
        fields = {key: parse(kv.pop(key)) for key, (_, parse) in _ROW_FIELDS.items()}
        c, l, m, a, Q = (fields.pop(key) for key in _PIECES)
        P = Paraboloid(c, l, m, a, np.reshape(Q, (len(l), len(l))))
    except KeyError as exc:
        raise DiagnosticsError(f"certificate row missing field {exc}") from None
    except ValueError as exc:
        raise DiagnosticsError(f"malformed certificate row: {exc}") from None
    if kv:
        raise DiagnosticsError(f"unknown certificate field {next(iter(kv))!r}")
    return ViolationCertificate(paraboloid=P, **fields)


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


def _margins(F, m, Q, shape):
    """m - F(2Q) broadcast to ``shape``, for Q that the falsifier built
    exactly symmetric, so only :func:`evaluate_F`'s finiteness rule is kept:
    a row (..., n, n) of Q with a NaN entry gets a NaN margin, and an
    infinite entry, or a NaN in a single matrix, raises NonlinearityError."""
    Q = np.asarray(Q, dtype=float)
    finite = np.isfinite(Q)
    if finite.all():
        FQ = _apply_F(F, 2.0 * Q)
    elif Q.ndim == 2 or np.isinf(Q).any():
        raise NonlinearityError("matrix entries must be finite")
    else:
        FQ = np.where(finite.all(axis=(-2, -1)), _apply_F(F, 2.0 * np.where(finite, Q, 0.0)), np.nan)
    return np.broadcast_to(np.asarray(m, dtype=float) - FQ, shape)


def delta_falsifier(
    v: MeshFunction,
    F: NonlinearityDescriptor,
    delta: float,
    side: str = "super",
    config: FalsifierConfig | None = None,
) -> list[ViolationCertificate]:
    """Search for paraboloids falsifying the delta-viscosity inequality.

    For each interior node where the backward delta-cylinder fits in the domain
    (:meth:`MeshSpec.cylinder_fits`) and each probe (l, m, Q), the constant is chosen
    so the probe touches v from below (super) or above (sub) over the cylinder's mesh
    nodes.  When the touching point is the center and the margin m - F(2Q) has the
    forbidden sign beyond ``violation_tol``, a certificate is recorded.

    The probes come in three families, in this order: the osculating probe
    (the local model: central gradient, backward slope, half-Hessian), the
    opening battery (the gradient with m = +-M and Q = +-(M/2) I, all four
    sign pairs, for three M) and the Sobol probes (the local model plus a
    scaled quasi-random perturbation xi).  The battery's M is at least ``4e-9 (1 + sup|v|) / tau``, so each of
    its probes bends by at least twice the default ``touch_tol`` at the
    nearest spatial node; a lower floor let it "touch" constant and affine
    grids everywhere.  The floor follows the default tolerance, not
    ``config.touch_tol``: tied to a grid-resolution tolerance (c h^2), it
    left the battery no certificate on noisy computed grids.  Over the
    cylinder offsets o = (d, dt), ``spec.cylinder_steps(delta)`` times h and
    tau, v - P splits into a per-node and a per-probe part, so a family's
    touching values are one min-plus product
    (max-plus on the ``sub`` side) ``w[r, node] = min_o (B[node, o] - D[r, o])``
    of ``B_lin = v(node + o) - grad.d`` or ``B = B_lin - slope dt - d.Qhat.d``
    with ``D = 0`` (osculating, on B), ``m dt + d.Q.d`` (battery, on B_lin)
    or ``s_l xi_l.d + s_m xi_m dt + s_q d.dQ.d`` (Sobol, on B).

    Screen, then confirm.  The product rounds differently from evaluating a
    probe's paraboloid directly, so it only screens: it flags each
    (probe, node) pair whose gap is at most ``touch_tol + slack``, with
    ``slack = 4 (n+2)^2 eps T`` and T the sum of the bounds on |v|, |l.d|,
    |m dt| and |d.Q.d| over the family and the offsets.  Counting the
    rounding steps of both evaluations, their gaps differ by at most
    ``(3 n^2 + n + 19) (eps/2) T`` while ``touch_tol <= 4 T`` (a larger
    tolerance flags every pair anyway), so every pair that passes the
    direct test is flagged.  Each probe's flagged nodes are then re-decided,
    in probe order and C node order, by the direct per-offset evaluation:
    the margin first, so that F (an eigen-solve per node for Pucci or
    Isaacs operators) runs at flagged nodes only, then the touching value
    and the gap where the margin has the forbidden sign.  The margin is
    built from the probe's m and Q alone, and F skips ``evaluate_F``'s
    symmetry check on those Q, which the falsifier builds exactly symmetric;
    a NaN entry still gives a NaN margin and an infinite one still raises
    NonlinearityError.  The certificates,
    and where ``max_violations`` cuts them, are therefore exactly those of
    the direct evaluation of every probe at every node.

    Memory: one chunk of probes' flags (a byte per probe and node) and one
    tile of nodes (one offset's hits and 6 + n + n^2 node vectors) take at
    most ``_SCRATCH_BYTES`` (2 MiB) together, next to the mesh-sized
    local model; no array is offsets x mesh or offsets x tile.

    Returns the certificate list; empty means "nothing found", not a proof.
    """
    spec = v.spec
    n = spec.n
    if side not in ("super", "sub"):
        raise DiagnosticsError(f"side must be 'super' or 'sub', got {side!r}")
    if F.dimension != n:
        raise DiagnosticsError(f"F has dimension {F.dimension}, mesh has {n}")
    cell = spec.h * math.sqrt(n + 1)
    if not (math.isfinite(delta) and delta >= cell * (1.0 - _FP_SLACK)):
        raise DiagnosticsError(
            f"delta = {delta} must be finite and at least the parabolic cell diameter {cell}"
        )
    cfg = config or FalsifierConfig()
    scale = 1.0 + float(np.max(np.abs(v.values)))
    touch_tol = cfg.touch_tol if cfg.touch_tol is not None else 1e-9 * scale
    viol_tol = cfg.violation_tol if cfg.violation_tol is not None else 1e-9 * scale

    eligible = spec.classification().interior & spec.cylinder_fits(delta)
    if not eligible.any():
        raise DiagnosticsError(
            f"no node admits a delta-cylinder with delta = {delta}; enlarge the mesh"
        )

    steps = spec.cylinder_steps(delta)
    d = spec.h * steps[:, 1:]
    dts = spec.tau * steps[:, 0]
    O = len(steps)
    dd = (d[:, :, None] * d[:, None, :]).reshape(O, n * n)
    phi = np.column_stack([d, dts, dd])  # the offsets' features, matching the local model
    # Nodes as flat (C order) indices; the gather at node + step needs the
    # whole cylinder in the mesh, which the fit rule gives and ``whole`` guards.
    at = np.argwhere(eligible)
    whole = np.all(
        (at + steps.min(axis=0) >= 0) & (at + steps.max(axis=0) < spec.shape), axis=1
    )
    nodes = np.ravel_multi_index(tuple(at[whole].T), spec.shape)
    step = steps @ np.cumprod((1,) + spec.shape[:0:-1])[::-1]
    vals = np.ascontiguousarray(v.values).ravel()

    grad, slope, Qhat = _local_model(v)
    with np.errstate(invalid="ignore"):
        s_l = float(np.nanmax(np.abs(grad))) if not np.isnan(grad).all() else 0.0
        s_m = float(np.nanmax(np.abs(slope))) if not np.isnan(slope).all() else 0.0
        s_q = float(np.nanmax(np.abs(Qhat))) if not np.isnan(Qhat).all() else 0.0
    grad = grad.reshape(-1, n)
    slope = slope.reshape(-1)
    Qhat = Qhat.reshape(-1, n, n)
    columns = [*grad.T, slope, *Qhat.reshape(-1, n * n).T]  # the model, one view per feature

    def quad_rows(Qs):
        """d_o.Q_r.d_o as an (r, o) matrix."""
        return Qs.reshape(len(Qs), n * n) @ dd.T

    def slack(l_max, m_max, q_max):
        d1 = float(np.abs(d).sum(axis=1).max())
        T = (scale - 1.0) + l_max * d1 + m_max * float(np.abs(dts).max()) + q_max * d1**2
        return 4.0 * (n + 2) ** 2 * np.finfo(float).eps * T

    def families():
        """(names, l_at, mq_at, D, on_B, slack) per probe family, where
        ``l_at(r, S)`` and ``mq_at(r, S)`` are probe r's l and (m, Q) at the flat
        nodes S, built as the direct evaluation builds them; the margin reads
        (m, Q) only."""
        yield (
            ["osculating"],
            lambda r, S: grad[S],
            lambda r, S: (slope[S], Qhat[S]),
            np.zeros((1, O)),
            True,
            slack(s_l, s_m, s_q),
        )
        if cfg.include_battery:
            base = max(s_m, 2.0 * n * s_q, 16e-9 * scale / spec.tau)
            eye = np.eye(n)
            battery = [
                (f"opening_battery(M={M:.3g})", ms * M, qs * (M / 2.0) * eye)
                for M in (0.25 * base, base, 4.0 * base)
                for qs in (1.0, -1.0)
                for ms in (-1.0, 1.0)
            ]
            yield (
                [name for name, _, _ in battery],
                lambda r, S: grad[S],
                lambda r, S: battery[r][1:],
                np.array([m for _, m, _ in battery])[:, None] * dts
                + quad_rows(np.array([Q for _, _, Q in battery])),
                False,
                slack(s_l, 4.0 * base, 2.0 * base),
            )
        if cfg.samples > 0:
            xi = 2.0 * _sobol(n + 1 + n * (n + 1) // 2, cfg.samples, cfg.seed) - 1.0
            dQ = np.zeros((cfg.samples, n, n))
            dQ[(slice(None),) + np.triu_indices(n)] = xi[:, n + 1 :]
            dQ = 0.5 * (dQ + dQ.transpose(0, 2, 1))
            yield (
                [f"sobol[{r}]" for r in range(cfg.samples)],
                lambda r, S: grad[S] + s_l * xi[r, :n],
                lambda r, S: (slope[S] + s_m * xi[r, n], Qhat[S] + s_q * dQ[r]),
                s_l * xi[:, :n] @ d.T + s_m * xi[:, n : n + 1] * dts + s_q * quad_rows(dQ),
                True,
                slack(2.0 * s_l, 2.0 * s_m, 2.0 * s_q),
            )

    sign = 1.0 if side == "super" else -1.0
    extremum = np.minimum if side == "super" else np.maximum
    fits = np.less_equal if side == "super" else np.greater_equal

    def screen(D, on_B, tol):
        """Flags (probes x nodes): screened gap at most tol.

        gap = sign (v - min_o (B - D)) <= tol holds iff every offset o has
        D[r, o] <= B[node, o] - v + tol (super) or >= B - v - tol (sub), so
        the product is tested on booleans, one offset at a time over a tile
        of nodes.  A tile takes half of ``_SCRATCH_BYTES``: one offset's
        hits (a byte per probe and node) and 6 + n + n^2 node vectors of 8
        bytes (v - sign tol, the model's columns, and an offset's gather
        index, its B column and the previous offset's, and a scratch term)."""
        K = len(nodes)
        flags = np.ones((len(D), K), dtype=bool)
        tile = max(1, _SCRATCH_BYTES // 2 // (len(D) + 8 * (6 + n + n * n)))
        hit = np.empty(len(D) * min(tile, K), dtype=bool)
        for k0 in range(0, K, tile):
            S = nodes[k0 : k0 + tile]
            base = vals[S] - sign * tol
            model = [col[S] for col in (columns if on_B else columns[:n])]
            term = np.empty(len(S))
            f = flags[:, k0 : k0 + len(S)]
            h = hit[: f.size].reshape(f.shape)
            for o in range(O):
                c = vals[S + step[o]]
                c -= base
                for p, z in zip(phi[o], model):
                    c -= np.multiply(p, z, out=term)
                f &= fits(D[:, o, None], c, out=h)
        return flags

    def screened(D, on_B, tol):
        """Yield (r, flat nodes flagged by the screen) per probe r, for probes
        in chunks whose flags take half of ``_SCRATCH_BYTES``."""
        chunk = max(1, min(len(D), _SCRATCH_BYTES // 2 // max(1, len(nodes))))
        for r0 in range(0, len(D), chunk):
            flags = screen(D[r0 : r0 + chunk], on_B, tol)
            for i in range(len(flags)):
                yield r0 + i, nodes[flags[i]]
            del flags  # before the next chunk's flags exist

    certs: list[ViolationCertificate] = []
    for names, l_at, mq_at, D, on_B, family_slack in families():
        for r, S in screened(D, on_B, touch_tol + family_slack):
            if not S.size:
                continue
            with np.errstate(invalid="ignore"):
                margin = _margins(F, *mq_at(r, S), S.shape)
                forbidden = sign * margin < -viol_tol
            if not forbidden.any():
                continue
            S, margin = S[forbidden], margin[forbidden]
            l_f = l_at(r, S)
            m_f, Q_f = mq_at(r, S)
            m_f, Q_f = np.broadcast_to(m_f, S.shape), np.broadcast_to(Q_f, S.shape + (n, n))
            w_ext = None
            for o, (dk, dt) in enumerate(zip(d, dts)):
                lin = np.einsum("...i,i->...", l_f, dk)
                quad = np.einsum("i,...ij,j->...", dk, Q_f, dk)
                w = vals[S + step[o]] - (lin + m_f * dt + quad)
                w_ext = w if w_ext is None else extremum(w_ext, w)
            with np.errstate(invalid="ignore"):
                gap = sign * (vals[S] - w_ext)
                bad = gap <= touch_tol
            for i in np.flatnonzero(bad):
                node = spec.index_from_offset(np.unravel_index(S[i], spec.shape))
                x = np.asarray(node[:-1], dtype=float) * spec.h
                P = _centered_to_absolute(w_ext[i], l_f[i], m_f[i], np.zeros(n), Q_f[i], x, node[-1] * spec.tau)
                certs.append(
                    ViolationCertificate(
                        node=node,
                        side=side,
                        paraboloid=P,
                        margin=margin[i],
                        touch_gap=gap[i],
                        delta=delta,
                        probe=names[r],
                    )
                )
                if len(certs) >= cfg.max_violations:
                    return certs
    return certs


def replay_violation(
    cert: ViolationCertificate, v: MeshFunction, F: NonlinearityDescriptor
) -> dict:
    """Replay one certificate: :func:`replay_violations` of ``[cert]``, the
    one replay route, with its result dict and its refusals."""
    return replay_violations([cert], v, F)[0]


def replay_violations(
    certs: list[ViolationCertificate], v: MeshFunction, F: NonlinearityDescriptor
) -> list[dict]:
    """Re-run each certificate on its backward cylinder, ``spec.node_steps(delta)``
    about its node, with arithmetic of the replay's own, not the falsifier's.  A
    certificate is ``touching`` if P is on its side of v there and its gap at the
    node is at most the recorded one plus 1e-9 (1 + sup|v| on the cylinder), and
    ``valid`` if the margin P_t - F(D^2 P) at the node also has the forbidden
    sign.  Returns one dict per certificate, in order: ``valid``, ``touching``,
    ``touch_gap``, ``margin`` and ``margin_matches`` (within 1e-9 relative).

    Certificates are grouped by delta, and a group's mesh-side work runs once
    over chunks of at most ``_SCRATCH_BYTES``: the fit at the middle node,
    the :meth:`MeshSpec.cylinder_fits` mask, one gather of certificates x steps
    and one side test.  Refusals are those of a loop over the certificates in
    order: the first certificate refused raises, with the first of its own
    refusals in this order: a node or paraboloid of another dimension; a delta
    whose cylinder fits at no node, before any step is built; a cylinder node
    off the mesh (a GridError names the first, in step order); a node where
    ``cylinder_fits`` fails.  F refuses (``evaluate_F``) only the matrices of
    certificates before it."""
    spec, n = v.spec, v.spec.n
    vals = v.values.ravel()
    first = [len(certs), None]  # the first refused certificate and its error

    def refuse(i, exc):
        if i < first[0]:
            first[:] = [i, exc]

    groups: dict[float, list[int]] = {}
    for i, cert in enumerate(certs):
        if len(cert.node) != n + 1 or cert.paraboloid.n != n:
            refuse(i, DiagnosticsError(f"certificate node {cert.node} does not live on a {n}-D mesh"))
        else:
            groups.setdefault(cert.delta, []).append(i)

    side_ok = np.zeros(len(certs), dtype=bool)
    vscale = np.zeros(len(certs))
    for delta, members in groups.items():
        if not spec.cylinder_fits(delta, spec.middle_node()):
            refuse(members[0], DiagnosticsError(f"delta = {delta!r} is too large for the mesh"))
            continue
        steps = spec.node_steps(delta)
        fits = spec.cylinder_fits(delta).ravel()
        chunk = max(1, _SCRATCH_BYTES // (8 * (2 * n + 12) * len(steps)))
        for c0 in range(0, len(members), chunk):
            rows = np.array(members[c0 : c0 + chunk])
            nodes = np.array([certs[i].node for i in rows], dtype=np.int64)
            idx = nodes[:, None, :] + steps
            flat = spec.flat_offsets(idx.reshape(-1, n + 1)).reshape(len(rows), len(steps))
            absent = flat < 0
            off_mesh = absent.any(axis=1)
            if off_mesh.any():
                k = int(np.argmax(off_mesh))
                try:
                    spec.offset(idx[k, np.argmax(absent[k])].tolist())
                except GridError as exc:
                    refuse(rows[k], exc)
            loose = ~off_mesh & ~fits[spec.flat_offsets(nodes)]
            if loose.any():
                k = int(np.argmax(loose))
                node = tuple(int(i) for i in nodes[k])
                refuse(
                    rows[k], DiagnosticsError(f"node {node}: its delta = {delta!r} cylinder leaves the domain")
                )
            keep = ~(off_mesh | loose)
            if not keep.any():
                continue
            rows, idx, flat = rows[keep], idx[keep], flat[keep]
            pieces = _paraboloid_arrays([certs[i].paraboloid for i in rows])
            pvals = _paraboloid_values(*pieces, idx[..., :-1] * spec.h, idx[..., -1] * spec.tau)
            vvals = vals[flat]
            sign = _signs([certs[i] for i in rows])
            vscale[rows] = 1.0 + np.abs(vvals).max(axis=1)
            side_ok[rows] = (sign[:, None] * (vvals - pvals)).min(axis=1) >= -1e-9 * vscale[rows]

    done = certs[: first[0]]
    reps = []
    if done:
        nodes = np.array([cert.node for cert in done], dtype=np.int64)
        c, l, m, a, Q = _paraboloid_arrays([cert.paraboloid for cert in done])
        x = nodes[:, None, :-1] * spec.h
        center = _paraboloid_values(c, l, m, a, Q, x, nodes[:, -1:] * spec.tau)[:, 0]
        sign = _signs(done)
        touch_gap = sign * (vals[spec.flat_offsets(nodes)] - center)
        recorded = np.array([cert.touch_gap for cert in done])
        touching = side_ok[: len(done)] & (touch_gap <= recorded + 1e-9 * vscale[: len(done)])
        with np.errstate(over="ignore"):  # evaluate_F refuses what overflows
            D2P = 2.0 * Q
        if F.dimension != n:
            evaluate_F(F, D2P[0])  # refused as one certificate's matrix is
        margin = (m + (x @ a[:, :, None])[:, 0, 0]) - evaluate_F(F, D2P)
        want = np.array([cert.margin for cert in done])
        matches = np.abs(margin - want) <= 1e-9 * (1.0 + np.abs(want))
        valid = touching & (sign * margin < 0.0)
        reps = [
            {"valid": bool(ok), "touching": bool(t), "touch_gap": g, "margin": mg, "margin_matches": bool(mm)}
            for ok, t, g, mg, mm in zip(valid, touching, touch_gap.tolist(), margin.tolist(), matches)
        ]
    if first[1] is not None:
        raise first[1]
    return reps


def _signs(certs) -> np.ndarray:
    """+1 for each ``super`` certificate, -1 for each ``sub`` one."""
    return np.array([1.0 if cert.side == "super" else -1.0 for cert in certs])


# ---------------------------------------------------------------------------
# expansion-budget membership and the good set
# ---------------------------------------------------------------------------


def _quad_features(dx: np.ndarray) -> np.ndarray:
    """Columns multiplying the free entries of symmetric Q in dy.Q.dy:
    dy_i^2 on the diagonal, 2 dy_i dy_j off it (dx is (..., n))."""
    n = dx.shape[-1]
    cols = [dx[..., i] * dx[..., i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cols.append(2.0 * dx[..., i] * dx[..., j])
    return np.stack(cols, axis=-1)


def _qvec_to_matrix(q: np.ndarray, n: int) -> np.ndarray:
    Q = np.zeros((n, n))
    Q[np.diag_indices(n)] = q[:n]
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            Q[i, j] = Q[j, i] = q[k]
            k += 1
    return Q


def _exceeds(ratio, level):
    """ratio > level beyond the fits' stop rule, level (1 + 1e-9) + 1e-12."""
    return ratio > level * (1.0 + 1e-9) + 1e-12


def _inverses(B: np.ndarray) -> np.ndarray:
    """The inverse of each matrix of a stack, NaN for a singular one."""
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError:
        out = np.full_like(B, np.nan)
        for i, b in enumerate(B):
            try:
                out[i] = np.linalg.inv(b)
            except np.linalg.LinAlgError:
                pass
        return out


def _basis(a: np.ndarray, b: np.ndarray, code: np.ndarray):
    """The basis matrix B and costs c of each node's reference.

    Slot c of a reference holds ``code`` 2 i + (sign < 0) for row i taken
    with that sign, whose column is (sign a_i, 1) with cost sign b_i, or
    -1 - j for the artificial unit column e_j of a parameter j that no row
    of the node moves (cost 0)."""
    P, m, k = a.shape
    real = code >= 0
    row = np.where(real, code >> 1, 0)
    sign = np.where(code & 1, -1.0, 1.0)
    pick = np.arange(P)[:, None]
    B = np.zeros((P, k + 1, k + 1))
    B[:, :k, :] = np.where(real[:, None, :], (a[pick, row] * sign[..., None]).transpose(0, 2, 1), 0.0)
    B[:, k, :] = real
    art, slot = np.nonzero(~real)
    B[art, -1 - code[art, slot], slot] = 1.0
    return B, np.where(real, sign * b[pick, row], 0.0)


def _reference(a: np.ndarray, live: np.ndarray):
    """A first reference of k + 1 slots per node, with valid dual signs.

    Gaussian elimination with partial pivoting picks one row for every
    parameter it can pivot on; a parameter whose column is zero on all of a
    node's rows, or depends on the picked ones, gets its artificial column.
    One more row (the first free one, or a padding row) completes the
    reference, and the signs of the null vector mu of the picked rows'
    features (mu = 1 on the extra row) make lambda = |mu| / sum |mu| a
    feasible dual.  Returns the codes of :func:`_basis` and a flag per node
    whose mu is not finite."""
    P, m, k = a.shape
    pick = np.arange(P)
    zero = ~(a != 0).any(axis=1)
    scale = np.maximum(a.max(axis=1), -a.min(axis=1))
    W = a.transpose(0, 2, 1).copy()  # W[:, j] is parameter j's column
    free = live.copy()
    code = np.empty((P, k + 1), dtype=np.int64)
    for j in range(k):
        i = np.where(free, np.abs(W[:, j]), -1.0).argmax(axis=1)
        piv = W[pick, j, i]
        take = ~zero[:, j] & free[pick, i] & (np.abs(piv) > 1e-9 * scale[:, j])
        code[:, j] = np.where(take, i, -1 - j)
        free[pick[take], i[take]] = False
        f = np.where(take[:, None], W[:, j] / np.where(take, piv, 1.0)[:, None], 0.0)
        for c in range(j + 1, k):  # the columns still to pivot on
            W[:, c] -= f * W[pick, c, i][:, None]
    # the extra row: the first free live one, else the first padding slot
    slots = np.arange(m)
    code[:, k] = np.where(free, slots, np.where(live, 3 * m, m + slots)).argmin(axis=1)
    real = code >= 0
    code = np.where(real, 2 * code, code)
    G = _basis(a, np.zeros((P, m)), code)[0][:, :k]
    mu = -np.einsum("pij,pj->pi", _inverses(G[:, :, :k]), G[:, :, k])
    code[:, :k] += real[:, :k] & (mu < 0)
    return code, ~np.isfinite(mu).all(axis=1)


def _exchange(a: np.ndarray, b: np.ndarray, live: np.ndarray, code: np.ndarray):
    """Exact weighted Chebyshev fits min_p max_i |b_i - a_i.p| over the live
    rows of each node (a is nodes x rows x k), from the dual-feasible
    references ``code`` (see :func:`_basis`), for all nodes at once.

    This is the dual simplex of Barrodale and Phillips (ACM TOMS 1, 1975) on
    a batch of (k+1) x (k+1) bases B, whose inverses are taken once and then
    updated by each pivot's eta matrix.  Each step levels the errors on
    every node's reference, B^T (p, z) = c, with one refinement step, and
    reads the dual weights lambda = B^-1 e_(k+1).  A row whose
    error exceeds z (1 + 1e-9) + 1e-12 enters with the sign of its error,
    and the ratio test on lambda picks the slot that leaves.  The most
    violated row (largest error) enters.  The node's order of rows, fixed
    for the whole exchange, ranks them worst first at the starting
    reference; it breaks entering ties, and ratio ties leave in it.  Only a
    pivot with a zero weight leaves z unchanged, and only such pivots can
    cycle: after k + 1 of them in a row, the node enters by Bland's rule
    instead (the first violated row in its order) until z rises, so the
    exchange cannot cycle.

    A node stops when no row but a levelled reference row exceeds z, and is
    certified when, besides, no live row at all exceeds z (1 + 1e-9) +
    1e-12 and lambda >= -1e-9 on its rows with no weight on its artificial
    slots: then z = sum lambda_i sign_i b_i is a lower bound of the fit over
    any superset of its rows.

    Returns ``(ok, y, code)``: certified nodes, their (p, z) and their final
    references.  A node with a singular reference, a non-finite value or
    more than ``_FIT_PIVOTS`` pivots is not ok."""
    P, m, k = a.shape
    B, cost = _basis(a, b, code)
    Binv = _inverses(B)
    code = code.copy()
    ok = np.zeros(P, dtype=bool)
    y_out = np.full((P, k + 1), np.nan)
    code_out = code.copy()
    ids = np.arange(P)
    alive = np.ones(P, dtype=bool)  # a stopped node keeps its state until the batch is halved
    z_prev = np.full(P, -np.inf)
    stall = np.zeros(P, dtype=np.int64)  # pivots in a row that left z unchanged
    pick = np.arange(P)
    for step in range(_FIT_PIVOTS + 1):
        y = np.einsum("pc,pcj->pj", cost, Binv)
        y += np.einsum("pc,pcj->pj", cost - np.einsum("pjc,pj->pc", B, y), Binv)
        lam = Binv[:, :, k]
        err = (a @ y[:, :k, None])[..., 0]
        err = np.subtract(b, err, out=err)
        # a reference row whose error has its slot's sign is levelled at z:
        # its column is basic, so it cannot enter, however the error rounds
        real = code >= 0
        row = np.where(real, code >> 1, 0)
        level = real & (err[pick[:, None], row] * np.where(code & 1, -1.0, 1.0) >= 0)
        neg = err < 0
        err = np.abs(err, out=err)
        viol = _exceeds(err, y[:, k : k + 1]) & live
        over = viol.any(axis=1)
        if step == 0:
            # Bland's order of the rows: worst first at the starting reference
            # (sorted on -err in err's own buffer; a dead row ends at -inf,
            # and no dead row is violated)
            np.negative(err, out=err)
            np.putmask(err, ~live, np.inf)
            order = np.argsort(err, axis=1, kind="stable")
            np.negative(err, out=err)
            rank = np.empty(order.shape, dtype=np.int16 if m < 2**14 else np.int64)
            rank[pick[:, None], order] = np.arange(m)
            del order
        viol[np.nonzero(level)[0], row[level]] = False
        np.putmask(err, ~viol, -1.0)  # the errors of the violated rows, -1 elsewhere
        worst = err.max(axis=1)
        # lambda is column k of B^-1, so a finite z means a finite lambda
        finite = np.isfinite(y).all(axis=1)
        stop = worst < 0
        done = alive & stop & finite & ~over
        if done.any():
            done[done] = np.where(real[done], lam[done] >= -1e-9, np.abs(lam[done]) <= 1e-9).all(axis=1)
            ok[ids[done]] = True
            y_out[ids[done]] = y[done]
            code_out[ids[done]] = code[done]
        go = alive & ~stop & finite
        if step == _FIT_PIVOTS or not go.any():
            break
        # a rise within rounding counts as none, which only hastens Bland's rule
        stall = np.where(y[:, k] - z_prev > 1e-12 * np.abs(y[:, k]), 0, stall + 1)
        z_prev = y[:, k]
        # the most violated row enters, or after a stall the first violated
        # one (error >= 0), ties to the first in the order
        enter = np.where(err >= np.where(stall > k, 0.0, worst)[:, None], rank, m).argmin(axis=1)
        flip = neg[pick, enter]
        sign = np.where(flip, -1.0, 1.0)
        q = np.concatenate([sign[:, None] * a[pick, enter], np.ones((len(sign), 1))], axis=1)
        d = np.einsum("pij,pj->pi", Binv, q)
        # the ratio test: a weight at rounding level is a zero one, so that
        # degenerate ties are exact; ties leave in the order
        elig = real & (d > 1e-11 * np.abs(d).max(axis=1, keepdims=True))
        theta = np.divide(np.where(lam > 1e-11, lam, 0.0), d, out=np.full_like(d, np.inf), where=elig)
        leave = np.lexsort((2 * rank[pick[:, None], row] + (code & 1), theta), axis=1)[:, 0]
        go &= elig.any(axis=1)
        # the pivoting nodes replace the leaving column and update the
        # inverse by its eta matrix; a stopped node keeps its state
        g = np.flatnonzero(go)
        l, e = leave[g], enter[g]
        B[g, :, l] = q[g]
        cost[g, l] = sign[g] * b[g, e]
        code[g, l] = 2 * e + flip[g]
        d[~go] = 0.0  # a stopped node's eta matrix is the identity
        out = np.zeros_like(d)
        out[g] = Binv[g, l] / d[g, l, None]
        Binv -= d[:, :, None] * out[:, None, :]
        Binv[g, l] = out[g]
        alive = go
        del err, neg, viol
        if 2 * len(g) <= len(go):
            a, b, live, B, Binv, cost, code, rank, ids, z_prev, stall, alive = (
                v[g] for v in (a, b, live, B, Binv, cost, code, rank, ids, z_prev, stall, alive)
            )
            pick = np.arange(len(g))
    return ok, y_out, code_out


def _weights(r2, ds):
    """Row weights r^3 + r^2 |s - t| + |s - t|^2 from r^2 and s - t."""
    return r2 * (np.sqrt(r2) + np.abs(ds)) + ds * ds


def _expansion_fits(u: MeshFunction, nodes: np.ndarray, mask: np.ndarray):
    """Best second-order expansion at each node of ``nodes`` (array offsets,
    one row per node) over the region ``mask``.

    At a node (x, t) the rows are the region's other nodes (y, s) with
    s <= t, and the fit is the weighted Chebyshev problem
    min_P max |u(y,s) - u(x,t) - P(y-x, s-t)| / (r^3 + r^2 |s-t| + |s-t|^2),
    r = |y-x|, over centred paraboloids P (no constant, mixed term allowed).

    It runs by constraint generation (an optimal fit with k parameters has
    at most k+1 tight rows), in rounds over the whole sweep.  Each node
    keeps only its active rows, as region indices, starting from its
    ``_FIT_SEED_ROWS`` smallest-weight rows.  Every round fits all
    unresolved nodes on their active rows by one batched exchange
    :func:`_exchange`, warm-started from the node's last optimal reference
    (added rows keep it dual-feasible), then scans each such node's full
    rows and adds up to ``_FIT_ADD_ROWS`` of its worst rows with ratio >
    z (1 + 1e-9) + 1e-12, z being the certified optimum on the rows so far;
    a node without such a row is done.  The scan builds full rows for a
    chunk of nodes of one level at a time, within ``_SCRATCH_BYTES``.  A
    node whose first reference is not finite, or whose fit the exchange
    does not certify within ``_FIT_PIVOTS`` pivots, is a DiagnosticsError
    naming it.

    Returns ``(ratios, coefs, counts)``: the largest ratio the returned
    coefficients reach over all of a node's rows (so at most
    z (1 + 1e-9) + 1e-12, above the optimum of the full fit by no more),
    the centred coefficients (l, m, a, q) with q as in
    :func:`_quad_features`, and the number of rows per node.
    """
    spec = u.spec
    n = spec.n
    k = 2 * n + 1 + n * (n + 1) // 2
    flat = np.ravel_multi_index(tuple(nodes.T), spec.shape)
    outside = ~mask.ravel()[flat]
    if outside.any():
        node = spec.index_from_offset(nodes[np.argmax(outside)])
        raise DiagnosticsError(f"node {node} lies outside the study region")
    region = np.flatnonzero(mask)  # time-major, so a node's rows are a prefix
    offs = np.column_stack(np.unravel_index(region, spec.shape))
    y = (offs[:, 1:] + np.asarray(spec.k_min)) * spec.h
    s = (offs[:, 0] + 1) * spec.tau
    u_r = u.values.ravel()[region]
    ends = np.searchsorted(offs[:, 0], nodes[:, 0], side="right")
    # region indices, in the active rows' int type: int32 halves their store
    me = np.searchsorted(region, flat).astype(np.int32 if len(region) < 2**31 else np.int64)
    counts = ends - 1
    short = counts < k
    if short.any():
        raise DiagnosticsError(
            f"{counts[np.argmax(short)]} constraint nodes cannot pin {k} paraboloid parameters"
        )

    def chunks(todo):
        """``todo`` in chunks of nodes of one level, whose full rows take
        8 (n + 6) bytes each (the scan's arrays) within _SCRATCH_BYTES."""
        todo = todo[np.argsort(nodes[todo, 0], kind="stable")]
        for group in np.split(todo, np.flatnonzero(np.diff(nodes[todo, 0])) + 1):
            size = max(1, _SCRATCH_BYTES // (8 * (n + 6) * int(ends[group[0]])))
            for lo in range(0, len(group), size):
                yield group[lo : lo + size]

    def full_rows(sel):
        """s - t, the columns of y - x and the weights of all the rows of the
        nodes ``sel`` (of one level); a node's own row weighs 1."""
        R = int(ends[sel[0]])
        ds = s[:R] - s[me[sel[0]]]
        dx = [y[:R, j] - y[me[sel], j, None] for j in range(n)]
        w = _weights(functools.reduce(np.add, (d * d for d in dx)), ds)
        w[np.arange(len(sel)), me[sel]] = 1.0
        return ds, dx, w

    def full_ratios(sel, fits):
        """The ratios over all the rows of the nodes ``sel`` of their fits,
        one row (l, m, a, q) per node, q as in :func:`_quad_features`."""
        ds, dx, w = full_rows(sel)
        c = fits.T[:, :, None]
        fit = c[n] * ds
        for j in range(n):
            fit += (c[j] + c[n + 1 + j] * ds) * dx[j]
            fit += c[2 * n + 1 + j] * (dx[j] * dx[j])
        col = 3 * n + 1
        for i in range(n):
            for j in range(i + 1, n):
                fit += 2.0 * c[col] * (dx[i] * dx[j])
                col += 1
        del dx
        ratio = u_r[: w.shape[1]] - u_r[me[sel], None]
        ratio -= fit
        del fit
        ratio = np.abs(ratio, out=ratio)
        ratio /= w
        return ratio

    def active_rows(act, lv, at):
        """The exchange's (a, b) on the active rows ``act`` of the nodes
        ``at``; a row that is not live has a = 0 and b = 0."""
        dx = np.where(lv[..., None], y[act] - y[me[at], None], 0.0)
        ds = np.where(lv, s[act] - s[me[at], None], 0.0)
        w = np.where(lv, _weights((dx**2).sum(axis=2), ds), 1.0)
        a = np.empty(act.shape + (k,))
        a[..., :n] = dx
        a[..., n] = ds
        a[..., n + 1 : 2 * n + 1] = dx * ds[..., None]
        a[..., 2 * n + 1 :] = _quad_features(dx)
        a /= w[..., None]
        return a, np.where(lv, u_r[act] - u_r[me[at], None], 0.0) / w

    pending = np.arange(len(nodes))
    # each node's active rows and whether each is live: first its seed
    # rows, then the rows each round adds; its own row pads the rest
    active = np.repeat(me[:, None], max(_FIT_SEED_ROWS, k + 1), axis=1)
    for sel in chunks(pending):
        w = full_rows(sel)[2]
        w[np.arange(len(sel)), me[sel]] = np.inf
        if w.shape[1] > _FIT_SEED_ROWS:
            active[sel, :_FIT_SEED_ROWS] = np.argpartition(w, _FIT_SEED_ROWS - 1, axis=1)[:, :_FIT_SEED_ROWS]
        else:
            active[sel, : w.shape[1]] = np.arange(w.shape[1])
    live = active != me[:, None]

    ratios = np.empty(len(nodes))
    coefs = np.empty((len(nodes), k))
    code = np.full((len(nodes), k + 1), -1, dtype=np.int64)
    first = True
    while pending.size:
        a, b = active_rows(active, live, pending)
        # warm start unless the artificial columns differ from the zero
        # ones (a column stopped being zero, or was found dependent)
        zero = ~(a != 0).any(axis=1)
        arts = (code[:, :, None] == -1 - np.arange(k)).any(axis=1)
        cold = (arts != zero).any(axis=1) | first
        ref = code.copy()
        ref[cold], bad = _reference(a, live) if cold.all() else _reference(a[cold], live[cold])
        ok, fits, code = _exchange(a, b, live, ref)
        del a, b
        ok[cold] &= ~bad
        if not ok.all():
            node = spec.index_from_offset(nodes[pending[np.argmin(ok)]])
            raise DiagnosticsError(f"node {node}: the exchange did not certify its fit")
        coefs[pending] = fits[:, :k]
        # the scan: each node's ratios over all its rows, and its worst
        # violated rows, in row order
        extra = np.repeat(me[pending, None], _FIT_ADD_ROWS, axis=1)
        grow = np.zeros(extra.shape, dtype=bool)
        for sel in chunks(pending):
            at = np.searchsorted(pending, sel)
            ratio = full_ratios(sel, coefs[sel])
            ratios[sel] = ratio.max(axis=1)
            viol = _exceeds(ratio, fits[at, k, None])
            viol[np.arange(len(sel))[:, None], active[at]] = False
            many = np.flatnonzero(viol.sum(axis=1) > _FIT_ADD_ROWS)
            if many.size:
                worst = np.where(viol[many], -ratio[many], np.inf)
                worst = np.argpartition(worst, _FIT_ADD_ROWS - 1, axis=1)[:, :_FIT_ADD_ROWS]
                viol[many] = False
                viol[many[:, None], worst] = True
            node, row = np.nonzero(viol)
            slot = np.arange(len(node)) - np.searchsorted(node, node)
            extra[at[node], slot] = row
            grow[at[node], slot] = True
        keep = grow.any(axis=1)
        active = np.concatenate([active, extra], axis=1)[keep]
        live = np.concatenate([live, grow], axis=1)[keep]
        del extra, grow
        code, pending, first = code[keep], pending[keep], False
    return ratios, coefs, counts


def _opening(M) -> float:
    """An opening M of the expansion budget n M, as a float."""
    if isinstance(M, bool) or not isinstance(M, numbers.Real) or not (math.isfinite(M) and M > 0):
        raise DiagnosticsError(f"opening M must be a finite positive number, got {M!r}")
    return float(M)


def opening_sweep(M_values) -> np.ndarray:
    """The openings of a good-set sweep, sorted, as floats: at least one,
    each a finite positive number (not a bool), none repeated, since a
    repeat would weigh one point twice in the slope's fit."""
    M_values = sorted(_opening(m) for m in M_values)
    if not M_values:
        raise DiagnosticsError("empty M sweep")
    for lo, hi in zip(M_values, M_values[1:]):
        if lo == hi:
            raise DiagnosticsError(f"M sweep repeats the opening {hi!r}")
    return np.asarray(M_values)


def psi_M_membership(u: MeshFunction, node, M: float, region=None) -> dict:
    """Best second-order expansion at a node against the cubic-in-space,
    quadratic-in-time weight.

    Fits a paraboloid P (mixed term allowed) minimizing the worst ratio
    |u(y,s) - u(x,t) - P| / (|x-y|^3 + |x-y|^2 |t-s| + |t-s|^2) over the
    region's nodes with s <= t; membership at opening M (finite, positive,
    not a bool) means that ratio stays within n*M.  ``node`` is n + 1 ints
    or numpy integers (not bools); any other is a GridError.  The fit is the
    constraint-generation routine of :func:`good_set_measure` on a batch of
    one node: an exact Chebyshev exchange on the rows taken so far,
    stopping once no row has ratio > z (1 + 1e-9) + 1e-12, z being that
    certified optimum.

    Returns ``member``, ``worst_ratio`` (the largest ratio the returned
    paraboloid reaches over all constraint nodes, within 1e-9 relative plus
    1e-12 of the optimum), ``excess`` (ratio - n*M), ``paraboloid``
    (absolute coordinates, vanishing at the node), and ``constraint_count``
    (all constraint nodes, not only those the fits used).
    """
    spec = u.spec
    n = spec.n
    M = _opening(M)
    off = np.array([spec.offset(node)])
    node = tuple(int(i) for i in node)
    ratios, coefs, counts = _expansion_fits(u, off, region_mask(spec, region))
    coef = coefs[0]
    worst = float(ratios[0])
    P = _centered_to_absolute(
        0.0,
        coef[:n],
        float(coef[n]),
        coef[n + 1 : 2 * n + 1],
        _qvec_to_matrix(coef[2 * n + 1 :], n),
        np.asarray(node[:-1], dtype=float) * spec.h,
        node[-1] * spec.tau,
    )
    budget = n * M
    return {
        "member": not _exceeds(worst, budget),
        "worst_ratio": worst,
        "excess": worst - budget,
        "paraboloid": P,
        "constraint_count": int(counts[0]),
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
    measure uses the h^(n+2) node-counting convention.  The openings are
    checked by :func:`opening_sweep`.
    The fits run by batched constraint generation in rounds over all the
    box's nodes, each round one exact Chebyshev exchange over every
    unresolved node (see :func:`psi_M_membership`), so ``worst_ratios``
    holds, per node, the largest ratio of the returned paraboloid over all
    its constraint nodes.  A fit the exchange cannot certify is a
    DiagnosticsError naming its node.  The log-log slope of measure against
    M comes with a 95 percent confidence interval and is reported, never
    asserted against any theoretical exponent.
    """
    spec = u.spec
    M_values = opening_sweep(M_values)
    nodes = np.argwhere(region_mask(spec, kbox))
    if not len(nodes):
        raise DiagnosticsError("the K-box contains no mesh nodes")
    ratios, _, _ = _expansion_fits(u, nodes, region_mask(spec, region))
    n = spec.n
    bad = _exceeds(ratios[None, :], n * M_values[:, None])
    frac = bad.mean(axis=1)
    meas = bad.sum(axis=1) * spec.h ** (n + 2)
    pos = meas > 0
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
