"""Implicit monotone finite-difference schemes on the lattice hZ^n x h^2 Z.

The discrete operator is

    S_h[u](x,t) = delta_tau^- u(x,t) - F_h(delta^2 u(x,t)),

with the backward time quotient over one h^2 step and symmetric second
quotients delta^2_y over stencil directions y.  F_h is a min-max of linear
forms with nonnegative coefficient tables, which makes the scheme monotone:
every partial slope of F_h lies in [lambda0, Lambda0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GridError, SchemeError
from .geometry import (
    MeshFunction,
    MeshSpec,
    _sample_levels,
    lattice_directions,
    quotient_weight,
    shift,
)
from .nonlinearity import NonlinearityDescriptor, evaluate_F

__all__ = [
    "Stencil",
    "SchemeDescriptor",
    "TestFunction",
    "build_monotone_scheme",
    "scheme_residual_field",
    "check_monotonicity",
    "consistency_error",
    "consistency_fit",
]


def _canonical(y: Sequence[int]) -> tuple[int, ...]:
    """Directions come in +-pairs; keep the representative whose first
    nonzero entry is positive."""
    y = tuple(int(c) for c in y)
    for c in y:
        if c > 0:
            return y
        if c < 0:
            return tuple(-c for c in y)
    raise SchemeError("zero vector is not a stencil direction")


@dataclass(frozen=True)
class Stencil:
    """Finite set of lattice directions y with 0 < |y| < N (unscaled integers).

    Directions are stored once per +-pair.  ``make`` builds the standard set
    (axes plus pairwise diagonals); schemes may prune it down to the
    directions they actually read.
    """

    n: int
    N: int
    directions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.N < 2 or int(self.N) != self.N:
            raise SchemeError(f"stencil needs integer N >= 2, got {self.N}")
        if not self.directions:
            raise SchemeError("stencil must have at least one direction")
        seen = set()
        for y in self.directions:
            if len(y) != self.n:
                raise SchemeError(f"direction {y} has wrong dimension")
            if _canonical(y) != y:
                raise SchemeError(f"direction {y} is not in canonical +- form")
            norm = math.sqrt(sum(c * c for c in y))
            if not 0 < norm < self.N:
                raise SchemeError(f"direction {y} violates 0 < |y| < N = {self.N}")
            if y in seen:
                raise SchemeError(f"duplicate direction {y}")
            seen.add(y)

    def has(self, y: Sequence[int]) -> bool:
        return _canonical(y) in self.directions

    @classmethod
    def make(cls, n: int, N: int = 2) -> "Stencil":
        """Axes plus (for n >= 2) all pairwise diagonals e_i +- e_j."""
        axes, pairs = lattice_directions(n)
        dirs = axes + [y for pair in pairs.values() for y in pair]
        return cls(n=n, N=N, directions=tuple(dirs))


# ---------------------------------------------------------------------------
# scheme descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SchemeDescriptor:
    """F_h(r) = min over rows of (max over forms in the row of gamma . r).

    ``tables[a]`` is an array of shape (forms_in_row_a, len(directions)) of
    nonnegative coefficients; lambda0/Lambda0 are the per-coordinate slope
    bounds realized by the tables.
    """

    stencil: Stencil
    tables: tuple[np.ndarray, ...]
    nonlinearity: NonlinearityDescriptor
    lambda0: float
    Lambda0: float

    def __post_init__(self):
        ndir = len(self.stencil.directions)
        if not self.tables or any(tab.shape[1:] != (ndir,) or not len(tab) for tab in self.tables):
            raise SchemeError("a scheme needs nonempty coefficient tables of shape (forms, ndir)")
        # ``forms`` (rows, forms, ndir): short rows repeat their last form,
        # which leaves the row's max (and its first argmax) unchanged
        width = max(tab.shape[0] for tab in self.tables)
        forms = np.stack([np.vstack([tab] + [tab[-1:]] * (width - tab.shape[0])) for tab in self.tables])
        if np.any(forms < 0):
            raise SchemeError("monotone schemes need nonnegative coefficient tables")
        object.__setattr__(self, "forms", forms)

    def F_h(self, r):
        """Evaluate the discrete nonlinearity on quotient vectors.

        ``r`` has shape (..., ndir); returns shape (...).
        """
        out = _min_max(self._scores(np.asarray(r, dtype=float)))
        return float(out) if np.ndim(out) == 0 else out

    def _scores(self, r: np.ndarray) -> np.ndarray:
        """(..., rows, forms) array of gamma . r per form.  A stack is one
        product over all its vectors; its rows equal those of each part's own
        product bit for bit (the solver's blocks and the S_h sweep chunks depend
        on it)."""
        ndir = self.forms.shape[-1]
        flat = r.reshape(-1, r.shape[-1]) @ self.forms.reshape(-1, ndir).T
        return flat.reshape(r.shape[:-1] + self.forms.shape[:2])

    def check_mesh(self, spec: MeshSpec) -> None:
        """Raise SchemeError unless the stencil fits the mesh: same dimension,
        and reach N no larger than the mesh's boundary band."""
        if self.stencil.n != spec.n:
            raise SchemeError(f"scheme dimension {self.stencil.n} != mesh dimension {spec.n}")
        if self.stencil.N > spec.N:
            raise SchemeError(f"stencil reach N={self.stencil.N} exceeds the mesh band N={spec.N}")


def _decompose_linear(A: np.ndarray, directions: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Write A = sum_y gamma_y (y/|y|)(y/|y|)^T with gamma >= 0 over axes and
    pairwise diagonals; raises if A is not diagonally dominant enough."""
    n = A.shape[0]
    gamma = np.zeros(len(directions))
    pos = {d: i for i, d in enumerate(directions)}
    axes, pairs = lattice_directions(n)
    # off-diagonal entries ride on the pair diagonals
    diag_load = np.zeros(n)
    for (i, j), (plus, minus) in pairs.items():
        b = A[i, j]
        if b == 0.0:
            continue
        if plus not in pos or minus not in pos:
            raise SchemeError(
                "stencil cannot represent F: missing pair diagonal for entry "
                f"A[{i},{j}]; enlarge N or supply a bellman_isaacs form"
            )
        gamma[pos[plus if b > 0 else minus]] += 2 * abs(b)
        diag_load[i] += abs(b)
        diag_load[j] += abs(b)
    for i, axis in enumerate(axes):
        g = A[i, i] - diag_load[i]
        if g < -1e-12 * max(1.0, abs(A[i, i])):
            raise SchemeError(
                "stencil cannot represent F: coefficient matrix is not diagonally "
                f"dominant (row {i}); enlarge N or supply a bellman_isaacs form"
            )
        gamma[pos[axis]] += max(g, 0.0)
    return gamma


def _prune(stencil: Stencil, tables: list[np.ndarray]) -> tuple[Stencil, tuple[np.ndarray, ...]]:
    """Drop directions no form ever uses, so the recorded slope bounds refer
    to coordinates the scheme actually reads."""
    stacked = np.vstack(tables)
    used = np.any(stacked != 0.0, axis=0)
    if used.all():
        return stencil, tuple(tables)
    if not used.any():
        raise SchemeError("degenerate scheme: no direction carries a coefficient")
    keep = [i for i, u in enumerate(used) if u]
    dirs = tuple(stencil.directions[i] for i in keep)
    new_stencil = Stencil(n=stencil.n, N=stencil.N, directions=dirs)
    return new_stencil, tuple(tab[:, keep] for tab in tables)


def build_monotone_scheme(
    descriptor: NonlinearityDescriptor,
    N: int = 2,
    stencil: Stencil | None = None,
) -> SchemeDescriptor:
    """Construct the monotone min-max coefficient tables realizing F.

    linear: nonnegative decomposition over axes + pair diagonals (requires
    diagonal dominance).  pucci_plus / pucci_minus: extremization over the
    orthogonal sub-stencil family -- the two-value family {lam, Lam} per axis
    in 1D, the axis + diagonal 4-direction family in 2D.  bellman_isaacs: one
    coefficient table per matrix.  custom operators have no generic monotone
    discretization and are rejected.
    """
    n = descriptor.dimension
    if stencil is None:
        stencil = Stencil.make(n, N)
    if stencil.n != n:
        raise SchemeError(f"stencil dimension {stencil.n} != operator dimension {n}")
    axes, pairs = lattice_directions(n)
    for axis in axes:
        if not stencil.has(axis):
            raise SchemeError(f"construction stencil misses coordinate axis {axis}")
    dirs = stencil.directions
    kind = descriptor.kind

    if kind == "linear":
        gamma = _decompose_linear(descriptor.matrix, dirs)
        tables = [gamma.reshape(1, -1)]
    elif kind in ("pucci_plus", "pucci_minus"):
        lam, Lam = descriptor.pucci_pair
        if n == 1:
            forms = np.array([[lam], [Lam]])
        elif n == 2:
            # Orthogonal sub-stencils: the axes pair and the diagonal pair.
            frames = [axes, pairs[0, 1]]
            if not all(stencil.has(y) for y in frames[1]):
                raise SchemeError("2D Pucci schemes need both pair diagonals in the stencil")
            pos = {d: i for i, d in enumerate(dirs)}
            forms = []
            for frame in frames:
                for a0 in (lam, Lam):
                    for a1 in (lam, Lam):
                        row = np.zeros(len(dirs))
                        row[pos[frame[0]]] = a0
                        row[pos[frame[1]]] = a1
                        forms.append(row)
            forms = np.array(forms)
        else:
            raise SchemeError(
                "Pucci schemes are built for n = 1 and n = 2 only (no consistent "
                "orthogonal sub-stencil family is wired for higher dimensions)"
            )
        # Pucci+ is the max over the forms, Pucci- the min over them
        tables = [forms] if kind == "pucci_plus" else [form[None] for form in forms]
    elif kind == "bellman_isaacs":
        tables = [np.vstack([_decompose_linear(A, dirs) for A in row]) for row in descriptor.families]
    elif kind == "custom":
        raise SchemeError(
            "custom operators have no generic monotone discretization; supply a "
            "bellman_isaacs min-max form instead"
        )
    else:
        raise SchemeError(f"unknown nonlinearity kind {descriptor.kind!r}")

    stencil, tables = _prune(stencil, list(tables))
    stacked = np.vstack(tables)
    lambda0 = float(stacked.min(axis=0).min())
    Lambda0 = float(stacked.max())
    return SchemeDescriptor(
        stencil=stencil,
        tables=tables,
        nonlinearity=descriptor,
        lambda0=lambda0,
        Lambda0=Lambda0,
    )


def scheme_tables_text(scheme: SchemeDescriptor) -> str:
    """Coefficient tables as structured text, for auditing a built scheme.

    One direction per line, then each min-row as a block of max-form lines
    whose columns align with the direction list.  Floats use ``repr`` so the
    dump identifies the scheme exactly.
    """
    lines = [
        "# parastep scheme tables",
        f"# kind={scheme.nonlinearity.kind} n={scheme.stencil.n} N={scheme.stencil.N}"
        f" lambda0={scheme.lambda0!r} Lambda0={scheme.Lambda0!r}",
        f"directions {len(scheme.stencil.directions)}",
    ]
    for y in scheme.stencil.directions:
        lines.append(" ".join(str(c) for c in y))
    lines.append(f"tables {len(scheme.tables)}")
    for a, tab in enumerate(scheme.tables):
        lines.append(f"table {a} forms {tab.shape[0]}")
        for row in tab:
            lines.append(" ".join(repr(float(c)) for c in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# applying schemes to mesh functions
# ---------------------------------------------------------------------------


# byte budget of one chunk of levels in an S_h sweep (``_sweep``), which
# sets the chunk's length from ``_InteriorGather.level_bytes``.  Pucci+ 2D,
# ``tracemalloc`` peaks at h = 1/32 / 1/64: ``residual_sweep`` 2.0 / 2.0 MiB,
# ``consistency_error`` 3.1 / 2.8 MiB (one pass over every level: 24.7 / 437
# and 35.7 / 589 MiB); ``scheme_residual_field`` adds its NaN field (1.9 / 31
# MiB).  Sweep time at h = 1/32, 2 cores, median of 9 by budget: 1 MiB 9.7 ms,
# 2 MiB 8.5 ms, 4 MiB 8.9 ms, 8 MiB 14.0 ms; one pass 128 ms.
_SWEEP_BYTES = 4 << 20


def _form_max(scores: np.ndarray) -> np.ndarray:
    """Each row's max over the short forms axis of (..., rows, forms) scores,
    folded one form slice at a time with ``np.maximum``: the same values as
    ``max(axis=-1)`` at about a quarter of its cost."""
    out = scores[..., 0].copy()
    for f in range(1, scores.shape[-1]):
        np.maximum(out, scores[..., f], out=out)
    return out


def _min_max(scores: np.ndarray) -> np.ndarray:
    """F_h from per-form scores (..., rows, forms): the least row max."""
    return _form_max(scores).min(axis=-1)


class _InteriorGather:
    """S_h at the interior columns of a mesh, on one level (flat nodes) or a
    stack of levels.  The index tables come from ``shift`` and the weights
    from ``quotient_weight``, so the quotients are ``second_quotient_field``'s
    bit for bit, at 2-3x its speed."""

    def __init__(self, scheme: SchemeDescriptor, spec: MeshSpec):
        scheme.check_mesh(spec)
        self.scheme, self.spec = scheme, spec
        cols = spec.classification().interior_columns
        self.int_flat = np.flatnonzero(cols)
        dirs = scheme.stencil.directions
        self.weights = np.array([quotient_weight(spec.h, y) for y in dirs])
        # a compatible stencil keeps every neighbour of an interior column on
        # the array, so no NaN reaches the integer cast
        index = np.arange(cols.size, dtype=float).reshape(cols.shape)
        self.plus_flat = [shift(index, y)[cols].astype(np.int64) for y in dirs]
        self.minus_flat = [shift(index, np.negative(y))[cols].astype(np.int64) for y in dirs]

    def quotients(self, w_flat: np.ndarray) -> np.ndarray:
        """(..., K, ndir) array of delta^2_y at the interior columns."""
        # ``take`` on the last axis serves one level and a stack alike, at
        # half the cost of ``[..., idx]``
        wi = w_flat.take(self.int_flat, axis=-1)
        r = np.empty(wi.shape + (len(self.weights),))
        for j, (pf, mf) in enumerate(zip(self.plus_flat, self.minus_flat)):
            plus, minus = w_flat.take(pf, axis=-1), w_flat.take(mf, axis=-1)
            r[..., j] = (plus + minus - 2.0 * wi) * self.weights[j]
        return r

    def scores(self, w_flat: np.ndarray) -> np.ndarray:
        """(..., K, rows, forms) array of gamma . delta^2 w per node and form."""
        return self.scheme._scores(self.quotients(w_flat))

    def residual(self, x: np.ndarray, b: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """S_h per node from the interior values ``x`` of a level, ``b`` of
        its predecessor and the ``scores`` of ``x``."""
        return (x - b) / self.spec.tau - _min_max(scores)

    def level_bytes(self) -> int:
        """Scratch bytes of S_h on one level: its nodes, and per interior node
        the quotients, the form scores twice over (a temporary or a gather of
        them), the row maxima and 8 node vectors.  It sets the levels of a
        sweep chunk (``_sweep``) and of a solver's frozen-policy block."""
        rows, width, ndir = self.scheme.forms.shape
        nodes = math.prod(self.spec.spatial_shape)
        return 8 * (nodes + self.int_flat.size * (ndir + 2 * rows * width + rows + 8))


def _sweep(op: _InteriorGather, rows: Callable[[int, int], np.ndarray]):
    """S_h over the interior levels in chunks of consecutive levels whose
    scratch (``level_bytes`` each) stays under _SWEEP_BYTES.  ``rows(a, b)``
    gives the array rows a:b of the mesh function as (b - a, nodes); a chunk
    reads its levels and the level before them.  Yields (start, stop, res):
    res (stop - start, K) is S_h at the interior columns of rows start:stop.
    Per node the values are those of one pass over every level, bit for bit."""
    levels = op.spec.levels
    step = max(1, _SWEEP_BYTES // op.level_bytes())
    # from the row of the earliest level with interior nodes
    for start in range(op.spec.N**2 - 1, levels, step):
        stop = min(start + step, levels)
        w = rows(start - 1, stop)
        x, b = w[1:, op.int_flat], w[:-1, op.int_flat]
        yield start, stop, op.residual(x, b, op.scores(w[1:]))


def scheme_residual_field(scheme: SchemeDescriptor, u: MeshFunction) -> np.ndarray:
    """S_h[u] on the interior set, NaN on the boundary band, filled chunk by
    chunk of levels from the scheme's interior gather."""
    spec = u.spec
    op = _InteriorGather(scheme, spec)
    flat = u.values.reshape(spec.levels, -1)
    res = np.full(flat.shape, np.nan)
    for start, stop, r in _sweep(op, lambda a, b: flat[a:b]):
        res[start:stop, op.int_flat] = r
    return res.reshape(spec.shape)


# ---------------------------------------------------------------------------
# monotonicity check
# ---------------------------------------------------------------------------


def check_monotonicity(
    scheme: SchemeDescriptor,
    trials: int = 10_000,
    seed: int = 0,
    step_rel: float = 1e-6,
    tol: float = 1e-6,
) -> dict:
    """Probe the per-coordinate slopes of F_h with central differences.

    Slopes are measured at ``trials`` random quotient vectors (magnitudes are
    swept over several decades) with step 1e-6 relative to the coordinate
    size, and compared against [lambda0 - tol, Lambda0 + tol].
    """
    rng = np.random.default_rng(seed)
    ndir = len(scheme.stencil.directions)
    scales = 10.0 ** rng.uniform(-1, 2, size=(trials, 1))
    R = rng.standard_normal((trials, ndir)) * scales
    per_coordinate = []
    for i in range(ndir):
        eps = step_rel * np.maximum(1.0, np.abs(R[:, i]))
        Rp = R.copy()
        Rm = R.copy()
        Rp[:, i] += eps
        Rm[:, i] -= eps
        slopes = (scheme.F_h(Rp) - scheme.F_h(Rm)) / (2.0 * eps)
        per_coordinate.append((float(slopes.min()), float(slopes.max())))
    min_slope = min(lo for lo, _ in per_coordinate)
    max_slope = max(hi for _, hi in per_coordinate)
    passed = (min_slope >= scheme.lambda0 - tol) and (max_slope <= scheme.Lambda0 + tol)
    return {
        "passed": bool(passed),
        "trials": trials,
        "min_slope": min_slope,
        "max_slope": max_slope,
        "lambda0": scheme.lambda0,
        "Lambda0": scheme.Lambda0,
        "per_coordinate": per_coordinate,
    }


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Smooth phi with the derivative data consistency estimates need.

    ``fn(x, t)`` and ``ut(x, t)`` take x of shape (..., n); ``hessian(x, t)``
    returns (..., n, n).  The bounds are sup-norms over the space-time domain:
    d3_bound for third space derivatives, utt_bound for phi_tt, d4_bound
    (optional) for fourth space derivatives.
    """

    fn: Callable
    ut: Callable
    hessian: Callable
    d3_bound: float = 0.0
    utt_bound: float = 0.0
    d4_bound: float | None = None
    name: str = ""

    __test__ = False  # keep pytest from collecting this as a test class

    @classmethod
    def class_P(cls, l, m, a, Q, c=0.0, name="class-P") -> "TestFunction":
        """Quadratic-in-space polynomial c + l.x + m t + (a.x) t + x.Qx."""
        l = np.atleast_1d(np.asarray(l, dtype=float))
        a = np.atleast_1d(np.asarray(a, dtype=float))
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        Q = (Q + Q.T) / 2

        def fn(x, t):
            lin = x @ l
            quad = np.einsum("...i,ij,...j->...", x, Q, x)
            return c + lin + m * t + (x @ a) * t + quad

        def ut(x, t):
            return m + x @ a + 0.0 * t

        def hessian(x, t):
            shape = np.broadcast_shapes(np.shape(t), x.shape[:-1])
            return np.broadcast_to(2.0 * Q, shape + Q.shape).copy()

        return cls(fn=fn, ut=ut, hessian=hessian, name=name)


def consistency_error(scheme: SchemeDescriptor, phi: TestFunction, spec: MeshSpec) -> float:
    """sup over interior nodes of |phi_t - F(D^2 phi) - S_h[phi]|.  phi, phi_t
    and F(D^2 phi) are sampled chunk by chunk of the S_h sweep, so the scratch
    does not grow with the number of levels."""

    def F_of_hessian(x, t):
        return evaluate_F(scheme.nonlinearity, np.asarray(phi.hessian(x, t), dtype=float))

    op = _InteriorGather(scheme, spec)
    if not spec.classification().interior.any():
        raise SchemeError(f"{spec!r} has no interior nodes")
    err = 0.0  # np.maximum keeps a NaN, as one max over every node does
    for start, stop, res in _sweep(op, lambda a, b: _finite_levels(spec, phi.fn, a, b)):
        ut = _finite_levels(spec, phi.ut, start, stop)[:, op.int_flat]
        FH = _finite_levels(spec, F_of_hessian, start, stop)[:, op.int_flat]
        err = np.maximum(err, np.abs(ut - FH - res).max())
    return float(err)


def _finite_levels(spec: MeshSpec, f: Callable, start: int, stop: int) -> np.ndarray:
    """f on the array rows start:stop as (stop - start, nodes); refuses a
    non-finite value as a mesh function would."""
    vals = _sample_levels(spec, f, start, stop).reshape(stop - start, -1)
    if not np.all(np.isfinite(vals)):
        raise GridError("mesh function values must be finite")
    return vals


def consistency_fit(
    scheme: SchemeDescriptor,
    phi: TestFunction,
    bounds,
    T: float,
    h_list: Sequence[float],
    N: int = 2,
) -> dict:
    """Dyadic-sweep consistency report.

    Returns per-h sup errors together with the smallest constants fitting the
    two candidate envelopes:

      K1: err(h) <= K1 * (h + h*d3_bound + h^2*utt_bound)
      K2: err(h) <= K2 * h^2 * (d4_bound + utt_bound)   (when d4_bound given)

    The second fit reflects the extra cancellation of symmetric quotients on
    smooth functions and is reported alongside the first.
    """
    errors = {}
    for h in h_list:
        spec = MeshSpec(h=h, bounds=bounds, T=T, N=N)
        errors[h] = consistency_error(scheme, phi, spec)
    K1 = 0.0
    K2 = None if phi.d4_bound is None else 0.0
    for h, e in errors.items():
        K1 = max(K1, e / (h + h * phi.d3_bound + h * h * phi.utt_bound))
        if K2 is not None:
            denom = h * h * (phi.d4_bound + phi.utt_bound)
            K2 = max(K2, e / denom) if denom > 0 else math.inf
    return {"errors": errors, "K_first_order": K1, "K_second_order": K2}
