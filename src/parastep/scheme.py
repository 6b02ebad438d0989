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

from .errors import SchemeError
from .geometry import (
    MeshFunction,
    MeshSpec,
    lattice_directions,
    second_quotient_field,
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
        for tab in self.tables:
            if tab.ndim != 2 or tab.shape[1] != ndir:
                raise SchemeError("coefficient table shape mismatch")
            if np.any(tab < 0):
                raise SchemeError("monotone schemes need nonnegative coefficient tables")

    def F_h(self, r):
        """Evaluate the discrete nonlinearity on quotient vectors.

        ``r`` has shape (..., ndir); returns shape (...).
        """
        r = np.asarray(r, dtype=float)
        rows = [np.max(r @ tab.T, axis=-1) for tab in self.tables]
        out = np.min(np.stack(rows, axis=0), axis=0)
        return float(out) if np.ndim(out) == 0 else out

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
        if b > 0:
            gamma[pos[plus]] += 2 * b
        else:
            gamma[pos[minus]] += -2 * b
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
            if kind == "pucci_plus":
                tables = [forms]  # max(lam r, Lam r)
            else:
                tables = [forms[:1], forms[1:]]  # min(lam r, Lam r)
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
            if kind == "pucci_plus":
                tables = [forms]
            else:
                tables = [forms[i : i + 1] for i in range(forms.shape[0])]
        else:
            raise SchemeError(
                "Pucci schemes are built for n = 1 and n = 2 only (no consistent "
                "orthogonal sub-stencil family is wired for higher dimensions)"
            )
    elif kind == "bellman_isaacs":
        tables = []
        for row in descriptor.families:
            tables.append(np.vstack([_decompose_linear(A, dirs) for A in row]))
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


def scheme_residual_field(scheme: SchemeDescriptor, u: MeshFunction) -> np.ndarray:
    """S_h[u] on the interior set, NaN on the boundary band (vectorized)."""
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
        res[interior] = dtau[interior] - scheme.F_h(quotients[interior])
    return res


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
    min_slope, max_slope = np.inf, -np.inf
    per_coordinate = []
    for i in range(ndir):
        eps = step_rel * np.maximum(1.0, np.abs(R[:, i]))
        Rp = R.copy()
        Rm = R.copy()
        Rp[:, i] += eps
        Rm[:, i] -= eps
        slopes = (scheme.F_h(Rp) - scheme.F_h(Rm)) / (2.0 * eps)
        per_coordinate.append((float(slopes.min()), float(slopes.max())))
        min_slope = min(min_slope, per_coordinate[-1][0])
        max_slope = max(max_slope, per_coordinate[-1][1])
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
    """sup over interior nodes of |phi_t - F(D^2 phi) - S_h[phi]|."""
    u = MeshFunction.from_callable(spec, phi.fn)
    res = scheme_residual_field(scheme, u)
    interior = spec.classification().interior
    axes = [spec.axis_coords(a) for a in range(spec.n)]
    grids = np.meshgrid(spec.times(), *axes, indexing="ij")
    t = grids[0]
    x = np.stack(grids[1:], axis=-1)
    ut = np.broadcast_to(np.asarray(phi.ut(x, t), dtype=float), spec.shape)
    H = phi.hessian(x, t)
    FH = evaluate_F(scheme.nonlinearity, np.asarray(H, dtype=float))
    FH = np.broadcast_to(np.asarray(FH, dtype=float), spec.shape)
    err = np.abs(ut[interior] - FH[interior] - res[interior])
    return float(err.max())


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
