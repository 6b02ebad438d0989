"""Implicit solver for S_h[u] = 0 with prescribed parabolic boundary data.

Marches level by level: at each time level the interior-column values solve
the implicit (backward-in-time quotient) equation, with the lateral band and
all levels before t = (N h)^2 prescribed.  Two routes:

* ``picard``: damped fixed point w <- w - omega*tau*S_h[w] with
  omega = 1/(1 + tau*Lambda0*sum_y 2/|hy|^2).  Monotonicity of F_h makes this
  a sup-norm contraction with factor 1 - omega (mesh-independent, since
  tau = h^2 cancels the 1/h^2 in the quotient weights).
* ``howard``: policy iteration, for schemes whose tables are a pure max
  (single table) or a pure min (all rows singletons).  Each policy evaluation
  is one sparse linear solve; the policy is the active form per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SchemeError, SolverConvergenceError
from .geometry import MeshFunction, MeshSpec, quotient_weight, shift
from .scheme import SchemeDescriptor, scheme_residual_field

__all__ = ["SolveReport", "solve", "residual_sweep"]


@dataclass
class SolveReport:
    """Per-solve bookkeeping returned alongside the solution."""

    method: str
    tol: float
    omega: float | None
    iterations: list[int] = field(default_factory=list)
    max_residual: float = 0.0

    def total_iterations(self) -> int:
        return int(sum(self.iterations))


class _LevelProblem:
    """Precomputed index plumbing shared by all time levels.  The flat-index
    gather is 2-3x faster per sweep than ``second_quotient_field`` at solver
    sizes; its tables come from ``shift`` and its weights from ``quotient_weight``."""

    def __init__(self, scheme: SchemeDescriptor, spec: MeshSpec):
        scheme.check_mesh(spec)
        self.scheme = scheme
        self.spec = spec
        cols = spec.classification().interior_columns
        self.int_flat = np.flatnonzero(cols)
        self.K = self.int_flat.size
        self.inv = np.full(cols.size, -1, dtype=np.int64)
        self.inv[self.int_flat] = np.arange(self.K)
        self.dirs = scheme.stencil.directions
        self.weights = np.array([quotient_weight(spec.h, y) for y in self.dirs])
        # a compatible stencil keeps every neighbour of an interior column on
        # the array, so no NaN reaches the integer cast
        index = np.arange(cols.size, dtype=float).reshape(cols.shape)
        self.plus_flat = [shift(index, y)[cols].astype(np.int64) for y in self.dirs]
        self.minus_flat = [shift(index, np.negative(y))[cols].astype(np.int64) for y in self.dirs]

    def quotients(self, w_flat: np.ndarray) -> np.ndarray:
        """(K, ndir) array of delta^2_y at the interior columns."""
        wi = w_flat[self.int_flat]
        r = np.empty((self.K, len(self.dirs)))
        for j, (pf, mf) in enumerate(zip(self.plus_flat, self.minus_flat)):
            r[:, j] = (w_flat[pf] + w_flat[mf] - 2.0 * wi) * self.weights[j]
        return r

    def residual(self, w_flat: np.ndarray, b_flat: np.ndarray) -> np.ndarray:
        dtau = (w_flat[self.int_flat] - b_flat[self.int_flat]) / self.spec.tau
        return dtau - self.scheme.F_h(self.quotients(w_flat))


def _table_mode(scheme: SchemeDescriptor) -> str:
    """'max' if a single table, 'min' if every table is a single row, else 'mixed'."""
    if len(scheme.tables) == 1:
        return "max"
    if all(tab.shape[0] == 1 for tab in scheme.tables):
        return "min"
    return "mixed"


def _picard_level(lp: _LevelProblem, w_flat, b_flat, omega, tol, max_iterations):
    scheme, spec = lp.scheme, lp.spec
    for it in range(1, max_iterations + 1):
        R = lp.residual(w_flat, b_flat)
        resid = float(np.max(np.abs(R))) if R.size else 0.0
        if resid <= tol:
            return it, resid
        w_flat[lp.int_flat] -= omega * spec.tau * R
    raise SolverConvergenceError(
        f"damped iteration stalled at residual {resid:.3e} > tol {tol:.3e} "
        f"after {max_iterations} sweeps"
    )


def _howard_level(lp: _LevelProblem, w_flat, b_flat, mode, tol, max_policy=60):
    scheme, spec = lp.scheme, lp.spec
    if mode == "max":
        forms = scheme.tables[0]
    else:
        forms = np.vstack(scheme.tables)  # one row per min branch
    K, ndir = lp.K, len(lp.dirs)
    policy = np.zeros(K, dtype=np.int64)
    prev_policy = None
    last_resid = math.inf
    for it in range(1, max_policy + 1):
        scores = lp.quotients(w_flat) @ forms.T
        policy = scores.argmax(axis=1) if mode == "max" else scores.argmin(axis=1)
        if prev_policy is not None and np.array_equal(policy, prev_policy):
            resid = float(np.max(np.abs(lp.residual(w_flat, b_flat)))) if K else 0.0
            if resid <= tol:
                return it, resid
        prev_policy = policy.copy()
        gamma = forms[policy]  # (K, ndir)
        diag = 1.0 / spec.tau + 2.0 * (gamma * lp.weights).sum(axis=1)
        rows = [np.arange(K)]
        cols = [np.arange(K)]
        data = [diag]
        rhs = b_flat[lp.int_flat] / spec.tau
        for j in range(ndir):
            g = gamma[:, j] * lp.weights[j]
            for nb in (lp.plus_flat[j], lp.minus_flat[j]):
                nb_id = lp.inv[nb]
                inside = nb_id >= 0
                rows.append(np.arange(K)[inside])
                cols.append(nb_id[inside])
                data.append(-g[inside])
                rhs = rhs + np.where(inside, 0.0, g * w_flat[nb])
        A = sp.csc_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(K, K),
        )
        w_flat[lp.int_flat] = spla.spsolve(A, rhs)
        last_resid = float(np.max(np.abs(lp.residual(w_flat, b_flat)))) if K else 0.0
        if last_resid <= tol:
            return it, last_resid
    raise SolverConvergenceError(
        f"policy iteration stalled at residual {last_resid:.3e} > tol {tol:.3e}"
    )


def solve(
    scheme: SchemeDescriptor,
    spec: MeshSpec,
    boundary: Callable | MeshFunction,
    method: str = "auto",
    tol: float | None = None,
    max_iterations: int = 100_000,
) -> tuple[MeshFunction, SolveReport]:
    """Solve S_h[u] = 0 on the interior set with ``boundary`` on the band.

    Parameters
    ----------
    scheme : SchemeDescriptor
    spec : MeshSpec
    boundary : callable ``g(x, t)`` (x shaped (..., n)) or a MeshFunction;
        its values are used on every boundary-band node (and as the warm
        start on the interior).
    method : 'picard', 'howard' or 'auto' (howard when the tables are a pure
        min or max, else picard).
    tol : residual tolerance; default 1e-10 * (1 + sup |boundary band data|).
    max_iterations : per-level sweep cap for the damped iteration.

    Returns
    -------
    (MeshFunction, SolveReport)
    """
    if isinstance(boundary, MeshFunction):
        if boundary.spec != spec:
            raise SchemeError("boundary mesh function lives on a different mesh")
        values = boundary.values.copy()
    else:
        values = MeshFunction.from_callable(spec, boundary).values

    lp = _LevelProblem(scheme, spec)
    cls = spec.classification()
    band_sup = float(np.max(np.abs(values[cls.boundary]))) if cls.boundary.any() else 0.0
    if tol is None:
        tol = 1e-10 * (1.0 + band_sup)

    mode = _table_mode(scheme)
    if method == "auto":
        method = "howard" if mode in ("max", "min") else "picard"
    if method == "howard" and mode == "mixed":
        raise SchemeError(
            "policy iteration needs pure-min or pure-max coefficient tables; "
            "use method='picard' for mixed min-max schemes"
        )
    if method not in ("picard", "howard"):
        raise SchemeError(f"unknown method {method!r}")

    omega = scheme.damping_weight(spec) if method == "picard" else None
    report = SolveReport(method=method, tol=tol, omega=omega)

    first_level = spec.N**2  # earliest level with interior nodes
    if lp.K and spec.levels >= first_level:
        for m in range(first_level, spec.levels + 1):
            b_flat = values[m - 2].ravel()  # level m-1 lives at array row m-2
            w_flat = values[m - 1].ravel().copy()
            # warm start the unknowns from the previous level
            w_flat[lp.int_flat] = b_flat[lp.int_flat]
            if method == "picard":
                its, resid = _picard_level(lp, w_flat, b_flat, omega, tol, max_iterations)
            else:
                its, resid = _howard_level(lp, w_flat, b_flat, mode, tol)
            report.iterations.append(its)
            report.max_residual = max(report.max_residual, resid)
            values[m - 1] = w_flat.reshape(spec.spatial_shape)

    return MeshFunction(spec, values), report


def residual_sweep(scheme: SchemeDescriptor, u: MeshFunction) -> dict:
    """Sup of |S_h[u]| over the interior set (NaN-free summary)."""
    res = scheme_residual_field(scheme, u)
    interior = u.spec.classification().interior
    vals = res[interior]
    return {
        "sup_residual": float(np.max(np.abs(vals))) if vals.size else 0.0,
        "interior_nodes": int(interior.sum()),
    }
