"""Implicit solver for S_h[u] = 0 with prescribed parabolic boundary data.

Marches level by level: at each time level the interior-column values solve
the implicit (backward-in-time quotient) equation, with the lateral band and
all levels before t = (N h)^2 prescribed.

Every table shape (max, min and mixed min-max) is solved by nested policy
iteration (Hoffman & Karp 1966; Bokanowski, Maroso & Zidani 2009).  F_h is
a min over rows of a max over forms, so the outer loop picks per node the
row a = argmin over rows of the row's max, and the inner loop is pure-max
Howard over the forms of that row.  A single table makes the outer loop
trivial, singleton rows make the inner loop trivial.  Each policy
evaluation is one sparse linear solve on a sparsity pattern built once per
solve; the last LU factor is reused while the per-node form index is
unchanged, so a linear scheme factors once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SchemeError, SolverConvergenceError
from .geometry import MeshFunction, MeshSpec, quotient_weight, shift
from .scheme import SchemeDescriptor, scheme_residual_field

__all__ = ["SolveReport", "solve", "residual_sweep"]


def __getattr__(name):
    # ``solver.spla`` binds and returns scipy.sparse.linalg, which the level
    # solve imports where it factors.  Only the benchmark's span wrappers read
    # it; this hook goes once they read package spans (ROADMAP item 1(b)).
    if name == "spla":
        import scipy.sparse.linalg as spla

        globals()["spla"] = spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class SolveReport:
    """Per-solve bookkeeping returned alongside the solution."""

    tol: float
    iterations: list[int] = field(default_factory=list)
    max_residual: float = 0.0

    def total_iterations(self) -> int:
        return int(sum(self.iterations))


class _LevelProblem:
    """Precomputed index plumbing and sparsity pattern shared by all time
    levels of one solve.  The flat-index gather is 2-3x faster per sweep than
    ``second_quotient_field`` at solver sizes; its tables come from ``shift``
    and its weights from ``quotient_weight``."""

    def __init__(self, scheme: SchemeDescriptor, spec: MeshSpec):
        scheme.check_mesh(spec)
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
        # (rows, forms, ndir): short rows repeat their last form, which leaves
        # the row's max (and its first argmax) unchanged
        width = max(tab.shape[0] for tab in scheme.tables)
        self.forms = np.stack(
            [np.vstack([tab] + [tab[-1:]] * (width - tab.shape[0])) for tab in scheme.tables]
        )
        self.flat_forms = self.forms.reshape(-1, len(self.dirs))
        self._build_pattern()
        self._lu_policy = self._lu = None

    def _build_pattern(self):
        """CSC pattern of the level matrix.  Slot s = 2j (+y_j) or 2j+1 (-y_j)
        is a neighbour of every unknown; an in-mesh one is a matrix entry, an
        out-of-mesh one feeds the right-hand side.  Directions are distinct
        and canonical, so no (row, col) entry repeats."""
        K = self.K
        nbrs = np.stack([f for pair in zip(self.plus_flat, self.minus_flat) for f in pair], axis=1)
        ids = self.inv[nbrs]
        self.inside = ids >= 0
        rows = np.concatenate([np.arange(K), np.nonzero(self.inside)[0]])
        cols = np.concatenate([np.arange(K), ids[self.inside]])
        order = np.lexsort((rows, cols))
        self.indices = rows[order].astype(np.intc)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=K))]).astype(np.intc)
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        self.diag_pos, self.nb_pos = pos[:K], pos[K:]
        self.outside = []
        for s in range(nbrs.shape[1]):
            k = np.flatnonzero(~self.inside[:, s])
            self.outside.append((k, nbrs[k, s]))

    def quotients(self, w_flat: np.ndarray) -> np.ndarray:
        """(K, ndir) array of delta^2_y at the interior columns."""
        wi = w_flat[self.int_flat]
        r = np.empty((self.K, len(self.dirs)))
        for j, (pf, mf) in enumerate(zip(self.plus_flat, self.minus_flat)):
            r[:, j] = (w_flat[pf] + w_flat[mf] - 2.0 * wi) * self.weights[j]
        return r

    def scores(self, w_flat: np.ndarray) -> np.ndarray:
        """(K, rows, forms) array of gamma . delta^2 w per node and form."""
        return (self.quotients(w_flat) @ self.flat_forms.T).reshape(self.K, *self.forms.shape[:2])

    def matrix(self, coef: np.ndarray) -> "scipy.sparse.csc_matrix":
        """Level matrix for per-node weighted coefficients ``coef`` (K, ndir)."""
        from scipy import sparse

        data = np.empty(self.nb_pos.size + self.K)
        data[self.diag_pos] = 1.0 / self.spec.tau + 2.0 * coef.sum(axis=1)
        data[self.nb_pos] = -np.repeat(coef, 2, axis=1)[self.inside]
        return sparse.csc_matrix((data, self.indices, self.indptr), shape=(self.K, self.K))

    def rhs(self, coef: np.ndarray, w_flat: np.ndarray, b_flat: np.ndarray) -> np.ndarray:
        """b / tau plus the out-of-mesh neighbour terms, added slot by slot."""
        rhs = b_flat[self.int_flat] / self.spec.tau
        for s, (k, nb) in enumerate(self.outside):
            rhs[k] += coef[k, s // 2] * w_flat[nb]
        return rhs

    def evaluate(self, policy: np.ndarray, w_flat: np.ndarray, b_flat: np.ndarray) -> None:
        """Solve the linear level equation of ``policy`` (a per-node index into
        ``flat_forms``) into ``w_flat``, refactoring only when it changed."""
        coef = self.flat_forms[policy] * self.weights
        if self._lu_policy is None or not np.array_equal(policy, self._lu_policy):
            from scipy.sparse.linalg import splu

            # the pattern is structurally symmetric, which suits a minimum
            # degree ordering of A^T + A
            self._lu = splu(self.matrix(coef), permc_spec="MMD_AT_PLUS_A")
            self._lu_policy = policy
        w_flat[self.int_flat] = self._lu.solve(self.rhs(coef, w_flat, b_flat))


def _howard_level(lp: _LevelProblem, w_flat, b_flat, tol, max_policy=60):
    """Nested policy iteration; every iteration is one policy evaluation.
    The row choice is revised only once the inner (pure-max) policy of the
    current rows repeats, i.e. once their inner problem is solved."""
    nodes = np.arange(lp.K)
    width = lp.forms.shape[1]
    scores = lp.scores(w_flat)
    rows = scores.max(axis=2).argmin(axis=1)
    policy = None
    for it in range(1, max_policy + 1):
        prev = policy
        policy = rows * width + scores[nodes, rows].argmax(axis=1)
        if prev is not None and np.array_equal(policy, prev):
            # the inner problem of these rows is solved: revise the rows
            rows = scores.max(axis=2).argmin(axis=1)
            policy = rows * width + scores[nodes, rows].argmax(axis=1)
        lp.evaluate(policy, w_flat, b_flat)
        scores = lp.scores(w_flat)
        dtau = (w_flat[lp.int_flat] - b_flat[lp.int_flat]) / lp.spec.tau
        resid = float(np.max(np.abs(dtau - scores.max(axis=2).min(axis=1))))
        if resid <= tol:
            return it, resid
    raise SolverConvergenceError(
        f"policy iteration stalled at residual {resid:.3e} > tol {tol:.3e}"
    )


def solve(
    scheme: SchemeDescriptor,
    spec: MeshSpec,
    boundary: Callable | MeshFunction,
    tol: float | None = None,
) -> tuple[MeshFunction, SolveReport]:
    """Solve S_h[u] = 0 on the interior set with ``boundary`` on the band.

    Parameters
    ----------
    scheme : SchemeDescriptor
    spec : MeshSpec
    boundary : callable ``g(x, t)`` (x shaped (..., n)) or a MeshFunction;
        its values are used on every boundary-band node (and as the warm
        start on the interior).
    tol : residual tolerance; default 1e-10 * (1 + sup |boundary band data|).

    ``report.iterations`` holds, per level, the policy evaluations (one
    linear solve each); a level that needs more than 60 raises
    SolverConvergenceError.

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

    report = SolveReport(tol=tol)

    first_level = spec.N**2  # earliest level with interior nodes
    if lp.K and spec.levels >= first_level:
        for m in range(first_level, spec.levels + 1):
            b_flat = values[m - 2].ravel()  # level m-1 lives at array row m-2
            w_flat = values[m - 1].ravel().copy()
            # warm start the unknowns from the previous level
            w_flat[lp.int_flat] = b_flat[lp.int_flat]
            its, resid = _howard_level(lp, w_flat, b_flat, tol)
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
