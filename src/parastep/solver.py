"""Implicit solver for S_h[u] = 0 with prescribed parabolic boundary data.

Marches level by level: at each time level the interior-column values solve
the implicit (backward-in-time quotient) equation, with the lateral band and
all levels before t = (N h)^2 prescribed.  S_h, its quotients and its form
scores come from the scheme's interior gather, the evaluator that
``scheme_residual_field`` and ``residual_sweep`` use too; this module holds the
linear side.

Every table shape (max, min and mixed min-max) is solved by nested policy
iteration (Hoffman & Karp 1966; Bokanowski, Maroso & Zidani 2009).  F_h is
a min over rows of a max over forms, so the outer loop picks per node the
row a = argmin over rows of the row's max, and the inner loop is pure-max
Howard over the forms of that row.  A single table makes the outer loop
trivial, singleton rows make the inner loop trivial.  Each policy
evaluation is one sparse linear solve on a sparsity pattern built once per
solve.  One base LU factor is kept across levels.  A policy that differs
from the base's at no more than _RANK nodes is solved through that factor
by a Sherman-Morrison-Woodbury update (Hager, SIAM Review 31, 1989), with
the factor's solved unit columns cached up to _CACHE columns; a larger
change, a full cache or a failed r x r capacitance solve refactors.  A
linear scheme keeps its policy, so it factors once per solve.  Howard's
stopping test evaluates the true residual, so an inexact update can only
cost iterations.

Frozen-policy blocks.  After a level that Howard accepts in one evaluation
of the base factor's own policy (solved by the factor alone, or the level
that factored it; not a low-rank update), the following levels are marched
as one block with that policy: one bare triangular solve per level, then
one vectorised check of every level.  A level passes iff Howard's first
policy at its warm start (the previous level's interior, this level's band)
is the frozen one and its residual is at most tol, which is exactly
Howard's first iteration accepting it.  The passing prefix is kept with one
evaluation each; the first failing level goes to Howard from its usual warm
start.  So values, per-level evaluation counts and the maximal residual are
those of the per-level route bit for bit.  The block's scratch stays under
_BLOCK bytes, which sets its length; _BLOCK = 0 is the per-level route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SchemeError, SolverConvergenceError
from .geometry import MeshFunction, MeshSpec
from .scheme import SchemeDescriptor, _form_max, _InteriorGather, _sweep

__all__ = ["SolveReport", "solve", "residual_sweep"]

# A policy that differs from the base factor's at r <= _RANK rows is solved
# through that factor by a rank-r update instead of a fresh LU.  Pucci+ 2D,
# h=1/32, 2 cores, factorizations / solve time by _RANK: 0: 305 / 1.3 s,
# 16: 57 / 0.6 s, 32: 36 / 0.55 s, 64: 19 / 0.65 s, 128: 10 / 1.0 s.  At
# h=1/64, 32 (10.0 s) also beat 16 (13.9 s) and 64 (10.7 s).
_RANK = 32
# cap on the cached columns of A_base^-1: 2 _RANK columns, 0.4 MiB at
# K = 841 unknowns and 1.9 MiB at K = 3721
_CACHE = 2 * _RANK
# byte budget of a frozen-policy block's scratch, which sets its length
# (``_block_length``); 0 turns blocks off.  Heat 1D h=1/128 / heat 2D h=1/32,
# 2 cores, median of 8 by budget: 128 KiB: 0.19 / 0.096 s, 512 KiB: 0.15 /
# 0.077 s, 1 MiB: 0.16 / 0.072 s, 4 MiB (blocks of 321 / 43 levels): 0.17 /
# 0.076 s; 0 (level by level) about 0.47 / 0.10 s.  The traced scratch
# peaks at 0.54-0.70 of the budget.
_BLOCK = 4 << 20


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
    """The linear side of one solve, shared by all its time levels: the CSC
    pattern of the level matrix, the base LU factor with its low-rank
    update, and Howard's choice of rows and policy.  S_h, its quotients and
    its scores come from the scheme's interior gather ``op``."""

    def __init__(self, scheme: SchemeDescriptor, spec: MeshSpec):
        self.op = _InteriorGather(scheme, spec)
        self.spec = spec
        self.int_flat, self.weights = self.op.int_flat, self.op.weights
        self.K = self.int_flat.size
        self.inv = np.full(math.prod(spec.spatial_shape), -1, dtype=np.int64)
        self.inv[self.int_flat] = np.arange(self.K)
        self.forms = scheme.forms
        self.flat_forms = self.forms.reshape(-1, self.forms.shape[-1])
        self._build_pattern()
        # the base factor and its column cache (see ``evaluate``)
        self._lu = self._base_policy = self._base_coef = self._Z = None
        self._slot = np.full(self.K, -1, dtype=np.int64)  # node -> cache column
        self._cached = 0
        self.updated = False  # the last evaluation ran a low-rank update

    def _build_pattern(self):
        """CSC pattern of the level matrix.  Slot s = 2j (+y_j) or 2j+1 (-y_j)
        is a neighbour of every unknown; an in-mesh one is a matrix entry, an
        out-of-mesh one feeds the right-hand side.  Directions are distinct
        and canonical, so no (row, col) entry repeats."""
        K = self.K
        nbrs = np.stack([f for pair in zip(self.op.plus_flat, self.op.minus_flat) for f in pair], axis=1)
        ids = self.inv[nbrs]
        self.inside = ids >= 0
        # out-of-mesh slots point at node 0; ``_update`` gives them weight 0
        self.nb_ids = np.where(self.inside, ids, 0)
        rows = np.concatenate([np.arange(K), np.nonzero(self.inside)[0]])
        cols = np.concatenate([np.arange(K), ids[self.inside]])
        order = np.lexsort((rows, cols))
        self.indices = rows[order].astype(np.intc)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=K))]).astype(np.intc)
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        self.diag_pos, self.nb_pos = pos[:K], pos[K:]
        # the out-of-mesh slots in slot order: unknown, direction, neighbour
        out = [np.flatnonzero(~self.inside[:, s]) for s in range(nbrs.shape[1])]
        slot = np.concatenate([np.full(k.size, s) for s, k in enumerate(out)])
        self.out_k = np.concatenate(out)
        self.out_dir, self.out_nb = slot // 2, nbrs[self.out_k, slot]

    def rows(self, scores: np.ndarray) -> np.ndarray:
        """Per node, the row whose max form score is least (first on ties)."""
        return _form_max(scores).argmin(axis=-1)

    def policy(self, scores: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Per node, the argmax form of its row in ``rows`` (first on ties)
        as an index into ``flat_forms``.  ``scores`` may be a stack of
        levels."""
        # a gather on the flattened nodes: 2-3x faster than take_along_axis
        nodes = scores.reshape(-1, *self.forms.shape[:2])
        best = nodes[np.arange(nodes.shape[0]), rows.ravel()].argmax(axis=-1)
        return rows * self.forms.shape[1] + best.reshape(rows.shape)

    def matrix(self, coef: np.ndarray) -> "scipy.sparse.csc_matrix":
        """Level matrix for per-node weighted coefficients ``coef`` (K, ndir)."""
        from scipy import sparse

        data = np.empty(self.nb_pos.size + self.K)
        data[self.diag_pos] = 1.0 / self.spec.tau + 2.0 * coef.sum(axis=1)
        data[self.nb_pos] = -np.repeat(coef, 2, axis=1)[self.inside]
        return sparse.csc_matrix((data, self.indices, self.indptr), shape=(self.K, self.K))

    def boundary_terms(self, coef: np.ndarray, w_flat: np.ndarray) -> np.ndarray:
        """(..., out slots) array: coef times the off-mesh neighbour's value
        per out-of-mesh slot (unknown ``out_k``), of one level or a stack."""
        return coef[self.out_k, self.out_dir] * w_flat.take(self.out_nb, axis=-1)

    def rhs(self, coef: np.ndarray, w_flat: np.ndarray, b_flat: np.ndarray) -> np.ndarray:
        """b / tau plus the out-of-mesh neighbour terms, added slot by slot:
        ``add.at`` adds in index order, which is slot order."""
        rhs = b_flat[self.int_flat] / self.spec.tau
        np.add.at(rhs, self.out_k, self.boundary_terms(coef, w_flat))
        return rhs

    def evaluate(self, policy: np.ndarray, w_flat: np.ndarray, b_flat: np.ndarray) -> None:
        """Solve the linear level equation of ``policy`` (a per-node index into
        ``flat_forms``) into ``w_flat``.

        One base LU factor is kept, with the policy and ``coef`` it was
        factored for, across levels.  A policy equal to the base's is solved
        with the factor alone.  One that differs at r rows, 0 < r <= _RANK,
        is solved through the factor by a rank-r update (:meth:`_update`).
        The base is refactored for the new policy when r > _RANK, when the
        update would push the cache of A_base^-1 columns past _CACHE columns,
        or when its r x r capacitance solve fails or is not finite.

        ``updated`` tells whether the update ran.  If it did not, the policy
        is the base's, and a level accepted after this one evaluation may
        start a frozen-policy block (see ``solve``)."""
        coef = self.flat_forms[policy] * self.weights
        rhs = self.rhs(coef, w_flat, b_flat)
        x = None
        self.updated = False
        if self._lu is not None:
            changed = np.flatnonzero(policy != self._base_policy)
            x = self._lu.solve(rhs) if changed.size == 0 else self._update(changed, coef, rhs)
            self.updated = x is not None and changed.size > 0
        if x is None:
            from scipy.sparse.linalg import splu

            # the pattern is structurally symmetric, which suits a minimum
            # degree ordering of A^T + A
            self._lu = splu(self.matrix(coef), permc_spec="MMD_AT_PLUS_A")
            self._base_policy, self._base_coef = policy, coef
            self._slot.fill(-1)
            self._cached = 0
            x = self._lu.solve(rhs)
        w_flat[self.int_flat] = x

    def _update(self, changed: np.ndarray, coef: np.ndarray, rhs: np.ndarray):
        """Solve A x = rhs through the base factor, or return None to refactor.

        A = A_base + E D, where E holds the unit columns of the ``changed``
        rows and D (r x K) their row differences.  Sherman-Morrison-Woodbury
        gives x = y - Z C^-1 D y with y = A_base^-1 rhs, Z = A_base^-1 E and
        C = I + D Z.  The columns of Z are cached per base, so a row that
        changes again costs no further solve.  D has the fixed pattern of the
        level matrix, so D Z and D y are gathers over ``nb_ids``, not a dense
        product (whose BLAS threads cost milliseconds at r = 16-64)."""
        r = changed.size
        if r > _RANK:
            return None
        new = changed[self._slot[changed] < 0]
        if new.size:
            stop = self._cached + new.size
            if stop > _CACHE:
                return None
            if self._Z is None:
                self._Z = np.empty((self.K, _CACHE), order="F")
            E = np.zeros((self.K, new.size))
            E[new, np.arange(new.size)] = 1.0
            self._Z[:, self._cached : stop] = self._lu.solve(E)
            self._slot[new] = np.arange(self._cached, stop)
            self._cached = stop
        y = self._lu.solve(rhs)
        slots = self._slot[changed]
        dcoef = coef[changed] - self._base_coef[changed]
        # row i of D: 2 sum(dcoef) on the diagonal, -dcoef at in-mesh slots
        ddiag = 2.0 * dcoef.sum(axis=1)
        doff = np.repeat(dcoef, 2, axis=1) * self.inside[changed]
        nb = self.nb_ids[changed]
        cap = ddiag[:, None] * self._Z[changed[:, None], slots] - np.einsum(
            "is,isl->il", doff, self._Z[nb[:, :, None], slots]
        )
        cap[np.diag_indices(r)] += 1.0
        dy = ddiag * y[changed] - np.einsum("is,is->i", doff, y[nb])
        try:
            v = np.linalg.solve(cap, dy)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(v)):
            return None
        return y - self._Z[:, slots] @ v


def _howard_level(lp: _LevelProblem, w_flat, b_flat, tol, max_policy=60, level=None):
    """Nested policy iteration; every iteration is one policy evaluation.
    The row choice is revised only once the inner (pure-max) policy of the
    current rows repeats, i.e. once their inner problem is solved.  ``level``
    only names the level in the stall error."""
    scores = lp.op.scores(w_flat)
    rows = lp.rows(scores)
    policy = None
    for it in range(1, max_policy + 1):
        prev = policy
        policy = lp.policy(scores, rows)
        if prev is not None and np.array_equal(policy, prev):
            # the inner problem of these rows is solved: revise the rows
            rows = lp.rows(scores)
            policy = lp.policy(scores, rows)
        lp.evaluate(policy, w_flat, b_flat)
        scores = lp.op.scores(w_flat)
        resid = float(np.abs(lp.op.residual(w_flat[lp.int_flat], b_flat[lp.int_flat], scores)).max())
        if resid <= tol:
            return it, resid
    where = "" if level is None else f" at level {level} (t={level * lp.spec.tau:.4g})"
    raise SolverConvergenceError(
        f"policy iteration stalled{where} at residual {resid:.3e} > tol {tol:.3e}"
    )


def _block_length(lp: _LevelProblem) -> int:
    """Levels per frozen-policy block: _BLOCK over the scratch bytes of one
    level in ``_frozen_block``: its boundary terms, and the level's nodes,
    interior values and, while a check runs, its quotients and scores with
    their temporaries (the gather's ``level_bytes``)."""
    return _BLOCK // (lp.op.level_bytes() + 8 * lp.out_k.size)


def _frozen_block(lp: _LevelProblem, flat: np.ndarray, m: int, length: int, tol: float):
    """March levels m .. m + length - 1 with the base factor's policy, one
    bare solve each, and check them all in one pass.  The accepted prefix is
    written into ``flat`` (levels by flat nodes); returns its residuals.

    The check is Howard's first iteration at each level: the first policy at
    the warm start must be the frozen one, and the residual of its solution
    at most ``tol``."""
    block = flat[m - 1 : m - 1 + length].copy()  # the band data of its levels
    X = np.empty((length + 1, lp.K))  # X[l]: the interior before level m + l
    X[0] = flat[m - 2, lp.int_flat]
    terms = lp.boundary_terms(lp._base_coef, block)
    for l in range(length):
        rhs = X[l] / lp.spec.tau
        np.add.at(rhs, lp.out_k, terms[l])  # as in ``rhs``
        X[l + 1] = lp._lu.solve(rhs)
    block[:, lp.int_flat] = X[:-1]  # the warm starts
    scores = lp.op.scores(block)
    ok = (lp.policy(scores, lp.rows(scores)) == lp._base_policy).all(axis=1)
    del scores  # one scores array at a time keeps the scratch in budget
    block[:, lp.int_flat] = X[1:]  # the solved levels
    resid = np.abs(lp.op.residual(X[1:], X[:-1], lp.op.scores(block))).max(axis=-1)
    ok &= resid <= tol
    n = length if ok.all() else int(ok.argmin())
    flat[m - 1 : m - 1 + n, lp.int_flat] = X[1 : n + 1]
    return resid[:n]


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
    SolverConvergenceError, which names the level and its time.

    Levels are marched one at a time by nested Howard until a level is
    accepted in one evaluation of the base factor's own policy.  The levels
    after it go as frozen-policy blocks of ``_block_length`` levels: one
    bare solve per level, then one batched check that accepts the prefix
    Howard's first iteration would accept.  The first rejected level, and
    every level after a cut block until the next entry, is Howard's again.
    Values and report are those of the per-level route (``_BLOCK = 0``).

    Returns
    -------
    (MeshFunction, SolveReport)
    """
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise SchemeError(f"tol must be a finite positive number, got {tol!r}")
    if isinstance(boundary, MeshFunction):
        if boundary.spec != spec:
            raise SchemeError("boundary mesh function lives on a different mesh")
        values = boundary.values.copy()
    else:
        values = MeshFunction.from_callable(spec, boundary).values

    lp = _LevelProblem(scheme, spec)
    band_sup = float(np.max(np.abs(values[spec.classification().boundary]), initial=0.0))
    if tol is None:
        tol = 1e-10 * (1.0 + band_sup)

    report = SolveReport(tol=tol)

    flat = values.reshape(spec.levels, -1)  # level m lives at row m - 1 of ``flat``
    length = _block_length(lp)
    frozen = False  # the last level may start a frozen-policy block
    m = spec.N**2  # earliest level with interior nodes
    while lp.K and m <= spec.levels:
        if frozen:
            resid = _frozen_block(lp, flat, m, min(length, spec.levels - m + 1), tol)
            report.iterations += [1] * resid.size
            report.max_residual = max(report.max_residual, float(resid.max(initial=0.0)))
            m += resid.size
            frozen = resid.size == length
            continue
        b_flat = flat[m - 2]
        w_flat = flat[m - 1].copy()
        # warm start the unknowns from the previous level
        w_flat[lp.int_flat] = b_flat[lp.int_flat]
        its, resid = _howard_level(lp, w_flat, b_flat, tol, level=m)
        report.iterations.append(its)
        report.max_residual = max(report.max_residual, resid)
        flat[m - 1] = w_flat
        frozen = length > 0 and its == 1 and not lp.updated
        m += 1

    return MeshFunction(spec, flat.reshape(spec.shape)), report


def residual_sweep(scheme: SchemeDescriptor, u: MeshFunction) -> dict:
    """Sup of |S_h[u]| over the interior set (NaN-free summary), with a
    running sup over the chunks of the scheme's S_h sweep."""
    op = _InteriorGather(scheme, u.spec)
    flat = u.values.reshape(u.spec.levels, -1)
    sup, nodes = 0.0, 0  # np.maximum keeps a NaN, as one max over every node does
    for _, _, res in _sweep(op, lambda a, b: flat[a:b]):
        sup = np.maximum(sup, np.abs(res).max(initial=0.0))
        nodes += res.size
    return {"sup_residual": float(sup), "interior_nodes": nodes}
