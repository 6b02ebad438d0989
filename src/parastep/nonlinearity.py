"""Uniformly elliptic operators F acting on symmetric matrices.

The two-sided ellipticity bound used throughout is, for Y >= 0,

    lam * ||Y|| <= F(X + Y) - F(X) <= Lam * ||Y||,      ||.|| = spectral norm,

together with F(0) = 0.  Note that for eigenvalue-weight operators (Pucci,
Bellman-Isaacs with spectra in [lam, Lam]) the tight upper constant in this
spectral-norm form is n*Lam in dimension n; descriptors report that corrected
pair, which coincides with the declared pair when n = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonlinearityError

__all__ = [
    "EllipticityConstants",
    "NonlinearityDescriptor",
    "evaluate_F",
    "pucci_minus",
    "pucci_plus",
    "verify_uniform_ellipticity",
]

#: eigenvalues with |e| below this are treated as zero in the Pucci sums
EIGEN_TOLERANCE = 1e-10


@dataclass(frozen=True)
class EllipticityConstants:
    """The pair 0 < lam <= Lam, both finite (NonlinearityError)."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not (0 < self.lam <= self.Lam and math.isfinite(self.Lam)):
            raise NonlinearityError(
                f"ellipticity constants need finite 0 < lam <= Lam, got ({self.lam}, {self.Lam})"
            )


def _check_symmetric(X, n: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise NonlinearityError(f"expected square matrices, got shape {X.shape}")
    if n is not None and X.shape[-1] != n:
        raise NonlinearityError(f"expected {n}x{n} matrices, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonlinearityError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(X))))
    if float(np.max(np.abs(X - np.swapaxes(X, -1, -2)))) > 1e-9 * scale:
        raise NonlinearityError("matrix argument is not symmetric")
    return X


def _pucci(X: np.ndarray, lam: float, Lam: float, plus: bool):
    """The extremal operators on checked matrices (the unchecked core)."""
    e = np.linalg.eigvalsh(X)
    pos = np.where(e > EIGEN_TOLERANCE, e, 0.0).sum(axis=-1)
    neg = np.where(e < -EIGEN_TOLERANCE, e, 0.0).sum(axis=-1)
    out = Lam * pos + lam * neg if plus else lam * pos + Lam * neg
    return float(out) if out.ndim == 0 else out


def pucci_minus(X, lam: float, Lam: float):
    """Extremal operator M^-(X) = lam*sum(e_i > 0) + Lam*sum(e_i < 0).

    Accepts a single symmetric matrix or a stacked array (..., n, n); returns
    a float or an array of shape (...).  Eigenvalues within EIGEN_TOLERANCE of
    zero contribute to neither sum.
    """
    EllipticityConstants(lam, Lam)
    return _pucci(_check_symmetric(X), lam, Lam, plus=False)


def pucci_plus(X, lam: float, Lam: float):
    """Extremal operator M^+(X) = Lam*sum(e_i > 0) + lam*sum(e_i < 0)."""
    EllipticityConstants(lam, Lam)
    return _pucci(_check_symmetric(X), lam, Lam, plus=True)


@dataclass(frozen=True, eq=False)
class NonlinearityDescriptor:
    """A concrete operator F together with its ellipticity constants.

    Build through the classmethods: ``linear``, ``pucci_plus``,
    ``pucci_minus``, ``bellman_isaacs`` or ``custom``.
    """

    kind: str
    dimension: int
    constants: EllipticityConstants
    matrix: np.ndarray | None = None  # linear kind
    pucci_pair: tuple[float, float] | None = None  # pucci kinds
    families: tuple[tuple[np.ndarray, ...], ...] | None = None  # bellman kind
    fn: Callable | None = field(default=None, compare=False)  # custom kind

    # -- constructors ----------------------------------------------------------

    @classmethod
    def linear(cls, A) -> "NonlinearityDescriptor":
        """F(X) = tr(A X) for a symmetric positive definite A."""
        A = _check_symmetric(A)
        if A.ndim != 2:
            raise NonlinearityError("linear kind takes a single matrix")
        n = A.shape[0]
        e = np.linalg.eigvalsh(A)
        if e[0] <= 0:
            raise NonlinearityError(f"linear coefficient matrix must be positive definite, eigs {e}")
        consts = EllipticityConstants(float(e[0]), float(n * e[-1]))
        return cls(kind="linear", dimension=n, constants=consts, matrix=A)

    @classmethod
    def pucci_plus(cls, lam: float, Lam: float, dimension: int = 1) -> "NonlinearityDescriptor":
        pair = EllipticityConstants(float(lam), float(Lam))
        consts = EllipticityConstants(pair.lam, dimension * pair.Lam)
        return cls(
            kind="pucci_plus",
            dimension=int(dimension),
            constants=consts,
            pucci_pair=(pair.lam, pair.Lam),
        )

    @classmethod
    def pucci_minus(cls, lam: float, Lam: float, dimension: int = 1) -> "NonlinearityDescriptor":
        pair = EllipticityConstants(float(lam), float(Lam))
        consts = EllipticityConstants(pair.lam, dimension * pair.Lam)
        return cls(
            kind="pucci_minus",
            dimension=int(dimension),
            constants=consts,
            pucci_pair=(pair.lam, pair.Lam),
        )

    @classmethod
    def bellman_isaacs(cls, families: Sequence[Sequence]) -> "NonlinearityDescriptor":
        """F(X) = min over a of max over b of tr(A^{ab} X).

        ``families[a][b]`` are symmetric positive definite matrices; the outer
        index is minimized over, the inner maximized.
        """
        if not families or any(not row for row in families):
            raise NonlinearityError("bellman_isaacs needs a non-empty family of families")
        rows = []
        n = None
        lo, hi = np.inf, -np.inf
        for row in families:
            mats = []
            for A in row:
                A = _check_symmetric(A)
                if n is None:
                    n = A.shape[0]
                elif A.shape[0] != n:
                    raise NonlinearityError("all coefficient matrices must share a dimension")
                e = np.linalg.eigvalsh(A)
                if e[0] <= 0:
                    raise NonlinearityError("coefficient matrices must be positive definite")
                lo, hi = min(lo, float(e[0])), max(hi, float(e[-1]))
                mats.append(A)
            rows.append(tuple(mats))
        consts = EllipticityConstants(lo, n * hi)
        return cls(kind="bellman_isaacs", dimension=n, constants=consts, families=tuple(rows))

    @classmethod
    def custom(cls, fn: Callable, dimension: int, constants: EllipticityConstants) -> "NonlinearityDescriptor":
        """Wrap an arbitrary F with user-declared constants; F(0)=0 is checked."""
        desc = cls(kind="custom", dimension=int(dimension), constants=constants, fn=fn)
        z = float(fn(np.zeros((dimension, dimension))))
        if abs(z) > 1e-12:
            raise NonlinearityError(f"custom operator violates F(0) = 0: F(0) = {z}")
        return desc

    # -- duality ----------------------------------------------------------------

    def dual(self) -> "NonlinearityDescriptor":
        """The operator F~(X) = -F(-X), which swaps sub- and supersolutions."""
        if self.kind == "linear":
            return NonlinearityDescriptor.linear(self.matrix)
        if self.kind == "pucci_plus":
            return NonlinearityDescriptor.pucci_minus(*self.pucci_pair, dimension=self.dimension)
        if self.kind == "pucci_minus":
            return NonlinearityDescriptor.pucci_plus(*self.pucci_pair, dimension=self.dimension)
        if self.kind == "bellman_isaacs" and (
            len(self.families) == 1 or all(len(row) == 1 for row in self.families)
        ):
            if len(self.families) == 1:  # pure max -> pure min
                return NonlinearityDescriptor.bellman_isaacs([[A] for A in self.families[0]])
            return NonlinearityDescriptor.bellman_isaacs([[A for (A,) in self.families]])
        if self.kind == "custom":
            f = self.fn
            return NonlinearityDescriptor.custom(
                lambda X: -f(-np.asarray(X)), self.dimension, self.constants
            )
        raise NonlinearityError(f"no structural dual for kind {self.kind!r}")


def evaluate_F(descriptor: NonlinearityDescriptor, X):
    """Evaluate F(X); X may be stacked (..., n, n) for the non-custom kinds.

    X must hold square n x n matrices, finite and symmetric to 1e-9 of its
    largest entry (NonlinearityError).  This is the checked entry; callers
    that build their matrices symmetric themselves may call the core,
    ``_apply_F``, after their own finiteness rule."""
    return _apply_F(descriptor, _check_symmetric(X, descriptor.dimension))


def _apply_F(descriptor: NonlinearityDescriptor, X: np.ndarray):
    """F(X) on matrices :func:`evaluate_F` has checked, or that are built
    finite and exactly symmetric (the unchecked core)."""
    kind = descriptor.kind
    if kind == "linear":
        out = np.trace(descriptor.matrix @ X, axis1=-2, axis2=-1)
        return float(out) if np.ndim(out) == 0 else out
    if kind in ("pucci_plus", "pucci_minus"):
        return _pucci(X, *descriptor.pucci_pair, plus=kind == "pucci_plus")
    if kind == "bellman_isaacs":
        inner = []
        for row in descriptor.families:
            vals = np.stack([np.trace(A @ X, axis1=-2, axis2=-1) for A in row], axis=0)
            inner.append(vals.max(axis=0))
        out = np.stack(inner, axis=0).min(axis=0)
        return float(out) if np.ndim(out) == 0 else out
    if kind == "custom":
        if X.ndim == 2:
            return float(descriptor.fn(X))
        flat = X.reshape((-1,) + X.shape[-2:])
        return np.array([float(descriptor.fn(M)) for M in flat]).reshape(X.shape[:-2])
    raise NonlinearityError(f"unknown kind {kind!r}")


def _deterministic_probes(n: int, mag: float):
    """Boundary cases of the two-sided bound: identity bumps, rank-one bumps,
    and sign-split base points that expose trace-vs-norm gaps."""
    eye = np.eye(n)
    probes = [
        (np.zeros((n, n)), mag * eye),
        (np.zeros((n, n)), mag * np.outer(eye[0], eye[0])),
        (-5 * mag * np.diag(eye[0]), 5 * mag * eye),
        (5 * mag * np.diag(eye[0]), 5 * mag * eye),
    ]
    if n > 1:
        D = np.zeros((n, n))
        D[0, 0] = -3 * mag
        D[1, 1] = 2 * mag
        probes.append((D, mag * eye))
    return probes


def verify_uniform_ellipticity(
    descriptor: NonlinearityDescriptor,
    constants: EllipticityConstants | None = None,
    trials: int = 200,
    probe_magnitude: float = 1.0,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Sample the two-sided bound lam*||Y|| <= F(X+Y)-F(X) <= Lam*||Y||.

    Draws random symmetric X and random PSD Y (plus a small deterministic
    battery of boundary cases) and checks the declared constants.  Returns a
    dict with ``passed``, the worst two-sided margins, and the probe count.
    A sampling check can only ever falsify, never certify.
    """
    consts = constants if constants is not None else descriptor.constants
    n = descriptor.dimension
    rng = np.random.default_rng(seed)
    worst_lower = np.inf  # min of (increment - lam*||Y||); negative => violated
    worst_upper = -np.inf  # max of (increment - Lam*||Y||); positive => violated
    violations = 0
    used = 0

    pairs = _deterministic_probes(n, probe_magnitude)
    while len(pairs) < trials:
        G = rng.standard_normal((n, n)) * probe_magnitude
        X = (G + G.T) / 2.0
        W = rng.standard_normal((n, n)) * probe_magnitude
        Y = W @ W.T / max(1.0, n)
        pairs.append((X, Y))

    for X, Y in pairs[:max(trials, len(pairs))]:
        norm_Y = float(np.linalg.eigvalsh(Y)[-1])
        if norm_Y <= EIGEN_TOLERANCE:
            continue
        inc = evaluate_F(descriptor, X + Y) - evaluate_F(descriptor, X)
        scale = max(1.0, norm_Y)
        lower = inc - consts.lam * norm_Y
        upper = inc - consts.Lam * norm_Y
        worst_lower = min(worst_lower, lower)
        worst_upper = max(worst_upper, upper)
        if lower < -tol * scale or upper > tol * scale:
            violations += 1
        used += 1

    return {
        "passed": violations == 0,
        "violations": violations,
        "trials": used,
        "worst_lower_margin": float(worst_lower),
        "worst_upper_margin": float(worst_upper),
        "constants": consts,
    }
