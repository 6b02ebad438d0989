"""Model problems, empirical convergence studies, and diagnostic bundles.

The exact-solution library carries closed-form time derivatives and Hessians
so each entry can be self-checked against its operator before any mesh is
built.  Convergence studies report sup-norm errors against the exact values
at the mesh nodes, pairwise halving rates, and a least-squares rate; the CSV
writer is deterministic down to the byte (repr floats, no wall-clock data)
so repeated runs with the same inputs can be diffed directly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .convolutions import verify_convolution_properties
from .diagnostics import FalsifierConfig, certificates_to_rows, delta_falsifier, good_set_measure
from .envelopes import abp_diagnostic
from .errors import ConfigError, EnvelopeError
from .geometry import KBox, MeshFunction, MeshSpec
from .nonlinearity import NonlinearityDescriptor, evaluate_F
from .scheme import build_monotone_scheme
from .solver import solve

__all__ = [
    "ExactSolution",
    "exact_library",
    "get_problem",
    "ConvergenceStudy",
    "run_convergence_study",
    "run_diagnostics",
]


@dataclass(frozen=True)
class ExactSolution:
    """A reference solution of u_t = F(D^2 u) with closed-form derivatives."""

    name: str
    descriptor: NonlinearityDescriptor
    bounds: tuple[tuple[float, float], ...]
    fn: Callable
    du_dt: Callable
    hessian: Callable

    @property
    def n(self) -> int:
        return len(self.bounds)

    def __call__(self, x, t):
        return self.fn(x, t)

    def pde_residual(self, samples: int = 200, t_max: float = 0.5, seed: int = 0) -> float:
        """max |u_t - F(D^2 u)| over random interior sample points."""
        rng = np.random.default_rng(seed)
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        x = lo + (hi - lo) * rng.random((samples, self.n))
        t = t_max * rng.random(samples)
        resid = self.du_dt(x, t) - evaluate_F(self.descriptor, self.hessian(x, t))
        return float(np.max(np.abs(resid)))


# The profiles evaluate in place, in the order of their closed forms: on the
# node grids of MeshFunction.from_callable they hold two grids besides x and
# t, so n + 3 grids in all.
def _decay(c: float, x, t) -> np.ndarray:
    """exp(c t) on the points (x, t), as a fresh array (0-d for one point)."""
    u = np.empty(np.broadcast_shapes(np.shape(t), np.shape(x)[:-1]))
    return np.exp(np.multiply(c, t, out=u), out=u)


def _times_sine(u: np.ndarray, xi) -> np.ndarray:
    """u *= sin(pi xi), in place."""
    s = np.multiply(math.pi, xi, out=np.empty(np.shape(xi)))
    u *= np.sin(s, out=s)
    return u


def _sine_profile(lam_eff: float, descriptor: NonlinearityDescriptor, name: str) -> ExactSolution:
    # u = exp(-c pi^2 t) sin(pi x); concave in x wherever it is positive, so
    # the extremal operators act linearly with the effective constant c.
    pi2 = math.pi**2

    def fn(x, t):
        return _times_sine(_decay(-lam_eff * pi2, x, t), x[..., 0])

    def du_dt(x, t):
        return -lam_eff * pi2 * fn(x, t)

    def hessian(x, t):
        return (-pi2 * fn(x, t))[..., None, None]

    return ExactSolution(
        name=name,
        descriptor=descriptor,
        bounds=((0.0, 1.0),),
        fn=fn,
        du_dt=du_dt,
        hessian=hessian,
    )


def _heat_product_2d() -> ExactSolution:
    pi = math.pi

    def fn(x, t):
        return _times_sine(_times_sine(_decay(-2.0 * pi**2, x, t), x[..., 0]), x[..., 1])

    def du_dt(x, t):
        return -2.0 * pi**2 * fn(x, t)

    def hessian(x, t):
        u = fn(x, t)
        cross = (
            pi**2
            * np.exp(-2.0 * pi**2 * np.asarray(t))
            * np.cos(pi * x[..., 0])
            * np.cos(pi * x[..., 1])
        )
        H = np.zeros(np.shape(u) + (2, 2))
        H[..., 0, 0] = -pi**2 * u
        H[..., 1, 1] = -pi**2 * u
        H[..., 0, 1] = cross
        H[..., 1, 0] = cross
        return H

    return ExactSolution(
        name="heat_product_2d",
        descriptor=NonlinearityDescriptor.linear(np.eye(2)),
        bounds=((0.0, 1.0), (0.0, 1.0)),
        fn=fn,
        du_dt=du_dt,
        hessian=hessian,
    )


def exact_library() -> dict[str, ExactSolution]:
    """The built-in model problems, keyed by name."""
    return {
        "heat_sine": _sine_profile(
            1.0, NonlinearityDescriptor.linear([[1.0]]), "heat_sine"
        ),
        "pucci_plus_concave": _sine_profile(
            1.0, NonlinearityDescriptor.pucci_plus(1.0, 2.0), "pucci_plus_concave"
        ),
        "pucci_minus_concave": _sine_profile(
            2.0, NonlinearityDescriptor.pucci_minus(1.0, 2.0), "pucci_minus_concave"
        ),
        "heat_product_2d": _heat_product_2d(),
    }


def get_problem(name: str) -> ExactSolution:
    lib = exact_library()
    if name not in lib:
        raise ConfigError(f"unknown problem {name!r}; available: {', '.join(sorted(lib))}")
    return lib[name]


@dataclass
class ConvergenceStudy:
    """Sup-norm errors of the implicit scheme against an exact solution."""

    problem: str
    N: int
    T: float
    seed: int
    h_values: list
    levels: list
    interior_nodes: list
    sup_errors: list
    iterations: list  # total policy evaluations per mesh
    pairwise_rates: list  # one per consecutive pair; NaN where either error is 0
    fitted_rate: float
    max_residual: float
    elapsed_seconds: float  # informational; never written to the CSV

    def to_csv(self) -> str:
        lines = [
            "# parastep convergence study",
            f"# problem={self.problem} N={self.N}"
            f" T={self.T!r} seed={self.seed}",
            f"# fitted_rate={self.fitted_rate!r}",
            "h,sup_error,rate_pairwise,iterations",
        ]
        rates = [""] + ["" if math.isnan(r) else repr(r) for r in self.pairwise_rates]
        for i, h in enumerate(self.h_values):
            lines.append(f"{h!r},{self.sup_errors[i]!r},{rates[i]},{self.iterations[i]}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            f.write(self.to_csv())


def run_convergence_study(
    problem: str | ExactSolution,
    h_values: Sequence[float],
    T: float = 0.25,
    N: int = 2,
    seed: int = 0,
    tol: float | None = None,
) -> ConvergenceStudy:
    """Solve the problem on a mesh sweep and fit the sup-error decay rate.

    The boundary band is fed the exact values, so the reported sup error over
    all stored nodes equals the interior error.  ``seed`` only labels the
    study (the solves are deterministic); it is recorded in the CSV header so
    byte-identical reruns can be checked.  ``tol`` is each solve's residual
    tolerance (None: ``solve``'s default).
    """
    sol = get_problem(problem) if isinstance(problem, str) else problem
    if len(h_values) == 0:
        raise ConfigError("empty h sweep")
    for i, h in enumerate(h_values):
        if h in h_values[:i]:
            raise ConfigError(f"h sweep repeats the spacing {h!r}")
    scheme = build_monotone_scheme(sol.descriptor, N=N)

    t0 = time.perf_counter()
    errors, lvls, counts, iters = [], [], [], []
    max_resid = 0.0
    for h in h_values:
        spec = MeshSpec(h=h, bounds=sol.bounds, T=T, N=N)
        u, report = solve(scheme, spec, sol.fn, tol=tol)
        exact = MeshFunction.from_callable(spec, sol.fn)
        errors.append(float(np.max(np.abs(u.values - exact.values))))
        lvls.append(spec.levels)
        counts.append(int(spec.classification().interior.sum()))
        iters.append(report.total_iterations())
        max_resid = max(max_resid, report.max_residual)
    elapsed = time.perf_counter() - t0

    rates = [
        math.log(errors[i - 1] / errors[i]) / math.log(h_values[i - 1] / h_values[i])
        if errors[i] > 0 and errors[i - 1] > 0
        else math.nan
        for i in range(1, len(errors))
    ]
    if len(errors) >= 2 and min(errors) > 0:
        fitted = float(
            np.polyfit(np.log(np.asarray(h_values, float)), np.log(errors), 1)[0]
        )
    else:
        fitted = math.nan

    return ConvergenceStudy(
        problem=sol.name,
        N=N,
        T=T,
        seed=seed,
        h_values=[float(h) for h in h_values],
        levels=lvls,
        interior_nodes=counts,
        sup_errors=errors,
        iterations=iters,
        pairwise_rates=rates,
        fitted_rate=fitted,
        max_residual=max_resid,
        elapsed_seconds=elapsed,
    )


def run_diagnostics(
    u: MeshFunction,
    descriptor: NonlinearityDescriptor,
    delta: float | None = None,
    falsifier_config: FalsifierConfig | None = None,
    theta: float | None = None,
    M_values: Sequence[float] | None = None,
    kbox: KBox | None = None,
    abp: bool = False,
) -> dict:
    """Run the verification stack against one mesh function.

    Always runs the two-sided falsifier at ``delta`` (default N h).  The
    convolution property checks, the good-set sweep, and the maximum
    principle ratio are optional: they run when ``theta``, ``M_values`` +
    ``kbox``, or ``abp`` are supplied.  An ``EnvelopeError`` of the ABP
    diagnostic (u < 0 on its cylinder's boundary, ...) is ``{"skipped": reason}``.
    """
    spec = u.spec
    if delta is None:
        delta = spec.N * spec.h
    out: dict = {"delta": float(delta)}

    falsifier: dict = {}
    for side in ("super", "sub"):
        certs = delta_falsifier(u, descriptor, delta, side=side, config=falsifier_config)
        falsifier[side] = {
            "violations": len(certs),
            "certificates": certificates_to_rows(certs),
        }
    falsifier["clean"] = (
        falsifier["super"]["violations"] == 0 and falsifier["sub"]["violations"] == 0
    )
    out["falsifier"] = falsifier

    if theta is not None:
        out["convolution"] = verify_convolution_properties(u, theta)
    if M_values is not None and kbox is not None:
        rep = good_set_measure(u, M_values, kbox)
        out["good_set"] = {
            "M_values": list(rep.M_values),
            "bad_fraction": list(rep.bad_fraction),
            "bad_measure": list(rep.bad_measure),
            "node_count": rep.node_count,
            "slope": rep.slope,
            "slope_ci": rep.slope_ci,
        }
    if abp:
        try:
            out["abp"] = abp_diagnostic(u)
        except EnvelopeError as exc:
            out["abp"] = {"skipped": str(exc)}
    return out
