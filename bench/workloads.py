"""The benchmark's workloads: what each one runs, how its outputs are checked,
and why it exists.

Every workload is a closed loop: one job at a time, the next only after the
previous one returned, all load from one process (``cli`` waits on one child
process at a time).  Sizes use ``T = 0.25``, ``N = 2`` and ``method = auto``.
The seed sets the falsifier's Sobol seed and the amplitudes of the
non-convex boundary data; parastep only sees the generated inputs.

Why each workload exists:

``march`` -- the solver in process, no diagnostics timed.  Four solves use
    the solver in four different ways:
    * heat 1D, h=1/128: linear, 4093 levels, one policy, so the same matrix
      is solved every level.  A factor-reuse change pays most here.
    * heat 2D, h=1/32: linear 2D.
    * Pucci+ (1, 2) 2D, h=1/32, smooth non-convex boundary data: Howard with
      several policies per level (about 480 policy iterations over 253
      levels, at most 5 in one level).  A per-policy cache mostly misses
      here, so a change that helps the linear cases and costs this one shows.
    * Bellman-Isaacs 2D with mixed min-max tables, h=1/16: the damped
      (Picard) route today, about 13,300 sweeps.  Extending policy iteration
      to Isaacs tables moves only this job.
``verify`` -- the diagnostics on grids solved during set-up, so no solve
    runs in the timed pass and a solver change must leave this workload
    unchanged.
    * 1D heat, h=1/16: falsifier, convolution checks, the good-set sweep
      (960 HiGHS LPs, most of the time) and ABP.  Exposes good-set work.
    * 2D heat, h=1/12: falsifier on both sides, convolution checks (Hölder
      norm) and ABP.  Exposes the falsifier and the all-pairs Hölder norm.
``cli`` -- ``python -m parastep`` as a user runs it, one child at a time.
    Interpreter start, import and grid text I/O dominate, so a lazy import
    or a vectorised text format shows here; it runs no good-set LP.  Writes
    and reads of the same text format sit side by side.  Start-up varies a
    lot on a shared 2-core box (``--help`` took 1.38-1.69 s across runs),
    which is why every job time is a median over passes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import parastep as ps

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
T = 0.25
N = 2

# one-line reasons, also written to BENCHMARK.json
WHY = {
    "march": "solver only: linear 1D/2D Howard, non-convex Pucci Howard and Isaacs Picard;"
    " exposes factor reuse and policy-iteration changes, bypasses the diagnostics",
    "verify": "diagnostics only on grids solved in set-up: good-set LPs, falsifier, Holder"
    " and convolutions, ABP; a solver change must leave it unchanged",
    "cli": "python -m parastep per job: start-up, import and grid text I/O dominate;"
    " exposes lazy imports and text format changes, runs no good-set LP",
}

# size -> job parameters; "small" is the self-test's reduced run
SIZES = {
    "full": {
        "heat_1d": 1 / 128, "heat_2d": 1 / 32, "pucci_2d": 1 / 32, "isaacs_2d": 1 / 16,
        "diag_1d": 1 / 16, "diag_2d": 1 / 12, "samples": 200,
        "cli_solve": "0.03125", "cli_converge": "0.125,0.0625,0.03125,0.015625",
        "cli_grid": 1 / 64,
    },
    "small": {
        "heat_1d": 1 / 32, "heat_2d": 1 / 8, "pucci_2d": 1 / 8, "isaacs_2d": 1 / 8,
        "diag_1d": 1 / 8, "diag_2d": 1 / 8, "samples": 16,
        "cli_solve": "0.125", "cli_converge": "0.125,0.0625",
        "cli_grid": 1 / 16,
    },
}
# the falsifier's default cap on certificates; v = -t reaches it at both sizes
CERTIFICATES = 1000

ISAACS_FAMILIES = [
    [np.eye(2), [[2.0, 0.5], [0.5, 1.0]]],
    [[[1.0, -0.3], [-0.3, 2.0]], 1.5 * np.eye(2)],
]
UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))


def check_source(module) -> None:
    """Refuse to measure a parastep that is not the checkout's own ``src``."""
    where = Path(module.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"parastep imported from {where}, not from {SRC}")


class Job:
    """One timed call: ``run(traced)`` is timed, ``check(out)`` is not.

    ``check`` returns a list of problems; an empty list means correct.
    """

    def __init__(self, metric: str, run, check):
        self.metric = metric
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# march
# ---------------------------------------------------------------------------


def nonconvex_boundary(seed: int):
    """Smooth boundary data whose Hessian changes sign inside the square: a
    product mode, a cosine mode and a saddle.  The seed moves each amplitude
    within 2 percent, which keeps the policy-iteration count within a few
    percent of its mean."""
    amp = 1.0 + 0.02 * (2.0 * np.random.default_rng(seed).random(3) - 1.0)

    def g(x, t):
        x0, x1 = x[..., 0], x[..., 1]
        t = np.asarray(t)
        return (
            amp[0] * np.sin(math.pi * x0) * np.sin(math.pi * x1) * np.exp(-t)
            + 0.5 * amp[1] * np.cos(2.0 * math.pi * x0 + 1.0) * np.cos(math.pi * x1)
            + 0.3 * amp[2] * (x0 - 0.5) * (x1 - 0.5) * (1.0 + t)
        )

    return g


def _exact_job(metric, problem, h):
    """Solve a library problem; correct when the sup error is at most 8 h^2."""
    sol = ps.get_problem(problem)
    scheme = ps.build_monotone_scheme(sol.descriptor, N=N)
    spec = ps.MeshSpec(h=h, bounds=sol.bounds, T=T, N=N)

    def check(out):
        u, _ = out
        err = float(np.max(np.abs(u.values - ps.MeshFunction.from_callable(spec, sol.fn).values)))
        return [] if err <= 8.0 * h * h else [f"sup error {err!r} > 8 h^2 = {8.0 * h * h!r}"]

    return Job(metric, lambda traced: ps.solve(scheme, spec, sol.fn), check)


def _residual_job(metric, descriptor, h, boundary):
    """Solve with non-convex data; correct when the residual sweep is within the solve's tol."""
    scheme = ps.build_monotone_scheme(descriptor, N=N)
    spec = ps.MeshSpec(h=h, bounds=UNIT_SQUARE, T=T, N=N)

    def check(out):
        u, report = out
        res = ps.residual_sweep(scheme, u)["sup_residual"]
        return [] if res <= report.tol else [f"residual {res!r} > tol {report.tol!r}"]

    return Job(metric, lambda traced: ps.solve(scheme, spec, boundary), check)


def setup_march(seed: int, work: Path, size: str) -> list[Job]:
    s = SIZES[size]
    g = nonconvex_boundary(seed)
    return [
        _exact_job("solve.heat_1d_s", "heat_sine", s["heat_1d"]),
        _exact_job("solve.heat_2d_s", "heat_product_2d", s["heat_2d"]),
        _residual_job(
            "solve.pucci_2d_s", ps.NonlinearityDescriptor.pucci_plus(1.0, 2.0, 2), s["pucci_2d"], g
        ),
        _residual_job(
            "solve.isaacs_2d_s",
            ps.NonlinearityDescriptor.bellman_isaacs(ISAACS_FAMILIES),
            s["isaacs_2d"],
            g,
        ),
    ]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def centred_kbox(spec) -> ps.KBox:
    """Largest calibrated K-box centred in space whose top touches T, as the
    CLI's ``diagnose`` builds it."""
    n = spec.n
    half = min((hi - lo) / 2.0 for lo, hi in spec.bounds)
    r = min(9.0 * math.sqrt(n) * half, math.sqrt(81.0 * n * spec.T))
    center = tuple((lo + hi) / 2.0 for lo, hi in spec.bounds)
    t0 = max(0.0, spec.T - r * r / (81.0 * n))
    return ps.KBox((center, t0), r)


def _check_report(report) -> list[str]:
    problems = []
    if not report["falsifier"]["clean"]:
        problems.append("falsifier found violations on a computed grid")
    if not report["convolution"]["passed"]:
        failed = [k for k, c in report["convolution"]["checks"].items() if not c["passed"]]
        problems.append(f"convolution checks failed: {failed}")
    if "good_set" in report:
        frac = report["good_set"]["bad_fraction"]
        if any(b > a for a, b in zip(frac, frac[1:])) or frac[-1] != 0.0:
            problems.append(f"good-set bad fraction not non-increasing to 0: {frac}")
    if not math.isfinite(report["abp"]["ratio"]):
        problems.append("ABP ratio is not finite")
    return problems


def _diagnose_job(metric, problem, h, seed, samples, good_set):
    sol = ps.get_problem(problem)
    spec = ps.MeshSpec(h=h, bounds=sol.bounds, T=T, N=N)
    u, _ = ps.solve(ps.build_monotone_scheme(sol.descriptor, N=N), spec, sol.fn)
    kw = dict(
        delta=2.0 * h,
        falsifier_config=ps.FalsifierConfig(samples=samples, seed=seed),
        theta=0.05,
        abp=True,
    )
    if good_set:
        kw.update(M_values=[1.0, 4.0, 16.0, 64.0], kbox=centred_kbox(spec))
    return Job(metric, lambda traced: ps.run_diagnostics(u, sol.descriptor, **kw), _check_report)


def setup_verify(seed: int, work: Path, size: str) -> list[Job]:
    s = SIZES[size]
    return [
        _diagnose_job("diagnose.1d_s", "heat_sine", s["diag_1d"], seed, s["samples"], True),
        _diagnose_job("diagnose.2d_s", "heat_product_2d", s["diag_2d"], seed, s["samples"], False),
    ]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


class CliResult:
    def __init__(self, proc, spans):
        self.proc = proc
        self.spans = spans


def _cli(work: Path, tag: str, argv: list[str]):
    """``run(traced)`` for one command: ``python -m parastep`` untraced, the
    benchmark's launcher (spans written to a file) when traced."""

    def run(traced):
        if traced:
            spans_path = work / f"spans_{tag}.json"
            cmd = [sys.executable, str(BENCH / "launcher.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "parastep", *argv]
        proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True, timeout=150)
        spans = None
        if traced:
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        return CliResult(proc, spans)

    return run


def _exit_ok(res: CliResult) -> list[str]:
    if res.proc.returncode == 0:
        return []
    return [f"exit code {res.proc.returncode}: {res.proc.stderr.strip()[-300:]}"]


def setup_cli(seed: int, work: Path, size: str) -> list[Job]:
    """Write the grid of v = -t (a strict subsolution of the heat equation, so
    the falsifier finds violations) and the diagnose config."""
    s = SIZES[size]
    spec = ps.MeshSpec(h=s["cli_grid"], bounds=[(0.0, 1.0)], T=T, N=N)
    ps.MeshFunction.from_callable(spec, lambda x, t: -t).write_text(work / "grid.txt")
    (work / "diagnose.cfg").write_text("boundary.file = grid.txt\nscheme.kind = linear\n")
    solve_out = work / "solve" / f"solution_heat_product_2d_h{float(s['cli_solve'])!r}.txt"
    certificates = work / "diagnose" / "certificates.txt"
    reference_csv = []
    # Each check removes the output it read, so every pass must write it anew.

    def check_solve(res):
        problems = _exit_ok(res) or ([] if solve_out.is_file() else [f"{solve_out} not written"])
        solve_out.unlink(missing_ok=True)
        return problems

    def check_converge(res):
        problems = _exit_ok(res)
        path = work / "converge" / "convergence.csv"
        csv = path.read_bytes()
        path.unlink()
        if not reference_csv:
            reference_csv.append(csv)
        if csv != reference_csv[0]:
            problems.append("convergence.csv differs from the first pass")
        return problems

    def check_diagnose(res):
        got = sum(1 for r in certificates.read_text().splitlines() if r.strip())
        want = CERTIFICATES
        return _exit_ok(res) or ([] if got == want else [f"{got} certificates, want {want}"])

    def check_certify(res):
        line = f"# replayed {CERTIFICATES}/{CERTIFICATES} certificates"
        certificates.unlink(missing_ok=True)
        return _exit_ok(res) or ([] if line in res.proc.stdout.splitlines() else [f"no {line!r}"])

    return [
        Job("cli.help_s", _cli(work, "help", ["--help"]), _exit_ok),
        Job(
            "cli.solve_s",
            _cli(work, "solve", ["solve", "--problem", "heat_product_2d",
                                 "--h-list", s["cli_solve"], "--out", "solve"]),
            check_solve,
        ),
        Job(
            "cli.converge_s",
            _cli(work, "converge", ["converge", "--problem", "pucci_plus_concave",
                                    "--h-list", s["cli_converge"], "--strict", "--out", "converge"]),
            check_converge,
        ),
        Job(
            "cli.diagnose_s",
            _cli(work, "diagnose", ["diagnose", "--config", "diagnose.cfg", "--seed", str(seed),
                                    "--out", "diagnose"]),
            check_diagnose,
        ),
        Job(
            "cli.certify_s",
            _cli(work, "certify", ["certify", "diagnose/certificates.txt",
                                   "--config", "diagnose.cfg"]),
            check_certify,
        ),
    ]


class Workload:
    def __init__(self, name, setup, children):
        self.name = name
        self.why = WHY[name]
        self.setup = setup
        # peak RSS is the benchmark process's own, or its children's
        self.children = children


WORKLOADS = {
    "march": Workload("march", setup_march, children=False),
    "verify": Workload("verify", setup_verify, children=False),
    "cli": Workload("cli", setup_cli, children=True),
}
