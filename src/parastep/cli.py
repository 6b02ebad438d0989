"""Command line tools: solve, converge, diagnose, certify.

    parastep converge --config run.cfg --out results/
    parastep diagnose --problem heat_sine --h-list 0.0625 --strict
    parastep certify results/certificates.txt --problem heat_sine

Exit codes: 0 on success, 1 on error (bad usage, unreadable or malformed
config -- every config error in a line or a flag names its ``file:line``
or its flag, as in ``--seed: seed must be nonnegative, got -3``), 2 when
``--strict`` is set and a checked property fails.

Thread pinning: set ``PARASTEP_THREADS`` in the environment.  The package
``__init__`` copies it to the BLAS/OpenMP pool variables that are unset
before numpy loads, which is the only point where those pools read them;
``python -m parastep`` runs that ``__init__`` before any argument is parsed,
so there is no command-line flag for it.  A value that is not a positive
integer is not copied, and the CLI reports it as an error.

A run's inputs are resolved in one place, ``_inputs``: the boundary data
from ``problem`` (solved on the first h, over ``domain`` or the problem's
own) or from ``boundary.file`` (a stored grid), never both, and the
operator from the problem, or from ``scheme.*`` with the stored grid's
dimension.  ``converge`` refuses ``domain``, since it sweeps the problem's
own domain, and so does a run on ``boundary.file``, whose grid gives the
mesh.  Each command returns its report lines and property violations; one
tail writes the ``--dump-tables`` file, prints them and applies ``--strict``.
``--h-list TEXT`` reads as the config line ``h_list = [TEXT]`` of the
source ``--h-list``, so its errors start with ``--h-list:1:``.
``certify`` expects the rows ``diagnose`` writes (certificates.txt).
``diagnose`` with ``diagnostics.M_values`` refuses a bad opening sweep
before it solves or falsifies, and prints ``# good_set sweeping N K-box
nodes`` before the good-set sweep starts, since a large box can take
minutes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .config import ProblemConfig
from .errors import ConfigError, ParastepError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


def _check_threads():
    """Validate ``PARASTEP_THREADS``.  The package ``__init__`` has already
    copied a valid value to the pool variables before numpy loaded; a value
    that is not a positive integer was left out there and is an error here."""
    raw = os.environ.get("PARASTEP_THREADS")
    if not raw:
        return
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"PARASTEP_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"PARASTEP_THREADS must be at least 1, got {threads}")


def _bool_text(flag) -> str:
    return "true" if flag else "false"


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value run configuration file")
    common.add_argument("--out", metavar="DIR", help="directory for reports and grids (default .)")
    common.add_argument(
        "--strict",
        action="store_true",
        default=None,
        help="exit 2 when a checked property fails",
    )
    common.add_argument("--seed", type=int, metavar="INT", help="sampler seed (recorded in headers)")
    common.add_argument(
        "--h-list",
        dest="h_list",
        metavar="LIST",
        help="comma separated mesh spacings, coarsest first",
    )
    common.add_argument(
        "--scheme",
        metavar="KIND",
        help="operator family when no built-in problem is named: linear, pucci_plus, pucci_minus",
    )
    common.add_argument("--stencil-N", dest="stencil_N", type=int, metavar="INT", help="stencil width")
    common.add_argument("--problem", metavar="NAME", help="built-in exact-solution id")
    common.add_argument("--T", type=float, metavar="TIME", help="final time")
    common.add_argument(
        "--dump-tables",
        action="store_true",
        help="also write scheme_tables.txt (coefficient tables for audit)",
    )

    parser = _Parser(prog="parastep", description="monotone parabolic schemes and their verification tools")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True
    sub.add_parser("solve", parents=[common], help="solve one mesh and write the grid")
    sub.add_parser("converge", parents=[common], help="mesh sweep, rate fit, convergence.csv")
    sub.add_parser("diagnose", parents=[common], help="falsifier and property checks, diagnostics.txt")
    cert = sub.add_parser("certify", parents=[common], help="replay violation certificates")
    cert.add_argument("certificates", metavar="CERTFILE", help="certificate rows from diagnose")
    return parser


def _resolved_config(args) -> ProblemConfig:
    cfg = ProblemConfig.from_file(args.config) if args.config else ProblemConfig()
    h_list = None
    if args.h_list is not None:
        h_list = ProblemConfig.from_text(f"h_list = [{args.h_list}]", "--h-list").h_list
    return cfg.with_overrides({
        "--seed": ("seed", args.seed),
        "--strict": ("strict", args.strict),
        "--out": ("out", args.out),
        "--h-list": ("h_list", h_list),
        "--scheme": ("scheme.kind", args.scheme),
        "--stencil-N": ("stencil.N", args.stencil_N),
        "--problem": ("problem", args.problem),
        "--T": ("T", args.T),
    })


class _Inputs(NamedTuple):
    grid: object  # the stored MeshFunction, or None
    problem: object  # the library ExactSolution, or None
    descriptor: object  # the operator


def _inputs(cfg: ProblemConfig, command: str) -> _Inputs:
    """What a run works on: the stored grid or the library problem, and the
    operator (see the module docstring)."""
    if cfg.problem is not None and cfg.boundary_file is not None:
        raise ConfigError(
            f"problem = {cfg.problem} and boundary.file = {cfg.boundary_file}"
            " both give the boundary data; name one of them"
        )
    if cfg.problem is not None:
        if command == "converge" and cfg.domain is not None:
            raise ConfigError(f"converge sweeps the domain of problem = {cfg.problem}; drop domain")
        from .harness import get_problem

        sol = get_problem(cfg.problem)
        return _Inputs(None, sol, sol.descriptor)
    if command == "converge":
        raise ConfigError("converge needs problem = <built-in id> (errors require an exact solution)")
    if cfg.boundary_file is None:
        raise ConfigError(f"{command} needs problem = <name> or boundary.file = <grid>")
    if cfg.domain is not None:
        raise ConfigError(f"boundary.file = {cfg.boundary_file} gives the mesh; drop domain")
    if cfg.scheme_kind is None:
        raise ConfigError("config needs problem = <name> or scheme.kind = <operator>")
    from .geometry import MeshFunction
    from .nonlinearity import NonlinearityDescriptor

    grid = MeshFunction.read_text(cfg.boundary_file)
    n = grid.spec.n
    if cfg.scheme_kind == "linear":
        identity = [[float(i == j) for j in range(n)] for i in range(n)]
        return _Inputs(grid, None, NonlinearityDescriptor.linear(cfg.scheme_matrix or identity))
    pucci = getattr(NonlinearityDescriptor, cfg.scheme_kind)  # pucci_plus or pucci_minus
    return _Inputs(grid, None, pucci(cfg.scheme_lam, cfg.scheme_Lam, n))


def _outdir(cfg: ProblemConfig) -> Path:
    out = Path(cfg.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _label(cfg: ProblemConfig) -> str:
    return cfg.problem or cfg.scheme_kind or "grid"


def _solved(cfg: ProblemConfig, run: _Inputs):
    """Solve the run's scheme on the stored grid's mesh, seeded by the grid,
    or the library problem on the first h.  Returns (u, solve report)."""
    from .geometry import MeshSpec
    from .scheme import build_monotone_scheme
    from .solver import solve

    scheme = build_monotone_scheme(run.descriptor, N=cfg.N)
    if run.grid is not None:
        return solve(scheme, run.grid.spec, run.grid, tol=cfg.tol)
    spec = MeshSpec(h=cfg.h_list[0], bounds=cfg.domain or run.problem.bounds, T=cfg.T, N=cfg.N)
    return solve(scheme, spec, run.problem.fn, tol=cfg.tol)


def _cmd_solve(cfg: ProblemConfig, run: _Inputs, args):
    import numpy as np

    u, report = _solved(cfg, run)
    spec = u.spec
    path = _outdir(cfg) / f"solution_{_label(cfg)}_h{spec.h!r}.txt"
    u.write_text(path)
    lines = [
        "# parastep solve",
        f"# problem={_label(cfg)} n={spec.n} h={spec.h!r} N={spec.N} T={spec.T!r}"
        f" seed={cfg.seed}",
        f"# iterations={report.total_iterations()} max_residual={report.max_residual!r}",
    ]
    if run.problem is not None:
        from .geometry import MeshFunction

        exact = MeshFunction.from_callable(spec, run.problem.fn).values
        lines.append(f"# sup_error={float(np.max(np.abs(u.values - exact)))!r}")
    lines.append(f"# wrote {path}")
    return lines, []


def _cmd_converge(cfg: ProblemConfig, run: _Inputs, args):
    from .harness import run_convergence_study

    study = run_convergence_study(
        run.problem, cfg.h_list, T=cfg.T, N=cfg.N, seed=cfg.seed, tol=cfg.tol
    )
    path = _outdir(cfg) / "convergence.csv"
    study.write_csv(path)

    problems = []
    for e_coarse, e_fine in zip(study.sup_errors, study.sup_errors[1:]):
        if not e_fine < e_coarse:
            problems.append(f"sup errors not strictly decreasing ({e_coarse!r} -> {e_fine!r})")
    if not all(map(math.isfinite, study.sup_errors)):
        problems.append("non-finite sup error")
    if len(study.sup_errors) > 1 and not study.fitted_rate >= cfg.rate_floor:
        problems.append(f"fitted rate {study.fitted_rate!r} below floor {cfg.rate_floor!r}")
    return [study.to_csv() + f"# wrote {path}"], problems


def _centered_kbox(spec):
    """Largest calibrated box centered in space whose top touches T."""
    from .geometry import KBox

    n = spec.n
    half = min((hi - lo) / 2.0 for lo, hi in spec.bounds)
    r = min(9.0 * math.sqrt(n) * half, math.sqrt(81.0 * n * spec.T))
    center = tuple((lo + hi) / 2.0 for lo, hi in spec.bounds)
    t0 = max(0.0, spec.T - r * r / (81.0 * n))
    return KBox((center, t0), r)


def _format_diagnostics(cfg: ProblemConfig, spec, report: dict) -> str:
    lines = [
        "# parastep diagnostics",
        f"# problem={_label(cfg)} n={spec.n} h={spec.h!r} N={spec.N} T={spec.T!r} seed={cfg.seed}",
        f"# delta={report['delta']!r} samples={cfg.samples}",
    ]
    fal = report["falsifier"]
    for side in ("super", "sub"):
        lines.append(f"falsifier {side} violations={fal[side]['violations']}")
    lines.append(f"falsifier clean={_bool_text(fal['clean'])}")
    for side in ("super", "sub"):
        lines.extend(fal[side]["certificates"])
    if "convolution" in report:
        conv = report["convolution"]
        lines.append(
            f"convolution theta={conv['theta']!r} eta={conv['eta']!r}"
            f" omega={conv['omega']!r} passed={_bool_text(conv['passed'])}"
        )
        for name, chk in conv["checks"].items():
            lines.append(
                f"convolution check {name} passed={_bool_text(chk['passed'])}"
                f" worst={chk['worst']!r} bound={chk['bound']!r}"
            )
    if "good_set" in report:
        gs = report["good_set"]
        lines.append(
            f"good_set nodes={gs['node_count']} slope={float(gs['slope'])!r}"
            f" slope_ci={float(gs['slope_ci'][0])!r},{float(gs['slope_ci'][1])!r}"
        )
        for M, frac, meas in zip(gs["M_values"], gs["bad_fraction"], gs["bad_measure"]):
            lines.append(
                f"good_set M={float(M)!r} bad_fraction={float(frac)!r}"
                f" bad_measure={float(meas)!r}"
            )
    abp = report.get("abp", {})
    if "skipped" in abp:
        lines.append(f"abp skipped: {abp['skipped']}")
    elif abp:
        lines.append(
            f"abp ratio={float(abp['ratio'])!r} lhs={float(abp['lhs'])!r}"
            f" rhs_core={float(abp['rhs_core'])!r} K={float(abp['K'])!r}"
            f" rho={float(abp['rho'])!r} contact_count={abp['contact_count']}"
        )
    return "\n".join(lines) + "\n"


def _cmd_diagnose(cfg: ProblemConfig, run: _Inputs, args):
    from .diagnostics import FalsifierConfig, opening_sweep
    from .harness import run_diagnostics

    if cfg.M_values is not None:
        opening_sweep(cfg.M_values)  # refuse a bad sweep before any solve
    u = run.grid if run.grid is not None else _solved(cfg, run)[0]
    spec = u.spec
    delta = None if cfg.delta_multiple is None else cfg.delta_multiple * spec.h
    fcfg = FalsifierConfig(samples=cfg.samples, seed=cfg.seed)
    kbox = _centered_kbox(spec) if cfg.M_values is not None else None
    if kbox is not None:
        from .geometry import region_mask

        # a whole-mesh sweep can take minutes: say its size before it starts
        nodes = int(region_mask(spec, kbox).sum())
        print(f"# good_set sweeping {nodes} K-box nodes", flush=True)
    report = run_diagnostics(
        u,
        run.descriptor,
        delta=delta,
        falsifier_config=fcfg,
        theta=cfg.theta,
        M_values=cfg.M_values,
        kbox=kbox,
        abp=cfg.abp,
    )

    outdir = _outdir(cfg)
    text = _format_diagnostics(cfg, spec, report)
    (outdir / "diagnostics.txt").write_text(text)
    rows = report["falsifier"]["super"]["certificates"] + report["falsifier"]["sub"]["certificates"]
    (outdir / "certificates.txt").write_text("".join(r + "\n" for r in rows))

    violated = not report["falsifier"]["clean"]
    if "convolution" in report:
        violated = violated or not report["convolution"]["passed"]
    if "ratio" in report.get("abp", {}):
        violated = violated or not math.isfinite(report["abp"]["ratio"])
    lines = [text + f"# wrote {outdir / 'diagnostics.txt'} and {outdir / 'certificates.txt'}"]
    return lines, ["see certificate rows / failed checks above"] if violated else []


def _cmd_certify(cfg: ProblemConfig, run: _Inputs, args):
    from .diagnostics import replay_violation, replay_violations, row_to_certificate
    from .errors import DiagnosticsError

    path = Path(args.certificates)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read certificates {path}: {exc.strerror or exc}") from None
    certs = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            certs.append((lineno, row_to_certificate(line)))
        except DiagnosticsError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None

    u = run.grid if run.grid is not None else _solved(cfg, run)[0]
    lines = [
        "# parastep certify",
        f"# problem={_label(cfg)} h={u.spec.h!r} N={u.spec.N} seed={cfg.seed}"
        f" certificates={len(certs)}",
    ]
    failed = 0
    try:
        reps = replay_violations([cert for _, cert in certs], u, run.descriptor)
    except ParastepError:
        # the batch refuses as a loop over the certificates would: find the
        # first one refused alone, to name its line
        for lineno, cert in certs:
            try:
                replay_violation(cert, u, run.descriptor)
            except ParastepError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
        raise
    for (lineno, cert), rep in zip(certs, reps):
        if not rep["valid"]:
            failed += 1
            why = "not touching" if not rep["touching"] else "margin mismatch"
            lines.append(f"certificate line {lineno}: FAILED ({why})")
        else:
            lines.append(
                f"certificate line {lineno}: ok side={cert.side}"
                f" margin={rep['margin']!r} touch_gap={rep['touch_gap']!r}"
            )
    lines.append(f"# replayed {len(certs) - failed}/{len(certs)} certificates")
    return lines, [f"{failed} certificate(s) failed to replay"] if failed else []


_COMMANDS = {
    "solve": _cmd_solve,
    "converge": _cmd_converge,
    "diagnose": _cmd_diagnose,
    "certify": _cmd_certify,
}


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        _check_threads()
        cfg = _resolved_config(args)
        run = _inputs(cfg, args.command)
        lines, violations = _COMMANDS[args.command](cfg, run, args)
        if args.dump_tables:
            from .scheme import build_monotone_scheme, scheme_tables_text

            path = _outdir(cfg) / "scheme_tables.txt"
            path.write_text(scheme_tables_text(build_monotone_scheme(run.descriptor, N=cfg.N)))
            lines.append(f"# wrote {path}")
        print("\n".join(lines + [f"# property violation: {v}" for v in violations]))
        return 2 if violations and cfg.strict else 0
    except (ParastepError, OSError) as exc:
        print(f"parastep: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(cli_main())
