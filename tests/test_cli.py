"""Command line behavior: exit codes, output files, and determinism.

Everything drives ``cli_main(argv)`` in-process; 0 = success, 1 = error,
2 = property violation under --strict.
"""

import hashlib
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import parastep
from parastep import _THREAD_VARS, harness
from parastep.cli import cli_main
from parastep.geometry import MeshFunction, MeshSpec


SRC = str(Path(parastep.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def drift_grid(tmp_path):
    """v = -t: a strict subsolution-side violator of the heat equation."""
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0)], T=0.25, N=2)
    path = tmp_path / "drift.txt"
    MeshFunction.from_callable(spec, lambda x, t: -t).write_text(path)
    cfg = tmp_path / "drift.cfg"
    cfg.write_text(
        "scheme.kind = linear\nscheme.matrix = [[1.0]]\n"
        f"boundary.file = {path}\ndiagnostics.samples = 4\n"
    )
    return cfg


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "converge", "--help")[0] == 0


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage:" in err


def test_missing_command_is_usage_error(capsys):
    assert run(capsys)[0] == 1


def test_malformed_config_exits_one_with_line_number(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = heat_sine\nh_list = [0.1,\n")
    code, _, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 1
    assert f"{cfg}:2" in err and "unterminated" in err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problme = heat_sine\n")
    code, _, err = run(capsys, "solve", "--config", str(cfg))
    assert code == 1 and "unknown key 'problme'" in err and f"{cfg}:1" in err


def test_removed_solver_choice_is_an_error(tmp_path, capsys):
    # policy iteration is the only solver: neither the flag nor the keys exist
    code, _, err = run(capsys, "solve", "--problem", "heat_sine", "--method", "howard")
    assert code == 1 and "unrecognized arguments: --method" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = heat_sine\nsolver.method = auto\n")
    code, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1 and f"{cfg}:2: key 'solver.method' was removed" in err


def test_solve_writes_grid_and_tables(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "solve",
        "--problem", "heat_sine",
        "--h-list", "0.125",
        "--out", str(tmp_path),
        "--dump-tables",
        "--seed", "9",
    )
    assert code == 0
    assert "seed=9" in out and "sup_error=" in out
    grid = MeshFunction.read_text(tmp_path / "solution_heat_sine_h0.125.txt")
    assert grid.spec.h == 0.125
    tables = (tmp_path / "scheme_tables.txt").read_text()
    assert tables.startswith("# parastep scheme tables")
    assert "directions 1" in tables


def test_converge_csv_layout_and_determinism(tmp_path, capsys):
    argv = [
        "converge",
        "--problem", "heat_sine",
        "--h-list", "0.125,0.0625",
        "--seed", "11",
    ]
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "a"))
    assert code == 0
    assert "# problem=heat_sine" in out and "seed=11" in out
    first = (tmp_path / "a" / "convergence.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[3] == "h,sup_error,rate_pairwise,iterations"
    assert run(capsys, *argv, "--out", str(tmp_path / "b"))[0] == 0
    assert (tmp_path / "b" / "convergence.csv").read_bytes() == first


def test_converge_without_problem_errors(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme.kind = linear\ndomain = [[0.0, 1.0]]\n")
    code, _, err = run(capsys, "converge", "--config", str(cfg))
    assert code == 1 and "converge needs problem" in err


def test_converge_strict_flags_bad_rate(tmp_path, capsys):
    # truncating to T = h^2 * 4 leaves almost no interior; the fitted rate
    # collapses and strict mode must report it as a property violation.
    argv = [
        "converge",
        "--problem", "heat_sine",
        "--h-list", "0.125,0.0625",
        "--T", "0.0625",
        "--out", str(tmp_path),
    ]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "# property violation" in out
    assert run(capsys, *argv, "--strict")[0] == 2


def test_converge_strict_flags_errors_that_do_not_decrease(tmp_path, capsys):
    # the finest spacing first: the sup errors grow along the sweep
    argv = ["converge", "--problem", "heat_sine", "--h-list", "0.0625,0.125", "--T", "0.125"]
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path), "--strict")
    assert code == 2
    violations = [ln for ln in out.splitlines() if ln.startswith("# property violation: ")]
    assert len(violations) == 1
    e_fine, e_coarse = re.fullmatch(
        r"# property violation: sup errors not strictly decreasing \((\S+) -> (\S+)\)", violations[0]
    ).groups()
    assert 0.0 < float(e_fine) < float(e_coarse)


def test_diagnose_clean_solution(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = heat_sine\nh_list = [0.125]\ndiagnostics.samples = 16\n")
    code, out, _ = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path), "--strict")
    assert code == 0
    assert "falsifier clean=true" in out
    text = (tmp_path / "diagnostics.txt").read_text()
    assert "falsifier super violations=0" in text
    assert "seed=0" in text
    assert (tmp_path / "certificates.txt").read_text() == ""


def test_diagnose_optional_sections(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem = heat_sine\nh_list = [0.125]\ndiagnostics.samples = 4\n"
        "diagnostics.theta = 0.05\ndiagnostics.M_values = [1, 64]\ndiagnostics.abp = true\n"
    )
    code, out, _ = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "diagnostics.txt").read_text()
    assert "convolution check ordering passed=true" in text
    assert "good_set M=1.0" in text and "good_set M=64.0" in text
    assert "abp ratio=" in text


def test_diagnose_says_the_sweep_size_before_it_sweeps(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = heat_sine\nh_list = [0.125]\ndiagnostics.samples = 4\n")
    code, out, _ = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0 and out.startswith("# parastep diagnostics\n")
    cfg.write_text(cfg.read_text() + "diagnostics.M_values = [1, 64]\n")
    printed = []
    sweep = harness.good_set_measure

    def recording(*args):
        printed.append(capsys.readouterr().out)
        return sweep(*args)

    monkeypatch.setattr(harness, "good_set_measure", recording)
    code, out, _ = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0 and out.startswith("# parastep diagnostics\n")
    nodes = re.search(r"^good_set nodes=(\d+) ", out, re.M).group(1)
    assert int(nodes) > 0 and printed == [f"# good_set sweeping {nodes} K-box nodes\n"]


def test_diagnose_strict_exit_two_on_violations(tmp_path, capsys, drift_grid):
    code, out, _ = run(
        capsys, "diagnose", "--config", str(drift_grid), "--out", str(tmp_path), "--strict"
    )
    assert code == 2
    assert "falsifier clean=false" in out
    rows = (tmp_path / "certificates.txt").read_text().splitlines()
    assert rows and all(r.startswith("side=super") for r in rows)


def test_negative_seed_is_an_error(tmp_path, capsys, drift_grid):
    # numpy refuses to seed with a negative number; that used to escape as a
    # ValueError traceback once the falsifier drew its Sobol probes
    code, _, err = run(
        capsys, "diagnose", "--config", str(drift_grid), "--seed", "-3", "--out", str(tmp_path)
    )
    assert code == 1 and err.startswith("parastep: error: --seed: seed must be nonnegative, got -3")
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(drift_grid.read_text() + "seed = -2\n")
    code, _, err = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1 and err.startswith(f"parastep: error: {cfg}:5: seed must be nonnegative, got -2")
    assert not (tmp_path / "certificates.txt").exists()


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_solver_tol_is_an_error(tmp_path, capsys, tol):
    # a negative or NaN tol used to run the whole policy budget of the first
    # level and then report a stall at a residual near 1e-14
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(f"problem = heat_sine\nh_list = [0.25]\nsolver.tol = {tol}\n")
    code, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1 and err.startswith(f"parastep: error: {cfg}:3: solver.tol must be a finite positive")
    assert "stalled" not in err
    assert not any(tmp_path.glob("*.txt"))


@pytest.mark.parametrize(
    "args, message",
    [
        (["--T", "nan"], "T must be a finite positive number, got nan"),
        (["--T", "inf"], "T must be a finite positive number, got inf"),
        (["--h-list", "nan"], "h_list must be a nonempty list of finite positive spacings"),
        (["--config", "T.cfg"], "T must be a finite positive number, got nan"),
    ],
)
def test_non_finite_mesh_is_an_error(tmp_path, capsys, args, message):
    # these used to end in a ValueError or OverflowError traceback
    (tmp_path / "T.cfg").write_text("T = nan\n")
    # a flag's error starts with the flag; --h-list reads as a one-line config
    where = {"--T": "--T", "--h-list": "--h-list:1", "--config": f"{tmp_path / 'T.cfg'}:1"}[args[0]]
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    code, _, err = run(capsys, "solve", "--problem", "heat_sine", *args, "--out", str(tmp_path))
    assert code == 1 and err.startswith(f"parastep: error: {where}: {message}")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--T", "-1.0", "--T: T must be a finite positive number, got -1.0"),
        ("--T", "0", "--T: T must be a finite positive number, got 0.0"),
        ("--seed", "-3", "--seed: seed must be nonnegative, got -3"),
        ("--stencil-N", "1", "--stencil-N: stencil.N must be at least 2, got 1"),
        (
            "--h-list",
            "0.25,-0.125",
            "--h-list:1: h_list must be a nonempty list of finite positive spacings,"
            " got [0.25, -0.125]",
        ),
        ("--scheme", "monge_ampere", "--scheme: scheme.kind 'monge_ampere' is not a built-in operator"),
    ],
)
def test_flag_range_errors_name_the_flag(tmp_path, capsys, flag, value, message):
    # each flag goes through its key's rule, and the error names the flag
    argv = ["solve", "--problem", "heat_sine", flag, value, "--out", str(tmp_path / "o")]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"parastep: error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ("domain = [[0.0, inf]]\n", "invalid bounds (0.0, inf): need finite lo < hi"),
        ("T = 1e300\n", "a mesh of shape "),
    ],
    ids=["infinite-bound", "huge-T"],
)
def test_unindexable_mesh_is_an_error(tmp_path, capsys, config, message):
    # these used to end in an OverflowError traceback from k_max and in
    # "ValueError: Maximum allowed size exceeded" from MeshSpec.times()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = heat_sine\n" + config)
    code, _, err = run(capsys, "solve", "--config", str(cfg), "--h-list", "0.25", "--out", str(tmp_path))
    assert code == 1 and err.startswith(f"parastep: error: {message}")
    assert not any(tmp_path.glob("solution_*.txt"))


@pytest.mark.parametrize("theta", ["inf", "nan"])
def test_non_finite_theta_is_an_error(tmp_path, capsys, theta):
    # theta = inf used to end in an IndexError traceback inside the envelope
    cfg = tmp_path / "theta.cfg"
    cfg.write_text(f"problem = heat_sine\ndiagnostics.theta = {theta}\n")
    argv = ["diagnose", "--config", str(cfg), "--h-list", "0.25", "--out", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    want = f"parastep: error: {cfg}:2: diagnostics.theta must be a finite positive number, got {theta}"
    assert err.startswith(want)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "converge"])
def test_solver_tol_reaches_every_solve(tmp_path, capsys, command):
    # converge used to solve at the default tol whatever solver.tol said
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("problem = pucci_plus_concave\nsolver.tol = 1e-30\n")
    h_list = "0.0625" if command == "solve" else "0.125,0.0625"
    argv = [command, "--config", str(cfg), "--h-list", h_list, "--out", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("parastep: error: policy iteration stalled at level 4 ")
    assert err.rstrip().endswith("> tol 1.000e-30")
    assert not (tmp_path / "convergence.csv").exists()


def test_default_tol_convergence_csv_is_unchanged_by_blocks(tmp_path, capsys, monkeypatch):
    # the frozen-policy blocks leave the default-tol CSV byte-identical to
    # the per-level route's
    import parastep.solver as solver_module

    argv = ["converge", "--problem", "pucci_plus_concave", "--h-list", "0.125,0.0625,0.03125"]
    assert run(capsys, *argv, "--out", str(tmp_path / "blocks"))[0] == 0
    monkeypatch.setattr(solver_module, "_SCRATCH_BYTES", 0)
    assert run(capsys, *argv, "--out", str(tmp_path / "levels"))[0] == 0
    csv = (tmp_path / "blocks" / "convergence.csv").read_bytes()
    assert csv == (tmp_path / "levels" / "convergence.csv").read_bytes()
    # one evaluation per level: levels - N^2 + 1 per spacing
    assert [row.split(b",")[-1] for row in csv.splitlines()[4:]] == [b"13", b"61", b"253"]


def test_certify_replays_and_detects_tampering(tmp_path, capsys, drift_grid):
    out_dir = tmp_path / "diag"
    assert run(capsys, "diagnose", "--config", str(drift_grid), "--out", str(out_dir))[0] == 0
    certs = out_dir / "certificates.txt"

    code, out, _ = run(capsys, "certify", str(certs), "--config", str(drift_grid), "--strict")
    assert code == 0
    assert "FAILED" not in out

    rows = certs.read_text().splitlines()
    broken = rows[0].replace("c=0.0", "c=1.0")
    tampered = tmp_path / "tampered.txt"
    tampered.write_text(broken + "\n")
    code, out, _ = run(capsys, "certify", str(tampered), "--config", str(drift_grid), "--strict")
    assert code == 2
    assert "FAILED" in out
    # without --strict the failure is reported but the exit stays 0
    assert run(capsys, "certify", str(tampered), "--config", str(drift_grid))[0] == 0


def test_certify_refuses_a_certificate_that_does_not_touch(tmp_path, capsys, drift_grid):
    # c - 1 stays below v = -t on the whole cylinder, so only the gap at the
    # node (1.0 against the recorded 0.0) shows that it does not touch
    out_dir = tmp_path / "diag"
    assert run(capsys, "diagnose", "--config", str(drift_grid), "--out", str(out_dir))[0] == 0
    row = (out_dir / "certificates.txt").read_text().splitlines()[0]
    assert " c=0.0 " in row
    lowered = tmp_path / "lowered.txt"
    lowered.write_text(row.replace(" c=0.0 ", " c=-1.0 ") + "\n")
    code, out, _ = run(capsys, "certify", str(lowered), "--config", str(drift_grid), "--strict")
    assert code == 2
    assert "certificate line 1: FAILED (not touching)" in out


@pytest.mark.parametrize("delta", ["nan", "inf", "0.0", "-1.0", "50.0"])
def test_certify_refuses_a_bad_delta(tmp_path, capsys, drift_grid, delta):
    # nan, -1 and 0 used to end in a ValueError traceback, and 50 enumerated
    # a huge offset box before its first check
    out_dir = tmp_path / "diag"
    assert run(capsys, "diagnose", "--config", str(drift_grid), "--out", str(out_dir))[0] == 0
    row = (out_dir / "certificates.txt").read_text().splitlines()[0]
    bad = tmp_path / "bad.txt"
    bad.write_text(row.replace(" delta=0.25 ", f" delta={delta} ") + "\n")
    start = time.perf_counter()
    code, _, err = run(capsys, "certify", str(bad), "--config", str(drift_grid))
    assert time.perf_counter() - start < 10.0
    assert code == 1 and err.startswith("parastep: error: ")
    if delta == "50.0":
        assert "too large for the mesh" in err
    else:
        assert f"{bad}:1: delta must be a finite positive number" in err


def test_certify_names_the_first_node_outside_the_mesh(tmp_path, capsys, drift_grid):
    # steps in C order, each column's levels from the deepest up: node (1, 5)
    # at delta = 2h first reaches column 0 at level 2
    out_dir = tmp_path / "diag"
    assert run(capsys, "diagnose", "--config", str(drift_grid), "--out", str(out_dir))[0] == 0
    row = (out_dir / "certificates.txt").read_text().splitlines()[0]
    edge = tmp_path / "edge.txt"
    edge.write_text(row.replace(" node=2,4 ", " node=1,5 ") + "\n")
    code, _, err = run(capsys, "certify", str(edge), "--config", str(drift_grid))
    assert code == 1
    assert err.strip() == f"parastep: error: {edge}:1: node (0, 2) is not in the mesh"


def test_certify_refuses_a_node_where_the_cylinder_does_not_fit(tmp_path, capsys):
    # on (0, 0.95) node (6, 4) is 0.2 < delta = 0.25 from the boundary while
    # its whole cylinder is in the mesh: certify used to replay the moved row
    spec = MeshSpec(h=0.125, bounds=[(0.0, 0.95)], T=0.25, N=2)
    grid = tmp_path / "short.txt"
    MeshFunction.from_callable(spec, lambda x, t: -t).write_text(grid)
    cfg = tmp_path / "short.cfg"
    cfg.write_text(f"scheme.kind = linear\nscheme.matrix = [[1.0]]\nboundary.file = {grid}\n")
    out_dir = tmp_path / "diag"
    assert run(capsys, "diagnose", "--config", str(cfg), "--out", str(out_dir))[0] == 0
    row = (out_dir / "certificates.txt").read_text().splitlines()[0]
    moved = tmp_path / "moved.txt"
    moved.write_text(row.replace(" node=2,4 ", " node=6,4 ") + "\n")
    code, _, err = run(capsys, "certify", str(moved), "--config", str(cfg))
    assert code == 1
    assert err.strip() == f"parastep: error: {moved}:1: node (6, 4): its delta = 0.25 cylinder leaves the domain"


def test_diagnose_keeps_the_results_when_abp_is_skipped(tmp_path, capsys, drift_grid):
    # v = -t is negative on the ABP cylinder's parabolic boundary; that used
    # to end the run with exit 1 and no diagnostics.txt
    cfg = tmp_path / "abp.cfg"
    cfg.write_text(drift_grid.read_text() + "diagnostics.theta = 0.05\ndiagnostics.abp = true\n")
    code, out, _ = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "diagnostics.txt").read_text()
    assert "falsifier clean=false" in text and "convolution check ordering" in text
    assert "abp skipped: u is negative on the parabolic boundary of the cylinder" in text
    assert (tmp_path / "certificates.txt").read_text().startswith("side=super")
    # the skip is not a property violation: a heat solution less 1 is clean
    # but negative on the cylinder's boundary, and --strict still exits 0
    argv = ["solve", "--problem", "heat_sine", "--h-list", "0.125", "--out", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    u = MeshFunction.read_text(tmp_path / "solution_heat_sine_h0.125.txt")
    shifted = tmp_path / "shifted.txt"
    MeshFunction(u.spec, u.values - 1.0).write_text(shifted)
    cfg.write_text(cfg.read_text().replace(str(drift_grid.parent / "drift.txt"), str(shifted)))
    code, out, _ = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path), "--strict")
    assert "abp skipped:" in out and "falsifier clean=true" in out
    assert "property violation" not in out
    assert code == 0


def test_certify_malformed_row_is_line_numbered(tmp_path, capsys, drift_grid):
    bad = tmp_path / "bad_certs.txt"
    bad.write_text("# header\nside=super margin=0.0\n")
    code, _, err = run(capsys, "certify", str(bad), "--config", str(drift_grid))
    assert code == 1
    assert f"{bad}:2" in err and "missing field" in err
    # a repeated field used to keep its last value, and an unknown one was
    # ignored: both rows replayed
    out_dir = tmp_path / "diag"
    assert run(capsys, "diagnose", "--config", str(drift_grid), "--out", str(out_dir))[0] == 0
    row = (out_dir / "certificates.txt").read_text().splitlines()[0]
    for extra, why in [(" margin=5.0", "repeated certificate field 'margin'"),
                       (" colour=red", "unknown certificate field 'colour'")]:
        bad.write_text(f"# header\n{row}{extra}\n")
        code, out, err = run(capsys, "certify", str(bad), "--config", str(drift_grid))
        assert code == 1 and out == ""
        assert err.strip() == f"parastep: error: {bad}:2: {why}"


def _with_field(row, key, value):
    return " ".join(f"{key}={value}" if f.partition("=")[0] == key else f for f in row.split())


def test_certify_refuses_rows_with_non_finite_numbers(tmp_path, capsys, drift_grid):
    # Q=inf used to end in a numpy RuntimeWarning and "matrix entries must
    # be finite" with no path:line, and touch_gap=inf let a lowered
    # paraboloid replay as valid
    out_dir = tmp_path / "diag"
    assert run(capsys, "diagnose", "--config", str(drift_grid), "--out", str(out_dir))[0] == 0
    row = (out_dir / "certificates.txt").read_text().splitlines()[0]
    c = float(re.search(r" c=(\S+)", row).group(1))
    lowered = _with_field(row, "c", repr(c - 1.0))
    rows = tmp_path / "rows.txt"
    rows.write_text(f"{row}\n{lowered}\n")
    out = run(capsys, "certify", str(rows), "--config", str(drift_grid))[1]
    assert "certificate line 1: ok" in out and "certificate line 2: FAILED (not touching)" in out
    bad_rows = [_with_field(row, "Q", "inf"), _with_field(lowered, "touch_gap", "inf")]
    bad_rows += [_with_field(row, key, "nan") for key in ("c", "l", "m", "a", "margin", "touch_gap")]
    for bad in bad_rows:
        rows.write_text(f"# header\n{row}\n{bad}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "certify", str(rows), "--config", str(drift_grid))
        assert code == 1 and out == ""
        assert err.startswith(f"parastep: error: {rows}:3: ") and "must be finite" in err, err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "grid, field, value, message",
    [
        ("1d", "node", "1,256", "is not in the mesh"),
        ("1d", "Q", "1e308", "matrix entries must be finite"),
        ("2d", "Q", "0.0,1e308,-1e308,0.0", "Q must be symmetric"),
    ],
)
def test_certify_names_the_line_the_replay_refuses(
    tmp_path, capsys, drift_grid, drift_grid_2d, grid, field, value, message
):
    # the replay's refusals of a node off the mesh and of a Q whose 2 Q
    # overflows used to name no path:line, the second after a numpy
    # RuntimeWarning; an antisymmetric Q of 1e308 warned in the symmetry test
    cfg = drift_grid
    if grid == "2d":
        cfg = tmp_path / "run2.cfg"
        cfg.write_text(f"boundary.file = {drift_grid_2d}\nscheme.kind = linear\ndiagnostics.samples = 4\n")
    out_dir = tmp_path / "diag"
    assert run(capsys, "diagnose", "--config", str(cfg), "--out", str(out_dir))[0] == 0
    row = (out_dir / "certificates.txt").read_text().splitlines()[0]
    bad = _with_field(row, field, value)
    if field == "Q" and grid == "1d":
        bad = _with_field(bad, "c", "1e308")
    rows = tmp_path / "rows.txt"
    rows.write_text(f"# header\n{row}\n{bad}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "certify", str(rows), "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith(f"parastep: error: {rows}:3: ") and message in err, err
    assert "RuntimeWarning" not in err and len(err.splitlines()) == 1


def test_certify_names_the_first_row_for_an_operator_of_another_dimension(tmp_path, capsys, drift_grid):
    out_dir = tmp_path / "diag"
    assert run(capsys, "diagnose", "--config", str(drift_grid), "--out", str(out_dir))[0] == 0
    rows = tmp_path / "rows.txt"
    rows.write_text("# header\n" + (out_dir / "certificates.txt").read_text())
    assert len(rows.read_text().splitlines()) > 2
    cfg = tmp_path / "run2.cfg"
    cfg.write_text(drift_grid.read_text().replace("[[1.0]]", "[[1.0, 0.0], [0.0, 1.0]]"))
    code, out, err = run(capsys, "certify", str(rows), "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"parastep: error: {rows}:2: expected 2x2 matrices, got shape (1, 1)\n"


def test_certify_refuses_a_side_that_is_not_super_or_sub(tmp_path, capsys, drift_grid):
    # side=banana used to replay as the sub side and print FAILED (margin mismatch)
    out_dir = tmp_path / "diag"
    assert run(capsys, "diagnose", "--config", str(drift_grid), "--out", str(out_dir))[0] == 0
    row = (out_dir / "certificates.txt").read_text().splitlines()[0]
    bad = tmp_path / "bad.txt"
    bad.write_text(row.replace("side=super ", "side=banana ") + "\n")
    code, out, err = run(capsys, "certify", str(bad), "--config", str(drift_grid))
    assert code == 1 and out == ""
    assert err.strip() == f"parastep: error: {bad}:1: side must be 'super' or 'sub', got 'banana'"


def test_threads_validation(capsys, monkeypatch, tmp_path):
    # The pools are sized when numpy loads, before any flag is parsed, so
    # PARASTEP_THREADS is the only route and --threads is not an option.
    code, _, err = run(capsys, "solve", "--problem", "heat_sine", "--threads", "1")
    assert code == 1 and "unrecognized arguments: --threads" in err

    monkeypatch.setenv("PARASTEP_THREADS", "zzz")
    code, _, err = run(capsys, "solve", "--problem", "heat_sine")
    assert code == 1 and "PARASTEP_THREADS must be an integer, got 'zzz'" in err
    monkeypatch.setenv("PARASTEP_THREADS", "0")
    code, _, err = run(capsys, "solve", "--problem", "heat_sine")
    assert code == 1 and "PARASTEP_THREADS must be at least 1, got 0" in err


@pytest.mark.parametrize(
    "threads, preset, want",
    [("2", "1", "1"), ("2", None, "2"), ("zzz", None, None), ("0", None, None)],
)
def test_init_copies_only_a_positive_thread_count(threads, preset, want):
    # The package __init__ copies PARASTEP_THREADS before numpy loads, into
    # the pool variables that are unset; a value that is not a positive
    # integer is never copied.  A fresh interpreter, as the copy happens once.
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(PARASTEP_THREADS=threads, PYTHONPATH=SRC)
    if preset is not None:
        env["OMP_NUM_THREADS"] = preset
    code = f"import os, parastep; print([os.environ.get(v) for v in {_THREAD_VARS!r}])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    others = [None if want is None else threads] * (len(_THREAD_VARS) - 1)
    assert proc.stdout.strip() == str([want] + others)


def test_flag_overrides_beat_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = heat_sine\nh_list = [0.5]\nseed = 1\n")
    code, out, _ = run(
        capsys,
        "solve",
        "--config", str(cfg),
        "--h-list", "0.25",
        "--seed", "7",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "h=0.25" in out and "seed=7" in out
    assert (tmp_path / "solution_heat_sine_h0.25.txt").exists()


@pytest.fixture()
def drift_grid_2d(tmp_path):
    """v = -t on the unit square, stored; the config names no dimension."""
    spec = MeshSpec(h=0.125, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)
    path = tmp_path / "drift2.txt"
    MeshFunction.from_callable(spec, lambda x, t: -t + 0.0 * x[..., 0]).write_text(path)
    return path


def test_stored_grid_gives_the_operator_its_dimension(tmp_path, capsys, drift_grid_2d):
    # scheme.kind = linear without scheme.dimension or domain used to build
    # the 1-D identity and end in "F has dimension 1, mesh has 2"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"boundary.file = {drift_grid_2d}\nscheme.kind = linear\ndiagnostics.samples = 4\n")
    code, out, err = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0, err
    assert "# problem=linear n=2 h=0.125" in out and "falsifier clean=false" in out
    assert (tmp_path / "diagnostics.txt").read_text().startswith("# parastep diagnostics")
    certs = tmp_path / "certificates.txt"
    rows = certs.read_text().splitlines()
    assert rows and all(r.startswith("side=super") for r in rows)
    code, out, _ = run(capsys, "certify", str(certs), "--config", str(cfg), "--strict")
    assert code == 0
    assert f"# replayed {len(rows)}/{len(rows)} certificates" in out


def test_scheme_dimension_zero_is_refused_on_its_line(tmp_path, capsys, drift_grid_2d):
    # it used to be read as "not set": the operator took dimension 1 and the
    # run failed later with "F has dimension 1, mesh has 2", naming no line;
    # the key is gone now, as the stored grid gives the dimension
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"boundary.file = {drift_grid_2d}\nscheme.kind = pucci_plus\nscheme.dimension = 0\n")
    code, out, err = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == (
        f"parastep: error: {cfg}:3: key 'scheme.dimension' was removed;"
        " the operator takes the stored grid's dimension\n"
    )
    assert not (tmp_path / "certificates.txt").exists()


def test_a_stored_grid_refuses_domain(tmp_path, capsys, drift_grid_2d):
    # domain only set the operator's dimension here, which the grid fixes
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"boundary.file = {drift_grid_2d}\nscheme.kind = linear\ndomain = [[0.0, 1.0], [0.0, 1.0]]\n"
    )
    for command in ("solve", "diagnose"):
        code, out, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == f"parastep: error: boundary.file = {drift_grid_2d} gives the mesh; drop domain\n"
    assert not (tmp_path / "o").exists()


def test_diagnose_and_certify_do_not_build_the_scheme(tmp_path, capsys, drift_grid_2d):
    # the N = 2 stencil cannot discretize this operator; only solve needs it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"boundary.file = {drift_grid_2d}\nscheme.kind = linear\n"
        "scheme.matrix = [[1.0, 1.5], [1.5, 3.0]]\ndiagnostics.samples = 4\n"
    )
    code, _, err = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0, err
    certs = tmp_path / "certificates.txt"
    assert certs.read_text()
    code, out, err = run(capsys, "certify", str(certs), "--config", str(cfg))
    assert code == 0, err
    assert "FAILED" not in out
    code, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "s"))
    assert code == 1 and "stencil cannot represent F" in err
    assert not (tmp_path / "s").exists()


def test_every_command_dumps_tables(tmp_path, capsys, drift_grid):
    # certify used to accept --dump-tables and write nothing
    out_dir = tmp_path / "diag"
    argv = ["diagnose", "--config", str(drift_grid), "--out", str(out_dir), "--dump-tables"]
    assert run(capsys, *argv)[0] == 0
    tables = (out_dir / "scheme_tables.txt").read_bytes()
    certs = out_dir / "certificates.txt"
    cert_dir = tmp_path / "cert"
    argv = ["certify", str(certs), "--config", str(drift_grid), "--out", str(cert_dir)]
    code, out, _ = run(capsys, *argv, "--dump-tables")
    assert code == 0
    assert (cert_dir / "scheme_tables.txt").read_bytes() == tables
    lines = out.splitlines()
    assert lines[-2].startswith("# replayed ") and lines[-1] == f"# wrote {cert_dir / 'scheme_tables.txt'}"


@pytest.mark.parametrize("flag", [False, True])
def test_problem_and_boundary_file_together_are_refused(tmp_path, capsys, drift_grid, flag):
    # the stored grid used to be ignored without a word
    cfg = tmp_path / "both.cfg"
    cfg.write_text(drift_grid.read_text() + ("" if flag else "problem = heat_sine\n"))
    argv = ["diagnose", "--config", str(cfg), "--out", str(tmp_path / "o")]
    code, out, err = run(capsys, *argv, *(["--problem", "heat_sine"] if flag else []))
    assert code == 1 and out == ""
    assert err.startswith("parastep: error: problem = heat_sine and boundary.file = ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text",
    ["0.25", "0.25,0.125", "0.25, 0.125", " 0.25 ,0.125 ", "0.25,", "1", "inf", "nan", "-0.25",
     "0.25 0.125", "", ",0.25", "0.25,,0.125", "abc", "[0.25]", "0.25]", "0.25#"],
)
def test_h_list_flag_reads_as_the_config_line(text):
    # --h-list TEXT accepts and refuses what "h_list = [TEXT]" does
    from parastep.cli import _resolved_config, build_parser
    from parastep.config import ProblemConfig
    from parastep.errors import ConfigError

    try:
        want = ProblemConfig.from_text(f"h_list = [{text}]\n").h_list
    except ConfigError:
        want = None
    args = build_parser().parse_args(["solve", f"--h-list={text}"])
    try:
        got = _resolved_config(args).h_list
    except ConfigError:
        got = None
    assert got == want
    assert (got is None) == (text in ("inf", "nan", "-0.25", "0.25 0.125", "", ",0.25",
                                      "0.25,,0.125", "abc", "[0.25]", "0.25]", "0.25#"))


def test_boolean_h_list_flag_is_refused(tmp_path, capsys):
    # "--h-list true" used to solve on h = 1.0
    argv = ["solve", "--problem", "heat_sine", "--h-list", "true", "--out", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("parastep: error: --h-list:1: key 'h_list': expected a number")
    assert not any(tmp_path.iterdir())


def test_converge_refuses_domain(tmp_path, capsys):
    # converge sweeps the problem's own domain: with domain = [[0.0, 2.0]] it
    # used to write a convergence.csv identical to the one without the key
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = heat_sine\ndomain = [[0.0, 2.0]]\n")
    argv = ["--config", str(cfg), "--h-list", "0.25,0.125", "--out", str(tmp_path / "o")]
    code, out, err = run(capsys, "converge", *argv)
    assert code == 1 and out == ""
    want = "parastep: error: converge sweeps the domain of problem = heat_sine; drop domain"
    assert err.startswith(want)
    assert not (tmp_path / "o").exists()
    # solve reads the key
    assert run(capsys, "solve", *argv)[0] == 0


def test_space_separated_h_list_is_refused(tmp_path, capsys):
    argv = ["solve", "--problem", "heat_sine", "--h-list", "0.25 0.125", "--out", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("parastep: error: --h-list:1: key 'h_list'")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("h_list, repeated", [("0.125,0.125", "0.125"), ("0.25,0.125,0.25", "0.25")])
def test_converge_refuses_a_repeated_spacing(tmp_path, capsys, h_list, repeated):
    # "0.125,0.125" used to end in a ZeroDivisionError traceback
    argv = ["converge", "--problem", "heat_sine", "--h-list", h_list, "--out", str(tmp_path / "o")]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == f"parastep: error: h sweep repeats the spacing {repeated}\n"
    assert not (tmp_path / "o").exists()


def test_diagnose_refuses_a_repeated_opening(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem = heat_sine\nh_list = [0.125]\ndiagnostics.samples = 4\ndiagnostics.M_values = [1, 1, 4]\n"
    )
    code, out, err = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1 and "Traceback" not in err
    assert err == "parastep: error: M sweep repeats the opening 1.0\n"
    # refused before the solve and the falsifier: the sweep's size line
    # used to come first
    assert out == ""
    assert not (tmp_path / "o" / "diagnostics.txt").exists()


def test_solve_from_a_stored_grid_is_seeded_by_it(tmp_path, capsys, drift_grid):
    # boundary.file: the grid's own mesh, its band data and warm start; no
    # problem, so no sup error
    from parastep.nonlinearity import NonlinearityDescriptor
    from parastep.scheme import build_monotone_scheme
    from parastep.solver import solve

    code, out, err = run(capsys, "solve", "--config", str(drift_grid), "--out", str(tmp_path / "o"))
    assert code == 0 and err == ""
    lines = out.splitlines()
    grid = MeshFunction.read_text(tmp_path / "drift.txt")
    want, report = solve(build_monotone_scheme(NonlinearityDescriptor.linear([[1.0]])), grid.spec, grid)
    assert lines[:3] == [
        "# parastep solve",
        "# problem=linear n=1 h=0.125 N=2 T=0.25 seed=0",
        f"# iterations={report.total_iterations()} max_residual={report.max_residual!r}",
    ]
    path = tmp_path / "o" / "solution_linear_h0.125.txt"
    assert lines[3:] == [f"# wrote {path}"]
    assert np.array_equal(MeshFunction.read_text(path).values, want.values)


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_certify_refuses_a_certificates_file_it_cannot_read(tmp_path, capsys, drift_grid, kind):
    path = tmp_path / "certs"
    if kind == "directory":
        path.mkdir()
    code, out, err = run(capsys, "certify", str(path), "--config", str(drift_grid))
    why = "No such file or directory" if kind == "missing" else "Is a directory"
    assert code == 1 and out == ""
    assert err == f"parastep: error: cannot read certificates {path}: {why}\n"


def _pinned_grid(tmp_path, grid):
    """The config of a stored grid: v = -t with linear F (1-D, h = 1/16), or
    -t left of x = 1/2 and 3t right of it, plus a quadratic, with Pucci+
    (2-D, h = 1/8, 16 samples), which has certificates on both sides."""
    if grid == "drift-1d":
        spec = MeshSpec(h=1 / 16, bounds=[(0.0, 1.0)], T=0.25, N=2)
        f = lambda x, t: -t  # noqa: E731
        keys = "scheme.kind = linear\nscheme.matrix = [[1.0]]\n"
    else:
        spec = MeshSpec(h=1 / 8, bounds=[(0.0, 1.0), (0.0, 1.0)], T=0.25, N=2)

        def f(x, t):
            x0, x1 = x[..., 0], x[..., 1]
            return np.where(x0 < 0.5, -t, 3.0 * t) + 0.5 * (x0 - 0.5) * (x1 - 0.5) + 0.25 * x0**2

        keys = "scheme.kind = pucci_plus\ndiagnostics.samples = 16\n"
    path = tmp_path / f"{grid}.txt"
    MeshFunction.from_callable(spec, f).write_text(path)
    cfg = tmp_path / f"{grid}.cfg"
    cfg.write_text(f"boundary.file = {path}\n{keys}")
    return cfg


# sha256 of certificates.txt, diagnostics.txt and the certify output
PINNED = {
    ("drift-1d", 1): (
        "94d0481ae8262bf83fdbd36c84567817a1835d8fd03752fa59e8acc60205b834",
        "01b8c9eae20b9edfa8eaedbaf01a9457b7b43e9e465753ec47374c683d229d50",
        "fc6059b1e30a54aea357334bc42da13ae17be0d3ac2358bd5caba3fe4bc8c437",
    ),
    ("drift-1d", 7): (
        "8b362486f2c3c1d4085a323fa0419be748bb21fa80f2c16b2320aac12e93dfd7",
        "cffd53db213c5cc48e5c4c326062000523cde32e58d2364fe866ab401ae65a4c",
        "eea40c5fbcb85917de56d48d650ec0266ad1d308e7ab8a0fa2d498ba97b9db59",
    ),
    ("drift-1d", 11): (
        "0fe2b4e9448de1709202204f2b4dbe48dc90a8bf26ccb77f2b23c03ee01d239b",
        "42fb086c163ce34f5397a3831206d358caeabaeb5c9c9f19b378754b56cd1958",
        "47079ed21dfd3dcde97877a5d839aa627ad0c188ac41c5df185430d8b84da6f1",
    ),
    ("split-pucci-2d", 1): (
        "5a65f52371d6bb35eac652af5b10319f80671f7c298b1182135b7fe802a71320",
        "c895f9b77e70e77565e3665cfe3315186bec2f7d1bc3b58c703b82b55561c89c",
        "64ee8535d7f751df0951c71f1d73b279a8b1a1fd7155de3f4653fc5d9aad03b2",
    ),
    ("split-pucci-2d", 7): (
        "5a65f52371d6bb35eac652af5b10319f80671f7c298b1182135b7fe802a71320",
        "72809adc5462f6ca11caf421e9cbfbfdb27dc4d772482a23d2a51ff979b16cbf",
        "64ee8535d7f751df0951c71f1d73b279a8b1a1fd7155de3f4653fc5d9aad03b2",
    ),
    ("split-pucci-2d", 11): (
        "5a65f52371d6bb35eac652af5b10319f80671f7c298b1182135b7fe802a71320",
        "00ca93bc10937734e93babe09ac11995dc7c5e675c2d10ffa23b86a75165cf27",
        "64ee8535d7f751df0951c71f1d73b279a8b1a1fd7155de3f4653fc5d9aad03b2",
    ),
}


@pytest.mark.parametrize("grid, seed", sorted(PINNED))
def test_diagnose_and_certify_outputs_are_byte_pinned(tmp_path, capsys, grid, seed):
    # digests taken before certify replayed in one batch and the falsifier
    # built its margins from (m, Q) alone; both must leave every byte alone
    cfg = _pinned_grid(tmp_path, grid)
    out_dir = tmp_path / "diag"
    argv = ["diagnose", "--config", str(cfg), "--seed", str(seed), "--out", str(out_dir)]
    assert run(capsys, *argv)[0] == 0
    certs = out_dir / "certificates.txt"
    code, out, _ = run(capsys, "certify", str(certs), "--config", str(cfg), "--strict")
    assert code == 0
    got = tuple(
        hashlib.sha256(b).hexdigest()
        for b in (certs.read_bytes(), (out_dir / "diagnostics.txt").read_bytes(), out.encode())
    )
    assert got == PINNED[grid, seed]
