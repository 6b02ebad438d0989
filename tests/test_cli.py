"""Command line behavior: exit codes, output files, and determinism.

Everything drives ``cli_main(argv)`` in-process; 0 = success, 1 = error,
2 = property violation under --strict.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import parastep
from parastep import _THREAD_VARS
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
    assert code == 1 and err.startswith("parastep: error: seed must be nonnegative, got -3")
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(drift_grid.read_text() + "seed = -2\n")
    code, _, err = run(capsys, "diagnose", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1 and err.startswith("parastep: error: seed must be nonnegative, got -2")
    assert not (tmp_path / "certificates.txt").exists()


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_solver_tol_is_an_error(tmp_path, capsys, tol):
    # a negative or NaN tol used to run the whole policy budget of the first
    # level and then report a stall at a residual near 1e-14
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(f"problem = heat_sine\nh_list = [0.25]\nsolver.tol = {tol}\n")
    code, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1 and err.startswith("parastep: error: solver.tol must be a finite positive")
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
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    code, _, err = run(capsys, "solve", "--problem", "heat_sine", *args, "--out", str(tmp_path))
    assert code == 1 and err.startswith(f"parastep: error: {message}")


@pytest.mark.parametrize("theta", ["inf", "nan"])
def test_non_finite_theta_is_an_error(tmp_path, capsys, theta):
    # theta = inf used to end in an IndexError traceback inside the envelope
    cfg = tmp_path / "theta.cfg"
    cfg.write_text(f"problem = heat_sine\ndiagnostics.theta = {theta}\n")
    argv = ["diagnose", "--config", str(cfg), "--h-list", "0.25", "--out", str(tmp_path)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    want = f"parastep: error: diagnostics.theta must be a finite positive number, got {theta}"
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
    monkeypatch.setattr(solver_module, "_BLOCK", 0)
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


def test_certify_malformed_row_is_line_numbered(tmp_path, capsys, drift_grid):
    bad = tmp_path / "bad_certs.txt"
    bad.write_text("# header\nside=super margin=0.0\n")
    code, _, err = run(capsys, "certify", str(bad), "--config", str(drift_grid))
    assert code == 1
    assert f"{bad}:2" in err and "missing field" in err


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
