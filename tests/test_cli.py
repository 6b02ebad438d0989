"""Command line behavior: exit codes, output files, and determinism.

Everything drives ``cli_main(argv)`` in-process; 0 = success, 1 = error,
2 = property violation under --strict.
"""

import os

import pytest

from parastep.cli import cli_main
from parastep.geometry import MeshFunction, MeshSpec


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
    assert code == 1 and "PARASTEP_THREADS" in err

    # As in the package __init__, an explicit per-library value wins and an
    # unset one takes PARASTEP_THREADS.
    monkeypatch.setenv("PARASTEP_THREADS", "2")
    for preset, want in (("1", "1"), (None, "2")):
        if preset is None:
            monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OMP_NUM_THREADS", preset)
        code, *_ = run(
            capsys, "solve", "--problem", "heat_sine", "--h-list", "0.25", "--out", str(tmp_path)
        )
        assert code == 0
        assert os.environ["OMP_NUM_THREADS"] == want


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
