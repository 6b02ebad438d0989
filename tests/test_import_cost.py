"""Start-up cost guard: a fresh interpreter that imports parastep, or runs
``python -m parastep --help``, loads every parastep module (the benchmark's
span wrappers look them up in ``sys.modules``) but not ``scipy.stats``, which
only the falsifier's Sobol sampler needs and imports where it is used."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parastep

PACKAGE = Path(parastep.__file__).resolve().parent
# What ``import parastep`` loads: every module but the command line.
LIBRARY = {"parastep"} | {
    f"parastep.{p.stem}"
    for p in PACKAGE.glob("*.py")
    if p.stem not in ("__init__", "__main__", "cli")
}

PROGRAMS = {
    "import": "import parastep",
    "help": (
        "import runpy\n"
        "sys.argv = ['parastep', '--help']\n"
        "try:\n"
        "    runpy.run_module('parastep', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    ),
}


def loaded_modules(program: str) -> set:
    code = f"import json, sys\n{program}\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("case", sorted(PROGRAMS))
def test_start_up_loads_parastep_but_not_scipy_stats(case):
    modules = loaded_modules(PROGRAMS[case])
    assert "scipy.stats" not in modules
    want = LIBRARY | ({"parastep.cli"} if case == "help" else set())
    assert want <= modules, sorted(want - modules)
