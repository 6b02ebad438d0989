"""Self-test of the benchmark on a reduced-size run.

    python3 bench/selftest.py

Checks that
* BENCHMARK.json names the metrics, units and workloads the code reports;
* every workload reports every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``) with its unit, and no job fails;
* every count repeats exactly across two traced runs at one seed;
* the benchmark refuses to run, without printing a result, in a directory
  holding only BENCHMARK.json and the benchmark's own files.

Exits 0 when all checks pass, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans
from run import END_TO_END, ROOT, SRC, WORKLOAD_NAMES

sys.path.insert(0, str(SRC))
from workloads import WHY  # noqa: E402

SEED = 3


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc, problems: list, what: str) -> dict:
    if proc.returncode != 0:
        problems.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return {}
    res = json.loads(proc.stdout.splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(res)}")
    if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        problems.append(f"{what}: correct={res.get('correct')} failed={res.get('failed')}"
                        f" attempted={res.get('attempted')}; {proc.stderr.strip()[-500:]}")
    return res


def check_declared(bench: dict, problems: list) -> None:
    declared_e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    if declared_e2e != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {declared_e2e} != code {END_TO_END}")
    declared_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if declared_layer != spans.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    declared_why = {w["name"]: w["why"] for w in bench["workloads"]}
    if declared_why != WHY or tuple(declared_why) != WORKLOAD_NAMES:
        problems.append("BENCHMARK.json workloads differ from workloads.WHY")


def check_units(res: dict, want: dict, problems: list, what: str) -> None:
    got = {k: m["unit"] for k, m in res.get("metrics", {}).items()}
    want_units = {k: unit for k, (unit, _) in want.items()}
    if got != want_units:
        missing = sorted(set(want_units) - set(got))
        wrong = sorted(k for k in got if k in want_units and got[k] != want_units[k])
        extra = sorted(set(got) - set(want_units))
        problems.append(f"{what}: missing {missing}, wrong unit {wrong}, extra {extra}")


def check_refusal(bench_path: Path, problems: list) -> None:
    """Only BENCHMARK.json and bench/: no parastep sources to measure."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_path, bare / "BENCHMARK.json")
    try:
        proc = run("march", 0, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            problems.append(f"bare directory: exit {proc.returncode}, last line {last!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list = []
    bench_path = ROOT / "BENCHMARK.json"
    check_declared(json.loads(bench_path.read_text()), problems)

    for name in WORKLOAD_NAMES:
        e2e = result(run(name, 0), problems, f"{name} --trace 0")
        check_units(e2e, END_TO_END, problems, f"{name} --trace 0")
        first, second = (result(run(name, 1), problems, f"{name} --trace 1") for _ in range(2))
        check_units(first, spans.PER_LAYER, problems, f"{name} --trace 1")
        counts = [k for k, (unit, _) in spans.PER_LAYER.items() if unit in ("count", "bytes")]
        for k in counts:
            a = first.get("metrics", {}).get(k, {}).get("value")
            b = second.get("metrics", {}).get(k, {}).get("value")
            if a != b:
                problems.append(f"{name}: count {k} differs across runs: {a} vs {b}")
        print(f"{name}: checked", flush=True)

    check_refusal(bench_path, problems)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
