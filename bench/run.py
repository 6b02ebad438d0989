"""Run one workload of the parastep benchmark and print its metrics.

    python3 bench/run.py --workload march --seed 1 --seconds 33 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 33 --trace 0

Set-up runs SETUP_REPS times, each in a fresh interpreter that imports
parastep and builds the workload's inputs; ``setup_s`` is the median of
those wall times.  The workload's jobs then run in passes, one job at a
time, for about ``--seconds`` (at least MIN_PASSES passes).  Every job's
output is checked; a failed check counts as a failed job and never stops
the run.  With ``--trace 1`` traced passes alternate with plain ones, so
the tracing overhead is measured too.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of the plain passes with
``--trace 0``, the per-layer metrics of the traced passes with ``--trace 1``.
Lines before it (starting with ``#``) give the run record and every metric,
per-job medians included, with its unit.

``--workload all`` runs every workload in turn, each in its own process,
and prints all of their metrics.
"""

import os
import sys

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS/OpenMP pools read these once, when they load: set them here, before
# numpy is imported in this process or any child (parastep's own --threads
# is applied after numpy has loaded).
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, median_low  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("march", "verify", "cli")
SETUP_REPS = 3
MIN_PASSES = 2

# name -> (unit, better); failed jobs are in the result's "failed" field, so
# the metric is their complement and never 0 on a good run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}


def run_record(seed: int) -> dict:
    """Seed, versions and the machine the numbers were measured on."""

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next(
        (ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = read(d / "level"), read(d / "type"), read(d / "size")
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": NPROC,
        "cpu": model,
        "caches_per_instance": caches,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "load": "closed loop, one job at a time, one process",
        # every working set fits in the last-level cache
        "bandwidth_claim": None,
    }


def timed_setup(name: str, seed: int, work: Path, size: str) -> dict:
    """SETUP_REPS set-ups in fresh interpreters; medians of wall and import."""
    walls, imports, modules = [], [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "prepare.py"), name, str(seed), str(work), size],
            capture_output=True, text=True, timeout=150,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
        imports.append(out["import_s"])
        modules.append(out["import_modules"])
    return {"setup_s": median(walls), "import.wall_s": median(imports), "import.modules": median(modules)}


class Pass:
    """One pass over the jobs: per-job times, failures, and (traced) spans."""

    def __init__(self, jobs, tracer=None):
        self.times = {}
        self.failed = 0
        self.spans = []
        first = len(tracer.spans) if tracer else 0
        for job in jobs:
            problems = self._run(job, tracer)
            if problems:
                self.failed += 1
                print(f"# FAILED {job.metric}: {'; '.join(problems)}", file=sys.stderr)
        self.wall = sum(self.times.values())
        if tracer:
            self.spans = tracer.spans[first:]

    def _run(self, job, tracer):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = job.run(False)
            else:
                with tracer.span("job:" + job.metric) as rec:
                    out = job.run(True)
                if getattr(out, "spans", None) is not None:
                    tracer.adopt(out.spans, rec["id"])
        except Exception as exc:  # a failing job is counted, the run goes on
            self.times[job.metric] = time.perf_counter() - t0
            return [f"{type(exc).__name__}: {exc}"]
        self.times[job.metric] = time.perf_counter() - t0
        try:
            if tracer is None:
                return job.check(out)
            with tracer.span("check"):
                return job.check(out)
        except Exception as exc:
            return [f"check raised {type(exc).__name__}: {exc}"]


def measure(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    import spans
    import workloads

    import parastep

    workloads.check_source(parastep)
    wl = workloads.WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = timed_setup(name, seed, work, size)
        tracer = spans.Tracer()
        if trace:
            with spans.installed(tracer), tracer.span("setup"):
                jobs = wl.setup(seed, work, size)
        else:
            jobs = wl.setup(seed, work, size)
        setup_spans = list(tracer.spans)

        # Start another pass only when it should end within the time asked
        # for, so a run's length stays bounded on a slow machine too.
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            plain.append(Pass(jobs))
            if trace:
                with spans.installed(tracer):
                    traced.append(Pass(jobs, tracer))
            elapsed = time.perf_counter() - start
            if len(plain) >= (1 if trace else MIN_PASSES) and elapsed * (1 + 1 / len(plain)) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF)
    e2e = {
        "setup_s": setup["setup_s"],
        "wall_s": median([p.wall for p in plain]),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    jobs_median = {j.metric: median([p.times[j.metric] for p in plain]) for j in jobs}
    result = {
        "why": wl.why,
        "passes": len(plain),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "jobs": jobs_median,
        "pass_times": [p.times for p in plain],
    }
    if trace:
        per_pass = [spans.layer_metrics(setup_spans + p.spans) for p in traced]
        # counts repeat exactly across passes; median_low keeps them integers
        layer = {
            k: (median_low if spans.PER_LAYER[k][0] in ("count", "bytes") else median)(
                [m[k] for m in per_pass]
            )
            for k in per_pass[0]
        }
        layer["import.wall_s"] = setup["import.wall_s"]
        layer["import.modules"] = setup["import.modules"]
        layer["trace.overhead_s"] = median([p.wall for p in traced]) - e2e["wall_s"]
        layer["trace.span_coverage"] = median([spans.coverage(p.spans) for p in traced])
        result["per_layer"] = {k: layer[k] for k in spans.PER_LAYER}
        result["traced_passes"] = len(traced)
    return result


def print_workload(name: str, res: dict, trace: bool) -> None:
    import spans

    print("# result " + json.dumps(res))
    print(f"# workload {name}: {res['why']}")
    print(f"# passes={res['passes']} attempted={res['attempted']} failed={res['failed']}")
    print(f"# failed_frac {res['failed'] / res['attempted']!r} ratio (ok_frac is 1 - failed_frac)")
    for k, v in res["end_to_end"].items():
        print(f"# {k} {v!r} {END_TO_END[k][0]}")
    for k, v in res["jobs"].items():
        print(f"# {k} {v!r} s (median over passes)")
    if trace:
        for k, v in res["per_layer"].items():
            print(f"# {k} {v!r} {spans.PER_LAYER[k][0]}")


def final_line(attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def run_all(args) -> int:
    """Every workload in its own process; all metrics, prefixed by workload."""
    attempted = failed = 0
    metrics, units = {}, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(ln for ln in lines[:-1] if not ln.startswith("# result ")))
        res = json.loads(next(ln for ln in lines if ln.startswith("# result "))[9:])
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["end_to_end"].items():
            metrics[f"{name}.{k}"] = v
            units[f"{name}.{k}"] = END_TO_END[k][0]
        for k, v in res["jobs"].items():
            metrics[k] = v
            units[k] = "s"
    print(final_line(attempted, failed, metrics, units))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parastep benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small is the self-test's reduced run")
    args = parser.parse_args(argv)

    if not (SRC / "parastep" / "__init__.py").is_file():
        print(f"bench: no parastep sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)

    import spans

    print("# record " + json.dumps(run_record(args.seed)))
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print_workload(args.workload, res, bool(args.trace))
    if args.trace:
        metrics = res["per_layer"]
        units = {k: u for k, (u, _) in spans.PER_LAYER.items()}
    else:
        metrics = res["end_to_end"]
        units = {k: u for k, (u, _) in END_TO_END.items()}
    print(final_line(res["attempted"], res["failed"], metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
