"""The benchmark's span wrappers (bench/spans.py) must still find every
parastep name they wrap, so a refactor that moves one fails here rather than
as failed or empty spans in a benchmark run.  The test only reads bench/."""

import importlib.util
import sys
from pathlib import Path

import parastep  # noqa: F401  (loads every module the wrappers patch)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _target(where, attr):
    mod_name, _, cls_name = where.partition(":")
    owner = sys.modules[mod_name]
    return getattr(getattr(owner, cls_name) if cls_name else owner, attr)


def test_benchmark_wrappers_bind_every_target():
    spans = _load_spans()
    restore = spans.install(spans.Tracer())
    try:
        unwrapped = [
            f"{where}.{attr}"
            for where, attr, _, _ in spans.TARGETS
            if not hasattr(_target(where, attr), "__wrapped__")
        ]
        assert unwrapped == []
        assert hasattr(sys.modules["parastep.solver"].spla.spsolve, "__wrapped__")
    finally:
        restore()
    for where, attr, _, _ in spans.TARGETS:
        assert not hasattr(_target(where, attr), "__wrapped__"), (where, attr)
    assert not hasattr(sys.modules["parastep.solver"].spla.spsolve, "__wrapped__")
