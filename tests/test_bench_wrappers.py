"""The benchmark's span wrappers (bench/spans.py) must still find every
parastep name they wrap, so a refactor that moves one fails here rather than
as failed or empty spans in a benchmark run.  The test only reads bench/."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import parastep  # loads every module the wrappers patch

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


def test_good_set_sweep_records_no_lp_span():
    # The exchange is the fits' only route: a traced sweep records its one
    # diagnostics.goodset span and no diagnostics.lp span.
    spans = _load_spans()
    tracer = spans.Tracer()
    spec = parastep.MeshSpec(h=0.25, bounds=[(-1.0, 1.0)], T=0.25, N=2)
    u = parastep.MeshFunction.from_callable(spec, lambda x, t: np.abs(x[..., 0]) ** 3)
    with spans.installed(tracer):
        rep = parastep.good_set_measure(u, [1.0], parastep.KBox(((0.0,), spec.tau), r=4.0))
    assert rep.node_count > 0
    names = [s["name"] for s in tracer.spans]
    assert names.count("diagnostics.goodset") == 1
    assert "diagnostics.lp" not in names
