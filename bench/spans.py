"""In-memory span recorder, the wrappers that put spans around parastep's
public functions from outside the package, and the per-layer metrics
derived from the recorded spans.

A span is a dict with ``id``, ``parent``, ``name``, ``start``, ``end`` and
``attrs``.  Spans stay in memory until the run ends.  Counts are attached
to spans as ``attrs`` where the work happens; entries marked "computed" in
:data:`PER_LAYER` come from array sizes, not from a measurement.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
import time


class Tracer:
    """Records nested spans with ``perf_counter`` stamps."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": next(self._ids),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def adopt(self, spans: list[dict], parent: int | None) -> None:
        """Take spans recorded in another process; their roots hang under ``parent``."""
        remap = {s["id"]: next(self._ids) for s in spans}
        for s in spans:
            self.spans.append(
                dict(s, id=remap[s["id"]], parent=remap.get(s["parent"], parent))
            )


# ---------------------------------------------------------------------------
# wrappers around the public functions
# ---------------------------------------------------------------------------


def _cylinder_offset_count(spec, delta: float) -> int:
    """Number of (dk, dm) offsets in the falsifier's backward delta-cylinder
    (computed from the mesh, with the same lattice rule as the falsifier)."""
    reach = int(delta / spec.h + 1e-9)
    depth = int(math.ceil(delta**2 / spec.tau - 1e-9)) - 1
    r2 = (delta / spec.h) ** 2 * (1.0 - 1e-12)
    ring = range(-reach, reach + 1)
    inside = sum(
        1 for dk in itertools.product(ring, repeat=spec.n) if sum(d * d for d in dk) < r2
    )
    return inside * (depth + 1)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _solve_attrs(args, kwargs, out):
    u, report = out
    its = report.iterations
    return {
        "levels": len(its),
        "iterations": int(sum(its)),
        "iterations_per_level_max": max(its, default=0),
        "unknowns": int(u.spec.classification().interior.sum()),
    }


def _falsifier_attrs(args, kwargs, out):
    v, delta = args[0], _arg(args, kwargs, 2, "delta")
    cfg = _arg(args, kwargs, 4, "config") or sys.modules["parastep.diagnostics"].FalsifierConfig()
    offsets = _cylinder_offset_count(v.spec, delta)
    return {
        # the osculating probe, 3 openings x 2 signs x 2 slopes, then the samples
        "probes": 1 + 12 * cfg.include_battery + cfg.samples,
        "offsets": offsets,
        "stack_bytes": offsets * v.spec.node_count() * 8,
        "certificates": len(out),
    }


def _holder_attrs(args, kwargs, out):
    u = args[0]
    region = _arg(args, kwargs, 2, "region")
    nodes = u.spec.node_count() if region is None else int(region.sum())
    return {"pairs": nodes * (nodes - 1) // 2}


# (module, attribute, span name, attrs(args, kwargs, result) or None).
# ``module`` may name a class inside a module as "module:Class".
TARGETS = [
    ("parastep.geometry:MeshFunction", "write_text", "geometry.write_text",
     lambda a, k, o: {"nodes": a[0].spec.node_count()}),
    ("parastep.geometry:MeshFunction", "read_text", "geometry.read_text",
     lambda a, k, o: {"nodes": o.spec.node_count()}),
    ("parastep.geometry:MeshFunction", "from_callable", "geometry.from_callable", None),
    ("parastep.geometry", "discrete_holder_norm", "geometry.holder", _holder_attrs),
    ("parastep.scheme", "build_monotone_scheme", "scheme.build", None),
    ("parastep.scheme", "scheme_residual_field", "scheme.residual", None),
    ("parastep.solver", "solve", "solver.solve", _solve_attrs),
    ("parastep.diagnostics", "delta_falsifier", "diagnostics.falsifier", _falsifier_attrs),
    ("parastep.diagnostics", "good_set_measure", "diagnostics.goodset", None),
    ("parastep.diagnostics", "linprog", "diagnostics.lp",
     lambda a, k, o: {"rows": int(k["A_ub"].shape[0])}),
    ("parastep.diagnostics", "replay_violation", "diagnostics.replay",
     lambda a, k, o: {"valid": int(o["valid"])}),
    ("parastep.convolutions", "verify_convolution_properties", "convolutions.verify", None),
    ("parastep.convolutions", "inf_convolution_mesh", "convolutions.transform", None),
    ("parastep.convolutions", "sup_convolution_mesh", "convolutions.transform", None),
    ("parastep.envelopes", "abp_diagnostic", "envelopes.abp",
     lambda a, k, o: {"contact_count": int(o["contact_count"])}),
    ("parastep.envelopes", "lower_monotone_envelope", "envelopes.envelope", None),
    ("parastep.envelopes", "upper_monotone_envelope", "envelopes.envelope", None),
    ("parastep.harness", "run_convergence_study", "harness.convergence", None),
    ("parastep.harness", "run_diagnostics", "harness.diagnostics", None),
]


def _wrap(tracer: Tracer, fn, name, attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
        if attrs is not None:
            rec["attrs"] = attrs(args, kwargs, out)
        return out

    return wrapper


class _ModuleProxy:
    """Stands in for a module at one import site, overriding some names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer):
    """Wrap every target at each place parastep binds it; returns an undo callable.

    A function imported with ``from .x import f`` is bound in several module
    namespaces, so every loaded ``parastep`` module holding the original
    object gets the wrapper.  ``spsolve`` is wrapped only where the solver
    calls it, through a proxy of its ``spla`` module.
    """
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "parastep"]
    for where, attr, name, attrs in TARGETS:
        mod_name, _, cls_name = where.partition(":")
        owner = sys.modules[mod_name]
        if cls_name:
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patch(cls, attr, classmethod(_wrap(tracer, raw.__func__, name, attrs)))
            else:
                patch(cls, attr, _wrap(tracer, raw, name, attrs))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, original, name, attrs)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                patch(mod, attr, wrapped)

    solver = sys.modules["parastep.solver"]
    spla = solver.spla
    patch(solver, "spla", _ModuleProxy(
        spla, spsolve=_wrap(tracer, spla.spsolve, "solver.linear_solve", None)
    ))

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
        undo.clear()

    return restore


@contextlib.contextmanager
def installed(tracer: Tracer):
    """The wrappers of :func:`install`, in place for the ``with`` block only."""
    restore = install(tracer)
    try:
        yield
    finally:
        restore()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, better); the benchmark's per-layer metric set.
PER_LAYER = {
    "import.wall_s": ("s", "lower"),
    "import.modules": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "geometry.write_text_s": ("s", "lower"),
    "geometry.read_text_s": ("s", "lower"),
    "geometry.text_nodes": ("count", "lower"),
    "geometry.from_callable_s": ("s", "lower"),
    "geometry.holder_s": ("s", "lower"),
    "geometry.holder_pairs": ("count", "lower"),  # computed
    "scheme.build_s": ("s", "lower"),
    "scheme.residual_s": ("s", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.levels": ("count", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.iterations_per_level_max": ("count", "lower"),
    "solver.levels_per_iteration": ("ratio", "higher"),  # levels / iterations
    "solver.linear_solves": ("count", "lower"),
    "solver.linear_solve_s": ("s", "lower"),
    "solver.unknowns": ("count", "lower"),  # computed
    "diagnostics.falsifier_s": ("s", "lower"),
    "diagnostics.falsifier_probes": ("count", "lower"),  # computed
    "diagnostics.falsifier_offsets": ("count", "lower"),  # computed
    "diagnostics.falsifier_stack_bytes": ("bytes", "lower"),  # computed
    "diagnostics.certificates": ("count", "lower"),
    "diagnostics.goodset_s": ("s", "lower"),
    "diagnostics.lp_calls": ("count", "lower"),
    "diagnostics.lp_s": ("s", "lower"),
    "diagnostics.lp_rows": ("count", "lower"),
    "diagnostics.replay_s": ("s", "lower"),
    "diagnostics.replays": ("count", "lower"),
    "diagnostics.replay_valid_ratio": ("ratio", "higher"),  # 0 when none replayed
    "convolutions.verify_s": ("s", "lower"),
    "convolutions.transform_s": ("s", "lower"),
    "convolutions.self_s": ("s", "lower"),
    "envelopes.abp_s": ("s", "lower"),
    "envelopes.envelope_s": ("s", "lower"),
    "envelopes.contact_count": ("count", "lower"),
    "harness.convergence_s": ("s", "lower"),
    "harness.diagnostics_self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.span_coverage": ("ratio", "higher"),
}


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` with no ancestor of the same name (no double count
    when, say, the sup-convolution calls the inf-convolution)."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = by_id.get(s["parent"])
        while p is not None and p["name"] != name:
            p = by_id.get(p["parent"])
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer times and counts over one set of spans (import, overhead and
    coverage are filled in by the caller)."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in _outermost(spans, name))

    def self_time(name):
        return sum(
            dur(s) - sum(dur(c) for c in children.get(s["id"], ()))
            for s in _outermost(spans, name)
        )

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    iterations = attr("solver.solve", "iterations")
    replays = count("diagnostics.replay")
    return {
        "cli.self_s": self_time("cli.main"),
        "geometry.write_text_s": total("geometry.write_text"),
        "geometry.read_text_s": total("geometry.read_text"),
        "geometry.text_nodes": attr("geometry.write_text", "nodes")
        + attr("geometry.read_text", "nodes"),
        "geometry.from_callable_s": total("geometry.from_callable"),
        "geometry.holder_s": total("geometry.holder"),
        "geometry.holder_pairs": attr("geometry.holder", "pairs"),
        "scheme.build_s": total("scheme.build"),
        "scheme.residual_s": total("scheme.residual"),
        "solver.solve_s": total("solver.solve"),
        "solver.self_s": self_time("solver.solve"),
        "solver.levels": attr("solver.solve", "levels"),
        "solver.iterations": iterations,
        "solver.iterations_per_level_max": max(
            (s["attrs"]["iterations_per_level_max"] for s in spans if s["name"] == "solver.solve"),
            default=0,
        ),
        "solver.levels_per_iteration": attr("solver.solve", "levels") / iterations
        if iterations else 0.0,
        "solver.linear_solves": count("solver.linear_solve"),
        "solver.linear_solve_s": total("solver.linear_solve"),
        "solver.unknowns": attr("solver.solve", "unknowns"),
        "diagnostics.falsifier_s": total("diagnostics.falsifier"),
        "diagnostics.falsifier_probes": attr("diagnostics.falsifier", "probes"),
        "diagnostics.falsifier_offsets": attr("diagnostics.falsifier", "offsets"),
        "diagnostics.falsifier_stack_bytes": attr("diagnostics.falsifier", "stack_bytes"),
        "diagnostics.certificates": attr("diagnostics.falsifier", "certificates"),
        "diagnostics.goodset_s": total("diagnostics.goodset"),
        "diagnostics.lp_calls": count("diagnostics.lp"),
        "diagnostics.lp_s": total("diagnostics.lp"),
        "diagnostics.lp_rows": attr("diagnostics.lp", "rows"),
        "diagnostics.replay_s": total("diagnostics.replay"),
        "diagnostics.replays": replays,
        "diagnostics.replay_valid_ratio": attr("diagnostics.replay", "valid") / replays
        if replays else 0.0,
        "convolutions.verify_s": total("convolutions.verify"),
        "convolutions.transform_s": total("convolutions.transform"),
        "convolutions.self_s": self_time("convolutions.verify"),
        "envelopes.abp_s": total("envelopes.abp"),
        "envelopes.envelope_s": total("envelopes.envelope"),
        "envelopes.contact_count": attr("envelopes.abp", "contact_count"),
        "harness.convergence_s": total("harness.convergence"),
        "harness.diagnostics_self_s": self_time("harness.diagnostics"),
    }


def coverage(spans: list[dict], job_prefix: str = "job:") -> float:
    """Share of the jobs' wall time spent inside named (non-benchmark) spans."""
    jobs = {s["id"]: s for s in spans if s["name"].startswith(job_prefix)}
    wall = sum(s["end"] - s["start"] for s in jobs.values())
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] in jobs)
    return covered / wall if wall > 0 else 0.0
