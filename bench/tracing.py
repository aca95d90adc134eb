"""Spans recorded from outside the program, and the per-layer metrics they give.

The traced run installs a span wrapper around each public function listed
in ``TRACED`` wherever a ``spinrep`` module refers to it, so the same
operations run unchanged while every call into a layer records a span
(name, start, end, parent, op id).  Spans stay in memory and are written as
JSON when the run ends.  Nothing under ``src/`` is modified; the wrappers are
removed when the traced loop ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

import spinrep as sr

from harness import MB, Stages

# defining module -> public functions wrapped in the traced run
TRACED = {
    "fields": ("grad_magnitude_sq", "integrate_values", "weighted_gradient_l1", "lp_norm",
               "boundary_max"),
    "spin_density": ("det_field", "trace_integral", "spin_swap"),
    "check": ("check", "h1_seminorm", "w32_norms"),
    "sqrtm": ("sqrt_field",),
    "decompose": ("construct_witness", "rank1_split", "ratio_split"),
    "orbitals": ("build_orbitals", "build_phase", "gram_matrix", "reconstruction_error",
                 "exchange_components", "require_null_determinant"),
    "witness": ("verify", "density_of", "kinetic_by_spin", "occupation_spectrum"),
    "io": ("read_spdf", "write_spdf", "read_witness", "write_witness"),
}

# per-layer metric -> span whose per-op total time it reports
SPAN_METRICS = {
    "spin_density.det_field_s": "spin_density.det_field",
    "check.check_s": "check.check",
    "sqrtm.sqrt_field_s": "sqrtm.sqrt_field",
    "decompose.rank1_split_s": "decompose.rank1_split",
    "decompose.ratio_split_s": "decompose.ratio_split",
    "decompose.construct_s": "decompose.construct_witness",
    "orbitals.build_phase_s": "orbitals.build_phase",
    "orbitals.build_orbitals_s": "orbitals.build_orbitals",
    "orbitals.gram_s": "orbitals.gram_matrix",
    "witness.density_of_s": "witness.density_of",
    "witness.kinetic_s": "witness.kinetic_by_spin",
    "witness.verify_s": "witness.verify",
    "witness.occupation_s": "witness.occupation_spectrum",
    "io.read_spdf_s": "io.read_spdf",
    "io.write_witness_s": "io.write_witness",
    "io.read_witness_s": "io.read_witness",
    "cli.construct_s": "cli.construct",
    "cli.verify_s": "cli.verify",
    "fields.grad_real_s": "probe.grad_real",
    "fields.grad_complex_s": "probe.grad_complex",
    "fields.integrate_s": "probe.integrate",
    "check.pointwise_s": "probe.pointwise",
}

NORM_SPANS = ("check.h1_seminorm", "check.w32_norms", "fields.weighted_gradient_l1")
LAYERS = (*TRACED, "cli")


class Tracer:
    """In-memory span collector; ``op`` tags new spans with the current op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self.stack[-1] if self.stack else None,
               "op": self.op, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self.stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def op_wrapper(self, op_id: int):
        """Harness hook: run an op as root span "op" tagged with its id."""
        def wrap(fn):
            def run(*args):
                self.op = op_id
                with self.span("op"):
                    return fn(*args)
            return run
        return wrap


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every TRACED function in every loaded spinrep module that names it."""
    modules = [m for k, m in list(sys.modules.items())
               if (k == "spinrep" or k.startswith("spinrep.")) and m is not None]
    patched = []
    for mod_name, names in TRACED.items():
        home = sys.modules[f"spinrep.{mod_name}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


class TracedStages(Stages):
    """Stages that are not spinrep calls (the CLI) get a span of their own."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __call__(self, label, fn, *args, span=None):
        if span is None:
            return fn(*args)
        with self.tracer.span(span):
            return fn(*args)


class MemoryStages(Stages):
    """Peak traced allocation of each stage (tracemalloc must be running)."""

    memory = True

    def __init__(self):
        self.peaks: dict[str, float] = {}

    def __call__(self, label, fn, *args, span=None):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return fn(*args)
        finally:
            peak = (tracemalloc.get_traced_memory()[1] - base) / MB
            self.peaks[label] = max(self.peaks.get(label, 0.0), peak)


# -- probes: single kernel calls on the op's own arrays --------------------------

def grad_cost(npoints: int, complex_data: bool) -> tuple[int, int]:
    """Computed (bytes, flops) of one order-4 ``grad_magnitude_sq`` call.

    Counted from array sizes under the temporaries numpy makes for the
    stencil expression (9 reads and 6 writes of an input-sized array per
    axis) and for the |.|^2 accumulation; caches are ignored.  Not measured.
    """
    item = 16 if complex_data else 8
    mag_bytes = 96 if complex_data else 40
    comps = 2 if complex_data else 1
    bytes_ = npoints * (8 + 3 * (15 * item + mag_bytes))
    flops = npoints * 3 * (6 * comps + 2 * comps)
    return bytes_, flops


def probe(tracer: Tracer, r: sr.SpinDensityField) -> dict:
    """Time the fields kernels and conditions (a)-(c) once on r's arrays."""
    grid = r.grid
    real = np.sqrt(np.clip(r.rho_up.values, 0.0, None))
    with tracer.span("probe.grad_real"):
        sr.grad_magnitude_sq(grid, real, 4)
    with tracer.span("probe.grad_complex"):
        sr.grad_magnitude_sq(grid, r.sigma.values, 4)
    with tracer.span("probe.integrate"):
        sr.integrate_values(grid, r.rho_up.values)
    fresh = sr.SpinDensityField(r.rho_up, r.rho_dn, r.sigma, r.n_electrons)
    with tracer.span("probe.pointwise"):
        # replay of check's conditions (a)-(c)
        for v in (fresh.rho_up.values, fresh.rho_dn.values):
            float(np.min(v))
            np.unravel_index(np.argmin(v), v.shape)
        dt = sr.det_field(fresh).values
        float(np.min(dt))
        np.unravel_index(np.argmin(dt), dt.shape)
        sr.trace_integral(fresh)
    rb, rf = grad_cost(grid.npoints, False)
    cb, cf = grad_cost(grid.npoints, True)
    return {"n": grid.dims[0], "grad_bytes": rb + cb, "grad_flops": rf + cf}


def kernel_rows(spans: list[dict], costs: dict[int, dict]) -> dict:
    """The probes per grid size, as ``<metric>.n<points per axis>`` (medians over ops)."""
    probes = {span: metric for metric, span in SPAN_METRICS.items()
              if metric.startswith("fields.")}
    rows: dict[str, list] = {}
    for s in spans:
        if s["name"] in probes and s["op"] in costs:
            key = f"{probes[s['name']]}.n{costs[s['op']]['n']}"
            rows.setdefault(key, []).append(s["end"] - s["start"])
    for c in costs.values():
        for k in ("grad_bytes", "grad_flops"):
            rows.setdefault(f"fields.{k}.n{c['n']}", []).append(c[k])
    return {k: statistics.median(v) for k, v in rows.items()}


# -- derived metrics -------------------------------------------------------------

def layer_metrics(spans: list[dict], op_ids: list[int]) -> dict:
    """Per-layer metrics from the spans of the traced ops (medians over ops)."""
    by_id = {s["id"]: s for s in spans}
    child = _child_time(spans)

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    def under_check(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == "check.check":
                return True
        return False

    ops = {i: {"time": {}, "calls": {}, "self": {}, "norms": 0.0} for i in op_ids}
    for s in spans:
        if s["op"] not in ops:
            continue
        o = ops[s["op"]]
        dur = s["end"] - s["start"]
        name = s["name"]
        if name == "op":
            continue
        if not name.startswith("probe.") and root(s)["name"] != "op":
            continue  # calls made by the probes count nowhere
        o["time"][name] = o["time"].get(name, 0.0) + dur
        o["calls"][name] = o["calls"].get(name, 0) + 1
        if name.startswith("probe."):
            continue  # probes run after the op, outside its time
        layer = name.split(".", 1)[0]
        o["self"][layer] = o["self"].get(layer, 0.0) + dur - child[s["id"]]
        if name in NORM_SPANS and under_check(s):
            o["norms"] += dur

    per_op = list(ops.values())
    out = {}
    # a layer the workload never calls gets no metric rather than a zero
    for metric, name in SPAN_METRICS.items():
        times = [o["time"][name] for o in per_op if name in o["time"]]
        if times:
            out[metric] = statistics.median(times)
    checked = [o["norms"] for o in per_op if "check.check" in o["time"]]
    if checked:
        out["check.norms_s"] = statistics.median(checked)
    out["spin_density.det_field_calls"] = statistics.median(
        o["calls"].get("spin_density.det_field", 0) for o in per_op)
    for layer in LAYERS:
        if any(layer in o["self"] for o in per_op):
            out[f"{layer}.self_s"] = statistics.median(o["self"].get(layer, 0.0) for o in per_op)
    writes = [s["end"] - s["start"] for s in spans
              if s["name"] == "io.write_spdf" and s["op"] is None]
    if writes:
        out["io.write_spdf_s"] = statistics.median(writes)
    # per op: the layers' self time, which the op's own glue code tops up to its duration
    out["_accounted"] = {i: sum(o["self"].values()) for i, o in ops.items()}
    return out


def _child_time(spans: list[dict]) -> dict[int, float]:
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return child


def self_times(spans: list[dict]) -> list[dict]:
    """Spans with their self time, for the JSON dump."""
    child = _child_time(spans)
    return [dict(s, self=s["end"] - s["start"] - child[s["id"]]) for s in spans]
