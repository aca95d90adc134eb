"""spinrep benchmark: one closed-loop run of one workload.

    python3 bench/run.py --workload admit|represent|roundtrip --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones (a separate traced replay of the same operations).  Every
metric is printed by name and unit; the last line of standard output is one
JSON object with the benchmark's headline metrics.  The full result, and in
traced runs the span list, are written under ``bench/out/``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402
import sys  # noqa: E402

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"  # before numpy loads its BLAS
sys.dont_write_bytecode = True  # every run compiles the same sources

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
# PipelineError stages of construct_witness, counted even when zero
REFUSAL_STAGES = ("admissibility", "rank1_split", "ratio_split", "orbitals", "assembly")

# headline metrics: printed on the last line, in BENCHMARK.json
END_TO_END = {"setup_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "fields.grad_real_s": "s", "fields.grad_complex_s": "s", "fields.integrate_s": "s",
    "fields.grad_bytes": "B", "fields.grad_flops": "flop",
    "spin_density.det_field_s": "s", "spin_density.det_field_calls": "count",
    "check.check_s": "s", "check.pointwise_s": "s", "check.norms_s": "s",
    "fields.self_s": "s", "check.self_s": "s",
    "trace.accounted_frac": "ratio", "trace_overhead_frac": "ratio",
}
# further metrics, printed and saved but not on the last line
UNITS = {
    "op_s_tail": "s", "fail_frac": "ratio", "silent_bad_frac": "ratio", "witness_mb": "MB",
    "h1_rel_err": "ratio", "kinetic_rel_err": "ratio",
    "kinetic_stencil": "1/length^2", "kinetic_spectral": "1/length^2",
    "orbitals.materialised_mb": "MB", "witness.verified_ratio": "ratio",
    "io.bytes_written": "B", "io.bytes_read": "B",
}

NOTES = [
    "closed loop, one client, one process; whole cycles of the workload's input classes",
    "measurement is own-process only: wall clocks, ru_maxrss and tracemalloc of this "
    "process; no system-wide profiler, cache drop or cgroup change",
    "fields.grad_bytes and fields.grad_flops are computed from array sizes, not measured",
    "the largest arrays (96^3 complex, 14 MB) fit in the reported L3 cache, so no "
    "bandwidth or roofline ratio is given",
    "MB = 2^20 bytes",
]


def unit_of(name: str) -> str:
    name = re.sub(r"\.n\d+$", "", name)  # per-grid-size rows share the metric's unit
    for table in (END_TO_END, PER_LAYER, UNITS):
        if name in table:
            return table[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def l3_cache() -> str:
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def metadata(seed: int, workload: str, trace: int) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "l3_cache": l3_cache(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREADS},
        "notes": NOTES,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def set_up(wl, seed: int, workdir: str, repeats: int):
    """Generate the inputs and run one untimed warm-up op, ``repeats`` times."""
    import numpy as np
    from harness import Stages, run_op

    times, cases = [], None
    for _ in range(repeats):
        cases = None  # release the previous inputs first
        t = time.perf_counter()
        cases = wl.setup(np.random.default_rng(seed), workdir)
        run_op(wl, cases[0], Stages(), -1)
        times.append(time.perf_counter() - t)
    return cases, times


def counts(records) -> dict:
    out = {}
    if any("refused" in r.judgement.detail or "constructed" in r.judgement.detail
           or "exit_construct" in r.judgement.detail for r in records):
        out = {f"decompose.refused_{stage}": 0 for stage in REFUSAL_STAGES}
    for r in records:
        d = r.judgement.detail
        if "refused" in d:
            key = f"decompose.refused_{d['refused']}"
            out[key] = out.get(key, 0) + 1
        for key in ("exit_construct", "exit_verify"):
            if d.get(key) is not None:
                name = f"cli.exit_{d[key]}"
                out[name] = out.get(name, 0) + 1
    constructed = [r for r in records if r.judgement.detail.get("constructed")]
    if constructed:
        out["witness.verified_ratio"] = (
            sum(r.judgement.detail["verified"] for r in constructed) / len(constructed))
        out["orbitals.materialised_mb"] = statistics.median(
            r.judgement.detail["materialised_bytes"] for r in constructed) / 2 ** 20
    for key in ("bytes_written", "bytes_read"):
        vals = [r.judgement.detail[key] for r in records if key in r.judgement.detail]
        if vals:
            out[f"io.{key}"] = statistics.median(vals)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, *,
                 workload=None, cycles: int | None = None,
                 inject_failure_at: int | None = None, setup_repeats: int = SETUP_REPEATS,
                 import_s: float = 0.0) -> dict:
    """One run; returns the full result (stats, metrics, records, metadata, spans)."""
    from harness import Stages, cycle, measure, summarize
    from workloads import WORKLOADS

    wl = workload or WORKLOADS[name]()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    def injector(op_id):
        if op_id != inject_failure_at:
            return None

        def wrap(fn):
            def fail(*args):
                raise RuntimeError("injected failure")
            return fail
        return wrap

    try:
        if trace:
            result = _traced(wl, seed, seconds, workdir, cycles, injector)
        else:
            cases, setup_times = set_up(wl, seed, workdir, setup_repeats)
            records = measure(cycle(wl, cases, Stages(), wrap_op=injector), seconds, cycles)
            stats = summarize(records)
            stats.update(import_s=import_s, setup_repeats_s=setup_times)
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "op_s_p50": stats["op_s_p50"],
                "op_s_tail": stats["op_s_tail"],
                "peak_rss_mb": peak_rss_mb(),
                "fail_frac": stats["failed"] / stats["attempted"],
            }
            if name != "admit":
                metrics["silent_bad_frac"] = stats["silent_bad"] / stats["attempted"]
            metrics.update(wl.finish(records))
            metrics.update(counts(records))
            result = {"stats": stats, "metrics": metrics,
                      "records": [_record_json(r) for r in records]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["meta"] = metadata(seed, name, trace)
    return result


def _record_json(r) -> dict:
    return {"op": r.op, "class": r.cls, "seconds": r.seconds, "cpu_seconds": r.cpu_seconds,
            "failed": r.judgement.failed,
            "silent_bad": r.judgement.silent_bad, "wrong": r.judgement.wrong,
            "detail": r.judgement.detail}


def _traced(wl, seed, seconds, workdir, cycles, injector) -> dict:
    """Alternate untraced and traced cycles, then run one op under tracemalloc.

    Overheads and coverage compare each traced op with the untraced ops of
    its own class, run moments before, so neither the class mix nor drift
    of the machine between the two halves enters the ratio.
    """
    import numpy as np
    import tracemalloc
    from harness import Stages, cycle, measure, run_op, summarize
    from tracing import (MemoryStages, TracedStages, Tracer, instrument, kernel_rows,
                         layer_metrics, probe, self_times)

    tracer = Tracer()
    with instrument(tracer):
        cases = wl.setup(np.random.default_rng(seed), workdir)
    fields = [wl.field_of(c) for c in cases]
    run_op(wl, cases[0], Stages(), -1)

    costs = {}

    def after(record, case_index):
        costs[record.op] = probe(tracer, fields[case_index])

    plain_cycle = cycle(wl, cases, Stages(), wrap_op=injector)
    traced_cycle = cycle(wl, cases, TracedStages(tracer), wrap_op=tracer.op_wrapper,
                         after=after)

    def pair(first_op):
        records = plain_cycle(first_op)
        with instrument(tracer):
            records += traced_cycle(first_op + len(records))
        tracer.op = None
        return records

    records = measure(pair, seconds, cycles)

    mem = MemoryStages()
    tracemalloc.start()
    try:
        run_op(wl, cases[-1], mem, -2)
    finally:
        tracemalloc.stop()

    traced = [r for r in records if r.op in costs]
    plain = [r for r in records if r.op not in costs]
    base = {}
    for r in plain:
        base.setdefault(r.cls, []).append(r.seconds)
    base = {cls: statistics.median(t) for cls, t in base.items()}
    layers = layer_metrics(tracer.spans, [r.op for r in traced])
    accounted = layers.pop("_accounted")
    metrics = dict(layers)
    metrics["trace.accounted_frac"] = statistics.median(
        accounted[r.op] / base[r.cls] for r in traced)
    metrics["trace_overhead_frac"] = statistics.median(
        r.seconds / base[r.cls] for r in traced) - 1.0
    metrics["fields.grad_bytes"] = statistics.median(c["grad_bytes"] for c in costs.values())
    metrics["fields.grad_flops"] = statistics.median(c["grad_flops"] for c in costs.values())
    metrics.update(kernel_rows(tracer.spans, costs))
    metrics.update({f"{stage}.peak_alloc_mb": v for stage, v in mem.peaks.items()})
    metrics.update(counts(traced))
    stats = summarize(records)
    stats["untraced_op_s_p50"] = summarize(plain)["op_s_p50"]
    stats["traced_op_s_p50"] = summarize(traced)["op_s_p50"]
    return {"stats": stats, "metrics": metrics,
            "records": [_record_json(r) for r in records],
            "spans": self_times(tracer.spans)}


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("admit", "represent", "roundtrip"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_spinrep() -> None:
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "spinrep", "__init__.py")):
        raise ImportError(f"no spinrep package under {SRC}")
    sys.path.insert(0, SRC)
    import spinrep
    if os.path.dirname(os.path.dirname(os.path.abspath(spinrep.__file__))) != SRC:
        raise ImportError(f"spinrep was imported from {spinrep.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse(argv)
    try:
        import_spinrep()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          import_s=import_s)
    stats, metrics = result["stats"], result["metrics"]
    correct = stats["wrong"] == 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w", encoding="ascii") as fh:
            json.dump(spans, fh)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1, default=str)

    meta = result["meta"]
    print(f"# spinrep benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"# nproc={meta['nproc']} python={meta['python']} numpy={meta['numpy']} "
          f"scipy={meta['scipy']} L3={meta['l3_cache']} blas_threads=1")
    for note in meta["notes"]:
        print(f"# {note}")
    print(f"# ops attempted={stats['attempted']} failed={stats['failed']} "
          f"silent_bad={stats['silent_bad']} wrong={stats['wrong']}; op_s_tail is "
          f"p{stats['tail_percentile']:.1f} of {stats['samples']} ops")
    for key in sorted(metrics):
        print(f"{key} {metrics[key]:.6g} {unit_of(key)}")
    print(f"# full result: {os.path.relpath(os.path.join(OUT, f'result-{tag}.json'), ROOT)}")
    headline = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in headline.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
