"""Self-test of the benchmark harness, at tiny grids (a few seconds).

    python3 bench/selftest.py

For every workload it checks that an untraced run emits every end-to-end
metric with its unit, that a traced run emits every per-layer metric, and
that an operation made to fail is counted in ``failed`` and ``fail_frac``
rather than dropped.  Exits nonzero on the first broken expectation.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the BLAS threads before numpy loads)

run.import_spinrep()

from workloads import Admit, Represent, Roundtrip  # noqa: E402

TINY = {
    "admit": lambda: Admit(coarse=20, fine=28),
    "represent": lambda: Represent(small=24, large=28, reference=28),
    "roundtrip": lambda: Roundtrip(small=20, mid=24, large=28),
}
# metrics the workload must report beyond the BENCHMARK.json lists
END_TO_END_EXTRA = {
    "admit": ("fail_frac", "h1_rel_err"),
    "represent": ("fail_frac", "silent_bad_frac", "kinetic_rel_err"),
    "roundtrip": ("fail_frac", "silent_bad_frac", "witness_mb"),
}
PER_LAYER_EXTRA = {
    "admit": ("check.peak_alloc_mb",),
    "represent": ("sqrtm.sqrt_field_s", "decompose.rank1_split_s", "decompose.ratio_split_s",
                  "decompose.construct_s", "orbitals.build_phase_s",
                  "orbitals.build_orbitals_s", "orbitals.gram_s", "orbitals.materialised_mb",
                  "witness.density_of_s", "witness.kinetic_s", "witness.verify_s",
                  "witness.occupation_s", "witness.verified_ratio",
                  "decompose.refused_admissibility", "decompose.refused_orbitals",
                  "construct.peak_alloc_mb", "verify.peak_alloc_mb"),
    "roundtrip": ("io.write_spdf_s", "io.read_spdf_s", "io.write_witness_s",
                  "io.read_witness_s", "io.bytes_written", "io.bytes_read",
                  "cli.construct_s", "cli.verify_s", "cli.exit_0",
                  "decompose.refused_admissibility", "decompose.refused_orbitals",
                  "construct.peak_alloc_mb", "verify.peak_alloc_mb",
                  "read_witness.peak_alloc_mb"),
}


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def has_metrics(workload: str, result: dict, names, units: dict) -> None:
    metrics = result["metrics"]
    for name in names:
        expect(name in metrics, f"{workload}: metric {name} missing")
        expect(isinstance(metrics[name], (int, float)) and math.isfinite(metrics[name]),
               f"{workload}: metric {name} = {metrics[name]!r} is not a finite number")
        if name in units:
            expect(run.unit_of(name) == units[name],
                   f"{workload}: {name} has unit {run.unit_of(name)}, not {units[name]}")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(set(e2e) == set(run.END_TO_END), "run.END_TO_END differs from BENCHMARK.json")
    expect(set(layers) == set(run.PER_LAYER), "run.PER_LAYER differs from BENCHMARK.json")

    for name, make in TINY.items():
        common = {"seconds": 0.0, "cycles": 1}
        base = run.run_workload(name, 7, trace=0, workload=make(), setup_repeats=1, **common)
        has_metrics(name, base, list(e2e) + list(END_TO_END_EXTRA[name]), e2e)

        # make an op fail by raising inside it; prefer one that succeeds on its own
        # (at tiny grids the construction can fall outside its envelope)
        records = sorted(base["records"], key=lambda r: (r["failed"], r["wrong"]))
        target = records[0]
        expect(not target["wrong"], f"{name}: every op is wrong at the tiny grid")
        hit = target["op"]
        bad = run.run_workload(name, 7, trace=0, workload=make(), setup_repeats=1,
                               inject_failure_at=hit, **common)
        b, s = base["stats"], bad["stats"]
        expect(s["attempted"] == b["attempted"], f"{name}: injected op was dropped")
        expect(s["failed"] == b["failed"] + (not target["failed"]),
               f"{name}: injected failure not counted")
        expect(s["wrong"] == b["wrong"] + 1, f"{name}: injected failure did not clear correct")
        expect(bad["metrics"]["fail_frac"] == s["failed"] / s["attempted"],
               f"{name}: fail_frac is not failed / attempted")
        injected = next(r for r in bad["records"] if r["op"] == hit)
        expect("injected failure" in injected["detail"].get("exception", ""),
               f"{name}: op {hit} does not record the injected exception")

        traced = run.run_workload(name, 7, trace=1, workload=make(), **common)
        has_metrics(name, traced, list(layers) + list(PER_LAYER_EXTRA[name]), layers)
        expect(bool(traced["spans"]), f"{name}: traced run recorded no spans")
        for kernel in ("fields.grad_real_s", "fields.grad_complex_s", "fields.integrate_s",
                       "fields.grad_bytes", "fields.grad_flops"):
            expect(any(k.startswith(kernel + ".n") for k in traced["metrics"]),
                   f"{name}: no per-grid-size row for {kernel}")
        print(f"selftest {name}: ok ({b['attempted']} ops, {len(traced['spans'])} spans)")
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
