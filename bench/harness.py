"""Closed-loop runner: set-up, warm-up, whole-cycle measurement and statistics.

One client, one process: each operation starts after the previous one
returns.  A workload hands the harness a *cycle* of cases (one per input
class); the loop runs whole cycles only, so every run sees the classes in
the same proportions and the median always falls in the same class.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

MB = float(2 ** 20)


@dataclass
class Case:
    """One input of a workload cycle."""

    cls: str                  # input class, e.g. "96/mixture/N2"
    payload: object           # whatever the workload's op needs
    expect: str | None = None  # expected verdict, where the generator knows it
    info: dict = field(default_factory=dict)


@dataclass
class Judgement:
    """The oracle's reading of one finished operation.

    ``failed``: the operation did not deliver a certified answer (wrong
    verdict, refusal, rejected witness, nonzero exit code, exception).
    ``silent_bad``: construct succeeded but verify rejected its witness.
    ``wrong``: an answer the program presented as good is contradicted by
    the benchmark's own check (or the op raised where it must not); this is
    what clears the ``correct`` flag.
    """

    failed: bool
    silent_bad: bool = False
    wrong: bool = False
    detail: dict = field(default_factory=dict)


@dataclass
class Record:
    cls: str
    seconds: float
    judgement: Judgement
    op: int
    cpu_seconds: float = 0.0


class Stages:
    """Runs the named stages of one operation; subclasses observe them."""

    memory = False

    def __call__(self, label: str, fn: Callable, *args, span: str | None = None):
        return fn(*args)


def run_op(workload, case: Case, stages: Stages, op_id: int,
           wrap: Callable | None = None) -> Record:
    """Prepare (untimed), run (timed), judge and clean up (untimed) one op."""
    prepared = workload.prepare(case)
    call = workload.op if wrap is None else wrap(workload.op)
    error: BaseException | None = None
    result = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = call(prepared, stages)
    except Exception as exc:  # the harness must count, not die on, a failing op
        error = exc
    seconds = time.perf_counter() - t0
    cpu_seconds = time.process_time() - c0
    if error is not None:
        judgement = Judgement(failed=True, wrong=True, detail={
            "exception": "".join(traceback.format_exception_only(type(error), error)).strip(),
        })
    else:
        judgement = workload.judge(case, prepared, result)
    workload.cleanup(case, result)
    return Record(case.cls, seconds, judgement, op_id, cpu_seconds)


def cycle(workload, cases: list[Case], stages: Stages,
          wrap_op: Callable[[int], Callable | None] | None = None,
          after: Callable[[Record, int], None] | None = None):
    """A function that runs one cycle of ``cases``, numbering ops from its argument.

    ``wrap_op(op_id)`` may return a wrapper for the op function (fault
    injection, tracing); ``after(record, case_index)`` runs untimed after
    each op.
    """
    def run(first_op: int) -> list[Record]:
        records = []
        for index, case in enumerate(cases):
            op_id = first_op + index
            wrap = wrap_op(op_id) if wrap_op else None
            records.append(run_op(workload, case, stages, op_id, wrap))
            if after is not None:
                after(records[-1], index)
        return records
    return run


def measure(run_cycle: Callable[[int], list[Record]], seconds: float,
            cycles: int | None = None) -> list[Record]:
    """Run whole cycles until the next one would end past ``seconds``.

    ``cycles`` fixes the count instead (used by the self-test).  At least one
    cycle always runs.
    """
    records: list[Record] = []
    start = time.perf_counter()
    last = 0.0
    done = 0
    while True:
        if cycles is not None:
            if done >= cycles:
                break
        elif done and time.perf_counter() - start + last > seconds:
            break
        c0 = time.perf_counter()
        records += run_cycle(len(records))
        last = time.perf_counter() - c0
        done += 1
    return records


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples above it.

    Returns (value, percentile, sample count).  With fewer than 11 samples
    no such percentile exists and the maximum is returned at 100.
    """
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    i = n - 11
    return s[i], 100.0 * (i + 1) / n, n


def summarize(records: list[Record]) -> dict:
    times = [r.seconds for r in records]
    attempted = len(records)
    failed = sum(r.judgement.failed for r in records)
    value, pct, n = tail(times)
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": sum(r.judgement.wrong for r in records),
        "silent_bad": sum(r.judgement.silent_bad for r in records),
        "op_s_p50": statistics.median(times),
        "op_cpu_s_p50": statistics.median(r.cpu_seconds for r in records),
        "op_s_tail": value,
        "tail_percentile": pct,
        "samples": n,
    }
