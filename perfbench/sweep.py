"""``sweep``: the paper's online experiment loop, as a cold campaign.

Set-up emits an OLTP-like trace (the Table 2 model: 21 disks, 11 hot,
about 22% writes) as blktrace text and imports it with
:func:`repro.traces.import_trace`. Each measured pass then runs a
cold-cache campaign through :func:`repro.campaign.run_points` with two
workers over {lru, pa-lru, arc} x {write-back, write-through, wtdu}.
The cache holds a few thousand blocks against a hot footprint of 60k
blocks per disk, so misses keep the disk and power layers busy, and the
trace lasts long enough for PA-LRU to finish eight 900 s epochs.
"""

from __future__ import annotations

import shutil
import time

from repro.campaign.executor import PointTask, run_points
from repro.campaign.journal import RunJournal
from repro.campaign.store import ResultStore
from repro.traces import OLTPTraceConfig, generate_oltp_trace_columnar, import_trace

from perfbench.common import (
    SETUP_REPEATS,
    Context,
    LruLoop,
    Outcome,
    check_digests,
    median,
    model_metrics,
    peak_rss_mb,
    record_result,
    result_problems,
    Timed,
)
from perfbench.emit import emit_blktrace
from perfbench.fold import profile
from perfbench.spans import NO_TRACE

POLICIES = ("lru", "pa-lru", "arc")
WRITERS = ("write-back", "write-through", "wtdu")
#: The speed probe's loop: this workload is block-cache simulation.
PROBE_LOOP = LruLoop
CELLS = tuple(f"{policy}.{writer}" for policy in POLICIES for writer in WRITERS)

DISKS = 21
CACHE_BLOCKS = 4096
WORKERS = 2
#: Eight PA-LRU epochs of 900 s.
DURATION_S = 7_200.0

#: Packages whose self time the traced serial re-run reports.
PROFILED = ("sim", "cache", "core", "disk", "power", "campaign", "builtins")
#: Share of the trace the profiled serial re-run simulates (two epochs).
PROFILED_SHARE = 0.25


def build_trace(ctx: Context, tracer=NO_TRACE):
    """Generate, emit and import the workload trace; return both traces."""
    path = ctx.work / "sweep.blktrace"
    with tracer.span("traces.generate_oltp"):
        generated = generate_oltp_trace_columnar(
            OLTPTraceConfig(duration_s=DURATION_S, seed=ctx.seed)
        )
    with tracer.span("traces.emit_blktrace"):
        emit_blktrace(generated, path, seed=ctx.seed)
    with tracer.span("traces.import_trace"):
        trace, _summary = import_trace(path, fmt="blktrace")
    path.unlink()
    return generated, trace


def import_problems(generated, imported) -> list[str]:
    """Emit -> import must keep the request count, order and disk count."""
    problems = []
    if len(imported) != len(generated):
        problems.append(
            f"import kept {len(imported)} of {len(generated)} requests"
        )
    elif list(imported.blocks) != list(generated.blocks):
        problems.append("import reordered or altered the requests")
    if len(set(imported.disks)) != len(set(generated.disks)):
        problems.append("import changed the number of disks")
    return problems


def tasks() -> list[PointTask]:
    return [
        PointTask(
            index=index,
            params={"cell": cell},
            run_kwargs={
                "policy": cell.split(".", 1)[0],
                "write_policy": cell.split(".", 1)[1],
                "num_disks": DISKS,
                "cache_blocks": CACHE_BLOCKS,
            },
        )
        for index, cell in enumerate(CELLS)
    ]


def campaign_pass(trace, directory, tracer=NO_TRACE):
    """One cold campaign into a fresh store; returns ``(timing, outcomes)``."""
    store = ResultStore(directory / "store")
    journal = RunJournal(directory / "journal.jsonl")
    try:
        with Timed() as timing, tracer.span("campaign.run_points"):
            outcomes = run_points(
                tasks(),
                trace=trace,
                workers=WORKERS,
                store=store,
                journal=journal,
                on_error="record",
            )
    finally:
        journal.close()
        shutil.rmtree(directory)
    return timing, outcomes


def check_pass(outcome: Outcome, outcomes, requests: int) -> None:
    """Each point must succeed cold, satisfy the identities, and repeat."""
    for point in outcomes:
        cell = point.task.params["cell"]
        if point.ok and not point.cache_hit:
            record_result(outcome, cell, point.result, requests)
        else:
            outcome.fail(f"{cell}: status {point.status}, cached {point.cache_hit}")


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    setups = []
    for _ in range(SETUP_REPEATS):
        with Timed() as timing:
            generated, trace = build_trace(ctx)
        setups.append(timing.seconds)
    for problem in import_problems(generated, trace):
        outcome.fail(problem)
    passes, cells = [], {cell: [] for cell in CELLS}
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < ctx.seconds:
        timing, outcomes = campaign_pass(trace, ctx.work / f"pass{len(passes)}")
        passes.append(timing.seconds)
        for point in outcomes:
            cells[point.task.params["cell"]].append(point.wall_time_s * timing.scale)
        check_pass(outcome, outcomes, len(trace))
    check_digests(outcome, "sweep", expected_key(ctx))
    outcome.metric("setup_s", median(setups), "s")
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
    requests = len(passes) * len(CELLS) * len(trace)
    outcome.metric("rate_per_s", requests / sum(passes), "1/s")
    outcome.metric("result_s", median(passes), "s")
    # The slowest cell, by its median over the passes.
    outcome.metric("tail_ms", max(median(t) for t in cells.values()) * 1e3, "ms")
    return outcome


def trace(ctx: Context, tracer) -> Outcome:
    """Traced legs: spans around every layer call, then a profiled re-run."""
    outcome = Outcome()
    generated, trace = build_trace(ctx, tracer)
    for problem in import_problems(generated, trace):
        outcome.fail(problem)
    outcome.metric("traces.generate_s.sweep", tracer.seconds("traces.generate_oltp"), "s")
    outcome.metric("traces.emit_s", tracer.seconds("traces.emit_blktrace"), "s")
    outcome.metric("traces.import_s", tracer.seconds("traces.import_trace"), "s")

    timing, outcomes = campaign_pass(trace, ctx.work / "traced", tracer)
    check_pass(outcome, outcomes, len(trace))
    check_digests(outcome, "sweep", expected_key(ctx))
    for point in outcomes:
        cell = point.task.params["cell"]
        outcome.metric(f"campaign.point_s.{cell}", point.wall_time_s, "s")
        if point.result is not None:
            model_metrics(outcome, cell, point.result)
    busy = sum(p.wall_time_s for p in outcomes)
    outcome.metric("campaign.overhead_s", timing.wall - busy / WORKERS, "s")
    outcome.metric("campaign.retries", sum(p.retries for p in outcomes), "count")

    # The same cells serially in-process, so cProfile sees the layers;
    # on the first PROFILED_SHARE of the trace to keep the traced run short.
    prefix = trace[: int(len(trace) * PROFILED_SHARE)]
    serial_outcomes = []

    def serial() -> None:
        with tracer.span("campaign.run_points_serial", requests=len(prefix)):
            serial_outcomes.extend(run_points(tasks(), trace=prefix, workers=1))

    _, folded = profile(serial)
    for point in serial_outcomes:
        cell = point.task.params["cell"]
        problems = ["failed"] if not point.ok else result_problems(
            cell, point.result, len(prefix)
        )
        outcome.check(not problems, f"serial {cell}: {'; '.join(problems)}")
    for package in PROFILED:
        outcome.metric(f"self_s.sweep.{package}", folded.get(package, 0.0), "s")
    outcome.profiles["sweep"] = folded
    return outcome


def expected_key(ctx: Context) -> str:
    return f"seed={ctx.seed}"
