"""``offline``: the OPG and Belady bounds, serially in-process.

The synthetic Table 3 trace is concentrated on two disks (the shape of
``repro bench``'s ``opg_deep``), so per-disk timelines and OPG's
reservation lists grow deep. Each measured pass runs
:func:`repro.sim.runner.run_simulation` for OPG with theta = 0 and for
Belady on the same trace. This is where ``core.opg``, ``core.chunked``
and ``core.kernels`` dominate; ``sweep`` never reaches them.
"""

from __future__ import annotations

import time

from repro.sim.runner import run_simulation
from repro.traces import SyntheticTraceConfig, generate_synthetic_trace_columnar

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
    Timed,
)
from perfbench.fold import profile
from perfbench.spans import NO_TRACE

DISKS = 2
REQUESTS = 80_000
CACHE_BLOCKS = 2048
#: leg -> (policy, extra run_simulation arguments); the slowest first.
LEGS = {"opg": ("opg", {"theta": 0.0}), "belady": ("belady", {})}

PROFILED = ("sim", "cache", "core", "disk", "power", "builtins")
#: The speed probe's loop: this workload is block-cache simulation.
PROBE_LOOP = LruLoop


def build_trace(ctx: Context, tracer=NO_TRACE):
    with tracer.span("traces.generate_synthetic"):
        return generate_synthetic_trace_columnar(
            SyntheticTraceConfig(
                num_requests=REQUESTS, num_disks=DISKS, seed=ctx.seed
            )
        )


def run_leg(trace, leg: str, tracer=NO_TRACE):
    policy, extra = LEGS[leg]
    with tracer.span(f"sim.{leg}"):
        return run_simulation(
            trace, policy, num_disks=DISKS, cache_blocks=CACHE_BLOCKS, **extra
        )


def run_pair(outcome: Outcome, trace, tracer=NO_TRACE) -> dict[str, Timed]:
    """Both legs once, each checked; returns each leg's timing."""
    timings = {}
    for leg in LEGS:
        with Timed() as timings[leg]:
            result = run_leg(trace, leg, tracer)
        record_result(outcome, leg, result, len(trace))
    return timings


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    setups = []
    for _ in range(SETUP_REPEATS):
        with Timed() as timing:
            trace = build_trace(ctx)
        setups.append(timing.seconds)
    pairs = []
    started = time.perf_counter()
    while not pairs or time.perf_counter() - started < ctx.seconds:
        pairs.append(run_pair(outcome, trace))
    check_digests(outcome, "offline", expected_key(ctx))
    totals = [sum(t.seconds for t in pair.values()) for pair in pairs]
    outcome.metric("setup_s", median(setups), "s")
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
    requests = len(pairs) * len(LEGS) * len(trace)
    outcome.metric("rate_per_s", requests / sum(totals), "1/s")
    outcome.metric("result_s", median(totals), "s")
    outcome.metric("tail_ms", median(p["opg"].seconds for p in pairs) * 1e3, "ms")
    return outcome


def trace(ctx: Context, tracer) -> Outcome:
    """Traced legs, an untraced pair for the span overhead, a profiled pair."""
    outcome = Outcome()
    trace = build_trace(ctx, tracer)
    outcome.metric(
        "traces.generate_s.offline", tracer.seconds("traces.generate_synthetic"), "s"
    )
    bare = sum(t.wall for t in run_pair(outcome, trace).values())
    spanned = sum(t.wall for t in run_pair(outcome, trace, tracer).values())
    check_digests(outcome, "offline", expected_key(ctx))
    for leg in LEGS:
        outcome.metric(f"sim.{leg}_s", tracer.seconds(f"sim.{leg}"), "s")
    outcome.metric("trace.span_overhead_ratio", spanned / bare, "ratio")

    results = {}

    def legs() -> None:
        for leg in LEGS:
            results[leg] = run_leg(trace, leg)

    profiled, folded = profile(legs)
    for leg, result in results.items():
        record_result(outcome, leg, result, len(trace))
        model_metrics(outcome, leg, result)
    outcome.metric("trace.profile_overhead_ratio", profiled / bare, "ratio")
    for package in PROFILED:
        outcome.metric(f"self_s.offline.{package}", folded.get(package, 0.0), "s")
    outcome.profiles["offline"] = folded
    return outcome


def expected_key(ctx: Context) -> str:
    return f"seed={ctx.seed}"
