"""``serve``: a live ``repro serve -p pa-lru`` daemon fed over TCP.

One connection feeds the daemon a write-heavy (50% writes) synthetic
stream whose requests carry explicit simulated times, so the simulated
timeline, and with it the daemon's ``FINAL`` digest, depends only on
the stream. The daemon checkpoints every :data:`CHECKPOINT_EVERY`
requests, as a production daemon would.

1. A closed window of :data:`WINDOW` outstanding requests: ingest
   throughput. It brings the daemon to 30k served requests.
2. An open loop at a fixed :data:`RATE` requests per second, about 30%
   of the daemon's capacity. Latency is timed from each request's due
   time, so the checkpoint stalls count in full. The open loop meets
   the tail of the 30k checkpoint and the whole of those from 32.5k to
   42.5k, one in each stretch of :data:`CHECKPOINT_EVERY` requests. Its
   tail latency is the median over those six stretches of each one's
   p99: one stall's length varies by up to 30% from run to run, and a
   p99 over the whole loop follows its longest stall.

Then the daemon is drained, a daemon is restored from the drain
checkpoint and drained, twice, and the same stream is fed in-process to
a session built with the daemon's own wiring (``EventBus`` plus
``MetricsSink``). All the digests must agree.

A checkpoint stall in the open loop (about 0.4 s) times :data:`RATE`
stays under half of the daemon's 4,096-slot ingest queue, so the
daemon refuses nothing. The benchmark and its daemons share one core
(see :func:`~perfbench.common.probed`).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from repro.observe.bus import EventBus
from repro.observe.sinks import MetricsSink
from repro.serve.checkpoint import checkpoint_path
from repro.serve.daemon import result_digest
from repro.serve.protocol import format_request
from repro.sim.runner import build_session
from repro.traces import IORequest, SyntheticTraceConfig, generate_synthetic_trace_columnar

from perfbench.common import (
    SETUP_REPEATS,
    SRC,
    Context,
    LruLoop,
    Outcome,
    check_digests,
    log,
    median,
    peak_rss_mb,
    percentile,
    scaler,
    Timed,
)
from perfbench.fold import profile
from perfbench.openloop import LoopReport, closed_window, open_loop
from perfbench.spans import NO_TRACE

#: The speed probe's loop: the daemon's work is block-cache simulation.
PROBE_LOOP = LruLoop
POLICY = "pa-lru"
DISKS = 8
CACHE_BLOCKS = 2048
WRITE_RATIO = 0.5
#: Open-loop offered load, requests per second.
RATE = 3000.0
#: Closed-window outstanding requests.
WINDOW = 1024
#: The closed window runs in rounds of this many requests.
WINDOW_REQUESTS = 10_000
#: The daemon's ``--checkpoint-every``.
CHECKPOINT_EVERY = 2_500
#: Restored daemons started per run; ``result_s`` is their median.
RESTORES = 2
#: The daemon feeds in batches of this many requests (its default).
BATCH = 256
#: Explicit times start here, safely above the daemon's clock at start.
TIME_BASE = 1.0
#: Simulated seconds per wall second of the daemon's clock: next to
#: nothing, so only the explicit request times move simulated time.
TIME_DILATION = 1e-9
#: Seconds to wait for a daemon's READY or FINAL line.
DAEMON_TIMEOUT_S = 60.0

PROFILED = ("sim", "cache", "core", "disk", "power", "observe", "builtins")


def phase_sizes(ctx: Context) -> tuple[int, int]:
    """Requests of the closed window and of the open loop.

    The open loop spans half the measured time; the window sends twice
    as many requests, and at least one checkpoint stretch, and goes
    first (see the module docstring).
    """
    open_count = int(RATE * ctx.seconds / 2)
    return max(2 * open_count, CHECKPOINT_EVERY), open_count


def build_stream(ctx: Context, tracer=NO_TRACE) -> list[IORequest]:
    with tracer.span("traces.generate_synthetic"):
        trace = generate_synthetic_trace_columnar(
            SyntheticTraceConfig(
                num_requests=sum(phase_sizes(ctx)),
                num_disks=DISKS,
                write_ratio=WRITE_RATIO,
                seed=ctx.seed,
            )
        )
    return [
        IORequest(
            time=TIME_BASE + req.time,
            disk=req.disk,
            block=req.block,
            nblocks=req.nblocks,
            is_write=req.is_write,
        )
        for req in trace
    ]


def request_lines(requests: list[IORequest]) -> list[bytes]:
    """Protocol lines whose request ids are their index in ``requests``."""
    return [
        (
            format_request(
                str(index), r.disk, r.block, r.nblocks, r.is_write, r.time
            )
            + "\n"
        ).encode("ascii")
        for index, r in enumerate(requests)
    ]


class Daemon:
    """One ``repro serve`` subprocess, from spawn to ``FINAL``."""

    def __init__(self, args: list[str], log_path) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._stderr = open(log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            text=True,
        )
        try:
            self.ready = json.loads(self._line("READY "))
            self.ready_s = time.perf_counter() - started
            # The daemon prints READY just before it installs its SIGTERM
            # handler; an answered request proves the handler is in place.
            self._http("GET", "/healthz")
        except BaseException:
            self.kill()
            raise

    def _line(self, prefix: str) -> str:
        for line in self.proc.stdout:
            if line.startswith(prefix):
                return line[len(prefix):]
            if line.startswith("FATAL"):
                raise RuntimeError(f"daemon failed: {line.strip()}")
        raise RuntimeError(f"daemon exited without a {prefix.strip()} line")

    def _http(self, method: str, path: str) -> dict:
        url = f"http://127.0.0.1:{self.ready['http_port']}{path}"
        data = b"" if method == "POST" else None
        request = urllib.request.Request(url, data=data, method=method)
        with urllib.request.urlopen(request, timeout=DAEMON_TIMEOUT_S) as response:
            return json.loads(response.read())

    def checkpoint(self) -> tuple[float, dict]:
        """``POST /checkpoint``; returns its wall time and response."""
        started = time.perf_counter()
        document = self._http("POST", "/checkpoint")
        return time.perf_counter() - started, document

    def drain(self) -> dict:
        """SIGTERM, then the ``FINAL`` document once the daemon exits."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            final = json.loads(self._line("FINAL "))
            self.proc.stdout.read()
            self.proc.wait(timeout=DAEMON_TIMEOUT_S)
        finally:
            self.kill()
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def start_daemon(ctx: Context) -> Daemon:
    return Daemon(
        [
            "-p", POLICY,
            "--disks", str(DISKS),
            "--cache-blocks", str(CACHE_BLOCKS),
            "--time-dilation", repr(TIME_DILATION),
            "--checkpoint-dir", str(ctx.work / "checkpoints"),
            "--checkpoint-every", str(CHECKPOINT_EVERY),
        ],
        ctx.work / "daemon.log",
    )


async def _phase(port: int, client, lines, *args):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await client(reader, writer, lines, *args)
    finally:
        writer.close()
        await writer.wait_closed()


def reference_session(requests: list[IORequest]):
    """The daemon's session wiring, fed in-process in daemon-sized batches."""
    bus = EventBus()
    bus.attach(MetricsSink())
    session = build_session(
        policy=POLICY,
        num_disks=DISKS,
        cache_blocks=CACHE_BLOCKS,
        probe=bus,
        record_requests=True,
    )
    for start in range(0, len(requests), BATCH):
        session.feed(requests[start:start + BATCH])
    tail = session.simulator.config.trace_tail_s
    return session.finalize(session.last_request_time + tail)


def setup(ctx: Context):
    """Generate the stream and start the daemon, median of several tries."""
    times = []
    for attempt in range(SETUP_REPEATS):
        with Timed() as timing:
            requests = build_stream(ctx)
            daemon = start_daemon(ctx)
        times.append(timing.seconds)
        if attempt < SETUP_REPEATS - 1:
            daemon.drain()
    return median(times), requests, daemon


@dataclass
class Phases:
    """What the metrics need from one daemon's run.

    The first three are in reference units; the reports keep wall times.
    """

    closed_rate: float
    latencies_s: list[float]
    restore_s: float
    windows: list[LoopReport]
    opened: LoopReport
    checkpoints: list[tuple[float, dict]]
    path: Path


def serve_phases(ctx: Context, outcome: Outcome, requests, daemon, tracer=NO_TRACE):
    """Both load phases, drain, restore; returns what the metrics need.

    The closed window runs as windows of :data:`WINDOW_REQUESTS`, and
    its rate is the median over stretches of :data:`CHECKPOINT_EVERY`
    answers, each holding one checkpoint stall. Each stretch, and each
    open-loop latency, is scaled by the probe's speed over its own
    interval.
    """
    closed_count, _open_count = phase_sizes(ctx)
    port = daemon.ready["tcp_port"]
    windows, checkpoints = [], []
    try:
        for start in range(0, closed_count, WINDOW_REQUESTS):
            lines = request_lines(requests[start:min(start + WINDOW_REQUESTS, closed_count)])
            with tracer.span("serve.closed_window"):
                report = asyncio.run(_phase(port, closed_window, lines, WINDOW))
            windows.append(report)
        if tracer is not NO_TRACE:
            checkpoints.append(daemon.checkpoint())
        open_lines = request_lines(requests[closed_count:])
        with tracer.span("serve.open_loop"):
            opened = asyncio.run(_phase(port, open_loop, open_lines, RATE))
        if tracer is not NO_TRACE:
            checkpoints.append(daemon.checkpoint())
        with tracer.span("serve.drain"):
            final = daemon.drain()
    finally:
        daemon.kill()
    scaling = scaler()
    seconds = scaling.seconds if scaling else lambda start, end: end - start
    rates = [
        rate
        for report in windows
        for rate in report.stretch_rates(CHECKPOINT_EVERY, seconds)
    ]
    for phase, report in [("closed window", w) for w in windows] + [("open loop", opened)]:
        outcome.ok(report.ok)
        if report.failed:
            outcome.fail(
                f"serve {phase}: {report.retry} RETRY, {report.err} ERR, "
                f"{report.failed - report.retry - report.err} unanswered",
                report.failed,
            )
    outcome.check(
        final["served"] == len(requests) and final["rejected"] == 0,
        f"serve: FINAL served {final['served']} of {len(requests)}, "
        f"rejected {final['rejected']}",
    )
    outcome.digests["final"] = final["digest"]

    path = checkpoint_path(ctx.work / "checkpoints", final["served"])
    restores = []
    for _ in range(RESTORES):
        with Timed() as timing, tracer.span("serve.restore"):
            restored = Daemon(["--restore", str(path)], ctx.work / "daemon.log")
        with tracer.span("serve.drain_restored"):
            restored_final = restored.drain()
        restores.append(restored.ready_s * timing.scale)
        outcome.check(
            restored.ready["replayed"] == final["served"]
            and restored_final["digest"] == final["digest"],
            "serve: the restored daemon diverged from the original",
        )
    return Phases(
        closed_rate=median(rates),
        latencies_s=[
            seconds(answered - latency, answered)
            for latency, answered in zip(opened.latencies_s, opened.ok_at)
        ],
        restore_s=median(restores),
        windows=windows,
        opened=opened,
        checkpoints=checkpoints,
        path=path,
    )


def check_reference(outcome: Outcome, result) -> None:
    outcome.check(
        result_digest(result) == outcome.digests["final"],
        "serve: FINAL digest differs from the in-process reference",
    )


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    setup_s, requests, daemon = setup(ctx)
    phases = serve_phases(ctx, outcome, requests, daemon)
    check_reference(outcome, reference_session(requests))
    check_digests(outcome, "serve", expected_key(ctx))
    log(
        f"serve: {len(phases.latencies_s)} open-loop samples, wall p99 "
        f"{percentile(phases.opened.latencies_s, 99) * 1e3:.1f} ms"
    )
    outcome.metric("setup_s", setup_s, "s")
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.metric("rate_per_s", phases.closed_rate, "1/s")
    outcome.metric("result_s", phases.restore_s, "s")
    outcome.metric("tail_ms", stretch_p99_s(phases.latencies_s) * 1e3, "ms")
    return outcome


def stretch_p99_s(latencies_s: list[float]) -> float:
    """Median over the open loop's stretches of each stretch's p99."""
    size = min(CHECKPOINT_EVERY, len(latencies_s))
    return median(
        percentile(latencies_s[start:start + size], 99)
        for start in range(0, len(latencies_s) - size + 1, size)
    )


def trace(ctx: Context, tracer) -> Outcome:
    """Traced daemon phases with timed checkpoints, then a profiled feed."""
    outcome = Outcome()
    requests = build_stream(ctx, tracer)
    outcome.metric(
        "traces.generate_s.serve", tracer.seconds("traces.generate_synthetic"), "s"
    )
    with tracer.span("serve.start"):
        daemon = start_daemon(ctx)
    phases = serve_phases(ctx, outcome, requests, daemon, tracer)
    opened = phases.opened
    final_s, _document = phases.checkpoints[-1]
    outcome.metric("serve.checkpoint_s", final_s, "s")
    outcome.metric("serve.checkpoint_mb", phases.path.stat().st_size / 1e6, "MB")
    outcome.metric("serve.p50_ms", percentile(opened.latencies_s, 50) * 1e3, "ms")
    outcome.metric("serve.p999_ms", percentile(opened.latencies_s, 99.9) * 1e3, "ms")
    outcome.metric("serve.samples", len(opened.latencies_s), "count")
    outcome.metric("serve.gen_late_ms", percentile(opened.lateness_s, 99) * 1e3, "ms")
    outcome.metric(
        "serve.refused",
        sum(r.retry + r.err for r in [opened, *phases.windows]),
        "count",
    )

    results = []
    _, folded = profile(lambda: results.append(reference_session(requests)))
    check_reference(outcome, results[0])
    check_digests(outcome, "serve", expected_key(ctx))
    for package in PROFILED:
        outcome.metric(f"self_s.serve.{package}", folded.get(package, 0.0), "s")
    outcome.profiles["serve"] = folded
    return outcome


def expected_key(ctx: Context) -> str:
    return f"seed={ctx.seed},seconds={ctx.seconds:g}"
