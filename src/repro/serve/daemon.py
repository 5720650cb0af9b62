"""The online service daemon.

A single-threaded asyncio server that drives one
:class:`~repro.sim.session.SimulationSession` in simulated-time
lockstep with wall time:

- a line-oriented TCP listener speaking the :mod:`repro.serve.protocol`
  grammar,
- a minimal HTTP listener (``GET /metrics``, ``GET /healthz``,
  ``POST /ingest``, ``POST /checkpoint``) — hand-rolled request
  parsing, one connection per exchange, nothing beyond the stdlib,
- a feed worker draining the bounded :class:`IngestQueue` into the
  session in stamped batches,
- an idle ticker that raises the session watermark while the queue is
  empty (so disks keep accruing idle time and DPM timeouts fire even
  with no traffic),
- a graceful drain on SIGTERM/SIGINT: new requests are rejected with
  ``RETRY``, the queue is flushed, every accepted request is
  acknowledged, the session is finalized at the deterministic batch
  horizon, and a ``FINAL`` JSON line carries the result digest.

Everything runs on one event loop; the session is only mutated by
synchronous code between awaits, so request boundaries are atomic and
a checkpoint taken from any handler sees a consistent state.

Concurrency note: ``OK`` responses are written straight to the client
transport. A client that stops reading can make its kernel socket
buffer (and asyncio's transport buffer) grow, but the *simulation*
side stays bounded — admission is gated by the ingest queue, which is
the resource the backpressure contract protects.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServeError, TraceError
from repro.observe.bus import EventBus
from repro.observe.events import (
    CheckpointTaken,
    DrainStarted,
    IngestAccepted,
    IngestRejected,
)
from repro.observe.sinks import MetricsSink
from repro.serve.checkpoint import (
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.clock import LockstepClock
from repro.serve.ingest import IngestQueue
from repro.serve.metrics import render_metrics
from repro.serve.protocol import (
    IngestLine,
    format_err,
    format_ok,
    format_retry,
    parse_request_line,
)
from repro.sim.runner import build_session, restore_session

#: Advised backoff while draining (the daemon is going away; clients
#: should fail over rather than hammer the retry loop).
DRAIN_RETRY_AFTER_S = 1.0


@dataclass(slots=True)
class ServeConfig:
    """Daemon knobs (CLI flags map one-to-one)."""

    host: str = "127.0.0.1"
    tcp_port: int = 0
    http_port: int = 0
    time_dilation: float = 1.0
    queue_capacity: int = 4096
    batch_max: int = 256
    tick_interval_s: float = 0.05
    #: Artificial pause after each fed batch — a test-only throttle the
    #: smoke harness uses to provoke backpressure deterministically.
    feed_delay_s: float = 0.0
    checkpoint_dir: str | None = None
    #: Take a checkpoint every N served requests (0 = only on demand).
    checkpoint_every: int = 0
    #: Restore from this checkpoint file before accepting traffic.
    restore_path: str | None = None
    #: Session parameters forwarded to ``build_session`` (ignored when
    #: restoring — the checkpoint carries its own rebuild recipe).
    session_params: dict = field(default_factory=dict)


class ServeDaemon:
    """One live simulation behind a TCP + HTTP front door."""

    def __init__(self, config: ServeConfig, *, out=None) -> None:
        self.config = config
        self._out = out if out is not None else sys.stdout
        self.bus = EventBus()
        self.metrics = MetricsSink()
        self.bus.attach(self.metrics)
        self.replayed = 0
        if config.restore_path is not None:
            cp = load_checkpoint(config.restore_path)
            self.session = restore_session(cp, probe=self.bus)
            self.replayed = cp.served
            base = max(cp.watermark, self.session.now)
        else:
            self.session = build_session(
                probe=self.bus,
                record_requests=True,
                **config.session_params,
            )
            base = 0.0
        self.clock = LockstepClock(config.time_dilation, base=base)
        self.queue = IngestQueue(config.queue_capacity)
        self._draining = False
        self._drain_requested = asyncio.Event()
        self._done = asyncio.Event()
        self._wall_start = time.monotonic()
        self._last_checkpoint_served = self.session.served
        self._tcp_server: asyncio.base_events.Server | None = None
        self._http_server: asyncio.base_events.Server | None = None
        self._feed_task: asyncio.Task | None = None
        self._tick_task: asyncio.Task | None = None
        self._drain_task: asyncio.Task | None = None
        self.result = None
        self.exit_code = 0

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind both listeners, start the workers, print ``READY``."""
        cfg = self.config
        self._tcp_server = await asyncio.start_server(
            self._handle_tcp, cfg.host, cfg.tcp_port
        )
        self._http_server = await asyncio.start_server(
            self._handle_http, cfg.host, cfg.http_port
        )
        self._feed_task = asyncio.ensure_future(self._feed_worker())
        self._feed_task.add_done_callback(self._on_feed_done)
        self._tick_task = asyncio.ensure_future(self._ticker())
        banner = {
            "tcp_port": self._tcp_server.sockets[0].getsockname()[1],
            "http_port": self._http_server.sockets[0].getsockname()[1],
            "label": self.session.simulator.label,
            "replayed": self.replayed,
            "sim_time": self.session.now,
        }
        self._print(f"READY {json.dumps(banner, sort_keys=True)}")

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.request_drain)

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe)."""
        if self._draining:
            return
        self._draining = True
        self.bus(DrainStarted(time=self.clock.now(), pending=len(self.queue)))
        self._drain_requested.set()

    async def wait_closed(self) -> None:
        """Block until the drain has fully completed."""
        await self._done.wait()

    @property
    def tcp_port(self) -> int:
        return self._tcp_server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> int:
        return self._http_server.sockets[0].getsockname()[1]

    # -- ingest (shared by TCP and HTTP) ----------------------------------

    def ingest(self, line: str):
        """Admit one request line.

        Returns ``(response_text, None)`` for an immediate answer
        (``RETRY``/``ERR``/``PONG``) or ``(None, future)`` for an
        accepted request — the future resolves to the ``OK`` line once
        the feed worker has served it.
        """
        stripped = line.strip()
        if not stripped:
            return None, None
        if stripped.upper() == "PING":
            return "PONG", None
        try:
            parsed = parse_request_line(stripped)
        except ServeError as exc:
            req_id = stripped.split()[1] if len(stripped.split()) > 1 else "-"
            return format_err(req_id, str(exc)), None
        try:
            self.session.check_request(
                parsed.disk, parsed.block, parsed.nblocks
            )
        except TraceError as exc:
            return format_err(parsed.req_id, str(exc)), None
        if self._draining:
            return format_retry(parsed.req_id, DRAIN_RETRY_AFTER_S), None
        stamp = self._stamp(parsed)
        if stamp is None:
            return (
                format_err(
                    parsed.req_id,
                    f"explicit time {parsed.time} is behind the stamp "
                    f"watermark {max(self.clock.floor, self.session.now)}",
                ),
                None,
            )
        request = parsed.to_request(stamp)
        future = asyncio.get_running_loop().create_future()
        accepted, after_s = self.queue.offer((request, parsed.req_id, future))
        if not accepted:
            self.bus(
                IngestRejected(
                    time=self.clock.now(),
                    retry_after_s=after_s,
                    queue_depth=len(self.queue),
                )
            )
            return format_retry(parsed.req_id, after_s), None
        self.bus(
            IngestAccepted(
                time=request.time,
                disk=request.disk,
                queue_depth=len(self.queue),
            )
        )
        return None, future

    def _stamp(self, parsed: IngestLine) -> float | None:
        """Stamp an arrival; ``None`` if an explicit time runs backwards."""
        if parsed.time is None:
            return self.clock.stamp(floor=self.session.now)
        floor = max(self.clock.floor, self.session.now)
        if parsed.time < floor:
            return None
        self.clock.ratchet(parsed.time)
        return parsed.time

    # -- workers ----------------------------------------------------------

    async def _feed_worker(self) -> None:
        while True:
            if not len(self.queue):
                if self._draining:
                    break
                await self._wait_for_work()
                continue
            batch = self.queue.take_batch(self.config.batch_max)
            if not batch:
                continue
            t0 = time.monotonic()
            requests = [item[0] for item in batch]
            latencies = self.session.feed(requests)
            self.queue.note_drain(len(batch), time.monotonic() - t0)
            for (request, req_id, future), latency in zip(batch, latencies):
                if not future.done():
                    future.set_result(
                        format_ok(req_id, latency, request.time)
                    )
            # Deliberate synchronous write: the checkpoint must be
            # consistent with the session state *at this batch border*,
            # so the loop holds still while it lands (single-threaded
            # lockstep design; see DESIGN on serve-mode determinism).
            self._maybe_periodic_checkpoint()  # repro: ignore[asyncsafe]
            if self.config.feed_delay_s > 0:
                await asyncio.sleep(self.config.feed_delay_s)
            else:
                # Yield so connection handlers can enqueue/ack between
                # batches even under a saturating ingest stream.
                await asyncio.sleep(0)

    async def _wait_for_work(self) -> None:
        waiters = [
            asyncio.ensure_future(self.queue.wait_for_items()),
            asyncio.ensure_future(self._drain_requested.wait()),
        ]
        try:
            await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for w in waiters:
                w.cancel()

    def _on_feed_done(self, task: asyncio.Task) -> None:
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            if self._draining:
                self._drain_task = asyncio.ensure_future(self._finish_drain())
            return
        # A feed failure is fatal: the engine may be inconsistent.
        self._print(f"FATAL {type(exc).__name__}: {exc}")
        self.exit_code = 1
        self._done.set()

    async def _ticker(self) -> None:
        while not self._draining:
            await asyncio.sleep(self.config.tick_interval_s)
            if self._draining or len(self.queue):
                # Advancing past queued stamps would make their feed
                # run backwards in simulated time; only idle-tick when
                # nothing is waiting.
                continue
            now = self.clock.now()
            if now > self.session.now and not self.session.finalized:
                self.session.advance_to(now)

    async def _finish_drain(self) -> None:
        if self._tick_task is not None:
            self._tick_task.cancel()
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
        if self.config.checkpoint_dir and self.session.served:
            # Deliberate synchronous write: the daemon is draining and
            # no client work races this final checkpoint.
            self._take_checkpoint()  # repro: ignore[asyncsafe]
        # Deterministic horizon: the batch path's end time, independent
        # of how long the daemon idled on wall time — a restored daemon
        # fed the same requests finalizes to a bit-identical result.
        end_time = None
        if self.session.served:
            tail = self.session.simulator.config.trace_tail_s
            end_time = self.session.last_request_time + tail
        self.result = self.session.finalize(end_time)
        final = {
            "served": self.session.served,
            "replayed": self.replayed,
            "accepted": self.queue.accepted_total,
            "rejected": self.queue.rejected_total,
            "label": self.result.label,
            "digest": result_digest(self.result),
            "total_energy_j": self.result.total_energy_j,
        }
        self._print(f"FINAL {json.dumps(final, sort_keys=True)}")
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                await server.wait_closed()
        self._done.set()

    # -- checkpointing ----------------------------------------------------

    def _take_checkpoint(self) -> Path:
        cp = self.session.checkpoint()
        path = checkpoint_path(self.config.checkpoint_dir, cp.served)
        save_checkpoint(cp, path)
        self._last_checkpoint_served = cp.served
        self.bus(
            CheckpointTaken(
                time=self.clock.now(), served=cp.served, path=str(path)
            )
        )
        return path

    def _maybe_periodic_checkpoint(self) -> None:
        every = self.config.checkpoint_every
        if not every or not self.config.checkpoint_dir:
            return
        if self.session.served - self._last_checkpoint_served >= every:
            self._take_checkpoint()

    # -- TCP front door ---------------------------------------------------

    async def _handle_tcp(self, reader, writer) -> None:
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                try:
                    line = raw.decode("ascii")
                except UnicodeDecodeError:
                    writer.write(b"ERR - non-ascii line\n")
                    continue
                text, future = self.ingest(line)
                if text is not None:
                    writer.write(text.encode("ascii") + b"\n")
                elif future is not None:
                    future.add_done_callback(
                        lambda f, w=writer: self._write_ack(w, f)
                    )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    @staticmethod
    def _write_ack(writer, future: asyncio.Future) -> None:
        if future.cancelled():
            return
        try:
            writer.write(future.result().encode("ascii") + b"\n")
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass

    # -- HTTP front door --------------------------------------------------

    async def _handle_http(self, reader, writer) -> None:
        try:
            status, headers, body = await self._http_route(reader)
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            writer.close()
            return
        except ServeError as exc:
            status, headers, body = 400, {}, f"{exc}\n"
        payload = body.encode()
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}"]
        headers.setdefault("Content-Type", "text/plain; charset=utf-8")
        headers["Content-Length"] = str(len(payload))
        headers["Connection"] = "close"
        for key, value in headers.items():
            head.append(f"{key}: {value}")
        writer.write("\r\n".join(head).encode() + b"\r\n\r\n" + payload)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        writer.close()

    async def _http_route(self, reader) -> tuple[int, dict, str]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            raise ServeError(f"malformed request line {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            header = (await reader.readline()).decode("latin-1").strip()
            if not header:
                break
            if header.lower().startswith("content-length:"):
                try:
                    content_length = int(header.split(":", 1)[1])
                except ValueError as exc:
                    raise ServeError("bad Content-Length") from exc
        body = ""
        if content_length:
            body = (await reader.readexactly(content_length)).decode()
        if method == "GET" and target == "/metrics":
            return 200, {}, render_metrics(self.metrics, self._gauges())
        if method == "GET" and target == "/healthz":
            health = {
                "status": "draining" if self._draining else "ok",
                "served": self.session.served,
                "replayed": self.replayed,
                "sim_time": self.session.now,
                "queue_depth": len(self.queue),
            }
            return (
                503 if self._draining else 200,
                {"Content-Type": "application/json"},
                json.dumps(health, sort_keys=True) + "\n",
            )
        if method == "POST" and target == "/ingest":
            return await self._http_ingest(body)
        if method == "POST" and target == "/checkpoint":
            if not self.config.checkpoint_dir:
                return 409, {}, "no --checkpoint-dir configured\n"
            if self._draining:
                return 503, {}, "draining\n"
            # Deliberate synchronous write: POST /checkpoint promises a
            # checkpoint consistent with everything acked before the
            # request; the event loop holds still while it lands.
            path = self._take_checkpoint()  # repro: ignore[asyncsafe]
            doc = {"path": str(path), "served": self.session.served}
            return (
                200,
                {"Content-Type": "application/json"},
                json.dumps(doc, sort_keys=True) + "\n",
            )
        return 404, {}, f"no route {method} {target}\n"

    async def _http_ingest(self, body: str) -> tuple[int, dict, str]:
        futures = []
        for line in body.splitlines():
            if not line.strip():
                continue
            text, future = self.ingest(line)
            if text is not None:
                done: asyncio.Future = (
                    asyncio.get_running_loop().create_future()
                )
                done.set_result(text)
                futures.append(done)
            elif future is not None:
                futures.append(future)
        if futures:
            await asyncio.wait(futures)
        lines = [f.result() for f in futures]
        return 200, {}, "\n".join(lines) + ("\n" if lines else "")

    def _gauges(self) -> dict[str, float]:
        return {
            "sim_time_seconds": self.session.now,
            "served_requests": float(self.session.served),
            "replayed_requests": float(self.replayed),
            "queue_depth": float(len(self.queue)),
            "queue_capacity": float(self.queue.capacity),
            "draining": 1.0 if self._draining else 0.0,
            "time_dilation": self.config.time_dilation,
            "uptime_wall_seconds": time.monotonic() - self._wall_start,
        }

    def _print(self, line: str) -> None:
        print(line, file=self._out, flush=True)


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    503: "Service Unavailable",
}


def result_digest(result) -> str:
    """A canonical sha256 over the full result document.

    Two runs are "bit-identical" exactly when their digests match —
    the equality the restore property test and the serve-smoke job
    assert.
    """
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


async def serve_until_drained(config: ServeConfig, *, out=None) -> ServeDaemon:
    """Run one daemon lifecycle: start, serve, drain, return."""
    # Checkpoint restore in __init__ is a deliberate synchronous read:
    # nothing is served until the state is fully loaded.
    daemon = ServeDaemon(config, out=out)  # repro: ignore[asyncsafe]
    await daemon.start()
    daemon.install_signal_handlers()
    await daemon.wait_closed()
    return daemon
