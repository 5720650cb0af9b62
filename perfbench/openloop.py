"""Load clients for the ``serve`` workload.

Both clients speak the daemon's line protocol (``REQ`` in; ``OK``,
``RETRY`` or ``ERR`` back) over one TCP connection, with request ids
that are the request's index in the stream.

- :func:`open_loop` sends request ``i`` at its due time
  ``start + i / rate`` whatever the daemon is doing, and times each
  request from that due time to its ``OK``. A daemon stall therefore
  counts against every request that fell due during it, not only the
  one in flight. The sender also records its own lateness (send time
  minus due time), so a generator that cannot keep up shows instead of
  quietly offering less load.
- :func:`closed_window` keeps a fixed number of requests outstanding
  and measures how many the daemon acknowledges per second.

Neither client retries: in a benchmark, a ``RETRY`` or ``ERR`` is a
failed request.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

#: Flush the socket at least this often while sending.
DRAIN_EVERY = 256


@dataclass
class LoopReport:
    """What one client saw."""

    requests: int
    ok: int = 0
    retry: int = 0
    err: int = 0
    #: Clock reading when the client began, and seconds until it ended.
    started: float = 0.0
    elapsed_s: float = 0.0
    #: Due time (open loop) or send time (closed window) to ``OK``.
    latencies_s: list[float] = field(default_factory=list)
    #: Open loop only: send time minus due time, per request sent.
    lateness_s: list[float] = field(default_factory=list)
    #: Clock reading at each answer, in arrival order.
    answered_at: list[float] = field(default_factory=list)
    #: Clock reading at each ``OK``, one per entry of ``latencies_s``.
    ok_at: list[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Requests refused, rejected, or never answered."""
        return self.requests - self.ok

    def stretch_rates(self, size: int, seconds=None) -> list[float]:
        """Answers per second over each run of ``size`` consecutive answers.

        ``seconds(start, end)`` measures each stretch; by default its
        length on the client's clock.
        """
        rates = []
        start = self.started
        for end in range(size, len(self.answered_at) + 1, size):
            stop = self.answered_at[end - 1]
            span = seconds(start, stop) if seconds else stop - start
            rates.append(size / span)
            start = stop
        return rates

    def answer(self, verb: bytes, latency_s: float, now: float) -> None:
        self.answered_at.append(now)
        if verb == b"OK":
            self.ok += 1
            self.latencies_s.append(latency_s)
            self.ok_at.append(now)
        elif verb == b"RETRY":
            self.retry += 1
        else:
            self.err += 1


class DueSchedule:
    """Due times of an open-loop stream: request ``i`` at ``start + i / rate``."""

    def __init__(self, start: float, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.start = start
        self.rate = rate

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def due_by(self, now: float) -> int:
        """How many requests are due at ``now`` (indices below the result)."""
        if now < self.start:
            return 0
        count = int((now - self.start) * self.rate) + 1
        # Guard the float division against landing one off either way.
        while count > 0 and self.due(count - 1) > now:
            count -= 1
        while self.due(count) <= now:
            count += 1
        return count


def _index_and_verb(raw: bytes) -> tuple[int, bytes]:
    parts = raw.split(None, 2)
    return int(parts[1]), parts[0]


async def open_loop(
    reader,
    writer,
    lines: list[bytes],
    rate: float,
    *,
    clock=time.monotonic,
    sleep=asyncio.sleep,
) -> LoopReport:
    """Send ``lines`` at ``rate`` per second on a fixed schedule.

    ``lines[i]`` must carry request id ``i``. ``clock`` and ``sleep``
    are injectable so the due-time accounting can be tested against a
    fake clock.
    """
    report = LoopReport(requests=len(lines))
    schedule = DueSchedule(clock(), rate)

    async def send() -> None:
        sent = 0
        since_drain = 0
        while sent < len(lines):
            now = clock()
            due = min(schedule.due_by(now), len(lines))
            if due <= sent:
                await sleep(schedule.due(sent) - now)
                continue
            writer.write(b"".join(lines[sent:due]))
            for index in range(sent, due):
                report.lateness_s.append(now - schedule.due(index))
            since_drain += due - sent
            sent = due
            if since_drain >= DRAIN_EVERY:
                await writer.drain()
                since_drain = 0
        await writer.drain()

    async def receive() -> None:
        for _ in range(len(lines)):
            raw = await reader.readline()
            if not raw:
                return
            now = clock()
            index, verb = _index_and_verb(raw)
            report.answer(verb, now - schedule.due(index), now)

    report.started = clock()
    await asyncio.gather(send(), receive())
    report.elapsed_s = clock() - report.started
    return report


async def closed_window(
    reader,
    writer,
    lines: list[bytes],
    window: int,
    *,
    clock=time.monotonic,
) -> LoopReport:
    """Keep ``window`` requests outstanding until all ``lines`` are answered."""
    report = LoopReport(requests=len(lines))
    sent_at = [0.0] * len(lines)
    report.started = clock()
    sent = min(window, len(lines))
    for index in range(sent):
        sent_at[index] = report.started
    writer.write(b"".join(lines[:sent]))
    await writer.drain()
    since_drain = 0
    for _ in range(len(lines)):
        raw = await reader.readline()
        if not raw:
            break
        now = clock()
        index, verb = _index_and_verb(raw)
        report.answer(verb, now - sent_at[index], now)
        if sent < len(lines):
            sent_at[sent] = now
            writer.write(lines[sent])
            sent += 1
            since_drain += 1
            if since_drain >= DRAIN_EVERY:
                await writer.drain()
                since_drain = 0
    report.elapsed_s = clock() - report.started
    return report
