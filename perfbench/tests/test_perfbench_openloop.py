"""Due-time accounting of the open-loop client, against a fake clock.

The fake daemon answers request ``i`` at ``max(sent, previous answer) +
SERVICE``, except that it is frozen during a stall window, so the test
knows every answer time exactly.
"""

import asyncio

import pytest

from perfbench.openloop import DueSchedule, closed_window, open_loop

START = 100.0
SERVICE = 0.001
#: Fake-clock resolution: answers are observed at most this late.
STEP = 1e-5


class FakeClock:
    def __init__(self, oversleep: float = 0.0) -> None:
        self.now = START
        self.oversleep = oversleep

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        """Advance in small steps, letting the fake daemon answer on time."""
        target = self.now + max(seconds, 0.0) + self.oversleep
        while self.now < target:
            self.now = min(target, self.now + STEP)
            await asyncio.sleep(0)


class FakeDaemon:
    """Reader and writer ends of a daemon with a scripted timeline."""

    def __init__(self, clock, stall=None, verdicts=None) -> None:
        self.clock = clock
        self.stall = stall  # (frozen from, frozen until) in clock time
        self.verdicts = verdicts or {}
        self.pending: list[tuple[float, int]] = []
        self.free_at = 0.0
        self.outstanding = 0
        self.max_outstanding = 0
        self.answered_at: dict[int, float] = {}

    # writer side
    def write(self, data: bytes) -> None:
        for line in data.splitlines():
            index = int(line.split()[1])
            self.pending.append((self.clock(), index))
            self.outstanding += 1
            self.max_outstanding = max(self.max_outstanding, self.outstanding)

    async def drain(self) -> None:
        """Returns without yielding: only the clock's sleeps yield."""

    # reader side
    async def readline(self) -> bytes:
        while not self.pending:
            await asyncio.sleep(0)
        sent, index = self.pending.pop(0)
        begin = max(sent, self.free_at)
        if self.stall and self.stall[0] <= begin < self.stall[1]:
            begin = self.stall[1]
        self.free_at = begin + SERVICE
        # Wait for the answer time while the sender's sleeps move the
        # clock; once nothing moves it, jump straight to the answer.
        while self.clock.now < self.free_at:
            before = self.clock.now
            await asyncio.sleep(0)
            if self.clock.now == before:
                self.clock.now = self.free_at
        self.answered_at[index] = self.free_at
        self.outstanding -= 1
        verb = self.verdicts.get(index, "OK")
        return f"{verb} {index} 0.0 0.0\n".encode()


def _lines(count: int) -> list[bytes]:
    return [f"REQ {i} 0 {i} 1 R t={i}.0\n".encode() for i in range(count)]


def _run(client, daemon, *args, **kwargs):
    return asyncio.run(client(daemon, daemon, *args, **kwargs))


def test_schedule_boundaries():
    schedule = DueSchedule(START, 100.0)
    assert schedule.due_by(START - 1e-9) == 0
    assert schedule.due_by(START) == 1
    assert schedule.due_by(START + 0.01 - 1e-9) == 1
    assert schedule.due_by(START + 0.01) == 2
    assert schedule.due_by(START + 0.5) == 51


def test_latency_counts_from_due_time_through_a_stall():
    clock = FakeClock()
    daemon = FakeDaemon(clock, stall=(START + 0.1, START + 0.3))
    report = _run(
        open_loop, daemon, _lines(50), 100.0, clock=clock, sleep=clock.sleep
    )
    assert report.ok == 50 and report.failed == 0
    assert report.lateness_s == pytest.approx([0.0] * 50, abs=1e-9)
    schedule = DueSchedule(START, 100.0)
    expected = sorted(
        daemon.answered_at[i] - schedule.due(i) for i in range(50)
    )
    assert sorted(report.latencies_s) == pytest.approx(expected, abs=2 * STEP)
    # Request 10 fell due as the stall began and waited all of it;
    # request 15 fell due mid-stall and waited from its due time only.
    assert daemon.answered_at[10] - schedule.due(10) == pytest.approx(0.201)
    assert daemon.answered_at[15] - schedule.due(15) == pytest.approx(0.156)
    assert max(report.latencies_s) == pytest.approx(0.201, abs=2 * STEP)


def test_late_generator_reports_lateness_and_charges_it_to_latency():
    clock = FakeClock(oversleep=0.025)
    daemon = FakeDaemon(clock)
    report = _run(
        open_loop, daemon, _lines(40), 100.0, clock=clock, sleep=clock.sleep
    )
    assert report.ok == 40
    assert max(report.lateness_s) >= 0.025 - 1e-9
    assert min(report.lateness_s) >= 0.0
    # Every latency covers the sender's lateness plus one service time.
    late = sorted(report.lateness_s)
    assert sorted(report.latencies_s)[-1] >= late[-1] + SERVICE - 1e-9
    assert sum(report.latencies_s) >= sum(late) + 40 * SERVICE - 1e-9


def test_retry_and_err_are_failures():
    clock = FakeClock()
    daemon = FakeDaemon(clock, verdicts={3: "RETRY", 7: "ERR"})
    report = _run(
        open_loop, daemon, _lines(10), 100.0, clock=clock, sleep=clock.sleep
    )
    assert (report.ok, report.retry, report.err, report.failed) == (8, 1, 1, 2)
    assert len(report.latencies_s) == 8


def test_closed_window_never_exceeds_its_window():
    clock = FakeClock()
    daemon = FakeDaemon(clock)
    report = _run(closed_window, daemon, _lines(100), 8, clock=clock)
    assert report.ok == 100
    assert daemon.max_outstanding == 8
    assert report.elapsed_s == pytest.approx(100 * SERVICE)
    # One answer per SERVICE: every stretch of 25 answers runs at 1000/s.
    assert report.stretch_rates(25) == pytest.approx([1 / SERVICE] * 4)
