"""Plumbing shared by every workload: paths, timing, memory, results.

The benchmark lives beside the program it measures: ``perfbench/`` sits
at the root of a checkout and imports ``repro`` from ``src/``. Work
files, spans and folded profiles go under :data:`OUT`, which
``.gitignore`` lists.

Host times are reported in *reference seconds*. On a shared 2-core VM
the host's speed flips between a fast and a slow state (about 1.6x
apart) several times a second, so the same simulation can take 0.45 s
or 1.2 s a minute apart. An untraced run therefore pins itself, and
every process it starts, to one core, and a :class:`SpeedProbe` thread
times a short fixed pure-Python loop on that core every 20 ms for the
whole run. Each measured operation's wall time is scaled by the mean
speed the probe saw while the operation ran (:meth:`Scaler.seconds`).
The program under test never runs inside the loop, so a change to the
program moves only the measured side. Workloads then report medians
(or sums) over many scaled operations.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro.serve.daemon import result_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Set-up is repeated this many times per run and reported as a median.
SETUP_REPEATS = 3

#: Seconds between probe samples.
PROBE_PERIOD_S = 0.02
#: An interval holding fewer samples than this borrows the nearest ones.
PROBE_MIN_SAMPLES = 4


def log(message: str) -> None:
    """Progress goes to stderr; stdout's last line is the result."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


@dataclass
class Context:
    """What every workload receives from the command line."""

    seed: int
    seconds: float
    work: Path


@dataclass
class Outcome:
    """One run's verdict and measurements.

    ``attempted``/``failed`` count the workload's operations (campaign
    points, simulations, requests, lint passes). A simulated result
    that does not match its expectation is a failed operation, and any
    failure makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)
    #: Result digests by cell, as ``expected.json`` stores them.
    digests: dict[str, str] = field(default_factory=dict)
    #: Folded cProfile self time per package, by workload (traced runs).
    profiles: dict[str, dict[str, float]] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, problem: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(problem)

    def check(self, condition: bool, problem: str) -> None:
        """Count one checked operation, failed unless ``condition``."""
        if condition:
            self.ok()
        else:
            self.fail(problem)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.metrics.update(other.metrics)
        self.digests.update(other.digests)
        self.profiles.update(other.profiles)

    def document(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


class DictLoop:
    """Probe loop: integer updates of a small dict, all in the L1 cache."""

    #: CPU seconds one call takes on the reference host.
    REF_S = 0.0005

    def __call__(self) -> None:
        table: dict[int, int] = {}
        for i in range(2_500):
            key = i % 977
            table[key] = table.get(key, 0) + i


class LruLoop:
    """Probe loop: LRU touches of an ``OrderedDict`` of about 7.7k keys.

    Its memory traffic resembles a simulated block cache's more than
    :class:`DictLoop`'s does. Over four minutes of back-to-back
    simulations on the reference host, whose raw time drifted 27%,
    this loop's scaled time drifted 2% and :class:`DictLoop`'s 5%; on
    ``repro check`` runs the order was reversed.
    """

    REF_S = 0.00047
    #: Keys touched per call, from a fixed cycle of 8,192 draws.
    TOUCHES = 2_048

    def __init__(self) -> None:
        draws = random.Random(3)
        self._keys = [draws.randrange(60_000) for _ in range(8_192)]
        self._table = OrderedDict((key, None) for key in self._keys)
        self._next = 0

    def __call__(self) -> None:
        keys, table, at = self._keys, self._table, self._next
        for _ in range(self.TOUCHES):
            key = keys[at & 8_191]
            at += 1
            if key in table:
                table.move_to_end(key)
        self._next = at


class Scaler:
    """Converts wall intervals to reference seconds from probe samples."""

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        self.times = [t for t, _ in samples]
        #: Prefix sums of the per-sample speed factors.
        self._sums = [0.0]
        for _, factor in samples:
            self._sums.append(self._sums[-1] + factor)

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor of the samples taken in ``[start, end]``.

        An interval with fewer than :data:`PROBE_MIN_SAMPLES` samples
        widens to the nearest ones on either side.
        """
        count = len(self.times)
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        while hi - lo < PROBE_MIN_SAMPLES and (lo > 0 or hi < count):
            if lo > 0:
                lo -= 1
            if hi < count and hi - lo < PROBE_MIN_SAMPLES:
                hi += 1
        return (self._sums[hi] - self._sums[lo]) / (hi - lo)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        return (end - start) * self.factor(start, end)


class SpeedProbe:
    """Sample the speed of the core the run is pinned to, all run long.

    Every :data:`PROBE_PERIOD_S` a daemon thread calls ``loop``, a
    fixed piece of pure Python that never touches the program, and
    records ``loop.REF_S`` over the call's CPU time. CPU time leaves out
    any wait for the core or the GIL, so a sample reflects only how
    fast the core ran; the loop costs the run about 2.5% of the core,
    the same in every run.
    """

    def __init__(self, loop) -> None:
        self._loop = loop
        #: ``(time.monotonic() at the sample's end, speed factor)``.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="speed-probe", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            started = time.thread_time()
            self._loop()
            cpu_s = time.thread_time() - started
            self.samples.append((time.monotonic(), self._loop.REF_S / cpu_s))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scaler(self) -> Scaler:
        """The samples so far, once there are enough to scale anything."""
        while len(self.samples) < PROBE_MIN_SAMPLES:
            time.sleep(PROBE_PERIOD_S)
        return Scaler(list(self.samples))


#: The running probe of an untraced run; ``None`` in a traced run,
#: whose per-layer times stay in wall seconds.
PROBE: SpeedProbe | None = None


def scaler() -> Scaler | None:
    return PROBE.scaler() if PROBE is not None else None


@contextmanager
def probed(loop):
    """Pin the run to one core and probe that core's speed until exit.

    The cores of a shared VM change speed independently of each other;
    on one core the probe sees the speed the work saw.
    """
    global PROBE
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    PROBE = SpeedProbe(loop)
    PROBE.start()
    try:
        yield
    finally:
        PROBE.stop()
        PROBE = None


class Timed:
    """Time the enclosed block in reference seconds.

    ``wall`` is the block's wall time and ``seconds`` the same time in
    reference seconds; multiply any other wall time taken inside the
    block (per-point times, a daemon's start-up) by ``scale`` to convert
    it too. Without a probe, ``seconds`` is ``wall``.
    """

    def __enter__(self) -> "Timed":
        # Start every operation from the same heap state, so one
        # operation's garbage is never collected on another's clock.
        gc.collect()
        self._started = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        ended = time.monotonic()
        self.wall = ended - self._started
        scaling = scaler()
        self.scale = scaling.factor(self._started, ended) if scaling else 1.0
        self.seconds = self.wall * self.scale


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, min(len(ordered), round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process and every child it waited for.

    ``ru_maxrss`` is in KiB on Linux; ``RUSAGE_CHILDREN`` reports the
    largest reaped descendant (campaign workers, serve daemons).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024 / 1e6


def load_expected(workload: str, key: str) -> dict | None:
    """Pinned digests of ``workload`` for inputs ``key``, if any."""
    if not EXPECTED_PATH.exists():
        return None
    return json.loads(EXPECTED_PATH.read_text()).get(workload, {}).get(key)


def check_digests(outcome: Outcome, workload: str, key: str) -> None:
    """Compare the run's digests with the pinned ones for ``key``.

    Only the default inputs are pinned; other seeds rely on the
    identities of :func:`result_problems` and on run-to-run agreement.
    """
    expected = load_expected(workload, key)
    if expected is None:
        return
    for cell, digest in sorted(outcome.digests.items()):
        outcome.check(
            expected.get(cell) == digest,
            f"{workload} {cell}: digest {digest[:12]} differs from the "
            f"pinned {str(expected.get(cell))[:12]}",
        )


def energy_identity_holds(result) -> bool:
    """Per-mode, transition and service energy add up to the total."""
    parts = result.log_energy_j
    for disk in result.disks:
        account = disk.account
        parts += (
            sum(account.mode_energy_j.values())
            + account.transition_energy_j
            + account.service_energy_j
        )
    total = result.total_energy_j
    return abs(parts - total) <= 1e-9 * max(1.0, abs(total))


def result_problems(label: str, result, requests: int) -> list[str]:
    """Identities every simulated result must satisfy, for any seed."""
    problems = []
    if result.response.count != requests:
        problems.append(
            f"{label}: served {result.response.count} of {requests} requests"
        )
    if result.cache_hits + result.cache_misses != result.cache_accesses:
        problems.append(
            f"{label}: hits {result.cache_hits} + misses "
            f"{result.cache_misses} != accesses {result.cache_accesses}"
        )
    if not energy_identity_holds(result):
        problems.append(f"{label}: per-mode energies do not sum to the total")
    return problems


def record_result(outcome: Outcome, label: str, result, requests: int) -> None:
    """Check one simulated result: identities, and the same digest as
    any earlier pass of the same cell in this run."""
    problems = result_problems(label, result, requests)
    digest = result_digest(result)
    if outcome.digests.setdefault(label, digest) != digest:
        problems.append(f"{label}: result differs between passes")
    if problems:
        outcome.fail("; ".join(problems))
    else:
        outcome.ok()


def model_metrics(outcome: Outcome, label: str, result) -> None:
    """Exact simulated outcomes that a host-speed change must not move."""
    outcome.metric(f"model.{label}.energy_j", result.total_energy_j, "J")
    outcome.metric(f"model.{label}.hit_ratio", result.hit_ratio, "ratio")
    outcome.metric(f"model.{label}.spinups", result.spinups, "count")
