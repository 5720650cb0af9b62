"""Incremental simulation sessions.

:class:`SimulationSession` is the stepping API the online service mode
(:mod:`repro.serve`) and the batch path share: requests are *fed* in
time-ordered batches, simulated time can be *advanced* across request
gaps, the accumulated state can be *checkpointed*, and *finalize*
produces the same :class:`~repro.sim.results.SimulationResult` a batch
run returns. ``run_simulation`` is re-expressed on top of a session
(see :func:`repro.sim.runner.build_session`), and the differential
tests in ``tests/sim/test_session.py`` pin the two drive styles —
``feed()`` request by request versus the batch fast path — to
bit-identical results.

Checkpointing is **replay-based**, the same ground truth the crash
harness (:mod:`repro.faults.harness`) relies on: the simulator is a
deterministic function of (parameters, request sequence), so a
checkpoint is the rebuild parameters plus the exact stamped requests
fed so far. Restoring replays that prefix through a fresh session,
after which the restored session is state-identical to the original —
continuing it with the same requests yields bit-identical results.
This trades restore time for zero serialization coupling: no policy,
cache, or DPM internals ever need to be pickled, and every future
policy is checkpointable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cache.policies.base import OfflinePolicy
from repro.errors import ConfigurationError, SimulationError, TraceError
from repro.sim.engine import StorageSimulator
from repro.sim.results import SimulationResult
from repro.traces.record import IORequest


@dataclass(frozen=True, slots=True)
class SessionCheckpoint:
    """Everything needed to rebuild a session at a request boundary.

    ``params`` are the :func:`~repro.sim.runner.build_session` keyword
    arguments; ``requests`` is the full stamped request prefix fed
    before the checkpoint; ``watermark`` is the simulated-time floor
    the session had advanced to.
    """

    params: dict
    requests: tuple[IORequest, ...]
    watermark: float

    @property
    def served(self) -> int:
        return len(self.requests)

    def to_dict(self) -> dict:
        """JSON-safe form (the serve layer's checkpoint file body)."""
        return {
            "params": dict(self.params),
            "watermark": self.watermark,
            "served": self.served,
            "requests": [
                [r.time, r.disk, r.block, r.nblocks, int(r.is_write)]
                for r in self.requests
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionCheckpoint":
        return cls(
            params=dict(data["params"]),
            watermark=float(data["watermark"]),
            requests=tuple(
                IORequest(
                    time=float(t),
                    disk=int(disk),
                    block=int(block),
                    nblocks=int(nblocks),
                    is_write=bool(is_write),
                )
                for t, disk, block, nblocks, is_write in data["requests"]
            ),
        )


class SimulationSession:
    """Drive one simulation incrementally.

    Args:
        simulator: A fresh :class:`~repro.sim.engine.StorageSimulator`.
            For :meth:`run_batch` it must have been constructed with
            the trace; for :meth:`feed`-driven sessions it is built
            with an empty trace.
        rebuild_params: The :func:`~repro.sim.runner.build_session`
            keyword arguments that produced ``simulator``; required for
            :meth:`checkpoint` (a checkpoint must be able to rebuild).
        record_requests: Keep every fed request in memory so
            :meth:`checkpoint` can emit the replay prefix. Costs one
            tuple per request; leave off for plain batch runs.
    """

    def __init__(
        self,
        simulator: StorageSimulator,
        *,
        rebuild_params: dict | None = None,
        record_requests: bool = False,
    ) -> None:
        self.simulator = simulator
        self.rebuild_params = rebuild_params
        self.record_requests = record_requests
        self._log: list[IORequest] = []
        self._watermark = 0.0
        self._last_request_time = 0.0
        self._served = 0
        self._finalized = False
        self.result: SimulationResult | None = None

    # -- introspection ----------------------------------------------------

    @property
    def served(self) -> int:
        """Requests fed (and responded to) so far."""
        return self._served

    @property
    def now(self) -> float:
        """The session's simulated-time floor (last feed/advance)."""
        return self._watermark

    @property
    def last_request_time(self) -> float:
        return self._last_request_time

    @property
    def finalized(self) -> bool:
        return self._finalized

    # -- stepping ---------------------------------------------------------

    def feed(self, batch: Iterable[IORequest]) -> list[float]:
        """Serve a time-ordered batch; returns per-request latencies.

        Request times must be non-decreasing across *all* feeds and
        :meth:`advance_to` calls — the engine's trace-order contract,
        enforced here because live batches arrive piecewise — and every
        request must pass :meth:`check_request`. The whole batch is
        validated before any of it is served, so a rejected batch
        leaves the session untouched.
        """
        self._check_open()
        if isinstance(self.simulator.policy, OfflinePolicy):
            raise ConfigurationError(
                f"offline policy {self.simulator.policy.name!r} needs the "
                "whole trace up front and cannot be fed incrementally; "
                "use run_batch() or an online policy"
            )
        batch = list(batch)
        check = self.check_request
        watermark = self._watermark
        for req in batch:
            if req.time < watermark:
                raise TraceError(
                    f"request at t={req.time} arrived behind the session "
                    f"watermark {watermark}; feeds must be time-ordered"
                )
            watermark = req.time
            check(req.disk, req.block, req.nblocks)
        handle = self.simulator.handle_request
        responses = [handle(req) for req in batch]
        if self.record_requests:
            self._log.extend(batch)
        self._served += len(responses)
        if responses:
            self._last_request_time = watermark
        self._watermark = watermark
        return responses

    def check_request(self, disk: int, block: int, nblocks: int = 1) -> None:
        """Reject a request for a disk or block the array does not have.

        Raises :class:`TraceError` with the diagnostic the serve daemon
        answers as ``ERR``. The engine would otherwise fail only after
        the cache had admitted the block (a read) or when the dirty
        block is flushed much later (a write).
        """
        array = self.simulator.array
        if not 0 <= disk < len(array):
            raise TraceError(f"disk {disk} out of range [0, {len(array)})")
        capacity = array[disk].geometry.num_blocks
        if block + nblocks > capacity:
            raise TraceError(
                f"block {block}+{nblocks} beyond disk {disk} "
                f"capacity {capacity}"
            )

    def advance_to(self, time_s: float) -> None:
        """Raise the simulated-time floor without serving requests.

        The engine reconstructs idle gaps lazily (disks account their
        idle residency when next touched or at finalize), so advancing
        costs nothing now; it constrains future feeds to ``time_s`` or
        later and raises the default :meth:`finalize` horizon.
        """
        self._check_open()
        if time_s < self._watermark:
            raise TraceError(
                f"cannot advance to t={time_s}, behind the watermark "
                f"{self._watermark}"
            )
        self._watermark = time_s

    def checkpoint(self) -> SessionCheckpoint:
        """Snapshot the session at the current request boundary."""
        self._check_open()
        if not self.record_requests:
            raise ConfigurationError(
                "checkpointing needs record_requests=True at session "
                "construction (the checkpoint is a replay prefix)"
            )
        if self.rebuild_params is None:
            raise ConfigurationError(
                "this session has no rebuild parameters (it was built "
                "around a custom SimulationConfig or simulator); "
                "checkpoints must be able to rebuild the session"
            )
        return SessionCheckpoint(
            params=dict(self.rebuild_params),
            requests=tuple(self._log),
            watermark=self._watermark,
        )

    # -- completion -------------------------------------------------------

    def finalize(self, end_time: float | None = None) -> SimulationResult:
        """Wind the array down and build the report (once).

        Without ``end_time`` the run ends at the batch path's horizon —
        last request time plus the configured trace tail — or at the
        :meth:`advance_to` watermark if that is later.
        """
        self._check_open()
        if end_time is None:
            tail = self.simulator.config.trace_tail_s
            end_time = max(self._watermark, self._last_request_time + tail)
        self._finalized = True
        self.result = self.simulator.finish(end_time)
        return self.result

    def run_batch(self) -> SimulationResult:
        """The batch path: run the constructor trace end to end.

        Delegates to :meth:`StorageSimulator.run` — offline-policy
        preparation, the columnar fast loop, and the trace-tail horizon
        all behave exactly as they always have; the session only owns
        the lifecycle. Mutually exclusive with :meth:`feed`.
        """
        self._check_open()
        if self._served:
            raise SimulationError(
                "run_batch() on a session that has already been fed; "
                "finish the incremental run with finalize()"
            )
        trace = self.simulator.trace
        self._finalized = True
        self._served = len(trace)
        if len(trace):
            self._last_request_time = trace[-1].time
            self._watermark = self._last_request_time
        self.result = self.simulator.run()
        return self.result

    def _check_open(self) -> None:
        if self._finalized:
            raise SimulationError("session already finalized")


def replay_checkpoint(
    checkpoint: SessionCheckpoint,
    build,
    *,
    probe=None,
) -> SimulationSession:
    """Rebuild a session from a checkpoint by replaying its prefix.

    ``build`` is the session factory (normally
    :func:`repro.sim.runner.build_session`; injected to keep this
    module import-light). The returned session has served exactly the
    checkpointed requests and carries the checkpointed watermark, so
    feeding it the post-checkpoint request stream continues
    bit-identically to the uninterrupted run.
    """
    params = dict(checkpoint.params)
    session: SimulationSession = build(
        probe=probe, record_requests=True, **params
    )
    if checkpoint.requests:
        session.feed(checkpoint.requests)
    if checkpoint.watermark > session.now:
        session.advance_to(checkpoint.watermark)
    return session


def ordered_batches(
    requests: Sequence[IORequest], batch_size: int
) -> Iterable[Sequence[IORequest]]:
    """Split a trace into feed-sized batches (test/loadgen helper)."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, len(requests), batch_size):
        yield requests[start : start + batch_size]
