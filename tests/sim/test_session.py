"""The incremental session: differential bit-identity and lifecycle.

The load-bearing guarantees:

* driving the engine through ``SimulationSession.feed`` produces a
  result **bit-identical** to the batch path (``run_simulation``),
  which itself is pinned to the pre-refactor numbers by the golden
  fixture — so the batch → session re-expression changed nothing;
* restoring a checkpoint taken at *any* request boundary and replaying
  the remaining stream is bit-identical to the uninterrupted run (the
  property the serve daemon's checkpoint/restore relies on).
"""

import json
import re

import pytest

from repro import run_simulation
from repro.errors import ConfigurationError, SimulationError, TraceError
from repro.sim import build_session, restore_session
from repro.sim.session import SessionCheckpoint, ordered_batches
from repro.faults.scenarios import spread_crash_points
from repro.traces.record import IORequest

from tests.integration.golden_spec import (
    COMMON_KWARGS,
    FIXTURE_PATH,
    GOLDEN_RUNS,
    TRACE_CONFIG,
)
from repro.traces.synthetic import generate_synthetic_trace


@pytest.fixture(scope="module")
def golden_trace():
    return generate_synthetic_trace(TRACE_CONFIG)


def _session_kwargs(name):
    kwargs = {**COMMON_KWARGS, **GOLDEN_RUNS[name]}
    kwargs["cache_blocks"] = kwargs.pop("cache_blocks", 256)
    return kwargs


def _result_doc(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestFeedMatchesBatch:
    """feed() ≡ run_simulation ≡ the pre-refactor golden numbers."""

    @pytest.mark.parametrize("name", ["lru", "pa-lru"])
    @pytest.mark.parametrize("batch_size", [1, 7, 500])
    def test_bit_identical_to_batch(self, golden_trace, name, batch_size):
        kwargs = _session_kwargs(name)
        policy = kwargs.pop("policy")
        batch_result = run_simulation(golden_trace, policy, **kwargs)

        session = build_session(policy=policy, **kwargs)
        for batch in ordered_batches(golden_trace, batch_size):
            session.feed(batch)
        fed_result = session.finalize()

        assert _result_doc(fed_result) == _result_doc(batch_result)

    @pytest.mark.parametrize("name", list(GOLDEN_RUNS))
    def test_batch_path_still_matches_golden_fixture(
        self, golden_trace, name
    ):
        """The re-expressed batch path reproduces the pinned numbers."""
        pinned = json.loads(FIXTURE_PATH.read_text())[name]
        kwargs = _session_kwargs(name)
        policy = kwargs.pop("policy")
        result = run_simulation(golden_trace, policy, **kwargs)
        assert result.total_energy_j == pinned["total_energy_j"]
        assert result.cache_hits == pinned["cache_hits"]
        assert result.spinups == pinned["spinups"]
        assert result.response.mean_s == pinned["mean_response_s"]

    def test_run_batch_equals_run_simulation_for_offline(self, golden_trace):
        kwargs = _session_kwargs("opg-theta0")
        policy = kwargs.pop("policy")
        batch_result = run_simulation(golden_trace, policy, **kwargs)
        session = build_session(golden_trace, policy, **kwargs)
        result = session.run_batch()
        assert _result_doc(result) == _result_doc(batch_result)

    def test_offline_policy_rejects_feed(self, golden_trace):
        kwargs = _session_kwargs("opg-theta0")
        policy = kwargs.pop("policy")
        session = build_session(golden_trace, policy, **kwargs)
        with pytest.raises(ConfigurationError, match="whole trace"):
            session.feed(golden_trace[:2])


class TestCheckpointRestoreProperty:
    """Satellite: restore at any boundary ≡ the uninterrupted run."""

    @pytest.mark.parametrize("name", ["lru", "pa-lru"])
    def test_restore_is_bit_identical_everywhere(self, golden_trace, name):
        trace = golden_trace[:1200]
        kwargs = _session_kwargs(name)
        policy = kwargs.pop("policy")

        unbroken = build_session(policy=policy, **kwargs)
        unbroken.feed(trace)
        expected = _result_doc(unbroken.finalize())

        for cut in spread_crash_points(len(trace), count=5):
            original = build_session(
                policy=policy, record_requests=True, **kwargs
            )
            original.feed(trace[:cut])
            checkpoint = original.checkpoint()

            # Round-trip through JSON like the daemon's checkpoint file.
            checkpoint = SessionCheckpoint.from_dict(
                json.loads(json.dumps(checkpoint.to_dict()))
            )
            restored = restore_session(checkpoint)
            assert restored.served == cut
            restored.feed(trace[cut:])
            assert _result_doc(restored.finalize()) == expected, (
                f"divergence restoring at request {cut}"
            )

    def test_restored_session_can_checkpoint_again(self, golden_trace):
        trace = golden_trace[:100]
        session = build_session(
            policy="lru", record_requests=True, **_session_kwargs_common()
        )
        session.feed(trace[:40])
        restored = restore_session(session.checkpoint())
        restored.feed(trace[40:70])
        second = restored.checkpoint()
        assert second.served == 70
        again = restore_session(second)
        again.feed(trace[70:])
        full = build_session(policy="lru", **_session_kwargs_common())
        full.feed(trace)
        assert _result_doc(again.finalize()) == _result_doc(full.finalize())


def _session_kwargs_common():
    return {"num_disks": 5, "cache_blocks": 256, "dpm": "practical"}


class TestSessionLifecycle:
    def _requests(self, times):
        return [
            IORequest(time=t, disk=0, block=i, nblocks=1, is_write=False)
            for i, t in enumerate(times)
        ]

    def _session(self, **overrides):
        kwargs = {**_session_kwargs_common(), **overrides}
        return build_session(policy="lru", **kwargs)

    def test_feed_enforces_time_order_across_batches(self):
        session = self._session()
        session.feed(self._requests([1.0, 2.0]))
        with pytest.raises(TraceError, match="behind the session watermark"):
            session.feed(self._requests([1.5]))

    def test_advance_to_cannot_go_backwards(self):
        session = self._session()
        session.advance_to(10.0)
        with pytest.raises(TraceError, match="behind the watermark"):
            session.advance_to(5.0)
        with pytest.raises(TraceError):
            session.feed(self._requests([9.0]))

    def test_advance_raises_the_finalize_horizon(self):
        session = self._session()
        session.feed(self._requests([1.0]))
        session.advance_to(5000.0)
        result = session.finalize()
        assert result.duration_s == 5000.0

    def test_finalize_is_terminal(self):
        session = self._session()
        session.feed(self._requests([1.0]))
        session.finalize()
        assert session.finalized
        with pytest.raises(SimulationError, match="already finalized"):
            session.feed(self._requests([2.0]))
        with pytest.raises(SimulationError):
            session.finalize()

    def test_run_batch_refuses_a_fed_session(self):
        session = self._session()
        session.feed(self._requests([1.0]))
        with pytest.raises(SimulationError, match="already been fed"):
            session.run_batch()

    def test_checkpoint_needs_recording(self):
        session = self._session()
        with pytest.raises(ConfigurationError, match="record_requests"):
            session.checkpoint()

    def test_checkpoint_needs_rebuild_params(self):
        from repro.sim.config import SimulationConfig

        session = build_session(
            policy="lru",
            record_requests=True,
            config=SimulationConfig(
                num_disks=2, cache_capacity_blocks=64, dpm="practical"
            ),
            num_disks=2,
            cache_blocks=64,
        )
        with pytest.raises(ConfigurationError, match="rebuild"):
            session.checkpoint()

    def test_ordered_batches_covers_everything_in_order(self):
        reqs = self._requests([float(i) for i in range(10)])
        batches = list(ordered_batches(reqs, 3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert [r for b in batches for r in b] == reqs
        with pytest.raises(ConfigurationError):
            list(ordered_batches(reqs, 0))


class TestAddressValidation:
    """A request for a disk or block the array lacks is refused up front.

    The engine alone would fail only after the cache had admitted the
    block (a read) or when a dirty block is flushed much later (a
    write); ``feed`` must refuse the whole batch before touching state.
    """

    def _session(self):
        return build_session(
            policy="lru",
            record_requests=True,
            num_disks=4,
            cache_blocks=8,
            dpm="practical",
        )

    def _clean(self):
        return [
            IORequest(
                time=float(i), disk=i % 4, block=10 + i, is_write=i % 3 == 0
            )
            for i in range(30)
        ]

    @pytest.mark.parametrize(
        "bad, message",
        [
            (IORequest(time=5.0, disk=99, block=1), "disk 99"),
            (IORequest(time=5.0, disk=9, block=1, is_write=True), "disk 9"),
        ],
    )
    def test_out_of_range_disk(self, bad, message):
        session = self._session()
        expected = f"{message} out of range [0, 4)"
        with pytest.raises(TraceError, match=f"^{re.escape(expected)}$"):
            session.feed([bad])
        assert session.served == 0
        assert session.simulator.cache.stats.accesses == 0

    def test_block_beyond_capacity(self):
        session = self._session()
        capacity = session.simulator.array[2].geometry.num_blocks
        message = f"block {capacity}+1 beyond disk 2 capacity {capacity}"
        with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
            session.feed([IORequest(time=1.0, disk=2, block=capacity)])
        # a multi-block request straddling the end is refused too, and
        # one ending exactly at the end is served
        message = f"block {capacity - 2}+3 beyond disk 2"
        with pytest.raises(TraceError, match=re.escape(message)):
            session.feed(
                [IORequest(time=1.0, disk=2, block=capacity - 2, nblocks=3)]
            )
        session.feed(
            [IORequest(time=1.0, disk=2, block=capacity - 2, nblocks=2)]
        )
        assert session.served == 1

    def test_rejected_batch_leaves_the_session_untouched(self):
        clean = self._clean()
        reference = self._session()
        reference.feed(clean)
        expected = _result_doc(reference.finalize())

        session = self._session()
        session.feed(clean[:10])
        poisoned = clean[10:15] + [IORequest(time=14.0, disk=7, block=3)]
        with pytest.raises(TraceError, match="disk 7 out of range"):
            session.feed(poisoned)
        assert session.served == 10
        assert session.checkpoint().served == 10
        session.feed(clean[10:])
        assert _result_doc(session.finalize()) == expected
