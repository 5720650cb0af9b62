"""Columnar fast path vs legacy request loop: bit-identical results.

The engine's columnar loop (and the fused ``submit_quick`` /
``account_idle`` paths beneath it) must reproduce the legacy
object-per-request loop exactly — not approximately. These tests run
the three golden configurations through both representations and
compare the fully serialized results, so any float that drifts by one
ulp fails the suite.
"""

import json
import random

import pytest

from repro.sim.runner import build_session, run_simulation
from repro.sim.session import ordered_batches
from repro.traces.columnar import ColumnarTrace
from repro.traces.record import IORequest
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace,
    generate_synthetic_trace_columnar,
)

TRACE_CONFIG = SyntheticTraceConfig(
    num_requests=4000, num_disks=5, seed=97, write_ratio=0.25
)

GOLDEN_RUNS = {
    "lru": {"policy": "lru"},
    "pa-lru": {"policy": "pa-lru", "pa_epoch_s": 120.0},
    "opg-theta0": {"policy": "opg", "theta": 0.0},
}

COMMON_KWARGS = {"num_disks": 5, "cache_blocks": 256, "dpm": "practical"}


def _serialized(trace, **kwargs):
    kwargs = {**COMMON_KWARGS, **kwargs}
    policy = kwargs.pop("policy")
    result = run_simulation(trace, policy, **kwargs)
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def traces():
    legacy = generate_synthetic_trace(TRACE_CONFIG)
    columnar = generate_synthetic_trace_columnar(TRACE_CONFIG)
    return legacy, columnar


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_config_byte_identical(traces, name):
    legacy, columnar = traces
    kwargs = GOLDEN_RUNS[name]
    assert _serialized(legacy, **kwargs) == _serialized(columnar, **kwargs)


@pytest.mark.parametrize("dpm", ["always_on", "oracle", "practical", "adaptive"])
def test_dpm_schemes_byte_identical(traces, dpm):
    legacy, columnar = traces
    assert _serialized(legacy, policy="lru", dpm=dpm) == _serialized(
        columnar, policy="lru", dpm=dpm
    )


@pytest.mark.parametrize(
    "write_policy", ["write-back", "write-through", "wbeu"]
)
def test_write_policies_byte_identical(traces, write_policy):
    legacy, columnar = traces
    assert _serialized(
        legacy, policy="lru", write_policy=write_policy
    ) == _serialized(columnar, policy="lru", write_policy=write_policy)


def test_from_requests_matches_generator(traces):
    """Converting the legacy trace gives the same results as generating
    the columns directly."""
    legacy, _ = traces
    converted = ColumnarTrace.from_requests(legacy)
    assert _serialized(legacy, policy="lru") == _serialized(
        converted, policy="lru"
    )


def test_traced_columnar_loop_matches_fast_loop(traces):
    """With an event probe attached every columnar request takes the
    generic step; the simulated numbers must not depend on which path
    ran."""
    _, columnar = traces
    with_probe = _serialized(columnar, policy="lru", trace_events=True)
    without = _serialized(columnar, policy="lru")
    a = json.loads(with_probe)
    b = json.loads(without)
    # the probe adds its own summary section; the simulated numbers
    # must be unaffected by which loop ran
    a.pop("trace_metrics", None)
    b.pop("trace_metrics", None)
    assert a == b


def _multi_block_requests():
    """Mixed 1-8 block reads and writes over a small, reused block range,
    with occasional long gaps so disks spin down between bursts."""
    rng = random.Random(2024)
    time = 0.0
    requests = []
    for _ in range(1500):
        time += rng.choice((0.01, 0.05, 0.2, 0.2, 1.0, 40.0))
        requests.append(
            IORequest(
                time=time,
                disk=rng.randrange(4),
                block=rng.randrange(300),
                nblocks=rng.randint(1, 8),
                is_write=rng.random() < 0.3,
            )
        )
    return requests


MULTI_BLOCK_RUNS = [
    (policy, write_policy, 0)
    for policy in ("lru", "arc", "pa-lru")
    for write_policy in ("write-back", "wtdu")
] + [("lru", "write-back", 2), ("pa-lru", "wtdu", 2)]


@pytest.mark.parametrize("policy, write_policy, prefetch_depth", MULTI_BLOCK_RUNS)
def test_multi_block_requests_identical_on_every_path(
    policy, write_policy, prefetch_depth
):
    """Multi-block requests reach the generic step from the list loop,
    the probe-free fast loop, the probe-attached loop and ``feed``; all
    four must serialize to the same bytes."""
    requests = _multi_block_requests()
    columnar = ColumnarTrace.from_requests(requests)
    kwargs = {
        "num_disks": 4,
        "cache_blocks": 96,
        "dpm": "practical",
        "write_policy": write_policy,
        "prefetch_depth": prefetch_depth,
        "pa_epoch_s": 60.0,
    }

    def serialized(result):
        doc = result.to_dict()
        doc.pop("trace_metrics", None)
        return json.dumps(doc, sort_keys=True)

    as_list = serialized(run_simulation(requests, policy, **kwargs))
    fast = serialized(run_simulation(columnar, policy, **kwargs))
    traced = serialized(
        run_simulation(columnar, policy, trace_events=True, **kwargs)
    )
    session = build_session(policy=policy, **kwargs)
    for batch in ordered_batches(requests, 7):
        session.feed(batch)
    fed = serialized(session.finalize())
    assert as_list == fast == traced == fed
