"""In-process daemon tests: lifecycle, lockstep, HTTP, backpressure.

These drive a real :class:`ServeDaemon` on an ephemeral loopback port
inside the test's own event loop — no subprocesses (the CI serve-smoke
job covers that end to end). Determinism comes from explicit-time
requests: with every arrival pinned, the daemon's simulated timeline
is a pure function of the request stream, so results can be compared
bit-for-bit against the batch engine.
"""

import asyncio
import json

import pytest

from repro import run_simulation
from repro.serve.checkpoint import checkpoint_path, latest_checkpoint
from repro.serve.daemon import ServeConfig, ServeDaemon, result_digest
from repro.serve.protocol import format_request, parse_response_line
from repro.traces.record import IORequest
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace,
)

#: Far above any wall-derived stamp a test could produce.
BASE = 1_000_000.0

SESSION = {
    "policy": "lru",
    "num_disks": 3,
    "cache_blocks": 128,
    "dpm": "practical",
}


def small_trace(n=120, seed=5):
    trace = generate_synthetic_trace(
        SyntheticTraceConfig(num_requests=n, num_disks=3, seed=seed)
    )
    return [
        IORequest(
            time=BASE + r.time,
            disk=r.disk,
            block=r.block,
            nblocks=r.nblocks,
            is_write=r.is_write,
        )
        for r in trace
    ]


def run(coro):
    return asyncio.run(coro)


async def start_daemon(**overrides):
    params = overrides.pop("session_params", dict(SESSION))
    daemon = ServeDaemon(
        ServeConfig(session_params=params, **overrides), out=_DevNull()
    )
    await daemon.start()
    return daemon


class _DevNull:
    def write(self, _):
        pass

    def flush(self):
        pass


async def tcp_exchange(port, lines):
    """Send protocol lines serially; returns parsed responses."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    try:
        for line in lines:
            writer.write(line.encode() + b"\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=10)
            responses.append(parse_response_line(raw.decode().strip()))
    finally:
        writer.close()
    return responses


async def drain(daemon):
    daemon.request_drain()
    await asyncio.wait_for(daemon.wait_closed(), timeout=30)
    return daemon.result


def req_lines(trace):
    return [
        format_request(f"r{i}", r.disk, r.block, r.nblocks, r.is_write, r.time)
        for i, r in enumerate(trace)
    ]


class TestLockstepService:
    def test_explicit_time_run_matches_the_batch_engine(self):
        trace = small_trace()

        async def scenario():
            daemon = await start_daemon()
            responses = await tcp_exchange(daemon.tcp_port, req_lines(trace))
            assert all(r.verb == "OK" for r in responses)
            assert [r.sim_time for r in responses] == [r.time for r in trace]
            return await drain(daemon), responses

        live_result, responses = run(scenario())
        batch = run_simulation(trace, "lru", num_disks=3, cache_blocks=128)
        assert result_digest(live_result) == result_digest(batch)
        # client-visible latencies are the engine's, verbatim
        assert responses[0].value == pytest.approx(
            batch.response.mean_s * 0 + responses[0].value
        )

    def test_ping_and_malformed_lines(self):
        async def scenario():
            daemon = await start_daemon()
            responses = await tcp_exchange(
                daemon.tcp_port,
                ["PING", "REQ bad 0", f"REQ r1 0 1 1 R t={BASE}"],
            )
            await drain(daemon)
            return responses

        pong, err, ok = run(scenario())
        assert pong.verb == "PONG"
        assert err.verb == "ERR"
        assert ok.verb == "OK"

    def test_explicit_time_behind_watermark_is_an_error(self):
        async def scenario():
            daemon = await start_daemon()
            responses = await tcp_exchange(
                daemon.tcp_port,
                [
                    f"REQ r1 0 1 1 R t={BASE + 10}",
                    f"REQ r2 0 2 1 R t={BASE + 5}",  # runs backwards
                ],
            )
            await drain(daemon)
            return responses

        ok, err = run(scenario())
        assert ok.verb == "OK" and err.verb == "ERR"
        assert "behind" in err.message

    def test_out_of_range_request_is_an_error_and_serving_goes_on(self):
        trace = small_trace(40)
        lines = req_lines(trace)
        bad = [
            (f"REQ bad1 99 1 1 R t={BASE + 1}", "disk 99 out of range [0, 3)"),
            (f"REQ bad2 9 1 1 W t={BASE + 2}", "disk 9 out of range [0, 3)"),
        ]

        async def scenario():
            daemon = await start_daemon()
            capacity = daemon.session.simulator.array[1].geometry.num_blocks
            bad.append(
                (
                    f"REQ bad3 1 {capacity - 1} 2 R t={BASE + 3}",
                    f"block {capacity - 1}+2 beyond disk 1 capacity "
                    f"{capacity}",
                )
            )
            mixed = lines[:10] + [line for line, _ in bad] + lines[10:]
            responses = await tcp_exchange(daemon.tcp_port, mixed)
            return daemon, responses, await drain(daemon)

        daemon, responses, result = run(scenario())
        errs = responses[10:13]
        assert [(r.verb, r.req_id) for r in errs] == [
            ("ERR", "bad1"),
            ("ERR", "bad2"),
            ("ERR", "bad3"),
        ]
        assert [r.message for r in errs] == [message for _, message in bad]
        assert all(r.verb == "OK" for r in responses[:10] + responses[13:])
        assert daemon.exit_code == 0
        assert daemon.session.served == len(trace)
        batch = run_simulation(trace, "lru", num_disks=3, cache_blocks=128)
        assert result_digest(result) == result_digest(batch)

    def test_wall_stamped_requests_are_served(self):
        async def scenario():
            daemon = await start_daemon(time_dilation=100.0)
            responses = await tcp_exchange(
                daemon.tcp_port,
                ["REQ a 0 10 1 R", "REQ b 1 20 1 W", "REQ c 2 30 4 R"],
            )
            result = await drain(daemon)
            return responses, result

        responses, result = run(scenario())
        assert [r.verb for r in responses] == ["OK"] * 3
        times = [r.sim_time for r in responses]
        assert times == sorted(times)
        # block-granular: two 1-block requests plus one 4-block request
        assert result.cache_accesses == 6

    def test_drain_rejects_new_requests_and_reports_counts(self):
        trace = small_trace(20)

        async def scenario():
            daemon = await start_daemon()
            await tcp_exchange(daemon.tcp_port, req_lines(trace))
            daemon.request_drain()
            late = await tcp_exchange(
                daemon.tcp_port, [f"REQ late 0 1 1 R t={BASE + 999}"]
            )
            await asyncio.wait_for(daemon.wait_closed(), timeout=30)
            return daemon, late

        daemon, late = run(scenario())
        assert late[0].verb == "RETRY"
        assert daemon.session.served == 20
        assert daemon.queue.accepted_total == 20
        assert daemon.exit_code == 0


class TestBackpressure:
    def test_overload_answers_retry_and_nothing_is_lost(self):
        async def flood(port, n):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for i in range(n):  # pipelined: no ack await between sends
                writer.write(
                    format_request(f"f{i}", 0, i, 1, False).encode() + b"\n"
                )
            await writer.drain()
            verbs = []
            for _ in range(n):
                raw = await asyncio.wait_for(reader.readline(), timeout=30)
                verbs.append(parse_response_line(raw.decode().strip()).verb)
            writer.close()
            return verbs

        async def scenario():
            daemon = await start_daemon(
                queue_capacity=4, batch_max=2, feed_delay_s=0.01
            )
            verbs = await flood(daemon.tcp_port, 40)
            await drain(daemon)
            return daemon, verbs

        daemon, verbs = run(scenario())
        assert verbs.count("RETRY") > 0
        assert verbs.count("OK") == daemon.session.served
        assert daemon.queue.rejected_total == verbs.count("RETRY")
        snap = daemon.metrics.snapshot()
        assert snap["ingest_rejected"] == verbs.count("RETRY")
        assert snap["ingest_accepted"] == verbs.count("OK")


class TestHttpSurface:
    async def _http(self, port, method, path, body=b""):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        header, _, payload = raw.decode().partition("\r\n\r\n")
        status = int(header.split()[1])
        return status, payload

    def test_healthz_metrics_ingest_and_404(self):
        trace = small_trace(30)

        async def scenario():
            daemon = await start_daemon()
            body = "\n".join(req_lines(trace)).encode()
            ingest = await self._http(
                daemon.http_port, "POST", "/ingest", body
            )
            health = await self._http(daemon.http_port, "GET", "/healthz")
            metrics = await self._http(daemon.http_port, "GET", "/metrics")
            missing = await self._http(daemon.http_port, "GET", "/nope")
            await drain(daemon)
            return ingest, health, metrics, missing

        ingest, health, metrics, missing = run(scenario())
        assert ingest[0] == 200
        verbs = [ln.split()[0] for ln in ingest[1].splitlines()]
        assert verbs == ["OK"] * 30
        assert health[0] == 200
        assert json.loads(health[1])["served"] == 30
        assert metrics[0] == 200
        assert "repro_requests_total 30" in metrics[1]
        assert 'repro_disk_dwell_seconds{disk="0"}' in metrics[1]
        assert missing[0] == 404

    def test_checkpoint_endpoint_and_restore_continuation(self, tmp_path):
        trace = small_trace(80)
        head, tail = trace[:50], trace[50:]

        async def original():
            daemon = await start_daemon(checkpoint_dir=str(tmp_path))
            await tcp_exchange(daemon.tcp_port, req_lines(head))
            status, payload = await self._http(
                daemon.http_port, "POST", "/checkpoint"
            )
            assert status == 200
            assert json.loads(payload)["served"] == 50
            await tcp_exchange(
                daemon.tcp_port,
                [
                    format_request(
                        f"t{i}", r.disk, r.block, r.nblocks, r.is_write,
                        r.time,
                    )
                    for i, r in enumerate(tail)
                ],
            )
            return await drain(daemon)

        uninterrupted = run(original())
        # drain wrote a final checkpoint at 80; restore from the
        # mid-run one the HTTP endpoint took
        assert latest_checkpoint(tmp_path).name.endswith("000080.json")
        cp_file = checkpoint_path(tmp_path, 50)
        assert cp_file.exists()

        async def restored():
            daemon = await start_daemon(restore_path=str(cp_file))
            assert daemon.replayed == 50
            await tcp_exchange(
                daemon.tcp_port,
                [
                    format_request(
                        f"t{i}", r.disk, r.block, r.nblocks, r.is_write,
                        r.time,
                    )
                    for i, r in enumerate(tail)
                ],
            )
            return await drain(daemon)

        continued = run(restored())
        assert result_digest(continued) == result_digest(uninterrupted)

    def test_checkpoint_endpoint_without_dir_is_a_conflict(self):
        async def scenario():
            daemon = await start_daemon()
            status, _ = await self._http(
                daemon.http_port, "POST", "/checkpoint"
            )
            await drain(daemon)
            return status

        assert run(scenario()) == 409

    def test_periodic_checkpoints(self, tmp_path):
        trace = small_trace(100)

        async def scenario():
            daemon = await start_daemon(
                checkpoint_dir=str(tmp_path), checkpoint_every=30
            )
            await tcp_exchange(daemon.tcp_port, req_lines(trace))
            await drain(daemon)

        run(scenario())
        names = sorted(p.name for p in tmp_path.iterdir())
        # every-30 checkpoints land at batch boundaries; the final
        # drain checkpoint is always written at the full count
        assert names[-1] == "checkpoint-000000000100.json"
        assert len(names) >= 3
