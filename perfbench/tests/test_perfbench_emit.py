"""emit -> import_trace keeps the request count, order and disk count."""

from repro.traces import (
    OLTPTraceConfig,
    generate_oltp_trace_columnar,
    import_trace,
)

from perfbench.emit import emit_blktrace


def _trace():
    return generate_oltp_trace_columnar(OLTPTraceConfig(duration_s=600.0, seed=5))


def test_round_trip_keeps_count_order_and_disks(tmp_path):
    generated = _trace()
    path = tmp_path / "t.blktrace"
    lines = emit_blktrace(generated, path, seed=3)
    imported, summary = import_trace(path, fmt="blktrace")

    assert len(imported) == len(generated) == summary.requests
    assert lines == 2 * len(generated) + 10
    # Order: the same block sequence, times rebased to the first request.
    assert list(imported.blocks) == list(generated.blocks)
    assert list(imported.nblocks) == list(generated.nblocks)
    assert list(imported.is_write) == list(generated.is_write)
    t0 = float(generated.times[0])
    for got, want in zip(imported.times, generated.times):
        assert abs(got - (want - t0)) < 1e-6
    assert summary.num_disks == len(set(generated.disks))
    # Disk ids are compacted in first-seen order: a consistent relabelling.
    mapping = {}
    for new, old in zip(imported.disks, generated.disks):
        assert mapping.setdefault(int(old), int(new)) == int(new)


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    generated = _trace()
    paths = [tmp_path / f"{name}.blktrace" for name in ("a", "b", "c")]
    emit_blktrace(generated, paths[0], seed=3)
    emit_blktrace(generated, paths[1], seed=3)
    emit_blktrace(generated, paths[2], seed=4)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    # The seed changes only the decoration, never the imported trace.
    first, _ = import_trace(paths[0], fmt="blktrace")
    other, _ = import_trace(paths[2], fmt="blktrace")
    assert list(first.blocks) == list(other.blocks)
    assert list(first.times) == list(other.times)
