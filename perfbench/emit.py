"""Seeded blktrace-text emitter.

Renders a trace as a ``blkparse`` text dump, so the ``sweep`` workload
can feed the program's real importer (:func:`repro.traces.import_trace`)
instead of handing it an in-memory trace. Each request becomes a queue
(``Q``) record followed by a dispatch (``D``) record at the same
timestamp, which the importer must skip; the dump ends with blkparse's
per-CPU summary, where the importer must stop. CPU numbers, process ids
and synchronous-write flags come from a seeded generator, so the same
trace and seed always give the same bytes.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.units import DEFAULT_BLOCK_SIZE, SECTOR_SIZE

#: CPUs the emitted records are spread over.
CPUS = 4

#: Share of writes flagged synchronous (``WS``), as journalling makes.
SYNC_WRITE_SHARE = 0.3

#: Process names a block trace of a database host would show.
PROCESSES = ("postgres", "kworker/u8:2", "jbd2/sda1-8")


def device_of(disk: int) -> str:
    """``major,minor`` of SCSI disk ``disk`` (sd devices step minors by 16)."""
    return f"8,{16 * disk}"


def emit_blktrace(
    trace,
    path: str | Path,
    *,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> int:
    """Write ``trace`` (a ``ColumnarTrace``) to ``path``; return lines written."""
    rng = random.Random(seed)
    sectors = block_size // SECTOR_SIZE
    times, disks, blocks, nblocks, writes = trace.as_lists()
    lines = 0
    with open(path, "w", encoding="ascii") as fh:
        for seq, (time, disk, block, count, is_write) in enumerate(
            zip(times, disks, blocks, nblocks, writes)
        ):
            if is_write:
                rwbs = "WS" if rng.random() < SYNC_WRITE_SHARE else "W"
            else:
                rwbs = "R"
            cpu = rng.randrange(CPUS)
            pid = rng.randrange(300, 32768)
            proc = PROCESSES[rng.randrange(len(PROCESSES))]
            tail = (
                f"{time:.9f} {pid} {{}} {rwbs} {block * sectors} + "
                f"{count * sectors} [{proc}]\n"
            )
            head = f"{device_of(disk)} {cpu} "
            fh.write(head + f"{2 * seq + 1} " + tail.format("Q"))
            fh.write(head + f"{2 * seq + 2} " + tail.format("D"))
            lines += 2
        for cpu in range(CPUS):
            fh.write(f"CPU{cpu} (8,0):\n Reads Queued: 0, 0KiB\n")
            lines += 2
        fh.write("Total (8,0):\n Reads Queued: 0, 0KiB\n")
        lines += 2
    return lines
