"""Benchmark entry point: one workload per run, result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: ``sweep``, ``offline``, ``serve`` and ``lint`` (see
``perfbench/README.md``). With ``--trace 0`` the run measures the
workload untraced and reports the end-to-end metrics. With
``--trace 1`` it runs the traced legs of every workload, records spans
around each call into the program's layers, folds a cProfile pass per
workload into self time by package, and reports the per-layer metrics;
spans and folded tables are written under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Progress and
any correctness problems go to standard error. A checkout without
``src/repro`` exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Also the keys of ``workloads.MODULES``; listed here because that
#: registry imports the program, which a bare copy of the benchmark lacks.
WORKLOADS = ("sweep", "offline", "serve", "lint")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="pin this run's result digests in perfbench/expected.json "
        "(only for a change meant to alter simulated numbers)",
    )
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker and wait for it to end.

    The campaign ships its trace to workers through shared memory, which
    starts a tracker process that would otherwise outlive the run by a
    moment. Stopping it when no tracker is running does nothing.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro under {ROOT}; run from the root of a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)
    # On SIGTERM, unwind through the workloads' cleanup, which stops the
    # daemons and campaign workers this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from perfbench import common, workloads
    from perfbench.spans import Tracer

    work = common.OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = common.Context(seed=args.seed, seconds=args.seconds, work=work)
    try:
        if args.trace:
            tracer = Tracer()
            outcome = workloads.run_traced(ctx, tracer)
            stem = f"{args.workload}-seed{args.seed}"
            tracer.write(common.OUT / f"spans-{stem}.jsonl")
            tables = {
                "self_s_by_package": outcome.profiles,
                "span_self_s": tracer.self_seconds(),
            }
            (common.OUT / f"profile-{stem}.json").write_text(
                json.dumps(tables, indent=1, sort_keys=True) + "\n"
            )
        else:
            if args.write_expected:
                workloads.unpin_expected(args.workload, ctx)
            with common.probed(workloads.module(args.workload).PROBE_LOOP()):
                outcome = workloads.run(args.workload, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        stop_resource_tracker()
    for problem in outcome.problems:
        common.log(f"FAILED: {problem}")
    if args.write_expected and not args.trace:
        workloads.write_expected(args.workload, ctx, outcome)
    print(json.dumps(outcome.document(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
