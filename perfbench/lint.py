"""``lint``: ``repro check`` over a fixed slice of the source tree.

Each measured pass is one strict :func:`repro.check.run_check` with
``checks/baseline.json`` over :data:`SUBSET`, the way CI runs it. The
slice holds the 29 modules of three packages (the executor's resource
proofs, the daemon's async-safety call chains, the importers' units
flow) and yields no findings; a pass takes about 1.5 s, so a run
reports the median of several. The whole tree does not fit the per-run
budget: ``unitsflow`` alone spends about 90 s on ``sim/engine.py``. The
workload touches no simulation layer.
"""

from __future__ import annotations

import time

from repro.check.base import CHECKERS
from repro.check.baseline import Baseline
from repro.check.project import Project
from repro.check.runner import DEFAULT_BASELINE, run_check

from perfbench.common import (
    ROOT,
    SETUP_REPEATS,
    Context,
    DictLoop,
    Outcome,
    median,
    peak_rss_mb,
    Timed,
)
from perfbench.spans import NO_TRACE

#: The speed probe's loop (see :class:`perfbench.common.LruLoop`).
PROBE_LOOP = DictLoop
SUBSET = ("src/repro/campaign", "src/repro/serve", "src/repro/traces")
#: Peak memory is read after this many passes: the heap grows over the
#: first few, so a peak taken after a time-dependent count would jump.
MIN_PASSES = 2
#: The slice's slowest module: an editor's check-on-save of it is the
#: ``tail_ms`` operation.
ON_SAVE = "src/repro/campaign/executor.py"
#: Check-on-save runs per run; ``tail_ms`` is their median.
ON_SAVE_REPEATS = 9


def source_lines() -> int:
    total = 0
    for entry in SUBSET:
        path = ROOT / entry
        for module in [path] if path.is_file() else sorted(path.rglob("*.py")):
            with open(module, "rb") as fh:
                total += sum(1 for _ in fh)
    return total


def check_pass(outcome: Outcome, paths=SUBSET, select=None, tracer=NO_TRACE) -> Timed:
    """One strict check, returning its timing.

    Any finding or stale baseline entry fails the pass.
    """
    baseline = Baseline.load(ROOT / DEFAULT_BASELINE)
    with Timed() as timing, tracer.span("check.run_check", select=select):
        report = run_check(paths, base=ROOT, baseline=baseline, select=select)
    outcome.check(
        not report.failed(strict=True),
        "lint: " + "; ".join(
            [f.render() for f in report.findings]
            + [f"stale baseline entry {key}" for key in report.stale_baseline]
        ),
    )
    return timing


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    setups = []
    for _ in range(SETUP_REPEATS):
        with Timed() as timing:
            Project(list(SUBSET), base=ROOT)
        setups.append(timing.seconds)
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < ctx.seconds:
        passes.append(check_pass(outcome).seconds)
        if len(passes) == MIN_PASSES:
            peak_mb = peak_rss_mb()
    on_save = [
        check_pass(outcome, [ON_SAVE]).seconds for _ in range(ON_SAVE_REPEATS)
    ]
    outcome.metric("setup_s", median(setups), "s")
    outcome.metric("peak_rss_mb", peak_mb, "MB")
    # Over the median pass, as result_s: a mean over a few passes
    # follows a single slow one.
    outcome.metric("rate_per_s", source_lines() / median(passes), "1/s")
    outcome.metric("result_s", median(passes), "s")
    outcome.metric("tail_ms", median(on_save) * 1e3, "ms")
    return outcome


def trace(ctx: Context, tracer) -> Outcome:
    """Parse time, then each rule on its own over the same slice."""
    outcome = Outcome()
    with tracer.span("check.project"):
        Project(list(SUBSET), base=ROOT)
    outcome.metric("check.parse_s", tracer.seconds("check.project"), "s")
    for rule in sorted(CHECKERS):
        timing = check_pass(outcome, select=[rule], tracer=tracer)
        outcome.metric(f"check.rule_s.{rule}", timing.wall, "s")
    return outcome
