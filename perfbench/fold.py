"""Fold cProfile statistics into self time per ``repro`` package.

A ``.pstats`` dump answers "which function", but the question a
layer-by-layer benchmark asks is "which layer". :func:`fold_self_time`
sums each function's self time (cProfile's ``tottime``) into the
``repro.<package>`` that defines it, so one profiled leg becomes a
small table such as ``{"sim": 1.9, "cache": 0.6, "builtins": 0.8}``.

Functions outside ``repro`` fold into two buckets: ``builtins`` for
C functions (cProfile files them under ``~``) and ``other`` for Python
code of the standard library and third-party packages.
"""

from __future__ import annotations

import cProfile
import pstats
import re
import time

#: ``.../repro/<package>/...`` or ``.../repro/<module>.py``.
_REPRO_PATH = re.compile(r"(?:^|[/\\])repro[/\\]([A-Za-z_][A-Za-z0-9_]*)(?:[/\\]|\.py$)")


def package_of(filename: str) -> str:
    """The bucket a profiled function's ``filename`` folds into."""
    if filename == "~":
        return "builtins"
    match = _REPRO_PATH.search(filename)
    if match is None:
        return "other"
    return match.group(1)


def fold_self_time(stats) -> dict[str, float]:
    """Self seconds per package from a ``pstats.Stats``-like object.

    ``stats.stats`` maps ``(filename, line, function)`` to cProfile's
    ``(primitive calls, calls, tottime, cumtime, callers)`` tuple.
    """
    folded: dict[str, float] = {}
    for (filename, _line, _function), row in stats.stats.items():
        bucket = package_of(filename)
        folded[bucket] = folded.get(bucket, 0.0) + row[2]
    return dict(sorted(folded.items()))


def profile(fn) -> tuple[float, dict[str, float]]:
    """Run ``fn`` under cProfile; return its wall time and folded table."""
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - started
    return wall, fold_self_time(pstats.Stats(profiler))
