"""The workload registry: untraced runs, the traced run, pinned digests."""

from __future__ import annotations

import importlib
import json

from perfbench.common import EXPECTED_PATH, Context, Outcome, log

#: Workload name -> module, in the order the traced run visits them.
MODULES = {
    "sweep": "perfbench.sweep",
    "offline": "perfbench.offline",
    "serve": "perfbench.serve",
    "lint": "perfbench.lint",
}


def module(name: str):
    return importlib.import_module(MODULES[name])


def run(name: str, ctx: Context) -> Outcome:
    log(f"{name}: seed {ctx.seed}, {ctx.seconds:g} s")
    return module(name).run(ctx)


def run_traced(ctx: Context, tracer) -> Outcome:
    """Every workload's traced legs, so every per-layer metric is measured."""
    outcome = Outcome()
    for name in MODULES:
        log(f"{name}: traced legs, seed {ctx.seed}")
        tracer.workload = name
        with tracer.span(f"workload.{name}"):
            outcome.merge(module(name).trace(ctx, tracer))
    outcome.metric("trace.spans", len(tracer.spans), "count")
    return outcome


def _expected_document() -> dict:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def _save_expected(document: dict) -> None:
    EXPECTED_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def unpin_expected(name: str, ctx: Context) -> None:
    """Drop the pinned digests for these inputs before re-pinning them."""
    document = _expected_document()
    document.get(name, {}).pop(module(name).expected_key(ctx), None)
    _save_expected(document)


def write_expected(name: str, ctx: Context, outcome: Outcome) -> None:
    """Pin ``outcome``'s digests as the expectation for these inputs."""
    if outcome.failed:
        raise SystemExit("perfbench: refusing to pin digests of a failed run")
    document = _expected_document()
    key = module(name).expected_key(ctx)
    document.setdefault(name, {})[key] = dict(sorted(outcome.digests.items()))
    _save_expected(document)
    log(f"pinned {len(outcome.digests)} digests of {name} at {key}")
