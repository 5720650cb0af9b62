"""Event-coverage checker.

The observability layer (:mod:`repro.observe`) is only trustworthy if
the event vocabulary and the emission sites stay in sync:

* every ``probe(...)`` emission must construct a declared
  :class:`~repro.observe.events.Event` subclass — emitting an ad-hoc
  object would silently fall through every typed sink and the
  invariant checker;
* every declared event class must have at least one construction site
  in the scanned tree — an event nobody emits is dead vocabulary that
  consumers may still be waiting for.

Event classes are recognised structurally: any class transitively
subclassing a class named ``Event``. Emission sites are calls whose
target is (or ends in) one of the publishing conventions — the
engine's ``self.probe(...)``/bare ``probe(...)``, the generic
``emit``/``publish``, and the serve daemon's direct-dispatch
``self.bus(...)`` (an :class:`~repro.observe.bus.EventBus` is
callable).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.base import Checker, call_name, register
from repro.check.finding import Finding, Severity
from repro.check.project import ModuleInfo, Project

EVENT_BASE = "Event"

#: Call targets treated as event publishers. ``bus`` covers the serve
#: daemon's direct EventBus dispatch (``self.bus(Event(...))``).
_PROBE_NAMES = frozenset({"probe", "emit", "publish", "bus"})


class _EventSites:
    """The project-wide facts the rule needs, gathered in one pass."""

    def __init__(self, project: Project) -> None:
        #: Declared event classes (transitive ``Event`` subclasses).
        self.classes = project.subclasses_of(EVENT_BASE)
        self.names = {info.name for info in self.classes}
        #: Names of every called target anywhere in the project.
        self.constructed: set[str] = set()
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    name = call_name(node.func)
                    if name is not None:
                        self.constructed.add(name)


def _event_sites(project: Project) -> _EventSites:
    """The project's event index, built once and cached on the project."""
    sites = getattr(project, "_event_sites", None)
    if sites is None:
        sites = _EventSites(project)
        project._event_sites = sites  # type: ignore[attr-defined]
    return sites


@register
class EventCoverageChecker(Checker):
    rule = "events"
    description = (
        "probe() emissions must construct declared Event classes, and "
        "every Event class needs an emission site"
    )
    guidance = (
        "Emit only subclasses of Event through probe()/bus(); if an "
        "Event class is never constructed anywhere, wire up its "
        "emission site or delete the dead declaration."
    )
    example = (
        "engine.py:310:9: error[events] probe() called with "
        "NotAnEvent(...), which is not an Event subclass"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        sites = _event_sites(project)
        if not sites.names:
            return
        yield from self._check_emissions(module, project, sites.names)
        yield from self._check_coverage(module, sites)

    def _check_emissions(
        self, module: ModuleInfo, project: Project, events: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = call_name(node.func)
            if target not in _PROBE_NAMES or not node.args:
                continue
            payload = node.args[0]
            if not isinstance(payload, ast.Call):
                continue  # a pre-built event in a variable — fine
            cls = call_name(payload.func)
            if cls is None or cls in events:
                continue
            infos = project.classes_named(cls)
            if not infos:
                continue  # not a class we can see (factory helper etc.)
            yield self.finding(
                module,
                payload,
                f"{target}() called with {cls}(...), which is not an "
                f"{EVENT_BASE} subclass; typed sinks and the invariant "
                "checker will not see it — define it in "
                "observe/events.py",
            )

    def _check_coverage(
        self, module: ModuleInfo, sites: _EventSites
    ) -> Iterator[Finding]:
        for info in sites.classes:
            if info.module is not module:
                continue  # report at the definition site only
            if info.name not in sites.constructed:
                yield self.finding(
                    module,
                    info.node,
                    f"event class {info.name} is never constructed in "
                    "the scanned tree; either emit it or retire it "
                    "from the vocabulary",
                    severity=Severity.WARNING,
                )
