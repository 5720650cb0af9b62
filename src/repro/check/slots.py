"""Slots-hygiene checker.

Classes instantiated inside the simulation hot loop allocate millions
of times per run; without ``__slots__`` each instance also drags a
per-object ``__dict__`` (PR 3's profile showed this dominating
allocation volume). Any class constructed inside a *hot function* must
therefore declare ``__slots__`` (directly or via
``@dataclass(slots=True)``).

Hot functions are the per-request call chain, named in
:data:`DEFAULT_HOT_FUNCTIONS`; additional functions can be marked in
source with a ``# repro: hot`` comment on their ``def`` line.
Exception classes are exempt — raising is already the slow path.
Simple local aliases (``block_state = BlockState``) are followed, since
the hot loops hoist class lookups into locals.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.base import Checker, register
from repro.check.finding import Finding
from repro.check.project import ModuleInfo, Project

#: The per-request call chain: engine loops, the cache access path,
#: the disk submit paths, policy hooks, and DPM idle accounting.
DEFAULT_HOT_FUNCTIONS = frozenset(
    {
        "_run_columnar",
        "_run_columnar_fast",
        "_step",
        "handle_request",
        "access",
        "admit",
        "_make_room",
        "submit",
        "submit_quick",
        "on_access",
        "on_insert",
        "on_write",
        "on_evicted",
        "evict",
        "process_idle",
        "account_idle",
        "account_into",
    }
)


def _is_hot(node: ast.FunctionDef, module: ModuleInfo) -> bool:
    if node.name in DEFAULT_HOT_FUNCTIONS:
        return True
    return node.lineno in module.hot_lines


def _local_class_aliases(
    node: ast.FunctionDef, project: Project
) -> dict[str, str]:
    """``alias = ClassName`` bindings inside the function body."""
    aliases: dict[str, str] = {}
    for stmt in ast.walk(node):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        value = stmt.value
        if (
            isinstance(target, ast.Name)
            and isinstance(value, (ast.Name, ast.Attribute))
        ):
            name = value.id if isinstance(value, ast.Name) else value.attr
            if project.classes_named(name):
                aliases[target.id] = name
    return aliases


@register
class SlotsChecker(Checker):
    rule = "slots"
    description = (
        "classes instantiated in hot-loop functions must declare "
        "__slots__"
    )
    guidance = (
        "Add __slots__ (or @dataclass(slots=True)) to classes "
        "instantiated inside hot-loop functions — per-instance dicts "
        "dominate allocation cost at millions of requests."
    )
    example = (
        "engine.py:120:15: error[slots] hot function 'serve_request' "
        "instantiates Loose, which has no __slots__"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not _is_hot(node, module):
                continue
            yield from self._check_function(module, project, node)

    def _check_function(
        self, module: ModuleInfo, project: Project, func: ast.FunctionDef
    ) -> Iterator[Finding]:
        aliases = _local_class_aliases(func, project)
        reported: set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Name):
                name = aliases.get(node.func.id, node.func.id)
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name is None or name in reported:
                continue
            infos = project.classes_named(name)
            if not infos:
                continue
            info = infos[0]
            if info.has_slots or project.is_exception(info):
                continue
            if any(
                base in ("Enum", "IntEnum", "StrEnum", "NamedTuple")
                for base in info.base_names
            ):
                continue
            reported.add(name)
            yield self.finding(
                module,
                node,
                f"{name} ({info.module.relpath}:{info.line}) is "
                f"instantiated in hot function {func.name!r} but does "
                "not declare __slots__; add __slots__ or "
                "@dataclass(slots=True) to keep hot-loop allocations "
                "dict-free",
            )
