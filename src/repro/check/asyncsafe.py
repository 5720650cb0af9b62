"""Async-safety checker: blocking work on the event loop thread.

The serve daemon (:mod:`repro.serve`) is a single-threaded asyncio
program: one blocking call inside a coroutine stalls every connected
client and the ingest feed at once. This pack flags:

* **direct blocking calls** in an ``async def`` body — ``time.sleep``,
  ``subprocess.*``, synchronous file/socket/url I/O, an unbounded
  ``queue.get()``;
* **transitive blocking calls** — an ``async def`` calling a *sync*
  helper that (through any resolved call chain) reaches a blocking
  call. Chains routed through ``asyncio.to_thread`` or
  ``loop.run_in_executor`` are exempt: that is the sanctioned escape
  hatch, the work runs off-thread.
* **``await`` while holding a sync lock** — ``with self._lock:`` plus
  an ``await`` inside the block parks the coroutine while every other
  task that wants the lock deadlocks-by-starvation; use
  ``asyncio.Lock`` and ``async with`` instead.

Resolution uses the conservative project call graph: an attribute call
on an unknown receiver produces no edge, so an unflagged program is
not a proof — but every flag is a real on-thread blocking site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.base import (
    Checker,
    canonical_call_name,
    module_aliases,
    register,
)
from repro.check.finding import Finding
from repro.check.flow.callgraph import (
    FunctionInfo,
    get_call_graph,
    own_nodes,
)
from repro.check.project import ModuleInfo, Project

#: Canonical (alias-resolved) dotted names that block the calling thread.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.wait",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
    }
)

#: Method names that perform synchronous file I/O on any receiver
#: (the ``pathlib.Path`` convenience quartet).
_BLOCKING_METHODS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"}
)


def _blocking_reason(
    node: ast.Call, aliases: dict[str, str]
) -> str | None:
    """Why this call blocks the thread (None if it doesn't)."""
    canonical = canonical_call_name(node.func, aliases)
    if canonical in _BLOCKING_CALLS:
        return f"`{canonical}` blocks the thread"
    if isinstance(node.func, ast.Name) and node.func.id == "open":
        return "`open()` performs synchronous file I/O"
    if isinstance(node.func, ast.Attribute):
        if node.func.attr in _BLOCKING_METHODS:
            return (
                f"`.{node.func.attr}()` performs synchronous file I/O"
            )
        if (
            node.func.attr == "get"
            and not node.args
            and not node.keywords
            and "queue" in _receiver_text(node.func.value).lower()
        ):
            return "unbounded `queue.get()` blocks until an item arrives"
    return None


def _receiver_text(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _lockish(node: ast.expr) -> str | None:
    """The name of a lock-like context expression, if it is one."""
    text = _receiver_text(node)
    if isinstance(node, ast.Call):
        text = _receiver_text(node.func)
    lowered = text.lower()
    if "lock" in lowered or "mutex" in lowered:
        return text
    return None


def _awaits_in(stmts: list[ast.stmt]) -> Iterator[ast.Await]:
    """Await expressions directly in these statements (nested defs and
    nested scopes excluded — their awaits belong to other coroutines)."""
    stack: list[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        if isinstance(node, ast.Await):
            yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class AsyncSafeChecker(Checker):
    """Event-loop blocking detection (see module docstring)."""

    rule = "asyncsafe"
    description = (
        "blocking calls on the event loop thread (direct or via any "
        "resolved sync call chain) and await while holding a sync lock"
    )
    guidance = (
        "Move the blocking work off-thread with `await asyncio.to_thread"
        "(fn, ...)` (or `loop.run_in_executor`), replace `time.sleep` "
        "with `await asyncio.sleep`, and hold `asyncio.Lock` via `async "
        "with` instead of a threading lock across awaits. If the block "
        "is deliberate (e.g. a lockstep checkpoint write), annotate the "
        "call site with `# repro: ignore[asyncsafe]` and a comment "
        "saying why."
    )
    example = (
        "daemon.py:107: error[asyncsafe] `_feed_worker` blocks the "
        "event loop: call chain `_feed_worker -> _maybe_checkpoint -> "
        "save_checkpoint`; `open()` performs synchronous file I/O"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        graph = get_call_graph(project)
        self._graph = graph
        self._memo: dict = getattr(graph, "_asyncsafe_memo", None) or {}
        graph._asyncsafe_memo = self._memo  # type: ignore[attr-defined]
        for info in graph.functions.values():
            if info.module is not module or not info.is_async:
                continue
            yield from self._check_coroutine(module, info)

    def _check_coroutine(
        self, module: ModuleInfo, fn: FunctionInfo
    ) -> Iterator[Finding]:
        aliases = module_aliases(module)
        for node in own_nodes(fn.node):
            if isinstance(node, ast.Call):
                reason = _blocking_reason(node, aliases)
                if reason is not None:
                    yield self.finding(
                        module,
                        node,
                        f"`{fn.qualname}` blocks the event loop: {reason}"
                        "; use asyncio.to_thread / asyncio.sleep",
                    )
                    continue
                yield from self._check_transitive(module, fn, node)
        yield from self._check_lock_await(module, fn)

    def _check_transitive(
        self, module: ModuleInfo, fn: FunctionInfo, call: ast.Call
    ) -> Iterator[Finding]:
        for callee in self._graph.resolve_call(call, fn):
            if callee.is_async:
                continue  # an awaited coroutine reports its own body
            if self._is_executor_edge(fn, call):
                continue
            blocked = self._blocking_info(callee, frozenset())
            if blocked is not None:
                reason, chain = blocked
                path = " -> ".join(
                    [fn.qualname, *[c.qualname for c in chain]]
                )
                yield self.finding(
                    module,
                    call,
                    f"`{fn.qualname}` blocks the event loop: call chain "
                    f"`{path}`; {reason}; wrap the sync call in "
                    "asyncio.to_thread",
                )
                return  # one chain per call site is enough

    def _is_executor_edge(self, fn: FunctionInfo, call: ast.Call) -> bool:
        for edge in self._graph.callees(fn):
            if edge.node is call and edge.via_executor:
                return True
        return False

    def _blocking_info(
        self, fn: FunctionInfo, visiting: frozenset
    ) -> tuple[str, tuple[FunctionInfo, ...]] | None:
        """(reason, chain ending at the blocker) if ``fn`` can block."""
        if fn.key in self._memo:
            return self._memo[fn.key]
        if fn.key in visiting:
            return None  # recursion: break the cycle optimistically
        visiting = visiting | {fn.key}
        aliases = module_aliases(fn.module)
        result = None
        for node in own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            reason = _blocking_reason(node, aliases)
            if reason is not None and not fn.module.is_ignored(
                node.lineno, self.rule
            ):
                result = (reason, (fn,))
                break
        if result is None:
            for edge in self._graph.callees(fn):
                if edge.via_executor or edge.callee.is_async:
                    continue
                if fn.module.is_ignored(edge.node.lineno, self.rule):
                    continue
                deeper = self._blocking_info(edge.callee, visiting)
                if deeper is not None:
                    reason, chain = deeper
                    result = (reason, (fn, *chain))
                    break
        if visiting == frozenset({fn.key}) or result is not None:
            self._memo[fn.key] = result
        return result

    def _check_lock_await(
        self, module: ModuleInfo, fn: FunctionInfo
    ) -> Iterator[Finding]:
        for stmt in own_nodes(fn.node):
            if not isinstance(stmt, ast.With):
                continue
            lock_name = None
            for item in stmt.items:
                lock_name = _lockish(item.context_expr)
                if lock_name is not None:
                    break
            if lock_name is None:
                continue
            for awaited in _awaits_in(stmt.body):
                yield self.finding(
                    module,
                    awaited,
                    f"`{fn.qualname}` awaits while holding sync lock "
                    f"`{lock_name}`: every task needing the lock stalls "
                    "until this coroutine resumes; use asyncio.Lock "
                    "with `async with`",
                )
