"""Project-level call graph on top of the :class:`Project` AST index.

Resolution is deliberately conservative — reprolint has no import
machinery, so edges are added only where a name-based match is
unambiguous:

* a bare-``Name`` call resolves to a same-module function first, then
  to a project-unique function of that name;
* ``self.m()`` resolves within the enclosing class and its (name-
  resolved) ancestors;
* ``ClassName(...)`` resolves to ``ClassName.__init__``;
* ``ClassName.m(...)`` resolves to that method.

Any other attribute call (``obj.close()``, ``trace.share()`` on a
value of unknown class) stays *unresolved*: a missing edge makes the
async-safety pack miss a transitive chain (a documented false-negative
class), while a wrong edge would make it hallucinate one.

Executor dispatch is labelled, not followed: ``asyncio.to_thread(f)``
and ``loop.run_in_executor(ex, f)`` produce edges with
``via_executor=True`` so reachability analyses that care about the
*calling thread* (asyncsafe) can skip them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.check.base import call_name, canonical_call_name, module_aliases
from repro.check.flow.cfg import CFG, build_cfg
from repro.check.project import ModuleInfo, Project

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNC_NODES + (ast.Lambda,)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    name: str
    qualname: str  # "ClassName.method" or plain "function"
    module: ModuleInfo
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    _cfg: CFG | None = field(default=None, repr=False)

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    @property
    def key(self) -> tuple[str, str]:
        return (self.module.relpath, self.qualname)

    @property
    def param_names(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        if self.class_name is not None and names[:1] in (["self"], ["cls"]):
            names = names[1:]
        return names

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.node, self.qualname)
        return self._cfg


@dataclass(slots=True)
class CallEdge:
    """One resolved call site."""

    caller: FunctionInfo
    callee: FunctionInfo
    node: ast.Call
    #: The callee runs on a worker thread (``asyncio.to_thread`` /
    #: ``run_in_executor``), not on the caller's thread.
    via_executor: bool = False


def own_statements(fn: ast.AST) -> list[ast.stmt]:
    """The function's direct body, nested def/class bodies excluded."""
    out: list[ast.stmt] = []
    stack: list[ast.stmt] = list(getattr(fn, "body", []))
    while stack:
        stmt = stack.pop()
        out.append(stmt)
        if isinstance(stmt, _FUNC_NODES + (ast.ClassDef,)):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
    return out


def own_nodes(fn: ast.AST) -> list[ast.AST]:
    """Every AST node in the function body, once each, nested scopes
    (def/class/lambda bodies) excluded."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES + (ast.ClassDef,)):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


class CallGraph:
    """Functions of every project module plus conservative call edges."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: (relpath, qualname) -> FunctionInfo
        self.functions: dict[tuple[str, str], FunctionInfo] = {}
        #: function name -> every FunctionInfo carrying it
        self._by_name: dict[str, list[FunctionInfo]] = {}
        #: (class name, method name) -> FunctionInfo list
        self._methods: dict[tuple[str, str], list[FunctionInfo]] = {}
        #: caller key -> outgoing edges
        self.edges: dict[tuple[str, str], list[CallEdge]] = {}
        for module in project.modules:
            self._index_module(module)
        for info in list(self.functions.values()):
            self.edges[info.key] = list(self._resolve_calls(info))

    # -- indexing ---------------------------------------------------------

    def _index_module(self, module: ModuleInfo) -> None:
        def visit(node: ast.AST, class_name: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _FUNC_NODES):
                    qual = (
                        f"{class_name}.{child.name}"
                        if class_name
                        else child.name
                    )
                    info = FunctionInfo(
                        name=child.name,
                        qualname=qual,
                        module=module,
                        node=child,
                        class_name=class_name,
                    )
                    self.functions[info.key] = info
                    self._by_name.setdefault(child.name, []).append(info)
                    if class_name is not None:
                        self._methods.setdefault(
                            (class_name, child.name), []
                        ).append(info)
                    visit(child, None)  # nested defs are plain functions
                elif isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                elif isinstance(child, (ast.If, ast.Try, ast.With)):
                    visit(child, class_name)

        visit(module.tree, None)

    # -- lookup -----------------------------------------------------------

    def functions_named(self, name: str) -> list[FunctionInfo]:
        return self._by_name.get(name, [])

    def methods_of(self, class_name: str, method: str) -> list[FunctionInfo]:
        """``class_name``'s own or inherited methods called ``method``."""
        found = self._methods.get((class_name, method), [])
        if found:
            return found
        seen = {class_name}
        frontier: list[str] = []
        for cls in self.project.classes_named(class_name):
            frontier.extend(cls.base_names)
        while frontier:
            base = frontier.pop()
            if base in seen:
                continue
            seen.add(base)
            found = self._methods.get((base, method), [])
            if found:
                return found
            for cls in self.project.classes_named(base):
                frontier.extend(cls.base_names)
        return []

    def resolve_call(
        self, call: ast.Call, caller: FunctionInfo
    ) -> list[FunctionInfo]:
        """Candidate callees of one call site (empty when ambiguous)."""
        return self._candidates(call.func, caller)

    def _candidates(
        self, func: ast.expr, caller: FunctionInfo
    ) -> list[FunctionInfo]:
        return self.resolve_expr(func, caller.module, caller.class_name)

    def resolve_expr(
        self,
        func: ast.expr,
        module: ModuleInfo,
        class_name: str | None,
    ) -> list[FunctionInfo]:
        """Candidates of a call-target expression in the given context.

        ``module``/``class_name`` describe where the call site sits
        (``class_name`` is None at module level or in a free function).
        """
        if isinstance(func, ast.Name):
            name = func.id
            # class instantiation -> __init__
            if self.project.classes_named(name):
                return self.methods_of(name, "__init__")
            same_module = [
                f
                for f in self._by_name.get(name, [])
                if f.module is module and f.class_name is None
            ]
            if same_module:
                return same_module
            everywhere = [
                f
                for f in self._by_name.get(name, [])
                if f.class_name is None
            ]
            return everywhere if len(everywhere) == 1 else []
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and class_name is not None
            ):
                return self.methods_of(class_name, func.attr)
            if isinstance(receiver, ast.Name) and self.project.classes_named(
                receiver.id
            ):
                return self.methods_of(receiver.id, func.attr)
        return []

    # -- edges ------------------------------------------------------------

    def _resolve_calls(self, caller: FunctionInfo):
        aliases = module_aliases(caller.module)
        for node in own_nodes(caller.node):
            if not isinstance(node, ast.Call):
                continue
            canonical = canonical_call_name(node.func, aliases)
            executor_arg: ast.expr | None = None
            if canonical == "asyncio.to_thread" and node.args:
                executor_arg = node.args[0]
            elif call_name(node.func) == "run_in_executor" and (
                len(node.args) >= 2
            ):
                executor_arg = node.args[1]
            if executor_arg is not None:
                for callee in self._callable_ref(executor_arg, caller):
                    yield CallEdge(caller, callee, node, via_executor=True)
                continue
            for callee in self._candidates(node.func, caller):
                yield CallEdge(caller, callee, node)

    def _callable_ref(
        self, expr: ast.expr, caller: FunctionInfo
    ) -> list[FunctionInfo]:
        """A function *reference* (not call) passed as an argument."""
        if isinstance(expr, (ast.Name, ast.Attribute)):
            return self._candidates(expr, caller)
        return []

    def callees(self, fn: FunctionInfo) -> list[CallEdge]:
        return self.edges.get(fn.key, [])


def get_call_graph(project: Project) -> CallGraph:
    """The project's call graph, built once and cached on the project."""
    graph = getattr(project, "_call_graph", None)
    if graph is None:
        graph = CallGraph(project)
        project._call_graph = graph  # type: ignore[attr-defined]
    return graph
