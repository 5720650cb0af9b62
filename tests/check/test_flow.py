"""Unit tests for the flow substrate: CFG, dataflow solver, call graph."""

import ast
import textwrap

from repro.check.flow import (
    EXC,
    FALSE,
    TRUE,
    Analysis,
    build_cfg,
    get_call_graph,
    join_envs,
    solve,
)
from repro.check.project import Project
from repro.check.unitsflow import UnitsFlowChecker, _UnitEnv

from .conftest import FIXTURES, REPO_ROOT

CHECK_PKG = REPO_ROOT / "src" / "repro" / "check"


def _cfg_of(source, name=None):
    tree = ast.parse(textwrap.dedent(source))
    fn = tree.body[0]
    return build_cfg(fn, name)


def _reachable(cfg, start, kinds=None):
    """Block ids reachable from ``start`` along edges of ``kinds``."""
    seen = set()
    frontier = [start]
    while frontier:
        block = frontier.pop()
        if block.id in seen:
            continue
        seen.add(block.id)
        for succ, kind in block.succs:
            if kinds is None or kind in kinds:
                frontier.append(succ)
    return seen


def _stmt_blocks(cfg, node_type):
    return [b for b in cfg.blocks if isinstance(b.node, node_type)]


class TestCfgShapes:
    def test_straight_line(self):
        cfg = _cfg_of(
            """
            def f():
                a = 1
                b = 2
            """
        )
        reach = _reachable(cfg, cfg.entry)
        assert cfg.exit.id in reach
        assigns = _stmt_blocks(cfg, ast.Assign)
        assert len(assigns) == 2
        # a=1 falls through to b=2
        succ_ids = {s.id for s, k in assigns[0].succs if k == "next"}
        assert assigns[1].id in succ_ids

    def test_every_raising_stmt_has_exc_edge(self):
        cfg = _cfg_of(
            """
            def f(x):
                y = g(x)
                return y
            """
        )
        for block in _stmt_blocks(cfg, (ast.Assign, ast.Return)):
            kinds = {k for _, k in block.succs}
            assert EXC in kinds
            assert cfg.exc_exit.id in {
                s.id for s, k in block.succs if k == EXC
            }

    def test_if_else_joins(self):
        cfg = _cfg_of(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        cond = [b for b in cfg.blocks if b.label == "cond"]
        assert len(cond) == 1
        kinds = {k for _, k in cond[0].succs}
        assert TRUE in kinds and FALSE in kinds
        # both branches reach the return
        ret = _stmt_blocks(cfg, ast.Return)[0]
        assert ret.id in _reachable(cfg, cond[0])

    def test_short_circuit_and(self):
        cfg = _cfg_of(
            """
            def f(a, b):
                if a and b:
                    x = 1
                return x
            """
        )
        conds = [b for b in cfg.blocks if b.label == "cond"]
        assert len(conds) == 2
        by_name = {b.node.id: b for b in conds}
        a_false = [s for s, k in by_name["a"].succs if k == FALSE]
        # a's false edge must NOT pass through b's block
        assert by_name["b"].id not in _reachable(
            cfg, a_false[0], kinds={"next", TRUE, FALSE}
        ) or a_false[0] is not by_name["b"]
        assert by_name["b"].id not in {s.id for s in a_false}
        a_true = [s for s, k in by_name["a"].succs if k == TRUE]
        assert by_name["b"].id in {s.id for s in a_true}

    def test_short_circuit_or_and_not(self):
        cfg = _cfg_of(
            """
            def f(a, b):
                if not a or b:
                    x = 1
                return x
            """
        )
        conds = {b.node.id: b for b in cfg.blocks if b.label == "cond"}
        # "not a": a's TRUE edge goes where the false branch goes (to b)
        a_true = [s for s, k in conds["a"].succs if k == TRUE]
        assert conds["b"].id in {s.id for s in a_true}

    def test_while_back_edge(self):
        cfg = _cfg_of(
            """
            def f(n):
                while n:
                    n = n - 1
                return n
            """
        )
        header = [b for b in cfg.blocks if b.label == "while"][0]
        body = _stmt_blocks(cfg, ast.Assign)[0]
        assert header.id in {s.id for s, k in body.succs if k == "next"}

    def test_for_iterate_and_exhaust(self):
        cfg = _cfg_of(
            """
            def f(xs):
                for x in xs:
                    use(x)
                return 1
            """
        )
        header = [b for b in cfg.blocks if isinstance(b.node, ast.For)][0]
        kinds = {k for _, k in header.succs}
        assert TRUE in kinds and FALSE in kinds and EXC in kinds

    def test_break_exits_loop(self):
        cfg = _cfg_of(
            """
            def f(xs):
                for x in xs:
                    if x:
                        break
                    use(x)
                return 1
            """
        )
        brk = _stmt_blocks(cfg, ast.Break)[0]
        ret = _stmt_blocks(cfg, ast.Return)[0]
        assert ret.id in _reachable(cfg, brk)
        # break jumps past the loop: use(x) is not a break successor
        use = [
            b
            for b in _stmt_blocks(cfg, ast.Expr)
            if isinstance(b.node.value, ast.Call)
        ][0]
        assert use.id not in {s.id for s, _ in brk.succs}

    def test_continue_returns_to_header(self):
        cfg = _cfg_of(
            """
            def f(xs):
                for x in xs:
                    if x:
                        continue
                    use(x)
            """
        )
        cont = _stmt_blocks(cfg, ast.Continue)[0]
        header = [b for b in cfg.blocks if isinstance(b.node, ast.For)][0]
        assert header.id in {s.id for s, _ in cont.succs}

    def test_try_except_routes_exceptions_to_handler(self):
        cfg = _cfg_of(
            """
            def f():
                try:
                    risky()
                except ValueError:
                    handle()
                return 1
            """
        )
        risky = [
            b
            for b in _stmt_blocks(cfg, ast.Expr)
            if b.node.value.func.id == "risky"
        ][0]
        exc_succs = [s for s, k in risky.succs if k == EXC]
        assert exc_succs and exc_succs[0].label == "except-dispatch"
        handler = [
            b for b in cfg.blocks if isinstance(b.node, ast.ExceptHandler)
        ][0]
        assert handler.id in _reachable(cfg, exc_succs[0])
        # unmatched exception keeps unwinding
        dispatch = exc_succs[0]
        assert cfg.exc_exit.id in {s.id for s, k in dispatch.succs if k == EXC}

    def test_catch_all_handler_has_no_unmatched_unwind(self):
        cfg = _cfg_of(
            """
            def f():
                try:
                    risky()
                except BaseException:
                    cleanup()
                    raise
            """
        )
        dispatch = [b for b in cfg.blocks if b.label == "except-dispatch"][0]
        assert EXC not in {k for _, k in dispatch.succs}
        # the re-raise still unwinds, but only after cleanup ran
        cleanup = [
            b
            for b in _stmt_blocks(cfg, ast.Expr)
            if b.node.value.func.id == "cleanup"
        ][0]
        raises = _stmt_blocks(cfg, ast.Raise)[0]
        assert raises.id in _reachable(cfg, cleanup)
        assert cfg.exc_exit.id in {s.id for s, k in raises.succs if k == EXC}

    def test_narrow_handler_keeps_unwinding(self):
        cfg = _cfg_of(
            """
            def f():
                try:
                    risky()
                except ValueError:
                    handle()
            """
        )
        dispatch = [b for b in cfg.blocks if b.label == "except-dispatch"][0]
        assert cfg.exc_exit.id in {s.id for s, k in dispatch.succs if k == EXC}

    def test_finally_on_both_normal_and_exceptional_path(self):
        cfg = _cfg_of(
            """
            def f():
                try:
                    risky()
                finally:
                    cleanup()
            """
        )
        cleanups = [
            b
            for b in _stmt_blocks(cfg, ast.Expr)
            if b.node.value.func.id == "cleanup"
        ]
        # one normal copy + one exceptional copy
        assert len(cleanups) == 2
        risky = [
            b
            for b in _stmt_blocks(cfg, ast.Expr)
            if b.node.value.func.id == "risky"
        ][0]
        exc_target = [s for s, k in risky.succs if k == EXC][0]
        assert exc_target in cleanups
        # the exceptional copy continues unwinding to exc_exit
        assert cfg.exc_exit.id in _reachable(cfg, exc_target)
        # the normal copy reaches the ordinary exit
        normal = [c for c in cleanups if c is not exc_target][0]
        assert cfg.exit.id in _reachable(cfg, normal, kinds={"next"})

    def test_return_runs_finally(self):
        cfg = _cfg_of(
            """
            def f():
                try:
                    return 1
                finally:
                    cleanup()
            """
        )
        ret = _stmt_blocks(cfg, ast.Return)[0]
        next_succs = [s for s, k in ret.succs if k == "next"]
        cleanup_ids = {
            b.id
            for b in _stmt_blocks(cfg, ast.Expr)
            if b.node.value.func.id == "cleanup"
        }
        assert {s.id for s in next_succs} & cleanup_ids
        assert cfg.exit.id in _reachable(cfg, ret, kinds={"next"})

    def test_try_else_runs_only_on_clean_body(self):
        cfg = _cfg_of(
            """
            def f():
                try:
                    risky()
                except ValueError:
                    handle()
                else:
                    celebrate()
            """
        )
        handler = [
            b for b in cfg.blocks if isinstance(b.node, ast.ExceptHandler)
        ][0]
        celebrate = [
            b
            for b in _stmt_blocks(cfg, ast.Expr)
            if b.node.value.func.id == "celebrate"
        ][0]
        assert celebrate.id not in _reachable(cfg, handler)

    def test_with_header_then_body(self):
        cfg = _cfg_of(
            """
            def f():
                with open("x") as fh:
                    fh.read()
            """
        )
        header = [b for b in cfg.blocks if isinstance(b.node, ast.With)][0]
        kinds = {k for _, k in header.succs}
        assert EXC in kinds and "next" in kinds

    def test_nested_def_is_opaque(self):
        cfg = _cfg_of(
            """
            def f():
                def g():
                    inner()
                return g
            """
        )
        # inner() belongs to g's CFG, not f's
        calls = [
            b
            for b in cfg.blocks
            if isinstance(b.node, ast.Expr)
            and isinstance(b.node.value, ast.Call)
        ]
        assert calls == []


class _ConstProp(Analysis):
    """Tiny constant propagation over Assign(Name = Constant | Name)."""

    direction = "forward"

    def boundary(self):
        return {}

    def init(self):
        return {}

    def join(self, a, b):
        return join_envs(a, b, lambda x, y: x if x == y else "?")

    def transfer(self, block, state):
        node = block.node
        if not isinstance(node, ast.Assign):
            return state
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            return state
        out = dict(state)
        if isinstance(node.value, ast.Constant):
            out[target.id] = node.value.value
        elif isinstance(node.value, ast.Name):
            out[target.id] = state.get(node.value.id, "?")
        else:
            out[target.id] = "?"
        return out


class _Liveness(Analysis):
    """Backward live-variable analysis over Assign(Name = expr)."""

    direction = "backward"

    def boundary(self):
        return frozenset()

    def init(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, block, state):
        node = block.node
        if node is None:
            return state
        kill = set()
        gen = set()
        if isinstance(node, ast.Assign) and isinstance(
            node.targets[0], ast.Name
        ):
            kill.add(node.targets[0].id)
            value = node.value
        else:
            value = node
        for sub in ast.walk(value):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                gen.add(sub.id)
        return (state - kill) | gen


class _Counting(Analysis):
    """Wraps an analysis, counting ``transfer`` calls per block id."""

    def __init__(self, inner):
        self.inner = inner
        self.direction = inner.direction
        self.calls = {}

    def boundary(self):
        return self.inner.boundary()

    def init(self):
        return self.inner.init()

    def join(self, a, b):
        return self.inner.join(a, b)

    def transfer(self, block, state):
        self.calls[block.id] = self.calls.get(block.id, 0) + 1
        return self.inner.transfer(block, state)


def _units_analysis(graph, module, class_name):
    """The unitsflow rule's analysis, bound to one function's context."""
    checker = UnitsFlowChecker()
    checker._graph = graph
    checker._module = module
    checker._class_name = class_name
    return _UnitEnv(checker)


def _assert_fixpoint(cfg, analysis):
    """``solve``'s states satisfy the dataflow equations on ``cfg``."""
    ins, outs = solve(cfg, analysis)
    if analysis.direction == "forward":
        before, after = ins, outs
        sources = cfg.preds()
        seeds = {cfg.entry.id}
    else:
        # backward results are reported in program order: the solver's
        # own in-state is the returned out-state and vice versa
        before, after = outs, ins
        sources = {b.id: [s for s, _ in b.succs] for b in cfg.blocks}
        seeds = {cfg.exit.id, cfg.exc_exit.id}
    for block in cfg.blocks:
        states = [after[src.id] for src in sources[block.id]]
        if block.id in seeds:
            states.append(analysis.boundary())
        expected = states[0] if states else analysis.init()
        for state in states[1:]:
            expected = analysis.join(expected, state)
        where = f"{cfg.name} block {block.id}"
        assert analysis.equal(before[block.id], expected), where
        assert analysis.equal(
            after[block.id], analysis.transfer(block, before[block.id])
        ), where


class TestDataflow:
    def test_forward_constant_propagation_joins_at_merge(self):
        cfg = _cfg_of(
            """
            def f(c):
                if c:
                    x = 1
                else:
                    x = 1
                y = x
                if c:
                    z = 1
                else:
                    z = 2
                w = z
            """
        )
        ins, _outs = solve(cfg, _ConstProp())
        final = ins[cfg.exit.id]
        assert final["y"] == 1  # both paths agree
        assert final["w"] == "?"  # paths disagree -> top

    def test_loop_reaches_fixpoint(self):
        cfg = _cfg_of(
            """
            def f(n):
                x = 1
                while n:
                    x = 2
                y = x
            """
        )
        ins, _outs = solve(cfg, _ConstProp())
        assert ins[cfg.exit.id]["y"] == "?"

    def test_backward_liveness(self):
        cfg = _cfg_of(
            """
            def f(a, b):
                x = a
                y = b
                return x
            """
        )
        ins, _outs = solve(cfg, _Liveness())
        live_at_entry = ins[cfg.entry.id]
        assert "a" in live_at_entry
        # b is assigned to y but y is never used -> b could be dead or
        # live depending on precision; x must be dead at entry
        assert "x" not in live_at_entry

    def test_solution_is_a_fixpoint_on_the_corpus(self):
        # every CFG of the fixture corpus and of the checker package,
        # under a forward, a backward and the units-flow analysis
        project = Project([FIXTURES, CHECK_PKG], base=REPO_ROOT)
        graph = get_call_graph(project)
        cfgs = 0
        for module in project.modules:
            units = [
                (info.cfg, info.class_name)
                for info in graph.functions.values()
                if info.module is module
            ]
            units.append((build_cfg(module.tree, "<module>"), None))
            for cfg, class_name in units:
                for analysis in (
                    _ConstProp(),
                    _Liveness(),
                    _units_analysis(graph, module, class_name),
                ):
                    _assert_fixpoint(cfg, analysis)
                cfgs += 1
        assert cfgs > 250

    def test_acyclic_cfg_transfers_each_block_once(self):
        straight = _cfg_of(
            """
            def f(a):
                x = a
                y = x
                return y
            """
        )
        branches = _cfg_of(
            """
            def f(c, d):
                if c and d:
                    x = 1
                elif c:
                    x = 2
                else:
                    x = 3
                y = x
                return y
            """
        )
        for cfg in (straight, branches):
            for inner in (_ConstProp(), _Liveness()):
                counting = _Counting(inner)
                solve(cfg, counting)
                assert counting.calls == {b.id: 1 for b in cfg.blocks}


class TestCallGraph:
    def _project(self, tmp_path, **files):
        for name, source in files.items():
            (tmp_path / f"{name}.py").write_text(textwrap.dedent(source))
        return Project([tmp_path], base=tmp_path)

    def test_bare_name_same_module(self, tmp_path):
        project = self._project(
            tmp_path,
            a="""
            def helper():
                pass

            def caller():
                helper()
            """,
        )
        graph = get_call_graph(project)
        caller = graph.functions_named("caller")[0]
        callees = [e.callee.name for e in graph.callees(caller)]
        assert callees == ["helper"]

    def test_bare_name_unique_cross_module(self, tmp_path):
        project = self._project(
            tmp_path,
            a="""
            def helper():
                pass
            """,
            b="""
            from a import helper

            def caller():
                helper()
            """,
        )
        graph = get_call_graph(project)
        caller = graph.functions_named("caller")[0]
        assert [e.callee.name for e in graph.callees(caller)] == ["helper"]

    def test_ambiguous_name_unresolved(self, tmp_path):
        project = self._project(
            tmp_path,
            a="""
            def helper():
                pass
            """,
            b="""
            def helper():
                pass
            """,
            c="""
            def caller():
                helper()
            """,
        )
        graph = get_call_graph(project)
        caller = graph.functions_named("caller")[0]
        assert graph.callees(caller) == []

    def test_self_method_and_inheritance(self, tmp_path):
        project = self._project(
            tmp_path,
            a="""
            class Base:
                def shared(self):
                    pass

            class Child(Base):
                def go(self):
                    self.shared()
                    self.local()

                def local(self):
                    pass
            """,
        )
        graph = get_call_graph(project)
        go = graph.functions_named("go")[0]
        callees = {e.callee.qualname for e in graph.callees(go)}
        assert callees == {"Base.shared", "Child.local"}

    def test_class_instantiation_resolves_init(self, tmp_path):
        project = self._project(
            tmp_path,
            a="""
            class Widget:
                def __init__(self):
                    pass

            def make():
                return Widget()
            """,
        )
        graph = get_call_graph(project)
        make = graph.functions_named("make")[0]
        assert [e.callee.qualname for e in graph.callees(make)] == [
            "Widget.__init__"
        ]

    def test_classname_dot_method(self, tmp_path):
        project = self._project(
            tmp_path,
            a="""
            class Tools:
                def run(self):
                    pass

            def caller():
                Tools.run(None)
            """,
        )
        graph = get_call_graph(project)
        caller = graph.functions_named("caller")[0]
        assert [e.callee.qualname for e in graph.callees(caller)] == [
            "Tools.run"
        ]

    def test_unknown_attribute_call_unresolved(self, tmp_path):
        project = self._project(
            tmp_path,
            a="""
            class Journal:
                def close(self):
                    pass

            def caller(writer):
                writer.close()
            """,
        )
        graph = get_call_graph(project)
        caller = graph.functions_named("caller")[0]
        assert graph.callees(caller) == []

    def test_to_thread_labelled_executor(self, tmp_path):
        project = self._project(
            tmp_path,
            a="""
            import asyncio

            def work():
                pass

            async def caller():
                await asyncio.to_thread(work)
            """,
        )
        graph = get_call_graph(project)
        caller = graph.functions_named("caller")[0]
        edges = graph.callees(caller)
        assert len(edges) == 1
        assert edges[0].callee.name == "work"
        assert edges[0].via_executor

    def test_run_in_executor_labelled(self, tmp_path):
        project = self._project(
            tmp_path,
            a="""
            def work():
                pass

            async def caller(loop):
                await loop.run_in_executor(None, work)
            """,
        )
        graph = get_call_graph(project)
        caller = graph.functions_named("caller")[0]
        edges = graph.callees(caller)
        assert len(edges) == 1 and edges[0].via_executor

    def test_is_async_and_params(self, tmp_path):
        project = self._project(
            tmp_path,
            a="""
            class S:
                async def handle(self, request, timeout_s):
                    pass
            """,
        )
        graph = get_call_graph(project)
        handle = graph.functions_named("handle")[0]
        assert handle.is_async
        assert handle.param_names == ["request", "timeout_s"]
        assert handle.qualname == "S.handle"

    def test_cached_on_project(self, tmp_path):
        project = self._project(tmp_path, a="x = 1\n")
        assert get_call_graph(project) is get_call_graph(project)
