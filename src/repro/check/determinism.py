"""Determinism checker.

Reproducible traces and cacheable campaign results (the
content-addressed :class:`~repro.campaign.store.ResultStore` keys on
trace fingerprints) require every simulated number to be a pure
function of the inputs and the seed. Three bug classes break that:

* **Unseeded RNG** — module-level ``random.*`` / ``np.random.*`` calls
  draw from hidden global state; ``np.random.default_rng()`` /
  ``random.Random()`` without a seed differ run to run.
* **Wall-clock reads** — ``time.time()`` / ``datetime.now()`` leak real
  time into the run. They are legitimate only in journaling code
  (telemetry timestamps); ``time.perf_counter`` / ``time.monotonic``
  are always fine (used for wall-time *measurement*, never state).
* **Unordered iteration** — iterating a set feeds its arbitrary (hash-
  and-history dependent) order into whatever consumes the loop.
  Reported as a warning: wrap in ``sorted(...)`` or justify with a
  pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.base import Checker, canonical_call_name, module_aliases, register
from repro.check.finding import Finding, Severity
from repro.check.project import ModuleInfo, Project

#: Module-level RNG functions backed by hidden global state.
_RANDOM_FUNCS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: Construction calls that are deterministic only when given a seed.
_SEED_REQUIRED = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
)

#: ``numpy.random`` attributes that are fine to touch without a seed.
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "RandomState", "SeedSequence", "BitGenerator"}
)

_WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns", "time.localtime", "time.ctime",
        "time.gmtime", "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Wall-clock reads are expected in journaling/telemetry modules — a
#: journal's job is to record when things really happened.
_JOURNALING_BASENAMES = frozenset({"journal.py"})

_SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)


def _is_unseeded(node: ast.Call) -> bool:
    """A seeding-capable constructor called with no (or None) seed."""
    if node.args:
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    for kw in node.keywords:
        if kw.arg in ("seed", "x") and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        ):
            return False
    return True


def _iter_targets(node: ast.AST) -> Iterator[ast.expr]:
    """Iteration expressions of for-loops and comprehensions."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.iter
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        for gen in node.generators:
            yield gen.iter


@register
class DeterminismChecker(Checker):
    rule = "determinism"
    description = (
        "unseeded RNG, wall-clock reads outside journaling, and "
        "iteration over unordered sets"
    )
    guidance = (
        "Seed every RNG explicitly (random.Random(seed), "
        "numpy.random.default_rng(seed)), take timestamps from the "
        "simulated clock rather than time.time(), and iterate sets "
        "through sorted() so replays order identically."
    )
    example = (
        "engine.py:42:11: error[determinism] random.random() draws "
        "from the unseeded global RNG"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        aliases = module_aliases(module)
        journaling = module.basename in _JOURNALING_BASENAMES
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, aliases, journaling)
            for it in _iter_targets(node):
                yield from self._check_iteration(module, it)

    def _check_call(
        self,
        module: ModuleInfo,
        node: ast.Call,
        aliases: dict[str, str],
        journaling: bool,
    ) -> Iterator[Finding]:
        name = canonical_call_name(node.func, aliases)
        if name is None:
            return
        if name in _SEED_REQUIRED:
            if _is_unseeded(node):
                yield self.finding(
                    module,
                    node,
                    f"{name}() without a seed is nondeterministic; pass "
                    "an explicit seed so runs are reproducible",
                )
            return
        head, _, func = name.rpartition(".")
        if head == "random" and func in _RANDOM_FUNCS:
            yield self.finding(
                module,
                node,
                f"module-level random.{func}() draws from the hidden "
                "global RNG; use an explicit random.Random(seed)",
            )
        elif head == "numpy.random" and func not in _NP_RANDOM_OK:
            yield self.finding(
                module,
                node,
                f"np.random.{func}() uses the legacy global RNG; use "
                "np.random.default_rng(seed)",
            )
        elif name in _WALL_CLOCK and not journaling:
            yield self.finding(
                module,
                node,
                f"{name}() reads the wall clock outside journaling "
                "code; simulation state must depend only on the trace "
                "(time.perf_counter is fine for measuring wall time)",
            )

    def _check_iteration(
        self, module: ModuleInfo, it: ast.expr
    ) -> Iterator[Finding]:
        flagged = None
        if isinstance(it, ast.Set):
            flagged = "a set literal"
        elif isinstance(it, ast.Call):
            func = it.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                flagged = f"{func.id}(...)"
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
            ):
                flagged = f".{func.attr}(...)"
        if flagged is not None:
            yield self.finding(
                module,
                it,
                f"iterating {flagged} exposes unordered (hash-dependent) "
                "order; wrap in sorted(...) if the order can reach "
                "simulation state",
                severity=Severity.WARNING,
            )
