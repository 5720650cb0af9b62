"""Generic worklist dataflow over :class:`~repro.check.flow.cfg.CFG`.

An :class:`Analysis` packages the lattice (``init``/``join``/``equal``)
and the per-block ``transfer`` function; :func:`solve` iterates to a
fixpoint in either direction. States are opaque to the solver — the
units-flow pack uses ``dict[str, str]`` environments (see
:func:`join_envs`), but sets or tuples work just as well.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generic, TypeVar

from repro.check.flow.cfg import CFG, Block

S = TypeVar("S")


class Analysis(Generic[S]):
    """One dataflow problem: lattice + transfer.

    ``direction`` is ``"forward"`` (states flow entry -> exit along
    edges) or ``"backward"``. ``boundary()`` seeds the entry (forward)
    or the exits (backward); ``init()`` is the lattice bottom, the
    initial state of every other block and of every out-state. ``join``
    must be commutative/associative and monotone with ``transfer`` for
    termination.
    """

    direction: str = "forward"

    def boundary(self) -> S:
        raise NotImplementedError

    def init(self) -> S:
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def transfer(self, block: Block, state: S) -> S:
        raise NotImplementedError

    def equal(self, a: S, b: S) -> bool:
        return a == b


def _flow_order(
    cfg: CFG, seeds: list[Block], targets: dict[int, list[Block]]
) -> list[Block]:
    """Reverse postorder from ``seeds`` along ``targets`` (the flow
    direction), then every block the seeds cannot reach, in id order."""
    seen: set[int] = set()
    post: list[Block] = []
    for seed in seeds:
        if seed.id in seen:
            continue
        seen.add(seed.id)
        stack = [(seed, iter(targets[seed.id]))]
        while stack:
            block, pending = stack[-1]
            for nxt in pending:
                if nxt.id not in seen:
                    seen.add(nxt.id)
                    stack.append((nxt, iter(targets[nxt.id])))
                    break
            else:
                stack.pop()
                post.append(block)
    post.reverse()
    post.extend(b for b in cfg.blocks if b.id not in seen)
    return post


def solve(cfg: CFG, analysis: Analysis[S]) -> tuple[dict[int, S], dict[int, S]]:
    """Run ``analysis`` to its least fixpoint; returns (in-states,
    out-states).

    Keys are block ids. For a backward analysis "in" is still the state
    *entering* the block in program order (i.e. the solver's output
    side), so callers index the maps the same way either direction.

    Every out-state starts at ``init()`` (bottom) and the worklist is a
    priority queue over reverse postorder in the flow direction, each
    block queued at most once: on an acyclic CFG every block is
    transferred exactly once, after all of its sources.
    """
    forward = analysis.direction == "forward"
    preds = cfg.preds()
    succs = {b.id: [succ for succ, _kind in b.succs] for b in cfg.blocks}
    if forward:
        sources, targets = preds, succs
        seeds = [cfg.entry]
    else:
        sources, targets = succs, preds
        seeds = [cfg.exit, cfg.exc_exit]

    ins: dict[int, S] = {b.id: analysis.init() for b in cfg.blocks}
    outs: dict[int, S] = {b.id: analysis.init() for b in cfg.blocks}
    seed_ids = {b.id for b in seeds}
    for block in seeds:
        ins[block.id] = analysis.boundary()

    order = _flow_order(cfg, seeds, targets)
    rank = {block.id: i for i, block in enumerate(order)}
    worklist = list(range(len(order)))  # sorted, hence already a heap
    queued = set(worklist)
    while worklist:
        pos = heapq.heappop(worklist)
        queued.discard(pos)
        block = order[pos]
        if sources[block.id]:
            state = outs[sources[block.id][0].id]
            for src in sources[block.id][1:]:
                state = analysis.join(state, outs[src.id])
            if block.id in seed_ids:
                state = analysis.join(state, analysis.boundary())
            ins[block.id] = state
        new_out = analysis.transfer(block, ins[block.id])
        if not analysis.equal(new_out, outs[block.id]):
            outs[block.id] = new_out
            for target in targets[block.id]:
                nxt = rank[target.id]
                if nxt not in queued:
                    queued.add(nxt)
                    heapq.heappush(worklist, nxt)
    if not forward:
        # report in program order: swap so ins[b] is the state at
        # block entry (the backward-analysis *result* for the block)
        ins, outs = outs, ins
    return ins, outs


def join_envs(
    a: dict[str, Any],
    b: dict[str, Any],
    merge: Callable[[Any, Any], Any],
) -> dict[str, Any]:
    """Pointwise join of two variable environments.

    A key missing from one side keeps the other side's value — i.e.
    "unassigned on that path" is treated as bottom, which is the right
    reading for the optimistic lattices used here.
    """
    if a is b:
        return a
    out = dict(a)
    for key, value in b.items():
        if key in out:
            out[key] = merge(out[key], value)
        else:
            out[key] = value
    return out
