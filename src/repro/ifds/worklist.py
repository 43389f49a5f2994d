"""Worklist scheduling for the tabulation solvers.

Both :class:`~repro.ifds.solver.IFDSSolver` and
:class:`~repro.ide.solver.IDESolver` pop ``(d1, n, d2)`` path-edge
entries from one worklist, and both take the order as an argument
(``worklist_order``, with ``order_seed`` for ``random``).  The fixed point
is order-independent; the amount of work is not — the paper observes "a
relatively high variance in the analysis times ... caused by
non-determinism in the order in which the IDE solution is computed"
(Section 6.2).  :func:`make_worklist` is the one place an order becomes a
queue; the solvers only ever call its ``push(entry)`` and ``pop()``.

- ``fifo`` and ``lifo``: a deque, popped from the left or the right;
- ``random``: a deque popped at a seeded random index (swap to the end,
  then pop);
- ``rpo``: a :class:`BucketQueue` ranking each entry's statement in
  per-method reverse post-order (:class:`RPORanker`), so merge points see
  near-final joined functions and re-propagate less.

Each solver names its own order for ``None`` (:data:`IDE_DEFAULT_ORDER`,
:data:`IFDS_DEFAULT_ORDER`).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.ir.icfg import ICFG
from repro.ir.instructions import Instruction
from repro.ir.program import IRMethod

__all__ = [
    "WORKLIST_ORDERS",
    "IDE_DEFAULT_ORDER",
    "IFDS_DEFAULT_ORDER",
    "resolve_worklist_order",
    "make_worklist",
    "BucketQueue",
    "RPORanker",
]

#: The worklist orders.
WORKLIST_ORDERS = ("fifo", "lifo", "random", "rpo")

#: :class:`~repro.ide.solver.IDESolver`'s order for ``None``.  Phase I
#: re-joins a path edge's function each time another path reaches it, so
#: the order sets the work: rpo reaches a merge point after (most of) its
#: predecessors, and over the 12 paper jobs composes a quarter fewer edge
#: functions than fifo.
IDE_DEFAULT_ORDER = "rpo"

#: :class:`~repro.ifds.solver.IFDSSolver`'s order for ``None``.  IFDS path
#: edges are never re-joined, so every order does the same work and the
#: cheapest queue wins: fifo's deque.
IFDS_DEFAULT_ORDER = "fifo"


def resolve_worklist_order(worklist_order: Optional[str], default: str) -> str:
    """Check an order name; ``None`` is the solver's ``default``."""
    if worklist_order is None:
        return default
    if worklist_order not in WORKLIST_ORDERS:
        raise ValueError(
            f"worklist_order must be one of {'/'.join(WORKLIST_ORDERS)}, "
            f"got {worklist_order!r}"
        )
    return worklist_order


def make_worklist(
    worklist_order: str, icfg: ICFG, seed: int = 0
) -> Tuple[object, Callable[[tuple], None], Callable[[], tuple]]:
    """``(queue, push, pop)`` for one solve under ``worklist_order``, one
    of :data:`WORKLIST_ORDERS` (the solver has resolved ``None``).

    ``queue`` supports ``len()`` and truth testing; ``push(entry)`` and
    ``pop()`` take and return ``(d1, n, d2)`` entries.  ``seed`` seeds
    the ``random`` order; ``icfg`` ranks statements for ``rpo``.
    """
    if worklist_order == "rpo":
        buckets = BucketQueue(RPORanker(icfg).rank_of)
        return buckets, buckets.push, buckets.pop
    queue: deque = deque()
    if worklist_order == "fifo":
        return queue, queue.append, queue.popleft
    if worklist_order == "lifo":
        return queue, queue.append, queue.pop
    if worklist_order != "random":
        raise ValueError(f"unknown worklist order {worklist_order!r}")
    randrange = random.Random(seed).randrange

    def pop_random() -> tuple:
        index = randrange(len(queue))
        queue[index], queue[-1] = queue[-1], queue[index]
        return queue.pop()

    return queue, queue.append, pop_random


class BucketQueue:
    """Integer-priority queue of ``(d1, n, d2)`` entries, ranked by
    ``rank_of(n)``: one list per rank plus a moving cursor.

    RPO ranks are small dense ints, so a bucket per rank beats a binary
    heap — push is a list append, pop scans the cursor forward.  Because
    propagation mostly moves *down* the reverse post-order, the cursor
    rarely rewinds (only on loop back-edges), keeping pops amortized O(1).
    Order within one rank is unspecified (the fixed point is
    order-independent); across ranks the minimum always pops first.
    """

    __slots__ = ("_rank_of", "_buckets", "_cursor", "_size")

    def __init__(self, rank_of: Callable[[Hashable], int]) -> None:
        self._rank_of = rank_of
        self._buckets: List[List[tuple]] = []
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, entry: tuple) -> None:
        rank = self._rank_of(entry[1])
        buckets = self._buckets
        grow = rank + 1 - len(buckets)
        if grow > 0:
            buckets.extend([] for _ in range(grow))
        buckets[rank].append(entry)
        if rank < self._cursor:
            self._cursor = rank
        self._size += 1

    def pop(self) -> tuple:
        buckets = self._buckets
        cursor = self._cursor
        while not buckets[cursor]:
            cursor += 1
        self._cursor = cursor
        self._size -= 1
        return buckets[cursor].pop()


class RPORanker:
    """Lazily ranks statements in per-method reverse post-order.

    Popping exploded-graph nodes in reverse post-order of their method's
    CFG processes a statement only after (most of) its predecessors.
    Methods are ranked in first-touch order: the first statement queried
    from a not-yet-ranked method triggers one iterative DFS from the
    method's start point, and every reachable statement gets a global rank
    ``base + rpo_index``.  Statements unreachable from the start point
    (dead code kept in the IR) rank after the reachable ones, so every
    statement has a total order and the priority queue never blocks.
    """

    __slots__ = ("icfg", "_rank", "_seen_methods", "_next")

    def __init__(self, icfg: ICFG) -> None:
        self.icfg = icfg
        self._rank: Dict[Instruction, int] = {}
        self._seen_methods: Set[IRMethod] = set()
        self._next = 0

    def rank_of(self, stmt: Instruction) -> int:
        """The statement's global priority (lower pops first)."""
        rank = self._rank.get(stmt)
        if rank is not None:
            return rank
        method = self.icfg.method_of(stmt)
        if method not in self._seen_methods:
            self._rank_method(method)
            rank = self._rank.get(stmt)
            if rank is not None:
                return rank
        # Synthetic statement outside the method's instruction list: order
        # it after everything ranked so far.
        rank = self._next
        self._next += 1
        self._rank[stmt] = rank
        return rank

    def _rank_method(self, method: IRMethod) -> None:
        self._seen_methods.add(method)
        icfg = self.icfg
        start = icfg.start_point_of(method)
        post: List[Instruction] = []
        seen = {start}
        stack = [(start, iter(icfg.successors_of(start)))]
        while stack:
            node, successors = stack[-1]
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(icfg.successors_of(succ))))
                    break
            else:
                stack.pop()
                post.append(node)
        ranks = self._rank
        base = self._next
        for offset, node in enumerate(reversed(post)):
            ranks[node] = base + offset
        self._next = base + len(post)
        for stmt in method.instructions:
            if stmt not in ranks:
                ranks[stmt] = self._next
                self._next += 1
