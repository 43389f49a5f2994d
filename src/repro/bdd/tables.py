"""Data-oriented node storage for the ROBDD engine.

The :class:`NodeStore` keeps every BDD node in three flat parallel
columns (``level``/``low``/``high``, indexed by node id) and interns
nodes through a unique table keyed by **packed 64-bit integers** instead
of ``(level, low, high)`` tuples::

    key = ((level << shift) | low) << shift | high

Packing removes the per-probe tuple allocation and tuple hash that
dominated the old unique-table probes: the key is a small int computed
with two shifts and two ors, and CPython's dict — itself an
open-addressed, power-of-two hash table — probes it through the C
fast path for int keys.  A pure-Python open-addressed table over
``array('q')`` columns was implemented and benchmarked during the
rewrite; it lost by ~2x because every slot inspection costs a boxed
index and an interpreted compare, while the packed-key dict probe stays
entirely in C.  (See DESIGN.md "Performance architecture" for the
measurements.)

``shift`` bounds the node ids and levels a key can encode, so the store
grows it geometrically — an **amortized-doubling rebuild**: when a
freshly appended id reaches ``1 << shift`` the shift is raised and every
unique-table key is re-packed in place (O(live nodes), amortized O(1)
per insert, like vector doubling).  Caches whose keys embed the shift
(registered via :attr:`grow_clears`) are flushed on rebuild — they are
pure memoization, so flushing only costs re-computation.

Node ids are never recycled and a node's level never changes (the
variable order is static), so the columns are append-only: a node's id
is its position in them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["FALSE", "TRUE", "TERMINAL_LEVEL", "NodeStore"]

# Terminal node ids.  They occupy the two first slots of the node columns.
FALSE = 0
TRUE = 1

# Level assigned to terminal nodes; larger than any variable level.
TERMINAL_LEVEL = 1 << 60


class NodeStore:
    """Flat-column node storage plus the packed-key unique table.

    The hot apply kernels in :mod:`repro.bdd.manager` bind these fields
    to locals and inline the find-or-create sequence; :meth:`mk` is the
    method-call form for the cold paths.  Both must follow the same
    protocol:

    1. pack the key with the *current* :attr:`shift`;
    2. on a miss, append;
    3. insert into :attr:`unique` **before** checking for growth;
    4. if the appended id was the last one the packing can encode, call
       :meth:`grow` — and re-read :attr:`shift`/:attr:`limit` into any
       locals, since every packed key changed width.

    Inserting before growing is what keeps step 3 safe: the key was
    packed with the old shift, and :meth:`grow` re-packs every entry
    from the columns, the new one included.
    """

    __slots__ = (
        "level",
        "low",
        "high",
        "unique",
        "shift",
        "limit",
        "rebuilds",
        "grow_clears",
    )

    #: Initial key width: ids/levels up to 2**18 before the first rebuild.
    INITIAL_SHIFT = 18

    #: Shift increment per rebuild (8x id capacity — geometric growth
    #: keeps rebuild work amortized-constant while flushing the packed
    #: caches as rarely as possible).
    GROWTH_STEP = 3

    def __init__(self) -> None:
        self.level: List[int] = [TERMINAL_LEVEL, TERMINAL_LEVEL]
        self.low: List[int] = [FALSE, TRUE]  # unused for terminals
        self.high: List[int] = [FALSE, TRUE]
        # packed (level, low, high) -> node id
        self.unique: Dict[int, int] = {}
        self.shift = self.INITIAL_SHIFT
        self.limit = 1 << self.INITIAL_SHIFT
        self.rebuilds = 0
        # Caches keyed by shift-packed ints; cleared in place on grow()
        # so kernel locals aliasing them stay valid.
        self.grow_clears: Tuple[Dict[int, int], ...] = ()

    # ------------------------------------------------------------------

    def mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the node ``(level, low, high)`` (reduced form)."""
        if low == high:
            return low
        s = self.shift
        key = ((level << s) | low) << s | high
        node = self.unique.get(key)
        if node is None:
            node = len(self.level)
            self.level.append(level)
            self.low.append(low)
            self.high.append(high)
            self.unique[key] = node
            if node + 1 >= self.limit:
                self.grow()
        return node

    def grow(self) -> None:
        """Amortized-doubling rebuild: widen the packing and re-key.

        Every unique-table entry is re-packed from the columns (entries
        are always column-consistent at the instant of a rebuild), and
        the shift-keyed operation caches registered in
        :attr:`grow_clears` are flushed.  Both the unique table and the
        caches are mutated *in place*, never replaced, because the apply
        kernels hold direct references to them across the rebuild.
        """
        self.shift += self.GROWTH_STEP
        self.limit = 1 << self.shift
        s = self.shift
        level_, low_, high_ = self.level, self.low, self.high
        fresh = {
            ((level_[n] << s) | low_[n]) << s | high_[n]: n
            for n in self.unique.values()
        }
        self.unique.clear()
        self.unique.update(fresh)
        for cache in self.grow_clears:
            cache.clear()
        self.rebuilds += 1

    # ------------------------------------------------------------------

    def load_factor(self) -> float:
        """Unique-table entries per encodable id — table-health gauge."""
        return len(self.unique) / self.limit
