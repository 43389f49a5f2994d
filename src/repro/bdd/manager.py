"""A from-scratch reduced ordered binary decision diagram (ROBDD) engine.

The paper (Section 5) attributes much of SPLLIFT's performance to encoding
feature constraints as reduced BDDs: equality and ``is false`` checks are
constant time on the canonical representation, and conjunction/disjunction
are efficient and memoized.  The original implementation used JavaBDD backed
by BuDDy; this module provides the equivalent engine in pure Python.

Nodes are interned integers managed by a :class:`BDDManager`.  Node ``0`` is
the ``false`` terminal and node ``1`` the ``true`` terminal.  Every internal
node is uniquely identified by its ``(level, low, high)`` triple, which makes
the representation canonical: two BDDs represent the same Boolean function if
and only if they are the same integer.

Storage is data-oriented (:mod:`repro.bdd.tables`): nodes live in flat
parallel columns, the unique table and all operation caches are keyed by
packed integers instead of tuples, and the binary apply kernels are
per-opcode "frame machines" — one mutable frame per expanded operand
pair, with child resolution, cache probes and node construction all
inlined on locals-bound columns, so the hot loop allocates one list per
cache miss and nothing per probe.  All traversals (``apply``, negation,
cofactors, model counting, support, cube/model enumeration) run on
explicit work stacks rather than Python recursion, so the engine handles
orderings thousands of variables deep without tripping
``sys.getrecursionlimit()``.  The variable order is static: the
``ordering`` given at construction, then declaration order (the paper's
Section 5 leaves ordering as future work).  Node ids are never recycled
and a node's level never changes, so the node columns are append-only.

Example
-------
>>> mgr = BDDManager()
>>> f, g = mgr.var("F"), mgr.var("G")
>>> fn = mgr.and_(f, mgr.not_(g))
>>> mgr.is_false(mgr.and_(fn, g))
True
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bdd.tables import FALSE, TRUE, TERMINAL_LEVEL, NodeStore

__all__ = ["BDDManager", "BDDError"]


class BDDError(Exception):
    """Raised for invalid BDD operations (unknown variables, foreign nodes)."""


# Soft per-opcode computed-table capacity.  The apply/restrict caches are
# lossy: when one crosses this many entries at kernel entry it is flushed
# wholesale (the BuDDy/CUDD computed table is likewise lossy, overwriting
# on collision).  Flushing is always sound — the caches are pure
# memoization — and bounds cache memory on adversarial workloads.
_CACHE_CAPACITY = 1 << 18


class BDDManager:
    """Owns the unique table, operation caches and the variable order.

    All BDD nodes live inside a single manager and are plain ``int`` handles.
    Handles from different managers must never be mixed; operations check a
    lightweight invariant (node id must exist in this manager's tables).

    Parameters
    ----------
    ordering:
        Optional initial variable order (first variable = topmost level).
        Variables can also be created on demand with :meth:`var`; new
        variables are appended below all existing ones.
    """

    def __init__(self, ordering: Optional[Sequence[str]] = None) -> None:
        # Node columns + packed-key unique table (see repro.bdd.tables).
        self._store = NodeStore()
        # Variable bookkeeping.
        self._var_level: Dict[str, int] = {}
        self._level_var: List[str] = []
        # Memoization caches.  The binary-op caches are per opcode, keyed
        # by the packed operand pair `(a << shift) | b`; they and the
        # restrict cache embed the store's shift in their keys, so the
        # store flushes them on an amortized-doubling rebuild.
        self._and_cache: Dict[int, int] = {}
        self._or_cache: Dict[int, int] = {}
        self._xor_cache: Dict[int, int] = {}
        self._restrict_cache: Dict[int, int] = {}
        self._store.grow_clears = (
            self._and_cache,
            self._or_cache,
            self._xor_cache,
            self._restrict_cache,
        )
        self._not_cache: Dict[int, int] = {}
        self._satcount_cache: Dict[int, int] = {}
        self._support_cache: Dict[int, frozenset] = {}
        # Unified apply accounting: one (hit or miss) tick per cache
        # probe, wherever the probe happens — top-level fast path and
        # in-kernel probes share the same counters.
        self._apply_hits = 0
        self._apply_misses = 0
        self._apply_calls = 0
        self._cache_flushes = 0
        if ordering is not None:
            for name in ordering:
                self.var(name)

    # ------------------------------------------------------------------
    # Constants and variables
    # ------------------------------------------------------------------

    @property
    def false(self) -> int:
        """The ``false`` terminal."""
        return FALSE

    @property
    def true(self) -> int:
        """The ``true`` terminal."""
        return TRUE

    def var(self, name: str) -> int:
        """Return the BDD for variable ``name``, declaring it if necessary.

        Newly declared variables are placed below all existing variables in
        the order.
        """
        level = self._var_level.get(name)
        if level is None:
            level = len(self._level_var)
            self._var_level[name] = level
            self._level_var.append(name)
            # Cached counts are normalized against the number of declared
            # variables, so they are invalidated by a new declaration.
            self._satcount_cache.clear()
        return self._store.mk(level, FALSE, TRUE)

    def nvar(self, name: str) -> int:
        """Return the BDD for the negation of variable ``name``."""
        level = self._var_level.get(name)
        if level is None:
            self.var(name)
            level = self._var_level[name]
        return self._store.mk(level, TRUE, FALSE)

    @property
    def variables(self) -> Tuple[str, ...]:
        """All declared variable names in order (topmost first)."""
        return tuple(self._level_var)

    def has_var(self, name: str) -> bool:
        """True if ``name`` has been declared in this manager."""
        return name in self._var_level

    def level_of(self, name: str) -> int:
        """The order level of variable ``name`` (0 = topmost)."""
        try:
            return self._var_level[name]
        except KeyError:
            raise BDDError(f"unknown BDD variable: {name!r}") from None

    def var_at_level(self, level: int) -> str:
        """The variable name sitting at ``level``."""
        return self._level_var[level]

    # ------------------------------------------------------------------
    # Node handles
    # ------------------------------------------------------------------

    def _check(self, node: int) -> None:
        if not 0 <= node < len(self._store.level):
            raise BDDError(f"node {node} does not belong to this manager")

    # ------------------------------------------------------------------
    # Structural accessors
    # ------------------------------------------------------------------

    def is_terminal(self, node: int) -> bool:
        """True for the two terminal nodes."""
        return node <= TRUE

    def is_true(self, node: int) -> bool:
        """Constant-time check: is this the ``true`` function?"""
        return node == TRUE

    def is_false(self, node: int) -> bool:
        """Constant-time check: is this the ``false`` function?

        Because the representation is canonical, a contradictory constraint
        always reduces to the ``false`` terminal; this check is what enables
        SPLLIFT's early termination (Section 4.2 of the paper).
        """
        return node == FALSE

    def top_var(self, node: int) -> str:
        """Name of the decision variable at the root of ``node``."""
        self._check(node)
        if self.is_terminal(node):
            raise BDDError("terminal nodes have no decision variable")
        return self._level_var[self._store.level[node]]

    def low(self, node: int) -> int:
        """The ``else`` (variable = false) child."""
        self._check(node)
        if self.is_terminal(node):
            raise BDDError("terminal nodes have no children")
        return self._store.low[node]

    def high(self, node: int) -> int:
        """The ``then`` (variable = true) child."""
        self._check(node)
        if self.is_terminal(node):
            raise BDDError("terminal nodes have no children")
        return self._store.high[node]

    def node_count(self, node: int) -> int:
        """Number of distinct internal nodes reachable from ``node``."""
        self._check(node)
        seen = set()
        add = seen.add
        stack = [node]
        push = stack.append
        pop = stack.pop
        low_, high_ = self._store.low, self._store.high
        while stack:
            current = pop()
            if current <= TRUE or current in seen:
                continue
            add(current)
            push(low_[current])
            push(high_[current])
        return len(seen)

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------

    def not_(self, node: int) -> int:
        """Negation (iterative; memoized per node)."""
        self._check(node)
        cache = self._not_cache
        cached = cache.get(node)
        if cached is not None:
            return cached
        if node <= TRUE:
            result = TRUE - node
            cache[node] = result
            return result
        store = self._store
        level_, low_, high_ = store.level, store.low, store.high
        unique = store.unique
        unique_get = unique.get
        s = store.shift
        limit = store.limit
        stack = [node]
        push = stack.append
        while stack:
            current = stack[-1]
            if current in cache:
                stack.pop()
                continue
            low, high = low_[current], high_[current]
            pending = False
            if low > TRUE and low not in cache:
                push(low)
                pending = True
            if high > TRUE and high not in cache:
                push(high)
                pending = True
            if pending:
                continue
            stack.pop()
            nlow = TRUE - low if low <= TRUE else cache[low]
            nhigh = TRUE - high if high <= TRUE else cache[high]
            # Negation never merges children (nlow == nhigh would imply
            # low == high), so the node is created unconditionally.
            level = level_[current]
            mkey = ((level << s) | nlow) << s | nhigh
            res = unique_get(mkey)
            if res is None:
                res = len(level_)
                level_.append(level)
                low_.append(nlow)
                high_.append(nhigh)
                unique[mkey] = res
                if res + 1 >= limit:
                    store.grow()
                    s = store.shift
                    limit = store.limit
            cache[current] = res
        return cache[node]

    def and_(self, f: int, g: int) -> int:
        """Conjunction (commutative; arguments normalized for the cache).

        Terminal cases and the single computed-table probe happen here —
        a hit returns without entering the kernel at all; a miss drops
        straight into the frame machine, which expands the root pair
        without re-probing it.
        """
        store = self._store
        n = len(store.level)
        if not (0 <= f < n and 0 <= g < n):
            self._check(f)
            self._check(g)
        if g < f:
            f, g = g, f
        if f == FALSE:
            return FALSE
        if f == TRUE or f == g:
            return g if f == TRUE else f
        self._apply_calls += 1
        res = self._and_cache.get((f << store.shift) | g)
        if res is not None:
            self._apply_hits += 1
            return res
        return self._apply_and(f, g)

    def or_(self, f: int, g: int) -> int:
        """Disjunction (commutative; arguments normalized for the cache)."""
        store = self._store
        n = len(store.level)
        if not (0 <= f < n and 0 <= g < n):
            self._check(f)
            self._check(g)
        if g < f:
            f, g = g, f
        if f == TRUE:
            return TRUE
        if f == FALSE or f == g:
            return g if f == FALSE else f
        self._apply_calls += 1
        res = self._or_cache.get((f << store.shift) | g)
        if res is not None:
            self._apply_hits += 1
            return res
        return self._apply_or(f, g)

    def xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        store = self._store
        n = len(store.level)
        if not (0 <= f < n and 0 <= g < n):
            self._check(f)
            self._check(g)
        if g < f:
            f, g = g, f
        if f == g:
            return FALSE
        if f == FALSE:
            return g
        self._apply_calls += 1
        res = self._xor_cache.get((f << store.shift) | g)
        if res is not None:
            self._apply_hits += 1
            return res
        return self._apply_xor(f, g)

    # Each binary operation has its own frame-machine kernel.  The three
    # kernels are structurally identical (only the inline terminal
    # decisions differ — compare the `res =` blocks at the top of the
    # resolve loop); keeping them specialized avoids a per-step opcode
    # dispatch and lets each probe its own single-opcode cache with a
    # two-int packed key.
    #
    # Kernel shape: the public wrapper already probed the computed table,
    # so entry means the root pair is a guaranteed miss.  The outer loop
    # expands one missed pair, resolving both child pairs *in place*
    # (terminal rules, then the cache) before a frame is ever allocated.
    # A pair whose children both resolve costs no frame at all; otherwise
    # one mutable frame [key, level, low_result, a_high, b_high] parks
    # the resolved half while the missed child expands — `key` is the
    # pair's packed cache key, computed once at probe time, so the
    # combine step never re-packs (store growth re-shifts packing, so the
    # mk path repacks every in-flight frame key when it triggers a grow).
    # The combine loop interns the node (append with amortized-doubling
    # growth), caches the pair's result and feeds it into the parent
    # frame — probing the parent's high pair inline so a frame is popped
    # the moment its second half arrives.  At most one frame and zero
    # tuples per cache miss.

    def _apply_and(self, a: int, b: int, FALSE=FALSE, TRUE=TRUE) -> int:
        """AND kernel; operands are internal, normalized ``a < b``, and
        already known to miss the computed table (the wrapper probed).

        The terminal ids ride in as default arguments so the hot loop
        reads them with ``LOAD_FAST`` instead of a global lookup.
        """
        store = self._store
        cache = self._and_cache
        if len(cache) >= _CACHE_CAPACITY:
            cache.clear()
            self._cache_flushes += 1
        s = store.shift
        key = (a << s) | b
        hits = 0
        misses = 1
        limit = store.limit
        level_, low_, high_ = store.level, store.low, store.high
        unique = store.unique
        unique_get = unique.get
        cache_get = cache.get
        stack: List[list] = []
        push = stack.append
        while True:
            # Expand the missed pair (a, b) whose cache key is `key`;
            # child keys are packed once at probe time and travel with
            # the frame, so the combine step never re-packs.
            la = level_[a]
            lb = level_[b]
            if la < lb:
                level = la
                a0, a1 = low_[a], high_[a]
                b0 = b1 = b
            elif lb < la:
                level = lb
                a0 = a1 = a
                b0, b1 = low_[b], high_[b]
            else:
                level = la
                a0, a1 = low_[a], high_[a]
                b0, b1 = low_[b], high_[b]
            # Resolve the low pair in place: terminal rules, then cache.
            if b0 < a0:
                a0, b0 = b0, a0
            if a0 == FALSE:
                r0 = FALSE
            elif a0 == TRUE or a0 == b0:
                r0 = b0 if a0 == TRUE else a0
            else:
                ck = (a0 << s) | b0
                r0 = cache_get(ck)
                if r0 is None:
                    misses += 1
                    push([key, level, None, a1, b1])
                    a, b, key = a0, b0, ck
                    continue
                hits += 1
            # Low half resolved: try the high pair the same way.
            if b1 < a1:
                a1, b1 = b1, a1
            if a1 == FALSE:
                res = FALSE
            elif a1 == TRUE or a1 == b1:
                res = b1 if a1 == TRUE else a1
            else:
                ck = (a1 << s) | b1
                res = cache_get(ck)
                if res is None:
                    misses += 1
                    push([key, level, r0, a1, b1])
                    a, b, key = a1, b1, ck
                    continue
                hits += 1
            # Both halves in hand, no frame needed: combine and unwind.
            while True:
                if r0 != res:
                    mkey = ((level << s) | r0) << s | res
                    node = unique_get(mkey)
                    if node is None:
                        node = len(level_)
                        level_.append(level)
                        low_.append(r0)
                        high_.append(res)
                        unique[mkey] = node
                        if node + 1 >= limit:
                            # Growth re-shifts key packing: repack the
                            # in-flight pair keys (store.grow() already
                            # re-keyed the unique table and cleared the
                            # caches in place).
                            old = s
                            store.grow()
                            s = store.shift
                            limit = store.limit
                            mask = (1 << old) - 1
                            key = ((key >> old) << s) | (key & mask)
                            for fr in stack:
                                k = fr[0]
                                fr[0] = ((k >> old) << s) | (k & mask)
                    res = node
                cache[key] = res
                if not stack:
                    self._apply_hits += hits
                    self._apply_misses += misses
                    return res
                frame = stack.pop()
                low_r = frame[2]
                if low_r is None:
                    # `res` is the parent's low half; probe its high pair.
                    a1, b1 = frame[3], frame[4]
                    if b1 < a1:
                        a1, b1 = b1, a1
                    if a1 == FALSE:
                        r1 = FALSE
                    elif a1 == TRUE or a1 == b1:
                        r1 = b1 if a1 == TRUE else a1
                    else:
                        ck = (a1 << s) | b1
                        r1 = cache_get(ck)
                        if r1 is None:
                            misses += 1
                            frame[2] = res
                            push(frame)
                            a, b, key = a1, b1, ck
                            break
                        hits += 1
                    key, level, r0 = frame[0], frame[1], res
                    res = r1
                    continue
                # `res` is the parent's high half: combine it.
                key, level, r0 = frame[0], frame[1], low_r

    def _apply_or(self, a: int, b: int, FALSE=FALSE, TRUE=TRUE) -> int:
        """OR kernel; operands are internal, normalized ``a < b``, and
        already known to miss the computed table (the wrapper probed)."""
        store = self._store
        cache = self._or_cache
        if len(cache) >= _CACHE_CAPACITY:
            cache.clear()
            self._cache_flushes += 1
        s = store.shift
        key = (a << s) | b
        hits = 0
        misses = 1
        limit = store.limit
        level_, low_, high_ = store.level, store.low, store.high
        unique = store.unique
        unique_get = unique.get
        cache_get = cache.get
        stack: List[list] = []
        push = stack.append
        while True:
            la = level_[a]
            lb = level_[b]
            if la < lb:
                level = la
                a0, a1 = low_[a], high_[a]
                b0 = b1 = b
            elif lb < la:
                level = lb
                a0 = a1 = a
                b0, b1 = low_[b], high_[b]
            else:
                level = la
                a0, a1 = low_[a], high_[a]
                b0, b1 = low_[b], high_[b]
            if b0 < a0:
                a0, b0 = b0, a0
            if a0 == TRUE:
                r0 = TRUE
            elif a0 == FALSE or a0 == b0:
                r0 = b0 if a0 == FALSE else a0
            else:
                ck = (a0 << s) | b0
                r0 = cache_get(ck)
                if r0 is None:
                    misses += 1
                    push([key, level, None, a1, b1])
                    a, b, key = a0, b0, ck
                    continue
                hits += 1
            if b1 < a1:
                a1, b1 = b1, a1
            if a1 == TRUE:
                res = TRUE
            elif a1 == FALSE or a1 == b1:
                res = b1 if a1 == FALSE else a1
            else:
                ck = (a1 << s) | b1
                res = cache_get(ck)
                if res is None:
                    misses += 1
                    push([key, level, r0, a1, b1])
                    a, b, key = a1, b1, ck
                    continue
                hits += 1
            while True:
                if r0 != res:
                    mkey = ((level << s) | r0) << s | res
                    node = unique_get(mkey)
                    if node is None:
                        node = len(level_)
                        level_.append(level)
                        low_.append(r0)
                        high_.append(res)
                        unique[mkey] = node
                        if node + 1 >= limit:
                            old = s
                            store.grow()
                            s = store.shift
                            limit = store.limit
                            mask = (1 << old) - 1
                            key = ((key >> old) << s) | (key & mask)
                            for fr in stack:
                                k = fr[0]
                                fr[0] = ((k >> old) << s) | (k & mask)
                    res = node
                cache[key] = res
                if not stack:
                    self._apply_hits += hits
                    self._apply_misses += misses
                    return res
                frame = stack.pop()
                low_r = frame[2]
                if low_r is None:
                    a1, b1 = frame[3], frame[4]
                    if b1 < a1:
                        a1, b1 = b1, a1
                    if a1 == TRUE:
                        r1 = TRUE
                    elif a1 == FALSE or a1 == b1:
                        r1 = b1 if a1 == FALSE else a1
                    else:
                        ck = (a1 << s) | b1
                        r1 = cache_get(ck)
                        if r1 is None:
                            misses += 1
                            frame[2] = res
                            push(frame)
                            a, b, key = a1, b1, ck
                            break
                        hits += 1
                    key, level, r0 = frame[0], frame[1], res
                    res = r1
                    continue
                key, level, r0 = frame[0], frame[1], low_r

    def _apply_xor(self, a: int, b: int, FALSE=FALSE, TRUE=TRUE) -> int:
        """XOR kernel; operands are internal, normalized ``a < b``, and
        already known to miss the computed table (the wrapper probed)."""
        store = self._store
        cache = self._xor_cache
        if len(cache) >= _CACHE_CAPACITY:
            cache.clear()
            self._cache_flushes += 1
        s = store.shift
        key = (a << s) | b
        hits = 0
        misses = 1
        limit = store.limit
        level_, low_, high_ = store.level, store.low, store.high
        unique = store.unique
        unique_get = unique.get
        cache_get = cache.get
        stack: List[list] = []
        push = stack.append
        while True:
            la = level_[a]
            lb = level_[b]
            if la < lb:
                level = la
                a0, a1 = low_[a], high_[a]
                b0 = b1 = b
            elif lb < la:
                level = lb
                a0 = a1 = a
                b0, b1 = low_[b], high_[b]
            else:
                level = la
                a0, a1 = low_[a], high_[a]
                b0, b1 = low_[b], high_[b]
            if b0 < a0:
                a0, b0 = b0, a0
            if a0 == b0:
                r0 = FALSE
            elif a0 == FALSE:
                r0 = b0
            else:
                ck = (a0 << s) | b0
                r0 = cache_get(ck)
                if r0 is None:
                    misses += 1
                    push([key, level, None, a1, b1])
                    a, b, key = a0, b0, ck
                    continue
                hits += 1
            if b1 < a1:
                a1, b1 = b1, a1
            if a1 == b1:
                res = FALSE
            elif a1 == FALSE:
                res = b1
            else:
                ck = (a1 << s) | b1
                res = cache_get(ck)
                if res is None:
                    misses += 1
                    push([key, level, r0, a1, b1])
                    a, b, key = a1, b1, ck
                    continue
                hits += 1
            while True:
                if r0 != res:
                    mkey = ((level << s) | r0) << s | res
                    node = unique_get(mkey)
                    if node is None:
                        node = len(level_)
                        level_.append(level)
                        low_.append(r0)
                        high_.append(res)
                        unique[mkey] = node
                        if node + 1 >= limit:
                            old = s
                            store.grow()
                            s = store.shift
                            limit = store.limit
                            mask = (1 << old) - 1
                            key = ((key >> old) << s) | (key & mask)
                            for fr in stack:
                                k = fr[0]
                                fr[0] = ((k >> old) << s) | (k & mask)
                    res = node
                cache[key] = res
                if not stack:
                    self._apply_hits += hits
                    self._apply_misses += misses
                    return res
                frame = stack.pop()
                low_r = frame[2]
                if low_r is None:
                    a1, b1 = frame[3], frame[4]
                    if b1 < a1:
                        a1, b1 = b1, a1
                    if a1 == b1:
                        r1 = FALSE
                    elif a1 == FALSE:
                        r1 = b1
                    else:
                        ck = (a1 << s) | b1
                        r1 = cache_get(ck)
                        if r1 is None:
                            misses += 1
                            frame[2] = res
                            push(frame)
                            a, b, key = a1, b1, ck
                            break
                        hits += 1
                    key, level, r0 = frame[0], frame[1], res
                    res = r1
                    continue
                key, level, r0 = frame[0], frame[1], low_r

    def implies(self, f: int, g: int) -> int:
        """Implication ``f -> g`` as ``not f or g``."""
        return self.or_(self.not_(f), g)

    def iff(self, f: int, g: int) -> int:
        """Bi-implication ``f <-> g``."""
        return self.not_(self.xor(f, g))

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f and g) or (not f and h)``."""
        return self.or_(self.and_(f, g), self.and_(self.not_(f), h))

    def and_all(self, nodes: Iterable[int]) -> int:
        """Conjunction of all ``nodes`` (``true`` if empty).

        Reduced as a balanced tree: on a canonical representation the result
        is identical to a left fold, but wide conjunctions (e.g. thousands of
        variables) cost O(n log n) apply pairs instead of O(n^2).
        """
        return self._reduce_balanced(list(nodes), self.and_, TRUE, FALSE)

    def or_all(self, nodes: Iterable[int]) -> int:
        """Disjunction of all ``nodes`` (``false`` if empty).

        Balanced-tree reduction; see :meth:`and_all`.
        """
        return self._reduce_balanced(list(nodes), self.or_, FALSE, TRUE)

    def _reduce_balanced(
        self,
        pending: List[int],
        apply: Callable[[int, int], int],
        unit: int,
        absorbing: int,
    ) -> int:
        if not pending:
            return unit
        for node in pending:
            self._check(node)
        while len(pending) > 1:
            paired: List[int] = []
            it = iter(pending)
            for a in it:
                b = next(it, None)
                if b is None:
                    paired.append(a)
                    break
                res = apply(a, b)
                if res == absorbing:
                    return absorbing
                paired.append(res)
            pending = paired
        return pending[0]

    def entails(self, f: int, g: int) -> bool:
        """True if ``f`` implies ``g`` for all assignments."""
        return self.implies(f, g) == TRUE

    def equiv(self, f: int, g: int) -> bool:
        """True if ``f`` and ``g`` denote the same function.

        On a canonical representation this is pointer equality.
        """
        self._check(f)
        self._check(g)
        return f == g

    # ------------------------------------------------------------------
    # Cofactors, evaluation, support
    # ------------------------------------------------------------------

    def restrict(self, node: int, name: str, value: bool) -> int:
        """Cofactor of ``node`` with variable ``name`` fixed to ``value``."""
        self._check(node)
        level = self.level_of(name)
        return self._restrict(node, level, value)

    def _restrict(self, node: int, level: int, value: bool) -> int:
        store = self._store
        cache = self._restrict_cache
        if len(cache) >= _CACHE_CAPACITY:
            cache.clear()
            self._cache_flushes += 1
        s = store.shift
        limit = store.limit
        level_, low_, high_ = store.level, store.low, store.high
        unique = store.unique
        unique_get = unique.get
        vbit = 1 if value else 0
        results: List[int] = []
        rpush = results.append
        # Frames: (0, node) expands, (1, node) combines.  The cache key
        # is re-packed from the frame's node at combine time, because an
        # amortized-doubling rebuild inside this walk changes the shift.
        stack: List[Tuple[int, int]] = [(0, node)]
        push = stack.append
        while stack:
            tag, current = stack.pop()
            if tag:
                high_r = results.pop()
                low_r = results[-1]
                if low_r == high_r:
                    res = low_r
                else:
                    lvl = level_[current]
                    mkey = ((lvl << s) | low_r) << s | high_r
                    res = unique_get(mkey)
                    if res is None:
                        res = len(level_)
                        level_.append(lvl)
                        low_.append(low_r)
                        high_.append(high_r)
                        unique[mkey] = res
                        if res + 1 >= limit:
                            store.grow()
                            s = store.shift
                            limit = store.limit
                results[-1] = res
                cache[((current << s) | level) << 1 | vbit] = res
                continue
            node_level = level_[current]
            if node_level > level:
                # Terminal, or node entirely below the restricted variable on
                # a branch where the variable was skipped.
                rpush(current)
                continue
            ckey = ((current << s) | level) << 1 | vbit
            cached = cache.get(ckey)
            if cached is not None:
                rpush(cached)
                continue
            if node_level == level:
                res = high_[current] if value else low_[current]
                cache[ckey] = res
                rpush(res)
                continue
            push((1, current))
            push((0, high_[current]))
            push((0, low_[current]))
        return results[0]

    def exists(self, node: int, names: Iterable[str]) -> int:
        """Existential quantification of ``names`` out of ``node``."""
        self._check(node)
        result = node
        for name in names:
            if name not in self._var_level:
                continue
            level = self._var_level[name]
            result = self.or_(
                self._restrict(result, level, False),
                self._restrict(result, level, True),
            )
        return result

    def forall(self, node: int, names: Iterable[str]) -> int:
        """Universal quantification of ``names`` out of ``node``."""
        self._check(node)
        result = node
        for name in names:
            if name not in self._var_level:
                continue
            level = self._var_level[name]
            result = self.and_(
                self._restrict(result, level, False),
                self._restrict(result, level, True),
            )
        return result

    def evaluate(self, node: int, assignment: Dict[str, bool]) -> bool:
        """Evaluate under a total assignment of the node's support.

        Variables missing from ``assignment`` raise :class:`BDDError` when
        the evaluation actually branches on them.
        """
        self._check(node)
        store = self._store
        level_, low_, high_ = store.level, store.low, store.high
        while node > TRUE:
            name = self._level_var[level_[node]]
            try:
                value = assignment[name]
            except KeyError:
                raise BDDError(
                    f"assignment does not cover variable {name!r}"
                ) from None
            node = high_[node] if value else low_[node]
        return node == TRUE

    def support(self, node: int) -> frozenset:
        """The set of variable names the function actually depends on.

        In a reduced BDD every reachable internal node tests an essential
        variable, so the support is exactly the set of decision variables in
        the DAG — a single iterative walk, no per-node set unions.
        """
        self._check(node)
        cached = self._support_cache.get(node)
        if cached is not None:
            return cached
        levels: Set[int] = set()
        seen: Set[int] = set()
        stack = [node]
        store = self._store
        level_, low_, high_ = store.level, store.low, store.high
        while stack:
            current = stack.pop()
            if current <= TRUE or current in seen:
                continue
            seen.add(current)
            levels.add(level_[current])
            stack.append(low_[current])
            stack.append(high_[current])
        result = frozenset(self._level_var[lvl] for lvl in levels)
        self._support_cache[node] = result
        return result

    # ------------------------------------------------------------------
    # Model counting and enumeration
    # ------------------------------------------------------------------

    def satcount(self, node: int, over: Optional[Iterable[str]] = None) -> int:
        """Number of satisfying assignments.

        By default counts over *all* declared variables.  Pass ``over`` to
        count over a specific variable set (it must be a superset of the
        node's support).
        """
        self._check(node)
        if over is None:
            names = set(self._level_var)
        else:
            names = set(over)
            missing = self.support(node) - names
            if missing:
                raise BDDError(
                    f"satcount variable set misses support variables: "
                    f"{sorted(missing)}"
                )
        raw = self._satcount_raw(node)
        # _satcount_raw counts over all declared variables below the root;
        # rescale to the requested variable set.
        total_declared = len(self._level_var)
        scale_down = total_declared - len(names & set(self._level_var))
        extra = len(names - set(self._level_var))
        count = raw >> scale_down if scale_down >= 0 else raw
        return count << extra

    def _satcount_raw(self, node: int) -> int:
        """Satisfying assignments over all declared variables.

        The memo stores per-node counts normalized to the node's own level;
        the root-level rescale happens on every call (the old recursive
        version returned the unscaled memo verbatim on repeat calls, so a
        second ``satcount`` of a root below level 0 came back too small).
        """
        total = len(self._level_var)
        store = self._store
        level_, low_, high_ = store.level, store.low, store.high
        cache = self._satcount_cache
        if node > TRUE and node not in cache:
            stack = [node]
            push = stack.append
            while stack:
                current = stack[-1]
                if current in cache:
                    stack.pop()
                    continue
                low, high = low_[current], high_[current]
                pending = False
                if low > TRUE and low not in cache:
                    push(low)
                    pending = True
                if high > TRUE and high not in cache:
                    push(high)
                    pending = True
                if pending:
                    continue
                stack.pop()
                level = level_[current]
                low_count = low if low <= TRUE else cache[low]
                high_count = high if high <= TRUE else cache[high]
                low_level = total if low <= TRUE else level_[low]
                high_level = total if high <= TRUE else level_[high]
                cache[current] = (low_count << (low_level - level - 1)) + (
                    high_count << (high_level - level - 1)
                )
        if node == FALSE:
            return 0
        base = 1 if node == TRUE else cache[node]
        root_level = total if node <= TRUE else level_[node]
        return base << root_level

    def iter_models(
        self, node: int, over: Optional[Sequence[str]] = None
    ) -> Iterator[Dict[str, bool]]:
        """Yield every satisfying total assignment over ``over``.

        ``over`` defaults to all declared variables; it must cover the
        node's support.  Deterministic order (variable order, false first).
        """
        self._check(node)
        if over is None:
            names: Tuple[str, ...] = tuple(self._level_var)
        else:
            names = tuple(over)
            missing = self.support(node) - set(names)
            if missing:
                raise BDDError(
                    f"model variable set misses support variables: "
                    f"{sorted(missing)}"
                )
        # If `over` is not in manager order, sort it internally but emit
        # dicts keyed by all names anyway; dict key order does not affect
        # semantics.
        levels = [self._var_level.get(n, TERMINAL_LEVEL) for n in names]
        if levels != sorted(levels):
            ordered = tuple(
                sorted(names, key=lambda n: self._var_level.get(n, TERMINAL_LEVEL))
            )
            for model in self._iter_models_ordered(node, ordered):
                yield {name: model[name] for name in names}
            return
        yield from self._iter_models_ordered(node, names)

    def _iter_models_ordered(
        self, node: int, names: Tuple[str, ...]
    ) -> Iterator[Dict[str, bool]]:
        nvars = len(names)
        store = self._store
        level_, low_, high_ = store.level, store.low, store.high
        var_level = self._var_level
        partial: Dict[str, bool] = {}
        # Frames: (index, node, (name, value)) descends after recording the
        # assignment; (-1, 0, (name, value)) undoes it once the subtree is
        # exhausted (the undo frame sits below the subtree on the stack).
        stack: List[Tuple[int, int, Optional[Tuple[str, bool]]]] = [(0, node, None)]
        while stack:
            index, current, assign = stack.pop()
            if index < 0:
                del partial[assign[0]]
                continue
            if assign is not None:
                partial[assign[0]] = assign[1]
                stack.append((-1, 0, assign))
            if index == nvars:
                if current == TRUE:
                    yield dict(partial)
                continue
            name = names[index]
            level = var_level.get(name, TERMINAL_LEVEL)
            at_this_var = current > TRUE and level_[current] == level
            # Push the True branch first so False pops (and yields) first.
            for value in (True, False):
                if at_this_var:
                    child = high_[current] if value else low_[current]
                else:
                    child = current
                if child == FALSE:
                    continue
                stack.append((index + 1, child, (name, value)))

    def any_model(self, node: int) -> Optional[Dict[str, bool]]:
        """One satisfying assignment of the node's support, or ``None``.

        Variables outside the support are omitted (free to take any value).
        """
        self._check(node)
        if node == FALSE:
            return None
        store = self._store
        level_, low_, high_ = store.level, store.low, store.high
        model: Dict[str, bool] = {}
        current = node
        while current > TRUE:
            name = self._level_var[level_[current]]
            if low_[current] != FALSE:
                model[name] = False
                current = low_[current]
            else:
                model[name] = True
                current = high_[current]
        return model

    def cache_stats(self) -> Dict[str, object]:
        """Sizes and health of the internal tables (diagnostics, benches).

        ``unique_load_factor`` and ``apply_cache_occupancy`` are floats in
        ``[0, 1]`` — table fill relative to the current packed-key
        capacity and the computed-table soft capacity; everything else is
        a plain counter.
        """
        store = self._store
        apply_entries = (
            len(self._and_cache) + len(self._or_cache) + len(self._xor_cache)
        )
        return {
            "nodes": len(store.level),
            "unique_entries": len(store.unique),
            "unique_shift": store.shift,
            "unique_rebuilds": store.rebuilds,
            "unique_load_factor": store.load_factor(),
            "apply_cache": apply_entries,
            "apply_cache_hits": self._apply_hits,
            "apply_cache_misses": self._apply_misses,
            "apply_calls": self._apply_calls,
            "apply_cache_flushes": self._cache_flushes,
            "apply_cache_occupancy": apply_entries / (3 * _CACHE_CAPACITY),
            "not_cache": len(self._not_cache),
            "restrict_cache": len(self._restrict_cache),
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def to_expr_string(self, node: int) -> str:
        """A human-readable sum-of-products rendering (for small BDDs)."""
        if node == FALSE:
            return "false"
        if node == TRUE:
            return "true"
        cubes: List[str] = []
        for cube in self._iter_cubes(node):
            literals = [
                name if positive else f"!{name}" for name, positive in cube
            ]
            cubes.append(" & ".join(literals))
        return " | ".join(cubes)

    def _iter_cubes(self, node: int) -> Iterator[Tuple[Tuple[str, bool], ...]]:
        """Yield the BDD's paths to ``true`` as cubes of literals."""
        if node == FALSE:
            return
        if node == TRUE:
            yield ()
            return
        store = self._store
        level_, low_, high_ = store.level, store.low, store.high
        level_var = self._level_var
        path: List[Tuple[str, bool]] = []
        # Frames: (node, literal) appends the literal (if any) then visits
        # the node; (-1, None) pops the literal once the subtree is done.
        stack: List[Tuple[int, Optional[Tuple[str, bool]]]] = [(node, None)]
        while stack:
            current, literal = stack.pop()
            if current < 0:
                path.pop()
                continue
            if literal is not None:
                path.append(literal)
                stack.append((-1, None))
            if current == FALSE:
                continue
            if current == TRUE:
                yield tuple(path)
                continue
            name = level_var[level_[current]]
            stack.append((high_[current], (name, True)))
            stack.append((low_[current], (name, False)))

    def to_dot(self, node: int, name: str = "bdd") -> str:
        """Graphviz DOT rendering of the BDD rooted at ``node``."""
        self._check(node)
        store = self._store
        level_, low_, high_ = store.level, store.low, store.high
        lines = [f"digraph {name} {{", "  rankdir=TB;"]
        lines.append('  n0 [shape=box, label="0"];')
        lines.append('  n1 [shape=box, label="1"];')
        seen = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current <= TRUE or current in seen:
                continue
            seen.add(current)
            label = self._level_var[level_[current]]
            lines.append(f'  n{current} [shape=circle, label="{label}"];')
            low, high = low_[current], high_[current]
            lines.append(f"  n{current} -> n{low} [style=dashed];")
            lines.append(f"  n{current} -> n{high} [style=solid];")
            stack.extend((low, high))
        lines.append("}")
        return "\n".join(lines)

