"""Tests for the data-oriented node store (packed keys, growth)."""

import pytest

from repro.bdd import BDDError, BDDManager
from repro.bdd.tables import FALSE, TRUE, NodeStore


def shrink(store, shift=4):
    """Rewind a store's key width so growth triggers on tiny workloads.

    Only valid while the unique table is empty (no keys to re-pack).
    """
    assert not store.unique
    store.shift = shift
    store.limit = 1 << shift


class TestNodeStore:
    def test_mk_collapses_redundant_test(self):
        store = NodeStore()
        assert store.mk(0, TRUE, TRUE) == TRUE
        assert store.mk(3, FALSE, FALSE) == FALSE

    def test_mk_interns(self):
        store = NodeStore()
        n1 = store.mk(0, FALSE, TRUE)
        n2 = store.mk(0, FALSE, TRUE)
        assert n1 == n2
        assert len(store.unique) == 1

    def test_columns_indexed_by_id(self):
        store = NodeStore()
        n = store.mk(7, FALSE, TRUE)
        assert store.level[n] == 7
        assert store.low[n] == FALSE
        assert store.high[n] == TRUE

    def test_grow_rekeys_existing_nodes(self):
        store = NodeStore()
        shrink(store, shift=3)  # ids/levels up to 8
        nodes = {}
        for level in range(8):
            nodes[level] = store.mk(level, FALSE, TRUE)
        assert store.rebuilds >= 1
        assert store.shift > 3
        # Every pre-growth node is still found under its re-packed key.
        for level, node in nodes.items():
            assert store.mk(level, FALSE, TRUE) == node
        assert len(store.unique) == len(nodes)

    def test_grow_clears_registered_caches_in_place(self):
        store = NodeStore()
        shrink(store, shift=3)
        cache = {123: 456}
        store.grow_clears = (cache,)
        alias = cache  # kernels hold direct references across a rebuild
        for level in range(8):
            store.mk(level, FALSE, TRUE)
        assert store.rebuilds >= 1
        assert alias == {} and alias is cache

    def test_load_factor(self):
        store = NodeStore()
        assert store.load_factor() == 0.0
        store.mk(0, FALSE, TRUE)
        assert store.load_factor() == pytest.approx(1 / store.limit)


class TestManagerGrowth:
    """End-to-end: amortized-doubling rebuilds mid-operation stay correct."""

    def _tiny_manager(self):
        mgr = BDDManager()
        shrink(mgr._store, shift=4)  # grow after ~14 internal nodes
        return mgr

    def test_semantics_survive_rebuilds(self):
        mgr = self._tiny_manager()
        ref = BDDManager()
        names = [f"x{i}" for i in range(6)]

        def build(m):
            xs = [m.var(n) for n in names]
            f = m.or_(m.and_(xs[0], xs[1]), m.xor(xs[2], xs[3]))
            return m.and_(f, m.or_(xs[4], m.not_(xs[5])))

        f_tiny, f_ref = build(mgr), build(ref)
        assert mgr._store.rebuilds >= 1, "workload must cross the growth limit"
        assert ref._store.rebuilds == 0
        for bits in range(1 << len(names)):
            assign = {n: bool(bits >> i & 1) for i, n in enumerate(names)}
            assert mgr.evaluate(f_tiny, assign) == ref.evaluate(f_ref, assign)
        assert mgr.satcount(f_tiny) == ref.satcount(f_ref)

    def test_growth_inside_wide_conjunction(self):
        mgr = self._tiny_manager()
        chain = mgr.and_all(mgr.var(f"v{i:02d}") for i in range(40))
        assert mgr._store.rebuilds >= 1
        assert mgr.satcount(chain) == 1
        assert mgr.node_count(chain) == 40

    def test_foreign_node_still_rejected_after_growth(self):
        mgr = self._tiny_manager()
        mgr.and_all(mgr.var(f"v{i:02d}") for i in range(40))
        with pytest.raises(BDDError):
            mgr.not_(10_000_000)

