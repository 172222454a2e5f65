import copy
import math
import random
import sys
import threading
import time
import traceback
from dataclasses import replace

import pytest

from uqtrees import (DenseTensor, Grid2D, OpCounters, OperatorPair, SegTree1D,
                     ValidationError, WorkloadConfig, get_pair, run_verify)
from uqtrees.seg1d import kernels, node_shape, split
from conftest import (KERNEL_CASES, KERNEL_IDS, edge_spans, reinit_span, sample_cell,
                      stack_split, stamped)


def make(values, pair_name="plus-min"):
    pair = get_pair(pair_name)
    return SegTree1D(values, pair), DenseTensor((len(values),), values, pair)


def node_depths(t):
    depth = [0] * t.node_count
    order = [0]
    for i in order:
        for c in (t.shape.left[i], t.shape.right[i]):
            if c >= 0:
                depth[c] = depth[i] + 1
                order.append(c)
    return depth


def visit_bound(n):
    return 4 * (n.bit_length()) + 2  # 4 * (floor(log2 N) + 1) + 2


class TestBuild:
    def test_node_census(self):
        pair = get_pair("plus-plus")
        for n in range(1, 257):
            t = SegTree1D([0] * n, pair)
            assert t.node_count == 2 * n - 1

    def test_root_fold(self):
        t = SegTree1D([1, 2, 3, 4, 5], get_pair("plus-plus"))
        assert t.node_count == 9
        assert t.val[0] == 15

    def test_single_element(self, pair):
        t = SegTree1D([7], pair)
        assert t.node_count == 1
        assert t.query(0, 0) == 7
        assert node_depths(t) == [0]

    def test_empty_rejected(self, pair):
        with pytest.raises(ValueError):
            SegTree1D([], pair)

    def test_depth_bound(self):
        pair = get_pair("plus-plus")
        for n in [*range(1, 130), 613, 1000, 2048, 4095, 4096]:
            t = SegTree1D([0] * n, pair)
            assert max(node_depths(t)) <= math.ceil(math.log2(n)) if n > 1 else True

    @pytest.mark.parametrize("pair, cells", KERNEL_CASES, ids=KERNEL_IDS)
    def test_all_lazies_start_identity(self, pair, cells):
        # and every node's fold is the oracle's
        rng = random.Random(3)
        for n in (1, 2, 7, 13):
            vals = [sample_cell(pair, rng, cells) for _ in range(n)]
            t = SegTree1D(vals, pair)
            assert t.laz == [pair.update_identity] * t.node_count
            t.validate(DenseTensor((n,), vals, pair))


class TestFillTables:
    """``node_shape``'s ``leaves`` and ``joins``, which the ``fill`` kernel walks."""

    EXTENTS = [*range(1, 71), 1000]

    @pytest.mark.parametrize("n", EXTENTS)
    def test_leaves_list_every_leaf_once_in_position_order(self, n):
        shape = node_shape(n)
        assert len(shape.leaves) == n
        assert [shape.lo[i] for i in shape.leaves] == list(range(n))
        assert sorted(shape.leaves) == [i for i in range(2 * n - 1) if shape.left[i] < 0]

    @pytest.mark.parametrize("n", EXTENTS)
    def test_joins_list_every_internal_node_once_after_its_children(self, n):
        shape = node_shape(n)
        internal = [i for i in range(2 * n - 1) if shape.left[i] >= 0]
        assert sorted(i for i, _, _ in shape.joins) == internal
        seen = set(shape.leaves)
        for i, l, r in shape.joins:
            assert (l, r) == (shape.left[i], shape.right[i])
            assert l in seen and r in seen
            seen.add(i)


def test_up_names_each_nodes_parent():
    # the carry-by-parent walks (rebuild, _folds) read up[i] before i
    for n in TestFillTables.EXTENTS:
        shape = node_shape(n)
        assert shape.up[0] == -1
        for i, l, r in shape.joins:
            assert shape.up[l] == shape.up[r] == i < l < r


class TestUpdateQuery:
    def test_example_sequence(self):
        t, o = make([3, 1, 4, 1, 5])
        assert t.query(0, 4) == 1
        t.update(1, 3, 2)
        o.update(((1, 3),), 2)
        assert t.query(0, 4) == 3
        assert t.query(0, 4) == o.query(((0, 4),))

    def test_identity_update_changes_nothing(self, pair, rng):
        vals = [rng.randint(*pair.sample_range) for _ in range(13)]
        t = SegTree1D(vals, pair)
        snapshot = [t.query(i, j) for i in range(13) for j in range(i, 13)]
        t.update(2, 9, pair.update_identity)
        assert snapshot == [t.query(i, j) for i in range(13) for j in range(i, 13)]

    def test_full_update_via_aggregator(self, pair, rng):
        vals = [rng.randint(*pair.sample_range) for _ in range(11)]
        t = SegTree1D(vals, pair)
        base = t.query(0, 10)
        v = rng.randint(*pair.sample_range)
        t.update(0, 10, v)
        assert t.query(0, 10) == pair.aggregator(base, v, 11)

    def test_single_cells_match_oracle(self, pair, rng):
        vals = [rng.randint(*pair.sample_range) for _ in range(9)]
        t = SegTree1D(vals, pair)
        o = DenseTensor((9,), vals, pair)
        for _ in range(60):
            a, b = sorted((rng.randrange(9), rng.randrange(9)))
            v = rng.randint(*pair.sample_range)
            t.update(a, b, v)
            o.update(((a, b),), v)
        for i in range(9):
            assert t.query(i, i) == o.query(((i, i),))

    def test_out_of_bounds(self):
        t, _ = make([1, 2, 3])
        for bad in ((0, 3), (-1, 1), (2, 1)):
            with pytest.raises(ValueError):
                t.update(*bad, 1)
            with pytest.raises(ValueError):
                t.query(*bad)

    def test_differential(self):
        for n in (1, 2, 5, 33, 64):
            report = run_verify(WorkloadConfig("seg1d", "plus-min", (n,), ops=2500, seed=n))
            assert report.ok, report.first_mismatch


class TestDecompose:
    def test_examples(self):
        t = SegTree1D(list(range(8)), get_pair("plus-plus"))
        assert t.decompose(1, 6) == [(1, 1), (2, 3), (4, 5), (6, 6)]
        assert t.decompose(0, 7) == [(0, 7)]
        assert t.decompose(4, 7) == [(4, 7)]

    def test_exhaustive_disjoint_union_and_bound(self):
        pair = get_pair("plus-plus")
        for n in [*range(2, 40), 63, 64]:
            t = SegTree1D([0] * n, pair)
            bound = 2 * math.ceil(math.log2(n))
            for lo in range(n):
                for hi in range(lo, n):
                    parts = t.decompose(lo, hi)
                    assert len(parts) <= bound
                    covered = []
                    for a, b in parts:
                        covered.extend(range(a, b + 1))
                    assert covered == list(range(lo, hi + 1))

    def test_visits_one_per_walked_node(self):
        # the walk enters every node that meets the span but is not inside
        # it and counts both of its children, so it matches an update's cost
        pair = get_pair("plus-plus")
        for n in (1, 2, 7, 16):
            t = SegTree1D([0] * n, pair)
            for lo in range(n):
                for hi in range(lo, n):
                    before = t.counters.visits_total
                    t.decompose(lo, hi)
                    spent = t.counters.visits_total - before
                    spans = list(zip(t.shape.lo, t.shape.hi))
                    inside = sum(1 for a, b in spans if lo <= a and b <= hi)
                    meets = sum(1 for a, b in spans if a <= hi and lo <= b)
                    assert spent == 1 + 2 * (meets - inside)

    def test_adversarial_large_sizes(self):
        pair = get_pair("plus-plus")
        for n in (127, 128, 129, 255, 256):
            t = SegTree1D([0] * n, pair)
            bound = 2 * math.ceil(math.log2(n))
            assert all(len(t.decompose(lo, hi)) <= bound
                       for lo in range(n) for hi in range(lo, n))


class TestSplit:
    """``split`` against brute force over every span of every extent 1..33."""

    @staticmethod
    def preorder(shape):
        # root first, then the left subtree, then the right, from the child
        # links alone (not from the index order the layout happens to use)
        out, stack = [], [0]
        while stack:
            i = stack.pop()
            out.append(i)
            if shape.left[i] >= 0:
                stack += [shape.right[i], shape.left[i]]
        return out

    def test_exhaustive_against_brute_force(self):
        pair = get_pair("plus-plus")
        for n in range(1, 34):
            shape = node_shape(n)
            order = self.preorder(shape)
            parent = {c: i for i in order for c in (shape.left[i], shape.right[i]) if c >= 0}
            t = SegTree1D([0] * n, pair)
            for lo in range(n):
                for hi in range(lo, n):
                    def inside(i):
                        return lo <= shape.lo[i] and shape.hi[i] <= hi
                    covered, partial = split(shape, lo, hi)
                    maximal = sorted((i for i in order if inside(i)
                                      and (i == 0 or not inside(parent[i]))),
                                     key=shape.lo.__getitem__)
                    assert covered == maximal
                    assert [(shape.lo[i], shape.hi[i]) for i in covered] == t.decompose(lo, hi)
                    assert partial == [i for i in order if not inside(i)
                                       and shape.lo[i] <= hi and lo <= shape.hi[i]]
                    visits = 1 + 2 * len(partial)
                    before = t.counters.visits_total
                    t.decompose(lo, hi)
                    assert t.counters.visits_total - before == visits
                    t.update(lo, hi, 1)
                    assert t.counters.visits_last_op == visits
                    assert t.last_lazy_spans == t.decompose(lo, hi)

    def test_each_public_method_splits_once(self, monkeypatch):
        import uqtrees.seg1d as seg1d
        calls = []
        monkeypatch.setattr(seg1d, "split", lambda *a: calls.append(a) or split(*a))
        t = SegTree1D(list(range(13)), get_pair("plus-min"))
        for method, want in (("update", 1), ("decompose", 1), ("query", 0)):
            for lo, hi in ((0, 12), (3, 9), (7, 7)):
                calls.clear()
                args = (lo, hi, 5) if method == "update" else (lo, hi)
                getattr(t, method)(*args)
                assert len(calls) == want, (method, lo, hi)
        calls.clear()
        t.to_array()  # the whole array: every node, no split
        assert calls == []


class TestBoundarySplit:
    """``split`` walks only the two boundary paths, and returns exactly what
    the stack walk over every node that meets the span returns
    (``conftest.stack_split``), lists and orders alike."""

    def test_every_span_of_every_extent_up_to_70(self):
        for n in range(1, 71):
            shape = node_shape(n)
            for lo in range(n):
                for hi in range(lo, n):
                    assert split(shape, lo, hi) == stack_split(shape, lo, hi), (n, lo, hi)

    @pytest.mark.parametrize("n", [100, 257, 1000, 4097])
    def test_sampled_spans_of_large_extents(self, n):
        rng = random.Random(n)
        shape = node_shape(n)
        spans = edge_spans(n) + [tuple(sorted(rng.randrange(n) for _ in range(2)))
                                 for _ in range(3000)]
        for lo, hi in spans:
            assert split(shape, lo, hi) == stack_split(shape, lo, hi), (n, lo, hi)


class TestSharedLayout:
    """Trees of one extent share one :class:`NodeShape`."""

    def test_trees_sharing_a_layout_match_the_oracle(self, pair):
        # several trees of one extent, each span repeated across them as a
        # nested caller does
        rng = random.Random(11)
        n = 13
        shape = node_shape(n)
        trees, oracles = [], []
        for _ in range(3):
            vals = [rng.randint(*pair.sample_range) for _ in range(n)]
            trees.append(SegTree1D(vals, pair))
            oracles.append(DenseTensor((n,), vals, pair))
        for step in range(300):
            lo, hi = sorted((rng.randrange(n), rng.randrange(n)))
            covered, partial = split(shape, lo, hi)
            for t, o in zip(trees, oracles):
                v = rng.randint(*pair.sample_range)
                t.update(lo, hi, v)
                o.update(((lo, hi),), v)
                assert t.counters.visits_last_op == 1 + 2 * len(partial)
                assert t.last_lazy_spans == [(shape.lo[i], shape.hi[i]) for i in covered]
                assert t.query(lo, hi) == o.query(((lo, hi),))
        for t, o in zip(trees, oracles):
            assert t.to_array() == o.data
            t.validate(o)

    def test_two_threads_on_trees_of_one_extent(self):
        # each thread repeats its own spans on its own tree; the trees share
        # one layout, which no walk may write.  The bounds yield while they
        # compare, so the threads switch in the middle of their splits
        class Bound(int):
            def __le__(self, other):
                time.sleep(0)
                return int.__le__(self, other)

            def __ge__(self, other):
                time.sleep(0)
                return int.__ge__(self, other)

        pair = get_pair("plus-plus")
        n = 32
        spans = ([(0, 20), (5, 9), (17, 31)], [(3, 30), (11, 11), (0, 7)])

        def script(k):
            rng = random.Random(k)
            return [(Bound(lo), Bound(hi), rng.randint(1, 9))
                    for _ in range(100) for lo, hi in spans[k] for _ in range(3)]

        scripts = [script(0), script(1)]
        trees = [SegTree1D([0] * n, pair) for _ in scripts]
        start = threading.Barrier(2)
        errors = []

        def run(t, ops):
            try:
                start.wait(timeout=60)
                for lo, hi, v in ops:
                    t.update(lo, hi, v)
            except Exception as e:  # pragma: no cover - reported below
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t, ops))
                       for t, ops in zip(trees, scripts)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert not errors
        for t, ops in zip(trees, scripts):
            o = DenseTensor((n,), [0] * n, pair)
            for lo, hi, v in ops:
                o.update(((lo, hi),), v)
            assert t.to_array() == o.data
            t.validate(o)


class TestLazySpans:
    def test_update_touches_exactly_the_decomposition(self):
        t = SegTree1D(list(range(8)), get_pair("plus-plus"))
        t.update(1, 6, 3)
        assert t.last_lazy_spans == [(1, 1), (2, 3), (4, 5), (6, 6)]

    def test_exhaustive_disjoint_union(self):
        # the spans whose pending value an update touches partition the target
        pair = get_pair("plus-min")
        for n in range(1, 33):
            t = SegTree1D([0] * n, pair)
            for lo in range(n):
                for hi in range(lo, n):
                    t.update(lo, hi, 1)
                    got = sorted(t.last_lazy_spans)
                    covered = []
                    for a, b in got:
                        covered.extend(range(a, b + 1))
                    assert covered == list(range(lo, hi + 1))


class TestCounters:
    def test_update_and_query_visit_bound_exhaustive(self):
        pair = get_pair("plus-plus")
        for n in range(1, 65):
            t = SegTree1D([0] * n, pair)
            for lo in range(n):
                for hi in range(lo, n):
                    t.update(lo, hi, 1)
                    assert t.counters.visits_last_op <= visit_bound(n)
                    t.query(lo, hi)
                    assert t.counters.visits_last_op <= visit_bound(n)

    def test_visit_bound_sampled_large(self, rng):
        pair = get_pair("plus-plus")
        for n in (100, 255, 256, 1000):
            t = SegTree1D([0] * n, pair)
            for _ in range(300):
                lo, hi = sorted((rng.randrange(n), rng.randrange(n)))
                t.update(lo, hi, 1)
                assert t.counters.visits_last_op <= visit_bound(n)
                t.query(lo, hi)
                assert t.counters.visits_last_op <= visit_bound(n)

    def test_deterministic_for_fixed_sequence(self):
        def run():
            t = SegTree1D([0] * 37, get_pair("plus-min"))
            rng = random.Random(11)
            for _ in range(200):
                a, b = sorted((rng.randrange(37), rng.randrange(37)))
                if rng.random() < 0.5:
                    t.update(a, b, rng.randint(-5, 5))
                else:
                    t.query(a, b)
            c = t.counters
            return (c.visits_total, c.update_visits, c.query_visits,
                    c.update_ops, c.query_ops)

        assert run() == run()


class TestToArray:
    def test_fresh_build_round_trips(self, pair, rng):
        vals = [rng.randint(*pair.sample_range) for _ in range(10)]
        assert SegTree1D(vals, pair).to_array() == vals

    def test_after_updates_matches_oracle(self, pair, rng):
        vals = [rng.randint(*pair.sample_range) for _ in range(17)]
        t = SegTree1D(vals, pair)
        o = DenseTensor((17,), vals, pair)
        for _ in range(100):
            a, b = sorted((rng.randrange(17), rng.randrange(17)))
            v = rng.randint(*pair.sample_range)
            t.update(a, b, v)
            o.update(((a, b),), v)
        assert t.to_array() == o.data

    def test_visits_equal_node_count(self):
        t = SegTree1D([0] * 21, get_pair("plus-plus"))
        before = t.counters.visits_total
        t.to_array()
        assert t.counters.visits_total - before == t.node_count


def slot_oracle(pair, values, w):
    """A 1D oracle whose slots each stand for ``w`` cells, as in the tree.

    Updating all ``w`` cells of a slot by ``v`` turns the slot's fold ``x``
    into ``aggregator(x, v, w)``; queries fold slots with the pair's own
    ``query_op``.
    """
    slot_pair = replace(pair, update_op=lambda x, v: pair.aggregator(x, v, w))
    return DenseTensor((len(values),), values, slot_pair)


def pending_tree(pair, rng, n, w):
    """A tree over ``n`` slots of weight ``w`` that holds pending values,
    and its oracle after the same updates."""
    vals = [rng.randint(*pair.sample_range) for _ in range(n)]
    t = SegTree1D(vals, pair, cell_weight=w)
    o = slot_oracle(pair, vals, w)
    for _ in range(6):
        a, b = sorted((rng.randrange(n), rng.randrange(n)))
        v = rng.randint(*pair.sample_range)
        t.update(a, b, v)
        o.update(((a, b),), v)
    return t, o


@pytest.mark.parametrize("w", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
class TestRangedArray:
    def test_to_array_is_a_slice_of_the_whole(self, pair, rng, n, w):
        # every span's query folds the matching slice of the whole array,
        # and reading leaves the pending values where they were
        t, o = pending_tree(pair, rng, n, w)
        before = t.counters.visits_total
        whole = t.to_array()
        assert t.counters.visits_total - before == t.node_count
        assert whole == o.data
        for lo in range(n):
            for hi in range(lo, n):
                assert t.query(lo, hi) == o.query(((lo, hi),))
                spans = t.decompose(lo, hi)
                assert [x for a, b in spans for x in range(a, b + 1)] == list(range(lo, hi + 1))
        assert t.to_array() == whole
        t.validate(o)

    def test_reinit_resets_only_its_span(self, pair, rng, n, w):
        # the plain-Python reference that the fused rebuild is checked against
        for lo in range(n):
            for hi in range(lo, n):
                t, o = pending_tree(pair, rng, n, w)
                before = t.to_array()
                assert before == o.data
                fresh = [rng.randint(*pair.sample_range) for _ in range(hi - lo + 1)]
                reinit_span(t, fresh, lo)
                o.data[lo:hi + 1] = fresh
                t.validate(o)
                assert t.to_array() == before[:lo] + fresh + before[hi + 1:]
                # and the tree goes on as usual
                a, b = sorted((rng.randrange(n), rng.randrange(n)))
                t.update(a, b, fresh[0])
                o.update(((a, b),), fresh[0])
                t.validate(o)


class TestRangedArgs:
    def test_spans_out_of_bounds_raise(self):
        t = SegTree1D([1, 2, 3, 4], get_pair("plus-min"))
        for lo, hi in ((-1, 2), (2, 1), (0, 4)):
            with pytest.raises(ValueError):
                t.update(lo, hi, 1)
            with pytest.raises(ValueError):
                t.query(lo, hi)
            with pytest.raises(ValueError):
                t.decompose(lo, hi)
        with pytest.raises(TypeError):
            t.to_array(0, 3)  # the whole array only: no span form
        assert t.to_array() == [1, 2, 3, 4]

    def test_whole_array_costs_node_count(self):
        pair = get_pair("plus-plus")
        t = SegTree1D(list(range(21)), pair)
        for call in (t.to_array, lambda: SegTree1D([0] * 21, pair, counters=t.counters)):
            before = t.counters.visits_total
            call()
            assert t.counters.visits_total - before == t.node_count

    def test_float_bounds_are_refused(self):
        t = SegTree1D(list(range(8)), get_pair("plus-min"))
        t.update(3, 5, 1)  # the same span in ints passes
        for bad in ((3.0, 5), (3, 5.0)):
            with pytest.raises(TypeError):
                t.update(*bad, 1)
            with pytest.raises(TypeError):
                t.decompose(*bad)
        assert t.to_array() == [0, 1, 2, 4, 5, 6, 6, 7]


class TestValidate:
    def test_fresh_build_passes(self, pair):
        vals = [3, 1, 4, 1, 5, 9, 2, 6]
        SegTree1D(vals, pair).validate(DenseTensor((8,), vals, pair))

    def test_after_many_updates_passes(self, rng):
        pair = get_pair("plus-min")
        vals = [rng.randint(-50, 50) for _ in range(29)]
        t = SegTree1D(vals, pair)
        o = DenseTensor((29,), vals, pair)
        for _ in range(1000):
            a, b = sorted((rng.randrange(29), rng.randrange(29)))
            v = rng.randint(-50, 50)
            t.update(a, b, v)
            o.update(((a, b),), v)
        t.validate(o)

    @pytest.mark.parametrize("n", [1, 6, 13])
    def test_identity_tree_passes_then_survives_an_update(self, pair, rng, n):
        t = SegTree1D.identity(n, pair)
        o = DenseTensor((n,), [pair.query_identity] * n, pair)
        assert t.counters.visits_total == t.node_count == 2 * n - 1
        assert t.val == SegTree1D([pair.query_identity] * n, pair).val
        t.validate(o)
        a, b = sorted((rng.randrange(n), rng.randrange(n)))
        v = rng.randint(*pair.sample_range)
        t.update(a, b, v)
        o.update(((a, b),), v)
        t.validate(o)
        assert [t.query(i, i) for i in range(n)] == [o.query(((i, i),)) for i in range(n)]

    def test_names_the_first_bad_node_in_pre_order(self):
        # node 1 comes before the root's right child in pre-order
        pair = get_pair("plus-plus")
        t, o = make(list(range(8)), "plus-plus")
        for i in (1, t.shape.right[0]):
            t.val[i] = pair.update_op(t.val[i], 1)
        with pytest.raises(ValidationError, match=r"^node 1 over \[0, 3\]: "):
            t.validate(o)

    def test_corruption_is_caught(self):
        pair = get_pair("plus-plus")
        vals = list(range(16))
        t = SegTree1D(vals, pair)
        o = DenseTensor((16,), vals, pair)
        t.val[5] = pair.update_op(t.val[5], 1)
        with pytest.raises(ValidationError):
            t.validate(o)


class TestCellWeight:
    def test_slots_stand_for_many_cells(self):
        # one slot = 3 real cells: an update adds 3*v to a sum slot
        pair = get_pair("plus-plus")
        t = SegTree1D([10, 20, 30], pair, cell_weight=3)
        t.update(0, 1, 5)
        assert t.to_array() == [10 + 15, 20 + 15, 30]
        assert t.query(0, 2) == 90


class Gcd:
    """``math.gcd`` as an unhashable callable object."""

    __hash__ = None

    def __call__(self, a, b):
        return math.gcd(a, b)


class TestKernels:
    def test_unhashable_callable_pair_builds_and_answers(self):
        gcd = Gcd()
        pair = OperatorPair("gcd-unhashable", gcd, gcd, 0, 0,
                            lambda a, v, k: gcd(a, v))
        with pytest.raises(TypeError):
            hash(pair)
        rng = random.Random(5)
        values = [rng.randrange(0, 60, 6) for _ in range(13)]
        t, o = SegTree1D(values, pair), DenseTensor((13,), values, pair)
        for _ in range(300):
            lo, hi = sorted(rng.randrange(13) for _ in range(2))
            if rng.random() < 0.5:
                v = rng.randrange(0, 60, 4)
                t.update(lo, hi, v)
                o.update(((lo, hi),), v)
            else:
                assert t.query(lo, hi) == o.query(((lo, hi),))
        assert t.to_array() == o.data
        t.validate(o)

    def test_compiled_once_per_pair_object(self):
        pair = get_pair("plus-min")
        a, b = SegTree1D([1, 2, 3], pair), SegTree1D.identity(5, pair)
        assert a._k is b._k is kernels(pair)
        assert kernels(replace(pair)) is not a._k

    def test_level_walks_only_for_fold_commuting_pairs(self, pair):
        # NDTree refuses any other pair, so only these compile its 2-D walks
        k = kernels(pair)
        for walk in ("update_level", "query_level", "update_nest", "query_nest"):
            assert hasattr(k, walk) == pair.is_special, (pair.name, walk)
        assert all(hasattr(k, w) for w in ("update", "update_many", "rebuild",
                                           "fill", "query", "query_many"))

    def test_traceback_shows_the_generated_line(self):
        def refuse(a, b):
            raise ArithmeticError("refused")
        pair = replace(get_pair("plus-min"), update_op=refuse)
        t = SegTree1D([1, 2, 3], pair)
        with pytest.raises(ArithmeticError) as err:
            t.update(0, 1, 5)
        assert "laz[i] = U(laz[i], value)" in "".join(traceback.format_tb(err.tb))


class TestUpdateMany:
    """The forest kernel is one :meth:`SegTree1D.update` per tree, node for node.

    ``update_many(trees, covered, partial, value)`` takes the caller's split
    of the span, checks nothing and counts nothing: each tree's walk visits
    ``1 + 2 * len(partial)`` nodes, as ``update`` counts it.
    ``Grid2D.update``'s checks guard it
    (``tests/test_grid2d.py::TestForestRefusals``)."""

    @staticmethod
    def forest_update(forest, lo, hi, v):
        """``update_many`` over ``forest``; the visits ``update`` would count."""
        covered, partial = split(forest[0].shape, lo, hi)
        forest[0]._k.update_many(forest, covered, partial, v)
        return len(forest) * (1 + 2 * len(partial))

    @staticmethod
    def copies_of(trees):
        """Private copies of ``trees``, sharing only their layout and sizes."""
        out = []
        for t in trees:
            c = copy.copy(t)
            c.val, c.laz, c.counters = list(t.val), list(t.laz), OpCounters()
            out.append(c)
        return out

    @pytest.mark.parametrize("pair, cells", KERNEL_CASES, ids=KERNEL_IDS)
    def test_matches_update_on_a_copy(self, pair, cells):
        rng = random.Random(17)
        n = 13

        def cell():
            return sample_cell(pair, rng, cells)

        # trees of one extent weigh their slots differently, as in Grid2D
        rows = [[cell() for _ in range(n)] for _ in range(3)]
        shared = OpCounters()
        forest = [SegTree1D(r, pair, cell_weight=w, counters=shared)
                  for w, r in enumerate(rows, 1)]
        copies = [SegTree1D(r, pair, cell_weight=w) for w, r in enumerate(rows, 1)]
        built = shared.visits_total
        for step in range(60):
            lo, hi = sorted(rng.randrange(n) for _ in range(2))
            v = cell()
            k = 1 + step % 3
            held = [list(t.laz) for t in forest[:k]]
            visits = self.forest_update(forest[:k], lo, hi, v)
            spent = 0
            for c in copies[:k]:
                was = c.counters.visits_total
                c.update(lo, hi, v)
                spent += c.counters.visits_total - was
            assert visits == spent
            # the kernel leaves the count to its caller
            assert shared.visits_total == built
            for t, c in zip(forest, copies):
                assert t.val == c.val
                assert t.laz == c.laz
            # each tree of the forest took the stamp on the split's covered nodes
            covered = split(forest[0].shape, lo, hi)[0]
            for t, laz in zip(forest, held):
                assert t.laz == stamped(pair, laz, covered, v)

    @pytest.mark.parametrize("m", [1, 2, 13, 32])
    @pytest.mark.parametrize("pair, cells", KERNEL_CASES, ids=KERNEL_IDS)
    def test_forests_of_a_grid_match_update_on_copies(self, pair, cells, m):
        # the column trees of a 32-row Grid2D, with its real cell weights and
        # the pending values of earlier updates; a covered subtree of w rows
        # is a forest of 2w - 1 trees whose weights all differ from its root's
        rng = random.Random(m)

        def cell():
            return sample_cell(pair, rng, cells)

        n = 32
        g = Grid2D(DenseTensor((n, m), [cell() for _ in range(n * m)], pair), pair)
        for _ in range(20):
            box = tuple(sorted(rng.randrange(d) for _ in range(2)) for d in (n, m))
            g.update(box, cell())
        inner = g.inner
        for w in (1, 2, 4, 32):
            starts = [i for i in range(g.node_count) if g.shape.hi[i] - g.shape.lo[i] + 1 == w]
            for lo, hi in ((0, m - 1), (rng.randrange(m),) * 2,
                           sorted(rng.randrange(m) for _ in range(2))):
                i = rng.choice(starts)
                end = i + 2 * w - 1
                before = [(list(t.val), list(t.laz)) for t in inner]
                copies = self.copies_of(inner[i:end])
                v = cell()
                visits = self.forest_update(inner[i:end], lo, hi, v)
                for c in copies:
                    c.update(lo, hi, v)
                assert visits == sum(c.counters.visits_total for c in copies)
                covered = split(inner[0].shape, lo, hi)[0]
                for k, (t, c) in enumerate(zip(inner[i:end], copies), i):
                    assert t.val == c.val
                    assert t.laz == c.laz == stamped(pair, before[k][1], covered, v)
                for k in (*range(i), *range(end, g.node_count)):
                    t = inner[k]
                    assert (t.val, t.laz) == before[k], k

    @pytest.mark.parametrize("pair, cells", KERNEL_CASES, ids=KERNEL_IDS)
    def test_one_update_mixes_subtrees_of_several_widths(self, pair, cells):
        # rows 3..28 of 32 cover subtrees of 1, 4 and 8 rows, whose column
        # trees Grid2D.update sends through one forest call
        rng = random.Random(41)

        def cell():
            return sample_cell(pair, rng, cells)

        n, m = 32, 13
        g = Grid2D(DenseTensor((n, m), [cell() for _ in range(n * m)], pair), pair)
        for _ in range(20):
            box = tuple(sorted(rng.randrange(d) for _ in range(2)) for d in (n, m))
            g.update(box, cell())
        inner, xlo, xhi = g.inner, 3, 28
        covered, partial = split(g.shape, xlo, xhi)
        assert sorted({g.shape.hi[i] - g.shape.lo[i] + 1 for i in covered}) == [1, 4, 8]
        # the column trees of the covered subtrees: every row node inside the span
        forest = [j for j in range(g.node_count) if xlo <= g.shape.lo[j] and g.shape.hi[j] <= xhi]
        for ylo, yhi in ((0, m - 1), (5, 5), (2, 10)):
            copies = self.copies_of(inner[j] for j in forest)
            v = cell()
            g.update(((xlo, xhi), (ylo, yhi)), v)
            covered = split(inner[0].shape, ylo, yhi)[0]
            for j, c in zip(forest, copies):
                # the column stamp, read through laz before the copy takes it
                assert inner[j].laz == stamped(pair, c.laz, covered, v), j
                c.update(ylo, yhi, v)
                assert inner[j].val == c.val, j
                assert inner[j].laz == c.laz, j
            events = g.last_events
            assert events[:len(forest)] == [("inner-update", j) for j in forest]
            assert events[len(forest):] == [("rebuild", i) for i in reversed(partial)]
