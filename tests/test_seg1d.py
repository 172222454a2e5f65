import math
import random
import sys
import threading
import time
from dataclasses import replace

import pytest

from uqtrees import (DenseTensor, SegTree1D, ValidationError, WorkloadConfig,
                     get_pair, run_verify)
from uqtrees.seg1d import node_shape, plan, split


def make(values, pair_name="plus-min"):
    pair = get_pair(pair_name)
    return SegTree1D(values, pair), DenseTensor((len(values),), values, pair)


def node_depths(t):
    depth = [0] * t.node_count
    order = [0]
    for i in order:
        for c in (t.left[i], t.right[i]):
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

    def test_all_lazies_start_identity(self, pair):
        t = SegTree1D([1, 2, 3, 4, 5, 6, 7], pair)
        assert all(z == pair.update_identity for z in t.laz)

    def test_depth_bound(self):
        pair = get_pair("plus-plus")
        for n in [*range(1, 130), 613, 1000, 2048, 4095, 4096]:
            t = SegTree1D([0] * n, pair)
            assert max(node_depths(t)) <= math.ceil(math.log2(n)) if n > 1 else True


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
                    inside = sum(1 for a, b in zip(t.lo, t.hi) if lo <= a and b <= hi)
                    assert spent == 1 + 2 * (meeting_nodes(t, lo, hi) - inside)

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


class TestPlan:
    """``plan``: ``split`` as tuples, remembered one span deep per extent."""

    def test_equals_split_when_spans_and_extents_interleave(self):
        calls = [(n, lo, hi) for n in range(1, 34)
                 for lo in range(n) for hi in range(lo, n)] * 2
        random.Random(5).shuffle(calls)
        for n, lo, hi in calls:
            shape = node_shape(n)
            covered, partial = split(shape, lo, hi)
            got = plan(shape, lo, hi)
            assert got == (tuple(covered), tuple(partial))
            # a repeat is served from the memo, the same tuples again
            again = plan(shape, lo, hi)
            assert again[0] is got[0] and again[1] is got[1]

    def test_a_hit_never_crosses_extents(self):
        for first, second, hi in ((32, 33, 31), (33, 32, 31), (5, 64, 4)):
            a, b = node_shape(first), node_shape(second)
            plan(a, 0, hi)
            assert plan(b, 0, hi) == tuple(map(tuple, split(b, 0, hi)))
            assert plan(a, 0, hi) == tuple(map(tuple, split(a, 0, hi)))

    def test_a_float_equal_to_the_remembered_span_is_still_refused(self):
        t = SegTree1D(list(range(8)), get_pair("plus-min"))
        t.update(3, 5, 1)
        for bad in ((3.0, 5), (3, 5.0)):
            with pytest.raises(TypeError):
                t.update(*bad, 1)
            with pytest.raises(TypeError):
                t.decompose(*bad)
        t.reinit([0, 0, 0], 3)
        with pytest.raises(TypeError):
            t.reinit([0, 0, 0], 3.0)
        assert t.to_array() == [0, 1, 2, 0, 0, 0, 6, 7]

    def test_trees_sharing_a_layout_match_the_oracle(self, pair):
        # several trees of one extent, each span repeated across them as a
        # nested caller does, so most calls hit another tree's plan
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
                before = t.counters.visits_total
                if step % 5 == 4:
                    fresh = [rng.randint(*pair.sample_range) for _ in range(hi - lo + 1)]
                    t.reinit(fresh, lo)
                    o.data[lo:hi + 1] = fresh
                    assert t.counters.visits_total - before == meeting_nodes(t, lo, hi)
                else:
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
        # each thread repeats its own spans on its own tree, so a memo whose
        # span and nodes could come from different writers would hand one
        # thread the other's nodes.  CPython rarely switches threads inside
        # the memo's few bytecodes, so the bounds yield while they compare:
        # the other thread may then replace the memo between this thread's
        # reading the span and its reading the nodes
        class Bound(int):
            def __eq__(self, other):
                time.sleep(0)
                return int.__eq__(self, other)

            __hash__ = int.__hash__

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


def meeting_nodes(t, lo, hi):
    return sum(1 for a, b in zip(t.lo, t.hi) if a <= hi and lo <= b)


@pytest.mark.parametrize("w", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
class TestRangedArray:
    def test_to_array_is_a_slice_of_the_whole(self, pair, rng, n, w):
        t, o = pending_tree(pair, rng, n, w)
        whole = t.to_array()
        assert whole == o.data
        for lo in range(n):
            for hi in range(lo, n):
                before = t.counters.visits_total
                assert t.to_array(lo, hi) == whole[lo:hi + 1]
                assert t.counters.visits_total - before == meeting_nodes(t, lo, hi)

    def test_reinit_resets_only_its_span(self, pair, rng, n, w):
        for lo in range(n):
            for hi in range(lo, n):
                t, o = pending_tree(pair, rng, n, w)
                before = t.to_array()
                fresh = [rng.randint(*pair.sample_range) for _ in range(hi - lo + 1)]
                visits = t.counters.visits_total
                t.reinit(fresh, lo)
                assert t.counters.visits_total - visits == meeting_nodes(t, lo, hi)
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
                t.to_array(lo, hi)
        for values, lo in (([], 0), ([1, 2], 3), ([1] * 5, 0), ([1], -1)):
            with pytest.raises(ValueError):
                t.reinit(values, lo)
        assert t.to_array() == [1, 2, 3, 4]

    def test_whole_array_costs_node_count(self):
        t = SegTree1D(list(range(21)), get_pair("plus-plus"))
        for call in (t.to_array, lambda: t.reinit(list(range(21))),
                     lambda: t.to_array(0, 20), lambda: t.reinit([0] * 21, 0)):
            before = t.counters.visits_total
            call()
            assert t.counters.visits_total - before == t.node_count


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
