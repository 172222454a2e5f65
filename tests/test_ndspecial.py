import math
import operator
import random

import pytest

from uqtrees import (DenseTensor, NDTree, OperatorPair, SegTree1D, WorkloadConfig,
                     builtin_pairs, get_pair, run_verify)


def tensor(dims, data, pair_name):
    return DenseTensor(dims, data, get_pair(pair_name))


class TestBuild:
    def test_2x2_sum(self):
        t = NDTree(tensor((2, 2), [1, 2, 3, 4], "plus-plus"), get_pair("plus-plus"))
        assert t.query(((0, 1), (0, 1))) == 10

    def test_degenerate_extent(self, special_pair):
        t = NDTree(DenseTensor((1, 1), [7], special_pair), special_pair)
        assert t.query(((0, 0), (0, 0))) == 7

    def test_3d_ones(self):
        t = NDTree(tensor((2, 2, 2), [1] * 8, "plus-plus"), get_pair("plus-plus"))
        assert t.query(((0, 1), (0, 1), (0, 1))) == 8

    def test_rejects_every_non_special_pair(self):
        src = DenseTensor((2, 2), [1, 2, 3, 4], get_pair("plus-plus"))
        for pair in builtin_pairs():
            if pair.is_special:
                NDTree(DenseTensor((2, 2), [1, 2, 3, 4], pair), pair)
            else:
                with pytest.raises(ValueError, match="counterexample"):
                    NDTree(DenseTensor((2, 2), [1, 2, 3, 4], pair), pair)
        assert src.data == [1, 2, 3, 4]

    def test_1d_is_a_plain_tree(self, special_pair):
        t = NDTree(DenseTensor((6,), [1, 2, 3, 1, 2, 3], special_pair), special_pair)
        assert t.line is not None
        assert t.line.node_count == 11


class TestUpdateQuery:
    def test_2d_example(self):
        pair = get_pair("plus-plus")
        t = NDTree(tensor((2, 2), [1, 2, 3, 4], "plus-plus"), pair)
        t.update(((0, 0), (0, 1)), 5)
        assert t.query(((0, 1), (0, 0))) == 9  # [[6,7],[3,4]] column 0

    def test_identity_update(self, special_pair, rng):
        dims = (4, 5)
        data = [rng.randint(*special_pair.sample_range) for _ in range(20)]
        t = NDTree(DenseTensor(dims, data, special_pair), special_pair)
        boxes = [((a, b), (c, d))
                 for a in range(4) for b in range(a, 4)
                 for c in range(5) for d in range(c, 5)]
        before = [t.query(b) for b in boxes]
        t.update(((1, 2), (0, 4)), special_pair.update_identity)
        assert before == [t.query(b) for b in boxes]

    def test_min_full_update(self, rng):
        pair = get_pair("min-min")
        data = [rng.randint(3, 50) for _ in range(9)]
        t = NDTree(DenseTensor((3, 3), data, pair), pair)
        base = t.query(((0, 2), (0, 2)))
        assert base == min(data)
        t.update(((0, 2), (0, 2)), 1)
        assert t.query(((0, 2), (0, 2))) == min(base, 1)

    def test_single_cells_match_oracle(self, special_pair, rng):
        dims = (5, 4)
        data = [rng.randint(*special_pair.sample_range) for _ in range(20)]
        t = NDTree(DenseTensor(dims, data, special_pair), special_pair)
        o = DenseTensor(dims, data, special_pair)
        for _ in range(80):
            box = tuple(tuple(sorted((rng.randrange(n), rng.randrange(n)))) for n in dims)
            v = rng.randint(*special_pair.sample_range)
            t.update(box, v)
            o.update(box, v)
        for x in range(5):
            for y in range(4):
                cell = ((x, x), (y, y))
                assert t.query(cell) == o.query(cell)

    def test_out_of_bounds(self):
        t = NDTree(tensor((2, 2), [1] * 4, "plus-plus"), get_pair("plus-plus"))
        with pytest.raises(ValueError):
            t.update(((0, 2), (0, 1)), 1)
        with pytest.raises(ValueError):
            t.query(((0, 1),))


class TestDifferential:
    @pytest.mark.parametrize("dims", [(16,), (9, 7), (4, 3, 5)])
    def test_mixed_ops_match_oracle(self, special_pair, dims):
        cfg = WorkloadConfig("nd-special", special_pair.name, dims, ops=2000, seed=13)
        report = run_verify(cfg)
        assert report.ok, report.first_mismatch


def effective_fold(t, node, span):
    """Node fold over a column span, with every covering pending value applied.

    Walks root -> node collecting row_lazy queries; each pending fold is
    absorbed into the node's row_fold query through the aggregator, once per
    row of the node, which must then equal the true fold of the node's
    rows x span.
    The last-axis trees are bare SegTree1Ds, and a pending tree that no
    update has stamped yet is None, which reads as the identity.
    """
    pair = t.pair
    base = t.row_fold[node].query(*span)
    rows = t.hi[node] - t.lo[node] + 1
    acc = base
    path = [0]
    while path[-1] != node:
        cur = path[-1]
        nxt = t.left[cur] if t.lo[t.left[cur]] <= t.lo[node] <= t.hi[t.left[cur]] else t.right[cur]
        path.append(nxt)
    for anc in path:
        lazy = t.row_lazy[anc]
        pend = pair.update_identity if lazy is None else lazy.query(*span)
        acc = pair.aggregator(acc, pend, rows)
    return acc


class TestTrueValueRule:
    def test_every_node_every_span_matches_oracle(self):
        # after arbitrary updates, each outer node's effective fold over any
        # column span equals the brute-force fold of (its rows) x span
        pair = get_pair("plus-plus")
        for n in range(1, 9):
            for m in range(1, 9):
                rng = random.Random(100 * n + m)
                data = [rng.randint(-9, 9) for _ in range(n * m)]
                t = NDTree(DenseTensor((n, m), data, pair), pair)
                o = DenseTensor((n, m), data, pair)
                for _ in range(20):
                    box = (tuple(sorted((rng.randrange(n), rng.randrange(n)))),
                           tuple(sorted((rng.randrange(m), rng.randrange(m)))))
                    v = rng.randint(-9, 9)
                    t.update(box, v)
                    o.update(box, v)
                if t.line is not None:
                    continue
                for node in range(len(t.lo)):
                    for c0 in range(m):
                        for c1 in range(c0, m):
                            want = o.query(((t.lo[node], t.hi[node]), (c0, c1)))
                            assert effective_fold(t, node, (c0, c1)) == want


class TestPendingAllocation:
    def test_fresh_3d_tree_holds_no_pending_tree(self, special_pair):
        dims = (3, 4, 5)
        data = [special_pair.sample_range[1]] * 60
        t = NDTree(DenseTensor(dims, data, special_pair), special_pair)
        assert t.row_lazy == [None] * t.node_count
        for sub in t.row_fold:
            assert isinstance(sub, NDTree)
            assert sub.row_lazy == [None] * sub.node_count
            assert all(isinstance(x, SegTree1D) for x in sub.row_fold)

    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 1, 4), (2, 5, 3), (32, 32, 32)])
    def test_init_visits_closed_form(self, dims):
        a, b, c = dims
        t = NDTree(DenseTensor(dims, [0] * (a * b * c), get_pair("plus-plus")),
                   get_pair("plus-plus"))
        assert t.counters.visits_total == (2 * a - 1) * (1 + (2 * b - 1) * 2 * c)
        if dims == (32, 32, 32):
            assert t.counters.visits_total == 254079

    def test_allocation_counts_its_node_list(self):
        # a leaf stamp allocates one last-axis pending tree of 2m - 1 nodes;
        # the same update again allocates nothing
        pair = get_pair("plus-plus")
        n, m = 5, 6
        t = NDTree(DenseTensor((n, m), [1] * (n * m), pair), pair)
        box = ((3, 3), (1, 4))
        t.update(box, 2)
        first = t.counters.visits_last_op
        t.update(box, 2)
        assert first - t.counters.visits_last_op == 2 * m - 1

    def test_leaf_stamps_and_partly_allocated_pending_trees(self, special_pair):
        dims = (5, 3, 4)
        rng = random.Random(8)
        data = [rng.randint(*special_pair.sample_range) for _ in range(60)]
        t = NDTree(DenseTensor(dims, data, special_pair), special_pair)
        o = DenseTensor(dims, data, special_pair)
        full = o.full_box()
        assert t.query(full) == o.query(full)  # before any stamp
        v = special_pair.sample_range[1]
        t.update(((2, 2), (1, 1), (0, 3)), v)
        o.update(((2, 2), (1, 1), (0, 3)), v)
        # only the axis-0 leaf over row 2 holds a pending tree, and inside
        # it only the nodes on the path to column 1 are allocated
        stamped = [i for i, x in enumerate(t.row_lazy) if x is not None]
        assert [(t.lo[i], t.hi[i]) for i in stamped] == [(2, 2)]
        sub = t.row_lazy[stamped[0]]
        assert 0 < sum(x is not None for x in sub.row_fold + sub.row_lazy) < 2 * sub.node_count
        for x in range(5):
            for y in range(3):
                for z0 in range(4):
                    box = ((x, 4), (y, y), (z0, 3))
                    assert t.query(box) == o.query(box)
                    box = ((0, x), (0, y), (0, z0))
                    assert t.query(box) == o.query(box)


class TestCounterGrowth:
    def test_doubling_extent_costs_at_most_the_log_factor(self):
        # mean visits per op should grow like (log 2N / log N)^2 when both
        # extents double, plus generous slack
        import math
        from uqtrees.workloads import measure_mean_visits
        means = {n: measure_mean_visits(
            WorkloadConfig("nd-special", "plus-plus", (n, n), ops=1500, seed=6))
            for n in (64, 128, 256)}
        for a, b in ((64, 128), (128, 256)):
            bound = (math.log2(2 * a) / math.log2(a)) ** 2 + 0.5
            assert means[b] / means[a] <= bound


class TestLazyPairPlumbing:
    def test_builtin_pairs_are_self_companioned(self, special_pair):
        # the pending-value trees fold with the pair itself, at every level;
        # this update stamps the top tree's node over row 0 and, inside both
        # its pending tree and the fold tree of rows 0..1, the node over
        # column 0
        t = NDTree(DenseTensor((2, 2, 2), [1] * 8, special_pair), special_pair)
        assert special_pair.update_op is special_pair.query_op
        t.update(((0, 0), (0, 0), (0, 1)), special_pair.sample_range[1])
        for level in (t, t.row_lazy[1], t.row_fold[0]):
            allocated = [x for x in level.row_lazy if x is not None]
            assert allocated
            assert all(lazy.pair is special_pair for lazy in allocated)

    def test_rejects_a_special_pair_that_folds_differently(self):
        # fold-commuting, but query_op is not update_op: no registered pair is
        # like this, and the pending-value trees could not fold with it
        pair = OperatorPair("plus-plus-lambda", operator.add, lambda a, b: a + b,
                            0, 0, lambda a, v, k: a + v * k)
        with pytest.raises(ValueError, match="update_op is query_op"):
            NDTree(DenseTensor((2, 2), [1, 2, 3, 4], pair), pair)

    @pytest.mark.parametrize("dims", [(5, 6, 4), (7, 9)])
    def test_unregistered_one_operator_pair_matches_oracle(self, dims):
        # gcd-gcd declares nothing beyond its operator, identity and
        # aggregator; one operator with one identity is all nd-special needs
        pair = OperatorPair("gcd-gcd", math.gcd, math.gcd, 0, 0,
                            lambda a, v, k: math.gcd(a, v))
        rng = random.Random(11)
        for _ in range(20):
            # values 0..60 with a common factor per round, so that folds over
            # many cells do not all come out 1
            k = rng.choice((2, 3, 4, 5, 6, 10, 12))
            data = [k * rng.randint(0, 60 // k) for _ in range(math.prod(dims))]
            t = NDTree(DenseTensor(dims, data, pair), pair)
            o = DenseTensor(dims, data, pair)
            for _ in range(100):
                box = tuple(tuple(sorted((rng.randrange(n), rng.randrange(n)))) for n in dims)
                if rng.random() < 0.3:
                    v = k * rng.randint(0, 60 // k)
                    t.update(box, v)
                    o.update(box, v)
                else:
                    assert t.query(box) == o.query(box), box

    def test_counters_shared_across_levels(self):
        pair = get_pair("plus-plus")
        t = NDTree(tensor((8, 8), [0] * 64, "plus-plus"), pair)
        before = t.counters.visits_total
        t.update(((1, 6), (2, 5)), 3)
        spent = t.counters.visits_total - before
        # outer nodes alone are at most 2*8-1 = 15; inner-tree visits must show
        assert spent > 15
        assert t.counters.visits_last_op == spent
