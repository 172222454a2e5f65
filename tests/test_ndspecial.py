import itertools
import math
import operator
import random

import pytest

from uqtrees import (DenseTensor, NDTree, OperatorPair, SegTree1D, WorkloadConfig,
                     builtin_pairs, get_pair, run_verify)
from uqtrees.boxes import draw_box
from uqtrees.seg1d import kernels
from conftest import KERNEL_CASES, edge_spans, full_box, sample_cell


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
    lo, hi, left, right = t.shape[:4]
    rows = hi[node] - lo[node] + 1
    acc = base
    path = [0]
    while path[-1] != node:
        cur = path[-1]
        nxt = left[cur] if lo[left[cur]] <= lo[node] <= hi[left[cur]] else right[cur]
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
                for node in range(len(t.shape.lo)):
                    for c0 in range(m):
                        for c1 in range(c0, m):
                            want = o.query(((t.shape.lo[node], t.shape.hi[node]), (c0, c1)))
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

    def test_max_update_visits_shows_the_allocation_spike(self):
        # the first update allocates every pending tree it stamps, so it
        # costs more than a late update, when most of them exist; the mean
        # hides that spike and the maximum keeps it
        pair = get_pair("plus-plus")
        t = NDTree(DenseTensor((32, 32), [1] * 1024, pair), pair)
        c = t.counters
        rng = random.Random(4)
        updates, queries = [], []
        for k in range(2000):
            box = draw_box(rng, (32, 32))
            if k % 4:
                t.update(box, 1)
                updates.append(c.visits_last_op)
            else:
                t.query(box)
                queries.append(c.visits_last_op)
            assert c.max_update_visits == max(updates, default=0)
            assert c.max_query_visits == max(queries)
        late = updates[-1000:]
        assert updates[0] > sum(late) / len(late)

    def test_leaf_stamps_and_partly_allocated_pending_trees(self, special_pair):
        dims = (5, 3, 4)
        rng = random.Random(8)
        data = [rng.randint(*special_pair.sample_range) for _ in range(60)]
        t = NDTree(DenseTensor(dims, data, special_pair), special_pair)
        o = DenseTensor(dims, data, special_pair)
        full = full_box(o)
        assert t.query(full) == o.query(full)  # before any stamp
        v = special_pair.sample_range[1]
        t.update(((2, 2), (1, 1), (0, 3)), v)
        o.update(((2, 2), (1, 1), (0, 3)), v)
        # only the axis-0 leaf over row 2 holds a pending tree, and inside
        # it only the nodes on the path to column 1 are allocated
        stamped = [i for i, x in enumerate(t.row_lazy) if x is not None]
        assert [(t.shape.lo[i], t.shape.hi[i]) for i in stamped] == [(2, 2)]
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


def split_bound(n):
    """At most ``(covered, partial)`` nodes in the split of any span of
    extent ``n``: the mid-split tree has depth ``D = ceil(log2 n)``, and a
    depth holds at most two nodes of each kind (the root alone at depth 0),
    partial nodes only above the leaves."""
    d = (n - 1).bit_length()
    return max(2 * d, 1), max(2 * d - 1, 0)


def level_bound(dims, reads):
    """Visits of one walk over ``dims``: the last axis walks ``1 + 2P``
    nodes; a level walks ``1 + 2P`` nodes of its own and ``reads(C, P)``
    trees of the level below."""
    covered, partial = split_bound(dims[-1])
    bound = 1 + 2 * partial
    for n in reversed(dims[:-1]):
        covered, partial = split_bound(n)
        bound = 1 + 2 * partial + reads(covered, partial) * bound
    return bound


def query_visit_bound(dims):
    """Worst case of one query: a covered node reads its ``row_fold`` and
    its ``row_lazy``, a partial node its ``row_lazy`` alone."""
    return level_bound(dims, lambda c, p: 2 * c + p)


def update_visit_bound(dims):
    """Worst case of one update, pending-tree allocation left out: a covered
    node stamps its ``row_lazy``, a partial node repairs its ``row_fold``."""
    return level_bound(dims, lambda c, p: c + p)


BOUND_SHAPES = [(1, 1), (1, 13), (13, 1), (7, 11), (32, 32),
                (1, 1, 1), (1, 5, 1), (5, 7, 3), (13, 1, 11), (32, 32, 32)]


def bound_boxes(dims, rng):
    """150 seeded boxes, then every box of adversarial spans."""
    boxes = [draw_box(rng, dims) for _ in range(150)]
    return boxes + list(itertools.product(*map(edge_spans, dims)))


class TestWorstCaseBounds:
    """The per-operation visit bounds of the fold-commuting case, checked on
    the costliest single operation (``max_query_visits``/``max_update_visits``)."""

    def test_bounds_in_closed_form(self):
        assert query_visit_bound((1,)) == update_visit_bound((1,)) == 1
        # 32 x 32: D = 5, so C <= 10 and P <= 9 on each axis
        assert query_visit_bound((32, 32)) == 1 + 18 + 29 * 19
        assert update_visit_bound((32, 32)) == 1 + 18 + 19 * 19

    @pytest.mark.parametrize("dims", BOUND_SHAPES, ids=lambda d: "x".join(map(str, d)))
    def test_every_query_stays_under_its_worst_case_bound(self, dims):
        pair = get_pair("plus-plus")
        rng = random.Random(math.prod(dims) + len(dims))
        data = [rng.randint(-9, 9) for _ in range(math.prod(dims))]
        t = NDTree(DenseTensor(dims, data, pair), pair)
        boxes = bound_boxes(dims, rng)
        for box in boxes:
            t.update(box, rng.randint(-9, 9))
            t.query(box)
        assert t.counters.query_ops == len(boxes)
        assert 0 < t.counters.max_query_visits <= query_visit_bound(dims)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3 step 2: the first update "
                       "that reaches a node allocates its pending tree, 2m - 1 "
                       "visits per last-axis tree, beyond the polylog bound")
    def test_every_update_stays_under_its_worst_case_bound(self):
        pair = get_pair("plus-plus")
        over = []
        for dims in BOUND_SHAPES:
            rng = random.Random(math.prod(dims) + len(dims))
            t = NDTree(DenseTensor(dims, [0] * math.prod(dims), pair), pair)
            for box in bound_boxes(dims, rng):
                t.update(box, rng.randint(-9, 9))
            if t.counters.max_update_visits > update_visit_bound(dims):
                over.append((dims, t.counters.max_update_visits, update_visit_bound(dims)))
        assert not over


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


# (visits_total, update_visits, query_visits) after 1500 seeded ops, recorded
# when every nested level still checked and split its own box
DEEP_VISITS = {
    ((3, 4, 2, 5), "plus-plus"): (183489, 70918, 111481),
    ((3, 4, 2, 5), "times-times"): (183642, 71755, 110797),
    ((3, 4, 2, 5), "min-min"): (183489, 70918, 111481),
    ((3, 4, 2, 5), "max-max"): (183489, 70918, 111481),
    ((4, 4, 4, 4), "plus-plus"): (336294, 136842, 196652),
    ((4, 4, 4, 4), "times-times"): (336912, 137866, 196246),
    ((4, 4, 4, 4), "min-min"): (336294, 136842, 196652),
    ((4, 4, 4, 4), "max-max"): (336294, 136842, 196652),
    ((2, 1, 3, 1, 2), "plus-plus"): (40899, 14768, 26050),
    ((2, 1, 3, 1, 2), "times-times"): (41033, 14677, 26275),
    ((2, 1, 3, 1, 2), "min-min"): (40899, 14768, 26050),
    ((2, 1, 3, 1, 2), "max-max"): (40899, 14768, 26050),
}


class TestDeepTrees:
    # the per-axis splits must hold at any depth, and in the cube every axis
    # shares one node_shape
    @pytest.mark.parametrize("dims", [(3, 4, 2, 5), (4, 4, 4, 4), (2, 1, 3, 1, 2)])
    def test_mixed_ops_match_oracle(self, special_pair, dims):
        from uqtrees.workloads import _replay
        cfg = WorkloadConfig("nd-special", special_pair.name, dims, ops=1500, seed=5)
        t, report, _, _, _ = _replay(cfg, True)
        assert report.ok, report.first_mismatch
        c = t.counters
        got = (c.visits_total, c.update_visits, c.query_visits)
        assert got == DEEP_VISITS[dims, special_pair.name]

    @pytest.mark.parametrize("dims", [(3, 4, 5), (4, 4, 4, 4)])
    def test_each_operation_checks_and_splits_once(self, monkeypatch, dims):
        import uqtrees.ndspecial as nd
        from uqtrees.boxes import draw_box
        calls = {"check_box": 0, "split": 0}

        def counted(name):
            fn = getattr(nd, name)

            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call
        for name in calls:
            monkeypatch.setattr(nd, name, counted(name))
        pair = get_pair("plus-plus")
        t = NDTree(DenseTensor(dims, [1] * math.prod(dims), pair), pair)
        rng = random.Random(3)
        for k in range(40):
            box = draw_box(rng, dims)
            calls.update(check_box=0, split=0)
            if k % 2:
                t.query(box)
            else:
                t.update(box, 1)
            assert calls == {"check_box": 1, "split": len(dims)}, box


def bare_trees(t):
    """Every last-axis entry of the NDTree ``t``, None where no tree is
    allocated, in one fixed order."""
    if t._bare:
        return t.row_fold + t.row_lazy
    return [x for sub in t.row_fold + t.row_lazy
            for x in ([None] if sub is None else bare_trees(sub))]


SPECIAL_CASES = [(p, c) for p, c in KERNEL_CASES if p.is_special]


class TestFoldCommutingKernels:
    # a twin tree whose 2-D levels loop in plain Python over the generic
    # update and query kernels of each last-axis tree; a prime last axis
    # splits into many partial nodes
    @pytest.mark.parametrize("pair, cells", SPECIAL_CASES,
                             ids=[f"{p.name}-{c}" for p, c in SPECIAL_CASES])
    @pytest.mark.parametrize("dims", [(6, 13), (3, 4, 11), (2, 3, 4, 7), (2, 2, 2, 2, 5)],
                             ids=["6x13", "3x4x11", "2x3x4x7", "2x2x2x2x5"])
    def test_every_bare_tree_matches_the_generic_walks(self, monkeypatch, pair, cells,
                                                        dims):
        k = kernels(pair)
        generic = []

        def level(n, splits, depth):
            # the overlaps from the axis-0 span, not from the split's parts
            (covered, parts), (ycov, yparts) = splits[depth], splits[depth + 1]
            lo, hi = n.shape.lo, n.shape.hi
            xlo, xhi = lo[covered[0]], hi[covered[-1]]
            overlap = [(i, min(hi[i], xhi) - max(lo[i], xlo) + 1) for i, _ in parts]
            generic.append(n)
            return covered, overlap, ycov, tuple(i for i, _ in yparts)

        def update_level(n, splits, depth, value):
            covered, overlap, ycov, ypartial = level(n, splits, depth)
            stamps = [(n.row_lazy, i, value) for i in covered]
            stamps += [(n.row_fold, i, pair.aggregator(pair.update_identity, value, j))
                       for i, j in overlap]
            visits = 1 + 2 * len(overlap)
            for trees, i, v in stamps:
                if trees[i] is None:
                    trees[i] = n._allocate()
                visits += k.update(trees[i], ycov, ypartial, v)
            return visits

        def query_level(n, splits, depth):
            covered, overlap, ycov, _ = level(n, splits, depth)
            out, visits = pair.query_identity, 1 + 2 * len(overlap)
            held = [(n.row_fold[i], None) for i in covered]
            held += [(n.row_lazy[i], n.shape.hi[i] - n.shape.lo[i] + 1) for i in covered]
            held += [(n.row_lazy[i], j) for i, j in overlap]
            for t, rows in held:
                if t is not None:
                    x, m = k.query(t, t.shape.lo[ycov[0]], t.shape.hi[ycov[-1]])
                    out = (pair.query_op(out, x) if rows is None
                           else pair.aggregator(out, x, rows))
                    visits += m
            return out, visits

        rng = random.Random(41)
        data = [sample_cell(pair, rng, cells) for _ in range(math.prod(dims))]
        t, twin = (NDTree(DenseTensor(dims, data, pair), pair) for _ in range(2))
        o = DenseTensor(dims, data, pair)
        for step in range(120):
            box = draw_box(rng, dims)
            v = sample_cell(pair, rng, cells) if step % 2 == 0 else None
            if v is None:
                got = t.query(box)
            else:
                t.update(box, v)
                o.update(box, v)
            with monkeypatch.context() as m:
                m.setattr(k, "update_level", update_level)
                m.setattr(k, "query_level", query_level)
                want = twin.query(box) if v is None else twin.update(box, v)
            if v is None:
                assert got == want == o.query(box), (step, box)
            for a, b in zip(bare_trees(t), bare_trees(twin), strict=True):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.val == b.val and a.laz == b.laz, (step, box)
            assert t.counters.visits_last_op == twin.counters.visits_last_op
            assert t.counters.visits_total == twin.counters.visits_total
        # a tree of three or more axes reaches its 2-D levels from the nest
        # walk, which must find the level walk on the patched kernels
        assert generic and all(len(n.dims) == 2 for n in generic)
        assert any(n is twin for n in generic) == (len(dims) == 2)
