import random

import pytest

from uqtrees import (DenseTensor, Grid2D, SegTree1D, WorkloadConfig,
                     get_pair, run_verify)
from uqtrees.seg1d import node_shape
from conftest import fold


def grid(dims, data, pair_name):
    pair = get_pair(pair_name)
    return Grid2D(DenseTensor(dims, data, pair), pair)


class TestBuild:
    def test_root_columns_are_columnwise_min(self):
        g = grid((2, 3), [1, 2, 3, 4, 5, 6], "plus-min")
        assert g.inner[0].to_array() == [1, 2, 3]

    def test_single_row(self):
        g = grid((1, 4), [9, 8, 7, 6], "plus-min")
        assert g.inner[0].to_array() == [9, 8, 7, 6]

    def test_root_columns_are_columnwise_sum(self):
        g = grid((2, 2), [1, 2, 3, 4], "plus-plus")
        assert g.inner[0].to_array() == [4, 6]

    def test_needs_2d(self):
        pair = get_pair("plus-min")
        with pytest.raises(ValueError):
            Grid2D(DenseTensor((4,), [1, 2, 3, 4], pair), pair)

    def test_every_node_matches_columnwise_fold(self, pair, rng):
        # built and after every update, each outer node's column tree holds
        # the column folds of that node's rows, node by node
        for n, m in ((5, 6), (1, 7), (7, 1), (7, 11), (13, 5)):
            data = [rng.randint(*pair.sample_range) for _ in range(n * m)]
            g = Grid2D(DenseTensor((n, m), data, pair), pair)
            o = DenseTensor((n, m), data, pair)

            def check():
                for i in range(g.node_count):
                    want = [o.query(((g.lo[i], g.hi[i]), (y, y))) for y in range(m)]
                    assert g.inner[i].to_array() == want
                    g.inner[i].validate(DenseTensor((m,), want, pair))

            check()
            # a covered update leaves pending values in the column trees,
            # then partial row spans rebuild them on narrow, one-column and
            # full-width column spans
            boxes = [((0, n - 1), (m // 3, m - 1)),
                     ((n // 2, n - 1), (m // 2, m // 2)),
                     ((0, n // 2), (0, m - 1)),
                     ((1 % n, n - 1), (0, min(1, m - 1))),
                     ((n // 3, n // 2), (m // 3, (2 * m) // 3))]
            boxes += [(tuple(sorted((rng.randrange(n), rng.randrange(n)))),
                       tuple(sorted((rng.randrange(m), rng.randrange(m)))))
                      for _ in range(10)]
            for box in boxes:
                v = rng.randint(*pair.sample_range)
                g.update(box, v)
                o.update(box, v)
                check()

    def test_rebuild_keeps_pending_values_outside_the_span(self, pair, rng):
        n, m = 8, 8
        data = [rng.randint(*pair.sample_range) for _ in range(n * m)]
        g = Grid2D(DenseTensor((n, m), data, pair), pair)
        o = DenseTensor((n, m), data, pair)
        covered, partial = ((0, 7), (2, 5)), ((1, 6), (3, 3))
        g.update(covered, 2)
        o.update(covered, 2)
        assert any(z != pair.update_identity for z in g.inner[0].laz)
        g.update(partial, 2)
        o.update(partial, 2)
        assert ("rebuild", 0) in g.last_events
        want = [o.query(((0, 7), (y, y))) for y in range(m)]
        g.inner[0].validate(DenseTensor((m,), want, pair))
        assert g.inner[0].to_array() == want


class TestUpdateQuery:
    def test_example_sequence(self):
        g = grid((3, 3), [5, 2, 8, 1, 9, 3, 7, 4, 6], "plus-min")
        g.update(((0, 1), (1, 2)), 10)
        assert g.query(((0, 2), (0, 1))) == 1
        assert g.query(((2, 2), (0, 2))) == 4  # bottom row untouched

    def test_identity_update(self, pair, rng):
        n, m = 4, 5
        data = [rng.randint(*pair.sample_range) for _ in range(n * m)]
        g = Grid2D(DenseTensor((n, m), data, pair), pair)
        boxes = [((a, b), (c, d))
                 for a in range(n) for b in range(a, n)
                 for c in range(m) for d in range(c, m)]
        before = [g.query(b) for b in boxes]
        g.update(((0, 2), (1, 3)), pair.update_identity)
        assert before == [g.query(b) for b in boxes]

    def test_single_cell_round_trip(self, pair, rng):
        data = [rng.randint(*pair.sample_range) for _ in range(16)]
        g = Grid2D(DenseTensor((4, 4), data, pair), pair)
        o = DenseTensor((4, 4), data, pair)
        v = rng.randint(*pair.sample_range)
        g.update(((2, 2), (3, 3)), v)
        o.update(((2, 2), (3, 3)), v)
        assert g.query(((2, 2), (3, 3))) == o.query(((2, 2), (3, 3)))

    def test_fresh_full_query(self, pair, rng):
        data = [rng.randint(*pair.sample_range) for _ in range(35)]
        g = Grid2D(DenseTensor((5, 7), data, pair), pair)
        o = DenseTensor((5, 7), data, pair)
        assert g.query(((0, 4), (0, 6))) == o.query(((0, 4), (0, 6)))

    @pytest.mark.parametrize("pair_name", ["plus-min", "plus-max", "plus-plus", "times-plus"])
    def test_differential(self, pair_name):
        cfg = WorkloadConfig("grid2d-general", pair_name, (11, 9), ops=2500, seed=21)
        report = run_verify(cfg)
        assert report.ok, report.first_mismatch


class TestNodeColumnLemma:
    def test_inner_query_equals_row_restricted_fold(self):
        # after any updates, every outer node's inner tree answers queries
        # as if it were the dense fold of that node's rows
        pair = get_pair("plus-min")
        for n in range(1, 9):
            for m in range(1, 9):
                rng = random.Random(31 * n + m)
                data = [rng.randint(-9, 9) for _ in range(n * m)]
                g = Grid2D(DenseTensor((n, m), data, pair), pair)
                o = DenseTensor((n, m), data, pair)
                for _ in range(15):
                    box = (tuple(sorted((rng.randrange(n), rng.randrange(n)))),
                           tuple(sorted((rng.randrange(m), rng.randrange(m)))))
                    v = rng.randint(-9, 9)
                    g.update(box, v)
                    o.update(box, v)
                for i in range(g.node_count):
                    for c0 in range(m):
                        for c1 in range(c0, m):
                            want = o.query(((g.lo[i], g.hi[i]), (c0, c1)))
                            assert g.inner[i].query(c0, c1) == want


class TestRebuildOrdering:
    def test_children_finalized_before_parent(self):
        g = grid((8, 8), [0] * 64, "plus-min")
        g.update(((1, 6), (2, 5)), 3)
        seen = {}
        for stamp, (kind, node) in enumerate(g.last_events):
            seen[node] = stamp
        for kind, node in g.last_events:
            if kind == "rebuild":
                for child in (g.left[node], g.right[node]):
                    if child in seen:
                        assert seen[child] < seen[node]

    def test_rebuilds_only_on_partial_overlap(self):
        g = grid((8, 8), [0] * 64, "plus-min")
        g.update(((0, 7), (1, 1)), 2)  # full row span: no partial nodes
        kinds = {k for k, _ in g.last_events}
        assert kinds == {"inner-update"}
        assert len(g.last_events) == g.node_count


class TestScaledPair:
    """The pair as an inner tree whose slots each weigh ``w`` cells sees it.

    ``SegTree1D(..., cell_weight=w)`` is that scaled pair: a slot absorbing
    ``v`` becomes ``aggregator(slot, v, w)``, stacked values still combine
    with the base ``update_op``, and ``k`` slots aggregate as ``w * k``
    cells.
    """

    def test_aggregator_scales_the_count(self, pair, rng):
        for _ in range(50):
            k = rng.randint(1, 12)
            slots = [rng.randint(*pair.sample_range) for _ in range(k)]
            v = rng.randint(*pair.sample_range)
            t = SegTree1D(slots, pair, cell_weight=3)
            assert t.sz == [3 * n for n in node_shape(k).size]
            t.update(0, k - 1, v)
            assert t.query(0, k - 1) == pair.aggregator(fold(pair, slots), v, 3 * k)

    def test_element_update_is_one_slot(self, pair, rng):
        for _ in range(100):
            a, v = (rng.randint(*pair.sample_range) for _ in range(2))
            t = SegTree1D([a], pair, cell_weight=4)
            t.update(0, 0, v)
            assert t.query(0, 0) == pair.aggregator(a, v, 4)

    def test_stacked_values_combine_with_base_op(self, pair, rng):
        # applying x then y to a slot is one application of update_op(x, y);
        # in particular the order of stacked values never matters
        for _ in range(200):
            a, x, y = (rng.randint(*pair.sample_range) for _ in range(3))
            stacked = []
            for first, second in ((x, y), (y, x)):
                t = SegTree1D([a], pair, cell_weight=5)
                t.update(0, 0, first)
                t.update(0, 0, second)
                stacked.append(t.query(0, 0))
            assert stacked == [pair.aggregator(a, pair.update_op(x, y), 5)] * 2

    def test_identities_pass_through(self, pair):
        t = SegTree1D([3, 1, 2], pair, cell_weight=2)
        before = t.to_array()
        t.update(0, 2, pair.update_identity)
        assert t.to_array() == before
        assert t.laz == [pair.update_identity] * t.node_count


class TestCounters:
    def test_query_cost_stays_polylog(self):
        g = grid((64, 64), [0] * 4096, "plus-min")
        g.query(((3, 60), (5, 59)))
        # log(64)*log(64) with small constants; far under one row of 64
        assert g.counters.visits_last_op < 64 * 8

    def test_update_rebuild_cost(self):
        # one update costs the outer walk (1, plus 2 per internal node it
        # reaches), one inner update per covered node, and per rebuild one
        # walk over the column nodes that meet the span for reinit plus one
        # per child read with to_array; a child rebuilt just before hands
        # its columns over and is not read
        n = m = 16
        shape = node_shape(m)
        spans = list(zip(shape.lo, shape.hi))
        for box in (((3, 12), (2, 13)), ((3, 12), (7, 7)), ((1, 14), (0, 15)),
                    ((5, 5), (4, 9)), ((0, 15), (2, 13))):
            g = grid((n, m), [0] * (n * m), "plus-min")
            (xlo, xhi), (ylo, yhi) = box
            before = g.counters.visits_total
            g.update(box, 1)
            spent = g.counters.visits_total - before

            meets = sum(1 for a, b in spans if a <= yhi and ylo <= b)
            inside = sum(1 for a, b in spans if ylo <= a and b <= yhi)
            inner_update = 1 + 2 * (meets - inside)
            kind = {i: k for k, i in g.last_events}
            rebuilt = [i for i, k in kind.items() if k == "rebuild"]
            outer = 1 + 2 * sum(1 for i in kind if g.left[i] >= 0)
            reads = sum(1 for i in rebuilt for c in (g.left[i], g.right[i])
                        if kind.get(c) != "rebuild")
            assert spent == (outer + inner_update * (len(kind) - len(rebuilt))
                             + meets * (len(rebuilt) + reads))
            assert (len(rebuilt) > 0) == ((xlo, xhi) != (0, n - 1))

    def test_one_column_rebuild_is_cheaper_than_full_width(self):
        costs = []
        for cols in ((30, 30), (0, 63)):
            g = grid((64, 64), [0] * 4096, "plus-min")
            g.update(((5, 50), cols), 1)
            costs.append(g.counters.visits_last_op)
        one, full = costs
        assert one < full
