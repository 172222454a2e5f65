import math
import random
import sys
import threading
import tracemalloc

import pytest

from uqtrees import (DenseTensor, Grid2D, OperatorPair, SegTree1D, WorkloadConfig,
                     get_pair, run_verify)
from uqtrees.seg1d import node_shape, split
from conftest import (KERNEL_CASES, KERNEL_IDS, edge_spans, fold, per_tree_query,
                      reinit_span, sample_cell, stamped)


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
        for n, m in ((5, 6), (1, 7), (7, 1), (7, 11), (13, 5), (9, 7)):
            data = [rng.randint(*pair.sample_range) for _ in range(n * m)]
            g = Grid2D(DenseTensor((n, m), data, pair), pair)
            o = DenseTensor((n, m), data, pair)

            def check(box=None, v=None, held=None):
                if box is not None:
                    # every tree of a covered subtree stamped the column
                    # span's covered nodes, and only those
                    rows, cols = box
                    ccov = split(g.inner[0].shape, *cols)[0]
                    for i in split(g.shape, *rows)[0]:
                        for j in range(i, i + 2 * (g.shape.hi[i] - g.shape.lo[i]) + 1):
                            assert g.inner[j].laz == stamped(pair, held[j], ccov, v)
                for i in range(g.node_count):
                    want = [o.query(((g.shape.lo[i], g.shape.hi[i]), (y, y))) for y in range(m)]
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
                held = [list(t.laz) for t in g.inner]
                g.update(box, v)
                o.update(box, v)
                check(box, v, held)

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


def true_value(t, y):
    """Element ``y`` of the SegTree1D ``t``, in plain Python: its leaf's
    fold absorbs the pending values on the path down to it."""
    u, agg = t.pair.update_op, t.pair.aggregator
    i, z = 0, t.pair.update_identity
    while True:
        z = u(z, t.laz[i])
        l = t.shape.left[i]
        if l < 0:
            return agg(t.val[i], z, t.sz[i])
        i = l if y <= t.shape.hi[l] else t.shape.right[i]


def unfused_update(g, box, value):
    """``Grid2D.update`` without its fused rebuild: each node of a covered
    subtree updates its column tree; each partial node, children first, reads
    its children's true span columns, folds them with ``query_op`` and
    writes them back with the plain-Python ``reinit_span``."""
    (xlo, xhi), (ylo, yhi) = box
    covered, partial = split(g.shape, xlo, xhi)
    for i in covered:
        for j in range(i, i + 2 * (g.shape.hi[i] - g.shape.lo[i]) + 1):
            g.inner[j].update(ylo, yhi, value)
    for i in reversed(partial):
        l, r = (g.inner[c] for c in (g.shape.left[i], g.shape.right[i]))
        cols = [g.pair.query_op(true_value(l, y), true_value(r, y))
                for y in range(ylo, yhi + 1)]
        reinit_span(g.inner[i], cols, ylo)


class TestFusedRebuild:
    @pytest.mark.parametrize("pair, cells", KERNEL_CASES, ids=KERNEL_IDS)
    @pytest.mark.parametrize("n, m", [(9, 7), (6, 13), (33, 17)])
    def test_every_inner_tree_matches_the_unfused_path(self, pair, cells, n, m):
        # narrow column updates leave pending values on nodes that a wide
        # column span's split names partial, so each rebuild has to carry them
        rng = random.Random(29)
        data = [sample_cell(pair, rng, cells) for _ in range(n * m)]
        g, twin = (Grid2D(DenseTensor((n, m), data, pair), pair) for _ in range(2))
        carried = 0
        # (left child rebuilt, right child rebuilt) per rebuild: each of the
        # kernel's three loop bodies, and the both-rebuilt case, must run
        cases = set()
        for _ in range(12):
            rows = tuple(sorted(rng.randrange(n) for _ in range(2)))
            col = rng.randrange(m)
            boxes = [(rows, (col, min(col + rng.randrange(2), m - 1))),
                     ((0, n - 1), (col, col))]
            # a wide column span on a partial row span
            xlo = rng.randrange(1, n // 2)
            boxes.append(((xlo, rng.randrange(xlo, n)), (rng.randrange(2), m - 1)))
            for box in boxes:
                (xlo, xhi), (ylo, yhi) = box
                _, cpartial = split(node_shape(m), ylo, yhi)
                rebuilt = split(g.shape, xlo, xhi)[1]
                for i in rebuilt:
                    cases.add((g.shape.left[i] in rebuilt, g.shape.right[i] in rebuilt))
                    carried += any(g.inner[c].laz[j] != pair.update_identity
                                   for c in (g.shape.left[i], g.shape.right[i]) for j in cpartial)
                v = sample_cell(pair, rng, cells)
                g.update(box, v)
                unfused_update(twin, box, v)
                for t, want in zip(g.inner, twin.inner):
                    assert t.val == want.val
                    assert t.laz == want.laz
        assert carried
        assert cases == {(False, False), (False, True), (True, False), (True, True)}

    def test_nan_cells_keep_the_fold_order(self):
        # min answers nan by argument order, so every rebuild loop must fold
        # its left child first: here the left child, then the right one, is
        # rebuilt and a nan meets a number
        pair, nan = get_pair("plus-min"), float("nan")
        for cells, rows in (([nan, 1, 2], (1, 2)), ([1, 0, nan, 5], (2, 2))):
            g, twin = (Grid2D(DenseTensor((len(cells), 1), cells, pair), pair) for _ in range(2))
            g.update((rows, (0, 0)), 5)
            unfused_update(twin, (rows, (0, 0)), 5)
            assert [repr(t.val) for t in g.inner] == [repr(t.val) for t in twin.inner]

    def test_only_children_not_rebuilt_carry_their_pending_values(self):
        # a child rebuilt earlier in the call is read as it stands: one
        # aggregator call per span node per child not rebuilt, none when
        # both were rebuilt
        calls = []

        def agg(a, v, k):
            calls.append(k)
            return math.gcd(a, v)

        pair = OperatorPair("gcd-gcd", math.gcd, math.gcd, 0, 0, agg, sample_range=(0, 60))
        rng = random.Random(30)
        n, m = 6, 13
        data = [rng.randint(*pair.sample_range) for _ in range(n * m)]
        g = Grid2D(DenseTensor((n, m), data, pair), pair)
        shape, cshape = g.shape, node_shape(m)
        # row spans (1, 4) and (4, 5) reach both, left, right and neither
        # child rebuilt
        for rows in ((1, 4), (4, 5), (2, 3), (0, 4)):
            for cols in ((0, m - 1), (3, 7), (5, 5)):
                partial = split(shape, *rows)[1]
                ccov, cpar = split(cshape, *cols)
                nodes = len(cpar) + sum(2 * (cshape.hi[i] - cshape.lo[i]) + 1 for i in ccov)
                carries = sum((shape.left[i] not in partial) + (shape.right[i] not in partial)
                              for i in partial)
                calls.clear()
                g.inner[0]._k.rebuild(g.inner, partial, shape.left, shape.right, ccov, cpar)
                assert len(calls) == nodes * carries, (rows, cols)


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


class TestQueryMany:
    """``Grid2D.query`` splits the column span once and folds it across every
    covered row node's tree in one ``query_many`` call; the reference is one
    compiled ``query`` walk per covered row node (``conftest.per_tree_query``)."""

    @pytest.mark.parametrize("pair, cells", KERNEL_CASES, ids=KERNEL_IDS)
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 13), (13, 1), (33, 17), (64, 64)])
    def test_matches_the_per_tree_walks(self, pair, cells, n, m):
        rng = random.Random(100 * n + m)
        g = Grid2D(DenseTensor((n, m), [sample_cell(pair, rng, cells) for _ in range(n * m)],
                               pair), pair)
        # covered column spans leave pending values for a query to carry down
        for _ in range(12):
            box = tuple(tuple(sorted(rng.randrange(d) for _ in range(2))) for d in (n, m))
            g.update(box, sample_cell(pair, rng, cells))
        rows = edge_spans(n) + [tuple(sorted(rng.randrange(n) for _ in range(2)))]
        if m <= 17:
            cols = [(a, b) for a in range(m) for b in range(a, m)]
        else:
            cols = edge_spans(m) + [tuple(sorted(rng.randrange(m) for _ in range(2)))
                                    for _ in range(40)]
        held = [(list(t.val), list(t.laz)) for t in g.inner]
        for box in ((r, c) for r in rows for c in cols):
            want, visits = per_tree_query(g, box)
            assert g.query(box) == want, box
            assert g.counters.visits_last_op == visits, box
        assert [(t.val, t.laz) for t in g.inner] == held

    def test_float_answers_are_bit_identical(self):
        # magnitudes far apart make every float sum depend on its order
        pair = get_pair("plus-plus")
        rng = random.Random(5)
        n, m = 13, 29

        def cell():
            return rng.choice((1e16, -1e16, 1.0, 0.1, 3.3)) * rng.random()

        g = Grid2D(DenseTensor((n, m), [cell() for _ in range(n * m)], pair), pair)
        for _ in range(30):
            g.update(tuple(tuple(sorted(rng.randrange(d) for _ in range(2))) for d in (n, m)),
                     cell())
        for r in edge_spans(n) + [(2, 9), (5, 11)]:
            for c in [(a, b) for a in range(0, m, 3) for b in range(a, m, 2)]:
                want, visits = per_tree_query(g, (r, c))
                assert repr(g.query((r, c))) == repr(want), (r, c)
                assert g.counters.visits_last_op == visits

    def test_scratch_does_not_grow_with_the_column_extent(self):
        # a 131,071-node column layout: a per-query scratch of one entry per
        # column node would take about 1 MiB
        pair = get_pair("plus-min")
        n, m = 4, 65536
        g = Grid2D(DenseTensor((n, m), [(7 * k) % 101 for k in range(n * m)], pair), pair)
        g.update(((0, 3), (3, m - 5)), -4)
        box = ((1, 3), (1, m - 2))
        want, _ = per_tree_query(g, box)
        tracemalloc.start()
        try:
            got = g.query(box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 64 * 1024, peak

    def test_two_threads_reading_one_grid_get_the_oracle_answers(self):
        pair = get_pair("plus-min")
        rng = random.Random(13)
        n, m = 33, 17
        data = [rng.randint(-50, 50) for _ in range(n * m)]
        g = Grid2D(DenseTensor((n, m), data, pair), pair)
        o = DenseTensor((n, m), data, pair)
        for _ in range(20):
            box = tuple(tuple(sorted(rng.randrange(d) for _ in range(2))) for d in (n, m))
            v = rng.randint(-9, 9)
            g.update(box, v)
            o.update(box, v)
        scripts = [[tuple(tuple(sorted(rng.randrange(d) for _ in range(2))) for d in (n, m))
                    for _ in range(400)] for _ in range(2)]
        got = [[], []]
        start = threading.Barrier(2)
        errors = []

        def run(boxes, out):
            try:
                start.wait(timeout=60)
                for box in boxes:
                    out.append(g.query(box))
            except Exception as e:  # pragma: no cover - reported below
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=args) for args in zip(scripts, got)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert not errors
        for boxes, out in zip(scripts, got):
            assert out == [o.query(box) for box in boxes]


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
                            want = o.query(((g.shape.lo[i], g.shape.hi[i]), (c0, c1)))
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
                for child in (g.shape.left[node], g.shape.right[node]):
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


def clog2(n):
    return (n - 1).bit_length()


def update_visit_bound(n, m):
    """Worst-case visits of one update on an ``n`` x ``m`` grid: the row
    split, every tree of the covered subtrees stamping the column span, and
    per rebuild (and per child read) the column nodes meeting the span."""
    return (1 + 4 * clog2(n) + (2 * n - 1) * (2 + 4 * clog2(m))
            + (2 * m + 2 * clog2(m)) * (4 * clog2(n) + 1))


def query_visit_bound(n, m):
    """Worst-case visits of one query: the row split, then a column query on
    each covered row node."""
    return 1 + 4 * clog2(n) + 2 * max(clog2(n), 1) * (1 + 4 * clog2(m))


class TestCounters:
    def test_query_cost_stays_polylog(self):
        g = grid((64, 64), [0] * 4096, "plus-min")
        g.query(((3, 60), (5, 59)))
        # log(64)*log(64) with small constants; far under one row of 64
        assert g.counters.visits_last_op < 64 * 8

    def test_update_rebuild_cost(self):
        # one update costs the outer walk (1, plus 2 per internal node it
        # reaches), one inner update per covered node, and per rebuild the
        # column nodes that meet the span, counted once for the tree it
        # resets and once more per child it reads that was not rebuilt in
        # this update (a child rebuilt just before counts no read)
        cases = [((16, 16), box) for box in (
            ((3, 12), (2, 13)), ((3, 12), (7, 7)), ((1, 14), (0, 15)),
            ((5, 5), (4, 9)), ((0, 15), (2, 13)))]
        cases += [((9, 7), ((0, 8), (1, 5))), ((9, 7), ((1, 7), (0, 6))),
                  ((9, 7), ((2, 5), (3, 3))), ((1, 6), ((0, 0), (1, 4)))]
        for (n, m), box in cases:
            shape = node_shape(m)
            spans = list(zip(shape.lo, shape.hi))
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
            outer = 1 + 2 * sum(1 for i in kind if g.shape.left[i] >= 0)
            reads = sum(1 for i in rebuilt for c in (g.shape.left[i], g.shape.right[i])
                        if kind.get(c) != "rebuild")
            assert spent == (outer + inner_update * (len(kind) - len(rebuilt))
                             + meets * (len(rebuilt) + reads))
            assert (len(rebuilt) > 0) == ((xlo, xhi) != (0, n - 1))

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 13), (13, 1), (2, 3), (7, 11),
                                      (31, 5), (17, 33), (64, 64)])
    def test_every_op_stays_under_its_worst_case_bound(self, n, m):
        # seeded boxes, then adversarial ones: the full box, single rows and
        # columns, and spans one short of both edges
        rng = random.Random(n * 1000 + m)
        g = grid((n, m), [rng.randint(-9, 9) for _ in range(n * m)], "plus-min")
        boxes = [(tuple(sorted(rng.randrange(n) for _ in range(2))),
                  tuple(sorted(rng.randrange(m) for _ in range(2))))
                 for _ in range(150)]
        boxes += [(r, c) for r in edge_spans(n) for c in edge_spans(m)]
        for box in boxes:
            g.update(box, rng.randint(-9, 9))
            g.query(box)
        c = g.counters
        assert c.update_ops == c.query_ops == len(boxes)
        assert 0 < c.max_update_visits <= update_visit_bound(n, m)
        assert 0 < c.max_query_visits <= query_visit_bound(n, m)

    def test_one_column_rebuild_is_cheaper_than_full_width(self):
        costs = []
        for cols in ((30, 30), (0, 63)):
            g = grid((64, 64), [0] * 4096, "plus-min")
            g.update(((5, 50), cols), 1)
            costs.append(g.counters.visits_last_op)
        one, full = costs
        assert one < full

    def test_each_operation_checks_once_and_splits_each_axis_once(self, monkeypatch):
        import uqtrees.grid2d as g2
        n, m = 33, 17
        g = grid((n, m), list(range(n * m)), "plus-min")
        kinds = ("check_box", "split", "update_many", "query_many", "query")
        calls = dict.fromkeys(kinds, 0)

        def counted(owner, name):
            fn = getattr(owner, name)

            def call(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(owner, name, call)
        counted(g2, "check_box")
        counted(g2, "split")
        for kernel in ("update_many", "query_many", "query"):
            counted(g.inner[0]._k, kernel)
        rng = random.Random(8)
        boxes = [(r, c) for r in edge_spans(n) for c in edge_spans(m)]
        boxes += [tuple(tuple(sorted(rng.randrange(d) for _ in range(2))) for d in (n, m))
                  for _ in range(20)]
        for box in boxes:
            calls.update(dict.fromkeys(kinds, 0))
            g.update(box, 1)
            # every row span covers a subtree: one forest walk per update
            assert calls == {"check_box": 1, "split": 2, "update_many": 1,
                             "query_many": 0, "query": 0}, box
            calls.update(dict.fromkeys(kinds, 0))
            g.query(box)
            # one column split serves every covered row node's tree, folded
            # in one call; no per-tree query walk
            assert calls == {"check_box": 1, "split": 2, "update_many": 0,
                             "query_many": 1, "query": 0}, box


class TestForestRefusals:
    """``Grid2D.update``'s checks are the only ones on its forest updates: a
    bad column span or value is refused before any inner tree changes."""

    @pytest.mark.parametrize("qlo, qhi, value", [
        (6, 5, 1), (-1, 4, 1), (3, 13, 1), (0.0, 4, 1), (0, 4.0, 1),
        (0, 4, math.nan)], ids=["reversed", "below", "above", "float-lo",
                                "float-hi", "nan"])
    def test_refusal_leaves_the_forest_alone(self, qlo, qhi, value):
        g = grid((5, 13), list(range(65)), "plus-min")
        g.update(((1, 4), (2, 9)), 4)  # leaves pending values
        held = [(list(t.val), list(t.laz)) for t in g.inner]
        c = g.counters
        counts = [getattr(c, k) for k in c.__slots__]
        with pytest.raises((TypeError, ValueError)):
            g.update(((1, 4), (qlo, qhi)), value)
        assert [(t.val, t.laz) for t in g.inner] == held
        assert [getattr(c, k) for k in c.__slots__] == counts


class TestInnerTreeFields:
    def test_walks_change_only_val_and_laz(self, pair):
        # the compiled walks write only node lists: after a seeded mix of
        # updates and queries every inner tree holds the same other fields as
        # built, and no stamp; SegTree1D.update alone records its own
        rng = random.Random(27)
        n, m = 9, 13
        g = grid((n, m), [rng.randint(*pair.sample_range) for _ in range(n * m)], pair.name)

        def others(t):
            return {k: v for k, v in vars(t).items() if k not in ("val", "laz")}
        built = [others(t) for t in g.inner]
        single = SegTree1D(list(range(m)), pair)
        for _ in range(200):
            box = tuple(tuple(sorted(rng.randrange(d) for _ in range(2))) for d in (n, m))
            if rng.random() < 0.5:
                g.update(box, rng.randint(*pair.sample_range))
                single.update(*box[1], 1)
                assert single.last_lazy_spans == single.decompose(*box[1])
            else:
                g.query(box)
        for k, tree in enumerate(g.inner):
            assert tree._stamped == ()
            assert tree.last_lazy_spans == []
            now = others(tree)
            assert now.keys() == built[k].keys(), k
            assert all(now[a] is built[k][a] for a in now), k
