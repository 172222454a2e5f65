import pytest

from uqtrees import (DenseTensor, QuadTree, WorkloadConfig, get_pair,
                     probe_visit_bound, run_verify)


def qt(dims, data, pair_name):
    pair = get_pair(pair_name)
    return QuadTree(DenseTensor(dims, data, pair), pair)


def reachable(t):
    """``{id: (rectangle, child ids)}`` for every node a descent from the root reaches.

    Rectangles are ``(x0, x1, y0, y1)``; both come from the shared row and
    column shapes, a leaf on one axis standing for itself on that axis.
    """
    rows, cols, s = t.rows, t.cols, t.stride
    out = {}
    stack = [0]
    while stack:
        i = stack.pop()
        a, b = divmod(i, s)
        xs = [a] if rows.left[a] < 0 else [rows.left[a], rows.right[a]]
        ys = [b] if cols.left[b] < 0 else [cols.left[b], cols.right[b]]
        kids = [x * s + y for x in xs for y in ys] if len(xs) * len(ys) > 1 else []
        out[i] = ((rows.lo[a], rows.hi[a], cols.lo[b], cols.hi[b]), kids)
        stack += kids
    return out


class TestBuild:
    def test_root_fold_examples(self):
        assert qt((4, 4), [1] * 16, "plus-plus").query(((0, 3), (0, 3))) == 16
        assert qt((4, 4), list(range(16)), "plus-min").query(((0, 3), (0, 3))) == 0
        assert qt((1, 1), [5], "plus-plus").node_count == 1

    def test_power_of_two_node_census(self):
        # 4x4: 1 + 4 + 16
        assert qt((4, 4), [0] * 16, "plus-plus").node_count == 21

    def test_children_partition_parent(self):
        for dims in [(6, 5), (1, 7), (7, 1), (1, 1), (8, 8)]:
            t = qt(dims, [0] * (dims[0] * dims[1]), "plus-plus")
            nodes = reachable(t)
            assert len(nodes) == t.node_count
            for i, ((x0, x1, y0, y1), ks) in nodes.items():
                if not ks:
                    assert x0 == x1 and y0 == y1
                    continue
                assert all(k > i for k in ks)
                cells = set()
                for k in ks:
                    kx0, kx1, ky0, ky1 = nodes[k][0]
                    for x in range(kx0, kx1 + 1):
                        for y in range(ky0, ky1 + 1):
                            assert (x, y) not in cells
                            cells.add((x, y))
                assert cells == {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}

    def test_intersecting_nodes_nest(self, rng):
        # any two nodes with overlapping rectangles are ancestor/descendant
        t = qt((8, 8), [0] * 64, "plus-plus")
        nodes = reachable(t)
        assert len(nodes) == t.node_count
        ids = list(nodes)
        for _ in range(500):
            a, b = rng.choice(ids), rng.choice(ids)
            ax = nodes[a][0]
            bx = nodes[b][0]
            overlap = not (ax[1] < bx[0] or bx[1] < ax[0]
                           or ax[3] < bx[2] or bx[3] < ax[2])
            if overlap:
                a_in_b = bx[0] <= ax[0] and ax[1] <= bx[1] and bx[2] <= ax[2] and ax[3] <= bx[3]
                b_in_a = ax[0] <= bx[0] and bx[1] <= ax[1] and ax[2] <= bx[2] and bx[3] <= ax[3]
                assert a_in_b or b_in_a


class TestUpdateQuery:
    def test_column_update_example(self):
        t = qt((4, 4), [1] * 16, "plus-plus")
        t.update(((0, 3), (1, 1)), 2)
        assert t.query(((0, 3), (1, 1))) == 12
        assert len(t.last_lazy_nodes) >= 4
        nodes = reachable(t)
        assert len(nodes) == t.node_count
        assert all(not nodes[i][1] for i in t.last_lazy_nodes)  # all leaves

    def test_identity_update(self, pair, rng):
        data = [rng.randint(*pair.sample_range) for _ in range(25)]
        t = QuadTree(DenseTensor((5, 5), data, pair), pair)
        boxes = [((a, b), (c, d))
                 for a in range(5) for b in range(a, 5)
                 for c in range(5) for d in range(c, 5)]
        before = [t.query(b) for b in boxes]
        t.update(((0, 3), (1, 4)), pair.update_identity)
        assert before == [t.query(b) for b in boxes]

    def test_single_cell_matches_oracle(self, pair, rng):
        data = [rng.randint(*pair.sample_range) for _ in range(49)]
        t = QuadTree(DenseTensor((7, 7), data, pair), pair)
        o = DenseTensor((7, 7), data, pair)
        for _ in range(60):
            box = (tuple(sorted((rng.randrange(7), rng.randrange(7)))),
                   tuple(sorted((rng.randrange(7), rng.randrange(7)))))
            v = rng.randint(*pair.sample_range)
            t.update(box, v)
            o.update(box, v)
        for x in range(7):
            for y in range(7):
                assert t.query(((x, x), (y, y))) == o.query(((x, x), (y, y)))

    @pytest.mark.parametrize("pair_name", ["plus-min", "plus-plus"])
    def test_differential(self, pair_name):
        cfg = WorkloadConfig("quadtree", pair_name, (9, 9), ops=2500, seed=17)
        report = run_verify(cfg)
        assert report.ok, report.first_mismatch

    def test_rectangular_supported_for_correctness(self):
        cfg = WorkloadConfig("quadtree", "plus-min", (6, 11), ops=1500, seed=23)
        assert run_verify(cfg).ok


class TestVisitBounds:
    def test_full_box_is_cheap(self):
        t = qt((16, 16), [0] * 256, "plus-plus")
        t.update(((0, 15), (0, 15)), 1)
        assert t.counters.visits_last_op == 1  # root is contained
        t.query(((0, 15), (0, 15)))
        assert t.counters.visits_last_op == 1

    def test_probe_bound_n16(self):
        t = qt((16, 16), [0] * 256, "plus-plus")
        assert probe_visit_bound(4) == 5 * (2 ** 9 + 3)
        assert t.max_probe_visits(seed=1) <= probe_visit_bound(4)

    def test_single_column_update_is_linear(self):
        for k in (2, 3, 4, 5):
            n = 2 ** k
            t = qt((n, n), [0] * n * n, "plus-plus")
            t.update(((0, n - 1), (0, 0)), 1)
            assert t.counters.visits_last_op >= n

    def test_doubling_roughly_doubles_max_visits(self):
        worst = {}
        for k in (4, 5, 6, 7):
            n = 2 ** k
            t = qt((n, n), [0] * n * n, "plus-plus")
            worst[k] = t.max_probe_visits(extra=50, seed=2)
        for k in (4, 5, 6):
            assert 1.5 <= worst[k + 1] / worst[k] <= 3.0

    def test_probe_requires_square_power_of_two(self):
        t = qt((6, 6), [0] * 36, "plus-plus")
        with pytest.raises(ValueError):
            t.max_probe_visits()
        t = qt((4, 8), [0] * 32, "plus-plus")
        with pytest.raises(ValueError):
            t.max_probe_visits()
