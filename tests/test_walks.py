"""The trees leave no cyclic garbage behind, share their node layout, and
count each operation once.

A walk or a builder written as a self-referencing recursive closure is a
reference cycle, so every call would leave work for the cyclic garbage
collector.  With the collector off, building a backend and running a few
hundred seeded updates and queries must leave nothing for ``gc.collect()``
to find.  The node layout depends only on the extent, so trees of equal
extent hold the very same ``NodeShape`` and keep no copy of its lists, and
trees of equal extent and cell weight the very same node sizes.  The
structure the caller called records each operation, exactly once, and its
visits add up to the total.
"""

import gc
import math
import random

import pytest

from uqtrees import (BACKEND_IDS, DenseTensor, Grid2D, NDTree, OpCounters, SegTree1D,
                     WorkloadConfig, get_pair, make_backend)
from uqtrees.boxes import draw_box
from uqtrees.seg1d import node_shape, node_sizes
from uqtrees.workloads import _BACKENDS, _box_ops, _replay, actions, initial_tensor

CASES = [
    ("seg1d", "plus-min", (64,)),
    ("grid2d-general", "plus-min", (16, 16)),
    ("nd-special", "plus-plus", (8, 8, 8)),
    ("quadtree", "plus-min", (16, 16)),
]


def _collect_with_gc_off(work):
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("backend_id,pair_name,dims", CASES)
def test_updates_and_queries_make_no_cyclic_garbage(backend_id, pair_name, dims):
    rng = random.Random(3)
    pair = get_pair(pair_name)
    data = [rng.randint(-50, 50) for _ in range(math.prod(dims))]
    structure = make_backend(backend_id, DenseTensor(dims, data, pair))
    update, query = _box_ops(backend_id, structure)
    boxes = [draw_box(rng, dims) for _ in range(300)]
    values = [rng.randint(-9, 9) for _ in range(300)]

    def work():
        for k, (box, v) in enumerate(zip(boxes, values)):
            if k % 2:
                update(box, v)
            else:
                query(box)
            if backend_id == "seg1d":
                structure.decompose(*box[0])

    assert _collect_with_gc_off(work) == 0


@pytest.mark.parametrize("backend_id,pair_name,dims", CASES)
def test_constructors_make_no_cyclic_garbage(backend_id, pair_name, dims):
    rng = random.Random(5)
    pair = get_pair(pair_name)
    tensor = DenseTensor(dims, [rng.randint(-50, 50) for _ in range(math.prod(dims))], pair)
    assert _collect_with_gc_off(lambda: make_backend(backend_id, tensor)) == 0


def test_first_stamps_on_a_fresh_tree_make_no_cyclic_garbage():
    pair = get_pair("plus-plus")
    t = NDTree(DenseTensor((5, 4, 3), list(range(60)), pair), pair)

    def work():
        t.query(((0, 4), (0, 3), (0, 2)))
        t.update(((0, 4), (1, 2), (0, 1)), 3)
        t.update(((2, 2), (3, 3), (2, 2)), 4)
        t.query(((1, 3), (0, 3), (1, 2)))

    assert _collect_with_gc_off(work) == 0
    assert t.row_lazy[0] is not None


def test_trees_of_equal_extent_share_one_layout():
    pair = get_pair("plus-plus")
    a = SegTree1D([1, 2, 3, 4, 5], pair)
    b = SegTree1D([5, 4, 3, 2, 1], pair)
    shape = node_shape(5)
    assert a.shape is b.shape is shape
    assert a.sz is shape.size
    assert a.val is not b.val and a.laz is not b.laz

    t = NDTree(DenseTensor((4, 4, 4), list(range(64)), pair), pair)
    t.update(((0, 3), (1, 2), (0, 3)), 1)
    # the last-axis trees are bare SegTree1Ds: every fold tree's, and those
    # pending trees the update has allocated
    inner = [x for sub in t.row_fold + t.row_lazy if sub is not None
             for x in sub.row_fold + sub.row_lazy if x is not None]
    assert all(isinstance(x, SegTree1D) for x in inner)
    # inside the pending tree stamped at the root: fold trees on the three
    # partially covered nodes over axis 1, pending trees on its two leaves
    assert len(inner) == 7 * 7 + 3 + 2
    assert all(x.shape is node_shape(4) for x in inner)
    assert t.shape is node_shape(4)
    assert len({id(x.val) for x in inner}) == len(inner)


def test_grid2d_inner_trees_share_the_layout_across_weights():
    pair = get_pair("plus-min")
    g = Grid2D(DenseTensor((5, 3), list(range(15)), pair), pair)
    # an inner tree's cell weight is its row node's size
    weights = g.shape.size
    assert set(weights) == {1, 2, 3, 5}
    assert all(x.shape is node_shape(3) for x in g.inner)
    assert g.shape is node_shape(5)
    # the scaled sizes are shared per (extent, weight); weight 1 reads the
    # layout's own sizes
    for x, w in zip(g.inner, weights, strict=True):
        assert x.sz == [w * k for k in node_shape(3).size]
        assert x.sz is node_sizes(3, w)
        assert (x.sz is node_shape(3).size) == (w == 1)


@pytest.mark.parametrize("n, m", [(33, 17), (64, 64)])
def test_grid2d_shares_one_size_list_per_weight_and_no_walk_writes_it(n, m):
    pair = get_pair("plus-min")
    rng = random.Random(n * m)
    g = Grid2D(DenseTensor((n, m), [rng.randint(-9, 9) for _ in range(n * m)], pair), pair)
    by_weight = {}
    for x, w in zip(g.inner, g.shape.size, strict=True):
        assert by_weight.setdefault(w, x.sz) is x.sz
    assert len({id(x.sz) for x in g.inner}) == len(by_weight)
    for _ in range(500):
        box = tuple(tuple(sorted(rng.randrange(k) for _ in range(2))) for k in (n, m))
        if rng.random() < 0.5:
            g.update(box, rng.randint(-9, 9))
        else:
            g.query(box)
    for w, sz in by_weight.items():
        assert sz == [w * k for k in node_shape(m).size]


EXTENTS = {1: (37,), 2: (9, 7), 3: (5, 4, 3)}
COUNT_CASES = [(b, dims) for b in BACKEND_IDS for k, dims in EXTENTS.items()
               if _BACKENDS[b].dims is None or k in _BACKENDS[b].dims]


@pytest.mark.parametrize("backend_id,dims", COUNT_CASES,
                         ids=[f"{b}-{len(d)}d" for b, d in COUNT_CASES])
def test_each_operation_is_recorded_once(backend_id, dims):
    cfg = WorkloadConfig(backend_id, "plus-plus", dims, ops=300, seed=4)
    structure, _, init, _, _ = _replay(cfg)
    c = structure.counters
    assert c.update_ops + c.query_ops == 300
    assert c.visits_total == init + c.update_visits + c.query_visits
    # per operation: the visits it records are exactly what it adds to the
    # total, pending trees an nd-special update allocates included
    rng = random.Random(cfg.seed)
    structure = make_backend(backend_id, initial_tensor(cfg, rng))
    update, query = _box_ops(backend_id, structure)
    c = structure.counters
    allocates = backend_id == "nd-special" and len(dims) >= 2
    if allocates:
        assert all(x is None for x in structure.row_lazy)
    for box, value in actions(cfg, rng):
        before = c.visits_total
        if value is None:
            query(box)
        else:
            update(box, value)
        assert c.visits_last_op == c.visits_total - before, box
    if allocates:
        assert any(x is not None for x in structure.row_lazy)


def test_note_adds_the_visits_and_records_the_operation():
    c = OpCounters()
    c.visits_total = 100  # a build's visits
    c.note_update(7)
    c.note_update(3)
    c.note_query(5)
    assert c.visits_total == 115
    assert c.visits_last_op == 5
    assert (c.update_ops, c.update_visits, c.max_update_visits) == (2, 10, 7)
    assert (c.query_ops, c.query_visits, c.max_query_visits) == (1, 5, 5)
    c.note_query(9)
    assert (c.visits_total, c.visits_last_op, c.max_query_visits) == (124, 9, 9)


def test_a_tree_on_shared_counters_records_its_own_operations():
    shared = OpCounters()
    t = SegTree1D([3, 1, 4, 1, 5], get_pair("plus-min"), counters=shared)
    built = shared.visits_total
    t.update(1, 3, 2)
    t.query(0, 2)
    assert (shared.update_ops, shared.query_ops) == (1, 1)
    assert shared.visits_total == built + shared.update_visits + shared.query_visits


def test_a_tree_stores_no_copy_of_its_layout():
    # a tree owns its pending values, folds and bookkeeping; the layout is
    # read from the one shared NodeShape
    pair = get_pair("plus-plus")
    own = {"size", "pair", "counters", "shape", "sz", "val", "laz", "_stamped", "_k"}
    for n in (1, 2, 5, 16):
        built = SegTree1D(list(range(n)), pair)
        blank = SegTree1D.identity(n, pair)
        assert set(vars(built)) == own
        assert set(vars(blank)) == own
        assert built.node_count == blank.node_count == 2 * n - 1
        assert built.shape is blank.shape is node_shape(n)
    layout = ("lo", "hi", "left", "right", "cell_weight")
    g = Grid2D(DenseTensor((5, 3), list(range(15)), get_pair("plus-min")),
               get_pair("plus-min"))
    t = NDTree(DenseTensor((4, 4, 4), list(range(64)), pair), pair)
    t.update(((0, 3), (1, 2), (0, 3)), 1)
    nested = [x for x in t.row_fold + t.row_lazy if x is not None]
    assert nested and all(isinstance(x, NDTree) and len(x.dims) == 2 for x in nested)
    for x in [g, *g.inner, t, *nested]:
        assert not any(hasattr(x, name) for name in layout), x
