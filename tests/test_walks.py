"""The trees leave no cyclic garbage behind, and share their node layout.

A walk or a builder written as a self-referencing recursive closure is a
reference cycle, so every call would leave work for the cyclic garbage
collector.  With the collector off, building a backend and running a few
hundred seeded updates and queries must leave nothing for ``gc.collect()``
to find.  The node layout depends only on the extent, so trees of equal
extent hold the very same layout lists.
"""

import gc
import math
import random

import pytest

from uqtrees import DenseTensor, Grid2D, NDTree, SegTree1D, get_pair, make_backend
from uqtrees.seg1d import node_shape
from uqtrees.workloads import _box_ops

CASES = [
    ("seg1d", "plus-min", (64,)),
    ("grid2d-general", "plus-min", (16, 16)),
    ("nd-special", "plus-plus", (8, 8, 8)),
    ("quadtree", "plus-min", (16, 16)),
]


def _box(rng, dims):
    return tuple(tuple(sorted((rng.randrange(n), rng.randrange(n)))) for n in dims)


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
    boxes = [_box(rng, dims) for _ in range(300)]
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
    for name in ("lo", "hi", "left", "right"):
        assert getattr(a, name) is getattr(b, name) is getattr(shape, name)
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
    assert all(x.lo is node_shape(4).lo and x.right is node_shape(4).right
               for x in inner)
    assert t.lo is node_shape(4).lo
    assert len({id(x.val) for x in inner}) == len(inner)


def test_grid2d_inner_trees_share_the_layout_across_weights():
    pair = get_pair("plus-min")
    g = Grid2D(DenseTensor((5, 3), list(range(15)), pair), pair)
    weights = {x.cell_weight for x in g.inner}
    assert weights == {1, 2, 3, 5}
    assert all(x.lo is node_shape(3).lo for x in g.inner)
    assert g.lo is node_shape(5).lo
    # a weighted tree owns its scaled sizes; an unweighted one shares them
    for x in g.inner:
        assert x.sz == [x.cell_weight * k for k in node_shape(3).size]
        assert (x.sz is node_shape(3).size) == (x.cell_weight == 1)
