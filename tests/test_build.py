"""The nested builds against a reference build that folds rows first.

``Grid2D`` and ``NDTree`` build an internal outer node's tree by joining its
two children's trees.  The reference below is the row-fold build they
replaced: it folds each outer node's rows element-wise into a fresh list,
then builds that node's tree over the list with the constructor's ``fill``.
Both must give equal trees, entry for entry and of equal types, and count
equal visits.
"""

import math
import random

import pytest

from uqtrees import DenseTensor, Grid2D, NDTree, SegTree1D
from uqtrees.counters import OpCounters
from uqtrees.seg1d import node_shape
from conftest import KERNEL_CASES, KERNEL_IDS, sample_cell


def row_folds(shape, row, q):
    """Yield ``(node, fold)`` for every node of ``shape``, children first:
    ``fold`` is the element-wise ``q``-fold of ``row(k)`` over the node's
    span, left to right."""
    lo, left, right = shape.lo, shape.left, shape.right
    held = [None] * len(lo)
    for i in range(len(lo) - 1, -1, -1):
        l = left[i]
        if l < 0:
            fold = row(lo[i])
        else:
            r = right[i]
            fold = list(map(q, held[l], held[r]))
            held[l] = held[r] = None
        held[i] = fold
        yield i, fold


def reference_grid(tensor, pair):
    """``Grid2D``'s inner trees and build visits, by the row-fold build."""
    counters = OpCounters()
    shape = node_shape(tensor.dims[0])
    inner = [None] * len(shape.lo)
    for i, rows in row_folds(shape, tensor.first_axis_slice, pair.query_op):
        inner[i] = SegTree1D(rows, pair, cell_weight=shape.size[i], counters=counters)
    counters.visits_total += len(shape.lo)
    return inner, counters.visits_total


def reference_fill(t, data):
    """Fill the blank ``NDTree`` ``t`` from row-major ``data`` by the
    row-fold build, nested trees too."""
    if len(t.dims) == 1:
        t.line = SegTree1D(data, t.pair, counters=t.counters)
        return
    w = len(data) // t.dims[0]
    for i, rows in row_folds(t.shape, lambda k: data[k * w:(k + 1) * w], t.pair.query_op):
        if t._bare:
            t.row_fold[i] = SegTree1D(rows, t.pair, counters=t.counters)
        else:
            sub = t.row_fold[i] = t._allocate()
            reference_fill(sub, rows)


def reference_ndtree(tensor, pair):
    t = NDTree.__new__(NDTree)
    t._blank(tensor.dims, pair, OpCounters())
    reference_fill(t, tensor.data)
    return t


def entries(x):
    """Every ``SegTree1D`` below ``x`` (a list of trees, or an ``NDTree``) as
    its typed ``val``/``laz`` entries and its sizes, None where no tree is,
    in one fixed order."""
    if x is None:
        return [None]
    if isinstance(x, SegTree1D):
        return [([(type(v), v) for v in x.val], [(type(z), z) for z in x.laz], x.sz)]
    if isinstance(x, list):
        return [e for t in x for e in entries(t)]
    if x.line is not None:
        return entries(x.line)
    return entries(x.row_fold + x.row_lazy)


def tensor(pair, cells, dims, seed):
    rng = random.Random(seed)
    return DenseTensor(dims, [sample_cell(pair, rng, cells) for _ in range(math.prod(dims))],
                       pair)


@pytest.mark.parametrize("dims", [(1, 1), (1, 13), (13, 1), (9, 7), (33, 17)],
                         ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("pair, cells", KERNEL_CASES, ids=KERNEL_IDS)
def test_grid2d_equals_the_row_fold_build(pair, cells, dims):
    t = tensor(pair, cells, dims, 31)
    g = Grid2D(t, pair)
    inner, visits = reference_grid(t, pair)
    assert entries(g.inner) == entries(inner)
    assert g.counters.visits_total == visits


SPECIAL_CASES = [(p, c) for p, c in KERNEL_CASES if p.is_special]


# TestDeepTrees' shapes, a single column below a tall axis 0, and one axis
@pytest.mark.parametrize("dims", [(3, 4, 5), (3, 4, 2, 5), (4, 4, 4, 4), (2, 1, 3, 1, 2),
                                  (13, 1, 3), (9, 7), (37,)],
                         ids=lambda d: "x".join(map(str, d)))
@pytest.mark.parametrize("pair, cells", SPECIAL_CASES,
                         ids=[f"{p.name}-{c}" for p, c in SPECIAL_CASES])
def test_ndtree_equals_the_row_fold_build(pair, cells, dims):
    t = tensor(pair, cells, dims, 31)
    n, ref = NDTree(t, pair), reference_ndtree(t, pair)
    assert entries(n) == entries(ref)
    assert n.counters.visits_total == ref.counters.visits_total
