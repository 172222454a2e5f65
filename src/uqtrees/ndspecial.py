"""d-dimensional tree for fold-commuting operator pairs.

Works for pairs with one operator (``OperatorPair.is_special``, checked at
construction): ``update_op is query_op`` with equal identities.  Such a pair
is fold-commuting: when only ``j`` of the elements inside a fold absorb an
update ``v``, the fold simply absorbs ``v`` repeated ``j`` times, no matter
*which* elements were hit, and repeats come from the aggregator: the fold
``a`` becomes ``aggregator(a, v, j)``.  That collapses the cross-axis
bookkeeping that blocks the general case and yields
O(log n_0 * ... * log n_{d-1}) updates and queries.

Structure, recursively over axis 0:

* ``d == 1``: a plain :class:`~uqtrees.seg1d.SegTree1D`, held as ``line``.
* ``d >= 2``: a 1D node arena over axis 0 where node ``n`` (covering ``w``
  rows) holds two trees over the remaining axes:

  - ``row_fold[n]``  -- the element-wise fold of the rows ``n`` covers,
  - ``row_lazy[n]``  -- pending update values, folded under the pair's one
    operator, meaning "every descendant's ``row_fold`` entry at coordinate
    ``c`` still has to absorb ``row_lazy[n](c)`` repeated (descendant row
    count) times".

  With ``d == 2`` both are bare :class:`~uqtrees.seg1d.SegTree1D`\\ s over
  the last axis; with ``d >= 3`` they are (d-1)-dimensional ``NDTree``\\ s.

A ``row_lazy`` entry is None until an update first stamps it, and None reads
as all-identity, so a query skips it; that is exact because the pending
values fold with the pair itself, whose identity is neutral for both
operators.  A freshly allocated pending tree is blank in turn: a
(d-1)-dimensional one is only its axis-0 node list, with every ``row_fold``
and ``row_lazy`` entry None until an update reaches it, and a last-axis one
is :meth:`SegTree1D.identity`, filled without a walk.  An allocation counts
one visit per node of the list it allocates, as a constructor does.  A
build allocates no pending tree: it walks each axis-0 arena children first,
building a leaf's ``row_fold`` tree from its cells and an internal node's as
one allocated blank tree whose entries join its children's, down to the
last-axis trees' compiled ``join``; ``(a, b, c)`` costs
``(2a-1) * (1 + (2b-1) * 2c)`` visits.

Every tree reads its axis-0 layout from ``shape``, the one
:func:`~uqtrees.seg1d.node_shape` that all trees of that extent hold; a
last-axis tree also shares the unweighted node sizes, so its own per-node
lists are only ``val``/``laz``.

An update splits its box into the axis-0 span ``X`` and the remainder ``C``,
and ``X`` by :func:`~uqtrees.seg1d.split` into covered and partial nodes:
covered nodes stamp ``v`` into ``row_lazy`` over ``C``; partial nodes
repair ``row_fold`` over ``C`` with ``aggregator(identity, v, j)``, ``j``
being ``|overlap with X|``.  A query folds everything with the pair's one
operator: each covered node's ``row_fold`` query over ``C``, and for every
node of the split, that node's ``row_lazy`` query over ``C`` through the
aggregator, counted once per row the node shares with ``X``.  Queries leave
the trees unchanged (they only bump the shared counters); updates need
exclusive access.

The pair's compiled kernels walk the levels, one level text rendered in
two forms: ``update_level``/``query_level`` walk a 2-D level and apply the
rules above to the last axis too, reading no child (covered nodes stamp
``v``, or a query folds them, and each partial node absorbs ``v``, or gives
its pending value, ``j`` times); ``update_nest``/``query_nest`` walk a
level above it and hand each tree to the next level's walk, found on the
kernels ``_k``.

Only the public ``update``/``query`` keep :mod:`uqtrees.seg1d`'s rule (one
check, one :func:`~uqtrees.seg1d.split` per axis, one ``note_*``); every
tree at one depth shares that axis's extent, and each partial node is
paired with its overlap ``j`` with the span.  All nested trees share one
visit counter.  An update's note also counts the pending trees its walk
allocated, which added their nodes as they were built.  A 1-D tree leaves
it to its ``line``.
"""

from __future__ import annotations

from typing import List, Optional

from .algebra import OperatorPair, check_special
from .boxes import Box, check_box, check_value
from .counters import OpCounters
from .dense import DenseTensor
from .seg1d import SegTree1D, kernels, node_shape, split


class NDTree:
    def __init__(self, tensor: DenseTensor, pair: OperatorPair):
        if not pair.is_special:
            ok, witness = check_special(pair)
            detail = (f"is not fold-commuting; counterexample (a, b, v) = {witness}"
                      if not ok else "must fold with its update operator: "
                      "need update_op is query_op and equal identities")
            raise ValueError(f"pair {pair.name!r} {detail}")
        self._blank(tensor.dims, pair, OpCounters())
        self._fill(tensor.data)

    def _fill(self, data: list) -> None:
        """Fill this blank tree from row-major ``data``, nested trees too, unchecked."""
        if len(self.dims) == 1:
            self.line = SegTree1D(data, self.pair, counters=self.counters)
            return
        w = len(data) // self.dims[0]
        trees = self.row_fold
        for k, i in enumerate(self.shape.leaves):
            if self._bare:
                trees[i] = SegTree1D(data[k * w:(k + 1) * w], self.pair, counters=self.counters)
            else:
                t = trees[i] = self._allocate()
                t._fill(data[k * w:(k + 1) * w])
        for i, l, r in self.shape.joins:
            trees[i] = self._join(trees[l], trees[r])

    def _join(self, a, b):
        """A tree over the axes after axis 0 whose every fold is ``query_op``
        of ``a``'s and ``b``'s, ``a``'s first; neither holds a pending value."""
        if self._bare:
            return SegTree1D._joined(a, b, 1)
        t = self._allocate()
        t.row_fold = list(map(t._join, a.row_fold, b.row_fold))
        return t

    def _blank(self, dims, pair: OperatorPair, counters: OpCounters) -> None:
        """Bind an all-identity tree over ``dims`` (d >= 2: its axis-0 arena).

        Every ``row_fold``/``row_lazy`` entry is None; the arena counts one
        visit per node.
        """
        self.dims = dims
        self.pair = pair
        self.counters = counters
        self.line: Optional[SegTree1D] = None
        if len(dims) == 1:
            return
        self.shape = shape = node_shape(dims[0])
        count = len(shape.lo)
        # the last axis is a bare SegTree1D, walked by the pair's kernels
        self._bare = len(dims) == 2
        self._k = kernels(pair)
        self.row_fold: List = [None] * count
        self.row_lazy: List = [None] * count
        counters.visits_total += count

    def _allocate(self):
        """A fresh all-identity tree over the axes after axis 0."""
        if self._bare:
            return SegTree1D.identity(self.dims[1], self.pair, counters=self.counters)
        t = NDTree.__new__(NDTree)
        t._blank(self.dims[1:], self.pair, self.counters)
        return t

    @property
    def node_count(self) -> int:
        """Outer nodes on axis 0 (the wrapped tree's nodes for d == 1)."""
        return self.line.node_count if self.line is not None else len(self.shape.lo)

    def update(self, box: Box, value) -> None:
        check_box(box, self.dims)
        check_value(value)
        if self.line is not None:
            return self.line.update(box[0][0], box[0][1], value)
        c = self.counters
        before = c.visits_total
        walk = self._k.update_level if self._bare else self._k.update_nest
        visits = walk(self, self._splits(box), 0, value)
        # the pending trees the walk allocated added their nodes as built
        allocated, c.visits_total = c.visits_total - before, before
        c.note_update(visits + allocated)

    def _splits(self, box: Box) -> list:
        """``(covered, parts)`` of every axis of ``box`` (every tree at one
        depth shares that axis's extent): ``parts`` pairs each partial node
        with its overlap with the span."""
        out = []
        for (lo, hi), n in zip(box, self.dims):
            shape = node_shape(n)
            covered, partial = split(shape, lo, hi)
            slo, shi = shape.lo, shape.hi
            out.append((covered, [(i, min(shi[i], hi) - max(slo[i], lo) + 1)
                                  for i in partial]))
        return out

    def query(self, box: Box):
        check_box(box, self.dims)
        if self.line is not None:
            return self.line.query(box[0][0], box[0][1])
        walk = self._k.query_level if self._bare else self._k.query_nest
        out, visits = walk(self, self._splits(box), 0)
        self.counters.note_query(visits)
        return out
