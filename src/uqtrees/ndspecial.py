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
  the last axis, called with the box's last span; with ``d >= 3`` they are
  (d-1)-dimensional ``NDTree``\\ s, called through the public
  ``update``/``query``.

A ``row_lazy`` entry is None until an update first stamps it, and None reads
as all-identity, so a query skips it; that is exact because the pending
values fold with the pair itself, whose identity is neutral for both
operators.  A freshly allocated pending tree is blank in turn: a
(d-1)-dimensional one is only its axis-0 node list, with every ``row_fold``
and ``row_lazy`` entry None until an update reaches it, and a last-axis one
is :meth:`SegTree1D.identity`, filled without a walk.  An allocation counts
one visit per node of the list it allocates, as a constructor does; a
constructor allocates no pending tree, so building ``(a, b, c)`` costs
``(2a-1) * (1 + (2b-1) * 2c)`` visits.

The axis-0 arena's layout is :func:`~uqtrees.seg1d.node_shape` of the
extent, shared with every other tree of that extent; nested trees of equal
extent likewise share one layout and each owns only its ``val``/``laz``.

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

Each level splits its own axis-0 span with the plain
:func:`~uqtrees.seg1d.split`, not the memoised :func:`~uqtrees.seg1d.plan`:
a level splits its span once per call, so a memo would mostly miss, and
where an axis has the last axis's extent (a cube) the two share one layout,
so its splits would evict the last axis's span from their one-span memo.
The last-axis trees plan their span, which every one of them repeats within
an operation.

All nested trees share one visit counter, so a top-level operation's visit
count includes every inner-tree node it touched.
"""

from __future__ import annotations

from typing import List, Optional

from .algebra import OperatorPair, check_special
from .boxes import Box, check_box, check_value
from .counters import OpCounters
from .dense import DenseTensor
from .seg1d import SegTree1D, node_shape, row_folds, split


class NDTree:
    def __init__(self, tensor: DenseTensor, pair: OperatorPair, *,
                 counters: Optional[OpCounters] = None):
        if not pair.is_special:
            ok, witness = check_special(pair)
            detail = (f"is not fold-commuting; counterexample (a, b, v) = {witness}"
                      if not ok else "must fold with its update operator: "
                      "need update_op is query_op and equal identities")
            raise ValueError(f"pair {pair.name!r} {detail}")
        self._own = counters is None
        self._blank(tensor.dims, pair, counters if counters is not None else OpCounters())
        c = self.counters
        if len(self.dims) == 1:
            self.line = SegTree1D(tensor.data, pair, counters=c)
            return
        sub_dims = self.dims[1:]
        for i, rows in row_folds(node_shape(self.dims[0]), tensor.first_axis_slice,
                                 pair.query_op):
            self.row_fold[i] = (SegTree1D(rows, pair, counters=c) if self._bare else
                                NDTree(DenseTensor(sub_dims, rows, pair), pair, counters=c))

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
        self.lo, self.hi, self.left, self.right = shape[:4]
        count = len(shape.lo)
        # the last axis is a bare SegTree1D
        self._bare = len(dims) == 2
        self.row_fold: List = [None] * count
        self.row_lazy: List = [None] * count
        counters.visits_total += count

    def _allocate(self):
        """A fresh all-identity tree over the axes after axis 0."""
        if self._bare:
            return SegTree1D.identity(self.dims[1], self.pair, counters=self.counters)
        t = NDTree.__new__(NDTree)
        t._own = False
        t._blank(self.dims[1:], self.pair, self.counters)
        return t

    @property
    def node_count(self) -> int:
        """Outer nodes on axis 0 (the wrapped tree's nodes for d == 1)."""
        return self.line.node_count if self.line is not None else len(self.lo)

    def update(self, box: Box, value) -> None:
        check_box(box, self.dims)
        check_value(value)
        c = self.counters
        before = c.visits_total
        if self.line is not None:
            self.line.update(box[0][0], box[0][1], value)
        else:
            self._update(box, value)
        if self._own:
            c.note_update(c.visits_total - before)

    def _update(self, box: Box, value) -> None:
        xlo, xhi = box[0]
        # the arguments of an inner call ahead of the value
        rest = box[1] if self._bare else (box[1:],)
        lo, hi = self.lo, self.hi
        folds, lazies = self.row_fold, self.row_lazy
        agg = self.pair.aggregator
        e = self.pair.update_identity
        covered, partial = split(self.shape, xlo, xhi)
        # each node's own trees are independent of its children's, so the
        # order of the inner updates does not matter
        for i in covered:
            t = lazies[i]
            if t is None:
                t = lazies[i] = self._allocate()
            t.update(*rest, value)
        for i in partial:
            ilo = lo[i]
            ihi = hi[i]
            j = (ihi if ihi < xhi else xhi) - (ilo if ilo > xlo else xlo) + 1
            t = folds[i]
            if t is None:
                t = folds[i] = self._allocate()
            t.update(*rest, agg(e, value, j))
        self.counters.visits_total += 1 + 2 * len(partial)

    def query(self, box: Box):
        check_box(box, self.dims)
        c = self.counters
        before = c.visits_total
        if self.line is not None:
            out = self.line.query(box[0][0], box[0][1])
        else:
            out = self._query(box)
        if self._own:
            c.note_query(c.visits_total - before)
        return out

    def _query(self, box: Box):
        xlo, xhi = box[0]
        rest = box[1] if self._bare else (box[1:],)
        lo, hi = self.lo, self.hi
        folds, lazies = self.row_fold, self.row_lazy
        q = self.pair.query_op
        agg = self.pair.aggregator
        out = self.pair.query_identity
        covered, partial = split(self.shape, xlo, xhi)
        # a None tree is all-identity and is skipped
        for i in covered:
            t = folds[i]
            if t is not None:
                out = q(out, t.query(*rest))
            t = lazies[i]
            if t is not None:
                out = agg(out, t.query(*rest), hi[i] - lo[i] + 1)
        for i in partial:
            t = lazies[i]
            if t is not None:
                ilo = lo[i]
                ihi = hi[i]
                j = (ihi if ihi < xhi else xhi) - (ilo if ilo > xlo else xlo) + 1
                out = agg(out, t.query(*rest), j)
        self.counters.visits_total += 1 + 2 * len(partial)
        return out
