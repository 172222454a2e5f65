"""d-dimensional tree for fold-commuting operator pairs.

Works for pairs satisfying ``query_op(update_op(a, v), b) ==
update_op(query_op(a, b), v)`` (checked at construction): when only ``j`` of
the elements inside a fold absorb an update ``v``, the fold itself simply
absorbs ``v`` repeated ``j`` times, no matter *which* elements were hit.
That collapses the cross-axis bookkeeping that blocks the general case and
yields O(log n_0 * ... * log n_{d-1}) updates and queries.

Structure, recursively over axis 0:

* ``d == 1``: a plain :class:`~uqtrees.seg1d.SegTree1D`.
* ``d >= 2``: a 1D node arena over axis 0 where node ``n`` (covering ``w``
  rows) holds two (d-1)-dimensional trees over the remaining axes:

  - ``row_fold[n]``  -- the element-wise fold of the rows ``n`` covers,
  - ``row_lazy[n]``  -- pending update values, folded under the pair itself
    (so the pair must have ``update_op is query_op`` and equal identities,
    as every registered fold-commuting pair has), meaning "every
    descendant's ``row_fold`` entry at coordinate ``c`` still has to absorb
    ``row_lazy[n](c)`` repeated (descendant row count) times".

The axis-0 arena's layout is :func:`~uqtrees.seg1d.node_shape` of the
extent, shared with every other tree of that extent; nested trees of equal
extent likewise share one layout and each owns only its ``val``/``laz``.

An update splits its box into the axis-0 span ``X`` and the remainder ``C``:
nodes inside ``X`` stamp ``v`` into ``row_lazy`` over ``C``; partially
overlapped nodes descend and repair ``row_fold`` over ``C`` with ``v``
repeated ``|overlap with X|`` times.  A query mirrors this: it folds the
fully covered nodes' results, then absorbs each partially overlapped node's
pending values once, which the fold-commuting law makes exact.  Both walks
are explicit-stack loops (see :mod:`uqtrees.seg1d`).  Queries leave the
trees unchanged (they only bump the shared counters); updates need exclusive
access.

All nested trees share one visit counter, so a top-level operation's visit
count includes every inner-tree node it touched.
"""

from __future__ import annotations

from typing import List, Optional

from .algebra import OperatorPair, check_special
from .boxes import Box, check_box
from .counters import OpCounters
from .dense import DenseTensor
from .seg1d import SegTree1D, node_shape, row_folds


class NDTree:
    def __init__(self, tensor: DenseTensor, pair: OperatorPair, *,
                 counters: Optional[OpCounters] = None):
        if not pair.is_special:
            ok, witness = check_special(pair)
            detail = f"; counterexample (a, b, v) = {witness}" if not ok else ""
            raise ValueError(f"pair {pair.name!r} is not fold-commuting{detail}")
        if pair.update_op is not pair.query_op or pair.update_identity != pair.query_identity:
            # the pending-value trees fold with the pair itself
            raise ValueError(f"pair {pair.name!r} must fold with its update operator: "
                             "need update_op is query_op and equal identities")
        self.dims = tensor.dims
        self.pair = pair
        self._own = counters is None
        self.counters = counters if counters is not None else OpCounters()
        self.line: Optional[SegTree1D] = None
        if len(self.dims) == 1:
            self.line = SegTree1D(tensor.data, pair, counters=self.counters)
            return
        n = self.dims[0]
        shape = node_shape(n)
        self.lo, self.hi, self.left, self.right = shape[:4]
        count = len(shape.lo)
        sub_dims = self.dims[1:]
        blank = DenseTensor(sub_dims, [pair.update_identity] * (len(tensor.data) // n), pair)
        self.row_fold: List[NDTree] = [None] * count  # type: ignore[list-item]
        self.row_lazy: List[NDTree] = [None] * count  # type: ignore[list-item]
        for i, rows in row_folds(shape, tensor.first_axis_slice, pair.query_op):
            self.row_fold[i] = NDTree(DenseTensor(sub_dims, rows, pair), pair,
                                      counters=self.counters)
            self.row_lazy[i] = NDTree(blank, pair, counters=self.counters)
        self.counters.visits_total += count

    @property
    def node_count(self) -> int:
        """Outer nodes on axis 0 (the wrapped tree's nodes for d == 1)."""
        return self.line.node_count if self.line is not None else len(self.lo)

    def update(self, box: Box, value) -> None:
        check_box(box, self.dims)
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
        rest = box[1:]
        lo, hi = self.lo, self.hi
        left, right = self.left, self.right
        folds, lazies = self.row_fold, self.row_lazy
        rep = self.pair.repeat
        visits = 1
        # each node's own trees are independent of its children's, so the
        # order of the inner updates does not matter
        stack = [0]
        while stack:
            i = stack.pop()
            ilo = lo[i]
            ihi = hi[i]
            if xlo <= ilo and ihi <= xhi:
                lazies[i].update(rest, value)
            else:
                visits += 2
                l = left[i]
                if hi[l] >= xlo:
                    stack.append(l)
                r = right[i]
                if lo[r] <= xhi:
                    stack.append(r)
                j = (ihi if ihi < xhi else xhi) - (ilo if ilo > xlo else xlo) + 1
                folds[i].update(rest, rep(value, j))
        self.counters.visits_total += visits

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
        rest = box[1:]
        lo, hi = self.lo, self.hi
        left, right = self.left, self.right
        folds, lazies = self.row_fold, self.row_lazy
        u = self.pair.update_op
        q = self.pair.query_op
        rep = self.pair.repeat
        out = self.pair.query_identity
        # the pending values of partially covered nodes, absorbed once the
        # covered parts are folded: exact by the fold-commuting law
        pending = []
        visits = 1
        stack = [0]
        while stack:
            i = stack.pop()
            ilo = lo[i]
            ihi = hi[i]
            if xlo <= ilo and ihi <= xhi:
                base = folds[i].query(rest)
                pend = lazies[i].query(rest)
                out = q(out, u(base, rep(pend, ihi - ilo + 1)))
            else:
                visits += 2
                r = right[i]
                if lo[r] <= xhi:
                    stack.append(r)
                l = left[i]
                if hi[l] >= xlo:
                    stack.append(l)
                j = (ihi if ihi < xhi else xhi) - (ilo if ilo > xlo else xlo) + 1
                pending.append(rep(lazies[i].query(rest), j))
        for pend in pending:
            out = u(out, pend)
        self.counters.visits_total += visits
        return out
