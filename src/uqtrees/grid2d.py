"""2D structure for arbitrary operator pairs: a row tree of column trees.

Any pair with a constant-time aggregator fits -- no fold-commuting property
is needed -- at the price of asymmetric costs: queries visit
O(log N * log M) nodes, updates O(N log M + M log N).

An outer 1D node arena spans the rows.  Outer node ``n`` covering ``w`` rows
holds an inner :class:`~uqtrees.seg1d.SegTree1D` over the columns whose
slot ``y`` stands for the fold of column ``y`` restricted to ``n``'s rows.
Each inner slot therefore represents ``w`` real cells, which is exactly what
``SegTree1D(..., cell_weight=w)`` encodes: one slot absorbing an update
value means ``aggregator(slot, v, w)``, and the inner tree's aggregator
calls see cell counts, not slot counts.

The outer arena's layout is :func:`~uqtrees.seg1d.node_shape` of the row
count, and every inner tree uses the one layout of the column count, so
each tree owns only its ``val``/``laz`` (plus its weighted node sizes).

There are no pending values at the outer level.  An update splits its box
into the row span and the column span; outer nodes inside the row span
forward a lazy column update to their inner tree, while partially overlapped
outer nodes cannot be patched in place (how their column folds change
depends on which rows were hit), so they rebuild.  The row span's
:func:`~uqtrees.seg1d.split` names both kinds: every node of a covered
subtree updates, every partial node rebuilds.  Only the columns of the
update's span can have changed, so a rebuild reads both children's true
columns on that span (``to_array(ylo, yhi)``), folds them element-wise and
resets just that span of its own tree (``reinit(cols, ylo)``); every other
column's fold is already right.  Children are always finalized before their
parent rebuilds (covered subtrees, then partial nodes children first), and
a child rebuilt just before hands its span columns up instead of being read
again.  ``last_events`` lists the latest update's events, derived from its
stored split.  A query folds inner-tree column queries over the covered nodes
of the row span's split and never mutates.

The row span is split with the plain :func:`~uqtrees.seg1d.split`, not the
memoised :func:`~uqtrees.seg1d.plan`: each operation splits its row span
once, and consecutive operations rarely repeat it, so a memo would only
miss and add its copy.  The inner trees do plan their column span, which
every inner call of one operation repeats.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .algebra import OperatorPair
from .boxes import Box, check_box
from .counters import OpCounters
from .dense import DenseTensor
from .seg1d import SegTree1D, node_shape, row_folds, split


class Grid2D:
    def __init__(self, tensor: DenseTensor, pair: OperatorPair, *,
                 counters: Optional[OpCounters] = None):
        if len(tensor.dims) != 2:
            raise ValueError(f"need a 2D tensor, got extents {tensor.dims}")
        self.dims = tensor.dims
        self.pair = pair
        self._own = counters is None
        self.counters = counters if counters is not None else OpCounters()
        self.shape = shape = node_shape(tensor.dims[0])
        self.lo, self.hi, self.left, self.right = shape[:4]
        self.node_count = count = len(shape.lo)
        self.inner: List[SegTree1D] = [None] * count  # type: ignore[list-item]
        self._split: Tuple[Sequence[int], Sequence[int]] = ((), ())
        for i, rows in row_folds(shape, tensor.first_axis_slice, pair.query_op):
            self.inner[i] = SegTree1D(rows, pair, cell_weight=shape.size[i],
                                      counters=self.counters)
        self.counters.visits_total += count

    @property
    def last_events(self) -> List[Tuple[str, int]]:
        """The latest update's inner updates and rebuilds, in the order done."""
        covered, partial = self._split
        hi, lo = self.hi, self.lo
        events = [("inner-update", j) for i in covered
                  for j in range(i, i + 2 * (hi[i] - lo[i]) + 1)]
        return events + [("rebuild", i) for i in reversed(partial)]

    def update(self, box: Box, value) -> None:
        check_box(box, self.dims)
        if value != value:
            raise ValueError("cannot update with nan")
        c = self.counters
        before = c.visits_total
        (xlo, xhi), (ylo, yhi) = box
        lo, hi = self.lo, self.hi
        left, right = self.left, self.right
        inner = self.inner
        q = self.pair.query_op
        self._split = covered, partial = split(self.shape, xlo, xhi)
        # the split's walk, plus both children of every internal node of a
        # covered subtree: its node count less its root
        visits = 1 + 2 * len(partial) - len(covered)
        for i in covered:
            # no pending values at the outer level: every node of a covered
            # subtree, the index run i .. end - 1, updates its column tree
            end = i + 2 * (hi[i] - lo[i]) + 1
            for j in range(i, end):
                inner[j].update(ylo, yhi, value)
            visits += end - i
        # span columns of the nodes just rebuilt, until their parent takes them
        held = {}
        for i in reversed(partial):  # children before parents
            l = left[i]
            r = right[i]
            cols_l = held.pop(l, None) or inner[l].to_array(ylo, yhi)
            cols_r = held.pop(r, None) or inner[r].to_array(ylo, yhi)
            cols = held[i] = list(map(q, cols_l, cols_r))
            inner[i].reinit(cols, ylo)
        c.visits_total += visits
        if self._own:
            c.note_update(c.visits_total - before)

    def query(self, box: Box):
        check_box(box, self.dims)
        c = self.counters
        before = c.visits_total
        (xlo, xhi), (ylo, yhi) = box
        inner = self.inner
        q = self.pair.query_op
        out = self.pair.query_identity
        covered, partial = split(self.shape, xlo, xhi)
        for i in covered:
            out = q(out, inner[i].query(ylo, yhi))
        c.visits_total += 1 + 2 * len(partial)
        if self._own:
            c.note_query(c.visits_total - before)
        return out
