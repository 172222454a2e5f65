"""2D structure for arbitrary operator pairs: a row tree of column trees.

Any pair with a constant-time aggregator fits -- no fold-commuting property
is needed -- at the price of asymmetric costs: queries visit
O(log N * log M) nodes, updates O(N log M + M log N).

An outer 1D node arena spans the rows.  Outer node ``n`` covering ``w`` rows
holds an inner :class:`~uqtrees.seg1d.SegTree1D` over the columns whose
slot ``y`` stands for the fold of column ``y`` restricted to ``n``'s rows.
Each inner slot therefore represents ``w`` real cells, which is exactly what
a tree's ``cell_weight=w`` encodes: one slot absorbing an update value means
``aggregator(slot, v, w)``, and the inner tree's aggregator calls see cell
counts, not slot counts.  The build walks the arena children first: a leaf
row's tree is a ``SegTree1D`` over its row, and an internal node's is the
compiled ``join`` of its two children's trees, one ``query_op`` per column
node, as no tree holds a pending value yet.

The outer arena reads its layout from ``shape``, the row count's
:func:`~uqtrees.seg1d.node_shape`; every inner tree reads it from the one
``node_shape`` of the column count.  Inner trees of equal row count share
one list of weighted node sizes (:func:`~uqtrees.seg1d.node_sizes`; a
64-row grid has 7 such weights for its 127 row nodes), so each tree's own
per-node lists are only ``val``/``laz``.

There are no pending values at the outer level.  An update splits its box
into the row span and the column span; outer nodes inside the row span
forward a lazy column update to their inner tree, while partially overlapped
outer nodes cannot be patched in place (how their column folds change
depends on which rows were hit), so they rebuild.  The row span's
:func:`~uqtrees.seg1d.split` names both kinds: every node of a covered
subtree updates, then every partial node rebuilds, children first.  Only the
columns of the update's span can have changed, so a rebuild resets that span
of its own tree to the element-wise fold of both children's true columns:
one call of the compiled ``rebuild`` kernel sets every span node of every
partial node, partial column nodes too, in one top-down pass from its
children's true folds, reading a child rebuilt earlier in the call as it
stands.  It returns the visits: those nodes once per rebuild and once per
child not rebuilt (``len(partial) + 1`` children, as the partial nodes form
a subtree).  ``last_events`` lists the latest update's events, derived from
its stored split.  A query folds the column split across the trees of every
covered node of the row span's split, left to right, in one call of the
compiled ``query_many`` kernel; it never mutates.

Each operation keeps :mod:`uqtrees.seg1d`'s rule: one check, one
:func:`~uqtrees.seg1d.split` per axis, one ``note_*``.  An update's covered
subtrees form one forest of column trees, updated by one call of the
compiled ``update_many`` walk, each column node once across the forest,
with each tree's own weighted sizes; the rebuilds take the same column
split, and so does a query's ``query_many`` fold.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .algebra import OperatorPair
from .boxes import Box, check_box, check_value
from .counters import OpCounters
from .dense import DenseTensor
from .seg1d import SegTree1D, node_shape, split


class Grid2D:
    def __init__(self, tensor: DenseTensor, pair: OperatorPair):
        if len(tensor.dims) != 2:
            raise ValueError(f"need a 2D tensor, got extents {tensor.dims}")
        self.dims = tensor.dims
        self.pair = pair
        self.counters = OpCounters()
        self.shape = shape = node_shape(tensor.dims[0])
        self.node_count = count = len(shape.lo)
        self.inner: List[SegTree1D] = [None] * count  # type: ignore[list-item]
        self._split: Tuple[Sequence[int], Sequence[int]] = ((), ())
        for k, i in enumerate(shape.leaves):
            self.inner[i] = SegTree1D(tensor.first_axis_slice(k), pair, counters=self.counters)
        for i, l, r in shape.joins:
            self.inner[i] = SegTree1D._joined(self.inner[l], self.inner[r], shape.size[i])
        self.counters.visits_total += count

    @property
    def last_events(self) -> List[Tuple[str, int]]:
        """The latest update's inner updates and rebuilds, in the order done."""
        covered, partial = self._split
        lo, hi = self.shape[:2]
        events = [("inner-update", j) for i in covered
                  for j in range(i, i + 2 * (hi[i] - lo[i]) + 1)]
        return events + [("rebuild", i) for i in reversed(partial)]

    def update(self, box: Box, value) -> None:
        check_box(box, self.dims)
        check_value(value)
        (xlo, xhi), (ylo, yhi) = box
        (lo, hi, left, right), inner = self.shape[:4], self.inner
        self._split = covered, partial = split(self.shape, xlo, xhi)
        ccov, cpar = split(inner[0].shape, ylo, yhi)
        # no pending values at the outer level: every node of a covered
        # subtree, the index run i .. i + 2*(hi[i]-lo[i]), updates its column
        # tree, all in one forest walk
        forest: List[SegTree1D] = []
        for i in covered:
            forest += inner[i:i + 2 * (hi[i] - lo[i]) + 1]
        inner[0]._k.update_many(forest, ccov, cpar, value)
        # the row split's walk, both children of every internal node of a
        # covered subtree (its node count less its root), and each column walk
        visits = 1 + 2 * len(partial) - len(covered) + len(forest) * (2 + 2 * len(cpar))
        if partial:
            # every partial node, children first, resets the span's column
            # nodes from its two children in one walk, which returns its visits
            visits += inner[0]._k.rebuild(inner, partial, left, right, ccov, cpar)
        self.counters.note_update(visits)

    def query(self, box: Box):
        check_box(box, self.dims)
        (xlo, xhi), (ylo, yhi) = box
        inner = self.inner
        covered, partial = split(self.shape, xlo, xhi)
        ccov, cpar = split(inner[0].shape, ylo, yhi)
        out = inner[0]._k.query_many(inner, covered, ccov, cpar)
        # the row split's walk, and one column walk per covered row node
        visits = 1 + 2 * len(partial) + len(covered) * (1 + 2 * len(cpar))
        self.counters.note_query(visits)
        return out
