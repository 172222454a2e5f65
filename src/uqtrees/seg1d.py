"""1D segment tree with lazy update values.

Nodes live in an index-addressed arena of parallel lists; node 0 is the
root and covers ``[0, N-1]``.  A node over ``[l, r]`` with ``l < r`` splits
at ``m = (l + r) // 2`` into ``[l, m]`` and ``[m+1, r]``, which gives exactly
``2N - 1`` nodes for any N, power of two or not.  That layout
(``lo``/``hi``/``left``/``right`` and node sizes) depends only on N, so
:func:`node_shape` builds it once per extent and every tree of that extent
shares it -- the outer arenas of :mod:`uqtrees.ndspecial` and
:mod:`uqtrees.grid2d` included.  A tree owns only ``val`` and ``laz`` (and
``sz`` when its cells are weighted).

Each node ``n`` caches two things:

* ``val[n]`` -- the fold (under ``query_op``) of a snapshot of the elements
  it covers, and
* ``laz[n]`` -- a pending update value meaning "every element below here
  still has to absorb ``laz[n]``"; equivalently, the fold cached at any
  descendant ``m`` must be read as ``aggregator(val[m], laz[n], size[m])``.

:func:`split` breaks a span into the maximal nodes inside it and the
partially covered nodes above them.  ``update``, ``decompose`` and a ranged
``reinit`` consume that one split through :func:`plan`; the outer arenas of
the 2D and d-dimensional trees call :func:`split` directly; ``query``,
``to_array`` and ``validate`` carry pending values down their own walks.
``update`` stamps the pending value onto the covered nodes (the same nodes
:meth:`decompose` returns) and repairs ``val`` on the partial nodes,
children first::

    val[n] = query_op(aggregator(val[l], laz[l], size[l]),
                      aggregator(val[r], laz[r], size[r]))

:func:`plan` remembers the latest split of each extent, one span deep: the
inner trees of a nested structure share one layout and are called one after
another with the same span, so only the first of them walks it.  The memo is
one slot on the shared :class:`NodeShape` holding one immutable tuple
``(lo, hi, covered, partial)``; it is read once, compared, and replaced
whole on a miss.  Two threads updating two different trees of one extent
therefore never pair a span with another span's nodes -- at worst each
walks its own span -- and concurrent readers of a plan get right answers.
A span that never repeats costs a tuple copy of its split and nothing more,
and the memo holds one split per extent, however long the workload runs.

``query`` never pushes pending values down -- it carries the combined
pending value of a node's ancestors down to it -- so queries leave the tree
unchanged.  They do bump the shared :class:`~uqtrees.counters.OpCounters`
without a lock, so concurrent readers get right answers but may lose visit
counts; ``update`` needs exclusive access.  Both visit O(log N) nodes.

The walks are loops over an explicit stack, not recursive closures: a
recursive closure is a reference cycle, so every call would leave garbage
that only a run of the cyclic garbage collector can free.

``cell_weight`` scales every node size: a tree whose slots each stand for
``w`` real cells (the 2D structure in :mod:`uqtrees.grid2d` uses this) gets
correct aggregator calls simply by building with ``cell_weight=w``.
"""

from __future__ import annotations

from functools import cache
from operator import index
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .algebra import OperatorPair
from .counters import OpCounters
from .dense import DenseTensor


class ValidationError(AssertionError):
    pass


class NodeShape(NamedTuple):
    """The mid-split pre-order layout over ``[0, n-1]``, one entry per node.

    ``left``/``right`` are -1 at leaves; ``size`` counts covered slots,
    unscaled.  ``memo`` is :func:`plan`'s one slot.
    """

    lo: List[int]
    hi: List[int]
    left: List[int]
    right: List[int]
    size: List[int]
    memo: list


@cache
def node_shape(n: int) -> NodeShape:
    """The shared layout for extent ``n``; every tree of that extent uses it.

    Pre-order puts the left child of node ``i`` at ``i + 1`` and the right
    child after the ``2 * (left width) - 1`` nodes of the left subtree.  The
    lists are shared, so nobody may mutate them.
    """
    if n < 1:
        raise ValueError("cannot build over an empty array")
    count = 2 * n - 1
    lo = [0] * count
    hi = [0] * count
    left = [-1] * count
    right = [-1] * count
    size = [0] * count
    stack = [(0, 0, n - 1)]
    while stack:
        i, a, b = stack.pop()
        lo[i] = a
        hi[i] = b
        size[i] = b - a + 1
        if a < b:
            m = (a + b) // 2
            left[i] = i + 1
            right[i] = i + 2 * (m - a + 1)
            stack.append((right[i], m + 1, b))
            stack.append((i + 1, a, m))
    return NodeShape(lo, hi, left, right, size, [(-1, -1, (), ())])


def split(shape: NodeShape, lo: int, hi: int) -> Tuple[List[int], List[int]]:
    """Break the span ``[lo, hi]`` over ``shape`` into ``(covered, partial)``.

    ``covered`` holds the maximal nodes inside the span, left to right;
    ``partial`` the nodes that meet the span without lying inside it, in
    pre-order (so ``reversed(partial)`` lists children before parents).  A
    walk that visits the root and both children of every partial node
    visits ``1 + 2 * len(partial)`` nodes.
    """
    slo, shi, left, right = shape.lo, shape.hi, shape.left, shape.right
    covered: List[int] = []
    partial: List[int] = []
    stack = [0]
    while stack:
        i = stack.pop()
        if lo <= slo[i] and shi[i] <= hi:
            covered.append(i)
        else:
            partial.append(i)
            r = right[i]
            if slo[r] <= hi:
                stack.append(r)
            l = left[i]
            if shi[l] >= lo:
                stack.append(l)
    return covered, partial


def plan(shape: NodeShape, lo: int, hi: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """:func:`split` as tuples, walked only when ``shape``'s last span differs.

    Callers share the tuples.  ``lo``/``hi`` must be checked ints: a float
    equal to a remembered bound would hit.
    """
    memo = shape.memo
    m = memo[0]
    if m[0] == lo and m[1] == hi:
        return m[2], m[3]
    covered, partial = split(shape, lo, hi)
    m = memo[0] = (lo, hi, tuple(covered), tuple(partial))
    return m[2], m[3]


def row_folds(shape: NodeShape, row, q):
    """Yield ``(node, fold)`` for every node of ``shape``, children first.

    ``fold`` is the element-wise ``q``-fold of ``row(k)`` over the node's
    span ``k = lo..hi`` (the outer arenas of the 2D and d-dimensional trees
    build their per-node trees from it).  A child's list is dropped once its
    parent has folded it.
    """
    lo, left, right = shape.lo, shape.left, shape.right
    held: list = [None] * len(lo)
    for i in range(len(lo) - 1, -1, -1):
        l = left[i]
        if l < 0:
            fold = row(lo[i])
        else:
            r = right[i]
            fold = [q(a, b) for a, b in zip(held[l], held[r])]
            held[l] = held[r] = None
        held[i] = fold
        yield i, fold


class SegTree1D:
    def __init__(self, values: Sequence, pair: OperatorPair, *,
                 cell_weight: int = 1, counters: Optional[OpCounters] = None):
        self._bind(len(values), pair, cell_weight, counters)
        self.val: list = [None] * self.node_count
        self.laz: list = [None] * self.node_count
        self.reinit(values)

    @classmethod
    def identity(cls, size: int, pair: OperatorPair, *,
                 counters: Optional[OpCounters] = None) -> "SegTree1D":
        """A tree over ``size`` copies of ``query_identity``, filled without a walk.

        Every fold is ``query_identity`` and every pending value
        ``update_identity``, which is what the constructor would compute;
        like the constructor it counts ``node_count`` visits.
        """
        t = cls.__new__(cls)
        t._bind(size, pair, 1, counters)
        t.val = [pair.query_identity] * t.node_count
        t.laz = [pair.update_identity] * t.node_count
        t.counters.visits_total += t.node_count
        return t

    def _bind(self, size: int, pair: OperatorPair, cell_weight: int,
              counters: Optional[OpCounters]) -> None:
        shape = node_shape(size)
        self.size = size
        self.pair = pair
        self.cell_weight = cell_weight
        self._own = counters is None
        self.counters = counters if counters is not None else OpCounters()
        self.shape = shape
        self.lo, self.hi, self.left, self.right = shape[:4]
        self.node_count = len(shape.lo)
        # covered cells per node, pre-scaled by cell_weight
        self.sz = (shape.size if cell_weight == 1
                   else [k * cell_weight for k in shape.size])
        self._stamped: Sequence[int] = ()

    @property
    def last_lazy_spans(self) -> List[Tuple[int, int]]:
        """The spans the latest update stamped its value onto, left to right."""
        return [(self.lo[i], self.hi[i]) for i in self._stamped]

    def reinit(self, values: Sequence, qlo: int = 0) -> None:
        """Reset elements ``qlo .. qlo + len(values) - 1`` to fresh ``values``.

        Walks only the nodes that meet the span and counts one visit per
        node.  Each partial node of the :func:`split` first pushes its
        pending value down to both children, parents first, so elements
        outside the span keep their true values.  Each covered node then
        resets its whole subtree in reverse index order, children before
        parents, clearing its pending values; values for the whole array
        reset every node this way, once each, which is how the constructor
        fills the tree.  The partial nodes are repaired last, as in
        :meth:`update`.
        """
        lo, hi, left, right = self.lo, self.hi, self.left, self.right
        val, laz = self.val, self.laz
        u_id = self.pair.update_identity
        q = self.pair.query_op
        if qlo == 0 and len(values) == self.size:
            # the whole array, as the constructor fills it: the covered loop
            # below for the root, without the span's offset and split
            for i in range(self.node_count - 1, -1, -1):
                l = left[i]
                val[i] = values[lo[i]] if l < 0 else q(val[l], val[right[i]])
                laz[i] = u_id
            self.counters.visits_total += self.node_count
            return
        qhi = qlo + len(values) - 1
        self._check(qlo, qhi)
        covered, partial = plan(self.shape, qlo, qhi)
        u = self.pair.update_op
        for i in partial:
            l = left[i]
            r = right[i]
            z = laz[i]
            laz[l] = u(laz[l], z)
            laz[r] = u(laz[r], z)
            laz[i] = u_id
        visits = len(partial)
        for i in covered:
            # pre-order: the subtree of i is the index run i .. end - 1
            end = i + 2 * (hi[i] - lo[i]) + 1
            for j in range(end - 1, i - 1, -1):
                l = left[j]
                val[j] = values[lo[j] - qlo] if l < 0 else q(val[l], val[right[j]])
                laz[j] = u_id
            visits += end - i
        self._repair(partial)
        self.counters.visits_total += visits

    def _repair(self, partial: Sequence[int]) -> None:
        """Refold ``val`` on the pre-order ``partial`` nodes, children first."""
        left, right, sz = self.left, self.right, self.sz
        val, laz = self.val, self.laz
        q = self.pair.query_op
        agg = self.pair.aggregator
        for i in reversed(partial):
            l = left[i]
            r = right[i]
            val[i] = q(agg(val[l], laz[l], sz[l]), agg(val[r], laz[r], sz[r]))

    def _check(self, qlo: int, qhi: int) -> None:
        index(qlo)
        index(qhi)
        if qlo > qhi or qlo < 0 or qhi >= self.size:
            raise ValueError(f"span ({qlo}, {qhi}) out of bounds for length {self.size}")

    def update(self, qlo: int, qhi: int, value) -> None:
        self._check(qlo, qhi)
        if value != value:
            raise ValueError("cannot update with nan")
        covered, partial = plan(self.shape, qlo, qhi)
        laz = self.laz
        u = self.pair.update_op
        for i in covered:
            laz[i] = u(laz[i], value)
        self._repair(partial)
        self._stamped = covered
        visits = 1 + 2 * len(partial)
        self.counters.visits_total += visits
        if self._own:
            self.counters.note_update(visits)

    def query(self, qlo: int, qhi: int):
        self._check(qlo, qhi)
        lo, hi = self.lo, self.hi
        left, right, sz = self.left, self.right, self.sz
        val, laz = self.val, self.laz
        u = self.pair.update_op
        q = self.pair.query_op
        agg = self.pair.aggregator
        out = self.pair.query_identity
        visits = 1
        # (node, combined pending value of its strict ancestors); a covered
        # node absorbs them all at its own size, as in to_array, which is
        # exact because aggregator distributes over query_op
        stack = [(0, self.pair.update_identity)]
        while stack:
            i, z = stack.pop()
            ilo = lo[i]
            ihi = hi[i]
            if qlo <= ilo and ihi <= qhi:
                out = q(out, agg(val[i], u(z, laz[i]), sz[i]))
            else:
                visits += 2
                z = u(z, laz[i])
                r = right[i]
                if lo[r] <= qhi:
                    stack.append((r, z))
                l = left[i]
                if hi[l] >= qlo:
                    stack.append((l, z))
        self.counters.visits_total += visits
        if self._own:
            self.counters.note_query(visits)
        return out

    def decompose(self, qlo: int, qhi: int) -> List[Tuple[int, int]]:
        """The canonical disjoint node spans whose union is ``[qlo, qhi]``.

        At most ``2 * ceil(log2 N)`` spans for N >= 2 (a single span for
        N == 1); these are exactly the nodes an update stamps its pending
        value onto.
        """
        self._check(qlo, qhi)
        covered, partial = plan(self.shape, qlo, qhi)
        self.counters.visits_total += 1 + 2 * len(partial)
        return [(self.lo[i], self.hi[i]) for i in covered]

    def to_array(self, qlo: int = 0, qhi: Optional[int] = None) -> list:
        """True values of elements ``qlo .. qhi`` (default: the whole array).

        Walks the arena in index order, which is pre-order, so every parent
        comes before its children; each node passes the combined pending
        values of its ancestors and itself on to its children, and each leaf
        emits ``aggregator(val, carried, leaf size)``.  Only the nodes that
        meet the span are walked and counted: a disjoint subtree is one
        index run, skipped in one step, and once a node starts right of the
        span so does every later one.  The whole array costs exactly
        ``node_count`` visits.
        """
        if qhi is None:
            qhi = self.size - 1
        self._check(qlo, qhi)
        lo, hi, left, right = self.lo, self.hi, self.left, self.right
        val, laz = self.val, self.laz
        u = self.pair.update_op
        agg = self.pair.aggregator
        w = self.cell_weight
        count = self.node_count
        out = []
        carried = [self.pair.update_identity] * count
        visits = 0
        i = 0
        while i < count:
            ilo = lo[i]
            if ilo > qhi:
                break
            ihi = hi[i]
            end = i + 2 * (ihi - ilo) + 1  # one past the subtree of i
            if ihi < qlo:
                i = end
            elif qlo <= ilo and ihi <= qhi:
                for j in range(i, end):
                    z = u(carried[j], laz[j])
                    l = left[j]
                    if l < 0:
                        out.append(agg(val[j], z, w))
                    else:
                        carried[l] = z
                        carried[right[j]] = z
                visits += end - i
                i = end
            else:
                z = u(carried[i], laz[i])
                carried[left[i]] = z
                carried[right[i]] = z
                visits += 1
                i += 1
        self.counters.visits_total += visits
        return out

    def validate(self, reference: DenseTensor) -> None:
        """Check every node's effective fold against a same-history oracle.

        The effective fold of node ``n`` is ``aggregator(val[n], z, size[n])``
        with ``z`` the combination of pending values on the path from the
        root down to and including ``n``; it must equal the oracle fold of
        the span ``n`` covers.  Raises :class:`ValidationError` naming the
        first offending node.
        """
        if reference.dims != (self.size,):
            raise ValueError("reference shape mismatch")
        agg = self.pair.aggregator
        u = self.pair.update_op
        stack = [(0, self.pair.update_identity)]
        while stack:
            i, z = stack.pop()
            z = u(z, self.laz[i])
            got = agg(self.val[i], z, self.sz[i])
            want = reference.query(((self.lo[i], self.hi[i]),))
            if got != want:
                raise ValidationError(
                    f"node {i} over [{self.lo[i]}, {self.hi[i]}]: "
                    f"effective fold {got!r} != oracle {want!r}")
            if self.left[i] >= 0:
                stack.append((self.left[i], z))
                stack.append((self.right[i], z))
