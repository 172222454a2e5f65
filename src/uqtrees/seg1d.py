"""1D segment tree with lazy update values.

Nodes live in an index-addressed arena of parallel lists; node 0 is the
root and covers ``[0, N-1]``.  A node over ``[l, r]`` with ``l < r`` splits
at ``m = (l + r) // 2`` into ``[l, m]`` and ``[m+1, r]``, which gives exactly
``2N - 1`` nodes for any N, power of two or not.  That layout depends only
on N, so :func:`node_shape` builds one :class:`NodeShape` per extent; every
tree of that extent (the arenas of :mod:`uqtrees.ndspecial` and
:mod:`uqtrees.grid2d` too) holds it as ``shape`` and every walk reads
``lo``/``hi``/``left``/``right`` from it.  Node sizes scaled by a cell
weight are one shared list per ``(extent, weight)`` from :func:`node_sizes`,
so a tree's own per-node lists are only ``val`` and ``laz``.

Each node ``n`` caches two things:

* ``val[n]`` -- the fold (under ``query_op``) of a snapshot of the elements
  it covers, and
* ``laz[n]`` -- a pending update value meaning "every element below here
  still has to absorb ``laz[n]``"; equivalently, the fold cached at any
  descendant ``m`` must be read as ``aggregator(val[m], laz[n], size[m])``.

:func:`split` breaks a span into the maximal nodes inside it and the
partially covered nodes above them.  One rule holds for every structure,
"one check, one split, one note": a public update or query checks its span
or box once, splits each axis once, and records itself with the visits of
every walk below it in one ``note_update``/``note_query`` call; the walks
take that split as given, check nothing and return their visits.
``update`` and ``decompose`` each split their span once; the outer arenas
of the 2D and d-dimensional trees split theirs and hand the inner axes'
splits down (a 2D query hands one column split to every covered row node's
tree); ``SegTree1D.query`` carries pending values down its own walk.
``update`` stamps the pending value onto the covered nodes (the
same nodes :meth:`decompose` returns) and repairs ``val`` on the partial
nodes, children first::

    val[n] = query_op(aggregator(val[l], laz[l], size[l]),
                      aggregator(val[r], laz[r], size[r]))

``query`` never pushes pending values down -- it carries the combined
pending value of a node's ancestors down to it -- so queries leave the tree
unchanged.  They do bump the shared :class:`~uqtrees.counters.OpCounters`
without a lock, so concurrent readers get right answers but may lose visit
counts; ``update`` needs exclusive access.  Both visit O(log N) nodes.

The walks are loops over an explicit stack, not recursive closures: a
recursive closure is a reference cycle, so every call would leave garbage
that only a run of the cyclic garbage collector can free.

:func:`kernels` compiles one template per walk with the pair's operators
written in, once per :class:`OperatorPair` object; a tree holds them as
``_k``: ``update`` (stamp and repair), ``update_many`` (the same over a
forest, node outer and tree inner, each tree with its own weighted sizes),
``rebuild`` (every partial row node of a :mod:`uqtrees.grid2d` forest
resets each span node, parents first, from its children's true folds,
carrying by parent the pending values of a child not rebuilt in the call), ``fill`` (the
constructor's whole-array build: one loop copies the cells onto the
layout's ``leaves``, one folds its ``joins``, children first; ``laz``
starts as one list of ``update_identity``), ``join`` (one ``Q`` per node of
two trees without pending values: the nested trees build an internal outer
node's tree from its two children's by it), ``query``, ``query_many`` (one
span's split folded over several trees in one call, tree by tree in the
order given: each tree's partial nodes carry its pending values down,
parents first, into a scratch dict made per call, of O(log N) entries, and
each covered node absorbs them at its own size) and, for a fold-commuting
pair only, the level walks of :mod:`uqtrees.ndspecial`, one text in two
forms: ``update_level``/``query_level`` walk a whole 2-D level
in one call (a partial last-axis node absorbs the update value, or gives
its own pending value, as often as it overlaps the span, and no child is
read), and ``update_nest``/``query_nest`` walk a level above it, handing
each tree to the next level's walk on ``_k``.  A callable with an exact
inline form, found by identity as :class:`DenseTensor` finds its fast
paths, becomes an expression (``operator.add``: ``a + b``,
``operator.mul``: ``a * b``, ``min``: ``b if b < a else a``, ``max``:
``b if b > a else a``, a registered aggregator: the expression that defines
it); any other callable stays a call, with the same answers, only slower.
Tracebacks show the generated lines (:mod:`linecache`).  Nested callers
call the kernels directly: ``Grid2D`` calls ``query_many`` on its covered
row nodes' trees and ``update_many`` and ``rebuild`` on its forest, and
``NDTree`` calls the level walk on a 2-D tree and the nest walk otherwise.
The kernels write only node lists and return their visits, if any, to the
caller, which counts them; ``SegTree1D.update`` records its own stamp.
``to_array`` and ``validate`` read one plain pre-order walk on the pair's
callables, ``SegTree1D._folds``; neither they nor the oracle use a kernel.

``cell_weight`` scales every node size: a tree whose slots each stand for
``w`` real cells (the 2D structure in :mod:`uqtrees.grid2d` uses this) gets
correct aggregator calls simply by building with ``cell_weight=w``, kept
only in ``sz``: the shared ``node_sizes(N, w)``, which no walk writes.
"""

from __future__ import annotations

import linecache
import operator
import re
from functools import cache
from types import SimpleNamespace
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .algebra import OperatorPair, inline_form
from .boxes import check_extents, check_span, check_value
from .counters import OpCounters
from .dense import DenseTensor


class ValidationError(AssertionError):
    pass


class NodeShape(NamedTuple):
    """The mid-split pre-order layout over ``[0, n-1]``, one entry per node.

    ``left``/``right`` are -1 at leaves, ``up`` (the parent) -1 at the root;
    ``size`` counts covered slots, unscaled.  Two tables drive ``fill``:
    ``leaves`` lists the leaf nodes in position order (``lo[leaves[k]] ==
    k``), and ``joins`` lists ``(i, left[i], right[i])`` for every internal
    node, children first (descending index).  Every tree of the extent reads
    this one instance, its ``shape``; nothing writes a field after it is built.
    """

    lo: List[int]
    hi: List[int]
    left: List[int]
    right: List[int]
    size: List[int]
    leaves: List[int]
    joins: List[Tuple[int, int, int]]
    up: List[int]


@cache
def node_shape(n: int) -> NodeShape:
    """The shared layout for extent ``n``; every tree of that extent uses it.

    Pre-order puts the left child of node ``i`` at ``i + 1`` and the right
    child after the ``2 * (left width) - 1`` nodes of the left subtree.  The
    lists are shared, so nobody may mutate them.
    """
    check_extents((n,))
    count = 2 * n - 1
    lo = [0] * count
    hi = [0] * count
    left = [-1] * count
    right = [-1] * count
    up = [-1] * count
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
            up[i + 1] = up[right[i]] = i
            stack.append((right[i], m + 1, b))
            stack.append((i + 1, a, m))
    # pre-order meets the leaves left to right
    leaves = [i for i in range(count) if left[i] < 0]
    joins = [(i, left[i], right[i]) for i in range(count - 1, -1, -1) if left[i] >= 0]
    return NodeShape(lo, hi, left, right, size, leaves, joins, up)


@cache
def node_sizes(n: int, weight: int) -> List[int]:
    """``node_shape(n).size`` scaled by ``weight``, shared like the layout:
    every tree of extent ``n`` and cell weight ``weight`` reads this list."""
    size = node_shape(n).size
    return size if weight == 1 else [k * weight for k in size]


def split(shape: NodeShape, lo: int, hi: int) -> Tuple[List[int], List[int]]:
    """Break the span ``[lo, hi]`` over ``shape`` into ``(covered, partial)``.

    ``covered`` holds the maximal nodes inside the span, left to right;
    ``partial`` the nodes that meet the span without lying inside it, in
    pre-order (so ``reversed(partial)`` lists children before parents).  A
    walk that visits the root and both children of every partial node
    visits ``1 + 2 * len(partial)`` nodes.

    The partial nodes are the two boundary paths, so only those are walked:
    down from the root while the span lies inside one child, then from the
    fork down the left boundary (every right child it passes lies inside)
    and down the right boundary (every left child it passes lies inside).
    """
    slo, shi, left, right = shape[:4]
    partial: List[int] = []
    i = 0
    while lo > slo[i] or shi[i] > hi:
        partial.append(i)
        l = left[i]
        if hi <= shi[l]:
            i = l
        elif lo > shi[l]:
            i = right[i]
        else:
            break
    else:
        return [i], partial
    # the fork: the span reaches past both of its children's inner edges
    covered: List[int] = []
    i, j = left[i], right[i]
    while lo > slo[i]:
        partial.append(i)
        l, r = left[i], right[i]
        if lo > shi[l]:
            i = r
        else:
            covered.append(r)
            i = l
    covered.append(i)
    covered.reverse()
    while shi[j] > hi:
        partial.append(j)
        l = left[j]
        if hi <= shi[l]:
            j = l
        else:
            covered.append(l)
            j = right[j]
    covered.append(j)
    return covered, partial


# One template per walk; each call ``OP(args)``, OP one of U, Q, AGG
# (update_op, query_op, aggregator), is rendered per pair; UID/QID, the
# identities, are bound as objects.
_TEMPLATE = """
def update(t, covered, partial, value):
    laz, left, right = t.laz, t.shape.left, t.shape.right
    sz, val = t.sz, t.val
    for i in covered:
        laz[i] = U(laz[i], value)
    for i in reversed(partial):
        l, r = left[i], right[i]
        x = AGG(val[l], laz[l], sz[l])
        y = AGG(val[r], laz[r], sz[r])
        val[i] = Q(x, y)
    return 1 + 2 * len(partial)
def update_many(trees, covered, partial, value):
    # every stamp before any repair: exact, as no tree reads a list another
    # writes, and each is still repaired children first
    left, right = trees[0].shape.left, trees[0].shape.right
    held = [(t.laz, t.val, t.sz) for t in trees]
    for i in covered:
        for laz, val, sz in held:
            laz[i] = U(laz[i], value)
    for i in reversed(partial):
        l, r = left[i], right[i]
        for laz, val, sz in held:
            x = AGG(val[l], laz[l], sz[l])
            y = AGG(val[r], laz[r], sz[r])
            val[i] = Q(x, y)

def rebuild(trees, rows, rleft, rright, covered, partial):
    (lo, hi, left, right), up = trees[0].shape[:4], trees[0].shape.up
    # every span node, parents first: partial, then each covered subtree's run
    runs = [(i, [UID] * (2 * (hi[i] - lo[i]) + 1)) for i in covered]
    nodes = partial + [j for i, ids in runs for j in range(i, i + len(ids))]
    # c[j] = U(c[up[j]], laz[j]), written before it is read; c[-1] stays UID
    ca, cb = [UID] * (len(lo) + 1), [UID] * (len(lo) + 1)
    for k in reversed(rows):
        t, a, b = trees[k], trees[rleft[k]], trees[rright[k]]
        laz = t.laz
        for i in partial:
            l, r, z = left[i], right[i], laz[i]
            laz[l] = U(laz[l], z)
            laz[r] = U(laz[r], z)
            laz[i] = UID
        for i, ids in runs:
            laz[i:i + len(ids)] = ids
        av, al, asz, bv, bl, bsz, val = a.val, a.laz, a.sz, b.val, b.laz, b.sz, t.val
        # Q commutes with the column fold: a node is Q of a's and b's; a child
        # rebuilt earlier in this call holds UID on every span node: read as is
        if rleft[k] in rows and rright[k] in rows:
            for j in nodes:
                val[j] = Q(av[j], bv[j])
        elif rleft[k] in rows:
            for j in nodes:
                cb[j] = zb = U(cb[up[j]], bl[j])
                y = AGG(bv[j], zb, bsz[j])
                val[j] = Q(av[j], y)
        elif rright[k] in rows:
            for j in nodes:
                ca[j] = za = U(ca[up[j]], al[j])
                x = AGG(av[j], za, asz[j])
                val[j] = Q(x, bv[j])
        else:
            for j in nodes:
                ca[j] = za = U(ca[up[j]], al[j])
                cb[j] = zb = U(cb[up[j]], bl[j])
                x = AGG(av[j], za, asz[j])
                y = AGG(bv[j], zb, bsz[j])
                val[j] = Q(x, y)
    return len(nodes) * (2 * len(rows) + 1)

def fill(t, values):
    shape, val = t.shape, t.val
    for i, x in zip(shape.leaves, values):
        val[i] = x
    for i, l, r in shape.joins:
        val[i] = Q(val[l], val[r])

def join(a, b):
    return [Q(x, y) for x, y in zip(a.val, b.val)]

def query(t, qlo, qhi):
    lo, hi, left, right = t.shape[:4]
    sz, val, laz = t.sz, t.val, t.laz
    out = QID
    visits = 1
    # (node, combined pending value of its strict ancestors); a covered node
    # absorbs them at its own size, exact as aggregator distributes over Q
    stack = [(0, UID)]
    while stack:
        i, z = stack.pop()
        z = U(z, laz[i])
        if qlo <= lo[i] and hi[i] <= qhi:
            x = AGG(val[i], z, sz[i])
            out = Q(out, x)
        else:
            visits += 2
            r = right[i]
            if lo[r] <= qhi:
                stack.append((r, z))
            l = left[i]
            if hi[l] >= qlo:
                stack.append((l, z))
    return out, visits

def query_many(trees, rows, covered, partial):
    left, right = trees[0].shape[2:4]
    out = QID
    # the combined pending value of each node's strict ancestors; every
    # tree rewrites the same keys, and the root is nobody's child
    carried = {0: UID}
    for k in rows:
        t = trees[k]
        sz, val, laz, x = t.sz, t.val, t.laz, QID
        for i in partial:
            z = U(carried[i], laz[i])
            carried[left[i]] = carried[right[i]] = z
        for c in covered:
            z = U(carried[c], laz[c])
            y = AGG(val[c], z, sz[c])
            x = Q(x, y)
        out = Q(out, x)
    return out
"""


def _level_walks(form: str, head: str, absorb: str, fold: str) -> str:
    """One level of an nd-special tree ``n`` whose axis-0 split is
    ``splits[k]``: covered nodes stamp ``value`` into ``row_lazy``, partial
    nodes repair ``row_fold`` with ``value`` repeated as often as they
    overlap the span; a query folds each covered node's ``row_fold`` and
    ``row_lazy``, then each partial node's ``row_lazy``.  A form says how
    one tree ``t`` takes its share ``w`` (``absorb``) or gives its fold
    ``x`` (``fold``), adding its visits; ``head`` may name the ``op``."""
    return f"""
def update_{form}(n, splits, k, value):
    covered, parts = splits[k]{head.format(op="update")}
    trees, w, visits = n.row_lazy, value, 1 + 2 * len(parts)
    for i in covered:
        t = trees[i]
        if t is None:
            t = trees[i] = n._allocate(){absorb}
    trees = n.row_fold
    for i, j in parts:
        w = AGG(UID, value, j)
        t = trees[i]
        if t is None:
            t = trees[i] = n._allocate(){absorb}
    return visits

def query_{form}(n, splits, k):
    (covered, parts), size = splits[k], n.shape.size{head.format(op="query")}
    folds, lazies = n.row_fold, n.row_lazy
    out, visits = QID, 1 + 2 * len(parts)
    for i in covered:
        t = folds[i]
        if t is not None:{fold}
            out = Q(out, x)
        t = lazies[i]
        if t is not None:{fold}
            out = AGG(out, x, size[i])
    for i, j in parts:
        t = lazies[i]
        if t is not None:{fold}
            out = AGG(out, x, j)
    return out, visits
"""


# Rendered only for a fold-commuting pair.  The 2-D level's trees are bare
# last-axis trees: the rule applies to the last axis's split inline, and no
# child is read (a partial node absorbs the value, or gives its pending
# value, as often as it overlaps the span).  A level above it hands each
# tree to the next level's walk, found on the tree's kernels ``n._k``.
_LEVELS = _level_walks("level", """
    ycov, yparts = splits[k + 1]
    per = 1 + 2 * len(yparts)""", """
        laz, val = t.laz, t.val
        for c in ycov:
            laz[c] = U(laz[c], w)
        for c, m in yparts:
            val[c] = AGG(val[c], w, m)
        visits += per""", """
            sz, val, laz, x = t.sz, t.val, t.laz, QID
            for c in ycov:
                y = AGG(val[c], laz[c], sz[c])
                x = Q(x, y)
            for c, m in yparts:
                x = AGG(x, laz[c], m)
            visits += per""") + _level_walks("nest", """
    walk = n._k.{op}_level if len(n.dims) == 3 else n._k.{op}_nest""", """
        visits += walk(t, splits, k + 1, w)""", """
            x, m = walk(t, splits, k + 1)
            visits += m""")
_OP_CALL = re.compile(r"\b(U|Q|AGG)\(([^()]*)\)")


def _render(template: str, forms: dict) -> str:
    """``template``'s walks, each op call inline, parenthesised, where ``forms``
    has a form.  Operands are names or subscripts, so a form may read one twice."""
    def call(m):
        op, args = m.groups()
        if forms[op] is None:
            return m.group()
        names = dict(zip("avk" if op == "AGG" else "ab", args.split(", ")))
        return "(" + re.sub(r"\b[abvk]\b", lambda n: names[n[0]], forms[op]) + ")"
    return _OP_CALL.sub(call, template)


_compiled: dict = {}  # id(pair) -> (pair, its walks)


def kernels(pair: OperatorPair) -> SimpleNamespace:
    """``pair``'s walks, compiled on its first use in the process.  Keyed on
    the pair's identity, which the held pair keeps unique: it need not hash."""
    hit = _compiled.get(id(pair))
    if hit is None:
        ops = {"U": pair.update_op, "Q": pair.query_op, "AGG": pair.aggregator}
        template = _TEMPLATE + _LEVELS if pair.is_special else _TEMPLATE
        src = _render(template, {k: inline_form(fn) for k, fn in ops.items()})
        filename = f"<seg1d kernels {pair.name} {id(pair):#x}>"
        linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
        ns = dict(ops, UID=pair.update_identity, QID=pair.query_identity)
        exec(compile(src, filename, "exec"), ns)
        walks = {f: ns[f] for f in re.findall(r"^def (\w+)", src, re.M)}
        hit = _compiled[id(pair)] = (pair, SimpleNamespace(**walks))
    return hit[1]


class SegTree1D:
    def __init__(self, values: Sequence, pair: OperatorPair, *,
                 cell_weight: int = 1, counters: Optional[OpCounters] = None):
        self._bind(len(values), pair, cell_weight, counters,
                   [pair.query_identity] * (2 * len(values) - 1))
        self._k.fill(self, values)

    @classmethod
    def identity(cls, size: int, pair: OperatorPair, *,
                 counters: Optional[OpCounters] = None) -> "SegTree1D":
        """A tree over ``size`` copies of ``query_identity``, bound without a
        walk; like the constructor it counts ``node_count`` visits."""
        t = cls.__new__(cls)
        t._bind(size, pair, 1, counters, [pair.query_identity] * len(node_shape(size).lo))
        return t

    @classmethod
    def _joined(cls, a: "SegTree1D", b: "SegTree1D", cell_weight: int) -> "SegTree1D":
        """The element-wise ``query_op`` fold of ``a`` and ``b``, ``a``'s first, neither
        holding a pending value, as at build time; it counts ``node_count`` visits."""
        t = cls.__new__(cls)
        t._bind(a.size, a.pair, cell_weight, a.counters, a._k.join(a, b))
        return t

    def _bind(self, size: int, pair: OperatorPair, cell_weight: int,
              counters: Optional[OpCounters], val: list) -> None:
        shape = node_shape(size)
        count = len(shape.lo)
        self.size = size
        self.pair = pair
        self.counters = counters if counters is not None else OpCounters()
        self.shape = shape
        # covered cells per node, pre-scaled by cell_weight; shared, read-only
        self.sz = node_sizes(size, cell_weight)
        self.val = val
        self.laz: list = [pair.update_identity] * count
        self._stamped: Sequence[int] = ()
        self._k = kernels(pair)
        self.counters.visits_total += count

    @property
    def node_count(self) -> int:
        """``2 * size - 1``: the nodes of the shared layout."""
        return len(self.shape.lo)

    @property
    def last_lazy_spans(self) -> List[Tuple[int, int]]:
        """The spans the latest :meth:`update` on this tree stamped its value
        onto, left to right.  A forest walk (``update_many``) sets none."""
        return [(self.shape.lo[i], self.shape.hi[i]) for i in self._stamped]

    def update(self, qlo: int, qhi: int, value) -> None:
        check_span(qlo, qhi, self.size)
        check_value(value)
        covered, partial = split(self.shape, qlo, qhi)
        visits = self._k.update(self, covered, partial, value)
        self._stamped = covered
        self.counters.note_update(visits)

    def query(self, qlo: int, qhi: int):
        check_span(qlo, qhi, self.size)
        out, visits = self._k.query(self, qlo, qhi)
        self.counters.note_query(visits)
        return out

    def decompose(self, qlo: int, qhi: int) -> List[Tuple[int, int]]:
        """The canonical disjoint node spans whose union is ``[qlo, qhi]``.

        At most ``2 * ceil(log2 N)`` spans for N >= 2 (a single span for
        N == 1); these are exactly the nodes an update stamps its pending
        value onto.
        """
        check_span(qlo, qhi, self.size)
        covered, partial = split(self.shape, qlo, qhi)
        self.counters.visits_total += 1 + 2 * len(partial)
        return [(self.shape.lo[i], self.shape.hi[i]) for i in covered]

    def _folds(self) -> list:
        """Every node's effective fold ``aggregator(val[n], z, size[n])``, in pre-order,
        ``z`` combining the pending values from the root down to ``n`` in one pass."""
        u, agg, up = self.pair.update_op, self.pair.aggregator, self.shape.up
        val, laz, sz = self.val, self.laz, self.sz
        # carried[-1], above the root, stays the identity
        carried = [self.pair.update_identity] * (len(val) + 1)
        folds = []
        for i in range(len(val)):
            z = carried[i] = u(carried[up[i]], laz[i])
            folds.append(agg(val[i], z, sz[i]))
        return folds

    def to_array(self) -> list:
        """True values of every element, in ``node_count`` visits: the
        leaves of :meth:`_folds`, in position order."""
        folds = self._folds()
        self.counters.visits_total += self.node_count
        return [folds[i] for i in self.shape.leaves]

    def validate(self, reference: DenseTensor) -> None:
        """Check every node of :meth:`_folds` against the oracle fold of its
        span; raise :class:`ValidationError` naming the first bad node."""
        if reference.dims != (self.size,):
            raise ValueError("reference shape mismatch")
        lo, hi = self.shape[:2]
        # the oracle reads one box ((lo, hi),) per node
        got, want = self._folds(), list(map(reference.query, zip(zip(lo, hi))))
        wrong = list(map(operator.ne, got, want))
        if any(wrong):
            i = wrong.index(True)
            raise ValidationError(f"node {i} over [{lo[i]}, {hi[i]}]: effective "
                                  f"fold {got[i]!r} != oracle {want[i]!r}")
