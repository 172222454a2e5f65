"""Quadtree over a 2D matrix, with pending update values.

The four-way analogue of the 1D tree: a node is a pair ``(a, b)`` of a row
node of ``node_shape(n)`` and a column node of ``node_shape(m)`` (see
:func:`~uqtrees.seg1d.node_shape`), so it splits at the midpoints of both
axes; its children pair the shared ``left``/``right`` children of ``a`` and
``b``, a leaf on an axis standing for itself.  The id ``a * (2m - 1) + b``
indexes the flat lists ``val`` (cached fold) and ``laz`` (pending update
value, as in :mod:`uqtrees.seg1d`); ids no descent reaches stay unused.
Updates stamp contained nodes' ``laz`` and refold partially overlapped
nodes from their children; queries carry the ancestors' pending values down
and never mutate.  Both walk an explicit stack.

The catch, and the reason this structure exists mostly as a measuring stick:
nodes are square-ish, so a skinny box -- a single row or column, say --
decomposes into THETA(N) cells.  Operations are O(N) in the worst case over
an N x N matrix rather than polylog, which :meth:`QuadTree.max_probe_visits`
makes observable via the shared visit counters.
"""

from __future__ import annotations

import random
from typing import List

from .algebra import OperatorPair
from .boxes import Box, check_box, check_value, draw_box
from .counters import OpCounters
from .dense import DenseTensor
from .seg1d import node_shape


def probe_visit_bound(k: int) -> int:
    """Visit budget for any one op on a 2^k x 2^k quadtree (k >= 2)."""
    return 5 * (2 ** (k + 5) + 3)


class QuadTree:
    def __init__(self, tensor: DenseTensor, pair: OperatorPair):
        if len(tensor.dims) != 2:
            raise ValueError(f"need a 2D tensor, got extents {tensor.dims}")
        self.dims = tensor.dims
        self.pair = pair
        self.counters = OpCounters()
        n, m = tensor.dims
        self.rows = node_shape(n)
        self.cols = node_shape(m)
        self.stride = s = 2 * m - 1
        self.val: list = [None] * ((2 * n - 1) * s)
        self.laz: list = [pair.update_identity] * len(self.val)
        self.last_lazy_nodes: List[int] = []
        xlo, _, xl, xr, _ = self.rows[:5]
        ylo, _, yl, yr, _ = self.cols[:5]
        inner = []  # the reachable nodes above the cells, pre-order
        stack = [(0, 0)]
        while stack:
            a, b = stack.pop()
            if xl[a] < 0 and yl[b] < 0:
                self.val[a * s + b] = tensor.data[xlo[a] * m + ylo[b]]
                continue
            kx = (a,) if xl[a] < 0 else (xl[a], xr[a])
            ky = (b,) if yl[b] < 0 else (yl[b], yr[b])
            inner.append((a * s + b, kx, ky))
            stack += [(x, y) for x in kx for y in ky]
        self._refold(inner)
        self.node_count = len(inner) + n * m
        self.counters.visits_total += self.node_count

    def _refold(self, nodes: list) -> None:
        """Refold each ``(id, row children, column children)``, last first."""
        xsz, ysz, s = self.rows.size, self.cols.size, self.stride
        val, laz = self.val, self.laz
        q = self.pair.query_op
        agg = self.pair.aggregator
        for i, kx, ky in reversed(nodes):  # children before parents
            acc = self.pair.query_identity
            for x in kx:
                for y in ky:
                    k = x * s + y
                    acc = q(acc, agg(val[k], laz[k], xsz[x] * ysz[y]))
            val[i] = acc

    def update(self, box: Box, value) -> None:
        check_box(box, self.dims)
        check_value(value)
        (bx0, bx1), (by0, by1) = box
        xlo, xhi, xl, xr, _ = self.rows[:5]
        ylo, yhi, yl, yr, _ = self.cols[:5]
        s = self.stride
        laz = self.laz
        u = self.pair.update_op
        self.last_lazy_nodes = touched = []
        partial = []
        visits = 1
        stack = [(0, 0)]
        while stack:
            a, b = stack.pop()
            i = a * s + b
            if bx0 <= xlo[a] and xhi[a] <= bx1 and by0 <= ylo[b] and yhi[b] <= by1:
                laz[i] = u(laz[i], value)
                touched.append(i)
                continue
            kx = (a,) if xl[a] < 0 else (xr[a], xl[a])  # right first: pops left first
            ky = (b,) if yl[b] < 0 else (yr[b], yl[b])
            partial.append((i, kx, ky))
            visits += len(kx) * len(ky)  # every child counts; the overlapping ones walk
            for x in kx:
                if xlo[x] <= bx1 and bx0 <= xhi[x]:
                    for y in ky:
                        if ylo[y] <= by1 and by0 <= yhi[y]:
                            stack.append((x, y))
        self._refold(partial)
        self.counters.note_update(visits)

    def query(self, box: Box):
        check_box(box, self.dims)
        (bx0, bx1), (by0, by1) = box
        xlo, xhi, xl, xr, xsz = self.rows[:5]
        ylo, yhi, yl, yr, ysz = self.cols[:5]
        s = self.stride
        val, laz = self.val, self.laz
        u = self.pair.update_op
        q = self.pair.query_op
        agg = self.pair.aggregator
        out = self.pair.query_identity
        visits = 1
        stack = [(0, 0, self.pair.update_identity)]  # z: the ancestors' pending value
        while stack:
            a, b, z = stack.pop()
            i = a * s + b
            if bx0 <= xlo[a] and xhi[a] <= bx1 and by0 <= ylo[b] and yhi[b] <= by1:
                out = q(out, agg(val[i], u(z, laz[i]), xsz[a] * ysz[b]))
                continue
            z = u(z, laz[i])
            kx = (a,) if xl[a] < 0 else (xr[a], xl[a])
            ky = (b,) if yl[b] < 0 else (yr[b], yl[b])
            visits += len(kx) * len(ky)
            for x in kx:
                if xlo[x] <= bx1 and bx0 <= xhi[x]:
                    for y in ky:
                        if ylo[y] <= by1 and by0 <= yhi[y]:
                            stack.append((x, y, z))
        self.counters.note_query(visits)
        return out

    def probe_family(self, extra: int = 200, seed: int = 0) -> List[Box]:
        """All single rows, all single columns, and ``extra`` seeded boxes."""
        n, m = self.dims
        boxes: List[Box] = [((x, x), (0, m - 1)) for x in range(n)]
        boxes += [((0, n - 1), (y, y)) for y in range(m)]
        rng = random.Random(seed)
        return boxes + [draw_box(rng, (n, m)) for _ in range(extra)]

    def max_probe_visits(self, *, extra: int = 200, seed: int = 0) -> int:
        """Max visits for any single update or query over the probe family.

        Requires a square matrix with power-of-two side >= 4, the shape the
        :func:`probe_visit_bound` budget is stated for.  Updates are probed
        with the identity value, which walks the exact same nodes as any real
        update without changing observable state.
        """
        n, m = self.dims
        if n != m or n < 4 or n & (n - 1):
            raise ValueError(f"probe bounds need a square power-of-two side >= 4, got {n}x{m}")
        c = self.counters
        worst = 0
        for box in self.probe_family(extra=extra, seed=seed):
            self.update(box, self.pair.update_identity)
            worst = max(worst, c.visits_last_op)
            self.query(box)
            worst = max(worst, c.visits_last_op)
        return worst
