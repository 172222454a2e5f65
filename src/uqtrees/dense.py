"""Dense d-dimensional tensor: the deliberately brute-force ground truth.

Every update and query walks the covered cells literally, so each operation
costs O(cells in the box).  That is the point: this backend defines correct
behaviour, and every tree structure is tested against it in lockstep.

A box is walked as a few slices of the flat data, each cell once, in
row-major order.  Trailing axes that the box covers fully merge into one
contiguous run of the axis above them, and a last axis of width 1 becomes
one run over the axis above it, stepping by that axis's stride.  So a box of
full rows is one slice, and so is one matrix column.  An update rewrites
each run with one list comprehension.  A query folds each run with one
C-level builtin call (``sum``/``min``/``max``/``math.prod``) where the query
operator allows, then folds the runs' answers.  That keeps 10k-operation
differential runs cheap, and it changes no answer over exact values.  Over
float cells the runs set the grouping: float ``+`` and ``*`` round run by
run (``sum`` is compensated from Python 3.12 on), and ``min``/``max``
answer nan by argument order within each run.  The oracle's answer to such
cells is one grouping among several, and ROADMAP item 4 is to refuse them.

The module also owns the text format shared with the CLI::

    d n_0 n_1 ... n_{d-1}
    v_0 v_1 ... v_{prod(dims)-1}

values whitespace-separated in row-major order; integers, ``p/q`` fractions,
decimals, and ``inf``/``-inf`` all round-trip.  A finite decimal token reads
as an exact ``Fraction`` and is written back as ``p/q``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .algebra import OperatorPair
from .boxes import Box, box_volume, check_box, check_extents
from .counters import OpCounters


class DenseTensor:
    """Flat row-major storage plus literal update/query.

    Updates need exclusive access.  Queries leave the data unchanged but bump
    the shared counters without a lock, so concurrent readers get right
    answers and may lose counts.
    """

    __slots__ = ("dims", "data", "pair", "counters", "_strides")

    def __init__(self, dims: Sequence[int], data: Sequence, pair: OperatorPair):
        dims = check_extents(dims)
        data = list(data)
        if len(data) != math.prod(dims):
            raise ValueError(f"got {len(data)} values for extents {dims}")
        self.dims = dims
        self.data = data
        self.pair = pair
        self.counters = OpCounters()
        strides = [1] * len(dims)
        for i in range(len(dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        self._strides = tuple(strides)

    def copy(self) -> "DenseTensor":
        return DenseTensor(self.dims, self.data, self.pair)

    def first_axis_slice(self, i: int) -> list:
        """Row-major values of the (d-1)-dimensional slice at axis-0 index i."""
        w = self._strides[0]
        return self.data[i * w:(i + 1) * w]

    def _runs(self, box: Box) -> list:
        """``(start, stop, step)`` runs of flat indices covering ``box``.

        The runs list every cell once, in row-major order, with trailing axes
        merged as the module notes say.  The axes above the run axis give one
        run per index tuple; with none (a matrix column, full rows) the one
        run is returned directly.  A query folds each run with one builtin
        call, so float grouping and the nan order of ``min``/``max`` follow
        these runs.
        """
        lo, hi = box[-1]
        if len(box) == 1:
            return [(lo, hi + 1, 1)]
        dims, strides = self.dims, self._strides
        k = len(box) - 1
        offset = 0
        if lo == hi:
            offset = lo
            k -= 1
        step = strides[k]
        lo, hi = box[k]
        while k and lo == 0 and hi == dims[k] - 1:
            k -= 1
            lo, hi = box[k]
        # the merged axes below axis k end one step short of its next index
        start = offset + lo * strides[k]
        stop = offset + (hi + 1) * strides[k] - step + 1
        if not k:
            return [(start, stop, step)]
        bases = [0]
        for (alo, ahi), stride in zip(box[:k], strides[:k]):
            bases = [b + x * stride for b in bases for x in range(alo, ahi + 1)]
        return [(b + start, b + stop, step) for b in bases]

    def update(self, box: Box, value) -> None:
        check_box(box, self.dims)
        op = self.pair.update_op
        data = self.data
        if op is operator.add:
            for a, e, st in self._runs(box):
                data[a:e:st] = [x + value for x in data[a:e:st]]
        elif op is operator.mul:
            for a, e, st in self._runs(box):
                data[a:e:st] = [x * value for x in data[a:e:st]]
        else:
            for a, e, st in self._runs(box):
                data[a:e:st] = [op(x, value) for x in data[a:e:st]]
        self.counters.note_update(box_volume(box))

    def query(self, box: Box):
        check_box(box, self.dims)
        q = self.pair.query_op
        data = self.data
        runs = self._runs(box)
        if q is operator.add:
            a, e, st = runs[0]
            out = sum(data[a:e:st])
            for a, e, st in runs[1:]:
                out += sum(data[a:e:st])
        elif q is min or q is max:
            out = q(q(data[a:e:st]) for a, e, st in runs)
        elif q is operator.mul:
            a, e, st = runs[0]
            out = math.prod(data[a:e:st])
            for a, e, st in runs[1:]:
                out *= math.prod(data[a:e:st])
        else:
            out = self.pair.query_identity
            for a, e, st in runs:
                for x in data[a:e:st]:
                    out = q(out, x)
        self.counters.note_query(box_volume(box))
        return out

    def __eq__(self, other):
        if isinstance(other, DenseTensor):
            return self.dims == other.dims and self.data == other.data
        return NotImplemented

    def __repr__(self) -> str:
        return f"DenseTensor(dims={self.dims}, pair={self.pair.name!r})"


# Fraction builds 10 ** exponent exactly, so a huge exponent would take
# minutes and gigabytes; 1e1000 and 1e-1000 are still read exactly
MAX_DECIMAL_EXPONENT = 1000


def parse_value(tok: str):
    """An ``int``, or an exact ``Fraction`` for ``p/q`` and finite decimals.

    ``0.1`` is exactly one tenth and ``1e400`` exactly ten to the 400th.
    Only ``inf``, ``-inf`` and ``nan``, which no fraction can hold, become
    floats; any other token that is not an exact number raises
    ``ValueError``.
    """
    try:
        return int(tok)
    except ValueError:
        pass
    if tok.lstrip("+-").lower() in ("inf", "infinity", "nan"):
        return float(tok)
    _, e, exp = tok.lower().partition("e")
    digits = exp.lstrip("+-")
    if e and digits.isdigit() and int(digits) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"exponent of {tok!r} is beyond "
                         f"{MAX_DECIMAL_EXPONENT}; it cannot be held exactly")
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"{tok!r} divides by zero") from None


def format_value(v) -> str:
    if isinstance(v, Fraction) and v.denominator == 1:
        return str(v.numerator)
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return str(v)


def parse_tensor(text: str, pair: OperatorPair) -> DenseTensor:
    toks = text.split()
    if not toks:
        raise ValueError("empty tensor text")
    d = int(toks[0])
    if d < 1 or len(toks) < 1 + d:
        raise ValueError("bad tensor header")
    # the constructor checks the extents before it counts the values
    dims = [int(t) for t in toks[1:1 + d]]
    return DenseTensor(dims, [parse_value(t) for t in toks[1 + d:]], pair)


def format_tensor(t: DenseTensor) -> str:
    head = f"{len(t.dims)} " + " ".join(str(n) for n in t.dims)
    lines = [head]
    if len(t.dims) >= 2:
        w = t.dims[-1]
        for i in range(0, len(t.data), w):
            lines.append(" ".join(format_value(v) for v in t.data[i:i + w]))
    else:
        lines.append(" ".join(format_value(v) for v in t.data))
    return "\n".join(lines) + "\n"
