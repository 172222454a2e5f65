"""Dense d-dimensional tensor: the deliberately brute-force ground truth.

Every update and query walks the covered cells literally, so each operation
costs O(cells in the box).  That is the point: this backend defines correct
behaviour, and every tree structure is tested against it in lockstep.  Folds
run through C-level builtins (``sum``/``min``/``max``/``math.prod``) where the
query operator allows, which keeps 10k-operation differential runs cheap
without changing any result.

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
from itertools import product
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

    def cell(self, coords: Sequence[int]):
        return self.data[sum(c * s for c, s in zip(coords, self._strides))]

    def first_axis_slice(self, i: int) -> list:
        """Row-major values of the (d-1)-dimensional slice at axis-0 index i."""
        w = self._strides[0]
        return self.data[i * w:(i + 1) * w]

    def _runs(self, box: Box) -> list:
        """Contiguous (start, stop) index runs covering ``box``."""
        lo, hi = box[-1]
        if len(box) == 1:
            return [(lo, hi + 1)]
        bases = [0]
        for (alo, ahi), stride in zip(box[:-1], self._strides[:-1]):
            bases = [b + x * stride for b in bases for x in range(alo, ahi + 1)]
        return [(b + lo, b + hi + 1) for b in bases]

    def update(self, box: Box, value) -> None:
        check_box(box, self.dims)
        op = self.pair.update_op
        data = self.data
        if op is operator.add:
            for s, e in self._runs(box):
                data[s:e] = [x + value for x in data[s:e]]
        elif op is operator.mul:
            for s, e in self._runs(box):
                data[s:e] = [x * value for x in data[s:e]]
        else:
            for s, e in self._runs(box):
                data[s:e] = [op(x, value) for x in data[s:e]]
        self.counters.note_update(box_volume(box))

    def query(self, box: Box):
        check_box(box, self.dims)
        q = self.pair.query_op
        data = self.data
        runs = self._runs(box)
        if q is operator.add:
            out = sum(data[runs[0][0]:runs[0][1]])
            for s, e in runs[1:]:
                out += sum(data[s:e])
        elif q is min:
            out = min(min(data[s:e]) for s, e in runs)
        elif q is max:
            out = max(max(data[s:e]) for s, e in runs)
        elif q is operator.mul:
            out = math.prod(data[runs[0][0]:runs[0][1]])
            for s, e in runs[1:]:
                out *= math.prod(data[s:e])
        else:
            out = self.pair.query_identity
            for s, e in runs:
                for x in data[s:e]:
                    out = q(out, x)
        self.counters.note_query(box_volume(box))
        return out

    def full_box(self) -> Box:
        """The box covering the whole tensor."""
        return tuple((0, n - 1) for n in self.dims)

    def all_cells(self):
        """Iterate ``(coords, value)`` in row-major order."""
        for coords in product(*(range(n) for n in self.dims)):
            yield coords, self.cell(coords)

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
