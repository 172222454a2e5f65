"""Inclusive axis-aligned boxes.

A box is a tuple of ``(lo, hi)`` integer pairs, one pair per dimension, with
``lo <= hi`` inclusive on both ends.  Boxes are always non-empty: an update
or query over "nothing" is meaningless at the public API, so a reversed pair
is rejected rather than silently treated as empty.
"""

from __future__ import annotations

from operator import index
from typing import Sequence, Tuple

Span = Tuple[int, int]
Box = Tuple[Span, ...]


def check_box(box: Sequence[Span], dims: Sequence[int]) -> None:
    """Validate ``box`` against tensor extents, raising ValueError if bad.

    A bound that is not an integer (``operator.index`` refuses it) raises
    TypeError, as ``range`` does in the dense oracle.
    """
    if len(box) != len(dims):
        raise ValueError(f"box has {len(box)} dimensions, structure has {len(dims)}")
    for (lo, hi), n in zip(box, dims):
        index(lo)
        index(hi)
        if lo > hi:
            raise ValueError(f"empty span ({lo}, {hi})")
        if lo < 0 or hi >= n:
            raise ValueError(f"span ({lo}, {hi}) out of bounds for extent {n}")


def box_volume(box: Sequence[Span]) -> int:
    vol = 1
    for lo, hi in box:
        vol *= hi - lo + 1
    return vol

