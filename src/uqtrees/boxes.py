"""Inclusive axis-aligned boxes, and the three input rules of every backend.

A box is a tuple of ``(lo, hi)`` integer pairs, one pair per dimension, with
``lo <= hi`` inclusive on both ends.  Boxes are always non-empty: an update
or query over "nothing" is meaningless at the public API, so a reversed pair
is rejected rather than silently treated as empty.  Each rule is stated once:

* :func:`check_span` -- integer bounds (``operator.index`` raises TypeError
  otherwise, as ``range`` does in the dense oracle) with ``0 <= lo <= hi <
  n``, else ValueError; :func:`check_box` applies it on every axis;
* :func:`check_extents` -- at least one extent, each an integer >= 1, else
  ValueError naming the bad extent;
* :func:`check_value` -- an update value is not nan, else ValueError:
  ``min``/``max`` answer nan by argument order, so no tree could match the
  oracle.
"""

from __future__ import annotations

from operator import index
from typing import Sequence, Tuple

Span = Tuple[int, int]
Box = Tuple[Span, ...]


def check_span(lo: int, hi: int, n: int) -> None:
    """Validate the span ``(lo, hi)`` against extent ``n``."""
    index(lo)
    index(hi)
    if lo > hi:
        raise ValueError(f"empty span ({lo}, {hi})")
    if lo < 0 or hi >= n:
        raise ValueError(f"span ({lo}, {hi}) out of bounds for extent {n}")


def check_box(box: Sequence[Span], dims: Sequence[int]) -> None:
    """Validate ``box`` against tensor extents, one :func:`check_span` per axis."""
    if len(box) != len(dims):
        raise ValueError(f"box has {len(box)} dimensions, structure has {len(dims)}")
    for (lo, hi), n in zip(box, dims):
        check_span(lo, hi, n)


def check_extents(dims: Sequence[int]) -> Tuple[int, ...]:
    """``dims`` as a tuple, once it has passed the extents rule."""
    dims = tuple(dims)
    if not dims:
        raise ValueError("no extents")
    for n in dims:
        if not hasattr(n, "__index__") or index(n) < 1:
            raise ValueError(f"bad extent {n!r} in {dims}: need an integer >= 1")
    return dims


def check_value(value) -> None:
    """Refuse a nan update value."""
    if value != value:
        raise ValueError("cannot update with nan")


def draw_box(rng, dims: Sequence[int]) -> Box:
    """A random box: per axis, two ``rng.randrange(n)`` draws (``rng._randbelow(n)``), sorted."""
    box = []
    for n in dims:
        a, b = rng._randbelow(n), rng._randbelow(n)
        box.append((a, b) if a <= b else (b, a))
    return tuple(box)


def box_volume(box: Sequence[Span]) -> int:
    vol = 1
    for lo, hi in box:
        vol *= hi - lo + 1
    return vol
