"""Operator pairs: the algebra every range structure here is generic over.

An :class:`OperatorPair` bundles

* ``update_op`` -- commutative, associative; an update rewrites each covered
  element ``e`` to ``update_op(e, v)``.  Stacked update values are combined
  with this same operator.
* ``query_op`` -- commutative, associative; a query folds the covered
  elements with it.
* identities for both operators (``float("inf")`` / ``float("-inf")`` serve
  as the extended-number sentinels where an identity needs one; Python
  integers are arbitrary precision, so integer arithmetic never wraps),
* ``aggregator(a, v, k)`` -- the constant-time rule giving the new fold of
  ``k`` elements after every one of them absorbed the update value ``v``.
  This is what lets a tree node repair its cached fold without touching the
  elements below it.

A pair is *fold-commuting* when updating part of a fold commutes with
folding::

    query_op(update_op(a, v), b) == update_op(query_op(a, b), v)

The d-dimensional tree in :mod:`uqtrees.ndspecial` takes the checkable form
of this, ``is_special``: one operator (``update_op is query_op``) with one
identity, where the law follows from commutativity and associativity.  When
only ``j`` of ``k`` folded elements absorb ``v``, the fold then changes by a
single ``update_op`` with ``v`` repeated ``j`` times, which is
``aggregator(identity, v, j)``.

Pairs whose update operator has an exact inverse additionally support the
matrix-product reduction in :mod:`uqtrees.matmul`.  Multiplicative pairs get
a *total* inverse by working over :class:`ZeroTrackedSum` values, which keep
factors of zero out of the mantissa.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

INF = float("inf")
NEG_INF = float("-inf")


class ZeroTrackedSum:
    """A sum of mantissas, each tagged with how many zero factors it carries.

    ``terms`` maps a non-negative *zero depth* to a mantissa sum; the value
    represented is the entry at depth 0 (absent entries are 0).  Multiplying
    by zero bumps every depth by one instead of destroying the mantissa, so
    every multiplication stays invertible:

    * scalar ``c != 0``      lifts to ``{0: c}``
    * scalar ``0``           lifts to ``{1: 1}``  (mantissa 1, one zero factor)
    * ``x * y``              convolves term maps (depths add, mantissas multiply)
    * ``x + y``              adds term maps key-wise
    * ``x.reciprocal()``     negates the depth and inverts the mantissa
                             (single-term values only, which is every value a
                             backend ever stores or is asked to invert)

    Mantissas are kept exact: integers stay integers and reciprocals produce
    :class:`fractions.Fraction`.  No explicit zero mantissa is ever stored:
    the constructor drops them, so ``*`` and ``+`` just accumulate.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict) -> None:
        self.terms = {z: m for z, m in terms.items() if m}

    @classmethod
    def from_scalar(cls, x) -> "ZeroTrackedSum":
        if isinstance(x, ZeroTrackedSum):
            return x
        return cls({1: 1}) if x == 0 else cls({0: x})

    def effective(self):
        """The plain number this value stands for (depth-0 entry)."""
        return self.terms.get(0, 0)

    def reciprocal(self) -> "ZeroTrackedSum":
        if len(self.terms) != 1:
            raise ValueError(f"no reciprocal for multi-term value {self!r}")
        (z, m), = self.terms.items()
        inv = Fraction(1, m) if isinstance(m, int) else 1 / m
        return ZeroTrackedSum({-z: inv})

    def __mul__(self, other):
        if isinstance(other, ZeroTrackedSum):
            out: dict = {}
            for z1, m1 in self.terms.items():
                for z2, m2 in other.terms.items():
                    z = z1 + z2
                    out[z] = out.get(z, 0) + m1 * m2
            return ZeroTrackedSum(out)
        if other == 0:
            return ZeroTrackedSum({z + 1: m for z, m in self.terms.items()})
        return ZeroTrackedSum({z: m * other for z, m in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, j: int):
        if j < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1:
            (z, m), = self.terms.items()
            return ZeroTrackedSum({z * j: m ** j})
        out = ZeroTrackedSum({0: 1})
        for _ in range(j):
            out = out * self
        return out

    def __add__(self, other):
        if isinstance(other, ZeroTrackedSum):
            out = dict(self.terms)
            for z, m in other.terms.items():
                out[z] = out.get(z, 0) + m
            return ZeroTrackedSum(out)
        if other == 0:
            return self
        return self + ZeroTrackedSum({0: other})

    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, ZeroTrackedSum):
            return self.terms == other.terms
        if isinstance(other, (int, float, Fraction)):
            return self.terms == ({} if other == 0 else {0: other})
        return NotImplemented

    def __hash__(self):
        # equal to a plain number exactly when the terms are {0: number} or
        # empty (zero), and then it must hash like that number
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return hash(self.terms[0])
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        return f"ZeroTrackedSum({self.terms!r})"


@dataclass(frozen=True, slots=True)
class OperatorPair:
    """An update/query operator pair and its constant-time aggregator."""

    name: str
    update_op: Callable
    query_op: Callable
    update_identity: object
    query_identity: object
    aggregator: Callable  # (fold, value, count) -> new fold
    inverse: Optional[Callable] = None
    sample_range: Tuple[int, int] = (-100, 100)

    @property
    def is_special(self) -> bool:
        """One operator with one identity, so fold-commuting by its laws."""
        return (self.update_op is self.query_op
                and self.update_identity == self.query_identity)

    def invert(self, x):
        if self.inverse is None:
            raise ValueError(f"pair {self.name!r} has no inverse")
        return self.inverse(x)

    def __repr__(self) -> str:
        return f"OperatorPair({self.name!r})"


def check_special(pair: OperatorPair, samples: int = 1000, seed: int = 0):
    """Sample the fold-commuting law; return ``(ok, witness_or_None)``.

    Small integer triples are scanned first so a failing pair always yields
    the same concrete ``(a, b, v)`` witness; the remaining budget is spent on
    seeded random triples from the pair's sample range.  A ``True`` result is
    evidence, not proof.
    """
    u, q = pair.update_op, pair.query_op
    smalls = (0, 1, -1, 2, -2)
    tried = 0
    for a, b, v in itertools.product(smalls, repeat=3):
        if q(u(a, v), b) != u(q(a, b), v):
            return False, (a, b, v)
        tried += 1
        if tried >= samples:
            return True, None
    rng = random.Random(seed)
    lo, hi = pair.sample_range
    for _ in range(samples - tried):
        a, b, v = rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(lo, hi)
        if q(u(a, v), b) != u(q(a, b), v):
            return False, (a, b, v)
    return True, None


def _reciprocal(x):
    if isinstance(x, ZeroTrackedSum):
        return x.reciprocal()
    if x == 0:
        # total inverse only exists zero-tracked: lift, then invert
        return ZeroTrackedSum.from_scalar(0).reciprocal()
    if isinstance(x, int):
        return Fraction(1, x)
    return 1 / x


_PAIRS = {}

# (callable, exact inline form over a, b -- an aggregator's over a, v, k):
# each form gives the very object its callable gives; builtin min/max keep
# the first operand unless the second is strictly smaller/larger
_INLINE = [(operator.add, "a + b"), (operator.mul, "a * b"),
           (min, "b if b < a else a"), (max, "b if b > a else a")]


def inline_form(fn) -> Optional[str]:
    """The expression registered for the callable ``fn``, else None."""
    return next((expr for f, expr in _INLINE if f is fn), None)


def _aggregator(expr: str) -> Callable:
    """``lambda a, v, k: expr``, registered with ``expr`` as its inline form."""
    fn = eval(f"lambda a, v, k: {expr}")
    _INLINE.append((fn, expr))
    return fn


def _register(pair: OperatorPair) -> OperatorPair:
    _PAIRS[pair.name] = pair
    return pair


PLUS_MIN = _register(OperatorPair(
    name="plus-min",
    update_op=operator.add,
    query_op=min,
    update_identity=0,
    query_identity=INF,
    aggregator=_aggregator("a + v"),
    inverse=operator.neg,
))

PLUS_MAX = _register(OperatorPair(
    name="plus-max",
    update_op=operator.add,
    query_op=max,
    update_identity=0,
    query_identity=NEG_INF,
    aggregator=_aggregator("a + v"),
    inverse=operator.neg,
))

PLUS_PLUS = _register(OperatorPair(
    name="plus-plus",
    update_op=operator.add,
    query_op=operator.add,
    update_identity=0,
    query_identity=0,
    aggregator=_aggregator("a + v * k"),
    inverse=operator.neg,
))

TIMES_TIMES = _register(OperatorPair(
    name="times-times",
    update_op=operator.mul,
    query_op=operator.mul,
    update_identity=1,
    query_identity=1,
    aggregator=_aggregator("a * v ** k"),
    inverse=_reciprocal,
    sample_range=(-4, 4),
))

MIN_MIN = _register(OperatorPair(
    name="min-min",
    update_op=min,
    query_op=min,
    update_identity=INF,
    query_identity=INF,
    aggregator=_aggregator("a if a < v else v"),
))

MAX_MAX = _register(OperatorPair(
    name="max-max",
    update_op=max,
    query_op=max,
    update_identity=NEG_INF,
    query_identity=NEG_INF,
    aggregator=_aggregator("a if a > v else v"),
))

TIMES_PLUS = _register(OperatorPair(
    name="times-plus",
    update_op=operator.mul,
    query_op=operator.add,
    update_identity=1,
    query_identity=0,
    aggregator=_aggregator("a * v"),
    inverse=_reciprocal,
    sample_range=(-4, 4),
))

PAIR_NAMES = tuple(_PAIRS)


def builtin_pairs() -> list:
    """All registered pairs, in registration order."""
    return list(_PAIRS.values())


def get_pair(name: str) -> OperatorPair:
    try:
        return _PAIRS[name]
    except KeyError:
        raise ValueError(f"unknown pair {name!r}; known: {', '.join(_PAIRS)}") from None
