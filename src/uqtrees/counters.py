"""Deterministic node-visit counters.

Every backend carries an :class:`OpCounters` instance and bumps
``visits_total`` once per node it touches.  Counts depend only on the tree
shape and the operation arguments, never on element values or timing, so for
a fixed seeded workload they are bit-for-bit reproducible.  They are the
currency of every complexity check in the test suite and the ``bench`` /
``scaling`` commands.

Nested structures (a 2D tree whose nodes hold 1D trees, and so on) share one
counter object: inner trees are constructed with the outer tree's counters
and only ever bump ``visits_total``.  The per-operation bookkeeping
(``update_ops``, ``visits_last_op``, ...) is done once, by the structure the
caller actually invoked.
"""

from __future__ import annotations


class OpCounters:
    __slots__ = (
        "visits_total",
        "visits_last_op",
        "update_ops",
        "update_visits",
        "query_ops",
        "query_visits",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.visits_total = 0
        self.visits_last_op = 0
        self.update_ops = 0
        self.update_visits = 0
        self.query_ops = 0
        self.query_visits = 0

    def note_update(self, visits: int) -> None:
        self.visits_last_op = visits
        self.update_ops += 1
        self.update_visits += visits

    def note_query(self, visits: int) -> None:
        self.visits_last_op = visits
        self.query_ops += 1
        self.query_visits += visits

    def __repr__(self) -> str:
        return (
            f"OpCounters(total={self.visits_total}, last={self.visits_last_op}, "
            f"updates={self.update_ops}/{self.update_visits}, "
            f"queries={self.query_ops}/{self.query_visits})"
        )
