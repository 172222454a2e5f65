"""A fixed memory-bound kernel that measures the machine, not the library.

On a shared virtual machine the speed of every timing in a run follows the
host's state: how much of the shared last-level cache and memory bandwidth
the other tenants leave.  This kernel walks random root-to-leaf paths in a
fixed forest of about a million small Python objects (larger than a core's
L2, a large share of the L3), so its time follows that state too, while no
change to the library changes it.  ``run.py`` samples it between calls into
the library, outside the timed brackets, and scales each round's timings by
``NOMINAL_NS / <the round's median sample>``: timings as they would read on a
machine where one sample takes ``NOMINAL_NS``.

Samples draw fresh paths from a fixed LCG, so a sample does not find its
own nodes left in cache by the previous one.  The forest is moved to the
collector's permanent generation, so it does not lengthen the collections
that the library's calls pay for.
"""

from __future__ import annotations

import gc
import statistics
import time

# 32 perfect binary trees of depth 15: about a million nodes, about 60 MiB
TREES = 32
DEPTH = 15
# root-to-leaf walks per sample: about 1 ms on a shared 2.0 GHz Xeon VM
WALKS = 200
# about the median sample there; a scaled timing reads as raw on a machine
# whose samples take this long
NOMINAL_NS = 1_000_000
# sample at most once per this much time, so sampling costs a few percent
EVERY_NS = 20_000_000

clock = time.perf_counter_ns


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value):
        self.left = left
        self.right = right
        self.value = value


def _tree(depth: int) -> _Node:
    if depth == 0:
        return _Node(None, None, 1)
    return _Node(_tree(depth - 1), _tree(depth - 1), 0)


class Reference:
    """The forest, and the samples taken since the last ``take()``."""

    def __init__(self, depth: int = DEPTH):
        self.forest = [_tree(depth - 1) for _ in range(TREES)]
        gc.freeze()
        self.state = 1
        self.samples: list = []
        self.spent_ns = 0
        self.last = clock()

    def sample(self) -> int:
        """Time one batch of walks; returns its duration in ns."""
        forest, state = self.forest, self.state
        t0 = clock()
        total = 0
        for _ in range(WALKS):
            state = (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
            node = forest[state >> 59]
            path = state >> 20
            while node is not None:
                total += node.value
                node = node.left if path & 1 else node.right
                path >>= 1
        ns = clock() - t0
        if total != WALKS:
            raise AssertionError(f"reference walks reached {total} leaves, not {WALKS}")
        self.state = state
        self.samples.append(ns)
        return ns

    def tick(self) -> None:
        """Sample if ``EVERY_NS`` have passed since the last sample; the
        sample's cost is added to ``spent_ns``."""
        now = clock()
        if now - self.last >= EVERY_NS:
            self.sample()
            self.last = clock()
            self.spent_ns += self.last - now

    def take(self) -> tuple:
        """(median sample, sample count, ns spent sampling) since the last
        ``take()``; samples once if none was taken."""
        if not self.samples:
            t0 = clock()
            self.sample()
            self.spent_ns += clock() - t0
        out = (statistics.median(self.samples), len(self.samples), self.spent_ns)
        self.samples, self.spent_ns = [], 0
        self.last = clock()
        return out
