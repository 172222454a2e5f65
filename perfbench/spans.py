"""In-memory spans around the library's public calls, for the traced run.

The tracer patches methods and module-level functions of the library from
outside (no code in ``src/`` knows about it) and records one span per call:
``(name, start_ns, end_ns, parent, op)``, where ``parent`` indexes the span
that was open when the call began and ``op`` is the request id the harness
set.  Whenever the outermost span closes, the recorded spans are folded into
per-name call counts and self times (duration minus the time covered by
direct children) and dropped, so memory stays bounded by one request.  The
tracer's own time around each outermost span is kept apart
(``bookkeeping_ns``), so the harness can check that spans and bookkeeping
together cover the time it measured around each call into the library.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

NDSPECIAL_OUTER = "ndspecial.outer"
NDSPECIAL_INNER = "ndspecial.inner"

# (span name, module path, owner attribute or None, attribute) for every
# traced call; an owner of None means a module-level function.  check_box is
# traced as the backends bind it; the oracle's own check stays in dense.*.
TARGETS = (
    ("grid2d.update", "uqtrees.grid2d", "Grid2D", "update"),
    ("grid2d.query", "uqtrees.grid2d", "Grid2D", "query"),
    ("seg1d.update", "uqtrees.seg1d", "SegTree1D", "update"),
    ("seg1d.query", "uqtrees.seg1d", "SegTree1D", "query"),
    ("seg1d.to_array", "uqtrees.seg1d", "SegTree1D", "to_array"),
    ("seg1d.reinit", "uqtrees.seg1d", "SegTree1D", "reinit"),
    ("boxes.check_box", "uqtrees.ndspecial", None, "check_box"),
    ("boxes.check_box", "uqtrees.grid2d", None, "check_box"),
    ("dense.update", "uqtrees.dense", "DenseTensor", "update"),
    ("dense.query", "uqtrees.dense", "DenseTensor", "query"),
    ("matmul.product", "uqtrees.matmul", None, "product_via_backend"),
)
# NDTree calls are named by nesting: a call made while another NDTree call
# is open belongs to an inner (d-1)-dimensional tree
NDTREE_METHODS = ("update", "query")

SPAN_NAMES = (NDSPECIAL_OUTER, NDSPECIAL_INNER) + tuple(
    dict.fromkeys(name for name, *_ in TARGETS))


class TraceError(RuntimeError):
    """The recorded spans do not nest; their accounting cannot close."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.top_ns = 0
        # the tracer's own time around each outermost span (recording and
        # folding): it lies inside the harness's bracket around the call
        # into the library but in no span
        self.bookkeeping_ns = 0
        self._open: list = []
        self._nd_depth = 0

    def call(self, name, fn, args, kwargs):
        spans, open_ = self.spans, self._open
        entry = time.perf_counter_ns() if not open_ else 0
        i = len(spans)
        spans.append(None)
        parent = open_[-1] if open_ else -1
        open_.append(i)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            open_.pop()
            spans[i] = (name, start, end, parent, self.op)
            if not open_:
                self._fold()
                self.bookkeeping_ns += start - entry + time.perf_counter_ns() - end

    def _fold(self) -> None:
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                self.top_ns += end - start
        for (name, start, end, _, _), inner in zip(spans, child_ns):
            own = end - start - inner
            if own < 0:
                raise TraceError(f"span {name} is shorter than its children")
            self.calls[name] += 1
            self.self_ns[name] += own
        spans.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def _wrap_ndtree(self, fn):
        def traced(*args, **kwargs):
            name = NDSPECIAL_INNER if self._nd_depth else NDSPECIAL_OUTER
            self._nd_depth += 1
            try:
                return self.call(name, fn, args, kwargs)
            finally:
                self._nd_depth -= 1
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore.

        A target the library no longer has is skipped; its span reads zero
        calls, which is what a change that removed the call should show.
        """
        patched = []
        try:
            for name, module_path, owner_name, attr in TARGETS:
                module = importlib.import_module(module_path)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = owner.__dict__.get(attr)
                if original is not None:
                    setattr(owner, attr, self._wrap(name, original))
                    patched.append((owner, attr, original))
            from uqtrees.ndspecial import NDTree
            for attr in NDTREE_METHODS:
                original = NDTree.__dict__[attr]
                setattr(NDTree, attr, self._wrap_ndtree(original))
                patched.append((NDTree, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
        if self._open or self.spans:
            raise TraceError(f"{len(self._open)} spans still open after the traced loop")
