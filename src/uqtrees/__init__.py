"""Range update / range query structures over generic operator pairs.

Backends (all sharing the ``update(box, value)`` / ``query(box)`` surface,
with boxes as tuples of inclusive ``(lo, hi)`` spans):

* :class:`DenseTensor`   -- brute-force oracle, any dimension, O(cells) per op
* :class:`SegTree1D`     -- 1D tree with pending update values, O(log N) per op
* :class:`NDTree`        -- d-dimensional tree for fold-commuting pairs,
  O(prod log extents) per op
* :class:`Grid2D`        -- 2D tree of scaled 1D trees for arbitrary pairs,
  O(log N log M) queries, O(N log M + M log N) updates
* :class:`QuadTree`      -- 2D quadtree, O(N) per op; the linear baseline

Plus the matrix-product reduction (:mod:`uqtrees.matmul`), seeded
differential/benchmark workloads (:mod:`uqtrees.workloads`) and the
``uqtrees`` command line (:mod:`uqtrees.cli`).
"""

from .algebra import (MAX_MAX, MIN_MIN, PAIR_NAMES, PLUS_MAX, PLUS_MIN,
                      PLUS_PLUS, TIMES_PLUS, TIMES_TIMES, OperatorPair,
                      ZeroTrackedSum, builtin_pairs, check_special, get_pair)
from .boxes import Box, box_volume, check_box
from .counters import OpCounters
from .dense import DenseTensor, format_tensor, parse_tensor
from .grid2d import Grid2D
from .matmul import (MAX_PLUS_PRODUCT, MIN_PLUS_PRODUCT, PRODUCT_PAIRS,
                     STANDARD_PRODUCT, ProductPair, multi_product_via_backend,
                     product_via_backend, schoolbook, seed_backend)
from .ndspecial import NDTree
from .quadtree import QuadTree, probe_visit_bound
from .seg1d import SegTree1D, ValidationError
from .workloads import (BACKEND_IDS, GROWTH_ENVELOPES, BenchRow,
                        ScalingReport, VerifyReport, WorkloadConfig,
                        make_backend, run_bench, run_scaling, run_verify)

__all__ = [
    "Box", "OperatorPair", "ZeroTrackedSum", "OpCounters",
    "DenseTensor", "SegTree1D", "NDTree", "Grid2D", "QuadTree",
    "ValidationError",
    "PLUS_MIN", "PLUS_MAX", "PLUS_PLUS", "TIMES_TIMES", "MIN_MIN", "MAX_MAX",
    "TIMES_PLUS", "PAIR_NAMES", "builtin_pairs", "get_pair",
    "check_special",
    "box_volume", "check_box", "parse_tensor", "format_tensor",
    "probe_visit_bound",
    "ProductPair", "PRODUCT_PAIRS", "MIN_PLUS_PRODUCT", "MAX_PLUS_PRODUCT",
    "STANDARD_PRODUCT", "schoolbook", "seed_backend", "product_via_backend",
    "multi_product_via_backend",
    "WorkloadConfig", "VerifyReport", "BenchRow", "ScalingReport",
    "BACKEND_IDS", "GROWTH_ENVELOPES", "make_backend",
    "run_verify", "run_bench", "run_scaling",
]

__version__ = "0.1.0"
