"""Seeded workloads: differential verification and counter benchmarks.

One workload = one seeded RNG stream.  The tensor is filled with uniform
values from the configured range, then each action flips a coin at the
configured update:query ratio; boxes are drawn per dimension as two
independent uniform indices, sorted; update values are uniform in the value
range.  Everything downstream of the seed is deterministic, including the
visit counters, which is what makes ``bench`` output reproducible
byte-for-byte.

One loop, :func:`_replay`, builds the backend and replays the stream on
it; everything else reads its result.  ``run_verify`` has it run the dense
oracle in lockstep and compare every query result exactly.  ``run_bench``
replays on the backend alone and reports visit statistics (wall-clock
times and the traced memory peak of a build ride along for human interest
only; no gate ever reads them).  ``run_scaling`` sweeps sizes and checks
visit growth against each backend's declared envelope.
"""

from __future__ import annotations

import math
import random
import time
import tracemalloc
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import get_pair
from .boxes import check_box, check_extents, draw_box
from .dense import DenseTensor
from .grid2d import Grid2D
from .ndspecial import NDTree
from .quadtree import QuadTree
from .seg1d import SegTree1D


class _Backend(NamedTuple):
    build: Callable[[DenseTensor], object]  # the structure seeded by a tensor
    dims: Optional[Tuple[int, ...]]  # dimension counts it accepts (None = any)
    envelope: Tuple[float, float]  # mean-visits ratio (lo, hi) when doubling N
    products: bool  # whether matrix products may run through it


_BACKENDS = {
    "oracle": _Backend(DenseTensor.copy, None, (0.0, 5.0), True),
    "seg1d": _Backend(lambda t: SegTree1D(t.data, t.pair), (1,), (0.0, 1.5), False),
    "nd-special": _Backend(lambda t: NDTree(t, t.pair), None, (0.0, 1.7), False),
    "grid2d-general": _Backend(lambda t: Grid2D(t, t.pair), (2,), (0.0, 3.0), True),
    "quadtree": _Backend(lambda t: QuadTree(t, t.pair), (2,), (1.5, 3.0), False),
}
BACKEND_IDS = tuple(_BACKENDS)
PRODUCT_BACKENDS = tuple(k for k, b in _BACKENDS.items() if b.products)

# multiplicative pairs stay tiny so 10k-op runs keep exact integers cheap
_VALUE_RANGES = {"times-times": (-1, 1), "times-plus": (-1, 1)}
_DEFAULT_VALUE_RANGE = (-100, 100)


@dataclass
class WorkloadConfig:
    backend: str
    pair: str
    dims: Tuple[int, ...]
    ops: int = 10000
    update_ratio: float = 0.5
    seed: int = 0
    value_range: Optional[Tuple[int, int]] = None

    def resolved_value_range(self) -> Tuple[int, int]:
        if self.value_range is not None:
            return self.value_range
        return _VALUE_RANGES.get(self.pair, _DEFAULT_VALUE_RANGE)

    def check(self) -> None:
        if self.backend not in BACKEND_IDS:
            raise ValueError(f"unknown backend {self.backend!r}; known: {', '.join(BACKEND_IDS)}")
        allowed = _BACKENDS[self.backend].dims
        if allowed is not None and len(self.dims) not in allowed:
            raise ValueError(
                f"backend {self.backend!r} supports {allowed} dimensions, got {len(self.dims)}")
        check_extents(self.dims)
        if self.ops < 1:
            raise ValueError("ops must be >= 1")
        if not 0.0 <= self.update_ratio <= 1.0:
            raise ValueError("update ratio must lie in [0, 1]")
        vlo, vhi = self.resolved_value_range()
        if vlo > vhi:
            raise ValueError("empty value range")


def make_backend(backend_id: str, tensor: DenseTensor):
    """Construct the named structure over ``tensor`` (which seeds it).

    Invalid combinations raise ValueError; in particular ``nd-special``
    refuses non-fold-commuting pairs with a concrete counterexample.
    """
    if backend_id not in _BACKENDS:
        raise ValueError(f"unknown backend {backend_id!r}")
    return _BACKENDS[backend_id].build(tensor)


def _box_ops(backend_id: str, structure):
    if backend_id == "seg1d":
        def span(box):
            if len(box) != 1:  # the oracle's refusal; SegTree1D checks a span
                check_box(box, (structure.size,))
            (lo, hi), = box
            return lo, hi
        return (lambda box, v: structure.update(*span(box), v),
                lambda box: structure.query(*span(box)))
    return structure.update, structure.query


def initial_tensor(cfg: WorkloadConfig, rng: random.Random) -> DenseTensor:
    vlo, vhi = cfg.resolved_value_range()
    size = math.prod(cfg.dims)
    data = [rng.randint(vlo, vhi) for _ in range(size)]
    return DenseTensor(cfg.dims, data, get_pair(cfg.pair))


def actions(cfg: WorkloadConfig, rng: random.Random) -> Iterator[tuple]:
    """The workload's ``cfg.ops`` actions as ``(box, value)`` pairs.

    ``value`` is the update value, or None for a query.  Each action draws
    its box, then the coin, then (for an update) the value, so one seed
    always yields the same stream.
    """
    vlo, vhi = cfg.resolved_value_range()
    ratio = cfg.update_ratio
    dims = cfg.dims
    for _ in range(cfg.ops):
        box = draw_box(rng, dims)
        yield box, (rng.randint(vlo, vhi) if rng.random() < ratio else None)


@dataclass
class VerifyReport:
    config: WorkloadConfig
    mismatches: int
    first_mismatch: Optional[str]
    updates: int
    queries: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def run_verify(cfg: WorkloadConfig, inject_fault: Optional[int] = None) -> VerifyReport:
    """Replay the workload on the backend and the oracle in lockstep.

    ``inject_fault=k`` drops the k-th update (0-based) on the backend only;
    it exists so the mismatch path of the exit-code contract can be
    exercised honestly.  A negative ``k``, or one the run never reaches,
    raises ValueError: a fault that is never injected tests nothing.
    """
    return _replay(cfg, True, inject_fault)[1]


@dataclass
class BenchRow:
    backend: str
    pair: str
    dims: Tuple[int, ...]
    init_visits: int
    # None when the run made no operation of that kind
    mean_visits_per_update: Optional[float]
    mean_visits_per_query: Optional[float]
    wall_init_seconds: float
    wall_ops_seconds: float
    # the costliest single operation of each kind, and the traced memory peak
    # of one build per cell; JSON only, the CSV keeps its columns
    max_visits_per_update: Optional[int] = field(default=None, metadata={"csv": False})
    max_visits_per_query: Optional[int] = field(default=None, metadata={"csv": False})
    build_peak_bytes_per_cell: Optional[float] = field(default=None, metadata={"csv": False})

    def as_dict(self) -> dict:
        """The fields in order, with ``dims`` written as ``--dims`` takes it."""
        return {**asdict(self), "dims": format_dims(self.dims)}

    def csv_values(self) -> List[str]:
        """The CSV fields as cells; an absent mean is an empty cell."""
        return ["" if v is None else f"{v:.6f}" if isinstance(v, float) else str(v)
                for v in map(self.as_dict().get, self.CSV_FIELDS)]


BenchRow.CSV_FIELDS = tuple(f.name for f in fields(BenchRow) if f.metadata.get("csv", True))


def format_dims(dims: Sequence[int]) -> str:
    return "x".join(str(n) for n in dims)


def parse_dims(text: str) -> Tuple[int, ...]:
    try:
        dims = tuple(int(t) for t in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad dims {text!r}; expected forms like 64 or 32x32") from None
    return check_extents(dims)


def _mean(visits: int, ops: int) -> Optional[float]:
    """Visits per operation, or None over no operations: not a measured zero."""
    return visits / ops if ops else None


def _replay(cfg: WorkloadConfig, check: bool = False,
            inject_fault: Optional[int] = None) -> tuple:
    """Build the backend and replay the workload on it: the structure, a
    :class:`VerifyReport`, the build's visits, and the wall seconds of the
    build and the replay.

    With ``check`` the oracle replays the stream in lockstep and every query
    is compared exactly; without it the report counts no mismatch.
    ``inject_fault`` is :func:`run_verify`'s.
    """
    cfg.check()
    if inject_fault is not None and inject_fault < 0:
        raise ValueError(f"inject_fault must be >= 0, got {inject_fault}")
    rng = random.Random(cfg.seed)
    tensor = initial_tensor(cfg, rng)
    oracle = tensor.copy() if check else None
    t0 = time.perf_counter()
    structure = make_backend(cfg.backend, tensor)
    wall_init = time.perf_counter() - t0
    upd, qry = _box_ops(cfg.backend, structure)
    init_visits = structure.counters.visits_total
    mismatches = updates = 0
    first: Optional[str] = None
    t0 = time.perf_counter()
    for k, (box, value) in enumerate(actions(cfg, rng)):
        if value is None:
            got = qry(box)
            if check:
                want = oracle.query(box)
                if got != want:
                    mismatches += 1
                    if first is None:
                        first = f"action #{k}: query {box} -> backend {got!r}, oracle {want!r}"
        else:
            if updates != inject_fault:
                upd(box, value)
            if check:
                oracle.update(box, value)
            updates += 1
    wall_ops = time.perf_counter() - t0
    if inject_fault is not None and inject_fault >= updates:
        raise ValueError(f"inject_fault={inject_fault} was never reached: "
                         f"the run made {updates} updates")
    report = VerifyReport(cfg, mismatches, first, updates, cfg.ops - updates)
    return structure, report, init_visits, wall_init, wall_ops


def _build_peak_bytes(cfg: WorkloadConfig) -> int:
    """The :mod:`tracemalloc` peak of one more, untimed build of the backend
    over the workload's tensor, less what was traced before it.  A caller's
    tracing keeps running, but its peak restarts here."""
    tensor = initial_tensor(cfg, random.Random(cfg.seed))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        make_backend(cfg.backend, tensor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak - before


def run_bench(cfg: WorkloadConfig) -> BenchRow:
    """Replay the workload on the backend alone and measure visits; then
    build it once more, untimed, to measure its memory."""
    structure, _, init_visits, wall_init, wall_ops = _replay(cfg)
    counters = structure.counters
    return BenchRow(
        backend=cfg.backend,
        pair=cfg.pair,
        dims=cfg.dims,
        init_visits=init_visits,
        mean_visits_per_update=_mean(counters.update_visits, counters.update_ops),
        mean_visits_per_query=_mean(counters.query_visits, counters.query_ops),
        wall_init_seconds=wall_init,
        wall_ops_seconds=wall_ops,
        max_visits_per_update=counters.max_update_visits if counters.update_ops else None,
        max_visits_per_query=counters.max_query_visits if counters.query_ops else None,
        build_peak_bytes_per_cell=_build_peak_bytes(cfg) / math.prod(cfg.dims),
    )


@dataclass
class ScalingStep:
    size_from: int
    size_to: int
    ratio: float
    envelope: Tuple[float, float]

    @property
    def ok(self) -> bool:
        lo, hi = self.envelope
        return lo <= self.ratio <= hi


@dataclass
class ScalingReport:
    backend: str
    pair: str
    sizes: List[int]
    mean_visits: List[float]
    steps: List[ScalingStep] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)


def scaling_dims(backend_id: str, n: int) -> Tuple[int, ...]:
    return (n,) if backend_id == "seg1d" else (n, n)


def measure_mean_visits(cfg: WorkloadConfig) -> float:
    """Mean visits per op (updates and queries together) for one workload."""
    structure, _, init_visits, _, _ = _replay(cfg)
    return (structure.counters.visits_total - init_visits) / cfg.ops


def run_scaling(backend_id: str, pair_name: str, sizes: Sequence[int],
                ops: int = 2000, seed: int = 0) -> ScalingReport:
    """Mean visits per op at each size, plus consecutive-size growth ratios.

    Each ratio is checked against the backend's declared envelope: polylog
    growth for the trees, linear (so roughly doubling) for the quadtree.
    """
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError("need at least two sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    means = []
    for n in sizes:
        cfg = WorkloadConfig(backend_id, pair_name, scaling_dims(backend_id, n),
                             ops=ops, seed=seed)
        means.append(measure_mean_visits(cfg))
    report = ScalingReport(backend_id, pair_name, sizes, means)
    env = _BACKENDS[backend_id].envelope
    for (a, b), (va, vb) in zip(zip(sizes, sizes[1:]), zip(means, means[1:])):
        ratio = vb / va if va else math.inf
        report.steps.append(ScalingStep(a, b, ratio, env))
    return report
