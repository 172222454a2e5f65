"""Seeded workloads: differential verification and counter benchmarks.

One workload = one seeded RNG stream.  The tensor is filled with uniform
values from the configured range, then each action flips a coin at the
configured update:query ratio; boxes are drawn per dimension as two
independent uniform indices, sorted; update values are uniform in the value
range.  Everything downstream of the seed is deterministic, including the
visit counters, which is what makes ``bench`` output reproducible
byte-for-byte.

``run_verify`` replays the workload on a chosen backend and on the dense
oracle in lockstep and compares every query result exactly.  ``run_bench``
replays it on the backend alone and reports visit statistics (wall-clock
times ride along for human interest only; no gate ever reads them).
``run_scaling`` sweeps sizes and checks visit growth against each backend's
declared envelope.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator, List, Optional, Sequence, Tuple

from .algebra import get_pair
from .dense import DenseTensor
from .grid2d import Grid2D
from .ndspecial import NDTree
from .quadtree import QuadTree
from .seg1d import SegTree1D

BACKEND_IDS = ("oracle", "seg1d", "nd-special", "grid2d-general", "quadtree")

# dimension counts each backend accepts (None = any)
_BACKEND_DIMS = {
    "oracle": None,
    "seg1d": (1,),
    "nd-special": (1, 2, 3),
    "grid2d-general": (2,),
    "quadtree": (2,),
}

# multiplicative pairs stay tiny so 10k-op runs keep exact integers cheap
_VALUE_RANGES = {"times-times": (-1, 1), "times-plus": (-1, 1)}
_DEFAULT_VALUE_RANGE = (-100, 100)

# visit-growth envelope (lo, hi) for the mean-visits ratio when doubling N
GROWTH_ENVELOPES = {
    "seg1d": (0.0, 1.5),
    "nd-special": (0.0, 1.7),
    "grid2d-general": (0.0, 3.0),
    "quadtree": (1.5, 3.0),
    "oracle": (0.0, 5.0),
}


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
        allowed = _BACKEND_DIMS[self.backend]
        if allowed is not None and len(self.dims) not in allowed:
            raise ValueError(
                f"backend {self.backend!r} supports {allowed} dimensions, got {len(self.dims)}")
        if not self.dims or any(n < 1 for n in self.dims):
            raise ValueError(f"bad extents {self.dims}")
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
    if backend_id == "oracle":
        return tensor.copy()
    if backend_id == "seg1d":
        return SegTree1D(tensor.data, tensor.pair)
    if backend_id == "nd-special":
        return NDTree(tensor, tensor.pair)
    if backend_id == "grid2d-general":
        return Grid2D(tensor, tensor.pair)
    if backend_id == "quadtree":
        return QuadTree(tensor, tensor.pair)
    raise ValueError(f"unknown backend {backend_id!r}")


def _box_ops(backend_id: str, structure):
    if backend_id == "seg1d":
        return (lambda box, v: structure.update(box[0][0], box[0][1], v),
                lambda box: structure.query(box[0][0], box[0][1]))
    return structure.update, structure.query


def initial_tensor(cfg: WorkloadConfig, rng: random.Random) -> DenseTensor:
    vlo, vhi = cfg.resolved_value_range()
    size = math.prod(cfg.dims)
    data = [rng.randint(vlo, vhi) for _ in range(size)]
    return DenseTensor(cfg.dims, data, get_pair(cfg.pair))


def _draw_box(rng: random.Random, dims: Tuple[int, ...]):
    spans = []
    for n in dims:
        a = rng.randrange(n)
        b = rng.randrange(n)
        spans.append((a, b) if a <= b else (b, a))
    return tuple(spans)


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
        box = _draw_box(rng, dims)
        yield box, (rng.randint(vlo, vhi) if rng.random() < ratio else None)


def _replay(stream, upd, qry) -> None:
    for box, value in stream:
        if value is None:
            qry(box)
        else:
            upd(box, value)


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
    cfg.check()
    if inject_fault is not None and inject_fault < 0:
        raise ValueError(f"inject_fault must be >= 0, got {inject_fault}")
    rng = random.Random(cfg.seed)
    tensor = initial_tensor(cfg, rng)
    oracle = tensor.copy()
    structure = make_backend(cfg.backend, tensor)
    upd, qry = _box_ops(cfg.backend, structure)
    mismatches = 0
    first: Optional[str] = None
    updates = queries = 0
    for k, (box, value) in enumerate(actions(cfg, rng)):
        if value is not None:
            if updates != inject_fault:
                upd(box, value)
            oracle.update(box, value)
            updates += 1
        else:
            got = qry(box)
            want = oracle.query(box)
            if got != want:
                mismatches += 1
                if first is None:
                    first = f"action #{k}: query {box} -> backend {got!r}, oracle {want!r}"
            queries += 1
    if inject_fault is not None and inject_fault >= updates:
        raise ValueError(f"inject_fault={inject_fault} was never reached: "
                         f"the run made {updates} updates")
    return VerifyReport(cfg, mismatches, first, updates, queries)


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

    def as_dict(self) -> dict:
        """The fields in order, with ``dims`` written as ``--dims`` takes it."""
        return {**asdict(self), "dims": format_dims(self.dims)}

    def csv_values(self) -> List[str]:
        """The fields as CSV cells; an absent mean is an empty cell."""
        return ["" if v is None else f"{v:.6f}" if isinstance(v, float) else str(v)
                for v in self.as_dict().values()]


BenchRow.CSV_FIELDS = tuple(f.name for f in fields(BenchRow))


def format_dims(dims: Sequence[int]) -> str:
    return "x".join(str(n) for n in dims)


def parse_dims(text: str) -> Tuple[int, ...]:
    try:
        dims = tuple(int(t) for t in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad dims {text!r}; expected forms like 64 or 32x32") from None
    if not dims or any(n < 1 for n in dims):
        raise ValueError(f"bad dims {text!r}")
    return dims


def _mean(visits: int, ops: int) -> Optional[float]:
    """Visits per operation, or None over no operations: not a measured zero."""
    return visits / ops if ops else None


def run_bench(cfg: WorkloadConfig) -> BenchRow:
    """Replay the workload on the backend alone and measure visits."""
    cfg.check()
    rng = random.Random(cfg.seed)
    tensor = initial_tensor(cfg, rng)
    t0 = time.perf_counter()
    structure = make_backend(cfg.backend, tensor)
    wall_init = time.perf_counter() - t0
    upd, qry = _box_ops(cfg.backend, structure)
    counters = structure.counters
    init_visits = counters.visits_total
    t0 = time.perf_counter()
    _replay(actions(cfg, rng), upd, qry)
    wall_ops = time.perf_counter() - t0
    return BenchRow(
        backend=cfg.backend,
        pair=cfg.pair,
        dims=cfg.dims,
        init_visits=init_visits,
        mean_visits_per_update=_mean(counters.update_visits, counters.update_ops),
        mean_visits_per_query=_mean(counters.query_visits, counters.query_ops),
        wall_init_seconds=wall_init,
        wall_ops_seconds=wall_ops,
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
    cfg.check()
    rng = random.Random(cfg.seed)
    structure = make_backend(cfg.backend, initial_tensor(cfg, rng))
    upd, qry = _box_ops(cfg.backend, structure)
    counters = structure.counters
    before = counters.visits_total
    _replay(actions(cfg, rng), upd, qry)
    return (counters.visits_total - before) / cfg.ops


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
    env = GROWTH_ENVELOPES[backend_id]
    for (a, b), (va, vb) in zip(zip(sizes, sizes[1:]), zip(means, means[1:])):
        ratio = vb / va if va else math.inf
        report.steps.append(ScalingStep(a, b, ratio, env))
    return report
