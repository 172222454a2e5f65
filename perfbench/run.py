#!/usr/bin/env python3
"""Outside-in benchmark of the uqtrees backends and the matrix-product reduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload nd3-mixed --seed 1 --seconds 30 --trace 0

Every input comes from ``--seed``.  The run repeats rounds until ``--seconds``
have passed (and makes at least ``MIN_ROUNDS``); each round builds a fresh
backend and checks every answer.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, measured untraced; with ``--trace 1``
the per-layer metrics of a traced run (see ``spans.py``).  The line before it
holds the run's provenance, sample counts and exact counts.  The exit code
is 0 only when every answer was right, every exact count repeated and, in a
traced run, the accounting closed.

Only public calls are timed: the backend constructors, ``update``/``query``,
``product_via_backend`` and the ``DenseTensor`` oracle.  Each untraced
round's timings are scaled by the machine's speed during that round, as a
fixed reference kernel measures it between calls (see ``reference.py``); the
line before the result holds them unscaled too.  See README.md in this
directory for why each workload is there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "uqtrees" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no uqtrees sources under {SRC}; "
                     "run it from the root of a repository checkout")
sys.path.insert(0, str(SRC))

import uqtrees  # noqa: E402
from uqtrees import matmul  # noqa: E402
from uqtrees import (MIN_PLUS_PRODUCT, DenseTensor, Grid2D, NDTree,  # noqa: E402
                     get_pair, schoolbook, seed_backend)

from reference import NOMINAL_NS, Reference  # noqa: E402
from spans import SPAN_NAMES, TraceError, Tracer  # noqa: E402

if Path(uqtrees.__file__).resolve().parent != SRC / "uqtrees":
    raise SystemExit(f"perfbench: imported uqtrees from {uqtrees.__file__}, not from {SRC}")

BASELINE = Path(__file__).resolve().parent / "baseline.json"
# every run makes this many rounds; exact counts come from these rounds only,
# so they do not depend on how many rounds fit into --seconds
MIN_ROUNDS = 3
VALUE_RANGE = (-100, 100)
UPDATE_SHARE = 0.5
# each round times set-up over repeated builds that take at least this long
SETUP_MIN_S = 0.1
# a p99 is taken over each window of this many consecutive calls and the
# median over windows is reported: a burst of interference or a long
# collector pause then moves one window's p99, not the result
P99_WINDOW = 1000
# the share of the traced loop that may lie inside the harness's brackets
# around calls into the library but outside every span and the tracer's
# bookkeeping: the dispatch from the bracket into the wrapper and back, about
# 1 us per op (0.4% of the loop or less on the full-size workloads, 2-4% on
# toy grids whose ops take tens of microseconds)
UNACCOUNTED_LIMIT = 0.05
clock = time.perf_counter_ns


@dataclass(frozen=True)
class RangeWorkload:
    """Closed loop, one caller: uniform random boxes, a coin per update."""

    name: str
    backend: str
    pair: str
    dims: tuple
    ops_per_round: int


@dataclass(frozen=True)
class ProductWorkload:
    """One min-plus product of seeded n x n matrices per round."""

    name: str
    n: int


WORKLOADS = {w.name: w for w in (
    RangeWorkload("nd3-mixed", "nd-special", "plus-plus", (32, 32, 32), 1000),
    RangeWorkload("grid2d-mixed", "grid2d-general", "plus-min", (64, 64), 1000),
    ProductWorkload("matmul-minplus", 32),
)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_peak_mib": "MiB",
    "ops_per_s": "1/s",
    "update_p50_us": "us",
    "update_p99_us": "us",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "batch_s": "s",
    "verify_s": "s",
}
PER_LAYER_UNITS = {
    **{f"{span}.{kind}": unit for span in SPAN_NAMES
       for kind, unit in (("calls_per_op", "calls/op"), ("self_share", "share"))},
    "trace.harness_share": "share",
    "trace.bookkeeping_share": "share",
    "trace.unaccounted_share": "share",
    "trace.overhead_ratio": "ratio",
    "counters.init_visits": "visits",
    "counters.visits_per_update": "visits/op",
    "counters.visits_per_query": "visits/op",
}


# the answer of a call that raised: it equals no oracle answer
RAISED = object()


class TimedBackend:
    """Stands between the caller and a backend, timing and guarding each call.

    It is also what ``product_via_backend`` receives as its ``backend``, so the
    reduction's own calls are timed one by one.  A call that raises is
    recorded and answered with ``RAISED``.  ``drop_update=k`` skips the k-th
    update (0-based); the self-test uses it to show that the checks catch a
    wrong answer.  After each call, outside its bracket, the ``reference``
    kernel may take a sample.
    """

    def __init__(self, backend, drop_update: Optional[int] = None,
                 reference: Optional[Reference] = None):
        self.dims = backend.dims
        self.backend = backend
        self.drop_update = drop_update
        self.reference = reference
        self.update_ns: list = []
        self.query_ns: list = []
        self.raised_updates = 0
        self.first_error: Optional[str] = None

    def _note_error(self) -> None:
        if self.first_error is None:
            self.first_error = traceback.format_exc()

    def update(self, box, value) -> None:
        skip = len(self.update_ns) == self.drop_update
        t0 = clock()
        try:
            if not skip:
                self.backend.update(box, value)
        except Exception:
            self.raised_updates += 1
            self._note_error()
        self.update_ns.append(clock() - t0)
        if self.reference:
            self.reference.tick()

    def query(self, box):
        t0 = clock()
        try:
            out = self.backend.query(box)
        except Exception:
            out = RAISED
            self._note_error()
        self.query_ns.append(clock() - t0)
        if self.reference:
            self.reference.tick()
        return out


@dataclass
class Pass:
    """What one round leaves behind; it holds no reference to the backend.
    Its times are raw; ``scale`` converts them to the reference machine."""

    setup_s: list
    batch_s: float
    verify_s: float
    # without the reference kernel's samples
    loop_ns: int
    # time inside the harness's brackets around calls into the library
    # (backend and oracle); the rest of loop_ns is the harness's own
    library_ns: int
    update_ns: list
    query_ns: list
    ops: int
    attempted: int
    failed: int
    exact: dict
    first_error: Optional[str]
    tracer: Optional[Tracer]
    scale: float = 1.0
    reference_samples: int = 0


def _counts(backend, init_visits: int) -> dict:
    c = backend.counters
    return {"init_visits": init_visits,
            "update_ops": c.update_ops, "update_visits": c.update_visits,
            "query_ops": c.query_ops, "query_visits": c.query_visits}


# ---------------------------------------------------------------- inputs

def range_tensor(w: RangeWorkload, seed: int) -> DenseTensor:
    rng = random.Random(f"{w.name}/{seed}/tensor")
    lo, hi = VALUE_RANGE
    data = [rng.randint(lo, hi) for _ in range(math.prod(w.dims))]
    return DenseTensor(w.dims, data, get_pair(w.pair))


def range_actions(w: RangeWorkload, seed: int, round_no: int) -> list:
    """``(box, value)`` per op; ``value`` is None for a query."""
    rng = random.Random(f"{w.name}/{seed}/{round_no}")
    lo, hi = VALUE_RANGE
    out = []
    for _ in range(w.ops_per_round):
        box = tuple(tuple(sorted((rng.randrange(n), rng.randrange(n)))) for n in w.dims)
        value = rng.randint(lo, hi) if rng.random() < UPDATE_SHARE else None
        out.append((box, value))
    return out


def product_matrices(w: ProductWorkload, seed: int, round_no: int) -> tuple:
    rng = random.Random(f"{w.name}/{seed}/{round_no}")
    lo, hi = VALUE_RANGE
    return tuple([[rng.randint(lo, hi) for _ in range(w.n)] for _ in range(w.n)]
                 for _ in range(2))


def build_range_backend(w: RangeWorkload, tensor: DenseTensor):
    if w.backend == "nd-special":
        return NDTree(tensor, tensor.pair)
    if w.backend == "grid2d-general":
        return Grid2D(tensor, tensor.pair)
    raise ValueError(f"no range backend {w.backend!r}")


# ---------------------------------------------------------------- one round

def timed_builds(build, reference: Optional[Reference] = None) -> tuple:
    """Build the backend again and again until ``SETUP_MIN_S`` have passed
    (at least once); (the last backend, seconds per build).  A lone build of
    a few milliseconds is the noisiest way to time set-up."""
    times = []
    while not times or sum(times) < SETUP_MIN_S:
        backend = None
        # the backends hold reference cycles; collect the last one untimed
        gc.collect()
        t0 = time.perf_counter()
        backend = build()
        times.append(time.perf_counter() - t0)
        if reference:
            reference.tick()
    return backend, times


def scale_of(p: Pass, reference: Optional[Reference]) -> Pass:
    """Set the pass's scale from the samples taken during it."""
    if reference:
        median_ns, p.reference_samples, _ = reference.take()
        p.scale = NOMINAL_NS / median_ns
    return p


def range_pass(w: RangeWorkload, tensor: DenseTensor, actions: list,
               tracer: Optional[Tracer] = None, drop_update: Optional[int] = None,
               reference: Optional[Reference] = None) -> Pass:
    """Build the backend, then replay ``actions`` on it and on the oracle in
    lockstep, comparing every query; this is how ``uqtrees verify`` checks."""
    backend, setup_s = timed_builds(lambda: build_range_backend(w, tensor), reference)
    init_visits = backend.counters.visits_total
    oracle = tensor.copy()
    timed = TimedBackend(backend, drop_update, reference)
    failed = 0
    oracle_ns = 0
    sampled_ns = reference.spent_ns if reference else 0
    with tracer.installed() if tracer else nullcontext():
        start = clock()
        for k, (box, value) in enumerate(actions):
            if tracer:
                tracer.op = k
            if value is None:
                got = timed.query(box)
                t = clock()
                want = oracle.query(box)
                oracle_ns += clock() - t
                if got != want:
                    failed += 1
            else:
                timed.update(box, value)
                t = clock()
                oracle.update(box, value)
                oracle_ns += clock() - t
        loop_ns = clock() - start
    if reference:
        loop_ns -= reference.spent_ns - sampled_ns
    backend_ns = sum(timed.update_ns) + sum(timed.query_ns)
    return scale_of(Pass(setup_s=setup_s, batch_s=backend_ns / 1e9,
                         verify_s=loop_ns / 1e9, loop_ns=loop_ns,
                         library_ns=backend_ns + oracle_ns,
                         update_ns=timed.update_ns, query_ns=timed.query_ns,
                         ops=len(actions), attempted=len(actions),
                         failed=failed + timed.raised_updates,
                         exact=_counts(backend, init_visits),
                         first_error=timed.first_error, tracer=tracer), reference)


def product_pass(w: ProductWorkload, a: list, b: list, tracer: Optional[Tracer] = None,
                 drop_update: Optional[int] = None,
                 reference: Optional[Reference] = None) -> Pass:
    """One product through grid2d-general on a fresh backend, then the check
    ``uqtrees matmul --check`` makes: the same product through the oracle
    backend, and both against the schoolbook product, compared with ``==``."""
    domain = MIN_PLUS_PRODUCT
    backend, setup_s = timed_builds(lambda: seed_backend("grid2d-general", a, domain),
                                    reference)
    init_visits = backend.counters.visits_total
    timed = TimedBackend(backend, drop_update, reference)
    sampled_ns = reference.spent_ns if reference else 0
    with tracer.installed() if tracer else nullcontext():
        if tracer:
            tracer.op = 0
        start = clock()
        got = matmul.product_via_backend(a, b, domain, timed)
        mid = clock()
        if reference:
            # the samples taken inside the product are not the product's time
            start += reference.spent_ns - sampled_ns
        oracle = seed_backend("oracle", a, domain)
        t = clock()
        via_oracle = matmul.product_via_backend(a, b, domain, oracle)
        oracle_ns = clock() - t
        want = schoolbook(a, b, domain)
        wrong = sum(x != y for grow, wrow in zip(got, want) for x, y in zip(grow, wrow))
        wrong += sum(x != y for orow, wrow in zip(via_oracle, want) for x, y in zip(orow, wrow))
        end = clock()
    calls = len(timed.update_ns) + len(timed.query_ns)
    return scale_of(Pass(setup_s=setup_s, batch_s=(mid - start) / 1e9,
                         verify_s=(end - mid) / 1e9,
                         loop_ns=end - start, library_ns=mid - start + oracle_ns,
                         update_ns=timed.update_ns, query_ns=timed.query_ns,
                         ops=calls, attempted=calls + w.n * w.n,
                         failed=wrong + timed.raised_updates,
                         exact=_counts(backend, init_visits),
                         first_error=timed.first_error, tracer=tracer), reference)


def build_peak_mib(w, seed: int) -> float:
    """tracemalloc peak while constructing the backend, in its own pass."""
    if isinstance(w, RangeWorkload):
        tensor = range_tensor(w, seed)
        build = lambda: build_range_backend(w, tensor)  # noqa: E731
    else:
        a, _ = product_matrices(w, seed, 0)
        build = lambda: seed_backend("grid2d-general", a, MIN_PLUS_PRODUCT)  # noqa: E731
    gc.collect()
    tracemalloc.start()
    try:
        backend = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del backend
    return peak / 2**20


# ---------------------------------------------------------------- a run

def run_rounds(w, seed: int, seconds: float, trace: bool,
               drop_update: Optional[int] = None) -> list:
    """``[(untraced Pass, traced Pass or None), ...]``, one per round.

    Round ``r`` draws its own inputs from ``(seed, r)``, so a longer run sees
    more distinct operations; the traced pass replays the untraced one's.
    Only the untraced passes sample the reference kernel.
    """
    reference = Reference()
    tensor = range_tensor(w, seed) if isinstance(w, RangeWorkload) else None
    deadline = time.perf_counter() + seconds
    rounds = []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        r = len(rounds)
        if tensor is not None:
            actions = range_actions(w, seed, r)
            one = lambda tracer, ref: range_pass(  # noqa: E731
                w, tensor, actions, tracer, drop_update, ref)
        else:
            a, b = product_matrices(w, seed, r)
            one = lambda tracer, ref: product_pass(  # noqa: E731
                w, a, b, tracer, drop_update, ref)
        rounds.append((one(None, reference), one(Tracer(), None) if trace else None))
    return rounds


def p99_windows_us(samples_ns: list) -> list:
    """Nearest-rank p99 of each full window of ``P99_WINDOW`` consecutive
    calls, in microseconds; ten calls lie beyond it in every window."""
    rank = math.ceil(0.99 * P99_WINDOW)
    return [sorted(samples_ns[i:i + P99_WINDOW])[rank - 1] / 1000
            for i in range(0, len(samples_ns) - P99_WINDOW + 1, P99_WINDOW)]


def exact_counts(passes: list) -> dict:
    """Visit counts over the first ``MIN_ROUNDS`` passes, which every run of
    one seed makes identically."""
    head = [p.exact for p in passes[:MIN_ROUNDS]]
    upd_ops = sum(e["update_ops"] for e in head)
    qry_ops = sum(e["query_ops"] for e in head)
    return {
        "counters.init_visits": head[0]["init_visits"],
        "counters.visits_per_update": sum(e["update_visits"] for e in head) / upd_ops,
        "counters.visits_per_query": sum(e["query_visits"] for e in head) / qry_ops,
    }


def timings(passes: list, scaled: bool) -> dict:
    """The timing metrics of the untraced passes, each pass's times scaled
    to the reference machine or, with ``scaled=False``, raw."""
    scales = [p.scale if scaled else 1.0 for p in passes]
    upd = [x * f for p, f in zip(passes, scales) for x in p.update_ns]
    qry = [x * f for p, f in zip(passes, scales) for x in p.query_ns]
    call_ns = sum(upd) + sum(qry)
    upd_p99, qry_p99 = p99_windows_us(upd), p99_windows_us(qry)
    return {
        "setup_s": statistics.median(t * f for p, f in zip(passes, scales) for t in p.setup_s),
        "ops_per_s": (len(upd) + len(qry)) / (call_ns / 1e9),
        "update_p50_us": statistics.median(upd) / 1000,
        "update_p99_us": statistics.median(upd_p99) if upd_p99 else None,
        "query_p50_us": statistics.median(qry) / 1000,
        "query_p99_us": statistics.median(qry_p99) if qry_p99 else None,
        "batch_s": statistics.median(p.batch_s * f for p, f in zip(passes, scales)),
        "verify_s": statistics.median(p.verify_s * f for p, f in zip(passes, scales)),
    }


def end_to_end(w, seed: int, rounds: list) -> tuple:
    """(metrics, sample counts, raw timings) from the untraced passes."""
    passes = [u for u, _ in rounds]
    values = {"build_peak_mib": build_peak_mib(w, seed), **timings(passes, scaled=True)}
    n_upd = sum(len(p.update_ns) for p in passes)
    n_qry = sum(len(p.query_ns) for p in passes)
    n = len(passes)
    samples = {"setup_s": sum(len(p.setup_s) for p in passes), "build_peak_mib": 1,
               "ops_per_s": n_upd + n_qry,
               "update_p50_us": n_upd, "update_p99_us": n_upd // P99_WINDOW,
               "query_p50_us": n_qry, "query_p99_us": n_qry // P99_WINDOW,
               "batch_s": n, "verify_s": n,
               "reference": sum(p.reference_samples for p in passes)}
    return values, samples, timings(passes, scaled=False)


def per_layer(rounds: list) -> tuple:
    """(metrics, sample counts, problems) from the traced passes.

    The accounting closes when the spans, plus the tracer's bookkeeping,
    cover the time the harness measured inside its brackets around calls
    into the library, to within ``UNACCOUNTED_LIMIT`` of the traced loop.  A
    call into a layer that no span wraps leaves its time unaccounted.
    """
    traced = [t for _, t in rounds]
    head = traced[:MIN_ROUNDS]
    ops = sum(t.ops for t in head)
    wall = sum(t.loop_ns for t in traced)
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls_per_op"] = sum(t.tracer.calls[name] for t in head) / ops
        values[f"{name}.self_share"] = sum(t.tracer.self_ns[name] for t in traced) / wall
    values["trace.harness_share"] = sum(t.loop_ns - t.library_ns for t in traced) / wall
    values["trace.bookkeeping_share"] = sum(t.tracer.bookkeeping_ns for t in traced) / wall
    values["trace.unaccounted_share"] = sum(
        t.library_ns - t.tracer.top_ns - t.tracer.bookkeeping_ns for t in traced) / wall
    values["trace.overhead_ratio"] = statistics.median(
        t.loop_ns / u.loop_ns for u, t in rounds)
    problems = []
    if abs(values["trace.unaccounted_share"]) > UNACCOUNTED_LIMIT:
        problems.append(f"trace accounting does not close: "
                        f"{values['trace.unaccounted_share']:.4f} of the traced loop "
                        f"lies in calls into the library but in no span")
    samples = {name: len(traced) for name in values}
    return values, samples, problems


def load_baseline(workload: str, seed: int) -> Optional[dict]:
    try:
        data = json.loads(BASELINE.read_text())
    except FileNotFoundError:
        return None
    return data.get("exact", {}).get(workload, {}).get(str(seed))


def git_sha() -> Optional[str]:
    """The checked-out commit (None outside a clone)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Hash of the library's sources, which identifies the code measured
    also where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "uqtrees").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_sha256(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    try:
        rounds = run_rounds(w, args.seed, args.seconds, bool(args.trace))
    except TraceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    passes = [u for u, _ in rounds]
    raw = None
    problems = []
    if len({p.exact["init_visits"] for p in passes}) != 1:
        problems.append("init_visits differ between builds of one tensor")
    exact = exact_counts(passes)
    if args.trace:
        traced = [t for _, t in rounds]
        if exact_counts(traced) != exact:
            problems.append("traced and untraced passes counted different visits")
        values, samples, trace_problems = per_layer(rounds)
        problems += trace_problems
        exact.update((k, v) for k, v in values.items() if k.endswith(".calls_per_op"))
        values.update((k, v) for k, v in exact.items() if k.startswith("counters."))
        units = PER_LAYER_UNITS
        samples.update((k, MIN_ROUNDS) for k in exact)
        passes = passes + traced
    else:
        values, samples, raw = end_to_end(w, args.seed, rounds)
        units = END_TO_END_UNITS
        missing = [k for k, v in values.items() if v is None]
        if missing:
            problems.append(f"too few samples for {', '.join(missing)}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    recorded = load_baseline(w.name, args.seed)
    if recorded is None:
        vs_baseline = "not recorded"
    else:
        changed = sorted(k for k in exact.keys() & recorded.keys() if exact[k] != recorded[k])
        vs_baseline = f"changed: {', '.join(changed)}" if changed else "same"
    correct = failed == 0 and not problems
    print(json.dumps({
        "provenance": provenance(args),
        "rounds": len(rounds),
        "samples": samples,
        "failed_op_share": failed / attempted,
        "first_error": next((p.first_error for p in passes if p.first_error), None),
        "problems": problems,
        "exact": exact,
        "exact_vs_baseline": vs_baseline,
        "reference_scales": [round(p.scale, 4) for p in passes if p.reference_samples],
        "unscaled": raw,
    }, sort_keys=True))
    if all(v is not None for v in values.values()):
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
