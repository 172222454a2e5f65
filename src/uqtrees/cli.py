"""Command line front end.

Subcommands::

    uqtrees verify   --backend seg1d --pair plus-min --dims 16 --ops 1000 --seed 42
    uqtrees bench    --backend nd-special --pair plus-plus --dims 10x10,30x30 --format csv
    uqtrees matmul   A.txt B.txt --pair plus-min --backend grid2d-general --check
    uqtrees scaling  --backend seg1d --pair plus-plus --sizes 128,256

Exit codes: 0 = all gates passed, 1 = mismatch or gate failure, 2 = usage or
parse error (including invalid backend/pair/dims combinations).  Matrices
and tensors use the text format described in :mod:`uqtrees.dense`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .algebra import PAIR_NAMES
from .dense import DenseTensor, format_tensor, format_value, parse_tensor
from .matmul import (PRODUCT_PAIRS, product_via_backend, schoolbook,
                     seed_backend)
from .workloads import (BACKEND_IDS, BenchRow, WorkloadConfig, format_dims,
                        parse_dims, run_bench, run_scaling, run_verify)


def _add_workload_flags(p: argparse.ArgumentParser, dims_help: str) -> None:
    p.add_argument("--backend", required=True, choices=BACKEND_IDS)
    p.add_argument("--pair", required=True, choices=PAIR_NAMES)
    p.add_argument("--dims", required=True, help=dims_help)
    p.add_argument("--ops", type=int, default=10000)
    p.add_argument("--ratio", type=float, default=0.5,
                   help="fraction of actions that are updates (default 0.5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vmin", type=int, default=None, help="update value lower bound")
    p.add_argument("--vmax", type=int, default=None, help="update value upper bound")


def _value_range(args) -> Optional[tuple]:
    if (args.vmin is None) != (args.vmax is None):
        raise ValueError("give both --vmin and --vmax or neither")
    if args.vmin is None:
        return None
    return (args.vmin, args.vmax)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uqtrees", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="replay a seeded workload against the dense oracle")
    _add_workload_flags(p, "extents, e.g. 64 or 32x32 or 8x8x8")
    p.add_argument("--inject-fault", type=int, default=None, metavar="K",
                   help="drop the K-th update (0-based) on the backend (testing aid; "
                        "forces a mismatch); K must be below the run's update count")

    p = sub.add_parser("bench", help="measure visit counts over a seeded workload")
    _add_workload_flags(p, "comma-separated extents to sweep, e.g. 10x10,30x30,100x100")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("matmul", help="matrix product through a 2D update/query backend")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--pair", required=True, choices=tuple(PRODUCT_PAIRS),
                   help="operator pair (plus-min = min-plus product, "
                        "plus-max = max-plus, times-plus = standard)")
    p.add_argument("--backend", default="grid2d-general", choices=("oracle", "grid2d-general"))
    p.add_argument("--check", action="store_true",
                   help="also run the schoolbook product and report the cells that differ")
    p.add_argument("--out", default=None)

    p = sub.add_parser("scaling", help="visit growth across sizes vs the declared envelope")
    p.add_argument("--backend", required=True, choices=BACKEND_IDS)
    p.add_argument("--pair", required=True, choices=PAIR_NAMES)
    p.add_argument("--sizes", required=True, help="comma-separated increasing sizes, e.g. 128,256")
    p.add_argument("--ops", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    cfg = WorkloadConfig(args.backend, args.pair, parse_dims(args.dims),
                         ops=args.ops, update_ratio=args.ratio, seed=args.seed,
                         value_range=_value_range(args))
    report = run_verify(cfg, inject_fault=args.inject_fault)
    print(f"backend={cfg.backend} pair={cfg.pair} dims={format_dims(cfg.dims)} "
          f"ops={cfg.ops} seed={cfg.seed} updates={report.updates} queries={report.queries}")
    print(f"mismatches={report.mismatches}")
    if report.first_mismatch:
        print(f"first mismatch: {report.first_mismatch}")
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    dims_list = [parse_dims(d) for d in args.dims.split(",") if d]
    if not dims_list:
        raise ValueError(f"--dims {args.dims!r} names no extents")
    rows: List[BenchRow] = []
    for dims in dims_list:
        cfg = WorkloadConfig(args.backend, args.pair, dims, ops=args.ops,
                             update_ratio=args.ratio, seed=args.seed,
                             value_range=_value_range(args))
        rows.append(run_bench(cfg))
    if args.format == "csv":
        lines = [",".join(BenchRow.CSV_FIELDS)]
        lines += [",".join(r.csv_values()) for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "config": {
                "backend": args.backend,
                "pair": args.pair,
                "ops": args.ops,
                "update_ratio": args.ratio,
                "seed": args.seed,
            },
            "rows": [r.as_dict() for r in rows],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_matmul(args) -> int:
    domain = PRODUCT_PAIRS[args.pair]
    mats = []
    for path in (args.file_a, args.file_b):
        with open(path) as fh:
            t = parse_tensor(fh.read(), domain.pair)
        if len(t.dims) != 2 or t.dims[0] != t.dims[1]:
            raise ValueError(f"{path}: need a square 2D matrix, got extents {t.dims}")
        n, m = t.dims
        mats.append([t.data[i * m:(i + 1) * m] for i in range(n)])
    a, b = mats
    backend = seed_backend(args.backend, a, domain)
    c = product_via_backend(a, b, domain, backend)
    n = len(c)
    out = DenseTensor((n, n), [v for row in c for v in row], domain.pair)
    _emit(format_tensor(out), args.out)
    if args.check:
        # compare with ==: equal infinities are equal, but their difference
        # is nan
        want = schoolbook(a, b, domain)
        bad = [(i, j) for i in range(n) for j in range(n) if c[i][j] != want[i][j]]
        if not bad:
            print(f"max deviation vs schoolbook: 0 (all {n * n} cells equal)",
                  file=sys.stderr)
            return 0
        print(f"{len(bad)} of {n * n} cells differ from schoolbook:", file=sys.stderr)
        for i, j in bad:
            print(f"  C[{i}][{j}] = {format_value(c[i][j])}, "
                  f"schoolbook {format_value(want[i][j])}", file=sys.stderr)
        return 1
    return 0


def _cmd_scaling(args) -> int:
    sizes = [int(t) for t in args.sizes.split(",") if t]
    report = run_scaling(args.backend, args.pair, sizes, ops=args.ops, seed=args.seed)
    for n, mv in zip(report.sizes, report.mean_visits):
        print(f"size={n} mean_visits_per_op={mv:.3f}")
    for step in report.steps:
        lo, hi = step.envelope
        verdict = "PASS" if step.ok else "FAIL"
        print(f"{step.size_from}->{step.size_to} ratio={step.ratio:.3f} "
              f"envelope=[{lo}, {hi}] {verdict}")
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "bench": _cmd_bench,
        "matmul": _cmd_matmul,
        "scaling": _cmd_scaling,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
