#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --workloads nd3-mixed grid2d-mixed \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20 --trace 0 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one at a time.  For each
end-to-end or per-layer metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread as
a share of the median.  The exact counts of every run go under
``exact[workload][seed]``.  A count already recorded in ``--out`` is never
overwritten: one that differs is reported and makes the exit code 1, so
collecting twice into one file shows whether the counts repeat bit for bit,
and ``baseline.json`` keeps the counts of the commit that recorded them.  To
record new counts on purpose, collect into a fresh file.

    python3 perfbench/collect.py --compare FIRST.json SECOND.json

sets the end-to-end medians of two collected files against each other: for
each workload and metric, how much worse the second median is than the
first, both quartile spreads, and the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "n": len(values)}


def compare(first: Path, second: Path) -> int:
    """Set against each other the end-to-end medians of two collected sets,
    the way the bounds in BENCHMARK.json are applied; exit code 1 when the
    second is worse than the first by more than a bound."""
    spec = {m["name"]: m for m in json.loads(SPEC.read_text())["end_to_end"]}
    a, b = (json.loads(p.read_text())["trace0"] for p in (first, second))
    worse = 0
    for workload in sorted(a.keys() & b.keys()):
        for name, m in spec.items():
            sa, sb = a[workload]["metrics"][name], b[workload]["metrics"][name]
            change = sb["median"] / sa["median"] - 1
            if m["better"] == "higher":
                change = -change
            if change > m["bound"]:
                verdict = "WORSE"
                worse += 1
            elif max(sa["spread"], sb["spread"]) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:16} {name:16} {sa['median']:12.6g} {sb['median']:12.6g} "
                  f"worse by {change:+.4f} (bound {m['bound']})  spreads "
                  f"{sa['spread']:.4f} {sb['spread']:.4f}  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--compare", nargs=2, type=Path, metavar="FILE",
                    help="compare two collected files instead of running")
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", nargs="+", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if None in (args.workloads, args.seeds, args.seconds, args.out):
        ap.error("--workloads, --seeds, --seconds and --out are required to collect")

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    exact = out.setdefault("exact", {})
    summary = out.setdefault("trace1" if args.trace else "trace0", {})
    changed = []
    for workload in args.workloads:
        values: dict = {}
        for seed in args.seeds:
            info, result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect: {info['problems']}")
            recorded = exact.setdefault(workload, {}).setdefault(str(seed), {})
            for key, value in info["exact"].items():
                if key not in recorded:
                    recorded[key] = value
                elif recorded[key] != value:
                    changed.append(f"{workload} seed {seed} {key}: {recorded[key]} -> {value}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                if not k.endswith(".calls_per_op")), file=sys.stderr, flush=True)
        summary[workload] = {"seconds": args.seconds, "seeds": args.seeds,
                             "provenance": info["provenance"],
                             "metrics": {k: spread(v) for k, v in values.items()}}
        for name, s in summary[workload]["metrics"].items():
            print(f"{workload:16} {name:34} median {s['median']:.6g}  "
                  f"spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}")
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for line in changed:
        print(f"exact count changed: {line}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
