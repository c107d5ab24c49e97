"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workload sbm-large-f32 --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

For every workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4), the sample count and the spread (q3 - q1) /
median next to the metric's bound from BENCHMARK.json.  A spread below a
third of the bound is steady; setup_s is exempt from the spread rule.
Runs are made one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """The result line of one benchmark run, and its `# env` report line."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    env = next((line[len("# env "):] for line in lines if line.startswith("# env ")), "")
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
        "values": values,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seeds = parse_seeds(args.seeds)

    summary: dict = {}
    steady = True
    for name in names:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in seeds:
            t0 = time.perf_counter()
            res, env = one_run(name, seed, seconds, args.trace)
            failed += res["failed"]
            for metric, rec in res["metrics"].items():
                values.setdefault(metric, []).append(rec["value"])
            print(f"{name} seed={seed} wall={time.perf_counter() - t0:.1f}s", file=sys.stderr)
        rows = {metric: summarize(v) for metric, v in values.items()}
        summary[name] = {
            "seeds": args.seeds,
            "run_seconds": seconds,
            "trace": args.trace,
            "env": env,
            "failed": failed,
            "metrics": rows,
        }
        print(f"\n{name}  seeds {args.seeds}  failed ops {failed}")
        print(f"{'metric':<44}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}{'spread':>9}{'bound':>7}")
        for metric, row in rows.items():
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                ok = row["spread"] < bound / 3
                steady = steady and ok
                flag = "" if ok else "  WIDE"
            print(
                f"{metric:<44}{row['median']:>12.6g}{row['q1']:>12.6g}{row['q3']:>12.6g}"
                f"{row['n']:>4}{row['spread']:>9.4f}{bound if bound is not None else '':>7}{flag}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
