"""Benchmark of the taam reproduction: one workload per fresh process.

    python3 perfbench/run.py                        # every workload, seed 0, 40 s each
    python3 perfbench/run.py --workload sbm-small-f64 --seed 3 --seconds 40 --trace 0

Run it from the root of a source tree that holds src/taam; nothing needs
building.  Each workload runs in its own child process (worker.py) with
BLAS and OpenMP thread counts set to one, so its peak RSS is its own and
its timings do not depend on how much of a second CPU the host lends it.
The report lists every metric with its unit and sample count; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS thread: on a 2-CPU shared host, two threads spread the small eval
# op over 8.5 to 13.5 ms (10th to 90th percentile) instead of 11.7 to 13.9 ms,
# and make no run faster.
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(res: dict) -> None:
    env = " ".join(f"{k}={v}" for k, v in res["env"].items())
    print(f"# {res['workload']} seed={res['seed']} trace={res['trace']} rounds={res['rounds']}")
    print(f"# env {env}")
    for i, r in enumerate(res["round_times"], start=1):
        tag = "traced" if r["traced"] else "untraced"
        print(f"# round {i} ({tag}): setup_s={r['setup_s']:.4f} run_s={r['run_s']:.4f}")
    print(f"{'metric':<44}{'value':>16}  {'unit':<6}{'n':>6}")
    for name, value in res["metrics"].items():
        print(f"{name:<44}{value:>16.6g}  {res['units'][name]:<6}{res['samples'][name]:>6}")
    if res["split"]:
        print("# share of run_s inside each traced function (median of traced rounds)")
        for name, pct in res["split"].items():
            print(f"#   {name:<44}{pct:>8.2f} %")
    for err in res["errors"]:
        print(f"# FAILED: {err}")
    print(f"# ops attempted={res['attempted']} failed={res['failed']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "taam" / "__init__.py").is_file():
        print(f"no taam sources under {ROOT / 'src'}; run from a taam source tree", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        if res is None:
            status = 1
            continue
        report(res)
        metrics = {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()}
        out = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"]}
        print(json.dumps({**out, "metrics": metrics}))
    return status


if __name__ == "__main__":
    sys.exit(main())
