"""Run the entrobench workloads for a set of seeds and keep every result.

Run from anywhere:

    python3 scripts/bench.py --label head --seeds 1 2 3

For each workload and seed this runs ``entrobench/run.py --trace 0`` of a
checkout (by default the one holding this script) in a fresh process, one
at a time, and writes ``BENCH_<label>.json`` to the current directory: the
checkout's commit, the machine (cores, Python), and each run's result line
as entrobench printed it with its elapsed seconds (``run_s``), plus the
per-workload medians of its metrics. A run that has not finished after
``RUN_TIMEOUT_S`` seconds is stopped and recorded as an error; each
workload's medians carry the count of such runs as ``errors``.
Compare two labels by running the script once per checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("bound-large", "bound-small", "bound-cold", "recover")
HERE = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600  # a run still going after this long is recorded as an error


def git_commit(checkout: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_one(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(checkout / "entrobench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        done = None
    run = {"workload": workload, "seed": seed, "run_s": time.perf_counter() - start}
    if done is None:
        run["error"] = f"stopped after {RUN_TIMEOUT_S} s"
        return run
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        run["error"] = done.stderr.strip()[-2000:]
    else:
        run["result"] = json.loads(lines[-1])
    return run


def medians(runs: list) -> dict:
    """Per workload: the medians of its metrics over the runs that
    finished, and ``errors``, the number of runs that did not."""
    out: dict = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        results = [r["result"] for r in mine if "result" in r]
        out[workload] = {"errors": len(mine) - len(results)}
        if not results:
            continue
        names = results[0]["metrics"]
        out[workload].update(
            (name, statistics.median(r["metrics"][name]["value"] for r in results))
            for name in names
        )
        out[workload]["fail_frac"] = statistics.median(
            r["failed"] / r["attempted"] for r in results)
        out[workload]["correct"] = all(r["correct"] for r in results)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--checkout", type=Path, default=HERE,
                    help="checkout whose entrobench/run.py and src/ are run")
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    runs = []
    for seed in args.seeds:
        for workload in WORKLOADS:
            run = run_one(checkout, workload, seed)
            runs.append(run)
            shown = run.get("result", {}).get("metrics", {}).get("wall_s", {}).get("value")
            print(f"{workload} seed={seed}: wall_s={shown}", file=sys.stderr)
    report = {
        "label": args.label,
        "commit": git_commit(checkout),
        "machine": {"cores": os.cpu_count(), "python": platform.python_version()},
        "medians": medians(runs),
        "runs": runs,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all("result" in r for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
