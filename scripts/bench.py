"""Run the entrobench workloads for a set of seeds and keep every result.

Run from anywhere:

    python3 scripts/bench.py --label head --seeds 1 2 3
    python3 scripts/bench.py --label pairs --seeds 11 12 13 --against PARENT_DIR

For each workload and seed this runs ``entrobench/run.py --trace 0`` of a
checkout (by default the one holding this script) in a fresh process, one
at a time, and writes ``BENCH_<label>.json`` to the current directory: each
checkout's commit, the machine (cores, Python), and each run's result line
as entrobench printed it with its elapsed seconds (``run_s``), plus the
per-workload medians of its metrics. A run that has not finished after
``RUN_TIMEOUT_S`` seconds is stopped and recorded as an error; each
workload's medians carry the count of such runs as ``errors``.

With ``--against DIR`` every workload and seed is a pair: the checkout in
DIR (the parent) and this one (the change) each run once, and which side
runs first flips from one seed to the next, so each workload alternates
its order. Without it only the change side runs. Every side is kept in
the file (``pairs``, and ``medians`` per side). For each workload and each
end-to-end metric of the checkout's ``BENCHMARK.json`` (read, never
written) the script prints each side's median and quartiles, the change
against the parent median, and the pairs the change won out of those
that finished, ties counting for neither; it prints "unresolved" when
the parent's interquartile range exceeds the metric's bound, a fraction
of the parent's median.
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


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(pairs: list, metrics: list) -> list:
    """One printed line per workload and end-to-end metric of the pairs
    (see the module docstring)."""
    lines = []
    for workload in WORKLOADS:
        done = [p for p in pairs if p["workload"] == workload
                and "result" in p["parent"] and "result" in p["change"]]
        if not done:
            continue
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            sides = {side: [p[side]["result"]["metrics"][name]["value"] for p in done]
                     for side in ("parent", "change")}
            wins = sum((c < a) if lower else (c > a)
                       for a, c in zip(sides["parent"], sides["change"]))
            (p1, pm, p3), (c1, cm, c3) = (quartiles(sides[s]) for s in ("parent", "change"))
            change = (cm - pm) / pm if pm else float("nan")
            spread = (p3 - p1) / pm if pm else float("nan")
            verdict = "unresolved" if spread > metric["bound"] else ""
            lines.append(
                f"{workload:11s} {name:11s} parent {pm:.3f} [{p1:.3f}, {p3:.3f}]  "
                f"change {cm:.3f} [{c1:.3f}, {c3:.3f}]  {change:+.1%}  "
                f"wins {wins}/{len(done)}  parent IQR {spread:.1%} of median "
                f"(bound {metric['bound']:.0%}) {verdict}".rstrip())
    return lines


def run_pairs(sides: dict, seeds: list) -> list:
    """For each seed and workload, one pair holding a run of each side
    (name -> checkout). The order of the sides flips from one seed to the
    next, so within each workload the side that runs first alternates."""
    names = list(sides)
    pairs = []
    for i, seed in enumerate(seeds):
        order = names if i % 2 == 0 else names[::-1]
        for workload in WORKLOADS:
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_one(sides[side], workload, seed)
            pairs.append(pair)
            shown = {side: pair[side].get("result", {}).get("metrics", {})
                     .get("wall_s", {}).get("value") for side in order}
            print(f"{workload} seed={seed}: wall_s {shown}", file=sys.stderr)
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--checkout", type=Path, default=HERE,
                    help="checkout whose entrobench/run.py and src/ are run")
    ap.add_argument("--against", type=Path,
                    help="parent checkout: run pairs, alternating which side goes first")
    args = ap.parse_args(argv)

    checkout = args.checkout.resolve()
    sides = {"change": checkout}
    if args.against is not None:
        sides = {"parent": args.against.resolve(), **sides}
    pairs = run_pairs(sides, args.seeds)
    report = {
        "label": args.label,
        "commits": {side: git_commit(path) for side, path in sides.items()},
        "machine": {"cores": os.cpu_count(), "python": platform.python_version()},
        "medians": {side: medians([p[side] for p in pairs]) for side in sides},
        "pairs": pairs,
    }
    if "parent" in sides:
        metrics = json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]
        print("\n".join(compare(pairs, metrics)))
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all("result" in p[side] for p in pairs for side in sides) else 1


if __name__ == "__main__":
    sys.exit(main())
