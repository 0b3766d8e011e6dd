"""entrolab benchmark: one workload, one process, one thread.

Run from the root of a checkout:

    python3 entrobench/run.py --workload bound-small --seed 1 --seconds 20 --trace 0

The run builds every input from ``--seed``, measures set-up (imports,
including the lazy ``scipy.optimize`` import, plus input generation) in
this process and in two fresh child processes, performs one warm-up
operation, then runs a fixed number of fixed-composition batches, as many
as typically take ``--seconds`` (``workloads.BATCH_SECONDS``), so the work
of a run depends only on the workload, the seed and ``--seconds``. Every
operation's output is checked. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every call into the package is wrapped in a span and the metrics are the
per-layer ones, and the spans are written to ``.entrobench/`` in the
checkout. NOTES.md explains the workloads.
"""

from time import perf_counter

T0 = perf_counter()

import os  # noqa: E402

# one thread: cap BLAS / OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".entrobench"
SETUP_CHILDREN = 2

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_TIMES = (
    "lp.solve_s",
    "lp.solve_feasible_s",
    "lp.solve_infeasible_s",
    "lp.cold_solve_s",
    "lp.verify_s",
    "network.build_s",
    "network.bounds_s",
    "auxiliary.gk_s",
    "auxiliary.delta_s",
    "recovery.recover_s",
    "recovery.oracle_s",
    "recovery.properties_s",
    "recovery.multivar_s",
)
LAYER_COUNTS = (
    "lp.rows",
    "lp.cols",
    "lp.nnz",
    "lp.feasible",
    "lp.infeasible",
    "lp.cert_support",
    "recovery.oracle_calls",
)


def load_package():
    """Import the package from this checkout's ``src``, nowhere else."""
    if not (SRC / "entrolab" / "__init__.py").is_file():
        raise SystemExit(f"entrobench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import entrolab

    if Path(entrolab.__file__).resolve().parent != SRC / "entrolab":
        raise SystemExit(f"entrobench: imported entrolab from {entrolab.__file__}")
    import scipy.optimize  # noqa: F401  (the package imports it lazily)

    import workloads

    return workloads


def batch_rng(workload: str, seed: int, batch) -> random.Random:
    return random.Random(f"{workload}/{seed}/{batch}")


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(tr, ledger, round_times, counts, op_latencies):
    busy = {}
    for name, start, end, _op, kind in tr.spans:
        busy[name] = busy.get(name, 0.0) + end - start
        if name == "lp.solve":
            key = "lp.solve_feasible" if kind == "Feasible" else "lp.solve_infeasible"
            busy[key] = busy.get(key, 0.0) + end - start
    # recovery and multivar self time excludes the oracle queries they make
    busy["recovery.recover"] = busy.get("recovery.recover", 0.0) - tr.oracle_s["recover"]
    busy["recovery.multivar"] = busy.get("recovery.multivar", 0.0) - tr.oracle_s["multivar"]
    busy["recovery.oracle"] = sum(tr.oracle_s.values())
    out = {name: {"value": busy.get(name[:-2], 0.0), "unit": "s"} for name in LAYER_TIMES}
    for name in LAYER_COUNTS:
        out[name] = {"value": counts.get(name, 0), "unit": "count"}
    if len(op_latencies) > 1:
        deciles = statistics.quantiles(op_latencies, n=10, method="inclusive")
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = op_latencies[0]
    out["ops.p50_s"] = {"value": p50, "unit": "s"}
    out["ops.p90_s"] = {"value": p90, "unit": "s"}
    out["trace.wall_s"] = {"value": sum(round_times), "unit": "s"}
    out["fail_frac"] = {"value": ledger.failed / ledger.attempted, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl = load_package()
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"entrobench: unknown workload {args.workload!r}")
    make, run = wl.WORKLOADS[args.workload]
    batch = make(batch_rng(args.workload, args.seed, 0))
    warmup = wl.make_warmup(batch_rng(args.workload, args.seed, "warmup"))
    own_setup = perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setups = [own_setup] + [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]

    tr = wl.Tracer(enabled=bool(args.trace))
    ledger = wl.Ledger(tr)
    wl.run_warmup(tr, ledger, warmup)
    first_op = len(ledger.latencies)

    rounds = max(1, round(args.seconds / wl.BATCH_SECONDS[args.workload]))
    round_times = []
    for index in range(rounds):
        if index:
            batch = make(batch_rng(args.workload, args.seed, index))
        start = perf_counter()
        run(tr, ledger, batch)
        round_times.append(perf_counter() - start)
        if index == 0:
            counts = dict(tr.counts)  # exact counts: warm-up plus the first batch
            signature = batch.signature()

    print(
        f"entrobench {args.workload} seed={args.seed}: {rounds} batches, "
        f"{ledger.attempted} ops, {ledger.failed} failed, {ledger.wrong} wrong; batch seconds "
        + " ".join(f"{t:.3f}" for t in round_times),
        file=sys.stderr,
    )
    for cause, n in sorted(ledger.causes.items()):
        print(f"  {n} x {cause}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tr, ledger, round_times, counts,
                                ledger.latencies[first_op:])
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "signature": signature,
                "counts": counts,
                "batch_seconds": round_times,
                "causes": dict(ledger.causes),
                "spans": tr.spans,
            }, fh)
    else:
        values = {
            "wall_s": sum(round_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
