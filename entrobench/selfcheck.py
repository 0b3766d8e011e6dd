"""Determinism self-check for the entrolab benchmark.

Runs each workload three times in traced mode, one batch each: twice
with one seed and once with a held-out seed. The two runs of one seed
must report identical exact counts; the held-out seed must give inputs
of the same size class (the batch signature). It also reports whether
the known infinite-edge defect (NOTES.md), which the generated networks
avoid, is still present. Run from the root of a checkout:

    python3 entrobench/selfcheck.py --seed 11 --held-out 12
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".entrobench"
SRC = BENCH.parent / "src"
WORKLOADS = ("bound-large", "bound-small", "bound-cold", "recover")


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "1"]
    subprocess.run(cmd, capture_output=True, timeout=600, check=True)
    with open(OUT / f"trace-{workload}-{seed}.json") as fh:
        trace = json.load(fh)
    return {"counts": trace["counts"], "signature": trace["signature"]}


def relay_defect_present() -> bool:
    """A source relayed to its only sink over an infinite-capacity edge:
    trivially achievable, but the LP reports NotAchievable while the
    defect is present."""
    sys.path.insert(0, str(SRC))
    from entrolab import INF, rational, uniform_bits
    from entrolab.network import (
        CapacityTuple, Edge, NetworkProblem, NotAchievable, Source, SourceModel, check_lp_bound,
    )

    y1 = uniform_bits(["b0", "b1"]).extend("Y1", lambda o: o[0] + o[1]).restrict(["Y1"])
    p = NetworkProblem(
        (1, 2, 3),
        (Edge("e1", 1, 2, rational(1)), Edge("r1", 1, 3, INF)),
        (Source("Y1", 1, (3,)),),
        SourceModel(distribution=y1),
    )
    return isinstance(check_lp_bound(p, CapacityTuple({"e1": 2})), NotAchievable)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--held-out", type=int, default=12)
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        first = traced_run(workload, args.seed)
        again = traced_run(workload, args.seed)
        other = traced_run(workload, args.held_out)
        same_counts = first["counts"] == again["counts"]
        same_class = first["signature"] == again["signature"] == other["signature"]
        ok = ok and same_counts and same_class
        print(f"{workload}: counts repeat: {same_counts}; held-out size class matches: "
              f"{same_class}; counts {json.dumps(first['counts'], sort_keys=True)}")
    print(f"known defect, infinite-edge relay rejected: {relay_defect_present()}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
