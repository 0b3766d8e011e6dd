"""Print one sha256 per bound workload over every LP verdict a benchmark run returns,
one over every delta* row the runs build and one over every recovery.

Run from anywhere:

    python3 scripts/verdict_digest.py --seeds 1 2 3 [--checkout DIR]

For each workload (``bound-large``, ``bound-small``, ``bound-cold``,
``recover``) and seed this performs what ``entrobench/run.py --seconds
20`` performs in a checkout (by default the one holding this script): the
warm-up and every batch, with the checkout's own ``entrobench`` code and
package source.
Each ``solve_feasibility`` call, warm or cold, is observed from outside
through the benchmark's tracer, and its verdict is put in a canonical
form: the type name, the witness values sorted by mask and the
certificate items sorted by constraint index, each value written as "a"
or "a/b". A workload's digest covers its seeds in the order given, so two
checkouts that print the same digests returned the same exact verdicts.
The ``delta`` line is one digest over every row that
``pairwise_aux_for_network(..., "delta")`` returns in the ``bound-small``
and then the ``bound-cold`` runs, each row with its bound d written as
"a/b", so a changed d shows even where no certificate uses its row.
The ``recover`` line is one digest over every ``recover_distribution``,
``verify_properties`` and ``recover_multivar`` call of the ``recover``
runs, warm-up included: the probabilities and the multivar pmf with each
float as ``float.hex``, the provenance, the property reports, and for a
call that raises (a refusal) the exception's type, step and message.
Run the script once per checkout; each run imports one checkout only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("bound-large", "bound-small", "bound-cold", "recover")
DELTA_WORKLOADS = ("bound-small", "bound-cold")
RUN_SECONDS = 20.0  # the benchmark's run length, which fixes the number of batches


def canonical(verdict) -> str:
    """Type, sorted witness values and sorted certificate items."""
    parts: list = [type(verdict).__name__]
    witness = getattr(verdict, "witness", None)
    if witness is not None:
        parts.append(sorted((m, str(v)) for m, v in witness.values.items()))
    certificate = getattr(verdict, "certificate", None)
    if certificate is not None:
        parts.append(sorted((i, str(v)) for i, v in certificate.items()))
    return repr(parts)


def canonical_recovery(out) -> str:
    """Type and fields, each float as ``float.hex`` and mappings sorted."""

    def form(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, dict):
            return sorted((form(k), form(x)) for k, x in v.items())
        if isinstance(v, (tuple, list)):
            return [form(x) for x in v]
        return v

    fields = [form(getattr(out, f.name)) for f in dataclasses.fields(out)]
    return repr([type(out).__name__] + fields)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--checkout", type=Path, default=HERE,
                    help="checkout whose entrobench/ and src/ are run")
    args = ap.parse_args(argv)

    bench = args.checkout.resolve() / "entrobench"
    sys.path.insert(0, str(bench))
    import run  # the checkout's entrobench/run.py: its package loader and batch seeds

    wl = run.load_package()
    from entrolab.auxiliary import pairwise_aux_for_network
    from entrolab.lp import solve_feasibility
    from entrolab.recovery import recover_distribution, recover_multivar, verify_properties

    recoveries = (recover_distribution, verify_properties, recover_multivar)

    class Recorder(wl.Tracer):
        """The benchmark's tracer, off, keeping each verdict's canonical
        form, each delta* row and each recovery."""

        def __init__(self):
            super().__init__(enabled=False)
            self.verdicts: list[str] = []
            self.delta_rows: list[str] = []
            self.recoveries: list[str] = []

        def call(self, name, fn, *a, **kw):
            try:
                out = super().call(name, fn, *a, **kw)
            except Exception as exc:
                if fn in recoveries:
                    self.recoveries.append(repr(
                        (name, type(exc).__name__, getattr(exc, "step", None), str(exc))))
                raise
            if fn in recoveries:
                self.recoveries.append(repr((name, canonical_recovery(out))))
            elif fn is solve_feasibility:
                self.verdicts.append(canonical(out))
            elif fn is pairwise_aux_for_network and a[1:2] == ("delta",):
                self.delta_rows += [repr((terms, rel, str(d))) for terms, rel, d in out[1]]
            return out

    delta = hashlib.sha256()
    delta_count = 0

    for workload in WORKLOADS:
        make, run_batch = wl.WORKLOADS[workload]
        digest = hashlib.sha256()
        count = failed = 0
        for seed in args.seeds:
            tr = Recorder()
            ledger = wl.Ledger(tr)
            batch = make(run.batch_rng(workload, seed, 0))
            warmup = wl.make_warmup(run.batch_rng(workload, seed, "warmup"))
            wl.run_warmup(tr, ledger, warmup)
            for index in range(max(1, round(RUN_SECONDS / wl.BATCH_SECONDS[workload]))):
                if index:
                    batch = make(run.batch_rng(workload, seed, index))
                run_batch(tr, ledger, batch)
            lines = tr.recoveries if workload == "recover" else tr.verdicts
            for line in lines:
                digest.update(line.encode() + b"\n")
            count += len(lines)
            failed += ledger.failed
            if workload in DELTA_WORKLOADS:
                for line in tr.delta_rows:
                    delta.update(line.encode() + b"\n")
                delta_count += len(tr.delta_rows)
        what = "recoveries" if workload == "recover" else "verdicts"
        print(f"{workload} {digest.hexdigest()} {what}={count} failed_ops={failed}")
    print(f"delta {delta.hexdigest()} rows={delta_count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
