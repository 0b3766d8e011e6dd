"""Command-line front end.

Exit codes: 0 = computed (the verdict, favorable or not, lives in the
report), 1 = input error, 2 = internal error. Reports are deterministic
for fixed inputs and seeds, except for the timing fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
import time

from . import __version__
from .core import DomainError, format_rational, load_distribution, load_json
from .lp import (
    Feasible,
    LinearSystem,
    solve_feasibility,
    verify_certificate,
)
from .auxiliary import (
    SubspaceModel,
    linear_basis_aux,
    pairwise_aux_for_network,
)
from .network import (
    CapacityTuple,
    aux_spec_to_json,
    build_lp_constraints,
    cutset_check,
    example1_aux,
    example1_problem,
    fd_bound,
    load_aux_spec,
    load_problem,
    save_aux_spec,
)
from .recovery import (
    RecoveryInput,
    build_indicator_family,
    check_permutation_equivalence,
    recover_distribution,
    verify_properties,
)


def _read(args, path: str, load):
    """``load(path)``, recording the file's sha256 in the report's inputs."""
    data = load(path)
    with open(path, "rb") as fh:
        args.digests[path] = hashlib.sha256(fh.read()).hexdigest()
    return data


def _fields(data, kind: str, *names) -> list:
    """The values of ``names`` in an input file's JSON object, in order."""
    try:
        return [data[name] for name in names]
    except KeyError as exc:
        raise DomainError(f"{kind} file missing field {exc}") from None


def _witness_json(witness) -> dict:
    g = witness.ground
    return {
        ",".join(g.subset_names(mask)): format_rational(witness.value(mask))
        for mask in g.subsets()
    }


def _certificate_json(cert, system: LinearSystem) -> list:
    return [
        {
            "constraint": system.constraints[i].render(system.ground),
            "index": i,
            "multiplier": format_rational(mult),
        }
        for i, mult in sorted(cert.items())
    ]


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, default=str))
        return
    print(f"status: {report['status']}")
    for key, value in report.items():
        if key in ("status", "command", "version", "inputs", "timing"):
            continue
        if isinstance(value, (list, dict)):
            print(f"{key}:")
            text = json.dumps(value, indent=2, default=str)
            print("\n".join("  " + line for line in text.splitlines()))
        else:
            print(f"{key}: {value}")


def _base_report(args, status: str, **payload) -> dict:
    report = {
        "command": args.command_echo,
        "version": __version__,
        "status": status,
        "inputs": getattr(args, "digests", {}),
    }
    report.update(payload)
    report["timing"] = {"seconds": round(time.time() - args.t0, 3)}
    return report


def _load_problem_arg(args):
    if getattr(args, "problem", None):
        return _read(args, args.problem, load_problem)
    return example1_problem()


def _capacities_arg(args, p):
    if getattr(args, "capacities", None):
        return CapacityTuple.parse(args.capacities, p)
    return None


def _aux_arg(args, p):
    """The aux spec a check/improve/example1 report solves with, or None."""
    if args.bound_command == "example1":
        if args.improved == "gk":
            return example1_aux()
        if args.improved:
            raise DomainError(f"unknown improvement mode {args.improved!r}")
        return None
    if args.bound_command == "check":
        return None
    if getattr(args, "aux", None):
        return _read(args, args.aux, load_aux_spec)
    aux, _ = pairwise_aux_for_network(p, "gk")
    return aux


def _lp_report(args, sys_) -> dict:
    res = solve_feasibility(sys_)
    if isinstance(res, Feasible):
        status = "Feasible (tuple may be achievable)"
        payload = {"witness": _witness_json(res.witness)}
    else:
        status = "Infeasible (tuple is not achievable)"
        payload = {"certificate": _certificate_json(res.certificate, sys_)}
    payload["verified"] = verify_certificate(sys_, res)
    if args.trace:
        payload["trace"] = dataclasses.asdict(res.trace)
    return _base_report(args, status, **payload)


def _run_bound(args) -> dict:
    p = _load_problem_arg(args)
    C = _capacities_arg(args, p)
    if args.bound_command in ("check", "improve", "example1"):
        return _lp_report(args, build_lp_constraints(p, C, aux=_aux_arg(args, p)))
    res = cutset_check(p, C) if args.bound_command == "cutset" else fd_bound(p, C)
    fields = dataclasses.asdict(res)
    fields = {k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()}
    return _base_report(args, type(res).__name__, **fields)


def _run_aux(args) -> dict:
    extra = {}
    if args.aux_command == "linear":
        data = _read(args, args.model, load_json)
        model = SubspaceModel(*_fields(data, "model", "q", "m", "generators"))
        spec, rows = linear_basis_aux(model)
        extra["rows"] = len(rows)
    elif args.aux_command == "gk":
        spec, _ = pairwise_aux_for_network(_load_problem_arg(args), "gk")
    else:
        spec, _ = pairwise_aux_for_network(
            _load_problem_arg(args),
            "delta",
            seed=args.seed,
            resolution=args.resolution,
            restarts=args.restarts,
        )
    if args.out:
        save_aux_spec(spec, args.out)
    return _base_report(args, "computed", aux=aux_spec_to_json(spec), **extra, out=args.out)


def _run_recover(args) -> dict:
    if args.self_test:
        if args.seed is None:
            raise DomainError("--seed is required for --self-test")
        rng = random.Random(args.seed)
        failures = []
        for t in range(args.trials):
            raw = sorted((rng.random() for _ in range(args.n)), reverse=True)
            total = sum(raw)
            p = [v / total for v in raw]
            family = build_indicator_family(p)
            rec = recover_distribution(RecoveryInput.from_family(family, shuffle_seed=t))
            if not check_permutation_equivalence(rec.probabilities, p):
                failures.append({"trial": t, "expected": p, "got": list(rec.probabilities)})
        status = "all trials passed" if not failures else "failures"
        return _base_report(
            args, status, trials=args.trials, n=args.n, failures=failures
        )
    if args.distribution:
        family = build_indicator_family(_read(args, args.distribution, load_distribution))
        inp = RecoveryInput.from_family(family, shuffle_seed=args.shuffle_seed)
    elif args.entropies:
        data = _read(args, args.entropies, load_json)
        if args.n is None:
            raise DomainError("--n is required with --entropies")
        members, entropies = _fields(data, "entropies", "members", "entropies")
        inp = RecoveryInput.from_table(
            args.n, tuple(members), {k: float(v) for k, v in entropies.items()}
        )
    else:
        raise DomainError("one of --self-test, --distribution, --entropies is required")
    rec = recover_distribution(inp)
    return _base_report(
        args,
        "recovered",
        probabilities=list(rec.probabilities),
        provenance=dict(rec.provenance),
    )


def _run_verify_properties(args) -> dict:
    report = verify_properties(_read(args, args.distribution, load_distribution))
    return _base_report(
        args,
        "ok" if report.ok else "violations",
        violations=list(report.violations),
        ties=list(report.ties),
    )


def _run_dump_lp(args) -> dict:
    p = _load_problem_arg(args)
    C = _capacities_arg(args, p)
    aux = _read(args, args.aux, load_aux_spec) if args.aux else None
    sys_ = build_lp_constraints(p, C, aux=aux)
    return _base_report(
        args,
        "dumped",
        variables=list(sys_.ground.names),
        rows=len(sys_.constraints),
        system=sys_.render().splitlines(),
    )


TRACE_HELP = "report how the LP verdict was reached: path, misses, sizes, stage times"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrolab",
        description="entropy-vector LP bounds for networks with correlated sources",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="capacity-tuple outer bounds")
    bsub = bound.add_subparsers(dest="bound_command", required=True)
    for name in ("check", "improve", "cutset", "fd"):
        bp = bsub.add_parser(name)
        bp.add_argument("--problem", help="problem JSON (default: bundled example)")
        bp.add_argument("--capacities", help="e1=1,e2=1/2 or positional 1,1/2,...")
        if name == "improve":
            bp.add_argument("--aux", help="aux-spec JSON (default: pairwise gk)")
        if name in ("check", "improve"):
            bp.add_argument("--trace", action="store_true", help=TRACE_HELP)
        bp.set_defaults(run=_run_bound)

    aux = sub.add_parser("aux", help="construct auxiliary variables")
    asub = aux.add_subparsers(dest="aux_command", required=True)
    gk = asub.add_parser("gk")
    gk.add_argument("--problem")
    gk.add_argument("--out")
    gk.set_defaults(run=_run_aux)
    delta = asub.add_parser("delta")
    delta.add_argument("--problem")
    delta.add_argument("--out")
    delta.add_argument("--seed", type=int, required=True)
    delta.add_argument("--resolution", type=int, default=8)
    delta.add_argument("--restarts", type=int, default=4)
    delta.set_defaults(run=_run_aux)
    linear = asub.add_parser("linear")
    linear.add_argument("--model", required=True, help='{"q":2,"m":3,"generators":{...}}')
    linear.add_argument("--out")
    linear.set_defaults(run=_run_aux)

    recover = sub.add_parser("recover", help="distribution from indicator entropies")
    recover.add_argument("--self-test", action="store_true")
    recover.add_argument("--n", type=int)
    recover.add_argument("--trials", type=int, default=100)
    recover.add_argument("--seed", type=int)
    recover.add_argument("--shuffle-seed", type=int)
    recover.add_argument("--distribution")
    recover.add_argument("--entropies")
    recover.set_defaults(run=_run_recover)

    vp = sub.add_parser("verify-properties", help="indicator-family structure checks")
    vp.add_argument("--distribution", required=True)
    vp.set_defaults(run=_run_verify_properties)

    dump = sub.add_parser("dump-lp", help="print the LP rows")
    dump.add_argument("--problem")
    dump.add_argument("--capacities")
    dump.add_argument("--aux")
    dump.set_defaults(run=_run_dump_lp)

    ex = sub.add_parser("example1", help="run the bundled instance")
    ex.add_argument("--capacities", default="1,1,1,1")
    ex.add_argument("--improved", nargs="?", const="gk", default=None)
    ex.add_argument("--trace", action="store_true", help=TRACE_HELP)
    ex.set_defaults(run=_run_bound, bound_command="example1")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    args.command_echo = " ".join(argv)
    args.t0 = time.time()
    args.digests = {}
    try:
        report = args.run(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
