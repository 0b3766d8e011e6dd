"""The four workloads: their batches, their checked operations, and the
tracer that times each call into the package from outside it.

A batch is one fixed-composition set of inputs drawn from a
``random.Random``. Running a batch performs its operations one at a
time; each operation is one checked verdict or one checked recovery and
is booked in a ``Ledger``. Every call into a package module goes through
``Tracer.call``, which records a span when tracing is on and is a plain
call otherwise.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

from entrolab.auxiliary import pairwise_aux_for_network
from entrolab.lp import Feasible, Infeasible, solve_feasibility, verify_certificate
from entrolab.network import (
    AuxSpec,
    FailsCutset,
    FailsFD,
    build_lp_constraints,
    cutset_check,
    fd_bound,
)
from entrolab.recovery import (
    MultivarIndicatorInput,
    NotIndicatorConsistent,
    RecoveryInput,
    build_indicator_family,
    build_multivar_indicators,
    recover_distribution,
    recover_multivar,
    verify_properties,
)

import inputs

TOL = 1e-9
# delta* search settings: one restart on a coarse grid keeps the search
# in the same cost range as the small LPs it feeds
DELTA_PARAMS = {"resolution": 4, "restarts": 1, "k_alphabet": 4}


# --- tracing -------------------------------------------------------------------------


class Tracer:
    """Spans around calls into the package, plus exact counts.

    A span is ``[name, start, end, op, result type]``; spans and counts
    stay in memory until the run writes them out."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.op = 0
        self.counts: Counter = Counter()
        self.oracle_s: defaultdict = defaultdict(float)  # by calling layer

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        kind = "raised"
        try:
            out = fn(*args, **kwargs)
            kind = type(out).__name__
            return out
        finally:
            self.spans.append([name, start, perf_counter(), self.op, kind])

    def oracle(self, fn, layer: str):
        """Wrap an entropy oracle so each query is counted and timed."""
        if not self.enabled:
            return fn
        counts, spent = self.counts, self.oracle_s

        def timed(members):
            start = perf_counter()
            try:
                return fn(members)
            finally:
                spent[layer] += perf_counter() - start
                counts["recovery.oracle_calls"] += 1

        return timed

    def count_lp(self, system, res) -> None:
        if not self.enabled:
            return
        c = self.counts
        c["lp.rows"] += len(system.constraints)
        c["lp.cols"] += system.ground.full_mask
        c["lp.nnz"] += sum(len(row.functional.terms) for row in system.constraints)
        if isinstance(res, Feasible):
            c["lp.feasible"] += 1
        elif isinstance(res, Infeasible):
            c["lp.infeasible"] += 1
            c["lp.cert_support"] += len(res.certificate)


# --- operation ledger -----------------------------------------------------------------


class Ledger:
    """Attempted and failed operations, with the cause of each failure.

    An operation fails when one of its checks misses, when the package
    raises, or when it refuses. A refusal is only the
    ``NotIndicatorConsistent`` a recovery call raises on a genuine
    family, booked with ``_Op.refuse``. ``wrong`` counts every failure
    but refusals, and any of them makes the run incorrect."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.causes: Counter = Counter()
        self.latencies: list[float] = []

    def op(self, what: str) -> "_Op":
        return _Op(self, what)


class _Op:
    def __init__(self, ledger: Ledger, what: str):
        self.ledger = ledger
        self.what = what
        self.misses: list[str] = []
        self.refusal: str | None = None

    def check(self, ok: bool, cause: str) -> None:
        if not ok:
            self.misses.append(cause)

    def refuse(self, exc: Exception) -> None:
        self.refusal = f"refused: {type(exc).__name__}: {exc}"

    def __enter__(self) -> "_Op":
        self.ledger.tracer.op += 1
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ledger = self.ledger
        ledger.latencies.append(perf_counter() - self.start)
        ledger.attempted += 1
        if exc is not None and not isinstance(exc, Exception):
            return False  # interrupts and exits propagate
        if exc is not None:
            self.misses.append(f"raised {type(exc).__name__}: {exc}")
        if self.misses:
            ledger.failed += 1
            ledger.wrong += 1
            for cause in self.misses:
                ledger.causes[f"{self.what}: {cause}"] += 1
        elif self.refusal:
            ledger.failed += 1
            ledger.causes[f"{self.what}: {self.refusal}"] += 1
        return exc is not None  # the run goes on; ``wrong`` makes it incorrect


# --- bound verdicts ------------------------------------------------------------------


def bound_verdicts(tr, ledger, p, C, auxes, *, cutset, cold=0, pinned=None):
    """The base LP verdict and one verdict per ``(label, AuxSpec)`` at the
    capacity tuple ``C``, each verified on its own unreduced system and
    cross-checked: a failing cut-set or FD bound implies Infeasible, and
    an auxiliary never turns an Infeasible base into Feasible. Each
    system over at most ``cold`` variables is solved again without the
    float warm start, and the two verdicts must agree. ``pinned`` maps
    labels to the expected verdict type name."""
    base = None
    for label, aux in [("base", None)] + list(auxes):
        with ledger.op(f"{label} LP") as op:
            if aux is None:
                fails = [tr.call("network.bounds", fd_bound, p, C)]
                if cutset:
                    fails.append(tr.call("network.bounds", cutset_check, p, C))
                fails = [b for b in fails if isinstance(b, (FailsCutset, FailsFD))]
            system = tr.call("network.build", build_lp_constraints, p, C, aux)
            res = tr.call("lp.solve", solve_feasibility, system)
            tr.count_lp(system, res)
            op.check(tr.call("lp.verify", verify_certificate, system, res),
                     "certificate rejected")
            if system.ground.n <= cold:
                cold_res = tr.call("lp.cold_solve", solve_feasibility, system, warm_start=False)
                op.check(type(cold_res) is type(res), "cold verdict differs from warm")
                op.check(tr.call("lp.verify", verify_certificate, system, cold_res),
                         "cold certificate rejected")
            if aux is None:
                base = res
                op.check(not fails or isinstance(res, Infeasible),
                         f"{type(fails[0]).__name__ if fails else ''} but LP Feasible")
            elif isinstance(base, Infeasible):
                op.check(isinstance(res, Infeasible), "aux turned Infeasible into Feasible")
            if pinned and label in pinned:
                op.check(type(res).__name__ == pinned[label], f"expected {pinned[label]}")


def network_auxes(tr, net, limits, seed):
    """The GK and delta* aux specs of a network whose LPs stay within
    the ``(gk, delta)`` ground-set limits, as ``(label, AuxSpec)`` pairs.
    Every pair of sources has a nonconstant common part, so both specs
    add one variable per pair."""
    p = net.problem
    size = len(p.sources) + len(net.generous.values) + math.comb(len(p.sources), 2)
    gk_limit, delta_limit = (min(v, NONDYADIC_LIMIT) if net.nondyadic else v for v in limits)
    out = []
    if len(p.sources) > 1 and size <= gk_limit:
        gk, _ = tr.call("auxiliary.gk", pairwise_aux_for_network, p, "gk")
        out.append(("gk", gk))
    if len(p.sources) > 1 and size <= delta_limit:
        delta, _ = tr.call("auxiliary.delta", pairwise_aux_for_network, p, "delta",
                           seed=seed, **DELTA_PARAMS)
        out.append(("delta", delta))
    return out


def run_networks(tr, ledger, batch, *, limits, cold=0):
    """Every network of the batch at its generous tuple, where the base
    and GK verdicts must be Feasible, and at its tight tuple."""
    for net, seed in zip(batch.networks, batch.delta_seeds):
        auxes = network_auxes(tr, net, limits, seed)
        for C, pinned in ((net.generous, {"base": "Feasible", "gk": "Feasible"}),
                          (net.tight, None)):
            bound_verdicts(tr, ledger, net.problem, C, auxes, cutset=net.multicast,
                           cold=cold, pinned=pinned)


# --- recovery checks -----------------------------------------------------------------
# These two mirror recovery.check_permutation_equivalence and
# recovery.find_axis_permutations on purpose: the gate keeps its own
# reference, so a change to the code under test cannot weaken it.


def same_up_to_permutation(p, q) -> bool:
    p, q = sorted(p), sorted(q)
    return len(p) == len(q) and all(abs(a - b) <= TOL for a, b in zip(p, q))


def aligns(recovered, dist) -> bool:
    """Some pair of per-axis relabellings maps the recovered joint pmf
    onto ``dist``."""
    ref = {
        tuple(dist.alphabets[i].index(v) for i, v in enumerate(o)): float(p)
        for o, p in dist.pmf.items()
    }
    perms = [itertools.permutations(range(s)) for s in recovered.axis_sizes]
    return any(
        all(abs(ref[tuple(pi[c] for pi, c in zip(pis, coord))] - prob) <= TOL
            for coord, prob in recovered.pmf.items())
        for pis in itertools.product(*map(list, perms))
    )


def run_recovery(tr, ledger, batch):
    for probs, shuffle in batch.trips:
        n = len(probs)
        with ledger.op(f"recover n={n}") as op:
            plain = RecoveryInput.from_family(build_indicator_family(probs), shuffle_seed=shuffle)
            inp = RecoveryInput(plain.n, plain.labels, tr.oracle(plain.entropy, "recover"))
            try:
                rec = tr.call("recovery.recover", recover_distribution, inp)
            except NotIndicatorConsistent as exc:
                op.refuse(exc)
            else:
                op.check(same_up_to_permutation(rec.probabilities, probs), "wrong distribution")
        with ledger.op(f"properties n={n}") as op:
            report = tr.call("recovery.properties", verify_properties, probs)
            op.check(report.ok, "property violated")
    for dist in batch.joints:
        what = "multivar 3x3 " + ("tied" if inputs.has_tie(dist) else "distinct")
        with ledger.op(what) as op:
            plain = build_multivar_indicators(dist)
            inp = MultivarIndicatorInput(
                plain.n, plain.labels, tr.oracle(plain.entropy, "multivar"), plain.anchors
            )
            try:
                rec = tr.call("recovery.multivar", recover_multivar, inp)
            except NotIndicatorConsistent as exc:
                op.refuse(exc)
            else:
                op.check(aligns(rec, dist), "no axis relabelling matches")


# --- batches ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkBatch:
    networks: list
    delta_seeds: list

    def signature(self):
        return [
            [len(n.problem.sources) + len(n.generous.values), len(n.problem.sources),
             n.nondyadic, n.multicast]
            for n in self.networks
        ]


@dataclass(frozen=True)
class RecoveryBatch:
    trips: list  # (descending probabilities, label shuffle seed)
    joints: list

    def signature(self):
        return [[len(p) for p, _ in self.trips], len(self.joints)]


@dataclass(frozen=True)
class LargeBatch:
    large: inputs.LargeInput

    def signature(self):
        return ["bundled", len(self.large.aux_order)]


def network_batch(rng, slots) -> NetworkBatch:
    nets = [inputs.random_network(rng, *slot) for slot in slots]
    return NetworkBatch(nets, [rng.randrange(1 << 30) for _ in nets])


def recovery_batch(rng, sizes, joints, distinct=False) -> RecoveryBatch:
    """Round trips at the given atom counts and ``joints`` 3x3 joints.
    Six-atom trips take their label shuffles, in order, from
    ``SIX_ATOM_SHUFFLES``; all other shuffles come from ``rng``."""
    pool = iter(SIX_ATOM_SHUFFLES)
    trips = [
        (inputs.sorted_pmf(rng, n), next(pool) if n == 6 else rng.randrange(1 << 30))
        for n in sizes
    ]
    return RecoveryBatch(trips, [inputs.small_weight_joint(rng, distinct) for _ in range(joints)])


# --- workloads -------------------------------------------------------------------------

# One batch's networks, in a fixed order, as (base ground-set size,
# sources, non-dyadic, multicast). A third of them are non-dyadic.
SMALL_SLOTS = (
    (3, 1, False, True), (4, 2, False, False), (5, 3, False, True), (5, 2, False, False),
    (6, 2, False, True), (7, 2, False, False), (7, 1, False, True), (4, 3, False, False),
    (3, 1, True, True), (4, 2, True, False), (5, 2, True, True), (3, 2, True, False),
)
COLD_SLOTS = (
    (2, 1, False, True), (3, 1, False, False), (3, 2, False, True), (4, 1, False, False),
    (2, 1, True, False), (3, 2, True, True), (4, 1, True, True),
)
# Ground-set limit for LPs over non-dyadic entropies: their feasible
# verdicts cost 3-4 s at 7 variables and up to 27 s at 8.
NONDYADIC_LIMIT = 6
RECOVER_SIZES = (4, 4, 5, 5, 6, 6, 6, 6)
RECOVER_JOINTS = 6
# The chain search of a six-atom recovery costs 0.05-4.4 s depending
# only on the label shuffle. A fixed pool of shuffles, drawn once, keeps
# that cost the same in every batch and for every seed; the seed still
# draws the distributions.
_POOL = random.Random("entrobench six-atom shuffles")
SIX_ATOM_SHUFFLES = tuple(_POOL.randrange(1 << 30) for _ in range(4))


def make_large(rng):
    return LargeBatch(inputs.large_input(rng))


def run_large(tr, ledger, batch):
    li = batch.large
    p, C = li.problem, li.capacities
    gk, _ = tr.call("auxiliary.gk", pairwise_aux_for_network, p, "gk")
    gk = AuxSpec(functions=tuple(gk.functions[i] for i in li.aux_order))
    bound_verdicts(tr, ledger, p, C, [("gk", gk)], cutset=False,
                   pinned={"base": "Feasible", "gk": "Infeasible"})


def make_small(rng):
    return network_batch(rng, SMALL_SLOTS)


def run_small(tr, ledger, batch):
    run_networks(tr, ledger, batch, limits=(8, 7))


def make_cold(rng):
    return network_batch(rng, COLD_SLOTS)


def run_cold(tr, ledger, batch):
    run_networks(tr, ledger, batch, limits=(4, 4), cold=4)


def make_recover(rng):
    return recovery_batch(rng, RECOVER_SIZES, RECOVER_JOINTS)


def make_warmup(rng):
    """One tiny instance of every timed call: a three-variable network
    with two sources, a four-atom recovery and one 3x3 joint. The joint
    has distinct weights: tied joints, and the refusals they cause, are
    the recover workload's to measure."""
    return (network_batch(rng, ((3, 2, False, True),)),
            recovery_batch(rng, (4,), 1, distinct=True))


def run_warmup(tr, ledger, batch):
    nets, rec = batch
    run_networks(tr, ledger, nets, limits=(4, 4), cold=3)
    run_recovery(tr, ledger, rec)


WORKLOADS = {
    "bound-large": (make_large, run_large),
    "bound-small": (make_small, run_small),
    "bound-cold": (make_cold, run_cold),
    "recover": (make_recover, run_recovery),
}
# Typical seconds one batch takes on a 2-core machine. A run of
# ``--seconds`` performs round(seconds / BATCH_SECONDS) batches, at least
# one: a fixed amount of work per seed, so two runs of one seed attempt,
# and fail, the same operations however fast the machine is.
BATCH_SECONDS = {"bound-large": 37.0, "bound-small": 10.0, "bound-cold": 8.5, "recover": 6.5}
