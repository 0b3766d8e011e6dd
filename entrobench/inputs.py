"""Seeded input generators for the entrolab benchmark.

Every input is built here from a ``random.Random``; nothing is read from
the package's tests. Each generator returns plain package objects
(``NetworkProblem``, ``CapacityTuple``, probability lists, joint
distributions), so the timed code only ever sees generated inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from entrolab import INF, JointDistribution, rational
from entrolab.network import (
    CapacityTuple,
    Edge,
    NetworkProblem,
    Source,
    SourceModel,
    example1_aux,
    example1_problem,
)

# --- bound-large: the bundled instance, relabelled -------------------------------


@dataclass(frozen=True)
class LargeInput:
    problem: NetworkProblem
    capacities: CapacityTuple
    aux_order: tuple[int, ...]  # order in which to list the pairwise aux


def large_input(rng) -> LargeInput:
    """The bundled instance with its sources and edges listed in a seeded
    order, at the all-ones tuple, plus a seeded order for its three
    pairwise aux variables. The order of a ground set decides the LP's
    column and row order, so each seed hands the solver a differently
    arranged copy of the same LP."""
    p = example1_problem()
    sources = list(p.sources)
    edges = list(p.edges)
    rng.shuffle(sources)
    rng.shuffle(edges)
    aux_order = list(range(len(example1_aux().functions)))
    rng.shuffle(aux_order)
    problem = NetworkProblem(p.nodes, tuple(edges), tuple(sources), p.source_model)
    caps = CapacityTuple({e.id: 1 for e in edges if e.capacity != INF})
    return LargeInput(problem, caps, tuple(aux_order))


# --- bound-small / bound-cold: random small networks ------------------------------

NONDYADIC = {
    ("0", "0"): Fraction(9, 20),
    ("1", "1"): Fraction(9, 20),
    ("0", "1"): Fraction(1, 20),
    ("1", "0"): Fraction(1, 20),
}


@dataclass(frozen=True)
class NetworkInput:
    problem: NetworkProblem
    generous: CapacityTuple  # every edge can carry all sources: routing achieves it
    tight: CapacityTuple  # small random capacities
    multicast: bool  # every sink demands every source (cut-set applies)
    nondyadic: bool


def _bit_pool(nbits: int, nondyadic: bool) -> JointDistribution:
    """``nbits`` uniform bits; with ``nondyadic`` the first two are
    correlated with probabilities 9/20, 1/20, 1/20, 9/20."""
    names = [f"b{i}" for i in range(nbits)]
    pmf = {}
    for outcome in itertools.product("01", repeat=nbits):
        p = Fraction(1, 1 << nbits)
        if nondyadic:
            p = NONDYADIC[outcome[:2]] / (1 << (nbits - 2))
        pmf[outcome] = rational(p)
    return JointDistribution(names, [("0", "1")] * nbits, pmf)


def _sources_model(rng, k: int, nondyadic: bool) -> JointDistribution:
    """``k`` sources, each the concatenation of 2 or 3 bits out of a pool
    of three. Any two such bit sets meet, so every pair of sources has a
    nonconstant common part."""
    dist = _bit_pool(3, nondyadic)
    names = []
    for s in range(k):
        picks = sorted(rng.sample(range(3), rng.randint(2, 3)))
        name = f"Y{s + 1}"
        dist = dist.extend(name, lambda o, picks=picks: "".join(o[i] for i in picks))
        names.append(name)
    return dist.restrict(names)


def _descendants(nodes, edges) -> dict:
    out = {v: set() for v in nodes}
    for v in sorted(nodes, reverse=True):
        for e in edges:
            if e.tail == v:
                out[v] |= {e.head} | out[e.head]
    return out


def random_network(rng, n_vars: int, k: int, nondyadic: bool, multicast: bool) -> NetworkInput:
    """A network whose base LP has exactly ``n_vars`` ground variables:
    ``k`` sources plus ``n_vars - k`` unit-capacity edges, on 2 to 5 nodes,
    with edges only from lower to higher node numbers. Multicast networks
    place every source at node 1 and demand all of them at the same
    sinks; otherwise each source sits at a random node and is demanded
    at one or two of the nodes it reaches."""
    finite = n_vars - k
    nnodes = rng.randint(2, min(5, finite + 1))
    nodes = tuple(range(1, nnodes + 1))
    arcs = [(rng.randint(1, j - 1), j) for j in range(2, nnodes + 1)]
    pairs = [(i, j) for i in nodes for j in nodes if i < j]
    while len(arcs) < finite:
        arcs.append(rng.choice(pairs))
    edges = tuple(Edge(f"e{i + 1}", t, h, rational(1)) for i, (t, h) in enumerate(arcs))
    desc = _descendants(nodes, edges)
    dist = _sources_model(rng, k, nondyadic)
    names = list(dist.names)
    if multicast:
        sinks = sorted(rng.sample(sorted(desc[1]), rng.randint(1, min(2, len(desc[1])))))
        sources = [Source(name, 1, tuple(sinks)) for name in names]
    else:
        sources = []
        for name in names:
            at = rng.choice([v for v in nodes if desc[v]])
            sinks = rng.sample(sorted(desc[at]), rng.randint(1, min(2, len(desc[at]))))
            sources.append(Source(name, at, tuple(sorted(sinks))))
    problem = NetworkProblem(nodes, edges, tuple(sources), SourceModel(distribution=dist))
    h_all = problem.source_model.entropy(names)
    generous = CapacityTuple({e.id: h_all for e in edges})
    tight = CapacityTuple({e.id: rational(rng.choice((0, 1, 1, 2, 3)), 2) for e in edges})
    return NetworkInput(problem, generous, tight, multicast, nondyadic)


# --- recover -----------------------------------------------------------------------


def sorted_pmf(rng, n: int) -> list[float]:
    """A positive probability vector of length ``n``, descending."""
    raw = sorted((rng.uniform(0.05, 1.0) for _ in range(n)), reverse=True)
    total = sum(raw)
    return [v / total for v in raw]


def small_weight_joint(rng, distinct: bool = False) -> JointDistribution:
    """A 3x3 joint distribution with weights 1..20; ties are kept unless
    ``distinct``."""
    weights = rng.sample(range(1, 21), 9) if distinct else [rng.randint(1, 20) for _ in range(9)]
    total = sum(weights)
    pmf = {}
    for k, (a, b) in enumerate(itertools.product("012", repeat=2)):
        pmf[(a, b)] = rational(weights[k], total)
    return JointDistribution(["X1", "X2"], [("0", "1", "2")] * 2, pmf)


def has_tie(dist: JointDistribution) -> bool:
    values = list(dist.pmf.values())
    return len(set(values)) != len(values)

