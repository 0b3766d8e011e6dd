"""Network coding model and outer bounds on link-capacity tuples.

A network is a directed graph with correlated sources placed at nodes and
demanded at other nodes. The main tool is a linear program over a formal
entropy vector: network structure contributes equality/inequality rows,
and the polymatroid (elemental) inequalities relax "entropic". If the LP
is infeasible, the capacity tuple is not achievable; feasibility proves
nothing (outer-bound semantics).

Ground set of the LP: one variable per source (named by its id) plus one
``U<k>`` variable per finite-capacity edge. Edges of infinite capacity
are contracted: the head node simply inherits everything available at
the tail. This keeps the ground set minimal and is sound for an outer
bound, since an infinite edge can forward any function of its inputs.

Two cheaper combinatorial bounds are included: a cut-set bound
(conditional source entropy across a node cut vs. crossing capacity) and
a functional-dependence bound (minimal edge sets whose messages, plus
the complementary sources, determine the demanded sources).
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .core import (
    INF,
    ZERO,
    DomainError,
    EntropyVector,
    GroundSet,
    JointDistribution,
    LinearFunctional,
    conditional_functional,
    distribution_from_json,
    distribution_to_json,
    elemental_inequalities,
    entropy_of,
    entropy_vector_of,
    format_rational,
    load_json,
)
from .lp import (
    Feasible,
    LinearConstraint,
    LinearSystem,
    solve_feasibility,
    verify_certificate,
)


def _is_inf(c) -> bool:
    return c == INF


def parse_capacity(text: str):
    """Parse a capacity field: a rational string or "inf"."""
    if text.strip().lower() in ("inf", "infinity", "+inf"):
        return INF
    return Fraction(text)


def edge_var_name(edge_id: str) -> str:
    """LP variable name for an edge: ``e1`` -> ``U1``, else ``U_<id>``."""
    m = re.fullmatch(r"e?(\d+)", str(edge_id))
    return f"U{m.group(1)}" if m else f"U_{edge_id}"


@dataclass(frozen=True)
class Edge:
    id: str
    tail: object
    head: object
    capacity: object  # rational bits, or INF

    def __post_init__(self):
        if self.tail == self.head:
            raise DomainError(f"edge {self.id}: tail equals head")
        if not _is_inf(self.capacity) and self.capacity < 0:
            raise DomainError(f"edge {self.id}: negative capacity")


@dataclass(frozen=True)
class Source:
    id: str
    at: object
    demanded_at: tuple

    def __post_init__(self):
        object.__setattr__(self, "demanded_at", tuple(self.demanded_at))


@dataclass(frozen=True)
class SourceModel:
    """Either an explicit joint distribution over the sources, or just
    their entropy vector (every nonempty subset required)."""

    distribution: Optional[JointDistribution] = None
    entropies: Optional[EntropyVector] = None

    def __post_init__(self):
        if (self.distribution is None) == (self.entropies is None):
            raise DomainError("source model needs a distribution or an entropy vector")
        if self.entropies is not None:
            g = self.entropies.ground
            for mask in g.subsets():
                if mask not in self.entropies.values:
                    raise DomainError(
                        f"entropies-only model missing h({{{','.join(g.subset_names(mask))}}})"
                    )

    @property
    def names(self) -> tuple[str, ...]:
        if self.distribution is not None:
            return self.distribution.names
        return self.entropies.ground.names

    def entropy(self, names: Sequence[str]):
        if self.distribution is not None:
            return entropy_of(self.distribution, tuple(names))
        return self.entropies.value(self.entropies.ground.mask(names))


@dataclass(frozen=True)
class NetworkProblem:
    nodes: tuple
    edges: tuple[Edge, ...]
    sources: tuple[Source, ...]
    source_model: SourceModel

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "sources", tuple(self.sources))
        nodeset = set(self.nodes)
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise DomainError("duplicate edge ids")
        for e in self.edges:
            if e.tail not in nodeset or e.head not in nodeset:
                raise DomainError(f"edge {e.id}: endpoint not a node")
        model_names = set(self.source_model.names)
        for s in self.sources:
            if s.at not in nodeset:
                raise DomainError(f"source {s.id}: placement {s.at!r} not a node")
            for u in s.demanded_at:
                if u not in nodeset:
                    raise DomainError(f"source {s.id}: demand node {u!r} not a node")
            if s.id not in model_names:
                raise DomainError(f"source {s.id} missing from the source model")

    def source_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.sources)


@dataclass(frozen=True)
class AuxFunction:
    id: str
    of: tuple[str, ...]
    table: Mapping[str, str]  # comma-joined outcome of `of` -> value

    def __post_init__(self):
        object.__setattr__(self, "of", tuple(self.of))
        object.__setattr__(self, "table", dict(self.table))


@dataclass(frozen=True)
class AuxSpec:
    """Auxiliary variables: explicit functions of the source outcome, or
    a raw list of constraint templates over source/aux names."""

    functions: tuple[AuxFunction, ...] = ()
    constraints: tuple = ()  # (terms, relation, rhs); terms = ((coeff, names), ...)
    names: tuple[str, ...] = ()  # aux names, for constrained specs

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.functions and not self.names:
            object.__setattr__(self, "names", tuple(f.id for f in self.functions))
        else:
            object.__setattr__(self, "names", tuple(self.names))
        ids = list(self.names)
        if len(set(ids)) != len(ids):
            raise DomainError("duplicate aux ids")

    def is_empty(self) -> bool:
        return not self.functions and not self.constraints


@dataclass(frozen=True)
class CapacityTuple:
    values: Mapping[str, object]  # edge id -> rational bits or INF

    def __post_init__(self):
        vals = {}
        for k, v in dict(self.values).items():
            c = v if _is_inf(v) else Fraction(v)
            if not _is_inf(c) and c < 0:
                raise DomainError(f"capacity of {k} is negative")
            vals[k] = c
        object.__setattr__(self, "values", vals)

    @staticmethod
    def parse(text: str, problem: "NetworkProblem") -> "CapacityTuple":
        """Parse ``e1=1,e2=1/2`` (each id an edge of the problem, at most
        once) or positional ``1,1/2,...`` over the problem's
        finite-capacity edges in declaration order."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if parts and "=" in parts[0]:
            edges = {e.id for e in problem.edges}
            vals = {}
            for p in parts:
                k, _, v = p.partition("=")
                k = k.strip()
                if k not in edges:
                    raise DomainError(f"capacity for {k!r}, which is not an edge")
                if k in vals:
                    raise DomainError(f"capacity for edge {k!r} given twice")
                vals[k] = parse_capacity(v.strip())
            return CapacityTuple(vals)
        variable = [e.id for e in problem.edges if not _is_inf(e.capacity)]
        if len(parts) != len(variable):
            raise DomainError(
                f"expected {len(variable)} capacities for edges {variable}, got {len(parts)}"
            )
        return CapacityTuple(dict(zip(variable, (parse_capacity(p) for p in parts))))


def effective_capacity(p: NetworkProblem, C: Optional[CapacityTuple], e: Edge):
    if C is not None and e.id in C.values:
        return C.values[e.id]
    return e.capacity


# --- bound-check verdicts -------------------------------------------------------


@dataclass(frozen=True)
class MaybeAchievable:
    witness: EntropyVector


@dataclass(frozen=True)
class NotAchievable:
    certificate: Mapping[int, object]
    system: LinearSystem


@dataclass(frozen=True)
class PassesCutset:
    cuts_checked: int


@dataclass(frozen=True)
class FailsCutset:
    cut_nodes: tuple
    sources: tuple[str, ...]
    lhs: object
    rhs: object


@dataclass(frozen=True)
class PassesFD:
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class FailsFD:
    sources: tuple[str, ...]
    edge_set: tuple[str, ...]
    lhs: object
    rhs: object


# --- LP construction -------------------------------------------------------------


def _available_inputs(p: NetworkProblem, C: Optional[CapacityTuple]) -> dict:
    """Per node: ground names available for encoding/decoding there.

    A node sees its own sources and the U variables of its finite
    in-edges; infinite-capacity edges are contracted, so the head also
    inherits the tail's available set. Computed as a monotone fixpoint
    so cycles of infinite edges are handled."""
    avail: dict = {v: set() for v in p.nodes}
    for s in p.sources:
        avail[s.at].add(s.id)
    inf_edges = []
    for e in p.edges:
        if _is_inf(effective_capacity(p, C, e)):
            inf_edges.append(e)
        else:
            avail[e.head].add(edge_var_name(e.id))
    changed = True
    while changed:
        changed = False
        for e in inf_edges:
            extra = avail[e.tail] - avail[e.head]
            if extra:
                avail[e.head].update(extra)
                changed = True
    return avail


def _zero_conditional_row(ground: GroundSet, target: Sequence[str], given: Sequence[str]):
    a = ground.mask(target)
    b = ground.mask(given) if given else 0
    return LinearConstraint(conditional_functional(a, b), "==", 0)


def build_lp_constraints(
    p: NetworkProblem, C: Optional[CapacityTuple] = None, aux: Optional[AuxSpec] = None
) -> LinearSystem:
    """The base outer-bound LP (or the improved one when ``aux`` given)."""
    aux = aux or AuxSpec()
    src_ids = list(p.source_ids())
    aux_ids = list(aux.names)
    finite_edges = [e for e in p.edges if not _is_inf(effective_capacity(p, C, e))]
    names = src_ids + aux_ids + [edge_var_name(e.id) for e in finite_edges]
    ground = GroundSet(tuple(names))

    model = p.source_model
    dist = model.distribution
    if aux.functions:
        if dist is None:
            raise DomainError("functional aux variables need an explicit source model")
        for f in aux.functions:
            dist = dist.extend(f.id, _aux_evaluator(dist, f))

    constraints: list[LinearConstraint] = []
    # source-entropy fixings: every nonempty subset of sources (and, for
    # functional aux, of sources plus aux) pinned to the oracle value
    fix_names = src_ids + (aux_ids if aux.functions else [])
    for r in range(1, len(fix_names) + 1):
        for combo in itertools.combinations(fix_names, r):
            if aux.functions:
                h = entropy_of(dist, combo)
            else:
                h = model.entropy(combo)
            constraints.append(
                LinearConstraint(
                    LinearFunctional(((ground.mask(combo), 1),)), "==", h
                )
            )
    # constrained aux: template rows as given
    for terms, relation, rhs in aux.constraints:
        lf = LinearFunctional(tuple((ground.mask(ns), cf) for cf, ns in terms))
        constraints.append(LinearConstraint(lf, relation, rhs))

    avail = _available_inputs(p, C)
    # encoding: each finite edge is a function of what its tail sees
    for e in finite_edges:
        u = edge_var_name(e.id)
        inputs = sorted(avail[e.tail] - {u})
        constraints.append(_zero_conditional_row(ground, [u], inputs))
    # decoding: each demanded source is a function of what the sink sees;
    # a sink that sees the source itself (placed there, or relayed over
    # contracted infinite edges) decodes it trivially
    for s in p.sources:
        for node in s.demanded_at:
            if s.id in avail[node]:
                continue
            inputs = sorted(avail[node])
            constraints.append(_zero_conditional_row(ground, [s.id], inputs))
    # capacities
    for e in finite_edges:
        cap = effective_capacity(p, C, e)
        u_mask = ground.mask([edge_var_name(e.id)])
        constraints.append(
            LinearConstraint(LinearFunctional(((u_mask, 1),)), "<=", cap)
        )
    return LinearSystem(ground, tuple(constraints) + _shannon_rows(ground.n))


@functools.cache
def _shannon_rows(n: int) -> tuple[LinearConstraint, ...]:
    """The elemental inequalities over n variables as ``>= 0`` rows: the
    same block for every LP over n variables, so it is built once."""
    return tuple(LinearConstraint(lf, ">=", 0) for lf in elemental_inequalities(n))


def _aux_evaluator(dist: JointDistribution, f: AuxFunction) -> Callable[[tuple], str]:
    idx = [dist.ground.index(name) for name in f.of]
    table = f.table

    def value(outcome: tuple) -> str:
        key = ",".join(outcome[i] for i in idx)
        try:
            return table[key]
        except KeyError:
            raise DomainError(f"aux {f.id}: no table entry for {key!r}") from None

    return value


def check_lp_bound(
    p: NetworkProblem, C: Optional[CapacityTuple] = None, aux: Optional[AuxSpec] = None
):
    sys = build_lp_constraints(p, C, aux=aux)
    res = solve_feasibility(sys)
    if isinstance(res, Feasible):
        return MaybeAchievable(res.witness)
    return NotAchievable(res.certificate, sys)


# --- cut-set bound ----------------------------------------------------------------


def cutset_check(p: NetworkProblem, C: Optional[CapacityTuple] = None):
    """Cut-set bound; valid only when every sink demands every source."""
    sinks = sorted({u for s in p.sources for u in s.demanded_at}, key=str)
    for u in sinks:
        for s in p.sources:
            if u not in s.demanded_at:
                raise DomainError(
                    "cut-set bound requires every sink to demand every source; "
                    f"node {u!r} does not demand {s.id}"
                )
    if len(p.nodes) > 20:
        raise DomainError("cut enumeration limited to 20 nodes")
    src_ids = list(p.source_ids())
    nodes = list(p.nodes)
    checked = 0
    for tsize in range(1, len(nodes)):
        for T in itertools.combinations(nodes, tsize):
            tset = set(T)
            comp = [v for v in nodes if v not in tset]
            if not any(u in comp for u in sinks):
                continue
            inside = [s for s in p.sources if s.at in tset]
            if not inside:
                continue
            crossing = ZERO
            infinite = False
            for e in p.edges:
                if e.tail in tset and e.head not in tset:
                    cap = effective_capacity(p, C, e)
                    if _is_inf(cap):
                        infinite = True
                        break
                    crossing += cap
            if infinite:
                continue
            for r in range(1, len(inside) + 1):
                for combo in itertools.combinations(inside, r):
                    W = [s.id for s in combo]
                    demanders = set.intersection(
                        *(set(s.demanded_at) for s in combo)
                    )
                    if not any(u in comp for u in demanders):
                        continue
                    rest = [n for n in src_ids if n not in W]
                    lhs = p.source_model.entropy(W + rest) - (
                        p.source_model.entropy(rest) if rest else ZERO
                    )
                    checked += 1
                    if lhs > crossing:
                        return FailsCutset(tuple(T), tuple(W), lhs, crossing)
    return PassesCutset(checked)


# --- functional-dependence bound ----------------------------------------------------


def _fd_closure(p: NetworkProblem, given_sources: set, given_edges: set) -> set:
    """Everything determined by the given sources and edge messages.

    An edge message is determined once all inputs at its tail are; a
    demanded source is determined once some demanding node other than
    its own sees all its in-edges and local sources (a sink holding the
    source decodes it from nothing the network carries)."""
    known = {("s", s) for s in given_sources} | {("e", e) for e in given_edges}
    in_edges: dict = {v: [] for v in p.nodes}
    local: dict = {v: [] for v in p.nodes}
    for e in p.edges:
        in_edges[e.head].append(e.id)
    for s in p.sources:
        local[s.at].append(s.id)

    def node_resolved(v) -> bool:
        return all(("e", eid) in known for eid in in_edges[v]) and all(
            ("s", sid) in known for sid in local[v]
        )

    changed = True
    while changed:
        changed = False
        for e in p.edges:
            if ("e", e.id) not in known and node_resolved(e.tail):
                known.add(("e", e.id))
                changed = True
        for s in p.sources:
            if ("s", s.id) in known:
                continue
            for u in s.demanded_at:
                if u != s.at and all(("e", eid) in known for eid in in_edges[u]) and all(
                    ("s", sid) in known for sid in local[u] if sid != s.id
                ):
                    known.add(("s", s.id))
                    changed = True
                    break
    return known


def fd_bound(p: NetworkProblem, C: Optional[CapacityTuple] = None):
    """Functional-dependence bound: for each demanded source set W, any
    finite edge set A whose messages together with the other sources
    determine all of W caps H(Y_W | Y_{W^c}) by the capacity of A."""
    src_ids = list(p.source_ids())
    finite = [e for e in p.edges if not _is_inf(effective_capacity(p, C, e))]
    warnings: list[str] = []
    for r in range(1, len(src_ids) + 1):
        for W in itertools.combinations(src_ids, r):
            wset = set(W)
            if not all(
                s.demanded_at for s in p.sources if s.id in wset
            ):
                continue  # an undemanded source never needs resolving
            rest = [n for n in src_ids if n not in wset]
            lhs = p.source_model.entropy(list(W) + rest) - (
                p.source_model.entropy(rest) if rest else ZERO
            )
            best = None
            best_set = None
            found = False
            # minimal resolving sets, by increasing size; prune supersets
            minimal: list[set] = []
            for size in range(0, len(finite) + 1):
                for combo in itertools.combinations(finite, size):
                    ids = {e.id for e in combo}
                    if any(m <= ids for m in minimal):
                        continue
                    known = _fd_closure(p, set(rest), ids)
                    if all(("s", w) in known for w in W):
                        found = True
                        minimal.append(ids)
                        cost = ZERO
                        for e in combo:
                            cap = effective_capacity(p, C, e)
                            cost = INF if _is_inf(cap) else cost + cap
                        if best is None or cost < best:
                            best, best_set = cost, tuple(sorted(ids))
            if not found:
                warnings.append(
                    f"sources {W}: no finite edge set resolves them; bound vacuous"
                )
                continue
            if lhs > best:
                return FailsFD(tuple(W), best_set, lhs, best)
    return PassesFD(tuple(warnings))


# --- code witnesses ---------------------------------------------------------------


def code_witness(
    p: NetworkProblem,
    edge_functions: Mapping[str, Callable[[tuple], str]],
    source_copies: Optional[Mapping[str, Callable[[tuple], str]]] = None,
    C: Optional[CapacityTuple] = None,
) -> EntropyVector:
    """Entropy vector induced by an explicit code: each finite edge id
    maps to a function of the joint source outcome, and a source's LP
    copy may be overridden the same way (default: the source itself)."""
    dist = p.source_model.distribution
    if dist is None:
        raise DomainError("code witnesses need an explicit source model")
    finite = [e for e in p.edges if not _is_inf(effective_capacity(p, C, e))]
    ext = dist
    rename: dict[str, str] = {}
    for s in p.sources:
        if source_copies and s.id in source_copies:
            tmp = f"__copy_{s.id}"
            ext = ext.extend(tmp, source_copies[s.id])
            rename[tmp] = s.id
        else:
            rename[s.id] = s.id
    for e in finite:
        u = edge_var_name(e.id)
        fn = edge_functions[e.id]
        ext = ext.extend(u, lambda o, fn=fn, k=len(dist.names): fn(o[:k]))
        rename[u] = u
    keep = list(rename)
    sub = ext.restrict(keep)
    hv = entropy_vector_of(sub)
    ground = GroundSet(tuple(rename[n] for n in sub.names))
    return EntropyVector(ground, dict(hv.values), exact=hv.exact)


def witness_satisfies(sys: LinearSystem, witness: EntropyVector) -> bool:
    """Exact row-by-row check of a witness against a system, matching
    ground coordinates by name."""
    remap: dict[int, object] = {}
    for mask in sys.ground.subsets():
        names = sys.ground.subset_names(mask)
        remap[mask] = witness.value(witness.ground.mask(names))
    h = EntropyVector(sys.ground, remap, exact=witness.exact)
    return verify_certificate(sys, Feasible(h))


# --- bundled instance --------------------------------------------------------------


def example1_problem() -> NetworkProblem:
    """Three pairwise-correlated sources at one node, four capacity-
    constrained edges out of it, and free relaying of the first edge's
    message to all three sinks."""
    from .core import uniform_bits

    bits = uniform_bits(["b0", "b1", "b2"])
    dist = (
        bits.extend("Y1", lambda o: o[0] + o[1])
        .extend("Y2", lambda o: o[0] + o[2])
        .extend("Y3", lambda o: o[1] + o[2])
        .restrict(["Y1", "Y2", "Y3"])
    )
    edges = (
        Edge("e1", 1, 2, Fraction(1)),
        Edge("e2", 1, 3, Fraction(1)),
        Edge("e3", 1, 4, Fraction(1)),
        Edge("e4", 1, 5, Fraction(1)),
        Edge("r1", 2, 3, INF),
        Edge("r2", 2, 4, INF),
        Edge("r3", 2, 5, INF),
    )
    sources = (
        Source("Y1", 1, (3,)),
        Source("Y2", 1, (4,)),
        Source("Y3", 1, (5,)),
    )
    return NetworkProblem((1, 2, 3, 4, 5), edges, sources, SourceModel(distribution=dist))


def example1_aux() -> AuxSpec:
    """The three shared bits of the bundled instance as functional aux
    variables: Z0 from (Y1,Y2), Z1 from (Y1,Y3), Z2 from (Y2,Y3)."""
    return AuxSpec(
        functions=(
            AuxFunction("Z0", ("Y1",), {"00": "0", "01": "0", "10": "1", "11": "1"}),
            AuxFunction("Z1", ("Y1",), {"00": "0", "01": "1", "10": "0", "11": "1"}),
            AuxFunction("Z2", ("Y2",), {"00": "0", "01": "1", "10": "0", "11": "1"}),
        )
    )


def example1_witness(p: Optional[NetworkProblem] = None) -> EntropyVector:
    """Explicit code achieving C=(1,1,1,1) on the bundled instance."""
    p = p or example1_problem()
    # outcomes are (Y1, Y2, Y3) with Y1=b0b1, Y2=b0b2, Y3=b1b2
    def b(o, k):
        return {0: o[0][0], 1: o[0][1], 2: o[1][1]}[k]

    def xor(x, y):
        return str(int(x) ^ int(y))

    return code_witness(
        p,
        edge_functions={
            "e1": lambda o: b(o, 0),
            "e2": lambda o: b(o, 1),
            "e3": lambda o: b(o, 2),
            "e4": lambda o: xor(b(o, 1), b(o, 2)),
        },
        source_copies={"Y3": lambda o: b(o, 0) + xor(b(o, 1), b(o, 2))},
    )


# --- file IO --------------------------------------------------------------------------


def problem_to_json(p: NetworkProblem) -> dict:
    if p.source_model.distribution is None:
        raise DomainError("only explicit source models are serialized")
    return {
        "nodes": list(p.nodes),
        "edges": [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "capacity": "inf" if _is_inf(e.capacity) else format_rational(e.capacity),
            }
            for e in p.edges
        ],
        "sources": [
            {"id": s.id, "at": s.at, "demanded_at": list(s.demanded_at)}
            for s in p.sources
        ],
        "distribution": distribution_to_json(p.source_model.distribution),
    }


def problem_from_json(data: dict) -> NetworkProblem:
    try:
        edges = tuple(
            Edge(e["id"], e["tail"], e["head"], parse_capacity(e["capacity"]))
            for e in data["edges"]
        )
        sources = tuple(
            Source(s["id"], s["at"], tuple(s["demanded_at"])) for s in data["sources"]
        )
        dist = distribution_from_json(data["distribution"])
        return NetworkProblem(tuple(data["nodes"]), edges, sources, SourceModel(distribution=dist))
    except KeyError as exc:
        raise DomainError(f"problem file missing field {exc}") from None


def load_problem(path: str) -> NetworkProblem:
    return problem_from_json(load_json(path))


def save_problem(p: NetworkProblem, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_json(p), fh, indent=2)
        fh.write("\n")


def aux_spec_to_json(aux: AuxSpec) -> dict:
    if aux.functions:
        return {
            "aux": [
                {"id": f.id, "function": {"of": list(f.of), "table": dict(f.table)}}
                for f in aux.functions
            ]
        }
    return {
        "aux_names": list(aux.names),
        "aux_constraints": [
            {
                "terms": [
                    {"coeff": format_rational(cf), "vars": list(ns)}
                    for cf, ns in terms
                ],
                "relation": rel,
                "rhs": format_rational(rhs),
            }
            for terms, rel, rhs in aux.constraints
        ],
    }


def aux_spec_from_json(data: dict) -> AuxSpec:
    if "aux" in data:
        return AuxSpec(
            functions=tuple(
                AuxFunction(
                    a["id"], tuple(a["function"]["of"]), dict(a["function"]["table"])
                )
                for a in data["aux"]
            )
        )
    rows = tuple(
        (
            tuple((t["coeff"], tuple(t["vars"])) for t in row["terms"]),
            row["relation"],
            row["rhs"],
        )
        for row in data.get("aux_constraints", ())
    )
    return AuxSpec(constraints=rows, names=tuple(data.get("aux_names", ())))


def load_aux_spec(path: str) -> AuxSpec:
    return aux_spec_from_json(load_json(path))


def save_aux_spec(aux: AuxSpec, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(aux_spec_to_json(aux), fh, indent=2)
        fh.write("\n")
