"""The FD-reduced path against the unreduced one, on random network LPs.

``solve_feasibility`` and ``minimize`` solve the LP over the sets closed
under the functional dependencies the rows state, and lift the answer
back. Every verdict here is checked by ``verify_certificate`` on the
unreduced system; ``lp._settle`` with no FD steps is the unreduced path
a lift miss takes. Networks have at most 6 LP variables, GK auxiliary
included.
"""

import itertools
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from entrolab import INF, lp, rational
from entrolab.auxiliary import pairwise_aux_for_network
from entrolab.core import JointDistribution, LinearFunctional, uniform_bits
from entrolab.lp import (
    Feasible,
    Infeasible,
    LinearSystem,
    Optimal,
    minimize,
    solve_feasibility,
    verify_certificate,
)
from entrolab.network import (
    CapacityTuple,
    Edge,
    FailsCutset,
    FailsFD,
    NetworkProblem,
    Source,
    SourceModel,
    build_lp_constraints,
    cutset_check,
    edge_var_name,
    example1_aux,
    example1_problem,
    fd_bound,
)

CAPACITIES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), INF)


def _bits(nondyadic):
    """Three bits, the first two correlated 9/20, 1/20 when ``nondyadic``."""
    pmf = {}
    for o in itertools.product("01", repeat=3):
        p = Fraction(1, 8)
        if nondyadic:
            p = (Fraction(9, 20) if o[0] == o[1] else Fraction(1, 20)) / 2
        pmf[o] = rational(p)
    return JointDistribution(["b0", "b1", "b2"], [("0", "1")] * 3, pmf)


@st.composite
def networks(draw):
    """1-2 sources of 1-3 pool bits on a 2-4 node line plus chords, at
    most 6 LP variables with the GK auxiliary of a source pair."""
    k = draw(st.integers(1, 2))
    nnodes = draw(st.integers(2, 4))
    nedges = draw(st.integers(nnodes - 1, 5 - k if k == 2 else 5))
    arcs = [(j - 1, j) for j in range(2, nnodes + 1)]
    while len(arcs) < nedges:
        arcs.append(tuple(sorted(draw(st.lists(
            st.integers(1, nnodes), min_size=2, max_size=2, unique=True)))))
    edges = tuple(
        Edge(f"e{n}", t, h, draw(st.sampled_from(CAPACITIES))) for n, (t, h) in enumerate(arcs, 1)
    )
    dist = _bits(draw(st.booleans()))
    sinks = tuple(draw(st.lists(st.integers(2, nnodes), min_size=1, max_size=2, unique=True)))
    sources = []
    for s in range(k):
        picks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        name = f"Y{s + 1}"
        dist = dist.extend(name, lambda o, picks=sorted(picks): "".join(o[i] for i in picks))
        demanded = sinks if draw(st.booleans()) else sinks[:1]
        sources.append(Source(name, draw(st.sampled_from((1, 1, 2))), demanded))
    dist = dist.restrict([s.id for s in sources])
    nodes = tuple(range(1, nnodes + 1))
    return NetworkProblem(nodes, edges, tuple(sources), SourceModel(distribution=dist))


def checked(sys_, res):
    assert verify_certificate(sys_, res)
    return res


@given(networks(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_reduced_verdict_matches_unreduced(p, improve):
    aux = pairwise_aux_for_network(p, "gk")[0] if improve else None
    sys_ = build_lp_constraints(p, aux=aux)
    assert sys_.ground.n <= 6
    res = checked(sys_, solve_feasibility(sys_))
    assert res.trace.path.startswith("reduced") and "lift miss" not in res.trace.misses
    full = checked(sys_, lp._settle(sys_, None, warm=True))
    assert type(res) is type(full)


@given(networks())
@settings(max_examples=40, deadline=None)
def test_cutset_or_fd_failure_implies_infeasible(p):
    res = checked(build_lp_constraints(p), solve_feasibility(build_lp_constraints(p)))
    fails = [fd_bound(p)]
    if len({s.demanded_at for s in p.sources}) == 1:
        fails.append(cutset_check(p))
    if any(isinstance(b, (FailsCutset, FailsFD)) for b in fails):
        assert isinstance(res, Infeasible)


@given(networks())
@settings(max_examples=40, deadline=None)
def test_gk_never_turns_infeasible_feasible(p):
    base = build_lp_constraints(p)
    improved = build_lp_constraints(p, aux=pairwise_aux_for_network(p, "gk")[0])
    if isinstance(checked(base, solve_feasibility(base)), Infeasible):
        assert isinstance(checked(improved, solve_feasibility(improved)), Infeasible)


@given(networks(), st.data())
@settings(max_examples=40, deadline=None)
def test_raising_a_capacity_never_hurts(p, data):
    finite = [e for e in p.edges if e.capacity != INF]
    if not finite:
        return
    e = data.draw(st.sampled_from(finite))
    raised = {f.id: f.capacity for f in finite}
    raised[e.id] += data.draw(st.sampled_from((Fraction(1, 2), Fraction(1))))
    low = build_lp_constraints(p)
    high = build_lp_constraints(p, CapacityTuple(raised))
    if isinstance(checked(low, solve_feasibility(low)), Feasible):
        assert isinstance(checked(high, solve_feasibility(high)), Feasible)


@given(networks(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_warm_equals_cold(p, improve):
    aux = pairwise_aux_for_network(p, "gk")[0] if improve else None
    sys_ = build_lp_constraints(p, aux=aux)
    warm = checked(sys_, solve_feasibility(sys_))
    cold = checked(sys_, solve_feasibility(sys_, warm_start=False))
    assert type(warm) is type(cold)
    assert cold.trace.path == "reduced-exact"


@given(networks(), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_reduced_minimum_matches_unreduced(p, improve, data):
    # minimize one edge's h(U) without its capacity row: the lifted dual
    # must certify the same optimum as the unreduced path
    aux = pairwise_aux_for_network(p, "gk")[0] if improve else None
    full = build_lp_constraints(p, aux=aux)
    edges = [n for n in full.ground.names if n.startswith("U")]
    if not edges:
        return
    u = LinearFunctional(((full.ground.mask([data.draw(st.sampled_from(edges))]), 1),))
    rows = [c for c in full.constraints if not (c.relation == "<=" and c.functional == u)]
    sys_ = LinearSystem(full.ground, rows, objective=u)
    res = checked(sys_, minimize(sys_))
    assert "lift miss" not in res.trace.misses
    unreduced = checked(sys_, lp._settle(sys_, sys_.objective, warm=True))
    assert type(res) is type(unreduced)
    if isinstance(res, Optimal):
        assert res.value == unreduced.value


def _min_capacity(aux, edge, p=None):
    """``minimize`` h(U_e) over the LP of ``p`` (the bundled instance by
    default) without e's capacity row."""
    full = build_lp_constraints(p or example1_problem(), aux=aux)
    u = full.ground.mask([edge_var_name(edge)])
    cap = LinearFunctional(((u, 1),))
    rows = [c for c in full.constraints if not (c.relation == "<=" and c.functional == cap)]
    assert len(rows) == len(full.constraints) - 1
    return LinearSystem(full.ground, rows, objective=cap)


def test_certified_minimum_capacities():
    # the GK common parts raise e1's minimum from 1 to 3/2 and e4's from 1 to 2
    for aux, expected in ((None, {"e1": 1, "e4": 1}),
                          (example1_aux(), {"e1": Fraction(3, 2), "e4": 2})):
        for edge, value in expected.items():
            sys_ = _min_capacity(aux, edge)
            start = time.perf_counter()
            res = minimize(sys_)
            seconds = time.perf_counter() - start
            assert isinstance(res, Optimal) and res.value == value, (edge, res)
            assert res.dual_certificate and verify_certificate(sys_, res)
            if aux is not None:
                assert seconds <= 2, (edge, seconds)


def test_minimum_forced_to_zero_has_an_empty_reduced_dual():
    # h(U1) of an edge out of a node that holds nothing: the FDs map the
    # objective to the class of cl {}, so the exact reduced dual is empty
    # and the lift builds the whole dual from elemental rows
    p = NetworkProblem((1, 2), (Edge("e1", 1, 2, Fraction(0)),), (Source("Y1", 2, (2,)),),
                       SourceModel(distribution=uniform_bits(["Y1"])))
    sys_ = _min_capacity(None, "e1", p)
    res = minimize(sys_)
    assert isinstance(res, Optimal) and res.value == 0
    assert res.dual_certificate and verify_certificate(sys_, res)
    assert res.trace.path == "reduced-float" and res.trace.misses == []


def _reject_reduced_lifts(monkeypatch):
    """Make every lift of a reduced answer flip its multipliers' signs,
    which ``verify_certificate`` rejects."""
    lift = lp._lift_multipliers

    def flipped(sys_, canon, steps, lam, target=()):
        out = lift(sys_, canon, steps, lam, target)
        return {i: -v for i, v in out.items()} if steps and out else out

    monkeypatch.setattr(lp, "_lift_multipliers", flipped)


def test_rejected_lift_reruns_farkas_unreduced(monkeypatch):
    _reject_reduced_lifts(monkeypatch)
    sys_ = build_lp_constraints(example1_problem(), aux=example1_aux())
    res = solve_feasibility(sys_)
    assert isinstance(res, Infeasible) and verify_certificate(sys_, res)
    assert res.trace.path == "full-float" and "lift miss" in res.trace.misses


def test_rejected_lift_reruns_minimum_unreduced(monkeypatch):
    _reject_reduced_lifts(monkeypatch)
    sys_ = _min_capacity(None, "e1")
    res = minimize(sys_)
    assert isinstance(res, Optimal) and res.value == 1 and verify_certificate(sys_, res)
    assert res.trace.path == "full-float" and "lift miss" in res.trace.misses
