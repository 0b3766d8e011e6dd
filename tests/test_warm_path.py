"""The warm path alone settles every verdict of these families.

``entrolab.lp.simplex_solve`` (the exact fallback) is replaced by
a function that raises, so each verdict below must come from a
HiGHS solve made exact, and must pass ``verify_certificate``. Each
must also come from the FD-reduced rows, lifted without a miss.
"""

import itertools
import random
from fractions import Fraction

import pytest

import entrolab.lp
from entrolab import rational
from entrolab.auxiliary import pairwise_aux_for_network
from entrolab.core import GroundSet, JointDistribution, LinearFunctional
from entrolab.lp import (
    Feasible,
    Infeasible,
    LinearConstraint,
    LinearSystem,
    Optimal,
    minimize,
    solve_feasibility,
    verify_certificate,
)
from entrolab.network import (
    AuxSpec,
    CapacityTuple,
    Edge,
    NetworkProblem,
    Source,
    SourceModel,
    build_lp_constraints,
    example1_aux,
    example1_problem,
)

from suite import build_suite


@pytest.fixture(autouse=True)
def no_fallback(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a warm verdict reached the exact simplex fallback")

    monkeypatch.setattr(entrolab.lp, "simplex_solve", forbidden)


def warm_verdict(sys_):
    res = solve_feasibility(sys_)
    assert verify_certificate(sys_, res)
    assert res.trace.path == "reduced-float" and not res.trace.misses, res.trace
    return res


def test_suite_instances_base_and_improved():
    for inst in build_suite():
        aux, _ = pairwise_aux_for_network(inst.problem, "gk")
        base = warm_verdict(build_lp_constraints(inst.problem, inst.achievable))
        assert isinstance(base, Feasible), inst.name
        warm_verdict(build_lp_constraints(inst.problem, inst.achievable, aux=aux))
        base = warm_verdict(build_lp_constraints(inst.problem, inst.rejected))
        assert isinstance(base, Infeasible), inst.name
        improved = warm_verdict(build_lp_constraints(inst.problem, inst.rejected, aux=aux))
        assert isinstance(improved, Infeasible), inst.name


def test_bundled_base_and_gk_lps():
    p = example1_problem()
    assert isinstance(warm_verdict(build_lp_constraints(p)), Feasible)
    assert isinstance(warm_verdict(build_lp_constraints(p, aux=example1_aux())), Infeasible)


def test_relabelled_gk_lp_with_small_wrong_signed_duals():
    # this arrangement of the bundled GK LP has elastic duals of about
    # 1e-7 with the wrong sign unless HiGHS runs at tolerances tighter
    # than its 1e-7 defaults; at the defaults the Farkas support misses
    # rows the certificate needs and the verdict needs the exact simplex
    p = example1_problem()
    order = {s.id: s for s in p.sources}
    sources = tuple(order[k] for k in ("Y1", "Y3", "Y2"))
    edges = {e.id: e for e in p.edges}
    edges = tuple(edges[k] for k in ("e3", "e2", "r3", "e1", "e4", "r1", "r2"))
    p = NetworkProblem(p.nodes, edges, sources, p.source_model)
    gk, _ = pairwise_aux_for_network(p, "gk")
    gk = AuxSpec(functions=tuple(gk.functions[i] for i in (1, 0, 2)))
    assert [f.id for f in gk.functions] == ["K13", "K12", "K23"]
    caps = CapacityTuple({k: 1 for k in ("e1", "e2", "e3", "e4")})
    assert isinstance(warm_verdict(build_lp_constraints(p, caps, aux=gk)), Infeasible)


def test_farkas_support_without_full_rank():
    # three independent contradictions x_k >= 1, x_k <= 0: the elastic
    # duals are +-1 with sum lam_i b_i = 3, and the support system leaves
    # two multipliers free, so only anchors rescaled to sum 1 give a
    # certificate with the right signs
    g = GroundSet(("A", "B", "C"))
    rows = []
    for k in range(3):
        x = LinearFunctional(((1 << k, 1),))
        rows += [LinearConstraint(x, ">=", 1), LinearConstraint(x, "<=", 0)]
    res = warm_verdict(LinearSystem(g, rows))
    assert isinstance(res, Infeasible)


def test_minimize_optimal_and_infeasible():
    # the objective solve gives the optimum and its dual certificate; an
    # infeasible system takes its certificate from the elastic solve
    inst = build_suite()[1]
    for caps, expected in ((inst.achievable, Optimal), (inst.rejected, Infeasible)):
        base = build_lp_constraints(inst.problem, caps)
        total = LinearFunctional(((base.ground.full_mask, 1),))
        sys_ = LinearSystem(base.ground, base.constraints, objective=total)
        res = minimize(sys_)
        assert isinstance(res, expected) and verify_certificate(sys_, res)
        assert res.trace.path == "reduced-float" and not res.trace.misses, res.trace
        if expected is Optimal:
            assert res.dual_certificate


def _bits(nondyadic):
    """Three bits, the first two correlated 9/20, 1/20 when ``nondyadic``
    (so the entropies carry 2^64 denominators)."""
    pmf = {}
    for o in itertools.product("01", repeat=3):
        p = Fraction(1, 8)
        if nondyadic:
            p = (Fraction(9, 20) if o[0] == o[1] else Fraction(1, 20)) / 2
        pmf[o] = rational(p)
    return JointDistribution(["b0", "b1", "b2"], [("0", "1")] * 3, pmf)


def _random_network(rng):
    """1-2 sources of 1-3 pool bits on a 2-4 node line-plus-chords graph,
    at most 6 LP variables, with capacities from {0, 1/2, 1, 3/2}."""
    k = rng.randint(1, 2)
    nnodes = rng.randint(2, 4)
    nedges = rng.randint(nnodes - 1, 6 - k)
    arcs = [(j - 1, j) for j in range(2, nnodes + 1)]
    while len(arcs) < nedges:
        i, j = sorted(rng.sample(range(1, nnodes + 1), 2))
        arcs.append((i, j))
    edges = tuple(
        Edge(f"e{n}", t, h, rational(rng.randint(0, 3), 2)) for n, (t, h) in enumerate(arcs, 1)
    )
    dist = _bits(nondyadic=rng.random() < 0.5)
    names = []
    for s in range(k):
        picks = sorted(rng.sample(range(3), rng.randint(1, 3)))
        dist = dist.extend(f"Y{s + 1}", lambda o, picks=picks: "".join(o[i] for i in picks))
        names.append(f"Y{s + 1}")
    dist = dist.restrict(names)
    sources = tuple(Source(name, 1, (nnodes,)) for name in names)
    return NetworkProblem(tuple(range(1, nnodes + 1)), edges, sources, SourceModel(distribution=dist))


def test_random_small_networks():
    rng = random.Random(20240603)
    infeasible = 0
    for _ in range(40):
        p = _random_network(rng)
        sys_ = build_lp_constraints(p)
        assert sys_.ground.n <= 6
        infeasible += isinstance(warm_verdict(sys_), Infeasible)
        aux, _ = pairwise_aux_for_network(p, "gk")
        improved = build_lp_constraints(p, aux=aux)
        if improved.ground.n <= 6:
            infeasible += isinstance(warm_verdict(improved), Infeasible)
    assert infeasible >= 40

