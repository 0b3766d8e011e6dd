import json

import pytest

from entrolab import INF, rational
from entrolab.core import DomainError, entropy_vector_of, uniform_bits
from entrolab.lp import Feasible, Infeasible, solve_feasibility, verify_certificate
from entrolab.network import (
    AuxSpec,
    CapacityTuple,
    Edge,
    FailsCutset,
    FailsFD,
    MaybeAchievable,
    NetworkProblem,
    NotAchievable,
    PassesCutset,
    PassesFD,
    Source,
    SourceModel,
    build_lp_constraints,
    check_lp_bound,
    code_witness,
    cutset_check,
    example1_aux,
    example1_problem,
    example1_witness,
    fd_bound,
    load_problem,
    problem_to_json,
    save_problem,
    witness_satisfies,
)

from suite import build_suite


def caps(p, text):
    return CapacityTuple.parse(text, p)


def single_bit_problem(capacity):
    dist = uniform_bits(["b"]).extend("Y", lambda o: o[0]).restrict(["Y"])
    return NetworkProblem(
        (1, 2),
        (Edge("e1", 1, 2, capacity),),
        (Source("Y", 1, (2,)),),
        SourceModel(distribution=dist),
    )


def test_example1_base_lp_feasible_with_exact_witness():
    p = example1_problem()
    C = caps(p, "1,1,1,1")
    sys = build_lp_constraints(p, C)
    assert sys.ground.names == ("Y1", "Y2", "Y3", "U1", "U2", "U3", "U4")
    w = example1_witness(p)
    assert w.exact
    assert witness_satisfies(sys, w)
    res = check_lp_bound(p, C)
    assert isinstance(res, MaybeAchievable)
    assert verify_certificate(sys, Feasible(res.witness))


def test_example1_improved_lp_infeasible():
    p = example1_problem()
    C = caps(p, "1,1,1,1")
    sys = build_lp_constraints(p, C, aux=example1_aux())
    assert len(sys.ground.names) == 10
    res = solve_feasibility(sys)
    assert isinstance(res, Infeasible)
    assert verify_certificate(sys, res)


def test_single_edge_bit():
    p = single_bit_problem(rational(1))
    assert isinstance(check_lp_bound(p, caps(p, "1")), MaybeAchievable)
    res = check_lp_bound(p, caps(p, "1/2"))
    assert isinstance(res, NotAchievable)
    assert verify_certificate(res.system, Infeasible(res.certificate))


def test_no_demands_always_feasible():
    dist = uniform_bits(["b"]).extend("Y", lambda o: o[0]).restrict(["Y"])
    p = NetworkProblem(
        (1, 2),
        (Edge("e1", 1, 2, rational(0)),),
        (Source("Y", 1, ()),),
        SourceModel(distribution=dist),
    )
    assert isinstance(check_lp_bound(p), MaybeAchievable)


def test_empty_aux_reduces_to_base():
    p = example1_problem()
    C = caps(p, "1,1,1,1")
    base = build_lp_constraints(p, C)
    improved = build_lp_constraints(p, C, aux=AuxSpec())
    assert base.ground.names == improved.ground.names
    assert len(base.constraints) == len(improved.constraints)


def test_relay_over_infinite_edge_is_achievable():
    # the sink sees the source itself through the contracted infinite
    # edge, so decoding adds no row and the tuple stays achievable
    dist = uniform_bits(["b0", "b1"]).extend("Y1", lambda o: o[0] + o[1]).restrict(["Y1"])
    p = NetworkProblem(
        (1, 2, 3),
        (Edge("e1", 1, 2, rational(2)), Edge("r1", 1, 3, INF)),
        (Source("Y1", 1, (3,)),),
        SourceModel(distribution=dist),
    )
    res = check_lp_bound(p)
    assert isinstance(res, MaybeAchievable)
    assert verify_certificate(build_lp_constraints(p), Feasible(res.witness))


def test_source_only_edge_carries_constant():
    # an edge whose tail sees nothing must carry a constant
    dist = uniform_bits(["b"]).extend("Y", lambda o: o[0]).restrict(["Y"])
    p = NetworkProblem(
        (1, 2, 3),
        (Edge("e1", 1, 2, rational(1)), Edge("e2", 3, 2, rational(1))),
        (Source("Y", 1, (2,)),),
        SourceModel(distribution=dist),
    )
    sys = build_lp_constraints(p)
    rendered = sys.render()
    assert "1*h{U2} = 0" in rendered


def test_monotonicity_in_capacities():
    p = example1_problem()
    assert isinstance(check_lp_bound(p, caps(p, "1,1,1,1")), MaybeAchievable)
    assert isinstance(check_lp_bound(p, caps(p, "2,1,1,1")), MaybeAchievable)
    tight = check_lp_bound(p, caps(p, "1,1/2,1/2,1/2"))
    assert isinstance(tight, NotAchievable)


def test_cutset_requires_all_demands():
    p = example1_problem()
    with pytest.raises(DomainError):
        cutset_check(p, caps(p, "1,1,1,1"))


def all_demand_example1():
    base = example1_problem()
    sources = tuple(
        Source(s.id, s.at, (3, 4, 5)) for s in base.sources
    )
    return NetworkProblem(base.nodes, base.edges, sources, base.source_model)


def test_cutset_on_all_demand_variant():
    p = all_demand_example1()
    # at unit capacities each sink can receive at most 2 bits but
    # demands all 3: the cut isolating a sink with node 2 is violated
    res = cutset_check(p, caps(p, "1,1,1,1"))
    assert isinstance(res, FailsCutset)
    assert res.lhs == 3 and res.rhs == 2
    # consistent with the LP bound rejecting the same tuple
    assert isinstance(check_lp_bound(p, caps(p, "1,1,1,1")), NotAchievable)
    # widening the shared and the worst private edge clears every cut
    res2 = cutset_check(p, caps(p, "2,1,1,2"))
    assert isinstance(res2, PassesCutset)
    assert res2.cuts_checked > 0


def test_cutset_fails_single_edge():
    p = single_bit_problem(rational(1))
    res = cutset_check(p, caps(p, "1/2"))
    assert isinstance(res, FailsCutset)
    assert res.lhs == 1 and res.rhs == rational(1, 2)


def test_fd_single_edge():
    p = single_bit_problem(rational(1))
    assert isinstance(fd_bound(p, caps(p, "1")), PassesFD)
    res = fd_bound(p, caps(p, "1/2"))
    assert isinstance(res, FailsFD)
    assert res.edge_set == ("e1",)


def test_fd_example1():
    p = example1_problem()
    assert isinstance(fd_bound(p, caps(p, "1,1,1,1")), PassesFD)
    # starving all four outgoing edges pushes the joint bound below
    # H(Y1,Y2,Y3) = 3
    res = fd_bound(p, caps(p, "1/2,1/2,1/2,1/2"))
    assert isinstance(res, FailsFD)


def test_fd_infinite_capacities_pass():
    p = example1_problem()
    res = fd_bound(p, CapacityTuple({e.id: INF for e in p.edges}))
    assert isinstance(res, PassesFD)


def test_fd_unresolvable_demand_warns_vacuous():
    dist = uniform_bits(["b"]).extend("Y", lambda o: o[0]).restrict(["Y"])
    # the sink is fed only through a cycle of infinite edges that can
    # never bootstrap, and infinite edges cannot enter the resolving set
    p = NetworkProblem(
        (1, 2, 3),
        (
            Edge("e1", 1, 2, rational(1)),
            Edge("r1", 2, 3, INF),
            Edge("r2", 3, 2, INF),
        ),
        (Source("Y", 1, (3,)),),
        SourceModel(distribution=dist),
    )
    res = fd_bound(p)
    assert isinstance(res, PassesFD)
    assert res.warnings


def test_fd_source_at_its_own_sink():
    # the sink holds the source, so an edge of capacity 0 into it bounds
    # nothing; the LP has no decoding row there and is Feasible
    dist = uniform_bits(["b"]).extend("Y", lambda o: o[0]).restrict(["Y"])
    p = NetworkProblem(
        (1, 2),
        (Edge("e1", 1, 2, rational(0)),),
        (Source("Y", 2, (2,)),),
        SourceModel(distribution=dist),
    )
    assert isinstance(fd_bound(p), PassesFD)
    assert isinstance(check_lp_bound(p), MaybeAchievable)


def test_problem_json_round_trip(tmp_path):
    p = example1_problem()
    path = tmp_path / "problem.json"
    save_problem(p, str(path))
    q = load_problem(str(path))
    assert q.nodes == p.nodes
    assert [e.id for e in q.edges] == [e.id for e in p.edges]
    assert q.source_model.distribution.pmf == p.source_model.distribution.pmf


def test_problem_file_bad_pmf_rejected(tmp_path):
    p = example1_problem()
    data = problem_to_json(p)
    data["distribution"]["pmf"][0]["p"] = "1/2"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(DomainError):
        load_problem(str(path))


def test_problem_validation():
    dist = uniform_bits(["b"]).extend("Y", lambda o: o[0]).restrict(["Y"])
    with pytest.raises(DomainError):
        Edge("e1", 1, 1, rational(1))
    with pytest.raises(DomainError):
        NetworkProblem(
            (1,),
            (Edge("e1", 1, 2, rational(1)),),
            (Source("Y", 1, ()),),
            SourceModel(distribution=dist),
        )


def test_capacity_parse_named_and_positional():
    p = example1_problem()
    a = CapacityTuple.parse("e1=1,e2=1/2,e3=1,e4=1", p)
    b = CapacityTuple.parse("1,1/2,1,1", p)
    assert a.values == b.values
    with pytest.raises(DomainError):
        CapacityTuple.parse("1,1", p)


def test_entropies_only_model():
    dist = uniform_bits(["b"]).extend("Y", lambda o: o[0]).restrict(["Y"])
    hv = entropy_vector_of(dist)
    p = NetworkProblem(
        (1, 2),
        (Edge("e1", 1, 2, rational(1)),),
        (Source("Y", 1, (2,)),),
        SourceModel(entropies=hv),
    )
    assert isinstance(check_lp_bound(p, CapacityTuple({"e1": rational(1)})), MaybeAchievable)
    res = check_lp_bound(p, CapacityTuple({"e1": rational(1, 2)}))
    assert isinstance(res, NotAchievable)


def test_regression_suite_ordering():
    from entrolab.auxiliary import pairwise_aux_for_network

    for inst in build_suite():
        p = inst.problem
        w = code_witness(p, inst.edge_functions, inst.source_copies, inst.achievable)
        base_sys = build_lp_constraints(p, inst.achievable)
        assert witness_satisfies(base_sys, w), inst.name
        aux, _ = pairwise_aux_for_network(p, "gk")
        for C, expect_base_feasible in ((inst.achievable, True), (inst.rejected, None)):
            if C is None:
                continue
            base = check_lp_bound(p, C)
            if expect_base_feasible:
                assert isinstance(base, MaybeAchievable), inst.name
            improved = check_lp_bound(p, C, aux=aux)
            # improved must never accept what the base rejects
            if isinstance(base, NotAchievable):
                assert isinstance(improved, NotAchievable), inst.name
            if isinstance(base, MaybeAchievable) and expect_base_feasible:
                # cutset/fd never reject a witness-achievable tuple
                try:
                    cs = cutset_check(p, C)
                    assert isinstance(cs, PassesCutset), inst.name
                except DomainError:
                    pass  # bound not applicable to this demand pattern
                assert isinstance(fd_bound(p, C), PassesFD), inst.name
