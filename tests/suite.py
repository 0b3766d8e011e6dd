"""Regression-suite instances: small networks with explicit code witnesses.

Each instance bundles a problem, a capacity tuple achieved by the given
code (edge functions of the joint source outcome, plus optional source
copies for the decoding variables), and optionally a capacity tuple the
base LP should reject.
"""

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from entrolab import INF, rational
from entrolab.core import JointDistribution, uniform_bits
from entrolab.network import (
    CapacityTuple,
    Edge,
    NetworkProblem,
    Source,
    SourceModel,
    example1_problem,
)


@dataclass(frozen=True)
class Instance:
    name: str
    problem: NetworkProblem
    achievable: CapacityTuple
    edge_functions: Mapping[str, Callable]
    source_copies: Optional[Mapping[str, Callable]] = None
    rejected: Optional[CapacityTuple] = None


def _single_bit(name: str = "Y") -> JointDistribution:
    return uniform_bits(["b"]).extend(name, lambda o: o[0]).restrict([name])


def _two_bits(name: str = "Y") -> JointDistribution:
    return uniform_bits(["b0", "b1"]).extend(name, lambda o: o[0] + o[1]).restrict([name])


def build_suite() -> list[Instance]:
    one = rational(1)
    half = rational(1, 2)
    instances = []

    # 0. bundled three-source instance
    p = example1_problem()
    instances.append(
        Instance(
            "bundled-three-source",
            p,
            CapacityTuple({"e1": one, "e2": one, "e3": one, "e4": one}),
            edge_functions={
                "e1": lambda o: o[0][0],
                "e2": lambda o: o[0][1],
                "e3": lambda o: o[1][1],
                "e4": lambda o: str(int(o[0][1]) ^ int(o[1][1])),
            },
            source_copies={
                "Y3": lambda o: o[0][0] + str(int(o[0][1]) ^ int(o[1][1]))
            },
            rejected=CapacityTuple({"e1": one, "e2": half, "e3": half, "e4": half}),
        )
    )

    # 1. single edge, one uniform bit
    p = NetworkProblem(
        (1, 2),
        (Edge("e1", 1, 2, one),),
        (Source("Y", 1, (2,)),),
        SourceModel(distribution=_single_bit()),
    )
    instances.append(
        Instance(
            "single-edge-bit",
            p,
            CapacityTuple({"e1": one}),
            edge_functions={"e1": lambda o: o[0]},
            rejected=CapacityTuple({"e1": half}),
        )
    )

    # 2. single edge, two-bit source
    p = NetworkProblem(
        (1, 2),
        (Edge("e1", 1, 2, rational(2)),),
        (Source("Y", 1, (2,)),),
        SourceModel(distribution=_two_bits()),
    )
    instances.append(
        Instance(
            "single-edge-two-bits",
            p,
            CapacityTuple({"e1": rational(2)}),
            edge_functions={"e1": lambda o: o[0]},
            rejected=CapacityTuple({"e1": one}),
        )
    )

    # 3. parallel edges splitting a two-bit source
    p = NetworkProblem(
        (1, 2),
        (Edge("e1", 1, 2, one), Edge("e2", 1, 2, one)),
        (Source("Y", 1, (2,)),),
        SourceModel(distribution=_two_bits()),
    )
    instances.append(
        Instance(
            "parallel-edges",
            p,
            CapacityTuple({"e1": one, "e2": one}),
            edge_functions={"e1": lambda o: o[0][0], "e2": lambda o: o[0][1]},
            rejected=CapacityTuple({"e1": one, "e2": half}),
        )
    )

    # 4. relay line 1 -> 2 -> 3
    p = NetworkProblem(
        (1, 2, 3),
        (Edge("e1", 1, 2, one), Edge("e2", 2, 3, one)),
        (Source("Y", 1, (3,)),),
        SourceModel(distribution=_single_bit()),
    )
    instances.append(
        Instance(
            "relay-line",
            p,
            CapacityTuple({"e1": one, "e2": one}),
            edge_functions={"e1": lambda o: o[0], "e2": lambda o: o[0]},
            rejected=CapacityTuple({"e1": one, "e2": half}),
        )
    )

    # 5. butterfly with free fan-out of the coded middle edge
    bits = uniform_bits(["b1", "b2"])
    dist = (
        bits.extend("Y1", lambda o: o[0]).extend("Y2", lambda o: o[1]).restrict(["Y1", "Y2"])
    )
    p = NetworkProblem(
        (1, 2, 3, 4, 5, 6),
        (
            Edge("e1", 1, 3, one),
            Edge("e2", 2, 3, one),
            Edge("e3", 3, 4, one),
            Edge("e4", 1, 5, one),
            Edge("e5", 2, 6, one),
            Edge("r1", 4, 5, INF),
            Edge("r2", 4, 6, INF),
        ),
        (Source("Y1", 1, (6,)), Source("Y2", 2, (5,))),
        SourceModel(distribution=dist),
    )
    xor = lambda o: str(int(o[0]) ^ int(o[1]))
    instances.append(
        Instance(
            "butterfly",
            p,
            CapacityTuple({e: one for e in ("e1", "e2", "e3", "e4", "e5")}),
            edge_functions={
                "e1": lambda o: o[0],
                "e2": lambda o: o[1],
                "e3": xor,
                "e4": lambda o: o[0],
                "e5": lambda o: o[1],
            },
            rejected=CapacityTuple(
                {"e1": one, "e2": one, "e3": half, "e4": one, "e5": one}
            ),
        )
    )

    # 6. correlated pair delivered to one sink
    pair = (
        uniform_bits(["b0", "b1", "b2"])
        .extend("Y1", lambda o: o[0] + o[1])
        .extend("Y2", lambda o: o[0] + o[2])
        .restrict(["Y1", "Y2"])
    )
    p = NetworkProblem(
        (1, 2),
        (Edge("e1", 1, 2, rational(3)),),
        (Source("Y1", 1, (2,)), Source("Y2", 1, (2,))),
        SourceModel(distribution=pair),
    )
    instances.append(
        Instance(
            "correlated-pair-one-sink",
            p,
            CapacityTuple({"e1": rational(3)}),
            edge_functions={"e1": lambda o: o[0] + o[1][1]},
            rejected=CapacityTuple({"e1": rational(2)}),
        )
    )

    # 7. diamond: two disjoint relay paths
    p = NetworkProblem(
        (1, 2, 3, 4),
        (
            Edge("e1", 1, 2, one),
            Edge("e2", 1, 3, one),
            Edge("e3", 2, 4, one),
            Edge("e4", 3, 4, one),
        ),
        (Source("Y", 1, (4,)),),
        SourceModel(distribution=_single_bit()),
    )
    instances.append(
        Instance(
            "diamond",
            p,
            CapacityTuple({"e1": one, "e2": one, "e3": one, "e4": one}),
            edge_functions={e: (lambda o: o[0]) for e in ("e1", "e2", "e3", "e4")},
            rejected=CapacityTuple(
                {"e1": half, "e2": rational(1, 4), "e3": half, "e4": rational(1, 4)}
            ),
        )
    )

    # 8. three independent bits over one fat edge
    three = (
        uniform_bits(["b0", "b1", "b2"])
        .extend("Y1", lambda o: o[0])
        .extend("Y2", lambda o: o[1])
        .extend("Y3", lambda o: o[2])
        .restrict(["Y1", "Y2", "Y3"])
    )
    p = NetworkProblem(
        (1, 2),
        (Edge("e1", 1, 2, rational(3)),),
        (Source("Y1", 1, (2,)), Source("Y2", 1, (2,)), Source("Y3", 1, (2,))),
        SourceModel(distribution=three),
    )
    instances.append(
        Instance(
            "three-bits-one-edge",
            p,
            CapacityTuple({"e1": rational(3)}),
            edge_functions={"e1": lambda o: o[0] + o[1] + o[2]},
            rejected=CapacityTuple({"e1": rational(2)}),
        )
    )

    # 9. identical sources, two sinks
    same = (
        uniform_bits(["b"])
        .extend("Y1", lambda o: o[0])
        .extend("Y2", lambda o: o[0])
        .restrict(["Y1", "Y2"])
    )
    p = NetworkProblem(
        (1, 2, 3),
        (Edge("e1", 1, 2, one), Edge("e2", 1, 3, one)),
        (Source("Y1", 1, (2,)), Source("Y2", 1, (3,))),
        SourceModel(distribution=same),
    )
    instances.append(
        Instance(
            "identical-sources-two-sinks",
            p,
            CapacityTuple({"e1": one, "e2": one}),
            edge_functions={"e1": lambda o: o[0], "e2": lambda o: o[0]},
            rejected=CapacityTuple({"e1": one, "e2": half}),
        )
    )
    return instances
