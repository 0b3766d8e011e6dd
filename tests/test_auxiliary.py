import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from entrolab import rational
from entrolab.core import (
    DomainError,
    JointDistribution,
    binary_entropy,
    entropy_vector_of,
    uniform_bits,
)
from entrolab.auxiliary import (
    GF,
    SubspaceModel,
    delta_star_search,
    gk_common_information,
    linear_basis_aux,
    pairwise_aux_for_network,
)
from entrolab.network import example1_problem


def pair_dist(pmf):
    xs = tuple(sorted({x for x, _ in pmf}))
    ys = tuple(sorted({y for _, y in pmf}))
    return JointDistribution(["X", "Y"], [xs, ys], pmf)


def bsc_pair(eps=Fraction(1, 10)):
    pmf = {}
    for x in "01":
        for z in "01":
            y = str(int(x) ^ int(z))
            pz = eps if z == "1" else 1 - eps
            pmf[(x, y)] = pmf.get((x, y), Fraction(0)) + Fraction(1, 2) * pz
    return pair_dist(pmf)


def test_gk_on_shifted_bit_pairs():
    p = example1_problem()
    d = p.source_model.distribution
    for a, b, shared in [("Y1", "Y2", 0), ("Y1", "Y3", 1), ("Y2", "Y3", 1)]:
        gk = gk_common_information(d.restrict([a, b]))
        assert gk.entropy == 1
        assert len(gk.components) == 2
        # K is exactly the shared bit of the pair
        assert all(gk.label_of(x) == x[shared] or gk.label_of(x) == str(1 - int(x[shared]))
                   for x in gk.x_label)
        labels = {x: gk.label_of(x) for x in gk.x_label}
        assert len(set(labels.values())) == 2


def test_gk_independent_pair_is_constant():
    d = uniform_bits(["X", "Y"])
    gk = gk_common_information(d)
    assert gk.entropy == 0
    assert len(gk.components) == 1


def test_gk_identity_pair():
    pmf = {(s, s): rational(1, 4) for s in "abcd"}
    gk = gk_common_information(pair_dist(pmf))
    assert gk.entropy == 2
    assert len(gk.components) == 4


def test_gk_requires_two_variables():
    with pytest.raises(DomainError):
        gk_common_information(uniform_bits(["A", "B", "C"]))


def test_gk_functional_invariants():
    # H(K|X) = H(K|Y) = 0 by construction: the label is a function of
    # either coordinate
    d = bsc_pair(Fraction(0))  # X = Y
    gk = gk_common_information(d)
    assert gk.entropy == 1
    for (x, y) in d.pmf:
        assert gk.x_label[x] == gk.y_label[y]


def brute_force_common_entropy(d):
    """Max entropy over deterministic pairs f(X) = g(Y), exhaustively."""
    from entrolab.core import _entropy_of_probs

    xs = sorted({x for x, _ in d.pmf})
    ys = sorted({y for _, y in d.pmf})
    best = 0.0
    kmax = min(len(xs), len(ys))
    for fk in itertools.product(range(kmax), repeat=len(xs)):
        gmap = {}
        ok = True
        for (x, y), p in d.pmf.items():
            want = fk[xs.index(x)]
            if gmap.setdefault(y, want) != want:
                ok = False
                break
        if not ok:
            continue
        probs = {}
        for (x, y), p in d.pmf.items():
            probs[fk[xs.index(x)]] = probs.get(fk[xs.index(x)], rational(0)) + p
        h, _ = _entropy_of_probs(list(probs.values()))
        best = max(best, float(h))
    return best


def test_gk_maximality_against_exhaustion():
    rng = random.Random(5)
    for trial in range(20):
        nx, ny = rng.choice([(2, 2), (3, 2), (3, 3), (4, 3)])
        pmf = {}
        for x in range(nx):
            for y in range(ny):
                if rng.random() < 0.6:
                    pmf[(str(x), str(y))] = rng.randrange(1, 9)
        if not pmf:
            continue
        total = sum(pmf.values())
        pmf = {k: rational(v, total) for k, v in pmf.items()}
        xs = tuple(sorted({x for x, _ in pmf}))
        ys = tuple(sorted({y for _, y in pmf}))
        d = JointDistribution(["X", "Y"], [xs, ys], pmf)
        gk = gk_common_information(d)
        assert abs(float(gk.entropy) - brute_force_common_entropy(d)) < 1e-9


def test_delta_search_identity_pair_zero():
    pmf = {(s, s): rational(1, 2) for s in "01"}
    res = delta_star_search(pair_dist(pmf), seed=1)
    assert res.delta_achieved <= 1e-9


def test_delta_search_independent_k1():
    res = delta_star_search(uniform_bits(["X", "Y"]), k_alphabet=1, seed=1)
    assert res.delta_achieved <= 1e-9  # I(X;Y) = 0


def test_delta_search_bsc_beats_k_equals_x():
    res = delta_star_search(bsc_pair(), seed=3)
    assert res.delta_achieved <= binary_entropy(0.1) + 1e-6
    assert max(res.components) == pytest.approx(res.delta_achieved)


def test_delta_search_monotone_in_restarts():
    d = bsc_pair(Fraction(1, 4))
    base = delta_star_search(d, restarts=1, seed=9).delta_achieved
    more = delta_star_search(d, restarts=4, seed=9).delta_achieved
    assert more <= base + 1e-12


def test_pairwise_gk_on_example1():
    p = example1_problem()
    spec, rows = pairwise_aux_for_network(p, "gk")
    assert spec.names == ("K12", "K13", "K23")
    assert rows == []
    assert all(f.of for f in spec.functions)


def test_pairwise_gk_independent_sources_vacuous():
    from entrolab.network import Edge, NetworkProblem, Source, SourceModel

    dist = (
        uniform_bits(["b0", "b1"])
        .extend("Y1", lambda o: o[0])
        .extend("Y2", lambda o: o[1])
        .restrict(["Y1", "Y2"])
    )
    p = NetworkProblem(
        (1, 2),
        (Edge("e1", 1, 2, rational(2)),),
        (Source("Y1", 1, (2,)), Source("Y2", 1, (2,))),
        SourceModel(distribution=dist),
    )
    spec, rows = pairwise_aux_for_network(p, "gk")
    assert spec.is_empty()


def test_pairwise_delta_rows():
    p = example1_problem()
    spec, rows = pairwise_aux_for_network(p, "delta", seed=2, restarts=1, resolution=4)
    assert len(rows) == 9  # three rows per source pair
    assert spec.names == ("K12", "K13", "K23")


def test_gf_prime_and_prime_power_axioms():
    for q in (2, 3, 5, 4, 8, 9):
        f = GF(q)
        for a in range(q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in range(q):
            for b in range(q):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)


def test_gf_tables_pinned():
    """Every element keeps its meaning: the modulus and the add, mul, neg
    and inv tables of all 70 fields q <= 256 hash to a recorded digest."""
    h = hashlib.sha256()
    orders = []
    for q in range(2, 257):
        try:
            f = GF(q)
        except DomainError:
            continue
        orders.append(q)
        r = range(q)
        h.update(q.to_bytes(2, "big") + bytes(f.poly if f.k > 1 else []))
        h.update(bytes(f.add(a, b) for a in r for b in r))
        h.update(bytes(f.mul(a, b) for a in r for b in r))
        h.update(bytes(f.neg(a) for a in r))
        h.update(bytes(f.inv(a) for a in r[1:]))
    assert len(orders) == 70
    assert h.hexdigest() == "d2d5e45f78102c8983ace910fd3172d9f8a8e006d314e8a3c4c1ac2057ebc350"


def test_gf_rejects_non_prime_power():
    with pytest.raises(DomainError):
        GF(6)


def test_linear_basis_rows_exact_small_fields():
    cases = [
        (2, 3, {"Y1": [[1, 0, 0], [0, 1, 0]], "Y2": [[1, 0, 0], [0, 0, 1]], "Y3": [[0, 1, 0], [0, 0, 1]]}),
        (3, 2, {"Y1": [[1, 1]]}),
        (4, 2, {"Y1": [[1, 2]], "Y2": [[1, 0], [0, 1]]}),
        (2, 4, {"Y1": [[1, 0, 0, 0], [0, 1, 0, 0]], "Y2": [[1, 1, 1, 1]]}),
    ]
    for q, m, gens in cases:
        model = SubspaceModel(q, m, gens)
        spec, rows = linear_basis_aux(model)
        hv = entropy_vector_of(model.distribution())
        g = hv.ground
        for terms, rel, rhs in rows:
            lhs = sum(c * hv.value(g.mask(ns)) for c, ns in terms)
            assert lhs == rhs, (q, m, terms)


def test_linear_basis_example_entropies():
    model = SubspaceModel(
        2, 3,
        {"Y1": [[1, 0, 0], [0, 1, 0]], "Y2": [[1, 0, 0], [0, 0, 1]], "Y3": [[0, 1, 0], [0, 0, 1]]},
    )
    spec, rows = linear_basis_aux(model)
    # H(K_a) = |a| bits over F_2
    for terms, rel, rhs in rows:
        if len(terms) == 1 and all(n.startswith("K") for n in terms[0][1]):
            assert rhs == len(terms[0][1])


def test_dependent_columns_reduced_with_warning():
    with pytest.warns(UserWarning):
        model = SubspaceModel(2, 2, {"Y1": [[1, 0], [1, 0]]})
    assert len(model.generators["Y1"]) == 1


def test_subspace_model_validation():
    with pytest.raises(DomainError):
        SubspaceModel(2, 2, {"Y1": [[1, 0, 0]]})
    with pytest.raises(DomainError):
        SubspaceModel(2, 2, {"Y1": [[1, 5]]})
