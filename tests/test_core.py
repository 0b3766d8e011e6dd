import itertools
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolab import rational
from entrolab.core import (
    DomainError,
    EntropyVector,
    GroundSet,
    JointDistribution,
    binary_entropy,
    binary_entropy_inverse,
    conditional_functional,
    distribution_from_json,
    distribution_to_json,
    elemental_count,
    elemental_inequalities,
    entropy_of,
    entropy_vector_of,
    is_polymatroid,
    mutual_functional,
    uniform_bits,
)


def test_uniform_bits_entropies():
    d = uniform_bits(["b0", "b1", "b2"])
    assert entropy_of(d, ("b0",)) == 1
    assert entropy_of(d, ("b0", "b1")) == 2
    assert entropy_of(d, ("b0", "b1", "b2")) == 3


def test_entropy_of_empty_subset_rejected():
    d = uniform_bits(["b0"])
    with pytest.raises(DomainError):
        entropy_of(d, 0)


def test_pairwise_correlated_triple_vector():
    d = (
        uniform_bits(["b0", "b1", "b2"])
        .extend("Y1", lambda o: o[0] + o[1])
        .extend("Y2", lambda o: o[0] + o[2])
        .extend("Y3", lambda o: o[1] + o[2])
        .restrict(["Y1", "Y2", "Y3"])
    )
    hv = entropy_vector_of(d)
    assert hv.exact
    g = hv.ground
    singles = sorted(hv.value(g.mask([n])) for n in g.names)
    pairs = sorted(
        hv.value(g.mask(c)) for c in itertools.combinations(g.names, 2)
    )
    assert singles == [2, 2, 2]
    assert pairs == [3, 3, 3]
    assert hv.value(g.full_mask) == 3


def test_elemental_counts_match_closed_form():
    for n in range(2, 11):
        assert len(elemental_inequalities(n)) == n + math.comb(n, 2) * (1 << (n - 2))
        assert elemental_count(n) == len(elemental_inequalities(n))
    assert elemental_count(1) == len(elemental_inequalities(1)) == 1


def test_dyadic_entropy_is_exact_and_nondyadic_is_flagged():
    d = JointDistribution(
        ["X"], [("a", "b", "c")],
        {("a",): rational("1/2"), ("b",): rational("1/4"), ("c",): rational("1/4")},
    )
    hv = entropy_vector_of(d)
    assert hv.exact
    assert hv.value(1) == rational("3/2")
    d2 = JointDistribution(
        ["X"], [("a", "b", "c")],
        {("a",): rational("1/3"), ("b",): rational("1/3"), ("c",): rational("1/3")},
    )
    hv2 = entropy_vector_of(d2)
    assert not hv2.exact
    assert abs(float(hv2.value(1)) - math.log2(3)) < 1e-15


def test_entropic_vectors_are_polymatroids():
    rng = random.Random(11)
    for trial in range(60):
        n = rng.choice([2, 3, 4])
        sizes = [rng.choice([2, 3]) for _ in range(n)]
        outcomes = list(itertools.product(*(tuple(str(v) for v in range(s)) for s in sizes)))
        weights = [rng.randrange(1, 16) for _ in outcomes]
        total = sum(weights)
        pmf = {o: rational(w, total) for o, w in zip(outcomes, weights)}
        d = JointDistribution(
            [f"X{i}" for i in range(n)],
            [tuple(str(v) for v in range(s)) for s in sizes],
            pmf,
        )
        ok, violated = is_polymatroid(entropy_vector_of(d))
        assert ok, violated


def test_is_polymatroid_detects_violation():
    g = GroundSet(("A", "B"))
    bad = EntropyVector(g, {1: rational(2), 2: rational(2), 3: rational(1)}, exact=True)
    ok, violated = is_polymatroid(bad)
    assert not ok and violated


def test_functional_rendering_and_evaluation():
    g = GroundSet(("A", "B"))
    f = conditional_functional(1, 2)
    h = EntropyVector(g, {1: rational(1), 2: rational(1), 3: rational(2)}, exact=True)
    assert f.evaluate(h) == 1
    assert "h{" in f.render(g)
    m = mutual_functional(1, 2, 0)
    assert m.evaluate(h) == 0


def test_ground_set_validation():
    with pytest.raises(DomainError):
        GroundSet(("A", "A"))
    with pytest.raises(DomainError):
        GroundSet(("",))


def test_distribution_json_round_trip():
    d = (
        uniform_bits(["b0", "b1"])
        .extend("Y", lambda o: o[0] + o[1])
        .restrict(["Y"])
    )
    blob = distribution_to_json(d)
    back = distribution_from_json(blob)
    assert back.names == d.names
    assert back.pmf == d.pmf


def test_distribution_rejects_bad_pmf():
    with pytest.raises(DomainError):
        JointDistribution(["X"], [("0", "1")], {("0",): rational("1/2")})
    with pytest.raises(DomainError):
        JointDistribution(
            ["X"], [("0", "1")],
            {("0",): rational("3/2"), ("1",): rational("-1/2")},
        )


@given(st.floats(min_value=1e-9, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_binary_entropy_inverse_round_trip(q):
    assert abs(binary_entropy_inverse(binary_entropy(q)) - q) < 1e-10


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_binary_entropy_inverse_monotone(a, b):
    lo, hi = sorted((a, b))
    assert binary_entropy_inverse(lo) <= binary_entropy_inverse(hi) + 1e-12


def old_binary_entropy_inverse(delta):
    """Verbatim copy of the inverse before its float stage: all seventy
    bisection steps in 40 digits."""
    delta = float(delta)
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"entropy {delta} outside [0, 1]")
    if delta == 0.0:
        return 0.0
    with mpmath.workdps(40):
        target = mpmath.mpf(delta)

        def h(q):
            return -q * mpmath.log(q, 2) - (1 - q) * mpmath.log(1 - q, 2)

        lo, hi = mpmath.mpf(0), mpmath.mpf("0.5")
        for _ in range(70):
            mid = (lo + hi) / 2
            if h(mid) < target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def same_float(a, b):
    return a.hex() == b.hex()


EDGE_DELTAS = (
    [0.0, 1.0, 1.0 - 2.0**-53, 2.0**-1074]
    + [binary_entropy(2.0**-k) for k in range(1, 80)]
    + [binary_entropy(0.5 - 2.0**-k) for k in range(2, 54)]
    + [1.0 - k * 2.0**-53 for k in range(2, 64)]  # where h_b is flattest
)


def test_binary_entropy_inverse_matches_old_bisection_at_edges():
    for delta in EDGE_DELTAS:
        assert same_float(binary_entropy_inverse(delta), old_binary_entropy_inverse(delta)), delta


@given(st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.5).map(binary_entropy),
    st.integers(min_value=0, max_value=1 << 20).map(lambda k: 1.0 - k * 2.0**-53),
))
@settings(max_examples=300, deadline=None)
def test_binary_entropy_inverse_matches_old_bisection(delta):
    assert same_float(binary_entropy_inverse(delta), old_binary_entropy_inverse(delta))


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-0.1)
    with pytest.raises(DomainError):
        binary_entropy_inverse(1.5)


def test_extend_and_restrict_consistency():
    d = uniform_bits(["b0", "b1"])
    e = d.extend("s", lambda o: str(int(o[0]) ^ int(o[1])))
    assert entropy_of(e, ("s",)) == 1
    assert entropy_of(e, ("b0", "b1", "s")) == 2
    r = e.restrict(["s"])
    assert r.names == ("s",)
