"""The delta* search against a reference copy of the full-rescoring search.

``old_delta_star_search`` and ``old_delta_components`` are verbatim copies
of the search that re-scored the whole conditional for every candidate
move, before it kept running sums per move. The package must return an
equal ``DeltaSearchResult``: the same value, conditional and components.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from entrolab.auxiliary import DeltaSearchResult, delta_star_search, gk_common_information
from entrolab.core import DomainError, JointDistribution
from entrolab.network import example1_problem


# --- reference copies -------------------------------------------------------------


def _plogp(p):
    return -p * math.log2(p) if p > 0 else 0.0


def old_delta_components(classes, probs, q, k_size):
    masses = [
        [[sum(probs[i] * q[i][k] for i in cls) for k in range(k_size)] for cls in side]
        for side in classes
    ]
    h_given = []
    for side, side_masses in zip(classes, masses):
        h = 0.0
        for cls, mass in zip(side, side_masses):
            pc = sum(probs[i] for i in cls)
            for k in range(k_size):
                h += pc * _plogp(mass[k] / pc)
        h_given.append(h)
    ixy_k = 0.0
    for k in range(k_size):
        rk = sum(probs[i] * q[i][k] for i in range(len(probs)))
        if rk <= 0:
            continue
        hx = hy = hxy = 0.0
        for mass in masses[0]:
            hx += _plogp(mass[k] / rk)
        for mass in masses[1]:
            hy += _plogp(mass[k] / rk)
        for i in range(len(probs)):
            hxy += _plogp(probs[i] * q[i][k] / rk)
        ixy_k += rk * (hx + hy - hxy)
    return h_given[0], h_given[1], max(ixy_k, 0.0)


def old_delta_star_search(dist, k_alphabet=None, resolution=8, restarts=4, seed=0):
    if len(dist.names) != 2:
        raise DomainError("search needs exactly two variables")
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    pairs = sorted(dist.pmf)
    probs = [float(dist.pmf[o]) for o in pairs]
    xs = sorted({x for x, _ in pairs})
    ys = sorted({y for _, y in pairs})
    if k_alphabet is None:
        k_alphabet = min(len(xs) * len(ys), 16)
    k = max(int(k_alphabet), 1)

    def pure(assign):
        return [tuple(1.0 if j == assign(o) else 0.0 for j in range(k)) for o in pairs]

    gk = gk_common_information(dist)
    starts = [pure(lambda o: 0)]
    if k >= len(xs):
        starts.append(pure(lambda o: xs.index(o[0])))
    if k >= len(ys):
        starts.append(pure(lambda o: ys.index(o[1])))
    if k >= len(gk.components):
        starts.append(pure(lambda o: int(gk.label_of(o[0]))))
    rng = random.Random(seed)
    for r in range(restarts):
        sub = random.Random(rng.randrange(1 << 30))
        q = []
        for _ in pairs:
            row = [sub.random() for _ in range(k)]
            s = sum(row)
            q.append(tuple(v / s for v in row))
        starts.append(q)

    classes = [
        [[i for i, o in enumerate(pairs) if o[axis] == v] for v in values]
        for axis, values in enumerate((xs, ys))
    ]

    def score(q):
        return max(old_delta_components(classes, probs, q, k))

    best_q, best = None, math.inf
    for q in starts:
        q = [tuple(r) for r in q]
        val = score(q)
        improved = True
        while improved:
            improved = False
            for i in range(len(pairs)):
                cur_row = q[i]
                for target in range(k):
                    e = tuple(1.0 if j == target else 0.0 for j in range(k))
                    for step in range(1, resolution + 1):
                        w = step / resolution
                        row = tuple((1 - w) * a + w * b for a, b in zip(cur_row, e))
                        q[i] = row
                        v = score(q)
                        if v < val - 1e-12:
                            val, cur_row, improved = v, row, True
                        else:
                            q[i] = cur_row
        if val < best:
            best, best_q = val, q
    comps = old_delta_components(classes, probs, best_q, k)
    return DeltaSearchResult(best, tuple(best_q), tuple(pairs), comps)


# --- identity ----------------------------------------------------------------------


def test_bundled_source_pairs_match_reference():
    dist = example1_problem().source_model.distribution
    for a, b in (("Y1", "Y2"), ("Y1", "Y3"), ("Y2", "Y3")):
        pair = dist.restrict([a, b])
        for params in ({"seed": 2, "restarts": 1, "resolution": 4},
                       {"seed": 5, "resolution": 4, "restarts": 1, "k_alphabet": 4}):
            assert delta_star_search(pair, **params) == old_delta_star_search(pair, **params)


@st.composite
def joints(draw):
    """A joint pmf over 2-9 distinct (x, y) support pairs, integer weights."""
    cells = [(x, y) for x in "abc" for y in "uvw"]
    chosen = draw(st.lists(st.sampled_from(cells), min_size=2, max_size=9, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(chosen), max_size=len(chosen)))
    total = sum(weights)
    pmf = {cell: Fraction(w, total) for cell, w in zip(chosen, weights)}
    xs = sorted({x for x, _ in pmf})
    ys = sorted({y for _, y in pmf})
    return JointDistribution(["X", "Y"], [xs, ys], pmf)


@settings(deadline=None)
@given(joints(), st.integers(1, 4), st.integers(2, 8), st.integers(0, 2), st.integers(0, 2**32))
def test_random_joints_match_reference(dist, k_alphabet, resolution, restarts, seed):
    params = {"k_alphabet": k_alphabet, "resolution": resolution, "restarts": restarts,
              "seed": seed}
    assert delta_star_search(dist, **params) == old_delta_star_search(dist, **params)
