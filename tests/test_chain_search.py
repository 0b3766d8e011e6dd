"""The guided chain search and the partition oracle against reference copies.

``old_has_chain`` and ``old_recover`` are verbatim copies of the chain
search and recovery that predate the memoised, singleton-guided search;
``atom_signature_entropy`` is the atom-by-atom grouping oracle the
partition oracle replaced. The package must agree with them exactly.
"""

import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolab import rational
from entrolab.core import JointDistribution, binary_entropy_inverse
from entrolab.recovery import (
    PAIR_TABLE_MAX_ATOMS,
    NotIndicatorConsistent,
    RecoveredDistribution,
    RecoveryInput,
    _has_chain,
    build_indicator_family,
    build_multivar_indicators,
    check_permutation_equivalence,
    recover_distribution,
    recover_multivar,
)

TOL = 1e-9


# --- reference copies -------------------------------------------------------------


def atom_signature_entropy(probs, masks):
    groups = {}
    for atom, p in enumerate(probs):
        sig = 0
        for j, mask in enumerate(masks):
            if mask >> atom & 1:
                sig |= 1 << j
        groups[sig] = groups.get(sig, 0.0) + p
    h = 0.0
    for g in groups.values():
        if g > 0:
            h -= g * math.log2(g)
    return h


def old_has_chain(inp, base, length, tol):
    if length == 0:
        return True
    others = [l for l in inp.labels if l not in base]
    seen = set()

    def extend(chain):
        if len(chain) == length:
            return True
        key = frozenset(chain)
        if key in seen:
            return False
        seen.add(key)
        given = list(base) + list(chain)
        h_given = inp.entropy(given)
        for cand in others:
            if cand in chain:
                continue
            if inp.entropy([cand] + given) - h_given > tol:
                if extend(chain + (cand,)):
                    return True
        return False

    return extend(())


def old_recover(inp, tolerance=TOL):
    n = inp.n
    labels = list(inp.labels)
    if len(labels) != (1 << (n - 1)) - 1:
        raise NotIndicatorConsistent("support")
    singles = {l: inp.entropy([l]) for l in labels}
    for a, b in itertools.combinations(labels, 2):
        joint = inp.entropy([a, b])
        if joint - singles[b] <= tolerance or joint - singles[a] <= tolerance:
            raise NotIndicatorConsistent("distinct")
    for l in labels:
        if not old_has_chain(inp, (l,), n - 2, tolerance):
            raise NotIndicatorConsistent("binary")
    order = sorted(labels, key=lambda l: (singles[l], l))
    a_n = order[0]
    probs = {n: binary_entropy_inverse(singles[a_n])}
    provenance = {a_n: n}
    selected = [a_n]
    for i in range(n - 1, 1, -1):
        h_sel = inp.entropy(selected)
        candidates = []
        for l in labels:
            if l in provenance:
                continue
            cond = inp.entropy([l] + selected) - h_sel
            if cond > tolerance:
                candidates.append((cond, singles[l], l))
        if not candidates:
            raise NotIndicatorConsistent("select")
        candidates.sort()
        _, h_single, choice = candidates[0]
        probs[i] = binary_entropy_inverse(h_single)
        provenance[choice] = i
        selected.append(choice)
    p1 = 1.0 - sum(probs.values())
    if p1 <= 0 or p1 < probs[2] - tolerance:
        raise NotIndicatorConsistent("top-atom")
    ordered = (p1,) + tuple(probs[i] for i in range(2, n + 1))
    return RecoveredDistribution(ordered, provenance)


# --- oracles ----------------------------------------------------------------------


def function_oracle(probs, functions):
    """Members are functions of the atom (one value per atom); a query's
    entropy is that of the partition of the atoms they induce."""

    def entropy(members):
        groups = {}
        for atom, p in enumerate(probs):
            key = tuple(functions[m][atom] for m in sorted(set(members)))
            groups[key] = groups.get(key, 0.0) + p
        return -sum(g * math.log2(g) for g in groups.values())

    return entropy


def pmf(rng, n, tied):
    raw = [rng.randint(1, 3) if tied else rng.random() + 0.05 for _ in range(n)]
    raw.sort(reverse=True)
    total = sum(raw)
    return [v / total for v in raw]


def oracle_input(kind, n, rng):
    """An oracle over 2^(n-1)-1 labelled members, shuffled:

    - ``genuine``: the indicator family
    - ``partition``: every member a random function of the atom into 3 values
    - ``ternary``: the family with one member replaced by a ternary function
    - ``duplicate``: the family with one member a copy of another"""
    probs = pmf(rng, n, tied=rng.random() < 0.5)
    fam = build_indicator_family(probs)
    functions = {l: tuple(m >> a & 1 for a in range(n)) for l, m in fam.masks.items()}
    labels = list(fam.labels)
    if kind == "partition":
        functions = {l: tuple(rng.randrange(3) for _ in range(n)) for l in labels}
    elif kind == "ternary":
        functions[rng.choice(labels)] = tuple(min(a, 2) for a in range(n))
    elif kind == "duplicate" and len(labels) > 1:
        a, b = rng.sample(labels, 2)
        functions[a] = functions[b]
    rng.shuffle(labels)
    return RecoveryInput(n, tuple(labels), function_oracle(probs, functions))


KINDS = ("genuine", "partition", "ternary", "duplicate")


def outcome(fn, inp):
    try:
        return fn(inp)
    except NotIndicatorConsistent as exc:
        return exc.step


# --- the chain search -------------------------------------------------------------


@given(
    st.sampled_from(KINDS),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=60, deadline=None)
def test_has_chain_matches_old_search(kind, n, seed):
    rng = random.Random(seed)
    inp = oracle_input(kind, n, rng)
    labels = list(inp.labels)
    for _ in range(4):
        base = tuple(rng.sample(labels, rng.randint(1, min(2, len(labels)))))
        length = rng.randint(0, n - 1)
        prefer = rng.sample(labels, rng.randint(0, len(labels)))
        assert _has_chain(inp, base, length, TOL, prefer=prefer) == old_has_chain(
            inp, base, length, TOL
        ), (base, length, prefer)


@given(
    st.sampled_from(KINDS),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=40, deadline=None)
def test_recovery_matches_old_recovery(kind, n, seed):
    inp = oracle_input(kind, n, random.Random(seed))
    ours, theirs = outcome(recover_distribution, inp), outcome(old_recover, inp)
    assert ours == theirs


def ternary_only_input():
    """Fifteen distinct ternary partitions of five atoms as the members of
    a five-atom oracle: no member is a function of another, so every pair
    is distinct, but no member admits a chain of three fresh steps."""
    probs = [0.3, 0.25, 0.2, 0.15, 0.1]
    partitions = [  # restricted growth strings with three values
        values for values in itertools.product(range(3), repeat=5)
        if [v for i, v in enumerate(values) if v not in values[:i]] == [0, 1, 2]
    ]
    functions = {f"T{i}": p for i, p in enumerate(partitions[:15])}
    return RecoveryInput(5, tuple(functions), function_oracle(probs, functions))


def test_non_binary_members_refused_at_binarity():
    inp = ternary_only_input()
    with pytest.raises(NotIndicatorConsistent) as exc:
        recover_distribution(inp)
    assert exc.value.step == "binary"
    assert outcome(old_recover, inp) == "binary"


def counted(inp):
    calls = [0]

    def entropy(members):
        calls[0] += 1
        return inp.entropy(members)

    return RecoveryInput(inp.n, inp.labels, entropy), calls


def test_six_atom_recovery_cost_is_shuffle_free():
    rng = random.Random(6)
    probs = pmf(rng, 6, tied=False)
    fam = build_indicator_family(probs)
    for shuffle in range(20):
        inp, calls = counted(RecoveryInput.from_family(fam, shuffle_seed=shuffle))
        rec = recover_distribution(inp)
        assert check_permutation_equivalence(rec.probabilities, probs)
        assert calls[0] <= 1000, (shuffle, calls[0])


# --- the partition oracle ---------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=7),
    st.booleans(),
    st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=60, deadline=None)
def test_family_oracle_is_bit_identical(n, tied, seed):
    rng = random.Random(seed)
    fam = build_indicator_family(pmf(rng, n, tied))
    for _ in range(20):
        members = rng.sample(fam.labels, rng.randint(0, min(6, len(fam.labels))))
        masks = [fam.masks[m] for m in members]
        assert fam.entropy(members) == atom_signature_entropy(fam.probabilities, masks)


@pytest.mark.parametrize("n", range(2, 10))
def test_pair_table_is_bit_identical_on_every_ordered_pair(n):
    rng = random.Random(n)
    fam = build_indicator_family(pmf(rng, n, tied=True))
    for a, b in itertools.product(fam.labels, repeat=2):
        expected = atom_signature_entropy(fam.probabilities, [fam.masks[a], fam.masks[b]])
        assert fam.entropy([a, b]).hex() == expected.hex(), (a, b)


@pytest.mark.parametrize("n", [PAIR_TABLE_MAX_ATOMS, PAIR_TABLE_MAX_ATOMS + 1])
def test_pairs_at_and_above_the_table_cap_are_bit_identical(n):
    rng = random.Random(n)
    for tied in (True, False):
        fam = build_indicator_family(pmf(rng, n, tied))
        labels = fam.labels
        pairs = [(l, l) for l in rng.sample(labels, 50)]
        pairs += [tuple(rng.sample(labels, 2)) for _ in range(2000)]
        for a, b in pairs:
            expected = atom_signature_entropy(fam.probabilities, [fam.masks[a], fam.masks[b]])
            assert fam.entropy([a, b]).hex() == expected.hex(), (a, b)


def joint_3x3(weights):
    total = sum(weights)
    cells = itertools.product("012", repeat=2)
    return JointDistribution(
        ["X1", "X2"], [("0", "1", "2")] * 2,
        {c: rational(Fraction(w, total)) for c, w in zip(cells, weights)},
    )


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=9, max_size=9),
    st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=20, deadline=None)
def test_multivar_oracle_is_bit_identical(weights, seed):
    dist = joint_3x3(weights)
    mi = build_multivar_indicators(dist)
    # flattened atom order and member masks, rebuilt independently: the
    # most probable outcome (largest on ties) first, then outcome order;
    # members are the nonempty subsets of the other atoms in
    # combination order
    outcomes = sorted(dist.pmf)
    probs = [float(dist.pmf[o]) for o in outcomes]
    top = max(range(len(outcomes)), key=lambda i: (probs[i], outcomes[i]))
    flat = [probs[top]] + [p for i, p in enumerate(probs) if i != top]
    combos = (c for r in range(1, 9) for c in itertools.combinations(range(1, 9), r))
    masks = {f"M{k}": sum(1 << a for a in c) for k, c in enumerate(combos)}
    rng = random.Random(seed)
    for _ in range(20):
        members = rng.sample(mi.labels, rng.randint(1, 6))
        expected = atom_signature_entropy(flat, [masks[m] for m in members])
        assert mi.entropy(members) == expected


# --- no reference cycles ----------------------------------------------------------


def test_recoveries_free_their_family_without_the_cyclic_collector():
    """Once a recovery returns, nothing it made keeps the family (and its
    pair table) alive: reference counting alone frees it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        fam = build_indicator_family(pmf(random.Random(5), 5, tied=False))
        ref = weakref.ref(fam)
        recover_distribution(RecoveryInput.from_family(fam, shuffle_seed=5))
        del fam
        assert ref() is None
        inp = build_multivar_indicators(joint_3x3([1, 2, 3, 4, 5, 6, 7, 8, 9]))
        ref = weakref.ref(inp.entropy.__self__)
        recover_multivar(inp)
        del inp
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
