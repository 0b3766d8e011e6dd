import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolab import rational
from entrolab.core import DomainError, JointDistribution, binary_entropy
from entrolab.recovery import (
    NotIndicatorConsistent,
    RecoveryInput,
    build_indicator_family,
    build_multivar_indicators,
    check_permutation_equivalence,
    find_axis_permutations,
    recover_distribution,
    recover_multivar,
    verify_properties,
)


def random_sorted_pmf(rng, n):
    raw = sorted((rng.random() for _ in range(n)), reverse=True)
    total = sum(raw)
    return [v / total for v in raw]


def test_family_shape_and_entropies():
    fam = build_indicator_family([0.5, 0.25, 0.25])
    assert len(fam.labels) == 3
    assert fam.entropy(["a{2}"]) == pytest.approx(binary_entropy(0.25))
    assert fam.entropy(["a{3}"]) == pytest.approx(binary_entropy(0.25))
    assert fam.entropy(["a{2,3}"]) == pytest.approx(1.0)


def test_family_n2_single_member():
    fam = build_indicator_family([0.7, 0.3])
    assert fam.labels == ("a{2}",)


def test_family_indicators_are_functions_of_base():
    # H(X*_a | X) = 0: members are deterministic given the atom, so the
    # joint entropy of everything equals H(X)
    fam = build_indicator_family([0.4, 0.3, 0.2, 0.1])
    h_all = fam.entropy(list(fam.labels))
    h_x = -sum(p * math.log2(p) for p in fam.probabilities)
    assert h_all <= h_x + 1e-12


def test_family_rejects_bad_input():
    with pytest.raises(DomainError):
        build_indicator_family([0.5, 0.5, 0.0])
    with pytest.raises(DomainError):
        build_indicator_family([0.25, 0.75])  # not sorted
    with pytest.raises(DomainError):
        build_indicator_family([1.0])


def test_recover_simple_and_uniform():
    rec = recover_distribution(
        RecoveryInput.from_family(build_indicator_family([0.5, 0.25, 0.25]), shuffle_seed=3)
    )
    assert check_permutation_equivalence(rec.probabilities, [0.5, 0.25, 0.25])
    rec = recover_distribution(
        RecoveryInput.from_family(build_indicator_family([1 / 3] * 3), shuffle_seed=5)
    )
    assert check_permutation_equivalence(rec.probabilities, [1 / 3] * 3)


def test_recover_n2():
    rec = recover_distribution(RecoveryInput.from_family(build_indicator_family([0.5, 0.5])))
    assert rec.probabilities == (0.5, 0.5)


def test_recover_output_is_sorted_descending():
    rec = recover_distribution(
        RecoveryInput.from_family(build_indicator_family([0.4, 0.3, 0.2, 0.1]), shuffle_seed=1)
    )
    assert list(rec.probabilities) == sorted(rec.probabilities, reverse=True)


def test_round_trip_many():
    rng = random.Random(77)
    for trial in range(120):
        n = rng.choice([2, 3, 4, 5])
        p = random_sorted_pmf(rng, n)
        fam = build_indicator_family(p)
        rec = recover_distribution(RecoveryInput.from_family(fam, shuffle_seed=trial))
        assert check_permutation_equivalence(rec.probabilities, p), (trial, p)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_label_permutation_invariance(seed, n):
    rng = random.Random(seed)
    p = random_sorted_pmf(rng, n)
    fam = build_indicator_family(p)
    rec1 = recover_distribution(RecoveryInput.from_family(fam, shuffle_seed=seed))
    rec2 = recover_distribution(RecoveryInput.from_family(fam, shuffle_seed=seed + 1))
    assert rec1.probabilities == rec2.probabilities


def test_support_size_gate():
    fam = build_indicator_family([0.5, 0.3, 0.2])
    labels = fam.labels[:-1]
    with pytest.raises(NotIndicatorConsistent) as exc:
        recover_distribution(RecoveryInput(3, labels, fam.entropy))
    assert exc.value.step == "support"


def test_single_atom_is_refused_at_support():
    with pytest.raises(NotIndicatorConsistent) as exc:
        recover_distribution(RecoveryInput.from_table(1, [], {}))
    assert exc.value.step == "support"


def test_non_binary_member_rejected():
    fam = build_indicator_family([0.4, 0.3, 0.2, 0.1])

    def oracle(members):
        keys = []
        for atom in range(4):
            sig = []
            for m in members:
                if m == "T":  # ternary impostor
                    sig.append(min(atom, 2))
                else:
                    sig.append(fam.masks[m] >> atom & 1)
            keys.append(tuple(sig))
        groups = {}
        for p, k in zip(fam.probabilities, keys):
            groups[k] = groups.get(k, 0.0) + p
        return -sum(g * math.log2(g) for g in groups.values() if g > 0)

    labels = tuple(l for l in fam.labels if l != "a{2}") + ("T",)
    with pytest.raises(NotIndicatorConsistent):
        recover_distribution(RecoveryInput(4, labels, oracle))


def test_duplicate_member_rejected():
    fam = build_indicator_family([0.5, 0.3, 0.2])
    masks = dict(fam.masks)
    masks["a{2}"] = masks["a{3}"]  # two members indicating the same atom
    dup = type(fam)(fam.probabilities, fam.labels, masks)
    with pytest.raises(NotIndicatorConsistent) as exc:
        recover_distribution(RecoveryInput.from_family(dup))
    assert exc.value.step == "distinct"


def test_check_permutation_equivalence():
    assert check_permutation_equivalence([0.5, 0.25, 0.25], [0.25, 0.5, 0.25])
    assert not check_permutation_equivalence([0.5, 0.5], [0.6, 0.4])
    assert not check_permutation_equivalence([0.5, 0.5], [0.5, 0.25, 0.25])


def test_verify_properties_examples():
    assert verify_properties([0.5, 0.3, 0.2]).ok
    rep = verify_properties([1 / 3, 1 / 3, 1 / 3])
    assert rep.ok
    assert rep.ties  # minimum entropy attained by several members
    assert verify_properties([0.7, 0.3]).ok


def test_verify_properties_random_batch():
    rng = random.Random(123)
    for trial in range(30):
        n = rng.choice([3, 4])
        rep = verify_properties(random_sorted_pmf(rng, n))
        assert rep.ok, (trial, rep.violations)


def product_dist(p1, p2):
    pmf = {}
    for i, a in enumerate("012"):
        for j, b in enumerate("012"):
            pmf[(a, b)] = rational(Fraction(p1[i]) * Fraction(p2[j]))
    return JointDistribution(["X1", "X2"], [("0", "1", "2")] * 2, pmf)


MARGINAL_A = ("1/2", "3/10", "1/5")
MARGINAL_B = ("11/20", "3/10", "3/20")


def test_multivar_independent_product():
    d = product_dist(MARGINAL_A, MARGINAL_B)
    mi = build_multivar_indicators(d)
    assert len(mi.labels) == 255
    rj = recover_multivar(mi)
    perms = find_axis_permutations(rj, d)
    assert perms is not None
    # verify the certificate directly
    ref = {
        tuple("012".index(v) for v in o): float(p) for o, p in d.pmf.items()
    }
    for coord, p in rj.pmf.items():
        mapped = tuple(perm[c] for perm, c in zip(perms, coord))
        assert abs(ref[mapped] - p) < 1e-9


def test_multivar_distinct_atoms_unique_sigma():
    weights = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    total = sum(weights)
    pmf = {}
    k = 0
    for a in "012":
        for b in "012":
            pmf[(a, b)] = rational(weights[k], total)
            k += 1
    d = JointDistribution(["X1", "X2"], [("0", "1", "2")] * 2, pmf)
    rj = recover_multivar(build_multivar_indicators(d))
    count = 0
    for p1 in itertools.permutations(range(3)):
        for p2 in itertools.permutations(range(3)):
            ref = {
                tuple("012".index(v) for v in o): float(p) for o, p in d.pmf.items()
            }
            if all(
                abs(ref[(p1[c[0]], p2[c[1]])] - p) < 1e-9 for c, p in rj.pmf.items()
            ):
                count += 1
    assert count == 1


def test_multivar_requires_alphabet_three():
    pmf = {
        (a, b): rational(1, 6)
        for a in "01"
        for b in "012"
    }
    d = JointDistribution(["X1", "X2"], [("0", "1"), ("0", "1", "2")], pmf)
    with pytest.raises(DomainError):
        build_multivar_indicators(d)


def test_multivar_alphabet_mismatch_rejected():
    d = product_dist(MARGINAL_A, MARGINAL_B)
    mi = build_multivar_indicators(d)
    with pytest.raises(DomainError):
        recover_multivar(mi, alphabets=(3, 4))
