"""Recovering a distribution (up to permutation) from entropies alone.

For an n-ary positive variable X with atoms labelled 1..n by descending
probability, the indicator family attaches a binary variable to every
nonempty subset ``a`` of {2..n}: the indicator of X falling in ``a``.
The entropies of these indicators (and of small groups of them)
determine the probability vector of X up to permutation, and the
recovery procedure here is constructive: it identifies the singleton
indicators one atom at a time, from the smallest atom upward, using
only entropy queries.

Everything is label-blind: the oracle may present the family members
under arbitrary names, and recovery relies purely on argmin/min
structure, never on the labels.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .core import (
    DomainError,
    JointDistribution,
    binary_entropy_inverse,
)

TOLERANCE = 1e-9


class NotIndicatorConsistent(ValueError):
    """The entropy oracle is not consistent with any indicator family."""

    def __init__(self, step: str, detail: str = ""):
        self.step = step
        super().__init__(f"{step}: {detail}" if detail else step)


def _subset_sums(probs: Sequence[float]) -> tuple[float, ...]:
    """``sums[mask]``: the total probability of the atoms in ``mask``.

    Each entry adds the mask's highest atom last, so every sum is
    accumulated in atom order."""
    sums = [0.0]
    for p in probs:
        sums += [s + p for s in sums]
    return tuple(sums)


def _partition_entropy(plogp: Sequence[float], masks: Sequence[int]) -> float:
    """Entropy of the joint of the indicators ``masks``: the entropy of
    the partition of the atoms they induce, each block's term read from
    the table ``plogp`` of ``-g log2 g`` over the subset sums ``g`` of
    the atom probabilities.

    Blocks are taken in the order of their smallest atom, each the
    intersection of the masks (or their complements) that hold that
    atom, so every float is the one a signature-grouping loop over the
    atoms computes, in the same order."""
    h = 0.0
    rest = len(plogp) - 1
    while rest:
        low = rest & -rest
        block = rest
        for m in masks:
            block &= m if low & m else ~m
        h += plogp[block]
        rest ^= block
    return h


# The pair table holds (2^(n-1) - 1)^2 floats: 2.1 MB at n = 10, and four
# times as much for each atom more, so larger families query pairs one
# at a time.
PAIR_TABLE_MAX_ATOMS = 10
_PAIR_ROWS = 16  # rows per chunk while the pair table is built


def _pair_table(plogp: Sequence[float], masks: Sequence[int]) -> array:
    """``_partition_entropy(plogp, [masks[i], masks[j]])`` at ``i * m + j``
    for every ordered pair over the ``m`` masks, none of which holds
    atom 0.

    The complement of a|b holds atom 0, so its term comes first; the
    other nonempty blocks among a&b, a&~b and ~a&b follow by their
    lowest atom, empty blocks last (their term 0.0 leaves the positive
    sum as it is)."""
    import numpy as np

    n = (len(plogp) - 1).bit_length()
    full = (1 << n) - 1
    terms = np.array(plogp)
    col = np.array(masks, dtype=np.int64)
    table = array("d", [0.0]) * (len(masks) * len(masks))
    out = np.frombuffer(table, dtype=np.float64).reshape(len(masks), len(masks))
    last = np.int64(1 << (2 * n))  # sorts after any lowest atom
    for start in range(0, len(masks), _PAIR_ROWS):
        a = col[start:start + _PAIR_ROWS, None]
        rest = np.stack(np.broadcast_arrays(a & col, a & ~col, ~a & col), axis=-1)
        key = np.where(rest != 0, (rest & -rest) << n | rest, last)
        key.sort(axis=-1)
        block = key & full
        h = terms[full & ~(a | col)]
        for k in range(3):
            h = h + terms[block[..., k]]
        out[start:start + _PAIR_ROWS] = h
    return table


@dataclass(frozen=True)
class IndicatorFamily:
    """All indicators of subsets of the atoms but atom 0 of a distribution.

    ``masks[label]`` is a bitmask over atoms 0..n-1; the member is 1
    exactly on the atoms in its mask."""

    probabilities: tuple[float, ...]  # atom 0 first, positive
    labels: tuple[str, ...]
    masks: Mapping[str, int]

    @property
    def n(self) -> int:
        return len(self.probabilities)

    @functools.cached_property
    def _plogp(self) -> tuple[float, ...]:
        """``-(g * log2 g)`` for each subset sum g, 0 at the empty mask.
        Adding an entry gives the float that subtracting ``g * log2 g``
        gives, since h - x and h + (-x) round alike."""
        sums = _subset_sums(self.probabilities)
        return (0.0,) + tuple(-(g * math.log2(g)) for g in sums[1:])

    @functools.cached_property
    def _pairs(self) -> Optional[tuple[dict[str, int], dict[str, int], array]]:
        """The entropy of every ordered pair of members, read at
        ``rows[a] + cols[b]``; built on the first pair query, and None
        above ``PAIR_TABLE_MAX_ATOMS``."""
        if self.n > PAIR_TABLE_MAX_ATOMS:
            return None
        m = len(self.labels)
        cols = {label: i for i, label in enumerate(self.labels)}
        rows = {label: i * m for label, i in cols.items()}
        return rows, cols, _pair_table(self._plogp, [self.masks[l] for l in self.labels])

    def entropy(self, members: Sequence[str]) -> float:
        if len(members) == 2 and self._pairs is not None:
            rows, cols, table = self._pairs
            return table[rows[members[0]] + cols[members[1]]]
        return _partition_entropy(self._plogp, [self.masks[m] for m in members])


def _check_sorted_positive(probs) -> tuple[float, ...]:
    p = [float(v) for v in probs]
    if len(p) < 2:
        raise DomainError("need at least two atoms")
    if any(v <= 0 for v in p):
        raise DomainError("all atoms must have positive probability")
    if abs(sum(p) - 1.0) > 1e-9:
        raise DomainError("probabilities must sum to 1")
    if any(p[i] < p[i + 1] - 1e-12 for i in range(len(p) - 1)):
        raise DomainError("atoms must be sorted by descending probability")
    return tuple(p)


def _family_masks(n: int) -> list[int]:
    """Every nonempty subset of atoms 1..n-1 as a bitmask over atoms
    0..n-1, ordered by size, then lexicographically."""
    return [
        sum(1 << atom for atom in combo)
        for r in range(1, n)
        for combo in itertools.combinations(range(1, n), r)
    ]


def build_indicator_family(dist) -> IndicatorFamily:
    """``dist``: a probability sequence (descending) or a one-variable
    JointDistribution whose outcomes are already sorted that way.
    Members are labelled ``a{...}`` by their atoms, numbered from 1."""
    if isinstance(dist, JointDistribution):
        if len(dist.names) != 1:
            raise DomainError("indicator family needs a single variable")
        probs = [float(dist.pmf[o]) for o in sorted(dist.pmf)]
    else:
        probs = list(dist)
    p = _check_sorted_positive(probs)
    masks = {
        "a{" + ",".join(str(i + 1) for i in range(len(p)) if mask >> i & 1) + "}": mask
        for mask in _family_masks(len(p))
    }
    return IndicatorFamily(p, tuple(masks), masks)


@dataclass(frozen=True)
class RecoveryInput:
    """A label-blind entropy oracle over family member names.

    ``entropy`` must be a function of the member *set*: neither the
    order of the members nor repeats of a query may change its value.
    The chain search memoises queries by set and prunes on the set of
    members chosen so far, both of which rely on this."""

    n: int
    labels: tuple[str, ...]
    entropy: Callable[[Sequence[str]], float]

    @staticmethod
    def from_family(
        family: IndicatorFamily, shuffle_seed: Optional[int] = None
    ) -> "RecoveryInput":
        labels = list(family.labels)
        if shuffle_seed is not None:
            rng = random.Random(shuffle_seed)
            shuffled = [f"M{i}" for i in range(len(labels))]
            rng.shuffle(labels)
            alias = dict(zip(shuffled, labels))
            return RecoveryInput(
                family.n,
                tuple(shuffled),
                lambda ms: family.entropy([alias[m] for m in ms]),
            )
        return RecoveryInput(family.n, tuple(labels), family.entropy)

    @staticmethod
    def from_table(n: int, labels: Sequence[str], table: Mapping[str, float]) -> "RecoveryInput":
        def query(members: Sequence[str]) -> float:
            key = ",".join(sorted(members))
            try:
                return table[key]
            except KeyError:
                raise NotIndicatorConsistent(
                    "oracle", f"no entropy value supplied for {{{key}}}"
                ) from None

        return RecoveryInput(n, tuple(labels), query)


@dataclass(frozen=True)
class RecoveredDistribution:
    probabilities: tuple[float, ...]  # descending
    provenance: Mapping[str, int]  # member label -> atom index (2..n)


def _conditional(inp: RecoveryInput, a: str, given: Sequence[str]) -> float:
    return inp.entropy([a] + list(given)) - inp.entropy(list(given))


def _has_chain(
    inp: RecoveryInput,
    base: tuple[str, ...],
    length: int,
    tol: float,
    prefer: Sequence[str] = (),
) -> bool:
    """Does a chain of ``length`` members exist, each with positive
    entropy given the base and its predecessors? Exhaustive depth-first
    search, pruned on the chosen set (order irrelevant for existence),
    trying the ``prefer`` members first and then the rest in label
    order. Oracle values are memoised by member set for this call only;
    each child reuses its parent's query as the entropy of its given."""
    if length == 0:
        return True
    first = [l for l in prefer if l not in base]
    skip = set(base) | set(first)
    others = first + [l for l in inp.labels if l not in skip]
    memo: dict[frozenset, float] = {}
    seen: set[frozenset] = set()

    def entropy(members: list[str]) -> float:
        key = frozenset(members)
        h = memo.get(key)
        if h is None:
            h = memo[key] = inp.entropy(members)
        return h

    def extend(chain: tuple[str, ...], h_given: float) -> bool:
        if len(chain) == length:
            return True
        key = frozenset(chain)
        if key in seen:
            return False
        seen.add(key)
        given = list(base) + list(chain)
        for cand in others:
            if cand in chain:
                continue
            h = entropy([cand] + given)
            if h - h_given > tol:
                if extend(chain + (cand,), h):
                    return True
        return False

    try:
        return extend((), entropy(list(base)))
    finally:
        del extend  # it refers to itself; without this every call leaves a cycle


def _selection_walk(
    inp: RecoveryInput, singles: Mapping[str, float], tolerance: float
) -> list[str]:
    """The member of least entropy (the smallest atom's singleton), then
    upward one atom at a time by minimal fresh conditional entropy, ties
    broken by single entropy and label. Stops early, with fewer than
    n - 1 members, when no member is fresh."""
    selected = [min(inp.labels, key=lambda l: (singles[l], l))]
    for _ in range(inp.n - 2):
        h_sel = inp.entropy(selected)
        candidates = []
        for l in inp.labels:
            if l in selected:
                continue
            cond = inp.entropy([l] + selected) - h_sel
            if cond > tolerance:
                candidates.append((cond, singles[l], l))
        if not candidates:
            break
        selected.append(min(candidates)[2])
    return selected


def recover_distribution(inp: RecoveryInput, tolerance: float = TOLERANCE) -> RecoveredDistribution:
    n = inp.n
    labels = list(inp.labels)
    if n < 2:
        raise NotIndicatorConsistent("support", f"need at least two atoms, got n={n}")
    if len(labels) != (1 << (n - 1)) - 1:
        raise NotIndicatorConsistent(
            "support", f"expected {(1 << (n - 1)) - 1} members for n={n}, got {len(labels)}"
        )
    singles = {l: inp.entropy([l]) for l in labels}
    # distinctness: every pair must have positive conditional entropy
    # both ways
    for a, b in itertools.combinations(labels, 2):
        joint = inp.entropy([a, b])
        if joint - singles[b] <= tolerance or joint - singles[a] <= tolerance:
            raise NotIndicatorConsistent("distinct", f"{a} and {b} are not distinct")
    # for a genuine family the walk selects the singletons, which guide
    # the chain search below
    selected = _selection_walk(inp, singles, tolerance)
    # binarity: a binary member admits a chain of n-2 further members
    # each adding fresh uncertainty; a larger-alphabet member cannot,
    # because each step grows the joint support and support is capped
    # by the atom count
    for l in labels:
        if not _has_chain(inp, (l,), n - 2, tolerance, prefer=selected):
            raise NotIndicatorConsistent("binary", f"{l} is not a binary indicator")
    probs = {n - k: binary_entropy_inverse(singles[l]) for k, l in enumerate(selected)}
    if len(selected) < n - 1:
        raise NotIndicatorConsistent(
            "select", f"no candidate member at atom {n - len(selected)}"
        )
    provenance = {l: n - k for k, l in enumerate(selected)}
    p1 = 1.0 - sum(probs.values())
    if p1 <= 0 or p1 < probs[2] - tolerance:
        raise NotIndicatorConsistent(
            "top-atom", f"residual probability {p1} below second atom {probs[2]}"
        )
    ordered = (p1,) + tuple(probs[i] for i in range(2, n + 1))
    return RecoveredDistribution(ordered, provenance)


def check_permutation_equivalence(p, q, tolerance: float = TOLERANCE) -> bool:
    p = sorted(float(v) for v in p)
    q = sorted(float(v) for v in q)
    if len(p) != len(q):
        return False
    return all(abs(a - b) <= tolerance for a, b in zip(p, q))


# --- property verification --------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    violations: tuple[str, ...]
    ties: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_properties(dist, tolerance: float = TOLERANCE) -> PropertyReport:
    """Check the five structural properties of an indicator family by
    direct oracle evaluation; returns violations (expected none) and
    benign ties."""
    family = build_indicator_family(dist)
    n = family.n
    inp = RecoveryInput.from_family(family)
    labels = list(family.labels)
    singles = {l: inp.entropy([l]) for l in labels}
    violations: list[str] = []
    ties: list[str] = []

    label_of = {m: l for l, m in family.masks.items()}
    singleton = {i: label_of[1 << (i - 1)] for i in range(2, n + 1)}
    # P1: all pairs mutually distinct
    for a, b in itertools.combinations(labels, 2):
        joint = inp.entropy([a, b])
        if joint - singles[b] <= tolerance:
            violations.append(f"P1: H({a}|{b}) = 0")
        if joint - singles[a] <= tolerance:
            violations.append(f"P1: H({b}|{a}) = 0")
    # P2: conditioning on singleton indicators of a set b kills a
    # member exactly when the member is inside b
    atom_sets = {l: frozenset(
        i + 1 for i in range(n) if family.masks[l] >> i & 1
    ) for l in labels}
    for l in labels:
        for r in range(0, n):
            for b in itertools.combinations(range(2, n + 1), r):
                given = [singleton[i] for i in b]
                cond = _conditional(inp, l, given) if given else singles[l]
                expect_positive = bool(atom_sets[l] - set(b))
                if expect_positive and cond <= tolerance:
                    violations.append(f"P2: H({l}|atoms {b}) = 0 but should be positive")
                if not expect_positive and cond > tolerance:
                    violations.append(f"P2: H({l}|atoms {b}) > 0 but should vanish")
    # P3: every member admits a full fresh-uncertainty chain
    singletons = [singleton[i] for i in range(n, 1, -1)]
    for l in labels:
        if not _has_chain(inp, (l,), n - 2, tolerance, prefer=singletons):
            violations.append(f"P3: no chain of length {n - 2} from {l}")
    # P4: the smallest atom's singleton attains the minimum entropy
    h_min = min(singles.values())
    l_n = singleton[n]
    if singles[l_n] > h_min + tolerance:
        violations.append("P4: smallest-atom singleton does not attain the minimum")
    elif sum(1 for v in singles.values() if abs(v - h_min) <= tolerance) > 1:
        ties.append("P4: minimum entropy attained by several members")
    # P5: the singleton of atom i is minimal among members still
    # uncertain given the smaller atoms' singletons
    for i in range(2, n):
        given = [singleton[j] for j in range(i + 1, n + 1)]
        h_i = _conditional(inp, singleton[i], given)
        if h_i <= tolerance:
            violations.append(f"P5a: H(atom {i} indicator | smaller atoms) = 0")
        for l in labels:
            if l == singleton[i]:
                continue
            cond = _conditional(inp, l, given)
            if cond > tolerance:
                if h_i > cond + tolerance:
                    violations.append(f"P5b: {l} beats the singleton of atom {i}")
                if singles[singleton[i]] > singles[l] + tolerance:
                    violations.append(f"P5c: H of singleton {i} exceeds H({l})")
    return PropertyReport(tuple(violations), tuple(ties))


# --- multi-variable extension ------------------------------------------------------


@dataclass(frozen=True)
class MultivarIndicatorInput:
    """Flattened indicator oracle for a product variable, with the
    single-axis event indicators marked per axis (``anchors[i]`` lists
    one member label per value of axis i, in arbitrary order)."""

    n: int  # flattened atom count
    labels: tuple[str, ...]
    entropy: Callable[[Sequence[str]], float]
    anchors: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class RecoveredJoint:
    pmf: Mapping[tuple, float]  # per-axis value-index tuples -> probability
    axis_sizes: tuple[int, ...]
    anchor_order: tuple[tuple[str, ...], ...]  # value index -> anchor label


def build_multivar_indicators(dist: JointDistribution) -> MultivarIndicatorInput:
    """Flatten a positive joint distribution and build every indicator
    over the flattened atoms except the most probable one."""
    m = len(dist.names)
    sizes = [len(a) for a in dist.alphabets]
    if any(s < 3 for s in sizes):
        raise DomainError("every axis needs an alphabet of size at least 3")
    outcomes = sorted(dist.pmf)
    if len(outcomes) != math.prod(sizes):
        raise DomainError("joint distribution must be strictly positive")
    probs = [float(dist.pmf[o]) for o in outcomes]
    top = max(range(len(outcomes)), key=lambda i: (probs[i], outcomes[i]))
    # atom order: designated atom first, the rest in outcome order
    order = [top] + [i for i in range(len(outcomes)) if i != top]
    atom_of = {i: atom for atom, i in enumerate(order)}
    masks = {f"M{j}": mask for j, mask in enumerate(_family_masks(len(order)))}
    family = IndicatorFamily(tuple(probs[i] for i in order), tuple(masks), masks)
    mask_label = {mask: label for label, mask in masks.items()}
    anchors = []
    for axis in range(m):
        per_value = []
        for value in dist.alphabets[axis]:
            mask = 0
            for i, o in enumerate(outcomes):
                if o[axis] == value and atom_of[i] != 0:
                    mask |= 1 << atom_of[i]
            per_value.append(mask_label[mask])
        anchors.append(tuple(per_value))
    return MultivarIndicatorInput(family.n, family.labels, family.entropy, tuple(anchors))


def recover_multivar(
    inp: MultivarIndicatorInput,
    alphabets: Optional[Sequence[int]] = None,
    tolerance: float = TOLERANCE,
) -> RecoveredJoint:
    """Recover the flattened atom probabilities, then read each atom's
    per-axis coordinates off the anchor memberships. The designated
    (most probable) atom belongs to exactly one value class per axis:
    the one whose anchor indicates one atom fewer than the others."""
    flat = RecoveryInput(inp.n, inp.labels, inp.entropy)
    rec = recover_distribution(flat, tolerance)
    n = inp.n
    sizes = tuple(len(a) for a in inp.anchors)
    if alphabets is not None and tuple(alphabets) != sizes:
        raise DomainError(f"anchor structure implies alphabet sizes {sizes}")
    if math.prod(sizes) != n:
        raise NotIndicatorConsistent("anchors", "axis sizes do not factor the atom count")
    by_atom = {i: l for l, i in rec.provenance.items()}  # atom index 2..n -> label
    # anchor membership per recovered atom: conditioning on every other
    # singleton leaves residual uncertainty exactly when the atom is in
    # the anchor's event
    coords: dict[int, list] = {atom: [] for atom in range(2, n + 1)}
    designated_coord: list[int] = []
    for axis, per_value in enumerate(inp.anchors):
        covered: set[int] = set()
        deficient = []
        for value_index, anchor in enumerate(per_value):
            members = set()
            for atom in range(2, n + 1):
                given = [by_atom[j] for j in range(2, n + 1) if j != atom]
                if anchor in given:
                    # the anchor itself was identified as this atom's
                    # singleton; impossible for a genuine product family
                    raise NotIndicatorConsistent(
                        "anchors", f"anchor {anchor} identified as a singleton"
                    )
                if inp.entropy([anchor] + given) - inp.entropy(given) > tolerance:
                    members.add(atom)
            if members & covered:
                raise NotIndicatorConsistent(
                    "anchors", f"axis {axis}: value classes overlap"
                )
            covered |= members
            for atom in members:
                coords[atom].append(value_index)
            deficiency = n // sizes[axis] - len(members)
            if deficiency == 1:
                deficient.append(value_index)
            elif deficiency != 0:
                raise NotIndicatorConsistent(
                    "anchors", f"axis {axis}: value class of impossible size"
                )
        if covered != set(range(2, n + 1)) or len(deficient) != 1:
            raise NotIndicatorConsistent(
                "anchors", f"axis {axis}: value classes do not partition the atoms"
            )
        designated_coord.append(deficient[0])
    pmf: dict[tuple, float] = {tuple(designated_coord): rec.probabilities[0]}
    for atom in range(2, n + 1):
        if len(coords[atom]) != len(sizes):
            raise NotIndicatorConsistent("anchors", f"atom {atom} missing a coordinate")
        pmf[tuple(coords[atom])] = rec.probabilities[atom - 1]
    if len(pmf) != n:
        raise NotIndicatorConsistent("anchors", "coordinate collision between atoms")
    return RecoveredJoint(pmf, sizes, inp.anchors)


def find_axis_permutations(
    recovered: RecoveredJoint, reference: JointDistribution, tolerance: float = TOLERANCE
):
    """Per-axis permutations aligning a recovered joint pmf with a
    reference distribution, or None. Brute force over all per-axis
    permutations; the certificate is directly checkable by comparing
    pmf values."""
    sizes = recovered.axis_sizes
    if tuple(len(a) for a in reference.alphabets) != sizes:
        return None
    ref = {
        tuple(reference.alphabets[i].index(v) for i, v in enumerate(o)): float(p)
        for o, p in reference.pmf.items()
    }
    for perms in itertools.product(*(itertools.permutations(range(s)) for s in sizes)):
        if all(
            abs(ref[tuple(perm[c] for perm, c in zip(perms, coord))] - p) <= tolerance
            for coord, p in recovered.pmf.items()
        ):
            return perms
    return None
