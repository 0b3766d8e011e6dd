"""Every clause of ``verify_certificate``, the gate each verdict passes.

One rejecting case per clause: the sign rule on ``>=`` and on ``<=``
rows, sum lam_i a_i = 0, sum lam_i b_i > 0, a witness that misses a
``>=``, a ``<=`` or an ``==`` row by 2^-80, an Optimal whose witness
misses a row, and an Optimal whose dual certifies another value or
another objective. Then witnesses that reach the check over one common
denominator: mixed denominators, a Fraction coefficient, float values,
and non-finite floats, which are rejected rather than raised.
Last, a property: a verified answer to a random small system, tampered
with once, is accepted exactly when ``dense_check`` accepts it.
``dense_check`` re-checks a result with dense Fraction vectors and uses
nothing from ``entrolab.lp`` but the result types.
"""

from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from entrolab.core import DomainError, EntropyVector, GroundSet, LinearFunctional
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

TINY = Fraction(1, 2**80)


def ground(k):
    return GroundSet(tuple("ABCD"[:k]))


def system(k, rows, objective=None):
    """``rows`` are ``(coefficients, rel, rhs)``, one coefficient per
    variable; variable j is h of the singleton ``1 << j``."""

    def functional(coeffs):
        return LinearFunctional([(1 << j, c) for j, c in enumerate(coeffs) if c])

    constraints = [LinearConstraint(functional(c), rel, rhs) for c, rel, rhs in rows]
    obj = None if objective is None else functional(objective)
    return LinearSystem(ground(k), constraints, objective=obj)


def point(k, *values):
    return EntropyVector(ground(k), {1 << j: v for j, v in enumerate(values)})


# --- one rejecting case per clause --------------------------------------------------


def test_wrong_sign_on_ge_row_rejected():
    # x >= -1, x >= 0 is feasible; -1*(x >= -1) + 1*(x >= 0) gives 0 >= 1
    s = system(1, [([1], ">=", -1), ([1], ">=", 0)])
    assert not verify_certificate(s, Infeasible({0: -1, 1: 1}))


def test_wrong_sign_on_le_row_rejected():
    # x <= 1, x <= 0 is feasible; 1*(x <= 1) - 1*(x <= 0) gives 0 >= 1
    s = system(1, [([1], "<=", 1), ([1], "<=", 0)])
    assert not verify_certificate(s, Infeasible({0: 1, 1: -1}))


def test_nonzero_combination_rejected():
    # x >= 1, y <= 0: the multipliers leave x - y, not the zero functional
    s = system(2, [([1, 0], ">=", 1), ([0, 1], "<=", 0)])
    assert not verify_certificate(s, Infeasible({0: 1, 1: -1}))


def test_zero_and_negative_combined_rhs_rejected():
    touching = system(1, [([1], ">=", 0), ([1], "<=", 0)])
    assert not verify_certificate(touching, Infeasible({0: 1, 1: -1}))  # sum lam b = 0
    overlapping = system(1, [([1], ">=", -1), ([1], "<=", 0)])
    assert not verify_certificate(overlapping, Infeasible({0: 1, 1: -1}))  # sum lam b = -1
    crossing = system(1, [([1], ">=", 1), ([1], "<=", 0)])
    assert verify_certificate(crossing, Infeasible({0: 1, 1: -1}))


def test_witness_missing_a_row_by_2_to_the_minus_80_rejected():
    ge = system(1, [([1], ">=", 1)])
    assert verify_certificate(ge, Feasible(point(1, Fraction(1))))
    assert not verify_certificate(ge, Feasible(point(1, 1 - TINY)))
    le = system(1, [([1], "<=", 1)])
    assert verify_certificate(le, Feasible(point(1, Fraction(1))))
    assert not verify_certificate(le, Feasible(point(1, 1 + TINY)))
    eq = system(1, [([1], "==", 1)])
    assert verify_certificate(eq, Feasible(point(1, Fraction(1))))
    assert not verify_certificate(eq, Feasible(point(1, 1 + TINY)))
    assert not verify_certificate(eq, Feasible(point(1, 1 - TINY)))


def test_optimal_whose_witness_misses_a_row_rejected():
    s = system(1, [([1], ">=", 1)], objective=[1])
    assert verify_certificate(s, Optimal(Fraction(1), point(1, Fraction(1)), {0: 1}))
    # the dual still certifies the value; the witness does not hold
    assert not verify_certificate(s, Optimal(Fraction(1), point(1, 1 - TINY), {0: 1}))


def test_optimal_whose_dual_certifies_another_value_or_objective_rejected():
    s = system(1, [([1], ">=", 1), ([1], "<=", 3)], objective=[1])
    assert verify_certificate(s, Optimal(Fraction(1), point(1, Fraction(1)), {0: 1}))
    # {0: 1} gives x >= 1: the objective, but the value 1, not 2
    assert not verify_certificate(s, Optimal(Fraction(2), point(1, Fraction(2)), {0: 1}))
    # {0: 2} gives 2x >= 2: the value 2, but not the objective x
    assert not verify_certificate(s, Optimal(Fraction(2), point(1, Fraction(2)), {0: 2}))


# --- witnesses over one common denominator ---------------------------------------------


def test_witness_with_mixed_denominators():
    third, bit = Fraction(1, 3), Fraction(1, 2**64)
    s = system(2, [
        ([1, 0], "==", third),
        ([0, 1], "==", bit),
        ([1, 1], "<=", third + bit),
        ([3, 2**64], "==", 2),
    ])
    assert verify_certificate(s, Feasible(point(2, third, bit)))
    assert not verify_certificate(s, Feasible(point(2, third + TINY, bit)))
    assert not verify_certificate(s, Feasible(point(2, third, bit - TINY)))


def test_row_with_fraction_coefficient():
    s = system(2, [([Fraction(1, 3), 1], ">=", 1)])
    assert verify_certificate(s, Feasible(point(2, Fraction(3, 2), Fraction(1, 2))))
    assert not verify_certificate(s, Feasible(point(2, Fraction(3, 2), Fraction(1, 2) - TINY)))


def test_float_witness_values_are_taken_exactly():
    # the float 0.1 is slightly above 1/10, and exactly Fraction(0.1)
    s = system(2, [([1, 0], ">=", Fraction(1, 10)), ([0, 1], "==", Fraction(1, 3))])
    assert verify_certificate(s, Feasible(point(2, 0.1, Fraction(1, 3))))
    below = system(2, [([1, 0], "<=", Fraction(1, 10)), ([0, 1], "==", Fraction(1, 3))])
    assert not verify_certificate(below, Feasible(point(2, 0.1, Fraction(1, 3))))
    exact = system(1, [([1], "==", 0.1)])
    assert verify_certificate(exact, Feasible(point(1, 0.1)))
    # 3 * 0.1 rounds to 0.30000000000000004 in floats; exactly it is 3 * Fraction(0.1)
    tripled = system(1, [([3], "==", 3 * Fraction(0.1))])
    assert verify_certificate(tripled, Feasible(point(1, 0.1)))


def test_non_finite_witness_values_are_rejected_not_raised():
    # inf would pass the >= row in float arithmetic; no exact point holds it
    s = system(2, [([1, 0], ">=", 0)])
    for bad in (float("inf"), float("-inf"), float("nan")):
        assert not verify_certificate(s, Feasible(point(2, bad, 0)))
        assert not verify_certificate(s, Feasible(point(2, 1, bad)))  # a value no row reads


# --- a dense re-check, and the property ---------------------------------------------


def dense_check(k, rows, objective, result) -> bool:
    """``result`` re-checked on ``rows`` (``(coefficients, rel, rhs)``)
    with dense Fraction vectors of length ``k``."""
    rows = [([Fraction(c) for c in coeffs], rel, Fraction(rhs)) for coeffs, rel, rhs in rows]

    def holds(lhs, rel, rhs):
        return {">=": lhs >= rhs, "<=": lhs <= rhs, "==": lhs == rhs}[rel]

    if isinstance(result, (Feasible, Optimal)):
        w = result.witness
        if w.ground != ground(k):
            return False
        x = [Fraction(w.values.get(1 << j, 0)) for j in range(k)]
        if not all(holds(sum(c * v for c, v in zip(a, x)), rel, b) for a, rel, b in rows):
            return False
        if isinstance(result, Feasible):
            return True
    lam = result.certificate if isinstance(result, Infeasible) else result.dual_certificate
    if lam is None or not all(type(i) is int and 0 <= i < len(rows) for i in lam):
        return False
    combo, total = [Fraction(0)] * k, Fraction(0)
    for i, mult in lam.items():
        a, rel, b = rows[i]
        if (rel == ">=" and mult < 0) or (rel == "<=" and mult > 0):
            return False
        combo = [s + mult * c for s, c in zip(combo, a)]
        total += mult * b
    if isinstance(result, Infeasible):
        return not any(combo) and total > 0
    return objective is not None and combo == [Fraction(c) for c in objective] and (
        total == result.value
    )


coefficient = st.one_of(st.integers(-2, 2), st.sampled_from([Fraction(1, 2), Fraction(-1, 3)]))
rhs_value = st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(1, 3), Fraction(-5, 2)]))


@st.composite
def systems(draw):
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.tuples(st.lists(coefficient, min_size=k, max_size=k),
                  st.sampled_from([">=", "<=", "=="]), rhs_value),
        min_size=1, max_size=6,
    ))
    objective = draw(st.none() | st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    return k, rows, objective


def _answer(k, rows, objective):
    s = system(k, rows, objective)
    if objective is not None and any(objective):
        try:
            return s, minimize(s)
        except DomainError:  # unbounded below
            pass
    return s, solve_feasibility(s)


def _tamper(result, data):
    """One change: a multiplier's sign flipped, one multiplier scaled, a
    row dropped, or one witness coordinate moved by +-2^-j."""
    lam = getattr(result, "certificate", None) or getattr(result, "dual_certificate", None)
    kinds = ["move"] if not isinstance(result, Infeasible) else []
    if lam:
        kinds += ["flip", "scale", "drop"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "move":
        w = result.witness
        mask = 1 << data.draw(st.integers(0, w.ground.n - 1))
        step = Fraction(data.draw(st.sampled_from([1, -1])), 2 ** data.draw(st.integers(1, 80)))
        values = dict(w.values)
        values[mask] = values.get(mask, 0) + step
        moved = EntropyVector(w.ground, values)
        if isinstance(result, Feasible):
            return Feasible(moved)
        return Optimal(result.value, moved, result.dual_certificate)
    i = data.draw(st.sampled_from(sorted(lam)))
    lam = dict(lam)
    if kind == "flip":
        lam[i] = -lam[i]
    elif kind == "scale":
        lam[i] *= data.draw(st.sampled_from([2, Fraction(1, 2), 3]))
    else:
        del lam[i]
    if isinstance(result, Infeasible):
        return Infeasible(lam)
    return Optimal(result.value, result.witness, lam)


@settings(deadline=None)
@given(systems(), st.data())
def test_tampered_answers_judged_like_a_dense_recheck(problem, data):
    k, rows, objective = problem
    s, result = _answer(k, rows, objective)
    assert verify_certificate(s, result) and dense_check(k, rows, objective, result)
    tampered = _tamper(result, data)
    accepted = verify_certificate(s, tampered)
    event(f"{type(result).__name__}, tampered answer accepted: {accepted}")
    assert accepted == dense_check(k, rows, objective, tampered)
