import itertools
import random
from fractions import Fraction

import pytest

from entrolab import lp, rational
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

G1 = GroundSet(("A",))
X = LinearFunctional(((1, rational(1)),))


def var_system(k):
    """Ground set whose singleton masks act as k free LP variables."""
    return GroundSet(tuple(chr(ord("A") + i) for i in range(k)))


def lf(coeffs):
    return LinearFunctional(
        tuple((1 << i, rational(c)) for i, c in enumerate(coeffs) if c)
    )


def test_trivially_feasible_and_infeasible():
    s = LinearSystem(G1, [LinearConstraint(X, ">=", 1), LinearConstraint(X, "<=", 2)])
    r = solve_feasibility(s)
    assert isinstance(r, Feasible) and verify_certificate(s, r)
    s2 = LinearSystem(G1, [LinearConstraint(X, ">=", 1), LinearConstraint(X, "<=", 0)])
    r2 = solve_feasibility(s2)
    assert isinstance(r2, Infeasible) and verify_certificate(s2, r2)


def test_exact_path_matches_warm_start():
    s2 = LinearSystem(G1, [LinearConstraint(X, ">=", 1), LinearConstraint(X, "<=", 0)])
    r = solve_feasibility(s2, warm_start=False)
    assert isinstance(r, Infeasible) and verify_certificate(s2, r)


def test_conflicting_equalities_short_circuit():
    s = LinearSystem(G1, [LinearConstraint(X, "==", 1), LinearConstraint(X, "==", 2)])
    r = solve_feasibility(s)
    assert isinstance(r, Infeasible) and verify_certificate(s, r)


def test_trivial_contradiction_row():
    empty = LinearFunctional(())
    s = LinearSystem(G1, [LinearConstraint(empty, ">=", 1)])
    r = solve_feasibility(s)
    assert isinstance(r, Infeasible) and verify_certificate(s, r)


def test_minimize_and_unbounded():
    s = LinearSystem(G1, [LinearConstraint(X, ">=", 3)], objective=X)
    r = minimize(s)
    assert isinstance(r, Optimal) and r.value == 3 and verify_certificate(s, r)
    s2 = LinearSystem(G1, [LinearConstraint(X, "<=", 5)], objective=X)
    with pytest.raises(DomainError):
        minimize(s2)


def test_minimize_with_no_reduced_columns():
    # h(A) == 0 maps A to the class of the empty set, so the reduced LP
    # has no columns left for HiGHS; the exact path settles it
    s = LinearSystem(G1, [LinearConstraint(X, "==", 0)], objective=X)
    r = minimize(s)
    assert isinstance(r, Optimal) and r.value == 0 and verify_certificate(s, r)


def test_row_format_is_exact_ints_and_fractions():
    f = LinearFunctional([(1, 0.1), (2, "3/2"), (4, Fraction(4, 2)), (8, 3), (2, "-3/2")])
    # the float's exact binary value; the cancelling h(B) terms are gone
    assert f.terms == ((1, Fraction(0.1)), (4, 2), (8, 3))
    assert f.terms[0][1] != Fraction(1, 10)
    assert [type(c) for _, c in f.terms] == [Fraction, int, int]
    g = var_system(4)
    rows = [LinearConstraint(f, ">=", 1), LinearConstraint(lf([1, 1, 1, 1]), "<=", "5/2")]
    s = LinearSystem(g, rows, objective=f)
    for c in s.constraints:
        assert type(c.rhs) is Fraction
        assert all(type(v) in (int, Fraction) for _, v in c.functional.terms)
    bad = LinearSystem(g, rows + [LinearConstraint(f, "<=", 0.5)])
    feasible, optimal, infeasible = solve_feasibility(s), minimize(s), solve_feasibility(bad)
    assert isinstance(feasible, Feasible) and verify_certificate(s, feasible)
    assert isinstance(optimal, Optimal) and optimal.value == 1 and verify_certificate(s, optimal)
    assert isinstance(infeasible, Infeasible) and verify_certificate(bad, infeasible)
    exact = [optimal.value]
    exact += [*feasible.witness.values.values(), *optimal.witness.values.values()]
    exact += [*optimal.dual_certificate.values(), *infeasible.certificate.values()]
    assert all(type(v) in (int, Fraction) for v in exact)


def test_minimize_requires_objective():
    s = LinearSystem(G1, [LinearConstraint(X, ">=", 0)])
    with pytest.raises(DomainError):
        minimize(s)


def test_fractional_optimum_is_exact():
    g = var_system(2)
    # min x + y  s.t.  3x + y >= 1, x + 3y >= 1
    obj = lf([1, 1])
    s = LinearSystem(
        g,
        [
            LinearConstraint(lf([3, 1]), ">=", 1),
            LinearConstraint(lf([1, 3]), ">=", 1),
        ],
        objective=obj,
    )
    r = minimize(s)
    assert isinstance(r, Optimal)
    assert r.value == rational(1, 2)
    assert verify_certificate(s, r)


def _fractional_lp():
    # min x + y  s.t.  3x + y >= 1, x + 3y >= 1: optimum 1/2 at (1/4, 1/4)
    rows = [LinearConstraint(lf([3, 1]), ">=", 1), LinearConstraint(lf([1, 3]), ">=", 1)]
    return LinearSystem(var_system(2), rows, objective=lf([1, 1]))


def test_optimal_without_dual_or_objective_rejected():
    s = _fractional_lp()
    r = minimize(s)
    assert verify_certificate(s, r)
    assert not verify_certificate(s, Optimal(r.value, r.witness, None))
    bare = LinearSystem(s.ground, s.constraints)
    assert not verify_certificate(bare, r)


def test_minimize_dual_miss_falls_back_to_verified_dual(monkeypatch):
    monkeypatch.setattr(lp, "_exact_multipliers", lambda *args: None)
    s = _fractional_lp()
    r = minimize(s)
    assert isinstance(r, Optimal) and r.value == rational(1, 2)
    assert r.dual_certificate and verify_certificate(s, r)


def test_witness_over_another_ground_rejected():
    s = LinearSystem(var_system(2), [LinearConstraint(lf([1, 1]), ">=", 1)])
    r = solve_feasibility(s)
    assert isinstance(r, Feasible) and verify_certificate(s, r)
    other = EntropyVector(GroundSet(("X", "Y", "Z")), dict(r.witness.values))
    assert not verify_certificate(s, Feasible(other))


def test_farkas_keys_must_name_constraints():
    s = LinearSystem(G1, [LinearConstraint(X, ">=", 1), LinearConstraint(X, "<=", 0)])
    assert verify_certificate(s, Infeasible({0: 1, 1: -1}))
    # the same multipliers under negative keys, read from the end
    assert not verify_certificate(s, Infeasible({-2: 1, -1: -1}))


def test_farkas_key_past_the_end_rejected():
    s = LinearSystem(G1, [LinearConstraint(X, ">=", 1), LinearConstraint(X, "<=", 0)])
    assert not verify_certificate(s, Infeasible({5: 1}))


def test_dual_keys_must_name_constraints():
    s = LinearSystem(G1, [LinearConstraint(X, ">=", 3)], objective=X)
    r = minimize(s)
    assert isinstance(r, Optimal) and verify_certificate(s, r)
    assert not verify_certificate(s, Optimal(r.value, r.witness, {-1: 1}))


def test_dump_system_format():
    s = LinearSystem(G1, [LinearConstraint(X, ">=", rational(1, 2))])
    out = s.render()
    assert out == "1*h{A} >= 1/2"


def test_constraint_outside_ground_rejected():
    far = LinearFunctional(((1 << 5, rational(1)),))
    with pytest.raises(DomainError):
        LinearSystem(G1, [LinearConstraint(far, ">=", 0)])
    # a multi-term row whose last (largest) mask alone is outside
    g = var_system(2)
    row = LinearFunctional([(1, 1), (2, -1), (1 << 2, 1)])
    inside = LinearConstraint(lf([1, 1]), ">=", 0)
    with pytest.raises(DomainError):
        LinearSystem(g, [inside, LinearConstraint(row, "<=", 1)])
    with pytest.raises(DomainError):
        LinearSystem(g, [inside], objective=row)


def test_scale_invariance_of_verdict():
    g = var_system(2)
    rows = [
        LinearConstraint(lf([1, 1]), "<=", 1),
        LinearConstraint(lf([1, 0]), ">=", 1),
        LinearConstraint(lf([0, 1]), ">=", 1),
    ]
    s = LinearSystem(g, rows)
    scaled = LinearSystem(
        g,
        [
            LinearConstraint(c.functional.scaled(rational(7)), c.relation, c.rhs * 7)
            for c in rows
        ],
    )
    r1, r2 = solve_feasibility(s), solve_feasibility(scaled)
    assert type(r1) is type(r2) is Infeasible
    assert verify_certificate(s, r1) and verify_certificate(scaled, r2)


def test_determinism():
    g = var_system(3)
    rows = [
        LinearConstraint(lf([1, 2, -1]), ">=", 1),
        LinearConstraint(lf([-1, 1, 1]), "<=", 4),
        LinearConstraint(lf([1, 1, 1]), "==", 2),
    ]
    s = LinearSystem(g, rows)
    r1, r2 = solve_feasibility(s), solve_feasibility(s)
    assert isinstance(r1, Feasible)
    assert r1.witness.values == r2.witness.values


# --- independent oracle: Fourier-Motzkin elimination ---------------------------


def fm_feasible(rows, k):
    """Exact feasibility of [(coeffs, rel, rhs)] by eliminating variables.

    Everything is first normalized to <= rows; equalities contribute a
    pair. Independent of the simplex implementation."""
    le_rows = []
    for coeffs, rel, rhs in rows:
        c = [rational(v) for v in coeffs]
        b = rational(rhs)
        if rel in ("<=", "=="):
            le_rows.append((c, b))
        if rel in (">=", "=="):
            le_rows.append(([-v for v in c], -b))
    for var in range(k):
        pos, neg, rest = [], [], []
        for c, b in le_rows:
            if c[var] > 0:
                pos.append((c, b))
            elif c[var] < 0:
                neg.append((c, b))
            else:
                rest.append((c, b))
        combined = []
        for (cp, bp), (cn, bn) in itertools.product(pos, neg):
            fp, fn = cp[var], -cn[var]
            c = [fn * a + fp * d for a, d in zip(cp, cn)]
            combined.append((c, fn * bp + fp * bn))
        le_rows = rest + combined
        # rows equal up to a positive scale are one constraint: keep the
        # smallest rhs of each, normalised by its first nonzero |coeff|
        dedup = {}
        for c, b in le_rows:
            scale = next((abs(v) for v in c if v), 1)
            key = tuple(v / scale for v in c)
            if key not in dedup or b / scale < dedup[key]:
                dedup[key] = b / scale
        le_rows = [(list(c), b) for c, b in dedup.items()]
    return all(b >= 0 for c, b in le_rows)


def test_against_fourier_motzkin_oracle():
    rng = random.Random(2024)
    for trial in range(200):
        k = rng.randint(1, 4)
        g = var_system(k)
        nrows = rng.randint(1, 8)
        rows = []
        constraints = []
        for _ in range(nrows):
            coeffs = [rng.randint(-3, 3) for _ in range(k)]
            rel = rng.choice(["<=", ">=", "=="])
            rhs = rng.randint(-4, 4)
            rows.append((coeffs, rel, rhs))
            constraints.append(LinearConstraint(lf(coeffs), rel, rhs))
        s = LinearSystem(g, constraints)
        res = solve_feasibility(s)
        assert verify_certificate(s, res), (trial, rows)
        expected = fm_feasible(rows, k)
        assert isinstance(res, Feasible) == expected, (trial, rows)
