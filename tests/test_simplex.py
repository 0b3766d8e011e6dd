"""The exact simplex fallback against the warm path and ``minimize``.

Random LPs over at most four columns, with equality rows, negative
right-hand sides, duplicated rows, empty rows, conflicting equality
copies and infeasible systems, are solved both ways; every verdict must
pass ``verify_certificate``. Then a delta*-relaxed network LP whose
float point misses its exact reconstruction, so it is settled by the
simplex, and the bundled n=7 base LP solved cold.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entrolab import lp
from entrolab.core import DomainError, GroundSet, LinearFunctional, elemental_inequalities
from entrolab.network import build_lp_constraints, example1_problem
from entrolab.lp import (
    Feasible,
    LinearConstraint,
    LinearSystem,
    Optimal,
    minimize,
    solve_feasibility,
    verify_certificate,
)

RELS = ("<=", ">=", "==")
coeff = st.integers(-3, 3)
value = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def systems(draw, objective=False):
    k = draw(st.integers(1, 4))
    ground = GroundSet(tuple("ABCD"[:k]))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        f = LinearFunctional([(1 << i, c) for i, c in enumerate(draw(st.lists(
            coeff, min_size=k, max_size=k)))])
        rows.append(LinearConstraint(f, draw(st.sampled_from(RELS)), draw(value)))
    for _ in range(draw(st.integers(0, 2))):
        rows.append(draw(st.sampled_from(rows)))  # a duplicate row
    if draw(st.booleans()):
        # an empty functional: 0 rel rhs, true or false
        empty = LinearFunctional(())
        rows.append(LinearConstraint(empty, draw(st.sampled_from(RELS)), draw(value)))
    if draw(st.booleans()):
        # an equality copy of a row, with a different rhs
        c = draw(st.sampled_from(rows))
        rows.append(LinearConstraint(c.functional, "==", c.rhs + draw(st.sampled_from((-1, 1)))))
    if draw(st.booleans()):
        # a contradiction: some row's functional pushed past its rhs
        c = draw(st.sampled_from(rows))
        if c.relation == "<=":
            rows.append(LinearConstraint(c.functional, ">=", c.rhs + 1))
        else:
            rows.append(LinearConstraint(c.functional, "<=", c.rhs - 1))
    obj = None
    if objective:
        obj = LinearFunctional([(1 << i, c) for i, c in enumerate(draw(st.lists(
            coeff, min_size=k, max_size=k)))])
        assume(obj.terms)
    return LinearSystem(ground, rows, obj)


@given(systems())
@settings(max_examples=100, deadline=None)
def test_cold_verdict_matches_warm(sys_):
    warm = solve_feasibility(sys_)
    cold = solve_feasibility(sys_, warm_start=False)
    assert type(cold) is type(warm)
    assert verify_certificate(sys_, warm)
    assert verify_certificate(sys_, cold)


@given(systems(objective=True))
@example(LinearSystem(  # a reduced LP with no columns
    GroundSet(("A",)),
    [LinearConstraint(LinearFunctional([(1, 1)]), "<=", 1),
     LinearConstraint(LinearFunctional([(1, 1)]), "==", 0)],
    LinearFunctional([(1, 1)]),
))
@settings(max_examples=100, deadline=None)
def test_fallback_optimum_matches_minimize(sys_):
    # the unreduced exact path: no FD steps, the simplex alone; an
    # objective unbounded below raises DomainError on both paths
    try:
        exact = lp._settle(sys_, sys_.objective, warm=False)
    except DomainError:
        with pytest.raises(DomainError):
            minimize(sys_)
        return
    res = minimize(sys_)
    assert type(exact) is type(res)
    if isinstance(res, Optimal):
        assert exact.value == res.value
        assert exact.dual_certificate is not None
    assert verify_certificate(sys_, exact)
    assert verify_certificate(sys_, res)


def test_delta_star_reconstruction_miss_is_settled():
    """A delta*-relaxed LP on (Y1, Y2, K12, U1, U2) whose delta* bound d
    is within 2e-18 of (h(Y1,Y2) - 2) / 2 but not equal to it: on the
    unreduced rows the float active set is exactly inconsistent, so the
    warm point misses and the simplex must settle the verdict. The
    FD-reduced rows (73 x 19) settle it warm."""
    g = GroundSet(("Y1", "Y2", "K12", "U1", "U2"))
    m = g.mask
    h_y = Fraction(22772464917029034989, 2**63)  # rounded h(Y1,Y2)
    d = Fraction(4224336761054183, 2**54)  # rational(float delta*)

    def f(*terms):
        return LinearFunctional([(m(names), c) for names, c in terms])

    rows = [
        LinearConstraint(f((["Y1"], 1)), "==", 2),
        LinearConstraint(f((["Y2"], 1)), "==", 2),
        LinearConstraint(f((["Y1", "Y2"], 1)), "==", h_y),
        LinearConstraint(f((["Y1"], -1), (["Y1", "K12"], 1)), "<=", d),
        LinearConstraint(f((["Y2"], -1), (["Y2", "K12"], 1)), "<=", d),
        LinearConstraint(
            f((["K12"], -1), (["Y1", "K12"], 1), (["Y2", "K12"], 1), (["Y1", "Y2", "K12"], -1)),
            "<=", d),
        LinearConstraint(f((["Y1", "Y2"], -1), (["Y1", "Y2", "U1"], 1)), "==", 0),
        LinearConstraint(f((["Y1", "Y2"], -1), (["Y1", "Y2", "U2"], 1)), "==", 0),
        LinearConstraint(f((["U1", "U2"], -1), (["Y1", "U1", "U2"], 1)), "==", 0),
        LinearConstraint(f((["U1", "U2"], -1), (["Y2", "U1", "U2"], 1)), "==", 0),
        LinearConstraint(f((["U1"], 1)), "<=", h_y),
        LinearConstraint(f((["U2"], 1)), "<=", h_y),
    ]
    rows += [LinearConstraint(e, ">=", 0) for e in elemental_inequalities(g.n)]
    sys_ = LinearSystem(g, rows)
    start = time.perf_counter()
    res = solve_feasibility(sys_)
    assert time.perf_counter() - start < 10
    assert isinstance(res, Feasible)
    assert verify_certificate(sys_, res)
    trace = lp.SolveTrace()
    start = time.perf_counter()
    full = lp._settle(sys_, None, True, (), trace)
    assert time.perf_counter() - start < 10
    assert trace.misses == ["reconstruction miss"] and trace.path == "full-simplex"
    assert isinstance(full, Feasible)
    assert verify_certificate(sys_, full)


def test_cold_bundled_base_lp():
    """The bundled n=7 base LP (697 rows) settled by the simplex alone,
    on its FD-reduced rows (233 x 39)."""
    sys_ = build_lp_constraints(example1_problem())
    res = solve_feasibility(sys_, warm_start=False)
    assert isinstance(res, Feasible) and verify_certificate(sys_, res)
    assert res.trace.path == "reduced-exact" and res.trace.reduced["rows"] < 697
