import collections
import random

from fractions import Fraction as F
from hypothesis import example, given, settings, strategies as st

import simplex_reference as ref
from equilibra import simplex
from equilibra.simplex import lp_minimize, lp_feasible, lex_min_vertex, \
    OPTIMAL, INFEASIBLE, UNBOUNDED


def test_basics():
    st, x, v = lp_minimize([F(1), F(0)], [[F(1), F(1)]], [F(1)],
                           [[F(1), F(0)]], [F(1, 3)])
    assert (st, x, v) == (OPTIMAL, [F(1, 3), F(2, 3)], F(1, 3))
    st, _, _ = lp_minimize([F(1), F(0)],
                           [[F(1), F(1)], [F(1), F(0)]], [F(1), F(2)])
    assert st == INFEASIBLE
    st, _, _ = lp_minimize([F(-1), F(0)], [[F(1), F(-1)]], [F(0)])
    assert st == UNBOUNDED


def test_degenerate_cycling_guard():
    # classic Beale-like degeneracy; Bland's rule must terminate
    c = [F(-3, 4), F(150), F(-1, 50), F(6)]
    a_ge = [[-F(1, 4), F(60), F(-1, 25), F(9)],
            [-F(1, 2), F(90), F(-1, 50), F(3)],
            [F(0), F(0), F(-1), F(0)]]
    b_ge = [F(0), F(0), F(-1)]
    st, x, v = lp_minimize(c, [], [], a_ge, b_ge)
    assert st == OPTIMAL
    assert v == 0


def test_random_lps_optimality():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 4)
        cost = [F(rng.randint(-3, 3)) for _ in range(n)]
        a_eq = [[F(1)] * n]
        b_eq = [F(1)]
        a_ge = [[F(rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(rng.randint(0, 2))]
        b_ge = [F(rng.randint(-2, 1)) for _ in a_ge]
        st, x, v = lp_minimize(cost, a_eq, b_eq, a_ge, b_ge)
        if st != OPTIMAL:
            continue
        assert sum(x) == 1 and all(xi >= 0 for xi in x)
        for row, b in zip(a_ge, b_ge):
            assert sum(r * xi for r, xi in zip(row, x)) >= b
        # no simplex-vertex sample may beat the optimum
        for _ in range(20):
            y = [F(rng.randint(0, 4)) for _ in range(n)]
            tot = sum(y)
            if tot == 0:
                continue
            y = [yi / tot for yi in y]
            if all(sum(r * yi for r, yi in zip(row, y)) >= b
                   for row, b in zip(a_ge, b_ge)):
                assert sum(c * yi for c, yi in zip(cost, y)) >= v


def test_lex_min():
    st, x = lex_min_vertex(
        [[F(0), F(1), F(2)], [F(1), F(0), F(2)]],
        [[F(1), F(1), F(1)]], [F(1)],
        [[F(0), F(1), F(2)], [F(1), F(0), F(2)]], [F(1), F(1)])
    assert st == OPTIMAL and x == [F(1, 3)] * 3


# -- the integer-row simplex against the Fraction simplex it replaced -------

numbers = st.one_of(st.integers(-4, 4),
                    st.builds(F, st.integers(-6, 6), st.integers(1, 6)))
# Beale's cycling example, its <= rows written as >= rows
BEALE = ([F(-3, 4), 20, F(-1, 2), 6], [], [],
         [[F(-1, 4), 8, 1, -9], [F(-1, 2), 12, F(1, 2), -3], [0, 0, -1, 0]],
         [0, 0, -1])
# redundant equalities: an artificial stays basic at zero on the second row
# and is driven out by pivoting on a negative entry
DRIVE_OUT = ([1, 1], [[1, 1], [1, -1], [2, 0]], [0, 0, 0], [], [])
# a tie in the ratio test that the least basic index, not the least row,
# must break
RATIO_TIE = ([0, 0], [[0, 1]], [2], [[-1, 1], [2, 1]], [0, 0])
# an artificial left on a row with several nonzero columns: driving it out
# on the first one leads phase 2 to a different optimal vertex than the last
DRIVE_OUT_COLUMN = ([0, -1, 0, 0], [[0, 2, -2, -2], [1, 1, 1, 1],
                                    [0, -2, 2, 2]], [0, 1, 0], [], [])
INFEASIBLE_LP = ([0, 0], [[1, 1], [2, 2]], [1, 3], [], [])
UNBOUNDED_LP = ([-1, 0], [[1, -1]], [F(-1, 2)], [[0, 1]], [F(1, 3)])


# the point a square system fixes, off the probability simplex and on a
# face of it
PINNED = ([1, 2], [[1, 1], [1, -1]], [1, 0], [[3, -1]], [1])
PINNED_ON_FACE = ([0, 1, 1], [[1, 1, 1], [0, 1, 0], [0, 0, 1]],
                  [1, 0, F(1, 2)], [[-1, 1, 0]], [F(-1, 2)])
# a single variable: the single-cycle cores of NE search, whose only
# feasible point is alpha = 1
ONE_CYCLE = ([0], [[1]], [1], [[F(3, 2)], [F(-2)]], [1, -2])
ONE_CYCLE_MISSED = ([0], [[1]], [1], [[F(3, 2)], [F(-2)]], [2, -2])
# a pinned point with a negative entry; an extra row that contradicts it
PINNED_NEGATIVE = ([1, 1], [[1, 1], [1, -1]], [0, 2], [], [])
PINNED_INCONSISTENT = ([0, 0], [[1, 0], [0, 1], [1, 1]], [1, 1, 3], [], [])
# as many equalities as variables but rank one: the two phases decide
RANK_DEFICIENT = ([1, -1], [[1, 1], [2, 2]], [1, 2], [], [])

nonnegative = st.builds(F, st.integers(0, 6), st.integers(1, 6))


def dot(row, x):
    return sum(a * v for a, v in zip(row, x))


@st.composite
def pinned_rows(draw, n):
    """(a_eq, b_eq, point): n equality rows of rank n that fix the point,
    a triangular system with a nonzero diagonal mixed by row additions;
    one time in four the last row is made a multiple of the first (rank
    n - 1, an empty row when n = 1), which leaves a line of points open.
    The point is nonnegative but for, one time in four, one entry."""
    point = [draw(nonnegative) for _ in range(n)]
    if draw(st.integers(0, 3)) == 0:
        point[draw(st.integers(0, n - 1))] = -draw(nonnegative) - 1
    a_eq = [[0] * i + [draw(numbers.filter(bool))]
            + [draw(numbers) for _ in range(n - i - 1)] for i in range(n)]
    for _ in range(draw(st.integers(0, n))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j:
            k = draw(st.sampled_from([1, -1, 2, F(1, 2)]))
            a_eq[j] = [y + k * z for y, z in zip(a_eq[j], a_eq[i])]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.sampled_from([0, 1, -2]))
        a_eq[-1] = [k * y for y in a_eq[0]] if n > 1 else [0]
    return a_eq, [dot(r, point) for r in a_eq], point


@st.composite
def lps(draw):
    """(cost, a_eq, b_eq, a_ge, b_ge) with int and Fraction entries,
    degenerate right-hand sides and redundant equality rows; in a third
    of them the equalities fix the point, or all but one direction."""
    n = draw(st.integers(1, 5))
    row = st.lists(numbers, min_size=n, max_size=n)
    cost = draw(row)
    a_ge = draw(st.lists(row, max_size=3))
    b_ge = [draw(numbers) for _ in a_ge]
    if draw(st.integers(0, 2)):
        a_eq = draw(st.lists(row, max_size=3))
        b_eq = [draw(numbers) for _ in a_eq]
        if draw(st.booleans()):
            # degenerate: every right-hand side zero but possibly the last
            b_eq = [0] * len(b_eq)
            b_ge = [0] * (len(b_ge) - 1) + b_ge[-1:]
        if draw(st.booleans()):
            # the probability simplex, as in every LP negotiation solves
            a_eq.append([1] * n)
            b_eq.append(1)
    else:
        a_eq, b_eq, point = draw(pinned_rows(n))
        if a_ge and draw(st.booleans()):
            # a >= row the point meets with equality, or misses by one
            b_ge[-1] = dot(a_ge[-1], point) + draw(st.sampled_from([0, 1]))
    for _ in range(draw(st.integers(0, 2)) if a_eq else 0):
        i = draw(st.integers(0, len(a_eq) - 1))
        j = draw(st.integers(0, len(a_eq) - 1))
        k = draw(st.sampled_from([1, -1, 2, F(1, 2)]))
        c = draw(st.sampled_from([0, 1]))
        # redundant, or one time in three inconsistent
        off = draw(st.sampled_from([0, 0, 1]))
        a_eq.append([k * x + c * y for x, y in zip(a_eq[i], a_eq[j])])
        b_eq.append(k * b_eq[i] + c * b_eq[j] + off)
    order = draw(st.permutations(range(len(a_eq))))
    return (cost, [a_eq[i] for i in order], [b_eq[i] for i in order],
            a_ge, b_ge)


def spy_pinned(monkeypatch):
    """The statuses the pinned path answers with, None where it hands the
    LP to the two phases, counted while the test runs."""
    seen = collections.Counter()
    real = simplex._pinned

    def spy(*args):
        answer = real(*args)
        seen[answer and answer[0]] += 1
        return answer

    monkeypatch.setattr(simplex, "_pinned", spy)
    return seen


def same_result(got, want):
    assert got == want
    for v in got[1] or ():
        assert type(v) is F


@settings(max_examples=300, deadline=None)
@given(lps())
@example(BEALE)
@example(DRIVE_OUT)
@example(RATIO_TIE)
@example(DRIVE_OUT_COLUMN)
@example(INFEASIBLE_LP)
@example(UNBOUNDED_LP)
@example(PINNED)
@example(PINNED_ON_FACE)
@example(ONE_CYCLE)
@example(ONE_CYCLE_MISSED)
@example(PINNED_NEGATIVE)
@example(PINNED_INCONSISTENT)
@example(RANK_DEFICIENT)
def check_lp_minimize(lp):
    got = lp_minimize(*lp)
    same_result(got, ref.lp_minimize(*lp))
    if got[0] == OPTIMAL:
        assert type(got[2]) is F


def test_lp_minimize_matches_reference(monkeypatch):
    # the pinned path answers a share of the draws, both ways, and hands
    # on the rank-deficient ones
    seen = spy_pinned(monkeypatch)
    check_lp_minimize()
    assert seen[OPTIMAL] >= 5 and seen[INFEASIBLE] >= 20
    assert seen[None] >= 20


@settings(max_examples=100, deadline=None)
@given(lps())
@example(DRIVE_OUT)
@example(RATIO_TIE)
@example(INFEASIBLE_LP)
@example(ONE_CYCLE)
@example(PINNED_INCONSISTENT)
def test_lp_feasible_matches_reference(lp):
    _, a_eq, b_eq, a_ge, b_ge = lp
    nvar = len(lp[0])
    same_result(lp_feasible(a_eq, b_eq, a_ge, b_ge, nvar=nvar),
                ref.lp_feasible(a_eq, b_eq, a_ge, b_ge, nvar=nvar))


@st.composite
def lex_cases(draw):
    """((cost, a_eq, b_eq, a_ge, b_ge), more objectives): half of them
    shaped as negotiation's LPs, one distribution over 1-3 cycles with
    floors and one objective per player, so that the later objectives
    are solved with the point already fixed."""
    if draw(st.booleans()):
        lp = draw(lps())
        n = len(lp[0])
        return lp, draw(st.lists(st.lists(numbers, min_size=n, max_size=n),
                                 max_size=2))
    n = draw(st.integers(1, 3))
    row = st.lists(numbers, min_size=n, max_size=n)
    objectives = draw(st.lists(row, min_size=2, max_size=3))
    a_ge = draw(st.lists(st.sampled_from(objectives), max_size=2))
    b_ge = [draw(numbers) for _ in a_ge]
    return (objectives[0], [[1] * n], [1], a_ge, b_ge), objectives[1:]


@settings(max_examples=150, deadline=None)
@given(lex_cases())
@example((BEALE, [[0, 0, 1, 0], [1, 1, 1, 1]]))
@example((DRIVE_OUT, [[-1, 1]]))
@example((DRIVE_OUT_COLUMN, [[0, 0, 1, 0]]))
@example((([1, 0], [[1, 1]], [1], [], []), [[0, 1]]))
def check_lex_min_vertex(case):
    (cost, a_eq, b_eq, a_ge, b_ge), more = case
    objectives = [cost] + more
    same_result(lex_min_vertex(objectives, a_eq, b_eq, a_ge, b_ge),
                ref.lex_min_vertex(objectives, a_eq, b_eq, a_ge, b_ge))


def test_lex_min_vertex_matches_reference(monkeypatch):
    # negotiation's shape: once as many objectives are fixed as there are
    # cycles, the remaining ones take the pinned path
    seen = spy_pinned(monkeypatch)
    check_lex_min_vertex()
    assert seen[OPTIMAL] >= 20
