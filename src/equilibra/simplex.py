"""Exact-rational LP solving, small and dense.

Two-phase simplex with Bland's rule: no tolerance artifacts, which the
fixed-point equality tests downstream rely on.  Variables are nonnegative;
constraints come as equalities and >= inequalities, with int or Fraction
coefficients.

The tableau holds Python ints.  Each row is a list of ints (its right-hand
side last) with one positive int denominator of its own, reduced by the gcd
of its entries after every update; the reduced-cost row is the tableau's
last row, carried the same way and updated by the same pivots.  Because the
denominator is per row, the artificial column of row i reads 1 in row i, so
phase 1 minimizes the plain sum of the artificials.  Fractions are built only
for the returned point and value.

The pivot order is fixed: the entering column is the least index with a
negative reduced cost, the leaving row the least ratio with ties broken by
the least basic index, and leftover artificials are driven out row by row on
their first nonzero column.  Witnesses downstream are the vertices this
order reaches, so another order, even a faster one, could change answers.

One case needs no tableau.  When the equality rows have rank nvar (so there
are at least nvar of them), they fix one point or none: `_pinned` solves
them by integer elimination on the rows the tableau would be built from,
and checks the point against x >= 0 and the >= rows.  The feasible set is
then that single point or empty, so the two phases could only end at that
point, with value cost.x, or report the LP infeasible; `_pinned` returns
the same (status, x, value), Fractions included.  Single-cycle cores (one
variable, the row sum = 1) and `lex_min_vertex`'s objectives once as many
are fixed as there are variables take this path.  Every other LP runs the
two phases.
"""

import math
from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def lp_minimize(cost, a_eq, b_eq, a_ge=(), b_ge=()):
    """min cost.x subject to a_eq x = b_eq, a_ge x >= b_ge, x >= 0.

    Returns (status, x, value).
    """
    nvar = len(cost)
    a_eq = list(a_eq)
    a_ge = list(a_ge)
    neq = len(a_eq)
    nsur = len(a_ge)
    total = nvar + nsur
    given = [_scaled(list(r) + [b])
             for r, b in zip(a_eq + a_ge, list(b_eq) + list(b_ge))]
    if neq >= nvar:
        answer = _pinned(cost, [line for line, _ in given[:neq]],
                         [line for line, _ in given[neq:]])
        if answer is not None:
            return answer
    m = len(given)
    tab = []
    den = []
    for i, (line, d) in enumerate(given):
        rhs = line[-1]
        line = line[:-1] + [0] * nsur
        k = i - neq
        if k >= 0:
            # a.x >= b  ->  a.x - s = b with surplus s >= 0
            line[nvar + k] = -d
        if rhs < 0:
            line = [-x for x in line]
            rhs = -rhs
        art = [0] * m
        art[i] = d
        tab.append(line + art + [rhs])
        den.append(d)
    # phase 1: artificial basis, minimize the sum of the artificials
    basis = [total + i for i in range(m)]
    obj, oden = _priced([0] * total + [1] * m + [0], 1, tab, den, basis)
    tab.append(obj)
    den.append(oden)
    if _run_simplex(tab, den, basis, total + m) == UNBOUNDED:
        return INFEASIBLE, None, None
    if any(tab[i][-1] for i in range(m) if basis[i] >= total):
        return INFEASIBLE, None, None
    # drive remaining artificials out of the basis when possible
    for i in range(m):
        if basis[i] >= total:
            row = tab[i]
            for j in range(total):
                if row[j]:
                    _pivot(tab, den, basis, i, j)
                    break
    # drop artificial rows and columns and the phase-1 objective
    keep = [i for i in range(m) if basis[i] < total]
    tab = [tab[i][:total] + [tab[i][-1]] for i in keep]
    den = [den[i] for i in keep]
    basis = [basis[i] for i in keep]
    obj, oden = _priced(*_scaled(list(cost) + [0] * (nsur + 1)), tab, den,
                        basis)
    tab.append(obj)
    den.append(oden)
    if _run_simplex(tab, den, basis, total) == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * nvar
    for i, bv in enumerate(basis):
        if bv < nvar:
            x[bv] = Fraction(tab[i][-1], den[i])
    # the objective row's right-hand side is minus the objective value
    return OPTIMAL, x, Fraction(-tab[-1][-1], den[-1])


def _scaled(values):
    """Ints over the least common denominator of int/Fraction values."""
    d = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def _pinned(cost, eq, ge):
    """The answer of an LP whose equality rows have rank nvar, so fix one
    point or none; None when their rank is lower.  eq and ge are int rows,
    right-hand side last.

    Gauss-Jordan elimination without fractions: each column's pivot row
    is the first remaining row that is nonzero there, and the column is
    cleared from every other row by cross-multiplying.  Rows with no
    pivot end with every coefficient zero; one with a nonzero right-hand
    side makes the equalities inconsistent."""
    nvar = len(cost)
    rows = eq
    solved = []
    for j in range(nvar):
        for k, piv in enumerate(rows):
            if piv[j]:
                break
        else:
            return None
        rows = [_cleared(r, j, piv) for r in rows[:k] + rows[k + 1:]]
        solved = [_cleared(r, j, piv) for r in solved] + [piv]
    if any(r[-1] for r in rows):
        return INFEASIBLE, None, None
    # x_j = num_j / den_j, and x_j = X_j / D over their least common
    # denominator D > 0
    num = []
    den = []
    for j, r in enumerate(solved):
        n, d = r[-1], r[j]
        if d < 0:
            n, d = -n, -d
        if n < 0:
            return INFEASIBLE, None, None
        num.append(n)
        den.append(d)
    lcd = math.lcm(*den)
    scaled = [n * (lcd // d) for n, d in zip(num, den)]
    for r in ge:
        if sum(a * x for a, x in zip(r, scaled)) < r[-1] * lcd:
            return INFEASIBLE, None, None
    c, dc = _scaled(list(cost))
    return (OPTIMAL, [Fraction(n, d) for n, d in zip(num, den)],
            Fraction(sum(a * x for a, x in zip(c, scaled)), lcd * dc))


def _cleared(row, j, piv):
    """row with column j eliminated by the pivot row piv, gcd-reduced."""
    f = row[j]
    if not f:
        return row
    p = piv[j]
    new = [x * p - f * y for x, y in zip(row, piv)]
    g = math.gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _priced(obj, d, tab, den, basis):
    """Reduced costs of the cost row obj/d: the basic columns eliminated."""
    for row, p, bv in zip(tab, den, basis):
        if obj[bv]:
            obj, d = _combine(obj, d, obj[bv], row, p)
    return obj, d


def _combine(row, d, f, prow, p):
    """row/d - (f/d) * prow/p as (ints, denominator), gcd-reduced; prow/p
    is a row whose pivot entry is 1, so f/d is what row/d holds there."""
    new = [x * p - f * y for x, y in zip(row, prow)]
    d *= p
    g = math.gcd(d, *new)
    if g > 1:
        new = [x // g for x in new]
        d //= g
    return new, d


def _pivot(tab, den, basis, r, c):
    """Pivot on (r, c): row r is scaled so its entry in column c is 1 and
    column c is eliminated from every other row, the objective row last."""
    row = tab[r]
    p = row[c]
    if p < 0:
        row = [-x for x in row]
        p = -p
    g = math.gcd(*row)
    if g > 1:
        row = [x // g for x in row]
        p //= g
    tab[r] = row
    den[r] = p
    basis[r] = c
    for i, other in enumerate(tab):
        f = other[c]
        if f and i != r:
            tab[i], den[i] = _combine(other, den[i], f, row, p)


def _run_simplex(tab, den, basis, width):
    """Bland's rule on tab (objective row last) over the first `width`
    columns, until no reduced cost is negative."""
    m = len(basis)
    obj = tab[m]
    while True:
        entering = None
        for j in range(width):
            if obj[j] < 0:
                entering = j  # Bland: least index
                break
        if entering is None:
            return OPTIMAL
        # least ratio rhs/a over rows with a > 0; the row denominators
        # cancel, so the ratios compare by cross-multiplying the ints
        leaving = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                b = tab[i][-1]
                if leaving is None:
                    leaving, la, lb = i, a, b
                    continue
                lhs, rhs = b * la, lb * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, la, lb = i, a, b
        if leaving is None:
            return UNBOUNDED
        _pivot(tab, den, basis, leaving, entering)
        obj = tab[m]


def lp_feasible(a_eq, b_eq, a_ge=(), b_ge=(), *, nvar):
    """Feasibility check over nvar nonnegative variables: (True, a
    feasible point) or (False, None)."""
    status, x, _ = lp_minimize([Fraction(0)] * nvar, a_eq, b_eq, a_ge, b_ge)
    return status == OPTIMAL, x


def lex_min_vertex(objectives, a_eq, b_eq, a_ge=(), b_ge=()):
    """Lexicographic minimization: optimize objectives in order, fixing each
    optimum as an equality.  Deterministic witness extraction."""
    a_eq = [list(r) for r in a_eq]
    b_eq = list(b_eq)
    x = None
    for obj in objectives:
        status, x, val = lp_minimize(obj, a_eq, b_eq, a_ge, b_ge)
        if status != OPTIMAL:
            return status, None
        a_eq.append(list(obj))
        b_eq.append(val)
    return OPTIMAL, x
