# The Fraction-per-cell two-phase simplex that equilibra.simplex replaced,
# kept verbatim as the reference its integer-row rewrite must agree with
# exactly: same status, same vertex, same value (tests/test_simplex.py).

"""Exact-rational LP solving, small and dense.

Two-phase simplex with Bland's rule over Fractions: no tolerance artifacts,
which the fixed-point equality tests downstream rely on.  Variables are
nonnegative; constraints come as equalities and >= inequalities.
"""

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def lp_minimize(cost, a_eq, b_eq, a_ge=(), b_ge=()):
    """min cost.x subject to a_eq x = b_eq, a_ge x >= b_ge, x >= 0.

    Returns (status, x, value).
    """
    rows = []
    rhs = []
    nvar = len(cost)
    for r, b in zip(a_eq, b_eq):
        rows.append(list(r))
        rhs.append(Fraction(b))
    for r, b in zip(a_ge, b_ge):
        # a.x >= b  ->  a.x - s = b with surplus s >= 0
        rows.append(list(r))
        rhs.append(Fraction(b))
    nsur = len(list(a_ge))
    total = nvar + nsur
    tab = []
    for i, row in enumerate(rows):
        line = [Fraction(x) for x in row] + [Fraction(0)] * nsur
        k = i - len(list(a_eq))
        if k >= 0:
            line[nvar + k] = Fraction(-1)
        tab.append(line)
    for i in range(len(tab)):
        if rhs[i] < 0:
            tab[i] = [-x for x in tab[i]]
            rhs[i] = -rhs[i]
    m = len(tab)
    # phase 1: artificial basis
    basis = []
    for i in range(m):
        tab[i] = tab[i] + [Fraction(1) if j == i else Fraction(0)
                           for j in range(m)]
        basis.append(total + i)
    width = total + m
    phase1 = [Fraction(0)] * total + [Fraction(1)] * m
    res = _run_simplex(tab, rhs, basis, phase1, width)
    if res == UNBOUNDED:
        return INFEASIBLE, None, None
    if sum(rhs[i] for i in range(m) if basis[i] >= total) != 0:
        if _phase1_value(tab, rhs, basis, total) != 0:
            return INFEASIBLE, None, None
    if _phase1_value(tab, rhs, basis, total) != 0:
        return INFEASIBLE, None, None
    # drive remaining artificials out of the basis when possible
    for i in range(m):
        if basis[i] >= total:
            piv = None
            for j in range(total):
                if tab[i][j] != 0:
                    piv = j
                    break
            if piv is not None:
                _pivot(tab, rhs, basis, i, piv)
    # drop artificial columns
    keep_rows = [i for i in range(m) if basis[i] < total]
    tab = [tab[i][:total] for i in keep_rows]
    rhs = [rhs[i] for i in keep_rows]
    basis = [basis[i] for i in keep_rows]
    phase2 = [Fraction(c) for c in cost] + [Fraction(0)] * nsur
    res = _run_simplex(tab, rhs, basis, phase2, total)
    if res == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * nvar
    for i, bv in enumerate(basis):
        if bv < nvar:
            x[bv] = rhs[i]
    value = sum(c * v for c, v in zip(cost, x))
    return OPTIMAL, x, value


def _phase1_value(tab, rhs, basis, total):
    return sum(rhs[i] for i in range(len(basis)) if basis[i] >= total)


def _pivot(tab, rhs, basis, r, c):
    pv = tab[r][c]
    tab[r] = [x / pv for x in tab[r]]
    rhs[r] /= pv
    for i in range(len(tab)):
        if i != r and tab[i][c] != 0:
            f = tab[i][c]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
            rhs[i] -= f * rhs[r]
    basis[r] = c


def _run_simplex(tab, rhs, basis, cost, width):
    m = len(tab)
    while True:
        # reduced costs for the current basis
        y = [cost[basis[i]] for i in range(m)]
        entering = None
        for j in range(width):
            red = cost[j] - sum(y[i] * tab[i][j] for i in range(m))
            if red < 0:
                entering = j  # Bland: least index
                break
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = rhs[i] / tab[i][entering]
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[leaving])):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        _pivot(tab, rhs, basis, leaving, entering)


def lp_feasible(a_eq, b_eq, a_ge=(), b_ge=(), nvar=None):
    """Feasibility check; nvar inferred from the first row if not given."""
    if nvar is None:
        first = list(a_eq) + list(a_ge)
        nvar = len(first[0]) if first else 0
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
