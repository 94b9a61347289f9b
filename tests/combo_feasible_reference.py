# The LP search that equilibra.nash._combo_feasible ran before its box
# screen, kept verbatim as the reference the screened version must agree
# with exactly: the same None, and otherwise the same combinations and
# payoffs (tests/test_nash.py).  It builds every player's cycle-mean row
# anew for each LP, as the package's did before the rows were hoisted.

import itertools
from fractions import Fraction

from equilibra.nash import _combo_out
from equilibra.negotiation import _mp_structure
from equilibra.rationals import NINF, PINF
from equilibra.simplex import lp_feasible


def _combo_feasible(game, cycles, lo, hi):
    """Feasibility of lo <= (min_j sum alpha_jc mp_i(c))_i <= hi over the
    cycle set; tries a shared combination first, then the general min-form
    with an argmin assignment per bounded dimension."""
    players = list(game.players)
    mp = _mp_structure(game).mp_of
    n = len(cycles)
    a_eq = [[Fraction(1)] * n]
    b_eq = [Fraction(1)]
    a_ge = []
    b_ge = []
    for p in players:
        if lo[p] != NINF:
            a_ge.append([mp(c, p) for c in cycles])
            b_ge.append(lo[p])
        if hi[p] != PINF:
            a_ge.append([-mp(c, p) for c in cycles])
            b_ge.append(-hi[p])
    feas, alpha = lp_feasible(a_eq, b_eq, a_ge, b_ge, nvar=n)
    if feas:
        combos = {p: {i: a for i, a in enumerate(alpha) if a != 0}
                  for p in players}
        pay = {p: sum(a * mp(cycles[i], p) for i, a in combos[p].items())
               for p in players}
        return _combo_out(cycles, combos), pay
    # general min-form: one distribution per player
    bounded = [p for p in players if hi[p] != PINF]
    for assign in itertools.product(range(len(players)), repeat=len(bounded)):
        nv = n * len(players)
        a_eq2 = []
        b_eq2 = []
        for k in range(len(players)):
            row = [Fraction(0)] * nv
            for i in range(n):
                row[k * n + i] = Fraction(1)
            a_eq2.append(row)
            b_eq2.append(Fraction(1))
        a_ge2 = []
        b_ge2 = []
        for p in players:
            if lo[p] == NINF:
                continue
            for k in range(len(players)):
                row = [Fraction(0)] * nv
                for i in range(n):
                    row[k * n + i] = mp(cycles[i], p)
                a_ge2.append(row)
                b_ge2.append(lo[p])
        for bi, p in enumerate(bounded):
            k = assign[bi]
            row = [Fraction(0)] * nv
            for i in range(n):
                row[k * n + i] = -mp(cycles[i], p)
            a_ge2.append(row)
            b_ge2.append(-hi[p])
        feas, sol = lp_feasible(a_eq2, b_eq2, a_ge2, b_ge2, nvar=nv)
        if feas:
            combos = {}
            for k, p in enumerate(players):
                combos[p] = {i: sol[k * n + i] for i in range(n)
                             if sol[k * n + i] != 0}
            pay = {}
            for p in players:
                pay[p] = min(sum(a * mp(cycles[i], p)
                                 for i, a in combos[j].items())
                             for j in players)
            return _combo_out(cycles, combos), pay
    return None
