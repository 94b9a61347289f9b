"""Acceptance suite: one check per criterion, each printing a pass line.

Every tolerance is pinned here; the oracles are the brute-force ones from
conftest (positional enumeration, exhaustive subsets).
"""

import itertools
import random

import mpmath
import pytest
from fractions import Fraction

from equilibra.corpus import load_game
from equilibra.games import (Lasso, MemoryProfile, product_game,
                             vacuous_memory, eval_lasso, payoff_vector,
                             Arena, PayoffSpec, Game)
from equilibra.negotiation import (vacuous_requirement, nego_parity,
                                   nego_iterate, is_eps_fixed_point,
                                   is_lambda_consistent)
from equilibra.nash import (Query, ne_outcome_check, ne_constrained_exists,
                            verify_ne_energy, val_requirement)
from equilibra.spe import (spe_exists_parity, spe_exists_mp,
                           epsilon_min_search, check_mp_witness)
from equilibra.stochastic import (RiskPartition, EntropicParams,
                                  extreme_measure, entropic_measure,
                                  verify_xrse, xrse_exists,
                                  xrse_constrained_optimists,
                                  xrse_search_bounded)
from equilibra.verification import rational_verify, \
    achaotic_rational_verify_mp
from equilibra.rationals import PINF, NINF
from equilibra import zerosum as zs

from conftest import (random_parity_game, random_energy_game,
                      random_terminal_game, positional_profiles,
                      profile_of_choices, outcome_of_choices,
                      oracle_parity_val, uniform_profile, load_memory)
from test_nash import oracle_energy_ne
from test_stochastic import oracle_verify_xrse, oracle_optimist_constrained
from xrse_support_reference import _support_measures

F = Fraction


def report(num, text):
    print(f"criterion {num:>2}: PASS - {text}")


def test_criterion_01_negotiation_regression():
    fig = load_game("fig_ne_spe")
    seq, conv = nego_iterate(fig)
    assert seq[1] == {"a": F(0), "b": F(1), "c": F(1)}
    assert seq[2] == {"a": F(1), "b": F(1), "c": F(1)}
    assert seq[3] == seq[2] and conv and len(seq) == 4
    report(1, "fig_ne_spe nego iterates (0,1,1) -> (1,1,1), fixed at 2")


def test_criterion_02_no_spe_regression():
    sans = load_game("sans_spe")
    seq, conv = nego_iterate(sans, max_iters=8)
    assert seq[1] == {"a": F(1), "b": F(2), "c": F(1), "d": F(2)}
    assert seq[2] == {"a": F(2), "b": F(2), "c": F(1), "d": F(2)}
    assert seq[3] == {"a": F(2), "b": F(3), "c": F(1), "d": F(2)}
    assert seq[4]["a"] is PINF and seq[4]["b"] is PINF
    assert seq[4]["c"] == F(1) and seq[4]["d"] == F(2)
    assert conv
    for query in (Query(), Query(lower={"circle": F(2)}),
                  Query(upper={"square": F(1)}),
                  Query(lower={"circle": F(0)}, upper={"circle": F(3)}),
                  Query(upper={"circle": PINF})):
        assert spe_exists_mp(sans, 0, query)["answer"] == "no"
    report(2, "sans_spe iterates exact, spe-exists no for all thresholds")


def test_criterion_03_non_convergence():
    ns = load_game("not_stationary")
    seq, conv = nego_iterate(ns, max_iters=8)
    assert not conv
    for n in range(1, 9):
        assert seq[n]["a"] == 2 - F(1, 2 ** (n - 1))
    r = spe_exists_mp(ns, 0, Query(), max_iters=16)
    assert r["answer"] == "unknown"
    report(3, "not_stationary lam_n(a) = 2 - 1/2^(n-1), unknown at cap 16")


def test_criterion_04_fixed_point_witness():
    inf = load_game("inf_spe")
    lam = {"a": F(1), "b": F(1)}
    assert is_eps_fixed_point(inf, lam, F(0))
    q = Query(lower={"circle": F(1), "square": F(1)},
              upper={"circle": F(1), "square": F(1)})
    r = spe_exists_mp(inf, 0, q)
    assert r["answer"] == "yes"
    assert check_mp_witness(inf, F(0), r["witness"], q)
    report(4, "inf_spe (1,1) verifies as 0-fixed point; witness re-verifies")


def _simple_lassos_from(game, start):
    arena = game.arena
    out = []

    def dfs(path):
        last = path[-1]
        for w in sorted(arena.succ(last)):
            if w in path:
                k = path.index(w)
                out.append(Lasso(path[:k], path[k:]))
            else:
                path.append(w)
                dfs(path)
                path.pop()

    dfs([start])
    return out


def test_criterion_05_ne_spe_split():
    fig = load_game("fig_ne_spe")
    accepted = {l for l in _simple_lassos_from(fig, "a")
                if ne_outcome_check(fig, l)}
    assert accepted == {Lasso([], ["a"]), Lasso(["a", "b"], ["c"])}
    r = spe_exists_parity(fig, Query(upper={"circle": F(0),
                                            "square": F(0)}))
    assert r["answer"] == "no"
    r = spe_exists_parity(fig, Query(lower={"circle": F(1),
                                            "square": F(1)}))
    assert r["answer"] == "yes"
    assert payoff_vector(fig, r["lasso"]) == {"circle": F(1),
                                              "square": F(1)}
    report(5, "fig_ne_spe NEs exactly {(a)^w, ab(c)^w}; only (1,1) is SPE")


def test_criterion_06_eps_min_and_achaotic():
    sans = load_game("sans_spe")
    r = epsilon_min_search(sans, precision_bits=12)
    assert r == {"answer": "yes", "eps_min": F(1)}
    chaos = load_game("chaos")
    vac = vacuous_memory(chaos.arena, "leader")
    for t, want in ((F(-1, 2), "yes"), (F(-1, 100), "yes"),
                    (F(0), "no"), (F(1, 2), "no")):
        got = achaotic_rational_verify_mp(chaos, vac, "leader", t,
                                          precision_bits=10)
        assert got["answer"] == want, (t, got)
        assert got["eps_min"] == F(1)
    report(6, "eps_min(sans_spe) = 1 exactly; achaotic chaos yes iff t < 0")


def test_criterion_07_rational_verification():
    g = load_game("fig_first_example")
    m = load_memory("machine_1player", g.arena)
    prod = product_game(g, m, "square")
    assert len(prod.arena.vertices) == 10
    expected = {"a|q0", "a|q0|q1", "a|q1", "a|q1|q0", "b|q1", "b|q1|q1",
                "b|q0", "b|q0|q0", "c|q0", "c|q0|q0"}
    assert set(prod.arena.vertices) == expected
    for concept in ("Nash", "SubgamePerfect"):
        r = rational_verify(g, m, "square", F(9, 10), concept)
        assert r["answer"] == "yes", concept
    report(7, "product has the figure's 10 vertices; verify yes at 9/10")


def test_criterion_08_xrse_trio():
    want = {"ex_extreme1": "no", "ex_extreme2": "yes", "ex_extreme3": "yes"}
    q11 = Query(lower={"circle": F(1), "square": F(1)},
                upper={"circle": F(1), "square": F(1)})
    for name, expect in want.items():
        g = load_game(name)
        part = RiskPartition(g, ["circle", "square"])
        r = xrse_search_bounded(g, part, q11, 2)
        got = "yes" if r["answer"] == "yes" else "no"
        assert got == expect, (name, r["answer"])
        if got == "yes":
            assert verify_xrse(g, part, r["profile"])
    report(8, "xrse-search B=2 answers no / yes / yes on the extreme trio")


def test_criterion_09_algorithm1():
    ex1 = load_game("ex_extreme1")
    part = RiskPartition(ex1, ["circle", "square"])
    edges, _, _ = xrse_exists(ex1, part)
    removed = set(ex1.arena.edges) - set(edges)
    assert removed in ({("a", "t1")}, {("b", "t2")})
    prof = uniform_profile(ex1, edges)
    assert verify_xrse(ex1, part, prof)
    meas = extreme_measure(ex1, part, prof)
    assert meas in ({"circle": F(1), "square": F(2)},
                    {"circle": F(2), "square": F(1)})
    report(9, "Algorithm 1 removes one exit edge; XRSE measures {(1,2),(2,1)}")


def test_criterion_10a_nego_properties():
    rng = random.Random(1001)
    for _ in range(200):
        g = random_parity_game(rng, n=4, players=2, max_color=2)
        verts = g.arena.vertices
        lam = {v: rng.choice([NINF, F(0), F(1)]) for v in verts}
        lam2 = {v: max(lam[v], rng.choice([NINF, F(0), F(1)]))
                for v in verts}
        n1 = nego_parity(g, lam)
        n2 = nego_parity(g, lam2)
        for v in verts:
            assert lam[v] <= n1[v], "non-decreasing failed"
            assert n1[v] <= n2[v], "monotonicity failed"
    report("10a", "nego monotone + non-decreasing on 200 random parity games")


def test_criterion_10b_ne_check_brute():
    rng = random.Random(1002)
    for _ in range(100):
        g = random_parity_game(rng, n=4, players=2, max_color=2)
        lam = val_requirement(g)
        for v in g.arena.vertices:
            assert lam[v] == oracle_parity_val(g, g.arena.owner[v], v)
        profiles = list(positional_profiles(g))
        rng.shuffle(profiles)
        for choices in profiles[:3]:
            lasso = outcome_of_choices(g, choices)
            assert (ne_outcome_check(g, lasso)
                    == is_lambda_consistent(g, lam, lasso))
    report("10b", "ne-check matches val brute force on 100 random games")


def test_criterion_10c_verify_xrse_brute():
    rng = random.Random(1003)
    for _ in range(100):
        g = random_terminal_game(rng, n=5)
        pess = [p for p in g.players if rng.random() < 0.5]
        part = RiskPartition(g, pess)
        profiles = list(positional_profiles(g))
        rng.shuffle(profiles)
        for choices in profiles[:2]:
            prof = profile_of_choices(g, choices)
            assert verify_xrse(g, part, prof) == oracle_verify_xrse(
                g, part, prof), (g.arena.edges, pess, choices)
    report("10c", "verify_xrse matches positional brute force on 100 games")


def test_criterion_10d_optimist_algorithms_oracle():
    rng = random.Random(1004)
    for _ in range(50):
        g = random_terminal_game(rng, n=4, payoffs=(0, 1, 2))
        lo = {p: F(rng.choice([0, 1, 2])) for p in g.players
              if rng.random() < 0.7}
        hi = {p: F(rng.choice([1, 2])) for p in g.players
              if rng.random() < 0.5}
        query = Query(lo, hi)
        res = xrse_constrained_optimists(g, query)
        want = oracle_optimist_constrained(g, query, averse=False)
        assert res["answer"] == want, (g.arena.edges, lo, hi)
        if res["answer"] == "yes":
            part = RiskPartition(g, [])
            assert verify_xrse(g, part,
                               uniform_profile(g, res["edges"]))
            # the returned edge set itself passes the oracle's check
            terms, nonterm = _support_measures(g, sorted(res["edges"]),
                                               "positional")
            meas = {}
            for p in g.players:
                vals = {g.payoff.terminal_payoffs[t][p] for t in terms}
                if nonterm:
                    vals.add(F(0))
                meas[p] = max(vals)
            assert query.admits(meas)
    report("10d", "Algorithms 2-3 match the exhaustive subset oracle, 50 games")


def test_criterion_11_entropic_numerics():
    lot = load_game("lottery")
    blue = MemoryProfile(["q0"], "q0", ["circle"],
                         [("q0", "a", "q0"), ("q0", "b", "q0", "c"),
                          ("q0", "c", "q0")])
    tol = mpmath.mpf(10) ** -9
    with mpmath.workprec(150):
        for rho in (F(-1), F(1)):
            got = entropic_measure(lot, EntropicParams("e", {"circle": rho}),
                                   blue, "circle")
            r = mpmath.mpf(rho.numerator) / rho.denominator
            want = -mpmath.log(mpmath.mpf(1) / 40 * mpmath.exp(-r * 40)
                               + mpmath.mpf(39) / 40) / r
            assert abs(got - want) < tol
    assert entropic_measure(lot, EntropicParams("e", {"circle": F(0)}),
                            blue, "circle") == 1
    # extreme limits at rho = +-50, base 10 (the criterion leaves the base
    # open; ln 40 / 50 > 0.05 rules out base e on the OM side)
    m = entropic_measure(lot, EntropicParams(F(10), {"circle": F(-50)}),
                         blue, "circle")
    assert abs(m - 40) < mpmath.mpf("0.05")
    m = entropic_measure(lot, EntropicParams(F(10), {"circle": F(50)}),
                         blue, "circle")
    assert abs(m - 0) < mpmath.mpf("0.05")
    # translativity: shift by c moves the measure by exactly c
    shift = F(13, 7)
    shifted = {t: {p: x + shift for p, x in mm.items()}
               for t, mm in lot.payoff.terminal_payoffs.items()}
    g2 = Game(Arena(lot.players, lot.arena.vertices, lot.arena.owner,
                    lot.arena.edges, lot.arena.chance_prob, "a"),
              PayoffSpec("terminal", terminal_payoffs=shifted))
    blue2 = MemoryProfile(["q0"], "q0", ["circle"],
                          [("q0", "a", "q0"), ("q0", "b", "q0", "c"),
                           ("q0", "c", "q0")])
    with mpmath.workprec(150):
        for rho in (F(-2), F(1), F(3)):
            par = EntropicParams("e", {"circle": rho})
            a = entropic_measure(lot, par, blue, "circle")
            b = entropic_measure(g2, par, blue2, "circle")
            assert abs((b - a) - mpmath.mpf(13) / 7) < tol
    part = RiskPartition(lot, ["circle"])
    assert (extreme_measure(g2, part, blue2)["circle"]
            == extreme_measure(lot, part, blue)["circle"] + shift)
    report(11, "lottery entropic closed forms to 1e-9; limits within 0.05")


def test_criterion_12_energy_verification():
    rng = random.Random(1012)
    for _ in range(50):
        g = random_energy_game(rng, n=4)
        profiles = list(positional_profiles(g))
        rng.shuffle(profiles)
        for choices in profiles[:2]:
            prof = profile_of_choices(g, choices)
            assert (verify_ne_energy(g, prof)
                    == oracle_energy_ne(g, choices)), (
                        g.arena.edges, g.payoff.rewards, choices)
    report(12, "verify_ne_energy matches positional search on 50 games")
