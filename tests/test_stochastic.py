import itertools
import random

import pytest
import mpmath
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from equilibra.corpus import load_game
from equilibra.games import (GameError, MemoryProfile, Arena, PayoffSpec,
                             Game)
from equilibra.nash import Query, _verify_ne_expectation
from equilibra.stochastic import (RiskPartition, EntropicParams,
                                  extreme_measure, entropic_measure,
                                  verify_xrse, xrse_exists,
                                  xrse_constrained_optimists,
                                  xrse_search_bounded,
                                  verify_erse_stationary, _support_measures,
                                  _sure_avoid_region)
from equilibra import zerosum as zs
from conftest import random_terminal_game, positional_profiles, \
    profile_of_choices, uniform_profile
from extreme_value_reference import extreme_adversarial_value
from profile_product_reference import _profile_mdp


def blue_red(lot):
    blue = MemoryProfile(["q0"], "q0", ["circle"],
                         [("q0", "a", "q0"), ("q0", "b", "q0", "c"),
                          ("q0", "c", "q0")], name="blue")
    red = MemoryProfile(["q0"], "q0", ["circle"],
                        [("q0", "a", "q0"), ("q0", "b", "q0", "t3"),
                         ("q0", "c", "q0")], name="red")
    return blue, red


def test_extreme_measures_lottery():
    lot = load_game("lottery")
    blue, red = blue_red(lot)
    pess = RiskPartition(lot, ["circle"])
    opt = RiskPartition(lot, [])
    assert extreme_measure(lot, pess, blue)["circle"] == 0
    assert extreme_measure(lot, opt, blue)["circle"] == 40
    assert extreme_measure(lot, pess, red)["circle"] == 1
    assert extreme_measure(lot, opt, red)["circle"] == 1


def test_entropic_lottery():
    lot = load_game("lottery")
    blue, red = blue_red(lot)
    par = EntropicParams("e", {"circle": Fraction(1)})
    got = entropic_measure(lot, par, blue, "circle")
    with mpmath.workprec(113):
        want = -mpmath.log(mpmath.mpf(1) / 40 * mpmath.exp(mpmath.mpf(-40))
                           + mpmath.mpf(39) / 40)
        assert abs(got - want) < mpmath.mpf(10) ** -20
    assert entropic_measure(
        lot, EntropicParams("e", {"circle": Fraction(0)}), blue,
        "circle") == 1
    for rho in (Fraction(-1), Fraction(2), Fraction(5)):
        par = EntropicParams("e", {"circle": rho})
        assert abs(entropic_measure(lot, par, red, "circle") - 1) < 1e-25


def test_entropic_limits_and_translativity():
    lot = load_game("lottery")
    blue, _ = blue_red(lot)
    par = EntropicParams(Fraction(10), {"circle": Fraction(-50)})
    assert abs(entropic_measure(lot, par, blue, "circle") - 40) < 0.05
    par = EntropicParams(Fraction(10), {"circle": Fraction(50)})
    assert abs(entropic_measure(lot, par, blue, "circle") - 0) < 0.05
    # translativity: shift all terminal payoffs by c
    shift = Fraction(7, 3)
    shifted = {t: {p: x + shift for p, x in m.items()}
               for t, m in lot.payoff.terminal_payoffs.items()}
    g2 = Game(Arena(lot.players, lot.arena.vertices, lot.arena.owner,
                    lot.arena.edges, lot.arena.chance_prob, "a"),
              PayoffSpec("terminal", terminal_payoffs=shifted))
    blue2, _ = blue_red(g2)
    par = EntropicParams("e", {"circle": Fraction(3, 2)})
    a = entropic_measure(lot, par, blue, "circle")
    b = entropic_measure(g2, par, blue2, "circle")
    assert abs((b - a) - mpmath.mpf(7) / 3) < mpmath.mpf(10) ** -20
    pess = RiskPartition(lot, ["circle"])
    assert (extreme_measure(g2, pess, blue2)["circle"]
            == extreme_measure(lot, pess, blue)["circle"] + shift)


def test_verify_xrse_examples():
    ex1 = load_game("ex_extreme1")
    both = RiskPartition(ex1, ["circle", "square"])
    assert not verify_xrse(ex1, both, uniform_profile(ex1, ex1.arena.edges))
    edges, _, _ = xrse_exists(ex1, both)
    assert verify_xrse(ex1, both, uniform_profile(ex1, edges))
    lot = load_game("lottery")
    blue, red = blue_red(lot)
    assert verify_xrse(lot, RiskPartition(lot, []), blue)  # OM 40 maximal
    assert verify_xrse(lot, RiskPartition(lot, ["circle"]), red)
    assert not verify_xrse(lot, RiskPartition(lot, ["circle"]), blue)


def test_algorithm1_ex1():
    ex1 = load_game("ex_extreme1")
    both = RiskPartition(ex1, ["circle", "square"])
    edges, meas, trace = xrse_exists(ex1, both)
    removed = set(ex1.arena.edges) - set(edges)
    assert removed in ({("a", "t1")}, {("b", "t2")})
    assert meas == extreme_measure(ex1, both, uniform_profile(ex1, edges))
    assert sorted(meas.values()) == [1, 2]
    # pessimist z-values never decrease along the trace
    for i in ("circle", "square"):
        zs_seq = [row["z"][i] for row in trace]
        assert all(a <= b for a, b in zip(zs_seq, zs_seq[1:]))
    # working edge sets strictly decrease
    sets = [set(row["edges"]) for row in trace]
    assert all(b < a for a, b in zip(sets, sets[1:]))


def test_algorithm1_no_pessimists():
    ex1 = load_game("ex_extreme1")
    none = RiskPartition(ex1, [])
    edges, _, trace = xrse_exists(ex1, none)
    assert set(edges) == set(ex1.arena.edges)
    assert len(trace) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32).map(random.Random), st.booleans())
def test_algorithm1_measures_are_those_of_its_uniform_profile(rng, pess):
    """The measures `xrse_exists` returns are the extreme measures of the
    uniform profile over the edges it returns."""
    g = random_terminal_game(rng)
    part = RiskPartition(g, g.players if pess else [])
    edges, meas, _ = xrse_exists(g, part)
    assert meas == extreme_measure(g, part, uniform_profile(g, edges))


def test_algorithm1_negative_payoff_rejected():
    ex1 = load_game("ex_extreme1")
    neg = {t: {p: x - 5 for p, x in m.items()}
           for t, m in ex1.payoff.terminal_payoffs.items()}
    g = Game(Arena(ex1.players, ex1.arena.vertices, ex1.arena.owner,
                   ex1.arena.edges, init="a"),
             PayoffSpec("terminal", terminal_payoffs=neg))
    with pytest.raises(GameError, match="negative"):
        xrse_exists(g, RiskPartition(g, ["circle"]))


def oracle_verify_xrse(game, partition, profile):
    """Positional deviations in the profile MDP, brute force."""
    measures = extreme_measure(game, partition, profile)
    for i in game.players:
        mdp = _profile_mdp(game, profile, i)
        arena = mdp.arena
        mine = [v for v in arena.vertices if arena.owner[v] == i]
        for combo in itertools.product(
                *[sorted(arena.succ(v)) for v in mine]):
            choices = dict(zip(mine, combo))
            from conftest import oracle_chain_stats
            probs, nonterm = oracle_chain_stats(mdp, choices)
            support = {mdp.payoff.terminal_payoffs[t][i]
                       for t, p in probs.items() if p > 0}
            if nonterm > 0:
                support.add(Fraction(0))
            val = (min(support) if partition.is_pessimist(i)
                   else max(support))
            if val > measures[i]:
                return False
    return True


def test_verify_xrse_brute():
    rng = random.Random(101)
    checked = 0
    for _ in range(30):
        g = random_terminal_game(rng, n=4)
        pess = [p for p in g.players if rng.random() < 0.5]
        part = RiskPartition(g, pess)
        profiles = list(positional_profiles(g))
        rng.shuffle(profiles)
        for choices in profiles[:3]:
            prof = profile_of_choices(g, choices)
            got = verify_xrse(g, part, prof)
            want = oracle_verify_xrse(g, part, prof)
            assert got == want, (g.arena.edges, pess, choices)
            checked += 1
        # and the uniform full-support profile
        prof = uniform_profile(g, g.arena.edges)
        assert verify_xrse(g, part, prof) == oracle_verify_xrse(
            g, part, prof)
    assert checked >= 60


def oracle_optimist_constrained(game, query, averse):
    """Exhaustive F subseteq E: committed (friendly) or re-randomizing
    (averse) uniform support profiles, checked via reachable val gating."""
    arena = game.arena
    val = {}
    for v in arena.vertices:
        if arena.is_chance(v) or arena.is_terminal(v):
            continue
        val[v] = extreme_adversarial_value(game, (set(), set(game.players)),
                                           v)
    player_edges = [e for e in arena.edges
                    if not arena.is_chance(e[0]) and
                    not arena.is_terminal(e[0])]
    chance_edges = [e for e in arena.edges if arena.is_chance(e[0])]
    for keep_mask in itertools.product([0, 1], repeat=len(player_edges)):
        F = [e for e, keep in zip(player_edges, keep_mask) if keep]
        F += chance_edges
        if any(not [w for (u, w) in F if u == v]
               for v in arena.vertices
               if not arena.is_terminal(v) and not arena.is_chance(v)):
            continue
        mode = "chain" if averse else "positional"
        terms, nonterm = _support_measures(game, sorted(F), mode)
        meas = {}
        for p in game.players:
            vals = {game.payoff.terminal_payoffs[t][p] for t in terms}
            if nonterm:
                vals.add(Fraction(0))
            meas[p] = max(vals)
        if averse and nonterm:
            # upper thresholds below 0 rule out non-termination mass,
            # and OM measures already include the 0
            pass
        if not query.admits(meas):
            continue
        reach = zs.reachable_from(arena, [arena.init], sorted(F))
        ok = True
        for v in reach:
            if v in val and val[v] > meas[arena.owner[v]]:
                ok = False
                break
        if ok:
            return "yes"
    return "no"


def test_optimist_algorithms_vs_oracle():
    rng = random.Random(55)
    agree = 0
    for _ in range(25):
        g = random_terminal_game(rng, n=4, payoffs=(0, 1, 2))
        lo = {p: Fraction(rng.choice([0, 1, 2])) for p in g.players
              if rng.random() < 0.7}
        hi = {p: Fraction(rng.choice([1, 2])) for p in g.players
              if rng.random() < 0.5}
        query = Query(lo, hi)
        got = xrse_constrained_optimists(g, query)["answer"]
        want = oracle_optimist_constrained(g, query, averse=False)
        assert got == want, (g.arena.edges, lo, hi, got, want)
        agree += 1
    assert agree == 25


def test_optimist_singleton_yes():
    # single optimist, one terminal paying 5
    arena = Arena(["circle"], ["a", "t"],
                  {"a": "circle", "t": "terminal"},
                  [("a", "a"), ("a", "t")], init="a")
    g = Game(arena, PayoffSpec("terminal",
                               terminal_payoffs={"t": {"circle":
                                                       Fraction(5)}}))
    q = Query({"circle": Fraction(5)}, {"circle": Fraction(5)})
    r = xrse_constrained_optimists(g, q)
    assert r["answer"] == "yes"
    assert ("a", "t") in r["edges"]


def test_cycle_averse_case():
    # upper threshold below 0 forces almost-sure termination
    arena = Arena(["circle", "square"], ["a", "b", "t1", "t2"],
                  {"a": "circle", "b": "square",
                   "t1": "terminal", "t2": "terminal"},
                  [("a", "b"), ("b", "a"), ("a", "t1"), ("b", "t2")],
                  init="a")
    pay = {"t1": {"circle": Fraction(-1), "square": Fraction(0)},
           "t2": {"circle": Fraction(0), "square": Fraction(-1)}}
    g = Game(arena, PayoffSpec("terminal", terminal_payoffs=pay))
    q = Query({}, {"circle": Fraction(-1)})
    r = xrse_constrained_optimists(g, q)
    # circle must surely land in t1 (payoff -1): square keeps t2 available
    # as his own escape so circle cannot be forced below 0... the oracle
    # decides; here we just require a definite answer plus trace sanity
    assert r["answer"] in ("yes", "no")
    sets = [set(row["edges"]) for row in r["trace"]]
    for a, b in zip(sets, sets[1:]):
        assert b <= a


def test_xrse_trio_bounded_search():
    q11 = Query(lower={"circle": 1, "square": 1},
                upper={"circle": 1, "square": 1})
    answers = {}
    for name in ("ex_extreme1", "ex_extreme2", "ex_extreme3"):
        g = load_game(name)
        part = RiskPartition(g, ["circle", "square"])
        r = xrse_search_bounded(g, part, q11, 2)
        answers[name] = r["answer"]
        if r["answer"] == "yes":
            prof = r["profile"]
            assert verify_xrse(g, part, prof)
            assert extreme_measure(g, part, prof) == {
                "circle": Fraction(1), "square": Fraction(1)}
    assert answers == {"ex_extreme1": "none-at-cap",
                       "ex_extreme2": "yes", "ex_extreme3": "yes"}


def test_erse_lottery():
    lot = load_game("lottery")
    blue, red = blue_red(lot)
    p0 = EntropicParams("e", {"circle": Fraction(0)})
    assert verify_erse_stationary(lot, p0, blue)
    assert verify_erse_stationary(lot, p0, red)
    p4 = EntropicParams("e", {"circle": Fraction(4)})
    assert verify_erse_stationary(lot, p4, red)
    assert not verify_erse_stationary(lot, p4, blue)
    pm = EntropicParams("e", {"circle": Fraction(-2)})
    assert verify_erse_stationary(lot, pm, blue)
    assert not verify_erse_stationary(lot, pm, red)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.data())
def test_erse_at_rho_0_is_the_exact_expectation_check(seed, data):
    # terminal payoffs 10^-12 apart: every gain between terminals lies far
    # below the 1e-9 tolerance
    game = random_terminal_game(random.Random(seed), n=4, payoffs=(
        1, 1 + Fraction(1, 10 ** 12)))
    choices = data.draw(st.sampled_from(list(positional_profiles(game))))
    profile = profile_of_choices(game, choices)
    params = EntropicParams("e", {p: Fraction(0) for p in game.players})
    assert verify_erse_stationary(game, params, profile) \
        == _verify_ne_expectation(game, profile, tol=None)


def oracle_averse_constrained(game, query):
    """Strengthened exhaustive oracle for the cycle-averse case: measures
    in range, reachable adversarial values gated, and no negative-measure
    player able to force non-termination inside F."""
    arena = game.arena
    val = {}
    for v in arena.vertices:
        if arena.is_chance(v) or arena.is_terminal(v):
            continue
        val[v] = extreme_adversarial_value(
            game, (set(), set(game.players)), v)
    pe = [e for e in arena.edges
          if not arena.is_chance(e[0]) and not arena.is_terminal(e[0])]
    ce = [e for e in arena.edges if arena.is_chance(e[0])]
    terms = set(game.terminals())
    for mask in itertools.product([0, 1], repeat=len(pe)):
        F_ = [e for e, k in zip(pe, mask) if k] + ce
        if any(not [w for (u, w) in F_ if u == v] for v in arena.vertices
               if not arena.is_terminal(v) and not arena.is_chance(v)):
            continue
        tset, nonterm = _support_measures(game, sorted(F_), "chain")
        meas = {}
        for p in game.players:
            vals = {game.payoff.terminal_payoffs[t][p] for t in tset}
            if nonterm:
                vals.add(Fraction(0))
            meas[p] = max(vals) if vals else Fraction(0)
        if not query.admits(meas):
            continue
        reach = zs.reachable_from(arena, [arena.init], sorted(F_))
        if any(v in val and val[v] > meas[arena.owner[v]] for v in reach):
            continue
        ok = True
        for i in game.players:
            if meas[i] >= 0:
                continue
            att = zs.attractor(arena,
                               set(game.players) - {i} | {"chance"},
                               terms, sorted(F_))
            avoid = set(arena.vertices) - att - terms
            if avoid & reach:
                ok = False
                break
        if ok:
            return "yes"
    return "no"


def test_cycle_averse_vs_oracle():
    rng = random.Random(300)
    for _ in range(30):
        g0 = random_terminal_game(rng, n=4, payoffs=(0, 1, 2))
        pays = {t: {p: x - 1 for p, x in m.items()}
                for t, m in g0.payoff.terminal_payoffs.items()}
        g = Game(Arena(g0.players, g0.arena.vertices, g0.arena.owner,
                       g0.arena.edges, g0.arena.chance_prob,
                       g0.arena.init),
                 PayoffSpec("terminal", terminal_payoffs=pays))
        lo = {p: Fraction(rng.choice([-1, 0])) for p in g.players
              if rng.random() < 0.6}
        hi = {p: Fraction(rng.choice([-1, 0, 1])) for p in g.players
              if rng.random() < 0.8}
        if not any(v < 0 for v in hi.values()):
            hi[g.players[0]] = Fraction(-1)
        q = Query(lo, hi)
        got = xrse_constrained_optimists(g, q)["answer"]
        want = oracle_averse_constrained(g, q)
        assert got == want, (g.arena.edges, pays, lo, hi, got, want)


def test_optimist_op_rejects_pessimists():
    ex1 = load_game("ex_extreme1")
    part = RiskPartition(ex1, ["circle"])
    with pytest.raises(GameError, match="pessimist"):
        xrse_constrained_optimists(ex1, Query(), part)
