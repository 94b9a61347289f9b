import itertools
import random

import pytest
from fractions import Fraction

from equilibra import spe
from equilibra.corpus import load_game
from equilibra.games import GameError, Lasso, eval_lasso
from equilibra.negotiation import (vacuous_requirement, nego_parity,
                                   nego_iterate,
                                   is_lambda_consistent, _MpContext)
from equilibra.nash import Query, search_consistent_parity
from equilibra.spe import (spe_exists_parity, spe_exists_mp, check_mp_witness,
                           mp_deviation_graph_value, epsilon_min_search,
                           simplest_rational, iterate_to_fixed_point_parity)
from equilibra.rationals import PINF, NINF
from conftest import random_parity_game
from concrete_nego import check_reduced_prover_parity


def test_check_reduced_prover_fig():
    fig = load_game("fig_ne_spe")
    lam2 = {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)}
    tau = {"a": Lasso(["a", "b"], ["c"]), "b": Lasso(["b"], ["c"]),
           "c": Lasso([], ["c"])}
    assert check_reduced_prover_parity(fig, lam2, "circle", "a", tau)
    lam_low = {"a": Fraction(0), "b": Fraction(1), "c": Fraction(1)}
    # same proposals cannot hold circle to 0: she reaches c and wins
    assert not check_reduced_prover_parity(fig, lam_low, "circle", "a", tau)
    bad = {"a": Lasso([], ["a"]), "b": Lasso([], ["b"]),
           "c": Lasso([], ["c"])}
    with pytest.raises(GameError, match="consistent"):
        check_reduced_prover_parity(fig, lam2, "circle", "a", bad)
    lam_inf = {"a": PINF, "b": Fraction(1), "c": Fraction(1)}
    with pytest.raises(GameError, match="infeasible"):
        check_reduced_prover_parity(fig, lam_inf, "circle", "a", tau)


def test_spe_parity_fig():
    fig = load_game("fig_ne_spe")
    r = spe_exists_parity(fig, Query(lower={"circle": 1, "square": 1}))
    assert r["answer"] == "yes"
    assert r["lam"] == {"a": Fraction(1), "b": Fraction(1),
                        "c": Fraction(1)}
    assert is_lambda_consistent(fig, r["lam"], r["lasso"])
    assert r["payoffs"] == {"circle": Fraction(1), "square": Fraction(1)}
    r = spe_exists_parity(fig, Query(upper={"circle": 0, "square": 0}))
    assert r["answer"] == "no"


def test_spe_parity_infeasible_start():
    # least fixed point +inf at the start: no SPE for any thresholds
    from equilibra.games import Arena, PayoffSpec, Game
    # two players, circle must win at v but cannot
    arena = Arena(["circle", "square"], ["v", "w"],
                  {"v": "circle", "w": "square"},
                  [("v", "w"), ("w", "v")], init="v")
    g = Game(arena, PayoffSpec("parity", colors={
        "v": {"circle": 1, "square": 1},
        "w": {"circle": 1, "square": 0}}))
    r = spe_exists_parity(g, Query())
    # the only play loses for circle but wins for square: it is an SPE
    assert r["answer"] == "yes"


def brute_spe_parity(game, query):
    """Enumerate all requirements over {0,1,+inf}, keep the exact fixed
    points of nego, search each for a consistent play in thresholds."""
    verts = game.arena.vertices
    found = []
    for combo in itertools.product([Fraction(0), Fraction(1), PINF],
                                   repeat=len(verts)):
        lam = dict(zip(verts, combo))
        if nego_parity(game, lam) != lam:
            continue
        lasso = search_consistent_parity(game, lam, query)
        if lasso is not None:
            return "yes"
    return "no"


def test_spe_parity_brute_cobuchi():
    rng = random.Random(91)
    for _ in range(8):
        g = random_parity_game(rng, n=3, players=2, max_color=2)
        for query in (Query(), Query(lower={"circle": 1}),
                      Query(upper={"square": 0})):
            got = spe_exists_parity(g, query)["answer"]
            want = brute_spe_parity(g, query)
            assert got == want, (g.arena.edges, g.payoff.colors, query.lower,
                                 query.upper)


def test_mp_deviation_graph_examples():
    inf = load_game("inf_spe")
    lam = {"a": Fraction(1), "b": Fraction(1)}
    ctx = _MpContext(inf, lam, "circle")
    # pump the opponent's loop, tail combination with payoff (1,1)
    from equilibra.negotiation import Family
    fam_a = None
    for f in ctx.pool("a"):
        if f.c == ("b",) and f.xbar["circle"] == 1:
            fam_a = f
    fam_b = None
    for f in ctx.pool("b"):
        if f.c == ("b",) and f.xbar["circle"] == 1:
            fam_b = f
    assert fam_a is not None and fam_b is not None
    tau = {"a": fam_a, "b": fam_b}
    assert mp_deviation_graph_value(inf, lam, "circle", tau, Fraction(1))
    assert not mp_deviation_graph_value(inf, lam, "circle", tau,
                                        Fraction(1, 2))
    # monotone in alpha
    for alpha in (Fraction(3, 2), Fraction(2), Fraction(7)):
        assert mp_deviation_graph_value(inf, lam, "circle", tau, alpha)


def test_mp_witness_roundtrip():
    inf = load_game("inf_spe")
    q = Query(lower={"circle": 1, "square": 1},
              upper={"circle": 1, "square": 1})
    r = spe_exists_mp(inf, 0, q)
    assert r["answer"] == "yes"
    w = r["witness"]
    assert check_mp_witness(inf, Fraction(0), w, q)
    # tampered combination weights must be rejected
    w.alpha["circle"] = {k: 2 * v for k, v in w.alpha["circle"].items()}
    with pytest.raises(GameError, match="sum"):
        check_mp_witness(inf, Fraction(0), w, q)


def test_sans_no_witness():
    sans = load_game("sans_spe")
    lam1 = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(1),
            "d": Fraction(2)}
    ctx = _MpContext(sans, lam1, "circle")
    # any finite requirement at a rejects all witnesses: the iterates
    # escalate to +inf there, so no SPE exists from a
    r = spe_exists_mp(sans, 0, Query())
    assert r["answer"] == "no"
    r = spe_exists_mp(sans, 0, Query(lower={"square": 3}))
    assert r["answer"] == "no"


def test_not_stationary_unknown():
    ns = load_game("not_stationary")
    r = spe_exists_mp(ns, 0, Query(), max_iters=16)
    assert r["answer"] == "unknown"


def test_eps_min_values():
    sans = load_game("sans_spe")
    r = epsilon_min_search(sans, precision_bits=12)
    assert r == {"answer": "yes", "eps_min": Fraction(1)}
    inf = load_game("inf_spe")
    r = epsilon_min_search(inf, precision_bits=12)
    assert r == {"answer": "yes", "eps_min": Fraction(0)}


def test_simplest_rational():
    F = Fraction
    assert simplest_rational(F(0), F(1)) == 1
    assert simplest_rational(F(1, 3), F(1, 2)) == F(1, 2)
    assert simplest_rational(F(2, 7), F(1, 3), hi_open=True) == F(3, 10)
    assert simplest_rational(F(-3, 2), F(-1, 2)) == -1
    assert simplest_rational(F(99, 100), F(101, 100)) == 1
    rng = random.Random(5)
    for _ in range(200):
        a = F(rng.randint(-50, 50), rng.randint(1, 30))
        b = a + F(1, rng.randint(1, 40))
        r = simplest_rational(a, b)
        assert a < r <= b
        # nothing simpler fits
        for d in range(1, r.denominator):
            n0 = (a * d).numerator // (a * d).denominator
            for n in (n0, n0 + 1):
                assert not (a < F(n, d) <= b) or F(n, d) == r


def test_parity_iteration_converges_quickly():
    rng = random.Random(17)
    for _ in range(10):
        g = random_parity_game(rng, n=4, players=2)
        seq = iterate_to_fixed_point_parity(g)
        assert len(seq) <= 2 * len(g.arena.vertices) + 2
        assert seq == nego_iterate(g)[0]


def test_parity_iteration_cap_raises():
    # fig_ne_spe converges at its third iterate
    fig = load_game("fig_ne_spe")
    assert len(iterate_to_fixed_point_parity(fig, cap=3)) == 4
    with pytest.raises(GameError, match="failed to converge"):
        iterate_to_fixed_point_parity(fig, cap=2)


def test_adjusted_iteration_decides_eps_cases():
    sans = load_game("sans_spe")
    # below eps_min the adjusted lower-bound iteration proves the no
    r = spe_exists_mp(sans, Fraction(99, 100), Query())
    assert r["answer"] == "no"
    r = spe_exists_mp(sans, Fraction(1, 3),
                      Query(lower={"circle": Fraction(0)}))
    assert r["answer"] == "no"
    # not_stationary: plain iterates become eps-fixed once increments
    # drop below eps, although the eps=0 sequence never stabilizes
    ns = load_game("not_stationary")
    r = spe_exists_mp(ns, Fraction(1, 4), Query(), max_iters=16)
    assert r["answer"] == "yes"
    assert check_mp_witness(ns, Fraction(1, 4), r["witness"], Query())
    r = spe_exists_mp(ns, 0, Query(), max_iters=16)
    assert r["answer"] == "unknown"


def test_failed_witness_search_raises(monkeypatch):
    # a yes is answered only where every root has an assignment within
    # lam + eps, so a witness search that finds none is a bug, on the
    # plain chain (eps = 0) and on the adjusted one (sans_spe at eps = 1)
    monkeypatch.setattr(spe, "_assignment_within", lambda *args: None)
    cases = [("inf_spe", 0, Query(lower={"circle": 1})),
             ("sans_spe", 1, Query(upper={"circle": Fraction(0)}))]
    for name, eps, query in cases:
        with pytest.raises(RuntimeError, match="no Prover assignment"):
            spe_exists_mp(load_game(name), eps, query)


def test_eps_min_builds_no_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("eps-min built a witness")

    monkeypatch.setattr(spe, "_build_witness", refuse)
    assert epsilon_min_search(load_game("sans_spe"), precision_bits=12) == \
        {"answer": "yes", "eps_min": Fraction(1)}
    assert epsilon_min_search(load_game("inf_spe"), precision_bits=12) == \
        {"answer": "yes", "eps_min": Fraction(0)}
    assert epsilon_min_search(load_game("chaos"),
                              precision_bits=6)["answer"] == "yes"


def test_chaos_least_eps_fixed_point():
    chaos = load_game("chaos")
    # at eps = 1 the adjusted iteration stabilizes at the least 1-fixed
    # point; upper thresholds on the leader are then decided exactly
    r = spe_exists_mp(chaos, 1, Query(upper={"leader": Fraction(0)}))
    assert r["answer"] == "yes"
    r = spe_exists_mp(chaos, 1, Query(upper={"leader": Fraction(-1, 10)}))
    assert r["answer"] == "no"


def test_reduced_checker_cycle_deviation():
    # a deviation available only on the proposal's cycle still feeds the
    # segment graph: repeated b->c deviations rebuild (a b c)^w with min
    # color 0 for circle, so the proposals cannot hold her to 0
    from equilibra.games import Arena, PayoffSpec, Game
    arena = Arena(["circle", "square"], ["a", "b", "c"],
                  {"a": "circle", "b": "circle", "c": "square"},
                  [("a", "b"), ("b", "c"), ("c", "a"), ("b", "b")],
                  init="a")
    g = Game(arena, PayoffSpec("parity", colors={
        "a": {"circle": 0, "square": 1},
        "b": {"circle": 1, "square": 1},
        "c": {"circle": 1, "square": 1}}))
    lam = {"a": Fraction(0), "b": Fraction(0), "c": Fraction(0)}
    tau = {"a": Lasso(["a"], ["b"]),
           "b": Lasso([], ["b"]),
           "c": Lasso(["c", "a"], ["b"])}
    assert not check_reduced_prover_parity(g, lam, "circle", "a", tau)
