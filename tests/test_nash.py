import collections
import itertools
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

import combo_feasible_reference as ref

from equilibra import nash
from equilibra.corpus import load_game
from equilibra.games import (GameError, Lasso, MemoryProfile, Arena,
                             PayoffSpec, Game, eval_lasso)
from equilibra.nash import (Query, ne_outcome_check, ne_constrained_exists,
                            verify_ne_energy,
                            val_requirement, profile_outcome,
                            _combo_feasible)
from equilibra.negotiation import is_lambda_consistent, _mp_structure
from equilibra.rationals import NINF, PINF
from conftest import (PLAYERS, flower_mp_game, random_parity_game,
                      random_energy_game, positional_profiles,
                      profile_of_choices, outcome_of_choices,
                      oracle_parity_val, load_memory)
from profile_product_reference import verify_ne_generic


EXT = st.one_of(st.sampled_from([NINF, PINF]),
                st.fractions(min_value=-2, max_value=2, max_denominator=3))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(PLAYERS), EXT),
       st.dictionaries(st.sampled_from(PLAYERS), EXT),
       st.dictionaries(st.sampled_from(PLAYERS), EXT))
def test_admits_matches_every_player_formula(lower, upper, payoffs):
    # each payoff against its bounds, an unset one read as -inf or +inf
    query = Query(lower, upper)
    assert query.admits(payoffs) == all(
        query.lo(p) <= x and x <= query.hi(p) for p, x in payoffs.items())


def test_ne_check_fig():
    fig = load_game("fig_ne_spe")
    assert ne_outcome_check(fig, Lasso([], ["a"]))
    assert ne_outcome_check(fig, Lasso(["a", "b"], ["c"]))
    assert not ne_outcome_check(fig, Lasso(["a"], ["b"]))


def test_ne_check_one_player_max():
    doc = load_game("lottery")
    arena = Arena(["circle"], ["a", "b"], {"a": "circle", "b": "circle"},
                  [("a", "b"), ("b", "a"), ("a", "a")], init="a")
    rew = {("a", "b"): {"circle": Fraction(2)},
           ("b", "a"): {"circle": Fraction(2)},
           ("a", "a"): {"circle": Fraction(0)}}
    g = Game(arena, PayoffSpec("mean-payoff", rewards=rew))
    assert ne_outcome_check(g, Lasso([], ["a", "b"]))
    assert not ne_outcome_check(g, Lasso([], ["a"]))


def test_ne_check_matches_val_brute():
    rng = random.Random(55)
    for _ in range(25):
        g = random_parity_game(rng, n=4, players=2, max_color=2)
        lam = val_requirement(g)
        for v in g.arena.vertices:
            assert lam[v] == oracle_parity_val(g, g.arena.owner[v], v)
        # a handful of outcome lassos
        for choices in itertools.islice(positional_profiles(g), 6):
            lasso = outcome_of_choices(g, choices)
            got = ne_outcome_check(g, lasso)
            want = is_lambda_consistent(g, lam, lasso)
            assert got == want


def test_ne_exists_fig():
    fig = load_game("fig_ne_spe")
    r = ne_constrained_exists(
        fig, Query(lower={"circle": 1, "square": 1}))
    assert r["answer"] == "yes"
    assert r["lasso"] == Lasso(["a", "b"], ["c"])
    r = ne_constrained_exists(fig, Query(upper={"circle": 0}))
    assert r["answer"] == "yes" and r["lasso"] == Lasso([], ["a"])
    # found lassos re-check and respect bounds exactly
    for lower in ({}, {"circle": 1}, {"square": 1}):
        r = ne_constrained_exists(fig, Query(lower=lower))
        if r["answer"] == "yes":
            assert ne_outcome_check(fig, r["lasso"])


def test_ne_exists_simple_lassos_exact():
    fig = load_game("fig_ne_spe")
    accepted = []
    for pre, cyc in [([], ["a"]), (["a"], ["b"]), (["a", "b"], ["c"]),
                     ([], ["b"]), (["b"], ["c"]), ([], ["c"])]:
        lasso = Lasso(pre, cyc)
        try:
            lasso.validate(fig.arena)
        except GameError:
            continue
        if lasso.first() != "a":
            continue
        if ne_outcome_check(fig, lasso):
            accepted.append(lasso)
    assert accepted == [Lasso([], ["a"]), Lasso(["a", "b"], ["c"])]


MEANS = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
BOUNDS = MEANS + [Fraction(-2), Fraction(1, 4), Fraction(3, 2), Fraction(3)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_box_screen_rejects_only_infeasible_combos(data):
    # the box screen in front of the LPs returns None only where the
    # unscreened search does, and changes no combination or payoff
    players = PLAYERS[:data.draw(st.integers(1, 3))]
    vector = st.tuples(*[st.sampled_from(MEANS) for _ in players])
    means = data.draw(st.lists(vector, min_size=1, max_size=5))
    game = flower_mp_game(players, means)
    cores = _mp_structure(game).scyc[frozenset(game.arena.vertices)]
    cycles = data.draw(st.lists(st.sampled_from(cores), min_size=1,
                                max_size=len(cores), unique=True))
    # an upper bound at one of the player's own means often leaves the
    # shared combination infeasible and the min-form feasible
    lo = {p: data.draw(st.just(NINF) | st.sampled_from(BOUNDS))
          for p in players}
    hi = {p: data.draw(st.just(PINF) | st.sampled_from(BOUNDS)
                       | st.sampled_from([m[k] for m in means]))
          for k, p in enumerate(players)}
    got = _combo_feasible(game, cycles, lo, hi)
    want = ref._combo_feasible(game, cycles, lo, hi)
    mean = _mp_structure(game).mp_of
    if any(lo[p] > max(mean(c, p) for c in cycles)
           or hi[p] < min(mean(c, p) for c in cycles) for p in players):
        assert want is None
    assert got == want


@pytest.mark.parametrize("means, hi", [
    ([(0, 2), (2, 0)], (0, 0)),
    ([(0, 2, 1), (2, 0, 1), (1, 1, 0)], (0, 0, 0)),
    ([(0, 2, 1), (2, 0, 1), (1, 1, 0), (1, 1, 1)], (1, 0, PINF))])
def test_min_form_combo_matches_reference(means, hi):
    # no shared combination meets the upper bounds, several argmin
    # assignments do, and the first one in the reference's order is kept
    players = PLAYERS[:len(hi)]
    game = flower_mp_game(players, means)
    cycles = _mp_structure(game).scyc[frozenset(game.arena.vertices)]
    lo = dict.fromkeys(players, NINF)
    hi = dict(zip(players, hi))
    got = _combo_feasible(game, cycles, lo, hi)
    combos, _ = got
    assert len({tuple(sorted(cmb.items())) for cmb in combos.values()}) > 1
    assert got == ref._combo_feasible(game, cycles, lo, hi)


def spy_lp_feasible(monkeypatch):
    """(variables, feasible) of each LP `_combo_feasible` runs, logged
    while the test runs."""
    log = []
    real = nash.lp_feasible

    def spy(*args, nvar):
        answer = real(*args, nvar=nvar)
        log.append((nvar, answer[0]))
        return answer

    monkeypatch.setattr(nash, "lp_feasible", spy)
    return log


@st.composite
def flower_bounds(draw, players, bounded, unset):
    """(game, cycles, lo, hi) on a flower game of 2-4 cycles, with upper
    bounds for the players in `bounded` only and a lower bound unset
    `unset` times in (`unset` + cycles).  Every bound is at one of the
    player's own means, an upper bound most often at the least: no single
    combination then meets every bound in many draws, while one per player
    often does."""
    vector = st.tuples(*[st.sampled_from(MEANS) for _ in players])
    means = draw(st.lists(vector, min_size=2, max_size=4))
    game = flower_mp_game(players, means)
    cycles = _mp_structure(game).scyc[frozenset(game.arena.vertices)]
    own = {p: sorted(m[k] for m in means) for k, p in enumerate(players)}
    lo = {p: draw(st.sampled_from([NINF] * unset + own[p]))
          for p in players}
    hi = {p: draw(st.sampled_from(own[p][:1] * 3 + own[p])) if p in bounded
          else PINF for p in players}
    return game, cycles, lo, hi


def check_combo(log, seen, game, cycles, lo, hi):
    """`_combo_feasible` equals the joint min-form LP of the reference,
    and every LP it runs has one variable per cycle; `seen` counts the
    calls that reach the min-form, those it answers, and its LPs."""
    start = len(log)
    got = _combo_feasible(game, cycles, lo, hi)
    assert got == ref._combo_feasible(game, cycles, lo, hi)
    lps = log[start:]
    assert all(nvar == len(cycles) for nvar, _ in lps)
    if lps and not lps[0][1]:
        seen["reached"] += 1
        seen["succeeded"] += got is not None
        seen["lps"] += len(lps) - 1


def test_min_form_blocks_match_joint_lp(monkeypatch):
    # with two or more upper bounds, one LP per player block finds the
    # combinations and payoffs the joint LP over every block finds
    log = spy_lp_feasible(monkeypatch)
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        players = PLAYERS[:data.draw(st.integers(2, 3))]
        bounded = data.draw(st.lists(st.sampled_from(players), min_size=2,
                                     unique=True))
        check_combo(log, seen, *data.draw(flower_bounds(players, bounded,
                                                        12)))

    check()
    assert seen["reached"] >= 15 and seen["succeeded"] >= 5


def test_min_form_runs_no_lp_below_two_upper_bounds(monkeypatch):
    # the block of every bounded player is the shared LP's, so with at
    # most one upper bound every assignment holds that infeasible block
    log = spy_lp_feasible(monkeypatch)
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        players = PLAYERS[:data.draw(st.integers(1, 3))]
        bounded = data.draw(st.lists(st.sampled_from(players), max_size=1))
        check_combo(log, seen, *data.draw(flower_bounds(players, bounded,
                                                        1)))

    check()
    assert seen["reached"] >= 8 and seen["lps"] == 0
    assert seen["succeeded"] == 0


def test_energy_verify_examples():
    arena = Arena(["circle"], ["a"], {"a": "circle"},
                  [("a", "a")], init="a")
    g = Game(arena, PayoffSpec(
        "energy", rewards={("a", "a"): {"circle": Fraction(-1)}}))
    prof = MemoryProfile(["q0"], "q0", ["circle"],
                         [("q0", "a", "q0", "a")])
    assert verify_ne_energy(g, prof)  # losing, but no deviation wins
    arena2 = Arena(["circle"], ["a", "b"], {"a": "circle", "b": "circle"},
                   [("a", "a"), ("a", "b"), ("b", "b")], init="a")
    g2 = Game(arena2, PayoffSpec("energy", rewards={
        ("a", "a"): {"circle": Fraction(-1)},
        ("a", "b"): {"circle": Fraction(0)},
        ("b", "b"): {"circle": Fraction(0)}}))
    bad = MemoryProfile(["q0"], "q0", ["circle"],
                        [("q0", "a", "q0", "a"), ("q0", "b", "q0", "b")])
    assert not verify_ne_energy(g2, bad)  # the +0 loop wins instead
    good = MemoryProfile(["q0"], "q0", ["circle"],
                         [("q0", "a", "q0", "b"), ("q0", "b", "q0", "b")])
    assert verify_ne_energy(g2, good)


def oracle_energy_ne(game, choices):
    """Exhaustive positional-deviation search for positional profiles."""
    outcome = outcome_of_choices(game, choices)
    for i in game.players:
        if eval_lasso(game, outcome, i) == 1:
            continue
        mine = [v for v in game.arena.vertices
                if game.arena.owner[v] == i]
        for combo in itertools.product(
                *[sorted(game.arena.succ(v)) for v in mine]):
            dev = dict(choices)
            dev.update(dict(zip(mine, combo)))
            if eval_lasso(game, outcome_of_choices(game, dev), i) == 1:
                return False
    return True


def test_energy_verify_brute():
    rng = random.Random(77)
    checked = 0
    for _ in range(25):
        g = random_energy_game(rng, n=4)
        profiles = list(positional_profiles(g))
        for choices in profiles[:4]:
            prof = profile_of_choices(g, choices)
            got = verify_ne_energy(g, prof)
            want = oracle_energy_ne(g, choices)
            assert got == want, (g.arena.edges, g.payoff.rewards, choices)
            checked += 1
    assert checked >= 60


def test_verify_generic_fig():
    fig = load_game("fig_ne_spe")
    red = MemoryProfile(["q0"], "q0", ["circle", "square"],
                        [("q0", "a", "q0", "a"), ("q0", "b", "q0", "b"),
                         ("q0", "c", "q0", "c")])
    assert verify_ne_generic(fig, red)
    blue = MemoryProfile(["q0"], "q0", ["circle", "square"],
                         [("q0", "a", "q0", "b"), ("q0", "b", "q0", "c"),
                          ("q0", "c", "q0", "c")])
    assert verify_ne_generic(fig, blue)
    # circle walks into square's b-loop: square deviates to c for 1 > 0
    mixed = MemoryProfile(["q0"], "q0", ["circle", "square"],
                          [("q0", "a", "q0", "b"), ("q0", "b", "q0", "b"),
                           ("q0", "c", "q0", "c")])
    assert not verify_ne_generic(fig, mixed)


def test_verify_generic_mp_counterexample():
    sans = load_game("sans_spe")
    # square loops a<->b while circle would rather go to c? circle gets 0
    # on (ab)^w and 1 at the c-loop: profitable deviation exists
    prof = MemoryProfile(["q0"], "q0", ["circle", "square"],
                         [("q0", "a", "q0", "b"), ("q0", "b", "q0", "a"),
                          ("q0", "c", "q0", "c"), ("q0", "d", "q0", "d")])
    assert not verify_ne_generic(sans, prof)
    # with b routed back to a, circle's detour via b earns mean 0 < 1
    prof2 = MemoryProfile(["q0"], "q0", ["circle", "square"],
                          [("q0", "a", "q0", "c"), ("q0", "b", "q0", "a"),
                           ("q0", "c", "q0", "c"), ("q0", "d", "q0", "d")])
    assert verify_ne_generic(sans, prof2)


def test_verify_generic_lottery_expectation():
    lot = load_game("lottery")
    blue = MemoryProfile(["q0"], "q0", ["circle"],
                         [("q0", "a", "q0"), ("q0", "b", "q0", "c"),
                          ("q0", "c", "q0")])
    assert verify_ne_generic(lot, blue)  # expectation ties at 1
    red = MemoryProfile(["q0"], "q0", ["circle"],
                        [("q0", "a", "q0"), ("q0", "b", "q0", "t3"),
                         ("q0", "c", "q0")])
    assert verify_ne_generic(lot, red)


def test_verify_generic_ds_unsupported():
    arena = Arena(["circle"], ["a"], {"a": "circle"}, [("a", "a")],
                  init="a")
    g = Game(arena, PayoffSpec("discounted-sum",
                               rewards={("a", "a"): {"circle": Fraction(1)}},
                               discount=Fraction(1, 2)))
    prof = MemoryProfile(["q0"], "q0", ["circle"], [("q0", "a", "q0", "a")])
    with pytest.raises(GameError, match="discounted-sum"):
        verify_ne_generic(g, prof)


def test_verify_generic_multiplayer_machine():
    g = load_game("fig_first_example")
    m = load_memory("machine_multiplayer", g.arena)
    # loops at a; punishes a deviation to b by one b-loop then c: outcome
    # a^w pays (0,0), and neither player can reach payoff 1 against it
    assert verify_ne_generic(g, m)
