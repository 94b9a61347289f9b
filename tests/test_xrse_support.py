"""The XRSE support walk (`stochastic._support`), measure fold
(`stochastic._extremes`), almost-sure loop (`zerosum._value_one`) and
Algorithms 1-3 on the arena's int view against the code they replaced
(`tests/xrse_support_reference.py`), and the bounded search's cuts and
one-threshold checks against brute force and the full best-response
sweep."""

import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from equilibra.corpus import load_game
from equilibra.games import Arena, Game, PayoffSpec, serialize_memory
from equilibra._kernels import IndexedGraph
from equilibra.nash import Query
from equilibra.rationals import parse_rational
from equilibra import stochastic
from equilibra.stochastic import (RiskPartition, extreme_measure,
                                  best_extreme_response,
                                  verify_xrse, xrse_exists,
                                  xrse_constrained_optimists,
                                  xrse_search_bounded, _edge_arrays,
                                  _support_measures)
from equilibra import zerosum as zs

import xrse_support_reference as ref
from conftest import (random_terminal_game, random_parity_game,
                      random_mp_game, uniform_profile)
from test_profile_product import draw_profile

TERMINAL_CORPUS = ["lottery", "ex_extreme1", "ex_extreme2", "ex_extreme3"]
SEEDS = st.integers(0, 2 ** 32 - 1)
PAYOFF_SETS = [(0, 1, 2, 3), (-1, 0, 1, 2)]
PAYOFFS = st.sampled_from(PAYOFF_SETS)
TERMINAL_GAMES = (
    st.builds(lambda s, pay: random_terminal_game(random.Random(s), n=4,
                                                  payoffs=pay), SEEDS, PAYOFFS)
    | st.sampled_from(TERMINAL_CORPUS).map(load_game))
SMALL_TERMINAL_GAMES = (
    st.builds(lambda s, pay: random_terminal_game(random.Random(s), n=3,
                                                  payoffs=pay), SEEDS, PAYOFFS)
    | st.sampled_from(TERMINAL_CORPUS[:3]).map(load_game))
ARENAS = (
    st.builds(lambda s: random_terminal_game(random.Random(s), n=5).arena,
              SEEDS)
    | st.builds(lambda s: random_parity_game(random.Random(s), n=5,
                                             players=3).arena, SEEDS)
    | st.builds(lambda s: random_mp_game(random.Random(s), n=5).arena, SEEDS)
    | st.sampled_from(TERMINAL_CORPUS).map(lambda n: load_game(n).arena))
THRESHOLDS = st.sampled_from([None, "-1", "0", "1", "2", "3", "40"])


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return ("value", f(*args))
    except Exception as e:
        return ("raised", type(e).__name__, str(e))


def subset(draw, items):
    return [x for x in items if draw(st.booleans())]


def draw_partition(draw, game):
    return RiskPartition(game, subset(draw, game.players))


def draw_query(draw, game):
    bounds = [{}, {}]
    for p in game.players:
        for side in bounds:
            x = draw(THRESHOLDS)
            if x is not None:
                side[p] = parse_rational(x)
    return Query(*bounds)


def ids_of(g, edges):
    """The name pairs `edges` as id pairs of the view g."""
    return [(g.index[u], g.index[v]) for u, v in edges]


@settings(max_examples=200, deadline=None)
@given(ARENAS, st.data())
def test_almost_sure_reach_game_matches_reference(arena, data):
    # `_value_one` on an edge subset's arrays; targets may be any
    # vertices, terminal or not, and lose their moves, as it needs
    draw = data.draw
    g = arena.graph
    full = (1 << g.n) - 1
    edges = subset(draw, arena.edges) if draw(st.booleans()) else None
    target = set(subset(draw, arena.vertices))
    protags = set(subset(draw, arena.players))
    adversaries = set(subset(draw, [p for p in arena.players
                                    if p not in protags]))
    moves = ids_of(g, [(u, v) for u, v in
                       (arena.edges if edges is None else edges)
                       if u not in target])
    won = zs._value_one(g.n, _edge_arrays(g, moves),
                        full & ~zs._owned(g, arena.owner, adversaries),
                        full & ~zs._owned(g, arena.owner, protags),
                        g.mask(target), full)
    assert g.unmask(won) == ref.almost_sure_reach_game(
        arena, protags, adversaries, target, edges)


@settings(max_examples=200, deadline=None)
@given(TERMINAL_GAMES, st.data())
def test_value_one_from_a_sub_game_mask_is_the_restricted_game(game, data):
    # the pessimist safe region's step: starting `_value_one` from the
    # mask S is solving the game whose edges stay inside S
    draw = data.draw
    arena = game.arena
    g = arena.graph
    edges = ids_of(g, subset(draw, arena.edges))
    safe, reach_coal, spoil_coal = (g.mask(subset(draw, arena.vertices))
                                    for _ in range(3))
    target = g.mask(subset(draw, game.terminals()))
    inside = [(u, v) for u, v in edges if safe >> u & 1 and safe >> v & 1]
    assert zs._value_one(g.n, _edge_arrays(g, edges), reach_coal,
                         spoil_coal, target, safe) == safe & zs._value_one(
        g.n, g.restrict(inside), reach_coal, spoil_coal, target,
        (1 << g.n) - 1)


@settings(max_examples=150, deadline=None)
@given(TERMINAL_GAMES, st.data())
def test_measures_and_supports_match_reference(game, data):
    draw = data.draw
    part = draw_partition(draw, game)
    profile = draw_profile(draw, game, deterministic=draw(st.booleans()))
    assert outcome(extreme_measure, game, part, profile) == outcome(
        ref.extreme_measure, game, part, profile)
    edges = sorted(subset(draw, game.arena.edges))
    arrays = _edge_arrays(game.arena.graph, ids_of(game.arena.graph, edges))
    for mode in ("chain", "positional"):
        assert _support_measures(game, arrays, mode) == \
            ref._support_measures(game, edges, mode)
    # the reference's "averse" was an alias of "chain"
    assert _support_measures(game, arrays, "chain") == \
        ref._support_measures(game, edges, "averse")


def ref_xrse_exists(game, part):
    """The reference's edges and trace, with the measures of the edges'
    uniform profile that the CLI derived before `xrse_exists` returned
    its last round's."""
    edges, trace = ref.xrse_exists(game, part)
    profile = uniform_profile(game, edges)
    return edges, ref.extreme_measure(game, part, profile), trace


@settings(max_examples=150, deadline=None)
@given(TERMINAL_GAMES, st.data())
def test_xrse_algorithms_match_reference(game, data):
    draw = data.draw
    part = draw_partition(draw, game)
    assert outcome(xrse_exists, game, part) == outcome(
        ref_xrse_exists, game, part)
    query = draw_query(draw, game)
    assert outcome(xrse_constrained_optimists, game, query) == outcome(
        ref.xrse_constrained_optimists, game, query)


def test_cycle_averse_refinement_matches_reference():
    # every upper bound is -1 and every payoff at most that, so the play
    # must end almost surely and the final refinement cuts edges in about
    # a quarter of the games
    rng = random.Random(1)
    cuts = 0
    for _ in range(60):
        game = random_terminal_game(rng, n=5, payoffs=(-2, -1))
        hi = {p: Fraction(-1) for p in game.players}
        for lo in ({}, {game.players[0]: Fraction(-1)}):
            query = Query(lo, hi)
            got = xrse_constrained_optimists(game, query)
            assert got == ref.xrse_constrained_optimists(game, query)
            cuts += sum("cut" in row for row in got["trace"])
    assert cuts >= 20


def test_each_round_restricts_the_arena_view_once(monkeypatch):
    # an edge set becomes CSR once per round of `xrse_exists` and of
    # `xrse_constrained_optimists` (a V-frown step or an almost-sure
    # step); the first round's edges are the whole arena, whose view's
    # own arrays serve
    made = []
    restrict = IndexedGraph.restrict

    def counted(self, edges):
        made.append(edges)
        return restrict(self, edges)

    monkeypatch.setattr(IndexedGraph, "restrict", counted)
    rng = random.Random(3)
    rounds = restricted = 0
    for _ in range(60):
        game = random_terminal_game(rng, n=5, payoffs=(0, 1, 2))
        made.clear()
        _, _, trace = xrse_exists(game, RiskPartition(game, game.players))
        assert len(made) <= len(trace) - 1
        restricted += len(made)
        # cycle-friendly at upper bounds 0 and 1, cycle-averse at -1
        averse = random_terminal_game(rng, n=5, payoffs=(-2, -1))
        for g, hi in ((game, None), (game, 0), (game, 1), (averse, -1)):
            query = Query({}, {} if hi is None else
                          {p: Fraction(hi) for p in g.players})
            made.clear()
            trace = xrse_constrained_optimists(g, query)["trace"]
            assert len(made) <= sum(row.get("k", 0) > 0 for row in trace)
            rounds += len(trace)
            restricted += len(made)
    assert restricted > 50 and rounds > 300


def search_outcome(search, game, part, query, bound):
    res = outcome(search, game, part, query, bound)
    if res[0] == "value" and "profile" in res[1]:
        res = ("value", dict(res[1],
                             profile=serialize_memory(res[1]["profile"])))
    return res


@st.composite
def bounded_search_cases(draw):
    """(game, partition, query, memory bound) for the bounded search."""
    bound = draw(st.integers(1, 2))
    game = draw(TERMINAL_GAMES if bound == 1 else SMALL_TERMINAL_GAMES)
    return game, draw_partition(draw, game), draw_query(draw, game), bound


def slow_bounded_search_case():
    """The slowest draw of `bounded_search_cases` over hypothesis seeds
    0-39 (seed 18): both players pessimistic and square asking for at
    least 3 where no terminal pays it more than 2, so no profile is
    admitted and both searches try every one with two memory states.
    About 9 s in `xrse_search_bounded` and 6 s in the reference on a
    shared 2-core machine, against under 2 s for every other draw."""
    players = ["circle", "square"]
    owner = {"v0": "circle", "v1": "square", "v2": "circle",
             "t0": "terminal", "t1": "terminal"}
    edges = [("v0", "t0"), ("v0", "v1"), ("v0", "v2"), ("v1", "v0"),
             ("v1", "v2"), ("v2", "t1"), ("v2", "v0"), ("v2", "v1")]
    pay = {"t0": {p: Fraction(2) for p in players},
           "t1": {p: Fraction(1) for p in players}}
    game = Game(Arena(players, list(owner), owner, edges, init="v0"),
                PayoffSpec("terminal", terminal_payoffs=pay))
    query = Query({"circle": Fraction(2), "square": Fraction(3)},
                  {"circle": Fraction(3), "square": Fraction(3)})
    return game, RiskPartition(game, players), query, 2


@settings(max_examples=100, deadline=None)
@given(bounded_search_cases())
@example(slow_bounded_search_case())
def test_bounded_search_matches_reference(case):
    game, part, query, bound = case
    assert search_outcome(xrse_search_bounded, game, part, query, bound) == \
        search_outcome(ref.xrse_search_bounded, game, part, query, bound)


def test_search_builds_a_chain_only_for_its_answer(monkeypatch):
    # every candidate is checked on the measures the search walked; only
    # the returned profile goes through `covered_product`, once
    seen = []
    product = stochastic.covered_product

    def counted(game, profile):
        seen.append(profile)
        return product(game, profile)

    monkeypatch.setattr(stochastic, "covered_product", counted)
    games = [load_game(name) for name in TERMINAL_CORPUS]
    games += [random_terminal_game(random.Random(seed), n=4)
              for seed in range(20)]
    answers = 0
    for game in games:
        for pess in ([], game.players):
            seen.clear()
            res = xrse_search_bounded(game, RiskPartition(game, pess),
                                      Query(), 1)
            expected = [res["profile"]] if res["answer"] == "yes" else []
            assert seen == expected
            answers += len(expected)
    assert answers


def test_best_extreme_response_builds_no_arena(monkeypatch):
    games = [load_game(name) for name in TERMINAL_CORPUS]

    def refuse(self, *args, **kwargs):
        raise AssertionError("best_extreme_response built an Arena")

    monkeypatch.setattr(Arena, "__init__", refuse)
    for game in games:
        profile = uniform_profile(game, game.arena.edges)
        for pess in ([], game.players):
            for i in game.players:
                best_extreme_response(game, RiskPartition(game, pess),
                                      profile, i)


def test_adversarial_values_sweep_once_per_player(monkeypatch):
    sweeps = []
    sweep = zs.extreme_threshold_sweep

    def counted(*args, **kwargs):
        sweeps.append(inspect.signature(sweep).bind(
            *args, **kwargs).arguments["player"])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(zs, "extreme_threshold_sweep", counted)
    for seed in range(20):
        game = random_terminal_game(random.Random(seed), n=5)
        for pess in ([], game.players):
            part = RiskPartition(game, pess)
            sweeps.clear()
            val = stochastic._adversarial_values(game, part)
            assert sweeps == list(game.players)
            assert val == ref._adversarial_values(game, part)


class _NodesSpent(Exception):
    """A checked search used up its node allowance."""


class _CheckedCuts(stochastic._SlotSearch):
    """The bounded search, checking by brute force each subtree that the
    hostile-completion bound cuts: in every completion, the player the
    bound names beats their cap, so no completion has admitted measures
    and passes `verify_xrse`.  A cut with more than CUT_LIMIT completions
    is left unchecked, and a search stops after NODE_LIMIT `rec` and
    `fill` nodes, which keeps each search to a fraction of a second."""

    CUT_LIMIT = 40
    NODE_LIMIT = 200
    checked = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.nodes = 0

    def spend(self):
        self.nodes += 1
        if self.nodes > self.NODE_LIMIT:
            raise _NodesSpent

    def rec(self, *args):
        self.spend()
        return super().rec(*args)

    def fill(self, *args):
        self.spend()
        return super().fill(*args)

    def hostile_beaten(self, assign, caps):
        cut = super().hostile_beaten(assign, caps)
        rest = [k for k in range(len(self.slots)) if k not in assign]
        options = [self.slots[k][2] for k in rest]
        if not cut or math.prod(map(len, options)) > self.CUT_LIMIT:
            return cut
        game, part = self.game, self.partition
        for combo in itertools.product(*options):
            profile = self.build({**assign, **dict(zip(rest, combo))})
            assert any(best_extreme_response(game, part, profile, i) > m
                       for i, m in caps.items())
            assert not (self.query.admits(extreme_measure(game, part,
                                                          profile))
                        and verify_xrse(game, part, profile))
        _CheckedCuts.checked += 1
        return cut


def test_hostile_bound_cuts_no_xrse():
    # tiny games, every pessimist set, seeded thresholds; a search at
    # bound 2 runs the bound-1 search first.  About half of the seeded
    # queries admit no support and are answered without a search, so 320
    # games are drawn to check 250 cuts (160 sufficed when every query
    # was searched)
    games = [load_game("lottery"), load_game("ex_extreme1")]
    games += [random_terminal_game(random.Random(seed), n=3,
                                   payoffs=PAYOFF_SETS[seed % 2])
              for seed in range(320)]
    rng = random.Random(5)
    values = [Fraction(x) for x in (-1, 0, 1, 2, 3)]
    _CheckedCuts.checked = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stochastic, "_SlotSearch", _CheckedCuts)
        for game in games:
            for k in range(len(game.players) + 1):
                for pess in itertools.combinations(game.players, k):
                    query = Query(*[{p: rng.choice(values)
                                     for p in game.players
                                     if rng.random() < 0.5}
                                    for _ in range(2)])
                    try:
                        xrse_search_bounded(game, RiskPartition(game, pess),
                                            query, 2)
                    except _NodesSpent:
                        pass
    assert _CheckedCuts.checked >= 250


@settings(max_examples=200, deadline=None)
@given(TERMINAL_GAMES, st.data())
def test_measure_caps_bound_every_admitted_support(game, data):
    # a support is a set of terminals, with or without non-termination
    draw = data.draw
    part = draw_partition(draw, game)
    query = draw_query(draw, game)
    caps = stochastic._measure_caps(game, part, query)
    terms = game.terminals()
    for k in range(len(terms) + 1):
        for support in itertools.combinations(terms, k):
            for nonterm in (False, True):
                if not (support or nonterm):
                    continue
                measures = stochastic._extremes(game, part, support, nonterm)
                if query.admits(measures):
                    assert all(measures[i] <= c for i, c in caps.items())


def draw_search(draw, game, part):
    """A `_SlotSearch` over the slots `xrse_search_bounded` builds with 1
    or 2 memory states, and a complete assignment of them."""
    states = [f"q{k}" for k in range(draw(st.integers(1, 2)))]
    slots = stochastic._memory_slots(game.arena, states)
    search = stochastic._SlotSearch(game, part, Query(), states, slots)
    assign = {k: draw(st.sampled_from(opts))
              for k, (_, _, opts) in enumerate(slots)}
    return search, assign


@settings(max_examples=150, deadline=None)
@given(TERMINAL_GAMES, st.data())
def test_one_threshold_question_matches_best_response(game, data):
    # with no slot left open, the hostile game is the profile's MDP
    draw = data.draw
    pay = game.payoff.terminal_payoffs
    search, assign = draw_search(draw, game, draw_partition(draw, game))
    profile = search.build(assign)
    for i in game.players:
        best = best_extreme_response(game, search.partition, profile, i)
        ms = {Fraction(-1), Fraction(0), Fraction(40)}
        ms |= {pay[t][i] for t in game.terminals()}
        for m in ms:
            assert search.hostile_response(assign, i, m) == max(best, m)


def test_deviator_at_their_greatest_candidate_builds_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(stochastic._SlotSearch, "hostile_response", refuse)
    for name in TERMINAL_CORPUS:
        game = load_game(name)
        pay = game.payoff.terminal_payoffs
        tops = stochastic._top_thresholds(game)
        assert all(tops[i] == max([Fraction(0)] + [pay[t][i]
                                                   for t in game.terminals()])
                   for i in game.players)
        for pess in ([], game.players):
            for nstates in (1, 2):
                states = [f"q{k}" for k in range(nstates)]
                slots = stochastic._memory_slots(game.arena, states)
                search = stochastic._SlotSearch(
                    game, RiskPartition(game, pess), Query(), states, slots)
                assign = {k: opts[-1] for k, (_, _, opts) in enumerate(slots)}
                assert not search.hostile_beaten(assign, tops)
