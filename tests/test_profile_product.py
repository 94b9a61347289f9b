"""`games.profile_product` and the best responses read from it, against
the product walks it replaced (`tests/profile_product_reference.py`)."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from equilibra.corpus import load_game
from equilibra.games import Game, PayoffSpec, MemoryProfile
from equilibra.nash import verify_ne_generic, verify_ne_energy, \
    _best_expectation
from equilibra.stochastic import (RiskPartition, verify_xrse,
                                  best_extreme_response, uniform_profile)

import profile_product_reference as ref
from conftest import (random_terminal_game, random_parity_game,
                      random_mp_game, random_energy_game)

TERMINAL_CORPUS = ["lottery", "ex_extreme1", "ex_extreme2", "ex_extreme3"]
SEEDS = st.integers(0, 2 ** 32 - 1)
TERMINAL_GAMES = (
    SEEDS.map(lambda s: random_terminal_game(random.Random(s), n=4))
    | st.sampled_from(TERMINAL_CORPUS).map(load_game))
INFINITE_GAMES = (
    SEEDS.map(lambda s: random_parity_game(random.Random(s)))
    | SEEDS.map(lambda s: random_mp_game(random.Random(s)))
    | SEEDS.map(lambda s: random_energy_game(random.Random(s)))
    | st.sampled_from(["fig_ne_spe", "sans_spe"]).map(load_game))


def draw_profile(draw, game, deterministic):
    """A profile for every player with 1-3 memory states: at each
    (state, vertex) one next state, and at player vertices one output
    (`deterministic`) or a random set of outputs, sometimes with random
    weights."""
    arena = game.arena
    states = [f"q{k}" for k in range(draw(st.integers(1, 3)))]
    transitions = []
    weights = {}
    for q in states:
        for v in arena.vertices:
            if arena.is_terminal(v):
                continue
            q2 = draw(st.sampled_from(states))
            if arena.is_chance(v):
                transitions.append((q, v, q2))
                continue
            succ = sorted(arena.succ(v))
            outs = ([draw(st.sampled_from(succ))] if deterministic else
                    draw(st.lists(st.sampled_from(succ), min_size=1,
                                  unique=True)))
            group = [(q, v, q2, w) for w in outs]
            transitions += group
            if len(group) > 1 and draw(st.booleans()):
                shares = [draw(st.integers(1, 3)) for _ in group]
                weights.update({t: Fraction(k, sum(shares))
                                for t, k in zip(group, shares)})
    return MemoryProfile(states, "q0", game.players, transitions, weights)


def policy_count(game, profile, i):
    nodes, succ = ref._product_states(game, profile, i)
    return math.prod(len(succ[s]) for s in nodes
                     if game.arena.owner[s[0]] == i)


@settings(max_examples=150, deadline=None)
@given(TERMINAL_GAMES, st.data())
def test_terminal_best_responses_match_reference(game, data):
    profile = draw_profile(data.draw, game, deterministic=False)
    pess = data.draw(st.lists(st.sampled_from(game.players), unique=True))
    part = RiskPartition(game, pess)
    assert verify_xrse(game, part, profile) == ref.verify_xrse(
        game, part, profile)
    for everyone in ([], game.players):
        part = RiskPartition(game, everyone)
        for i in game.players:
            assert best_extreme_response(game, part, profile, i) == \
                ref.best_extreme_response(game, part, profile, i)
    # the expectation enumerates i's positional policies in the product
    if all(policy_count(game, profile, i) <= 64 for i in game.players):
        for i in game.players:
            assert _best_expectation(game, profile, i) == \
                ref._best_expectation(game, profile, i)
        assert verify_ne_generic(game, profile) == ref.verify_ne_generic(
            game, profile)


@settings(max_examples=150, deadline=None)
@given(INFINITE_GAMES, st.data())
def test_infinite_play_best_responses_match_reference(game, data):
    profile = draw_profile(data.draw, game, deterministic=True)
    assert verify_ne_generic(game, profile) == ref.verify_ne_generic(
        game, profile)
    if game.mode == "energy":
        assert verify_ne_energy(game, profile) == ref.verify_ne_energy(
            game, profile)


def test_verify_xrse_builds_no_game(monkeypatch):
    games = [load_game(name) for name in TERMINAL_CORPUS]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"verify_xrse built a {type(self).__name__}")

    monkeypatch.setattr(Game, "__init__", refuse)
    monkeypatch.setattr(PayoffSpec, "__init__", refuse)
    for game in games:
        profile = uniform_profile(game, game.arena.edges)
        for pess in ([], game.players):
            verify_xrse(game, RiskPartition(game, pess), profile)
