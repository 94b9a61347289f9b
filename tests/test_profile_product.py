"""`games.profile_product` and what is read from it (best responses,
induced chains, outcomes), against the product walks it replaced
(`tests/profile_product_reference.py`)."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from equilibra.corpus import load_game
from equilibra.games import (Game, GameError, PayoffSpec, MemoryProfile,
                             induced_chain, chain_hit_probabilities,
                             profile_product)
from equilibra.nash import verify_ne_energy, _best_expectation, \
    profile_outcome
from equilibra.stochastic import (RiskPartition, verify_xrse,
                                  best_extreme_response)

import profile_product_reference as ref
from conftest import (random_terminal_game, random_parity_game,
                      random_mp_game, random_energy_game,
                      positional_profiles, profile_of_choices,
                      uniform_profile)

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


def draw_malformed(draw, profile):
    """The profile, or a variant that may be malformed: a player dropped
    from the owners, a second next state added at one (state, vertex), or
    one transition removed."""
    owners = list(profile.owners)
    transitions = list(profile.transitions)
    kind = draw(st.sampled_from(["kept", "owner", "update", "removed"]))
    if kind == "owner":
        owners.remove(draw(st.sampled_from(owners)))
    elif kind == "update" and len(profile.states) > 1:
        t = draw(st.sampled_from(transitions))
        q2 = draw(st.sampled_from([q for q in profile.states if q != t[2]]))
        transitions.append(t[:2] + (q2,) + t[3:])
    elif kind == "removed":
        transitions.remove(draw(st.sampled_from(transitions)))
    weights = {t: w for t, w in profile.weights.items() if t in transitions}
    return MemoryProfile(profile.states, profile.initial, owners,
                         transitions, weights)


def result(f, *args):
    """f(*args), or GameError when it raises one."""
    try:
        return f(*args)
    except GameError:
        return GameError


def chain_map(chain):
    """A chain as maps on its states, whatever their numbering."""
    name = chain.states
    return ({name[i]: {name[j]: p for j, p in row}
             for i, row in enumerate(chain.trans)},
            {name[i]: v for i, v in chain.terminal_of.items()},
            name[chain.init])


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


@settings(max_examples=150, deadline=None)
@given(INFINITE_GAMES, st.data())
def test_infinite_play_best_responses_match_reference(game, data):
    # `nash` keeps only the energy check; the generic one is the reference's
    profile = draw_profile(data.draw, game, deterministic=True)
    if game.mode == "energy":
        assert verify_ne_energy(game, profile) == ref.verify_ne_energy(
            game, profile)


@settings(max_examples=150, deadline=None)
@given(TERMINAL_GAMES, st.data())
def test_induced_chain_matches_reference(game, data):
    profile = draw_profile(data.draw, game, data.draw(st.booleans()))
    profile = draw_malformed(data.draw, profile)
    new = result(induced_chain, game, profile)
    old = result(ref.induced_chain, game, profile)
    if GameError in (new, old):
        assert new is old
        return
    assert chain_map(new) == chain_map(old)
    assert chain_hit_probabilities(new) == chain_hit_probabilities(old)


@settings(max_examples=150, deadline=None)
@given(INFINITE_GAMES, st.data())
def test_profile_outcome_matches_reference(game, data):
    profile = draw_profile(data.draw, game, deterministic=True)
    assert result(profile_outcome, game, profile) == \
        result(ref.profile_outcome, game, profile)


def test_each_product_is_walked_once(monkeypatch):
    walks = []

    def counted(game, profile, free):
        walks.append(free)
        return profile_product(game, profile, free)

    monkeypatch.setattr("equilibra.games.profile_product", counted)
    monkeypatch.setattr("equilibra.nash.profile_product", counted)
    lot = load_game("lottery")
    profile = uniform_profile(lot, lot.arena.edges)
    induced_chain(lot, profile)
    assert walks == [None]
    for i in lot.players:
        walks.clear()
        _best_expectation(lot, profile, i)
        assert walks == [i]
    fig = load_game("fig_ne_spe")
    walks.clear()
    profile_outcome(fig, profile_of_choices(fig, next(positional_profiles(
        fig))))
    assert walks == [None]


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
