"""Shared random-game generators and brute-force oracles.

The oracles deliberately take the dumbest correct route (exhaustive
positional enumeration, exhaustive subsets) so the clever implementations
are checked against independent code.
"""

import gc
import itertools
import random
from fractions import Fraction

import pytest

from equilibra.corpus import read_text
from equilibra.games import (Arena, PayoffSpec, Game, GameError,
                             MemoryProfile, Lasso, eval_lasso, parse_memory)
from equilibra.games import chain_hit_probabilities

PLAYERS = ["circle", "square", "diamond"]


@pytest.fixture(autouse=True, scope="module")
def _gc_callbacks_as_found():
    """Leave the collector's callbacks as each module found them.
    Hypothesis adds one on first use and never takes it out; a later test
    that times a signal (querybench/test_trace_counts.py) would then see
    its handler run inside that callback whenever a collection overlaps
    the signal, which `test_budget_alarm.py` shows on purpose."""
    before = list(gc.callbacks)
    yield
    gc.callbacks[:] = before


def _patch_ingoing(rng, vertices, edges, init, may_source):
    have_in = {v for (_, w) in edges for v in [w]}
    for v in vertices:
        if v != init and v not in have_in:
            src = rng.choice(may_source)
            edges.append((src, v))
    return sorted(set(edges))


def random_parity_game(rng, n=4, players=2, max_color=2, max_deg=3):
    names = PLAYERS[:players]
    vertices = [f"v{k}" for k in range(rng.randint(2, n))]
    owner = {v: rng.choice(names) for v in vertices}
    edges = []
    for v in vertices:
        outs = rng.sample(vertices,
                          rng.randint(1, min(max_deg, len(vertices))))
        for w in outs:
            edges.append((v, w))
    edges = _patch_ingoing(rng, vertices, edges, vertices[0], vertices)
    colors = {v: {p: rng.randint(0, max_color) for p in names}
              for v in vertices}
    arena = Arena(names, vertices, owner, edges, init=vertices[0])
    return Game(arena, PayoffSpec("parity", colors=colors))


def random_mp_game(rng, n=4, players=2, rewards=(-1, 0, 1, 2), max_deg=2):
    g = random_parity_game(rng, n=n, players=players, max_deg=max_deg)
    arena = g.arena
    rew = {e: {p: Fraction(rng.choice(rewards)) for p in arena.players}
           for e in arena.edges}
    return Game(Arena(arena.players, arena.vertices, arena.owner,
                      arena.edges, init=arena.init),
                PayoffSpec("mean-payoff", rewards=rew))


def flower_mp_game(players, means):
    """A mean-payoff game whose simple cycles are (o, p<k>) for k < len(means),
    with player j's mean on cycle k equal to means[k][j]: the whole arena is
    one core with exactly those cycles."""
    petals = [f"p{k}" for k in range(len(means))]
    owner = {v: players[0] for v in ["o"] + petals}
    rewards = {}
    for p, mean in zip(petals, means):
        rewards["o", p] = {j: 2 * Fraction(m) for j, m in zip(players, mean)}
        rewards[p, "o"] = {j: Fraction(0) for j in players}
    arena = Arena(players, ["o"] + petals, owner, sorted(rewards), init="o")
    return Game(arena, PayoffSpec("mean-payoff", rewards=rewards))


def random_energy_game(rng, n=4, players=2):
    return_game = random_mp_game(rng, n=n, players=players,
                                 rewards=(-1, 0, 1))
    arena = return_game.arena
    return Game(Arena(arena.players, arena.vertices, arena.owner,
                      arena.edges, init=arena.init),
                PayoffSpec("energy", rewards=return_game.payoff.rewards))


def random_terminal_game(rng, n=5, players=2, payoffs=(0, 1, 2, 3)):
    names = PLAYERS[:players]
    nv = rng.randint(2, n)
    nt = rng.randint(1, 2)
    inner = [f"v{k}" for k in range(nv)]
    terms = [f"t{k}" for k in range(nt)]
    owner = {}
    for v in inner:
        owner[v] = rng.choice(names + ["chance"])
    for t in terms:
        owner[t] = "terminal"
    vertices = inner + terms
    edges = []
    for v in inner:
        outs = rng.sample(vertices, rng.randint(1, min(3, len(vertices))))
        outs = [w for w in outs if w != v or True]
        for w in outs:
            edges.append((v, w))
    player_sources = [v for v in inner if owner[v] != "chance"]
    if not player_sources:
        owner[inner[0]] = names[0]
        player_sources = [inner[0]]
    edges = _patch_ingoing(rng, vertices, edges, inner[0], player_sources)
    edges = sorted(set(edges))
    probs = {}
    for v in inner:
        if owner[v] == "chance":
            outs = [w for (u, w) in edges if u == v]
            share = Fraction(1, len(outs))
            for w in outs:
                probs[(v, w)] = share
            total = sum(probs[(v, w)] for w in outs)
            probs[(v, outs[-1])] += 1 - total
    pay = {t: {p: Fraction(rng.choice(payoffs)) for p in names}
           for t in terms}
    arena = Arena(names, vertices, owner, edges, probs, inner[0])
    return Game(arena, PayoffSpec("terminal", terminal_payoffs=pay))


def positional_profiles(game):
    """All positional full profiles as (choice dict) maps."""
    arena = game.arena
    controlled = [v for v in arena.vertices
                  if not arena.is_chance(v) and not arena.is_terminal(v)]
    lists = [sorted(arena.succ(v)) for v in controlled]
    for combo in itertools.product(*lists):
        yield dict(zip(controlled, combo))


def profile_of_choices(game, choices, name="positional"):
    arena = game.arena
    transitions = []
    for v in arena.vertices:
        if arena.is_terminal(v):
            continue
        if arena.is_chance(v):
            transitions.append(("q0", v, "q0"))
        else:
            transitions.append(("q0", v, "q0", choices[v]))
    return MemoryProfile(["q0"], "q0", list(game.players), transitions,
                         name=name)


def uniform_profile(game, edge_set, name="uniform"):
    """Stationary profile randomizing uniformly over the edge set at every
    controlled vertex."""
    arena = game.arena
    transitions = []
    fset = set(edge_set)
    for v in arena.vertices:
        if arena.is_terminal(v):
            continue
        if arena.is_chance(v):
            transitions.append(("q0", v, "q0"))
        else:
            outs = [w for w in sorted(arena.succ(v)) if (v, w) in fset]
            if not outs:
                raise GameError(f"edge set starves vertex {v}")
            for w in outs:
                transitions.append(("q0", v, "q0", w))
    return MemoryProfile(["q0"], "q0", list(game.players), transitions,
                         name=name)


def load_memory(name, arena):
    """The bundled corpus memory structure `name`, over `arena`."""
    return parse_memory(read_text(name), arena)


def outcome_of_choices(game, choices, start=None):
    """Lasso outcome of a positional deterministic profile (no chance)."""
    arena = game.arena
    v = start or arena.init
    seen = {v: 0}
    seq = [v]
    while True:
        v = choices[v]
        if v in seen:
            k = seen[v]
            return Lasso(seq[:k], seq[k:])
        seen[v] = len(seq)
        seq.append(v)


def oracle_parity_val(game, player, v):
    """max over protagonist positional strategies of min over others'."""
    arena = game.arena
    mine = [u for u in arena.vertices if arena.owner[u] == player]
    theirs = [u for u in arena.vertices if arena.owner[u] != player]
    best = None
    for my in itertools.product(*[sorted(arena.succ(u)) for u in mine]):
        worst = None
        for th in itertools.product(*[sorted(arena.succ(u))
                                      for u in theirs]):
            choices = dict(zip(mine, my))
            choices.update(dict(zip(theirs, th)))
            val = eval_lasso(game, outcome_of_choices(game, choices, v),
                             player)
            if worst is None or val < worst:
                worst = val
        if best is None or worst > best:
            best = worst
    return best


def oracle_chain_stats(game, choices, start=None):
    """Support and hit probabilities of the chain of a positional profile
    (chance vertices keep their distributions); built by hand so the
    oracle does not lean on induced_chain."""
    from equilibra.games import Chain
    arena = game.arena
    start = start or arena.init
    states = [start]
    index = {start: 0}
    trans = []
    terminal_of = {}
    todo = [start]
    while todo:
        v = todo.pop()
        k = index[v]
        while len(trans) <= k:
            trans.append([])
        if arena.is_terminal(v):
            terminal_of[k] = v
            continue
        if arena.is_chance(v):
            moves = [(w, arena.chance_prob[(v, w)]) for w in arena.succ(v)]
        else:
            moves = [(choices[v], Fraction(1))]
        for w, p in moves:
            if w not in index:
                index[w] = len(states)
                states.append(w)
                todo.append(w)
            trans[k].append((index[w], p))
    while len(trans) < len(states):
        trans.append([])
    chain = Chain([(v, "q0") for v in states], trans, 0, terminal_of)
    return chain_hit_probabilities(chain)


def oracle_extreme_value(game, partition, v):
    """Positional protagonist x positional antagonist brute force."""
    arena = game.arena
    player = arena.owner[v]
    pess, _ = partition
    mine = [u for u in arena.vertices if arena.owner[u] == player]
    theirs = [u for u in arena.vertices
              if arena.owner[u] not in (player, "chance", "terminal")]
    best = None
    for my in itertools.product(*[sorted(arena.succ(u)) for u in mine]):
        worst = None
        for th in itertools.product(*[sorted(arena.succ(u))
                                      for u in theirs]):
            choices = dict(zip(mine, my))
            choices.update(dict(zip(theirs, th)))
            probs, nonterm = oracle_chain_stats(game, choices, start=v)
            support = {game.payoff.terminal_payoffs[t][player]
                       for t, p in probs.items() if p > 0}
            if nonterm > 0:
                support.add(Fraction(0))
            val = min(support) if player in pess else max(support)
            if worst is None or val < worst:
                worst = val
        if best is None or worst > best:
            best = worst
    return best
