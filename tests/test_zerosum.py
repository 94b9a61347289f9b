import collections
import itertools
import math
import random
import types
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

import mp_values_reference as mp_ref
import zielonka_reference as ref
from extreme_value_reference import extreme_adversarial_value
from named_graph_reference import reachable_from

from equilibra.corpus import load_game
from equilibra.games import (CHANCE, Arena, Game, GameError, Lasso,
                             PayoffSpec, eval_lasso, int_weights)
from equilibra import _kernels as K, zerosum as zs
from conftest import (PLAYERS, random_parity_game, random_terminal_game,
                      oracle_parity_val, oracle_extreme_value,
                      positional_profiles, outcome_of_choices)


def attractor(arena, labels, target):
    """`_kernels.attractor` on the whole of the arena's int view, for the
    coalition of the vertices whose owner is in `labels`, as names."""
    g = arena.graph
    return g.unmask(K.attractor(g.n, g.off, g.dst, g.poff, g.psrc,
                                zs._owned(g, arena.owner, labels),
                                g.mask(target), (1 << g.n) - 1))


def test_attractor_examples():
    fig = load_game("fig_ne_spe")
    allv = set(fig.arena.vertices)
    assert attractor(fig.arena, {"circle", "square"}, allv) == allv
    assert attractor(fig.arena, {"circle", "square"}, {"c"}) == allv
    assert attractor(fig.arena, {"circle", "square"}, set()) == set()


def test_attractor_monotone_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        g = random_parity_game(rng)
        verts = list(g.arena.vertices)
        t1 = set(rng.sample(verts, rng.randint(0, len(verts))))
        t2 = t1 | set(rng.sample(verts, rng.randint(0, len(verts))))
        coal = {"circle"}
        a1 = attractor(g.arena, coal, t1)
        a2 = attractor(g.arena, coal, t2)
        assert a1 <= a2
        assert attractor(g.arena, coal, a1) == a1


def test_positive_prob_attractor_examples():
    # chance plays the existential role, every player the universal one
    ex1 = load_game("ex_extreme1").arena
    assert attractor(ex1, {CHANCE}, {"t1"}) == {"t1"}
    assert "t1" in attractor(ex1, {CHANCE}, {"t1", "a"})
    # forced termination in a dag-like game
    lot = load_game("lottery")
    assert attractor(lot.arena, {CHANCE}, set(lot.terminals())) == set(
        lot.arena.vertices)


def oracle_positive_attr(game, W, edges):
    arena = game.arena
    out = set()
    for v in arena.vertices:
        if v in W:
            out.add(v)
            continue
        hit_all = True
        for choices in positional_profiles(game):
            sub = [(u, w) for (u, w) in edges
                   if (arena.is_chance(u) or arena.is_terminal(u)
                       or choices.get(u) == w)]
            reach = reachable_from(arena, [v], sub)
            if not (reach & set(W)):
                hit_all = False
                break
        if hit_all:
            out.add(v)
    return out


def test_positive_prob_attractor_brute():
    rng = random.Random(11)
    for _ in range(30):
        g = random_terminal_game(rng, n=4)
        terms = g.terminals()
        W = set(rng.sample(terms, rng.randint(1, len(terms))))
        got = attractor(g.arena, {CHANCE}, W)
        want = oracle_positive_attr(g, W, list(g.arena.edges))
        assert got == want, (g.arena.edges, W, got, want)


def test_extreme_value_examples():
    lot = load_game("lottery")
    assert extreme_adversarial_value(lot, (set(), {"circle"}), "b") == 40
    assert extreme_adversarial_value(lot, ({"circle"}, set()), "b") == 1
    with pytest.raises(GameError):
        extreme_adversarial_value(lot, (set(), {"circle"}), "a")
    # all terminals pay the same -> that value
    ex1 = load_game("ex_extreme1")
    same = {t: {"circle": Fraction(5), "square": Fraction(5)}
            for t in ex1.terminals()}
    from equilibra.games import Arena, PayoffSpec, Game
    g = Game(Arena(ex1.players, ex1.arena.vertices, ex1.arena.owner,
                   ex1.arena.edges, init="a"),
             PayoffSpec("terminal", terminal_payoffs=same))
    assert extreme_adversarial_value(g, ({"circle", "square"}, set()),
                                     "a") == 5


def test_extreme_value_brute():
    rng = random.Random(3)
    checked = 0
    for _ in range(40):
        g = random_terminal_game(rng, n=4)
        pess = set(p for p in g.players if rng.random() < 0.5)
        part = (pess, set(g.players) - pess)
        for v in g.arena.vertices:
            if g.arena.is_chance(v) or g.arena.is_terminal(v):
                continue
            got = extreme_adversarial_value(g, part, v)
            want = oracle_extreme_value(g, part, v)
            assert got == want, (g.arena.edges, v, part, got, want)
            checked += 1
    assert checked > 30


def min_mean_cycle(arena, weight, restrict=None):
    """Minimum mean over reachable simple cycles, with the lexicographically
    least canonical witness among minimizers.  Exhaustive at desk scale."""
    verts = set(restrict) if restrict is not None else set(arena.vertices)
    if arena.init is not None and restrict is None:
        verts &= reachable_from(arena, [arena.init])
    cycles = zs.simple_cycles(verts, lambda u: [w for w in arena.succ(u)
                                                 if w in verts])
    if not cycles:
        raise GameError("graph is acyclic")
    return min((zs.cycle_mean(c, weight), list(c)) for c in cycles)


def rewards_of(game, player):
    return lambda u, v: game.payoff.reward(player, u, v)


def karp_of(game, player, verts):
    """Karp's min mean of player's rewards on the subgraph of verts, fed
    from the game's int view."""
    denom, weights = game.weights
    index = {v: k for k, v in enumerate(sorted(verts))}
    return zs.karp_min_mean(len(index), [
        (index[u], index[w], weights[player][u, w]) for u in index
        for w in game.arena.succ(u) if w in index]) / denom


def test_min_mean_cycle_examples():
    # the exhaustive witness oracle on worked examples, and Karp's value
    sans = load_game("sans_spe")
    circle = rewards_of(sans, "circle")
    val, cyc = min_mean_cycle(sans.arena, circle, restrict={"a", "b"})
    assert val == 0 and cyc == ["a", "b"]
    assert karp_of(sans, "circle", {"a", "b"}) == val
    inf = load_game("inf_spe")
    circle = rewards_of(inf, "circle")
    val, cyc = min_mean_cycle(inf.arena, circle)
    assert val == 0 and cyc == ["a"]
    assert karp_of(inf, "circle", inf.arena.vertices) == val
    # single self-loop
    arena = Arena(["circle"], ["a"], {"a": "circle"}, [("a", "a")], init="a")
    val, cyc = min_mean_cycle(arena, lambda u, v: Fraction(5))
    assert val == 5 and cyc == ["a"]
    loop = Game(arena, PayoffSpec("mean-payoff", rewards={
        ("a", "a"): {"circle": Fraction(5)}}))
    assert karp_of(loop, "circle", {"a"}) == 5


def test_karp_vs_enumeration():
    rng = random.Random(5)

    def weight(kind):
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    for kind in ["fraction"] * 40 + ["int"] * 20 + ["mixed"] * 20:
        g = random_parity_game(rng, n=5)
        weights = {e: weight(kind) for e in g.arena.edges}
        idx = g.arena.graph.index
        edges = [(idx[u], idx[v], weights[(u, v)])
                 for (u, v) in g.arena.edges]
        karp = mp_ref.on_fractions(zs.karp_min_mean, len(idx), edges)
        cycles = zs.simple_cycles(g.arena.vertices, g.arena.succ)
        best = min(zs.cycle_mean(c, lambda u, v: weights[(u, v)])
                   for c in cycles)
        assert karp == best == mp_ref.karp_min_mean(len(idx), edges)


def test_parity_region_examples():
    fig = load_game("fig_ne_spe")
    colors = {v: fig.payoff.color("circle", v) for v in fig.arena.vertices}
    win, strat = ref.parity_region(fig.arena, colors, {"circle", "square"})
    assert win == set(fig.arena.vertices)
    # single odd self-loop
    from equilibra.games import Arena
    arena = Arena(["circle"], ["a"], {"a": "circle"}, [("a", "a")], init="a")
    win, _ = ref.parity_region(arena, {"a": 1}, {"circle"})
    assert win == set()
    win, _ = ref.parity_region(arena, {"a": 0}, {"circle"})
    assert win == {"a"}


def test_parity_region_partition_and_witness():
    rng = random.Random(13)
    for _ in range(40):
        g = random_parity_game(rng, n=4, players=2, max_color=3)
        i = "circle"
        colors = {v: g.payoff.color(i, v) for v in g.arena.vertices}
        win, strat = ref.parity_region(g.arena, colors, {i})
        lose = set(g.arena.vertices) - win
        # region matches the positional brute force
        for v in g.arena.vertices:
            want = oracle_parity_val(g, i, v)
            assert (v in win) == (want == 1), (g.arena.edges, colors, v)
        # following the witness strategy yields an even lasso
        for v in sorted(win):
            cur = v
            seen = {}
            seq = []
            while cur not in seen:
                seen[cur] = len(seq)
                seq.append(cur)
                if g.arena.owner[cur] == i:
                    cur = strat[cur]
                else:
                    nxts = [w for w in sorted(g.arena.succ(cur))
                            if w in win]
                    # an adversary must stay in the region
                    assert nxts or g.arena.owner[cur] == i
                    cur = nxts[0]
            k = seen[cur]
            cyc_colors = [colors[u] for u in seq[k:]]
            assert min(cyc_colors) % 2 == 0


# ---------------------------------------------------------------------------
# Zielonka on int ids against the dict/set solver it replaced
# (tests/zielonka_reference.py)


@st.composite
def parity_arenas(draw):
    """(vertices, succ_map, protagonists, colours): 1-8 distinct string
    names in shuffled order, owners among 1-3 players, 1-3 successors per
    vertex in drawn order (repeats allowed), colours 0-3, and the vertices
    of a drawn coalition of players as the protagonist's."""
    names = draw(st.lists(st.text("abv0", min_size=1, max_size=3),
                          min_size=1, max_size=8, unique=True))
    players = PLAYERS[:draw(st.integers(1, 3))]
    owner = {v: draw(st.sampled_from(players)) for v in names}
    succ_map = {v: draw(st.lists(st.sampled_from(names), min_size=1,
                                 max_size=3)) for v in names}
    colors = {v: draw(st.integers(0, 3)) for v in names}
    coalition = draw(st.sets(st.sampled_from(players)))
    return (names, succ_map, {v for v in names if owner[v] in coalition},
            colors)


def _fig_ne_spe_case():
    fig = load_game("fig_ne_spe")
    arena = fig.arena
    return (list(arena.vertices),
            {v: list(arena.succ(v)) for v in arena.vertices},
            {v for v in arena.vertices if arena.owner[v] == "circle"},
            {v: fig.payoff.color("circle", v) for v in arena.vertices})


@settings(max_examples=150, deadline=None)
@given(parity_arenas())
@example(_fig_ne_spe_case())
def test_solve_parity_matches_reference(case):
    vertices, succ_map, protag, colors = case
    args = (vertices, succ_map, protag.__contains__, colors.__getitem__)
    assert ref.solve_parity_on_names(*args) == ref.solve_parity(*args)


def test_mp_values_inf_spe():
    inf = load_game("inf_spe")
    assert zs.mp_values(inf, "circle") == {"a": 1, "b": 1}
    sans = load_game("sans_spe")
    assert zs.mp_values(sans, "circle") == {"a": 1, "b": 1, "c": 1, "d": 2}
    assert zs.mp_values(sans, "square") == {"a": 1, "b": 2, "c": 1, "d": 2}


@st.composite
def mp_games(draw):
    """A mean-payoff game on 2-7 vertices with out-degree 1-3 (self-loops
    allowed) and 2-3 players; its rewards are all ints or a mix of
    denominators.  `mp_values` reads only the arena and the int weight
    view of the rewards, so vertices with no ingoing edge are kept: the
    game is not validated."""
    vertices = [f"v{k}" for k in range(draw(st.integers(2, 7)))]
    names = PLAYERS[:draw(st.integers(2, 3))]
    owner = {v: draw(st.sampled_from(names)) for v in vertices}
    edges = [(v, w) for v in vertices for w in draw(st.lists(
        st.sampled_from(vertices), min_size=1, max_size=3, unique=True))]
    if draw(st.booleans()):
        weight = st.integers(-2, 2)
    else:
        weight = st.builds(Fraction, st.integers(-6, 6),
                           st.sampled_from([1, 2, 3, 4, 5]))
    rewards = {e: {p: draw(weight) for p in names} for e in edges}
    return unvalidated_mp_game(names, vertices, owner, rewards)


def unvalidated_mp_game(names, vertices, owner, rewards):
    """What `mp_values` reads of a mean-payoff game on the edges that
    `rewards` keys, with no validation; the first vertex is the initial
    one."""
    arena = Arena(names, vertices, owner, list(rewards), init=vertices[0])
    payoff = PayoffSpec("mean-payoff", rewards=rewards)
    return types.SimpleNamespace(arena=arena, payoff=payoff,
                                 weights=int_weights(arena, payoff))


def side_counts(arena, player):
    """The positional strategies of `player` and of the rest: the products
    of out-degrees over the player's vertices and over the others'."""
    ours = math.prod(len(arena.succ(v)) for v in arena.vertices
                     if arena.owner[v] == player)
    theirs = math.prod(len(arena.succ(v)) for v in arena.vertices
                       if arena.owner[v] != player)
    return ours, theirs


@settings(max_examples=50, deadline=None)
@given(mp_games())
def test_mp_values_runs_one_scc_pass_per_strategy(game):
    """One Tarjan pass per positional strategy of the side with fewer, the
    player's own side on a tie: every pass sees that side's vertices with
    one move each."""
    arena = game.arena
    index = arena.graph.index
    real = K.scc
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(K, "scc", counted):
        for p in arena.players:
            calls.clear()
            zs.mp_values(game, p)
            ours, theirs = side_counts(arena, p)
            assert len(calls) == min(ours, theirs)
            fixed = [index[v] for v in arena.vertices
                     if (arena.owner[v] == p) == (ours <= theirs)]
            for _, off, _ in calls:
                assert all(off[k + 1] - off[k] == 1 for k in fixed)


@st.composite
def layered_mp_games(draw):
    """A mean-payoff game on 1-12 vertices in 1-4 layers of 1-3 vertices:
    a vertex's 1-3 successors lie in its own layer or earlier ones, so
    there are often several SCCs, and a one-vertex layer is a single-vertex
    SCC with or without a self-loop (a vertex alone in the first layer
    always has one).  2-3 players; the ownership leans towards one of them
    or towards none, so for each player either side may have the fewer
    positional strategies, or both as many.  Vertices are listed in a drawn
    order, so Tarjan's numbering does not follow the layers."""
    names = PLAYERS[:draw(st.integers(2, 3))]
    lean = draw(st.sampled_from([None] + names))
    owners = names if lean is None else [lean] * 3 + names
    vertices, layers = [], []
    for size in draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)):
        layers.append([f"v{len(vertices) + k}" for k in range(size)])
        vertices += layers[-1]
    edges, seen = [], []
    for layer in layers:
        seen += layer
        for v in layer:
            edges += [(v, w) for w in draw(st.lists(
                st.sampled_from(seen), min_size=1, max_size=3, unique=True))]
    owner = {v: draw(st.sampled_from(owners)) for v in vertices}
    if draw(st.booleans()):
        weight = st.integers(-3, 3)
    else:
        weight = st.builds(Fraction, st.integers(-6, 6),
                           st.sampled_from([1, 2, 3, 4]))
    rewards = {e: {p: draw(weight) for p in names} for e in edges}
    return unvalidated_mp_game(names, draw(st.permutations(vertices)),
                               owner, rewards)


def test_mp_values_and_karp_match_reference():
    """`mp_values` enumerates whichever side has fewer positional
    strategies; both sides must give the reference's values (which always
    enumerate the player's), and Karp the reference's least mean, on games
    with any shape and on layered ones with several SCCs and single-vertex
    ones.  The swapped side, and a tie where both sides have a choice, must
    each have run in a fixed minimum number of the checks."""
    sides = collections.Counter()

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(mp_games(), layered_mp_games()))
    @example(unvalidated_mp_game(  # two moves on each side, for either player
        PLAYERS[:2], ["a", "b"], {"a": "circle", "b": "square"},
        {(u, v): {"circle": Fraction(w), "square": Fraction(-w)}
         for (u, v), w in {("a", "a"): 1, ("a", "b"): 3, ("b", "a"): 0,
                           ("b", "b"): 2}.items()}))
    def check(game):
        arena = game.arena
        index, n = arena.graph.index, len(arena.vertices)
        denom, weights = game.weights
        for p in arena.players:
            ours, theirs = side_counts(arena, p)
            sides["swapped" if theirs < ours else
                  "tie" if theirs == ours > 1 else "own"] += 1
            assert zs.mp_values(game, p) == mp_ref.mp_values(game, p)
            edges = [(index[u], index[v], game.payoff.reward(p, u, v))
                     for u, v in arena.edges]
            iedges = [(index[u], index[v], weights[p][u, v])
                      for u, v in arena.edges]
            assert zs.karp_min_mean(n, iedges) / denom \
                == mp_ref.karp_min_mean(n, edges)

    check()
    assert sides["swapped"] >= 100 and sides["tie"] >= 10, sides
