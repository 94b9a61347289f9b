"""Graph kernels against naive definitions written out here, the
simple-path walker against the recursive enumerators it replaced, and an
arena's one int view (`Arena.graph`) with the zerosum helpers that read
it."""

import random

from hypothesis import given, settings, strategies as st

import path_walk_reference as ref
import xrse_support_reference as xref
from conftest import random_mp_game, random_parity_game, random_terminal_game
from equilibra import zerosum as zs
from equilibra._kernels import (IndexedGraph, attractor, csr, reach,
                                reachable, scc, scc_of, simple_paths)
from equilibra.cli import run
from equilibra.games import Arena
from equilibra.negotiation import _MpStructure
from equilibra.spe import _strongly_connected


graphs = st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=25),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.permutations(range(n))))


def closure(edges, sources, inside):
    """Everything reachable from `sources` in the subgraph on `inside`."""
    seen = set(sources) & inside
    while True:
        more = {v for u, v in edges if u in seen and v in inside} - seen
        if not more:
            return seen
        seen |= more


def bits(vs):
    """The int bitmask of a set of vertex ids."""
    return sum(1 << v for v in vs)


def least_attractor(n, edges, coalition, target):
    """Least fixed point of the one-step attractor operator, on the
    bitmasks `coalition` and `target`."""
    attr = target
    while True:
        more = 0
        for u in range(n):
            if attr >> u & 1:
                continue
            outs = [v for w, v in edges if w == u]
            if (any(attr >> v & 1 for v in outs) if coalition >> u & 1
                    else outs and all(attr >> v & 1 for v in outs)):
                more |= 1 << u
        if not more:
            return attr
        attr |= more


@settings(max_examples=150, deadline=None)
@given(graphs)
def test_kernels_match_naive_definitions(data):
    n, edges, coal, tgt, sub, perm = data
    everything = set(range(n))
    coalition = {v for v in range(n) if coal[v]}
    target = {v for v in range(n) if tgt[v]}
    off, dst = csr(n, edges)
    poff, psrc = csr(n, [(v, u) for u, v in edges])

    assert reachable(off, dst, bits(target)) == bits(
        closure(edges, target, everything))
    within = {v for v in range(n) if sub[v]}
    inner = [(u, v) for u, v in edges if u in within and v in within]
    for inside, arcs in ((everything, edges), (within, inner)):
        attracted = attractor(n, off, dst, poff, psrc, bits(coalition),
                              bits(target), bits(inside))
        assert attracted == least_attractor(n, arcs, bits(coalition),
                                            bits(target & inside))

    # same component iff mutually reachable; ids in reverse topological
    # order, so no edge runs from a lower id to a higher one
    comp, ncomp = scc(n, off, dst)
    reach_of = [closure(edges, {v}, everything) for v in range(n)]
    for u in range(n):
        for v in range(n):
            assert (comp[u] == comp[v]) == (v in reach_of[u]
                                            and u in reach_of[v])
    assert set(comp) == set(range(ncomp))
    assert all(comp[u] >= comp[v] for u, v in edges)

    # vertex-keyed forms: ids follow the caller's vertex order
    names = [f"v{perm[k]}" for k in range(n)]
    named = [(names[u], names[v]) for u, v in edges]
    assert scc_of(names, named) == (dict(zip(names, comp)), ncomp)
    succ = {names[u]: [names[v] for w, v in edges if w == u]
            for u in range(n)}
    assert reach(succ, [names[v] for v in target]) == {
        names[v] for v in closure(edges, target, everything)}
    assert reach(succ, [names[v] for v in target],
                 within={names[v] for v in within}) == {
        names[v] for v in closure(edges, target, within)}

    # strongly connected subsets: non-empty, every vertex keeps an inner
    # edge, all of it mutually reachable inside
    if within:
        allowed = {u: [v for w, v in edges if w == u] for u in range(n)}
        expect = (all(any(v in within for v in allowed[u]) for u in within)
                  and all(closure(edges, {u}, within) == within
                          for u in within))
        assert _strongly_connected(within, allowed) == expect


@settings(max_examples=150, deadline=None)
@given(graphs)
def test_masked_scc_is_scc_of_induced_subgraph(data):
    n, edges, _, _, sub, _ = data
    keep = [v for v in range(n) if sub[v]]
    inner = [(u, v) for u, v in edges if sub[u] and sub[v]]
    comp, ncomp = scc(n, *csr(n, edges), sum(1 << v for v in keep))
    want, nwant = scc_of(keep, inner)
    assert ncomp == nwant
    assert comp == [want[v] if sub[v] else -1 for v in range(n)]


@settings(max_examples=150, deadline=None)
@given(graphs)
def test_attractor_moves_are_a_winning_strategy(data):
    n, edges, coal, tgt, sub, _ = data
    coalition = bits(v for v in range(n) if coal[v])
    target = bits(v for v in range(n) if tgt[v])
    inside = bits(v for v in range(n) if sub[v])
    arcs = [(u, v) for u, v in edges if sub[u] and sub[v]]
    off, dst = csr(n, edges)
    poff, psrc = csr(n, [(v, u) for u, v in edges])
    moves = {}
    attracted = attractor(n, off, dst, poff, psrc, coalition, target,
                          inside, moves)
    assert attracted == attractor(n, off, dst, poff, psrc, coalition,
                                  target, inside)
    # every coalition vertex that joined, and no other, has a move...
    assert bits(moves) == attracted & coalition & ~target
    # ...along an edge of the sub-game into the attractor...
    assert all((u, x) in arcs and attracted >> x & 1
               for u, x in moves.items())
    # ...and held to those moves, no vertex needs a coalition choice to
    # be attracted
    held = [(u, v) for u, v in arcs if u not in moves or v == moves[u]]
    assert least_attractor(n, held, 0, target & inside) == attracted


def test_attractor_semantics():
    # a -> b -> c, target {c}; coalition owns a only
    n, edges = 3, [(0, 1), (1, 2), (1, 0), (2, 2)]
    off, dst = csr(n, edges)
    poff, psrc = csr(n, [(v, u) for u, v in edges])
    moves = {}
    res = attractor(n, off, dst, poff, psrc, 0b001, 0b100, 0b111, moves)
    # b is not coalition and has an edge to a (outside), so not attracted;
    # hence a cannot reach the target either
    assert res == 0b100 and moves == {}
    res = attractor(n, off, dst, poff, psrc, 0b011, 0b100, 0b111, moves)
    # b joins first, by its edge to c; then a, by its edge to b
    assert res == 0b111 and moves == {1: 2, 0: 1}
    # outside the sub-game {b, c}, a never joins
    moves = {}
    res = attractor(n, off, dst, poff, psrc, 0b011, 0b100, 0b110, moves)
    assert res == 0b110 and moves == {1: 2}


def test_scc_basic():
    n, edges = 5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 4)]
    off, dst = csr(n, edges)
    comp, ncomp = scc(n, off, dst)
    assert ncomp == 3
    assert comp[0] == comp[1] and comp[2] == comp[3]
    assert len({comp[0], comp[2], comp[4]}) == 3


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32).map(random.Random), st.integers(2, 6),
       st.integers(1, 3), st.booleans())
def test_path_walks_match_recursive_reference(rng, n, max_deg, parity):
    game = (random_parity_game(rng, n=n, max_deg=max_deg) if parity
            else random_mp_game(rng, n=n, max_deg=max_deg))
    arena = game.arena
    nv = len(arena.vertices)
    for u in arena.vertices:
        assert list(simple_paths(arena.succ, u)) == ref._simple_paths_from(
            arena, u, nv)
    assert zs.simple_cycles(arena.vertices, arena.succ) == ref.simple_cycles(
        arena.vertices, arena.succ)
    structure = _MpStructure(game)
    exits = {c[-1] for c in structure.cycles}
    for W0 in structure.sc_subsets:
        def inner(u):
            return [w for w in arena.succ(u) if w in W0]
        assert zs.simple_cycles(W0, inner) == ref.simple_cycles(W0, inner)
        # the paths `nash.search_consistent_combo` reads
        assert [p for p in simple_paths(arena.succ, arena.init, W0)
                if p[-1] in W0] == list(ref._paths_into(arena, arena.init, W0))
        for last in exits:
            assert structure.connectors(last, W0) == ref._connectors(
                arena, set(arena.succ(last)), W0, nv)


def test_simple_paths_stop_and_order():
    succ = {"a": ["c", "b"], "b": ["a", "c"], "c": ["b", "a"]}.__getitem__
    assert list(simple_paths(succ, "a")) == [
        ("a",), ("a", "b"), ("a", "b", "c"), ("a", "c"), ("a", "c", "b")]
    # a stop vertex ends its path, the start one included
    assert list(simple_paths(succ, "a", {"b"})) == [
        ("a",), ("a", "b"), ("a", "c"), ("a", "c", "b")]
    assert list(simple_paths(succ, "a", {"a"})) == [("a",)]


# ---------------------------------------------------------------------------
# the arena's one int view, the zerosum helpers that read it, and a guard
# against numbering an arena's vertices a second time

SEEDED = st.integers(0, 2 ** 32 - 1).map(random.Random)
GAMES = (SEEDED.map(lambda rng: random_terminal_game(rng, n=6))
         | SEEDED.map(lambda rng: random_parity_game(rng, n=6, players=3))
         | SEEDED.map(lambda rng: random_mp_game(rng, n=6)))


@settings(max_examples=150, deadline=None)
@given(GAMES, st.data())
def test_arena_view_is_a_fresh_index_of_the_arena(game, data):
    arena = game.arena
    g = arena.graph
    fresh = IndexedGraph(arena.vertices, arena.edges)
    assert g.vertices == fresh.vertices == arena.vertices
    assert g.index == fresh.index == {v: k for k, v
                                      in enumerate(arena.vertices)}
    assert (g.off, g.dst, g.poff) == (fresh.off, fresh.dst, fresh.poff)
    for k, v in enumerate(arena.vertices):
        # successors in `succ` order, predecessors as a multiset
        assert [g.vertices[x] for x in g.dst[g.off[k]:g.off[k + 1]]] == \
            arena.succ(v)
        want = sorted(g.index[u] for u, w in arena.edges if w == v)
        assert sorted(g.psrc[g.poff[k]:g.poff[k + 1]]) == want
        assert sorted(fresh.psrc[fresh.poff[k]:fresh.poff[k + 1]]) == want
    vs = {v for v in arena.vertices if data.draw(st.booleans())}
    assert g.unmask(g.mask(vs)) == vs
    m = data.draw(st.integers(0, (1 << g.n) - 1))
    assert g.mask(g.unmask(m)) == m


def draw_edge_subset(draw, arena):
    """None, a sub-list or sub-set of the arena's edges, or all of them
    shuffled (as long as the arena's list, so the view's own arrays
    serve)."""
    kind = draw(st.sampled_from(["none", "list", "set", "all"]))
    if kind == "none":
        return None
    if kind == "all":
        return draw(st.permutations(arena.edges))
    edges = [e for e in arena.edges if draw(st.booleans())]
    return set(edges) if kind == "set" else edges


@settings(max_examples=200, deadline=None)
@given(GAMES, st.data())
def test_arena_helpers_on_edge_subsets_match_naive(game, data):
    draw = data.draw
    arena = game.arena
    names = arena.vertices
    n = len(names)
    index = {v: k for k, v in enumerate(names)}
    edge_subset = draw_edge_subset(draw, arena)
    edges = [(index[u], index[v]) for u, v in
             (arena.edges if edge_subset is None else edge_subset)]

    def named(ks):
        return {names[k] for k in ks}

    def some(items):
        return {x for x in items if draw(st.booleans())}

    labels = some(set(arena.owner.values()))
    target = some(names)
    coal = bits(index[v] for v in names if arena.owner[v] in labels)
    want = least_attractor(n, edges, coal, bits(index[v] for v in target))
    assert zs.attractor(arena, labels, target, edge_subset) == named(
        v for v in range(n) if want >> v & 1)
    assert zs.reachable_from(arena, target, edge_subset) == named(
        closure(edges, {index[v] for v in target}, set(range(n))))
    protags = some(arena.players)
    adversaries = some(set(arena.players) - protags)
    assert zs.almost_sure_reach_game(
        arena, protags, adversaries, target, edge_subset) == \
        xref.almost_sure_reach_game(arena, protags, adversaries, target,
                                    edge_subset)
    if game.mode == "terminal" and edge_subset is not None:
        # keep an edge out of every inner vertex, so none is starved
        kept = set(edge_subset) | {(u, arena.succ(u)[0]) for u in names
                                   if not arena.is_terminal(u)}
        chance = bits(index[v] for v in names if arena.is_chance(v))
        want = least_attractor(n, [(index[u], index[v]) for u, v in kept],
                               chance, bits(index[v] for v in target))
        assert zs.positive_prob_attractor(game, target, kept) == named(
            v for v in range(n) if want >> v & 1)


def test_no_arena_is_indexed_twice(monkeypatch, capsys):
    # the view `Arena.__init__` builds is the only index of each arena:
    # every other `IndexedGraph` is over some other vertex set
    arenas, graphs = [], []
    arena_init, graph_init = Arena.__init__, IndexedGraph.__init__

    def spied_arena(self, *args, **kwargs):
        arena_init(self, *args, **kwargs)
        arenas.append(self)

    def spied_graph(self, *args, **kwargs):
        graph_init(self, *args, **kwargs)
        graphs.append(self)

    monkeypatch.setattr(Arena, "__init__", spied_arena)
    monkeypatch.setattr(IndexedGraph, "__init__", spied_graph)
    for argv in (["xrse-exists", "ex_extreme3", "--pessimists", "all"],
                 ["xrse-constrained", "lottery"],
                 ["nego-iterate", "fig_first_example"]):
        arenas.clear()
        graphs.clear()
        assert run(argv) == 0, argv
        capsys.readouterr()
        assert arenas, argv
        for arena in arenas:
            same = [g for g in graphs
                    if set(g.vertices) == set(arena.vertices)]
            assert same == [arena.graph], argv
