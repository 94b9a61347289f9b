import itertools
import random
import sys
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import assume, example, given, settings, strategies as st

import parity_region_reference as ref
import parity_value_reference
import zielonka_reference

from equilibra import _kernels as K, zerosum as zs
from equilibra.corpus import load_game
from equilibra.games import (GameError, Lasso, Arena, PayoffSpec, Game,
                             parse_game, serialize_game)
from equilibra.negotiation import (vacuous_requirement, nego, nego_parity,
                                   nego_iterate, is_eps_fixed_point,
                                   is_lambda_consistent,
                                   parity_feasible_region, _feasible_round,
                                   _solve_game1)
from equilibra import negotiation
from equilibra.nash import Query, search_consistent_parity, val_requirement
from equilibra.rationals import PINF, NINF
from conftest import PLAYERS, random_parity_game
from concrete_nego import build_concrete_nego


def test_vacuous():
    fig = load_game("fig_ne_spe")
    lam0 = vacuous_requirement(fig)
    assert all(x is NINF for x in lam0.values())
    rng = random.Random(0)
    for _ in range(10):
        pre = rng.choice(["a", "a,b"])
        cyc = rng.choice(["b", "c", "a"])
        try:
            l = Lasso.parse(f"{pre};{cyc}")
            l.validate(fig.arena)
        except GameError:
            continue
        assert is_lambda_consistent(fig, lam0, l)


def test_consistency_examples():
    fig = load_game("fig_ne_spe")
    lam1 = {"a": Fraction(0), "b": Fraction(1), "c": Fraction(1)}
    assert is_lambda_consistent(fig, lam1, Lasso(["a", "b"], ["c"]))
    assert not is_lambda_consistent(fig, lam1, Lasso(["a"], ["b"]))


def test_fig_iterates():
    fig = load_game("fig_ne_spe")
    seq, conv = nego_iterate(fig)
    assert conv
    lam1, lam2 = seq[1], seq[2]
    assert lam1 == {"a": Fraction(0), "b": Fraction(1), "c": Fraction(1)}
    assert lam2 == {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)}
    assert seq[3] == lam2 and len(seq) == 4


def test_first_iterate_is_val():
    rng = random.Random(21)
    for _ in range(30):
        g = random_parity_game(rng, n=4, players=2, max_color=2)
        lam1 = nego_parity(g, vacuous_requirement(g))
        assert lam1 == val_requirement(g), (g.arena.edges, g.payoff.colors)


def test_monotone_nondecreasing():
    rng = random.Random(22)
    for _ in range(15):
        g = random_parity_game(rng, n=4, players=2, max_color=2)
        verts = g.arena.vertices
        lam = {v: rng.choice([NINF, Fraction(0), Fraction(1)])
               for v in verts}
        lam2 = {v: max(lam[v], rng.choice([NINF, Fraction(0), Fraction(1)]))
                for v in verts}
        n1 = nego_parity(g, lam)
        n2 = nego_parity(g, lam2)
        for v in verts:
            assert n1[v] <= n2[v]
            assert lam[v] <= n1[v]


def test_non_boolean_rejected():
    fig = load_game("fig_ne_spe")
    lam = vacuous_requirement(fig)
    lam["a"] = Fraction(1, 2)
    with pytest.raises(GameError, match="Boolean"):
        nego_parity(fig, lam)


def test_consistent_lasso_implies_finite():
    # sound direction of the feasibility characterization
    rng = random.Random(23)
    for _ in range(15):
        g = random_parity_game(rng, n=3, players=2, max_color=2)
        lam = {v: rng.choice([Fraction(0), Fraction(1)])
               for v in g.arena.vertices}
        out = nego_parity(g, lam)
        for v in g.arena.vertices:
            if out[v] != PINF:
                continue
            # +inf: no lambda-consistent lasso may survive the deviation
            # closure; in particular consistency plus closure must fail
            S = parity_feasible_region(g, lam, g.arena.owner[v])
            assert v not in S


def deviation_robust_game():
    arena = Arena(["circle"], ["v", "w"], {"v": "circle", "w": "circle"},
                  [("v", "v"), ("v", "w"), ("w", "w")], init="v")
    game = Game(arena, PayoffSpec("parity", colors={
        "v": {"circle": 0}, "w": {"circle": 1}}))
    return game, {"v": Fraction(0), "w": Fraction(1)}


def test_deviation_robust_infinity():
    # a consistent lasso exists from v, yet nego is +inf because the
    # controller's deviation leads somewhere with no consistent play
    game, lam = deviation_robust_game()
    assert is_lambda_consistent(game, lam, Lasso([], ["v"]))
    out = nego_parity(game, lam)
    assert out["v"] is PINF and out["w"] is PINF


def test_concrete_arena_fig():
    fig = load_game("fig_ne_spe")
    lam1 = {"a": Fraction(0), "b": Fraction(1), "c": Fraction(1)}
    conc = build_concrete_nego(fig, lam1, "circle", "a", memory="vertices")
    # reachable fragment: 5 Prover and 8 Challenger vertices
    provers = [v for v in conc["vertices"] if v[0] == "P"]
    challengers = [v for v in conc["vertices"] if v[0] == "C"]
    assert len(provers) == 5 and len(challengers) == 8
    kinds = {k for (_, _, k) in conc["edges"]}
    assert kinds == {"proposal", "acceptation", "deviation"}
    compressed = build_concrete_nego(fig, lam1, "circle", "a",
                                     memory="players")
    assert len(compressed["vertices"]) < len(conc["vertices"])


def oracle_nego_value(game, lam, i, v0):
    """Stationary-Challenger brute force on the compressed concrete arena."""
    S = parity_feasible_region(game, lam, i)
    if v0 not in S:
        return PINF
    states, edges, roots = ref._build_game1_arena(game, lam, i, S)
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    chooser = [s for s in states if s[0] == "C" and len(succ[s]) > 1]
    options = [succ[s] for s in chooser]
    best = Fraction(0)
    prover_wins = False
    for combo in itertools.product(*options) if chooser else [()]:
        fixed = dict(zip(chooser, combo))
        # induced one-player graph: Prover picks the play
        def moves(s):
            if s in fixed:
                return [fixed[s]]
            return succ[s]
        # search a reachable cycle where challenger loses
        escape = _prover_escape(game, lam, i, roots[v0], moves)
        if not escape:
            return Fraction(1)
    return Fraction(0)


def _prover_escape(game, lam, i, root, moves):
    """Does Prover have a play with min color odd for i and either
    infinitely many deviations or a satisfied limit memory?"""
    nodes = set()
    stack = [root]
    while stack:
        s = stack.pop()
        if s in nodes:
            continue
        nodes.add(s)
        for t in moves(s):
            stack.append(t)
    nodes = sorted(nodes, key=str)
    for size in range(1, len(nodes) + 1):
        for C in itertools.combinations(nodes, size):
            Cset = set(C)
            inner = {s: [t for t in moves(s) if t in Cset] for s in Cset}
            if any(not outs for outs in inner.values()):
                continue
            if not _scc_whole(Cset, inner):
                continue
            pverts = [s for s in Cset if s[0] == "P"]
            if not pverts:
                continue
            mincol_i = min(game.payoff.color(i, s[1]) for s in pverts)
            if mincol_i % 2 == 0:
                continue
            has_dev = any(s[0] == "D" for s in Cset)
            if not has_dev:
                M = pverts[0][2]
                bad = False
                for j in M:
                    mc = min(game.payoff.color(j, s[1]) for s in pverts)
                    if mc % 2 == 1:
                        bad = True
                        break
                if bad:
                    continue
            if _reaches(root, Cset, moves):
                return True  # a play on which challenger loses
    return False


def _scc_whole(Cset, inner):
    start = next(iter(Cset))
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for t in inner[s]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    if seen != Cset:
        return False
    rev = {s: [] for s in Cset}
    for s in Cset:
        for t in inner[s]:
            rev[t].append(s)
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for t in rev[s]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen == Cset


def _reaches(root, Cset, moves):
    seen = {root}
    stack = [root]
    while stack:
        s = stack.pop()
        if s in Cset:
            return True
        for t in moves(s):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return False


def test_oracle_agreement_tiny():
    fig = load_game("fig_ne_spe")
    lam0 = vacuous_requirement(fig)
    lam1 = {"a": Fraction(0), "b": Fraction(1), "c": Fraction(1)}
    for lam in (lam0, lam1):
        got = nego_parity(fig, lam)
        for v in fig.arena.vertices:
            want = oracle_nego_value(fig, lam, fig.arena.owner[v], v)
            assert got[v] == want, (lam, v, got[v], want)
    rng = random.Random(31)
    for _ in range(6):
        g = random_parity_game(rng, n=3, players=2, max_color=1)
        lam = {v: rng.choice([NINF, Fraction(0), Fraction(1)])
               for v in g.arena.vertices}
        got = nego_parity(g, lam)
        for v in g.arena.vertices:
            want = oracle_nego_value(g, lam, g.arena.owner[v], v)
            assert got[v] == want, (g.arena.edges, g.payoff.colors, lam, v)


def test_all_ones_requirement_unwinnable():
    # lam = 1 everywhere while some owner cannot win anywhere: +inf there
    arena = Arena(["circle", "square"], ["u", "w"],
                  {"u": "circle", "w": "square"},
                  [("u", "w"), ("w", "u"), ("w", "w")], init="u")
    game = Game(arena, PayoffSpec("parity", colors={
        "u": {"circle": 1, "square": 0},
        "w": {"circle": 1, "square": 0}}))
    lam = {"u": Fraction(1), "w": Fraction(1)}
    out = nego_parity(game, lam)
    assert out["u"] is PINF  # circle cannot reach payoff 1 at all


def test_three_player_first_iterate():
    rng = random.Random(200)
    for _ in range(8):
        g = random_parity_game(rng, n=4, players=3, max_color=2)
        lam1 = nego_parity(g, vacuous_requirement(g))
        assert lam1 == val_requirement_local(g)


def val_requirement_local(game):
    from equilibra.nash import val_requirement
    return val_requirement(game)


# ---------------------------------------------------------------------------
# the colour-tuple SCC search against the subset enumeration it replaced
# (tests/parity_region_reference.py)

REQUIREMENTS = [NINF, Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1),
                Fraction(2), PINF]
THRESHOLDS = [None, Fraction(0), Fraction(1, 2), Fraction(1)]


@st.composite
def parity_cases(draw):
    """(game, lam, player, S, query): a parity game with 1-3 players,
    colours 0-3 and shuffled vertex and edge orders, a requirement that
    need not be Boolean, one of its players, a vertex subset and payoff
    thresholds."""
    players = PLAYERS[:draw(st.integers(1, 3))]
    n = draw(st.integers(1, 5))
    vertices = draw(st.permutations([f"v{k}" for k in range(n)]))
    owner = {v: draw(st.sampled_from(players)) for v in vertices}
    edges = {(v, w) for v in vertices
             for w in draw(st.sets(st.sampled_from(vertices), min_size=1,
                                   max_size=3))}
    for v in vertices[1:]:
        if all(w != v for _, w in edges):
            edges.add((draw(st.sampled_from(vertices)), v))
    edges = draw(st.permutations(sorted(edges)))
    colors = {v: {p: draw(st.integers(0, 3)) for p in players}
              for v in vertices}
    arena = Arena(players, vertices, owner, edges, init=vertices[0])
    game = Game(arena, PayoffSpec("parity", colors=colors))
    lam = {v: draw(st.sampled_from(REQUIREMENTS)) for v in vertices}
    S = {v for v in vertices if draw(st.booleans())}
    lower, upper = {}, {}
    for p in players:
        for bound in (lower, upper):
            x = draw(st.sampled_from(THRESHOLDS))
            if x is not None:
                bound[p] = x
    return game, lam, draw(st.sampled_from(players)), S, Query(lower, upper)


DEVIATION_ROBUST = deviation_robust_game() + ("circle", {"v"}, Query())


def constraints(game, lam):
    """The requirement as the region rounds and concrete game read it."""
    return negotiation._parity_structure(game).constraints(lam)


@settings(max_examples=300, deadline=None)
@given(parity_cases())
@example(DEVIATION_ROBUST)
def test_feasible_region_matches_subset_enumeration(case):
    game, lam, i, S, _ = case
    g = game.arena.graph
    assert parity_feasible_region(game, lam, i) == \
        ref.parity_feasible_region(game, lam, i)
    assert g.unmask(_feasible_round(game, constraints(game, lam), i,
                                    g.mask(S))) == {
        v for v in S if ref._exists_consistent_play(game, lam, i, v, S)}


@settings(max_examples=300, deadline=None)
@given(parity_cases())
@example(DEVIATION_ROBUST)
def test_consistent_parity_search_matches_reference(case):
    game, lam, _, _, query = case
    got = search_consistent_parity(game, lam, query)
    assert got == ref.search_consistent_parity(game, lam, query)
    if got is not None:
        assert is_lambda_consistent(game, lam, got)


# ---------------------------------------------------------------------------
# parity negotiation with the dict/set Zielonka solver it replaced
# (tests/zielonka_reference.py)

BOOLEAN_REQUIREMENTS = [NINF, Fraction(0), Fraction(1), PINF]


@settings(max_examples=50, deadline=None)
@given(parity_cases(), st.data())
def test_nego_parity_matches_reference_zielonka(case, data):
    game = case[0]
    lam = {v: data.draw(st.sampled_from(BOOLEAN_REQUIREMENTS))
           for v in game.arena.vertices}
    got = nego_parity(game, lam)
    solve = zs.solve_parity

    def reference(vertices, off, dst, poff, psrc, is_protag, color):
        succ = {u: dst[off[u]:off[u + 1]] for u in vertices}
        want = zielonka_reference.solve_parity(vertices, succ, is_protag,
                                               color)
        want = (*[sum(1 << v for v in w) for w in want[:2]], *want[2:])
        assert solve(vertices, off, dst, poff, psrc, is_protag,
                     color)[:2] == want[:2]
        # with the predecessors in the reference's order, the strategies
        # are the reference's too
        pred = K.csr(len(vertices), [(w, u) for u in vertices
                                     for w in succ[u]])
        assert solve(vertices, off, dst, *pred, is_protag, color) == want
        return want

    with mock.patch.object(zs, "solve_parity", reference):
        assert nego_parity(game, lam) == got


# ---------------------------------------------------------------------------
# the one walk of `_solve_game1` over int ids against the three passes over
# tuple states it replaced (tests/parity_region_reference.py).  The walk
# starts only from the constrained player's vertices, the only ones whose
# winners `nego_parity` reads, so winners are compared there.


@settings(max_examples=100, deadline=None)
@given(parity_cases(), st.data())
def test_solve_game1_matches_reference(case, data):
    game = case[0]
    lam = {v: data.draw(st.sampled_from(BOOLEAN_REQUIREMENTS))
           for v in game.arena.vertices}
    con = constraints(game, lam)
    g = game.arena.graph
    for i in game.players:
        S = parity_feasible_region(game, lam, i)
        mine = {v for v in S if game.arena.owner[v] == i}
        assert g.unmask(_solve_game1(game, con, i, g.mask(S))) == \
            ref._solve_game1(game, lam, i, S) & mine
    got = nego_parity(game, lam)

    def reference(game, con, i, inS):
        return g.mask(ref._solve_game1(game, lam, i, g.unmask(inS)))

    with mock.patch.object(negotiation, "_solve_game1", reference):
        assert nego_parity(game, lam) == got


def guard_games():
    rng = random.Random(41)
    games = [load_game("fig_ne_spe"), deviation_robust_game()[0]]
    games += [random_parity_game(rng, n=5, players=2, max_color=3)
              for _ in range(6)]
    for game in games:
        for k in range(3):
            lam = {v: rng.choice([NINF, Fraction(0), Fraction(1)])
                   for v in game.arena.vertices}
            for i in game.players:
                yield game, lam, i, parity_feasible_region(game, lam, i)


def test_parity_constraint_read_once_per_vertex():
    # once per call of `nego_parity`, for every player's region rounds
    # and concrete game
    calls = mock.Mock(wraps=negotiation._parity_constraint)
    most = 0
    with mock.patch.object(negotiation, "_parity_constraint", calls):
        for game, lam, i, S in guard_games():
            calls.reset_mock()
            nego_parity(game, lam)
            assert calls.call_count <= len(game.arena.vertices)
            most = max(most, calls.call_count)
    assert most > 0


def test_solve_parity_gets_int_ids():
    solve = zs.solve_parity
    sizes = []

    def spy(vertices, off, dst, poff, psrc, is_protag, color):
        n = len(vertices)
        assert list(vertices) == list(range(n))
        assert len(off) == len(poff) == n + 1
        assert off[n] == poff[n] == len(dst) == len(psrc)
        assert all(type(w) is int and 0 <= w < n for w in dst)
        # the predecessor CSR holds the successor CSR's edges reversed
        edges = [(u, w) for u in vertices for w in dst[off[u]:off[u + 1]]]
        assert sorted(edges) == sorted(
            (u, w) for w in vertices for u in psrc[poff[w]:poff[w + 1]])
        sizes.append(n)
        return solve(vertices, off, dst, poff, psrc, is_protag, color)

    with mock.patch.object(zs, "solve_parity", spy):
        for game, lam, i, S in guard_games():
            _solve_game1(game, constraints(game, lam), i,
                         game.arena.graph.mask(S))
    assert sizes and max(sizes) > 1


def test_sink_alone_is_won_without_a_solve():
    # every root inside the constrained player's own winning region: the
    # concrete game is the sink alone, and no product is solved
    sunk = 0
    for game, lam, i, S in guard_games():
        ps = negotiation._parity_structure(game)
        won = ps.won(list(game.players).index(i))  # solved before the spy
        mine = {v for v in S if game.arena.owner[v] == i}
        index = game.arena.graph.index
        if not mine or any(not won >> index[v] & 1 for v in mine):
            continue
        sunk += 1
        with mock.patch.object(zs, "solve_parity",
                               side_effect=AssertionError("solved")):
            got = _solve_game1(game, constraints(game, lam), i,
                               game.arena.graph.mask(S))
        assert game.arena.graph.unmask(got) == mine == \
            ref._solve_game1(game, lam, i, S) & mine
    assert sunk > 0


# ---------------------------------------------------------------------------
# a requirement that demands nothing: `nego` answers it from the adversarial
# values, with no region or concrete game, against `nego_parity`'s general
# path and the full path of the reference


def full_nego_parity(game, lam):
    """nego_parity through the reference feasible region and concrete game
    solve, with no shortcut."""
    out = {}
    for i in game.players:
        S = ref.parity_feasible_region(game, lam, i)
        winners = ref._solve_game1(game, lam, i, S)
        for v in game.arena.vertices:
            if game.arena.owner[v] == i:
                out[v] = (PINF if v not in S
                          else Fraction(1) if v in winners else Fraction(0))
    return out


@settings(max_examples=100, deadline=None)
@given(parity_cases(), st.data())
def test_nothing_demanded_matches_full_path(case, data):
    game = case[0]
    lam = {v: data.draw(st.sampled_from([NINF, Fraction(0)]))
           for v in game.arena.vertices}
    want = full_nego_parity(game, lam)
    assert nego(game, lam) == want
    assert nego_parity(parse_game(serialize_game(game)), lam) == want


def test_nothing_demanded_matches_full_path_three_players():
    rng = random.Random(43)
    for _ in range(8):
        g = random_parity_game(rng, n=5, players=3, max_color=3)
        lam = {v: rng.choice([NINF, Fraction(0)]) for v in g.arena.vertices}
        want = full_nego_parity(g, lam)
        assert nego(g, lam) == want
        assert nego_parity(parse_game(serialize_game(g)), lam) == want


def test_nothing_demanded_matches_general_path_on_corpus():
    for name in ("fig_ne_spe", "fig_first_example"):
        game = load_game(name)
        lam = vacuous_requirement(game)
        assert nego(game, lam) == nego_parity(
            parse_game(serialize_game(game)), lam), name


def test_nothing_demanded_builds_no_region_or_game():
    # the shortcut lives in `nego`; `nego_parity` runs its general path
    fig = load_game("fig_ne_spe")
    game = deviation_robust_game()[0]
    nothing = [(fig, vacuous_requirement(fig)),
               (fig, {"a": Fraction(0), "b": NINF, "c": Fraction(0)}),
               (game, {"v": Fraction(0), "w": Fraction(0)})]
    one = [(fig, {"a": Fraction(0), "b": NINF, "c": Fraction(1)}),
           (game, {"v": NINF, "w": Fraction(1)})]
    region = mock.Mock(wraps=negotiation._feasible_round)
    solve = mock.Mock(wraps=negotiation._solve_game1)
    with mock.patch.object(negotiation, "_feasible_round", region), \
            mock.patch.object(negotiation, "_solve_game1", solve):
        for g, lam in nothing:
            nego(g, lam)
            assert not region.called and not solve.called, lam
        for apply, cases in ((nego, one), (nego_parity, nothing)):
            for g, lam in cases:
                region.reset_mock()
                solve.reset_mock()
                apply(g, lam)
                assert region.called and solve.called, lam


# ---------------------------------------------------------------------------
# Challenger states only where the Challenger has a choice


def test_concrete_game_contests_only_own_proposals():
    # and every proposal inside i's own winning region is the one sink
    own = sunk = 0
    for game, lam, i, S in guard_games():
        if not S:
            continue
        ps = negotiation._parity_structure(game)
        g = game.arena.graph
        owner, off, dst = ps.owner, g.off, g.dst
        me = list(game.players).index(i)
        won = ps.won(me)
        inS = g.mask(S)
        con = constraints(game, lam)
        constr = [1 << o if c == 1 else 0 for c, o in zip(con, owner)]
        states, succ, roots = negotiation._concrete_game1(game, con, i, inS)

        def proposal(x, M):
            """What a move to x with activation M must reach."""
            if won >> x & 1:
                return negotiation._SINK
            return ("P", x, M)

        # a root for each of i's vertices in the region, in id order
        assert list(roots) == [x for x in K.ids(inS) if owner[x] == me]
        for x, r in roots.items():
            assert states[r] == proposal(x, constr[x]), x
        for k, (s, outs) in enumerate(zip(states, succ)):
            got = [states[t] for t in outs]
            if s == negotiation._SINK:
                assert outs == [k]
                sunk += 1
            elif s[0] == "C":
                _, v, x, M = s
                assert owner[v] == me, s
                assert got[0] == proposal(x, M | constr[x]), s
                assert all(t[0] == "D" for t in got[1:]), s
            elif s[0] == "D":
                assert got == [proposal(s[1], constr[s[1]])], s
            else:
                _, v, M = s
                assert s[0] == "P" and not won >> v & 1, s
                if owner[v] == me:
                    # i's proposals go to the Challenger
                    assert all(t[0] == "C" for t in got), s
                    own += 1
                else:
                    # the others' go straight on, to a P state or the sink
                    assert got == [proposal(x, M | constr[x])
                                   for x in dst[off[v]:off[v + 1]]
                                   if inS >> x & 1], s
    assert own > 0 and sunk > 0


# ---------------------------------------------------------------------------
# each player's own winning region, solved once per game object


@settings(max_examples=150, deadline=None)
@given(parity_cases())
def test_won_matches_reference_zielonka_and_parity_value(case):
    game = case[0]
    assume(len(game.players) >= 2)
    ps = negotiation._parity_structure(game)
    arena = game.arena
    succ = {v: list(arena.succ(v)) for v in arena.vertices}
    for me, i in enumerate(game.players):
        got = arena.graph.unmask(ps.won(me))
        w0, _, _, _ = zielonka_reference.solve_parity(
            arena.vertices, succ, lambda v: arena.owner[v] == i,
            lambda v: game.payoff.color(i, v))
        assert got == w0
        values = parity_value_reference.parity_value(game, i)
        assert got == {v for v, x in values.items() if x == 1}
    assert val_requirement(game) == {
        v: parity_value_reference.parity_value(game, arena.owner[v])[v]
        for v in arena.vertices}


def test_won_solved_once_per_player_and_never_proposed_into():
    solve = zs.solve_parity
    concrete = negotiation._concrete_game1
    solved, proposals = [], []

    def spy(*args):
        if sys._getframe(1).f_code.co_name == "won":
            solved.append(len(args[0]))
        return solve(*args)

    def checked(game, con, i, S):
        states, succ, roots = concrete(game, con, i, S)
        ps = negotiation._parity_structure(game)
        won = ps.won(list(game.players).index(i))
        for s in states:
            if s[0] == "P":
                assert not won >> s[1] & 1, s
                proposals.append(s)
        return states, succ, roots

    rng = random.Random(46)
    bases = [load_game("fig_ne_spe"), deviation_robust_game()[0]]
    bases += [random_parity_game(rng, n=6, players=3, max_color=3)
              for _ in range(6)]
    with mock.patch.object(zs, "solve_parity", spy), \
            mock.patch.object(negotiation, "_concrete_game1", checked):
        for base in bases:
            # a fresh game object, so its structure is built in the call
            game = Game(base.arena, base.payoff)
            owners = {game.arena.owner[v] for v in game.arena.vertices}
            del solved[:]
            nego_iterate(game)
            nego_iterate(game)
            # on the whole arena, once per player that owns a vertex
            assert solved == [len(game.arena.vertices)] * len(owners)
    assert proposals


def test_won_hands_zielonka_the_views_own_csr():
    # no CSR and no index is built to solve a player's own winning region
    rng = random.Random(47)
    games = [load_game("fig_ne_spe"), deviation_robust_game()[0]]
    games += [random_parity_game(rng, n=6, players=3, max_color=3)
              for _ in range(4)]
    solve = mock.Mock(wraps=zs.solve_parity)
    csr = mock.Mock(wraps=K.csr)
    index = mock.Mock(wraps=K.IndexedGraph.__init__)
    for game in games:
        ps = negotiation._ParityStructure(game)
        g = game.arena.graph
        solve.reset_mock()
        with mock.patch.object(zs, "solve_parity", solve), \
                mock.patch.object(K, "csr", csr), \
                mock.patch.object(negotiation, "csr", csr), \
                mock.patch.object(K.IndexedGraph, "__init__", index):
            regions = [ps.won(me) for me in range(len(ps.players))]
        assert csr.call_count == 0 and index.call_count == 0
        assert solve.call_count == len(ps.players)
        for args in solve.call_args_list:
            assert args.args[1:5] == (g.off, g.dst, g.poff, g.psrc)
        for i, region in zip(ps.players, regions):
            values = parity_value_reference.parity_value(game, i)
            assert g.unmask(region) == {v for v, x in values.items()
                                        if x == 1}


# ---------------------------------------------------------------------------
# colours come from one per-game structure


def test_colour_read_once_per_vertex_and_player():
    rng = random.Random(44)
    bases = [load_game("fig_ne_spe"), deviation_robust_game()[0]]
    bases += [random_parity_game(rng, n=5, players=3, max_color=3)
              for _ in range(4)]
    reads = 0
    for base in bases:
        for k in range(3):
            # a fresh game object, so its structure is built in the call
            game = Game(base.arena, base.payoff)
            lam = {v: rng.choice([NINF, Fraction(0), Fraction(1)])
                   for v in game.arena.vertices}
            if k == 0:
                lam = vacuous_requirement(game)
            color = mock.Mock(wraps=game.payoff.color)
            with mock.patch.object(game.payoff, "color", color):
                nego_parity(game, lam)
            counts = {}
            for args, _ in color.call_args_list:
                counts[args] = counts.get(args, 0) + 1
            assert max(counts.values(), default=0) <= 1, (lam, counts)
            reads += len(counts)
    assert reads > 0


def test_chance_vertex_is_an_error_not_a_key_error():
    arena = Arena(["circle", "square"], ["u", "c", "w"],
                  {"u": "circle", "c": "chance", "w": "square"},
                  [("u", "c"), ("c", "u"), ("c", "w"), ("w", "u")],
                  chance_prob={("c", "u"): Fraction(1, 2),
                               ("c", "w"): Fraction(1, 2)}, init="u")
    game = Game(arena, PayoffSpec("parity", colors={
        v: {"circle": k, "square": k + 1} for k, v in enumerate("ucw")}))
    for lam in (vacuous_requirement(game),
                {"u": NINF, "c": Fraction(1), "w": Fraction(0)}):
        with pytest.raises(GameError, match="chance-free"):
            nego_parity(game, lam)
    with pytest.raises(GameError, match="chance-free"):
        search_consistent_parity(game, vacuous_requirement(game), Query())
