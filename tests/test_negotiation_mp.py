import contextlib
import gc
import io
import math
import random
import weakref

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

import mp_pool_reference as ref
import mp_values_reference as mp_ref

from equilibra import negotiation
from equilibra import zerosum as zs
from equilibra.cli import run
from equilibra.corpus import load_game
from equilibra.games import (Arena, Game, GameError, PayoffSpec, parse_game,
                             serialize_game)
from equilibra.negotiation import (vacuous_requirement, nego, nego_mp,
                                   nego_iterate, is_eps_fixed_point,
                                   _MpContext, _mp_value_at)
from equilibra.nash import Query, val_requirement
from equilibra.spe import (spe_exists_mp, epsilon_min_search,
                           check_mp_witness)
from equilibra.rationals import PINF, NINF
from equilibra.simplex import OPTIMAL, lex_min_vertex
from conftest import PLAYERS, flower_mp_game, random_mp_game


def test_sans_spe_iterates():
    sans = load_game("sans_spe")
    seq, conv = nego_iterate(sans, max_iters=8)
    assert conv
    F = Fraction
    assert seq[1] == {"a": F(1), "b": F(2), "c": F(1), "d": F(2)}
    assert seq[2] == {"a": F(2), "b": F(2), "c": F(1), "d": F(2)}
    assert seq[3] == {"a": F(2), "b": F(3), "c": F(1), "d": F(2)}
    assert seq[4] == {"a": PINF, "b": PINF, "c": F(1), "d": F(2)}
    assert seq[5] == seq[4]


def test_not_stationary_recurrence():
    ns = load_game("not_stationary")
    seq, conv = nego_iterate(ns, max_iters=8)
    assert not conv
    for n in range(1, 9):
        want = 2 - Fraction(1, 2 ** (n - 1))
        assert seq[n]["a"] == want
        assert seq[n]["b"] == want
        for v in ("c", "d", "e", "f"):
            assert seq[n][v] == 0


def test_inf_spe_fixed_point():
    inf = load_game("inf_spe")
    lam = {"a": Fraction(1), "b": Fraction(1)}
    assert nego_mp(inf, lam) == lam
    assert is_eps_fixed_point(inf, lam, Fraction(0))


def test_eps_fixed_examples():
    sans = load_game("sans_spe")
    lam1 = {"a": Fraction(1), "b": Fraction(2), "c": Fraction(1),
            "d": Fraction(2)}
    assert is_eps_fixed_point(sans, lam1, Fraction(1))
    assert not is_eps_fixed_point(sans, lam1, Fraction(1, 2))
    top = {v: PINF for v in sans.arena.vertices}
    assert is_eps_fixed_point(sans, top, Fraction(0))


def test_first_iterate_is_val_mp():
    rng = random.Random(41)
    for _ in range(12):
        g = random_mp_game(rng, n=4, players=2, rewards=(0, 1, 2))
        lam1 = nego_mp(g, vacuous_requirement(g))
        want = val_requirement(g)
        assert lam1 == want, (g.arena.edges, g.payoff.rewards, lam1, want)


def test_monotone_nondecreasing_mp():
    rng = random.Random(42)
    for _ in range(6):
        g = random_mp_game(rng, n=3, players=2, rewards=(0, 1, 2))
        verts = g.arena.vertices
        lam = {v: rng.choice([NINF, Fraction(0), Fraction(1)])
               for v in verts}
        lam2 = {v: max(lam[v], rng.choice([NINF, Fraction(1, 2),
                                           Fraction(1)]))
                for v in verts}
        n1 = nego_mp(g, lam)
        n2 = nego_mp(g, lam2)
        for v in verts:
            assert lam[v] <= n1[v]
            assert n1[v] <= n2[v], (g.arena.edges, lam, lam2, v, n1, n2)


def test_mode_errors():
    fig = load_game("fig_ne_spe")
    with pytest.raises(GameError):
        nego_mp(fig, vacuous_requirement(fig))


# ---------------------------------------------------------------------------
# the per-game negotiation structure and memo against cold copies


def cold_copy(game):
    """The same game as a new object, so no shared structure carries over."""
    return parse_game(serialize_game(game))


# (n, seeds), three games per size, about two seconds in all.  Among the
# first seeds, n=4 seed 2 and n=5 seeds 1 and 6 cost 2-10 s each in the
# tests below, and n=5 seed 0 more than 15 s, when every branch-and-bound
# leaf ran Karp; n=5 seed 0 still runs 70k leaf threshold tests
SMALL_MP_SEEDS = {3: (0, 1, 2), 4: (0, 1, 3), 5: (2, 3, 4)}


def small_mp_games():
    for n, seeds in SMALL_MP_SEEDS.items():
        for seed in seeds:
            yield random_mp_game(random.Random(100 * n + seed), n=n)


def plain(res):
    out = dict(res)
    if "witness" in out:
        out["witness"] = out["witness"].to_json()
    return out


def described(families):
    return [(f.h, f.c, f.W0, f.W, f.xbar) for f in families]


def pools(game, lam, i, v):
    return described(_MpContext(game, lam, i).pool(v))


def requirements_to_check(game, rng):
    """nego_iterate's requirements, then random ones in pairs that differ
    at one vertex only (the last one included)."""
    seq, _ = nego_iterate(game, max_iters=6)
    verts = game.arena.vertices
    values = [NINF, Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    for v in (verts[-1], rng.choice(verts)):
        lam = {u: rng.choice(values) for u in verts}
        seq.append(lam)
        seq.append(dict(lam, **{v: rng.choice(
            [x for x in values if x != lam[v]])}))
    return seq


def test_warm_nego_matches_cold_copy():
    rng = random.Random(7)
    games = list(small_mp_games()) + [load_game(name) for name in
                                      ("sans_spe", "inf_spe", "chaos")]
    for g in games:
        lams = requirements_to_check(g, rng)
        for lam in lams:
            assert nego_mp(g, lam) == nego_mp(cold_copy(g), lam), \
                (serialize_game(g), lam)
        # the pools show every family's LP payoff, not only the ones that
        # end up setting a value; each player's are built on a copy that no
        # other player has touched
        for i in g.players:
            cold = cold_copy(g)
            mine = [v for v in g.arena.vertices if g.arena.owner[v] == i]
            for lam in lams:
                for v in mine:
                    assert pools(g, lam, i, v) == pools(cold, lam, i, v)


def test_warm_spe_and_eps_min_match_cold_copy():
    for g in small_mp_games():
        nego_iterate(g, max_iters=6)
        for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
            warm = spe_exists_mp(g, eps, Query(), max_iters=8)
            cold = spe_exists_mp(cold_copy(g), eps, Query(), max_iters=8)
            assert plain(warm) == plain(cold), (serialize_game(g), eps)
        warm = epsilon_min_search(g, precision_bits=6, max_iters=8)
        cold = epsilon_min_search(cold_copy(g), precision_bits=6,
                                  max_iters=8)
        assert warm == cold, serialize_game(g)


def test_no_reward_read_once_the_weight_view_is_built(monkeypatch):
    # `mp_values` and `nego_mp` read the rewards only through `Game.weights`
    games = [load_game(name) for name in MP_CORPUS] + [random_mp_game(
        random.Random(seed), n=4, rewards=(Fraction(-1, 2), 0, 1,
                                           Fraction(5, 3)))
        for seed in range(3)]
    reads = []
    real = PayoffSpec.reward

    def spy(self, *args):
        reads.append(args)
        return real(self, *args)

    for game in games:
        game.weights  # built before the spy goes in
        with monkeypatch.context() as patch:
            patch.setattr(PayoffSpec, "reward", spy)
            for p in game.players:
                zs.mp_values(game, p)
            nego_mp(game, val_requirement(game))
            nego_iterate(game, max_iters=3)
    assert not reads


def test_nego_mp_returns_a_fresh_dict():
    sans = load_game("sans_spe")
    lam = vacuous_requirement(sans)
    first = nego_mp(sans, lam)
    want = dict(first)
    first["a"] = PINF
    first.clear()
    assert nego_mp(sans, lam) == want


def test_adversarial_values_build_no_cores():
    chaos = load_game("chaos")
    val_requirement(chaos)
    built = vars(negotiation._mp_structure(chaos))
    assert not {"simple_cycles", "cycles", "sc_subsets", "scyc"} & set(built)
    assert not built["_shapes"]


def test_structure_dies_with_the_game():
    sans = load_game("sans_spe")
    nego_iterate(sans, max_iters=8)
    assert sans in negotiation._STRUCTURES
    ref = weakref.ref(sans)
    del sans
    gc.collect()
    assert ref() is None


class Interrupt(BaseException):
    """Stands for a budget alarm landing inside the LP, while the family
    shapes are built, or while a pool skeleton numbers deviation arcs."""


def test_interrupted_nego_leaves_no_half_filled_entry(monkeypatch):
    # its multi-cycle cores keep the LP busy; `simple_paths` walks the
    # histories and connectors while the family shapes are built, and
    # `_ArcTable.mask` numbers deviation arcs while a skeleton is built
    game = load_game("not_stationary")
    seq, _ = nego_iterate(game, max_iters=2)
    lam = seq[2]
    want = nego_mp(cold_copy(game), lam)
    for where, stopped in ((negotiation, "lex_min_vertex"),
                           (negotiation, "simple_paths"),
                           (negotiation._ArcTable, "mask")):
        interrupt_each_stage(monkeypatch, game, lam, want, where, stopped)


def interrupt_each_stage(monkeypatch, game, lam, want, where, stopped):
    real = getattr(where, stopped)
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(where, stopped, counting)
    nego_mp(cold_copy(game), lam)
    monkeypatch.setattr(where, stopped, real)
    total = len(calls)
    assert total > 2
    for stop in sorted({1, 2, total // 2, total}):
        g = cold_copy(game)
        calls.clear()

        def failing(*args):
            calls.append(1)
            if len(calls) == stop:
                raise Interrupt()
            return real(*args)

        monkeypatch.setattr(where, stopped, failing)
        with pytest.raises(Interrupt):
            nego_mp(g, lam)
        monkeypatch.setattr(where, stopped, real)
        # the rerun goes on filling the requirement the interrupted one
        # left behind, and witness extraction reads its pools back; pools
        # of a new requirement are built afresh from the same skeletons
        assert nego_mp(g, lam) == want, (stopped, stop)
        cold = cold_copy(game)
        kept = negotiation._mp_structure(g).last_requirement
        for v in game.arena.vertices:
            i = game.arena.owner[v]
            assert pools(g, lam, i, v) == pools(cold, lam, i, v), \
                (stopped, stop)
        assert negotiation._mp_structure(g).last_requirement is kept
        negotiation._mp_structure(g).last_requirement = None
        for v in game.arena.vertices:
            i = game.arena.owner[v]
            assert pools(g, lam, i, v) == pools(cold, lam, i, v), \
                (stopped, stop)


def test_nego_iterate_builds_each_skeleton_once(monkeypatch):
    skeletons, pool_builds = [], []
    skeleton = negotiation._MpStructure.skeleton
    pool = _MpContext.pool

    def counting_skeleton(self, i, u):
        if (i, u) not in self._skeletons:
            skeletons.append((i, u))
        return skeleton(self, i, u)

    def counting_pool(self, u):
        if u not in self._pools:
            pool_builds.append((self.i, u))
        return pool(self, u)

    monkeypatch.setattr(negotiation._MpStructure, "skeleton",
                        counting_skeleton)
    monkeypatch.setattr(_MpContext, "pool", counting_pool)
    sans = load_game("sans_spe")
    seq, converged = nego_iterate(sans)
    assert converged and len(seq) > 4
    assert len(skeletons) == len(set(skeletons))
    # every requirement builds its own pools from the same skeletons
    assert set(pool_builds) == set(skeletons)
    assert len(pool_builds) > 2 * len(skeletons)


def test_spe_yes_builds_no_pool_twice(monkeypatch):
    built = []
    pool = _MpContext.pool

    def counting(self, u):
        if u not in self._pools:
            built.append((self.req.key, self.i, u))
        return pool(self, u)

    monkeypatch.setattr(_MpContext, "pool", counting)
    games = [load_game(name) for name in MP_CORPUS] + list(small_mp_games())
    yes = 0
    for g in games:
        for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
            built.clear()
            res = spe_exists_mp(cold_copy(g), eps, Query(), max_iters=8)
            if res["answer"] == "yes":
                yes += 1
                assert len(built) == len(set(built)), \
                    (serialize_game(g), eps)
    assert yes > 5


# ---------------------------------------------------------------------------
# pools and search against the per-requirement enumeration they replaced
# (tests/mp_pool_reference.py)

REQUIREMENTS = [NINF, Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1),
                Fraction(2), PINF]
STOPS = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
MP_CORPUS = ["sans_spe", "inf_spe", "chaos", "not_stationary"]


@st.composite
def sparse_mp_games(draw):
    """A mean-payoff game with 1-2 players and 3-4 vertices in shuffled
    order: a tree of edges from the first vertex, one successor for each
    of its leaves, extra edges up to five in all, and rewards in
    {-1, 0, 1, 2}."""
    players = PLAYERS[:draw(st.integers(1, 2))]
    n = draw(st.integers(3, 4))
    vertices = draw(st.permutations([f"v{k}" for k in range(n)]))
    owner = {v: draw(st.sampled_from(players)) for v in vertices}
    edges = {(draw(st.sampled_from(vertices[:k])), vertices[k])
             for k in range(1, n)}
    edges |= {(v, draw(st.sampled_from(vertices))) for v in vertices
              if all(u != v for u, _ in edges)}
    edges |= set(draw(st.lists(st.tuples(st.sampled_from(vertices),
                                         st.sampled_from(vertices)),
                               max_size=max(0, 5 - len(edges)))))
    edges = draw(st.permutations(sorted(edges)))
    rewards = {e: {p: Fraction(draw(st.integers(-1, 2))) for p in players}
               for e in edges}
    arena = Arena(players, vertices, owner, edges, init=vertices[0])
    return Game(arena, PayoffSpec("mean-payoff", rewards=rewards))


@settings(max_examples=60, deadline=None)
@given(sparse_mp_games() | st.sampled_from(MP_CORPUS).map(load_game),
       st.data())
def test_pools_and_search_match_reference(game, data):
    arena = game.arena
    lam = {v: data.draw(st.sampled_from(REQUIREMENTS))
           for v in arena.vertices}
    shared = negotiation._mp_structure(game)
    reference = ref.ReferenceStructure(game)
    assert shared.cycles == reference.cycles
    assert shared.scyc == reference.scyc
    for i in game.players:
        ctx = _MpContext(game, lam, i)
        rctx = ref.ReferenceContext(game, lam, i)
        for v in arena.vertices:
            if arena.owner[v] != i:
                continue
            assert described(ctx.pool(v)) == described(rctx.pool(v))
            for stop in (None, data.draw(st.sampled_from(STOPS))):
                val, got = _mp_value_at(ctx, v, stop_at=stop)
                rval, want = ref.mp_value_at(rctx, v, stop_at=stop)
                assert val == rval
                assert (got is None) == (want is None)
                if got is not None:
                    assert sorted(got) == sorted(want)
                    assert described(got[u] for u in sorted(got)) == \
                        described(want[u] for u in sorted(want))


REACHABLE = [NINF, Fraction(0), Fraction(1, 2), Fraction(1)]
TOO_HIGH = [Fraction(2), Fraction(3), PINF]


@settings(max_examples=40, deadline=None)
@given(sparse_mp_games() | st.sampled_from(MP_CORPUS).map(load_game),
       st.data())
def test_pools_from_one_skeleton_match_reference_across_requirements(
        game, data):
    # one game object, so the skeletons built for the first requirement
    # serve every later one; the random requirements put +inf on some
    # vertices and floors above most or all cycle means on others, which
    # blocks or empties whole groups
    arena = game.arena
    seq, _ = nego_iterate(game, max_iters=4)
    lams = list(seq)
    for _ in range(3):
        lams.append({v: data.draw(st.sampled_from(
            TOO_HIGH if data.draw(st.integers(0, 3)) == 0 else REACHABLE))
            for v in arena.vertices})
    reference = ref.ReferenceStructure(game)
    for lam in lams:
        cold = cold_copy(game)
        for i in game.players:
            ctx = _MpContext(game, lam, i)
            rctx = ref.ReferenceContext(game, lam, i)
            rctx.shared = reference
            cold_ctx = _MpContext(cold, lam, i)
            for v in arena.vertices:
                got = described(ctx.pool(v))
                assert got == described(rctx.pool(v)), (lam, i, v)
                assert got == described(cold_ctx.pool(v)), (lam, i, v)


# ---------------------------------------------------------------------------
# the closed form of `_MpStructure.lp` against the simplex it replaced

MEANS = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
FLOORS = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 4),
          Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
          Fraction(3)]


# thresholds, mostly absent so that some queries answer yes
THRESHOLD_VALUES = [None, None, None, Fraction(-1), Fraction(0),
                    Fraction(1, 2), Fraction(1), Fraction(2)]


@settings(max_examples=60, deadline=None)
@given(sparse_mp_games() | st.sampled_from(MP_CORPUS).map(load_game),
       st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
       st.data())
def test_every_spe_yes_carries_a_witness_that_checks(game, eps, data):
    bounds = [{}, {}]
    for p in game.players:
        for side in bounds:
            x = data.draw(st.sampled_from(THRESHOLD_VALUES))
            if x is not None:
                side[p] = x
    query = Query(*bounds)
    res = spe_exists_mp(game, eps, query, max_iters=8)
    if res["answer"] == "yes":
        assert check_mp_witness(game, eps, res["witness"], query)


@settings(max_examples=100, deadline=None)
@given(sparse_mp_games() | st.sampled_from(MP_CORPUS).map(load_game))
def test_first_iterate_is_the_adversarial_value(game):
    # the vacuous requirement's negotiation value is each owner's
    # adversarial value: `nego_mp`'s search against the lookup `nego` uses
    assert nego_mp(game, vacuous_requirement(game)) == val_requirement(game)


# ---------------------------------------------------------------------------
# a requirement that demands nothing: `nego` answers it from the adversarial
# values, with no search


NOTHING_BUILT = (set(), {}, {}, {}, {}, None)


def built_for_negotiation(game):
    """What `nego_mp`'s search leaves in the game's structure."""
    shared = negotiation._mp_structure(game)
    return ({"simple_cycles", "cycles", "sc_subsets", "scyc"}
            & set(vars(shared)), shared._shapes, shared._skeletons,
            shared._lp_cache, shared.nego_memo, shared.last_requirement)


def test_nothing_demanded_builds_no_skeleton_lp_or_pool():
    for name in MP_CORPUS:
        game = load_game(name)
        lam = vacuous_requirement(game)
        nego(game, lam)
        assert built_for_negotiation(game) == NOTHING_BUILT, name
        # a requirement that demands something goes to the search
        nego(game, dict(lam, **{game.arena.init: Fraction(0)}))
        assert built_for_negotiation(game) != NOTHING_BUILT, name


@settings(max_examples=60, deadline=None)
@given(sparse_mp_games() | st.sampled_from(MP_CORPUS).map(load_game)
       | st.builds(lambda seed, players: random_mp_game(
           random.Random(seed), n=3, players=players),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 3)))
def test_nothing_demanded_matches_the_search(game):
    lam = vacuous_requirement(game)
    assert nego(game, lam) == nego_mp(cold_copy(game), lam)


def test_nothing_demanded_answers_a_game_the_search_takes_minutes_on():
    # the 209th `random_mp_game` of Random(2026) when each game's n,
    # players and max_deg are drawn from the same Random first, in 3-5,
    # 1-3 and 1-3: `nego_mp` ran for more than 200 s on the vacuous
    # requirement
    owner = {"v0": "diamond", "v1": "square", "v2": "diamond",
             "v3": "diamond", "v4": "square"}
    players = ["circle", "square", "diamond"]
    rewards = {("v0", "v1"): (1, 1, 2), ("v0", "v4"): (1, 2, -1),
               ("v1", "v2"): (1, 0, 0), ("v1", "v3"): (-1, 2, 1),
               ("v1", "v4"): (-1, -1, -1), ("v2", "v0"): (-1, 0, 0),
               ("v3", "v1"): (2, 0, 1), ("v3", "v2"): (0, -1, 2),
               ("v3", "v3"): (-1, -1, 2), ("v4", "v2"): (-1, 1, 0)}
    arena = Arena(players, sorted(owner), owner, sorted(rewards), init="v0")
    game = Game(arena, PayoffSpec("mean-payoff", rewards={
        e: {p: Fraction(x) for p, x in zip(players, r)}
        for e, r in rewards.items()}))
    got = nego(game, vacuous_requirement(game))
    assert built_for_negotiation(game) == NOTHING_BUILT
    assert got == {v: mp_ref.mp_values(game, owner[v])[v] for v in owner}


@st.composite
def cores(draw):
    """(players, means): 2-4 players in shuffled order and 1-5 cycle-mean
    vectors over a few values, often repeating a whole earlier vector."""
    players = draw(st.permutations(PLAYERS + ["triangle"]))
    players = players[:draw(st.integers(2, 4))]
    vector = st.tuples(*[st.sampled_from(MEANS) for _ in players])
    means = []
    for _ in range(draw(st.integers(1, 5))):
        if means and draw(st.integers(0, 3)) == 0:
            means.append(draw(st.sampled_from(means)))
        else:
            means.append(draw(vector))
    return players, means


@settings(max_examples=400, deadline=None)
@given(cores(), st.data())
def test_closed_form_lp_matches_lex_min_vertex(core, data):
    players, means = core
    game = flower_mp_game(players, means)
    W0 = frozenset(game.arena.vertices)
    i = data.draw(st.sampled_from(players))
    # a floor is a fixed value or the midpoint of two cycles' means, which
    # often only a mix of cycles meets
    floors = []
    for k, j in enumerate(players):
        if data.draw(st.booleans()):
            a, b = (data.draw(st.sampled_from(means))[k] for _ in range(2))
            floors.append((j, data.draw(st.sampled_from(
                FLOORS + [(a + b) / 2]))))
    floors = tuple(sorted(floors))
    got = negotiation._mp_structure(game).lp(i, W0, floors)
    order = [i] + [j for j in players if j != i]
    column = {j: k for k, j in enumerate(players)}
    status, alpha = lex_min_vertex(
        [[m[column[j]] for m in means] for j in order],
        [[Fraction(1)] * len(means)], [Fraction(1)],
        [[m[column[j]] for m in means] for j, _ in floors],
        [f for _, f in floors])
    if status != OPTIMAL:
        assert got is None
    else:
        assert got == {j: sum(a * m[column[j]] for a, m in zip(alpha, means))
                       for j in players}


def test_simplex_runs_only_where_a_floor_cuts_a_multi_cycle_core(
        monkeypatch):
    # not_stationary's multi-cycle cores do need the simplex; sans_spe's
    # and chaos' negotiation LPs are all answered in closed form
    seen = []
    real = negotiation.lex_min_vertex

    def guarded(objectives, a_eq, b_eq, a_ge=(), b_ge=()):
        n = len(objectives[0])
        least = min(range(n), key=lambda k: [row[k] for row in objectives])
        seen.append((n, any(row[least] < f for row, f in zip(a_ge, b_ge))))
        return real(objectives, a_eq, b_eq, a_ge, b_ge)

    monkeypatch.setattr(negotiation, "lex_min_vertex", guarded)
    for argv in (["nego-iterate", "not_stationary", "--max=3"],
                 ["nego-iterate", "sans_spe"],
                 ["spe-exists", "chaos", "--lower=circle=1"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0, argv
    assert seen
    assert all(n >= 2 and misses for n, misses in seen), seen


@st.composite
def compared_values(draw):
    """(structure, values): the structure of a one-core flower game and
    values of each kind the mean-payoff search compares there: its cycle
    means (`mp_of`), LP acceptances under drawn floors (`lp`), Karp
    values of small graphs divided by a reward scale, requirement values
    (some shifted by an eps of the bisection) and +-inf.  Each finite
    value also comes as an equal Fraction of its own and as values less
    than 2**-32 away, negatives among them."""
    players, means = draw(cores())
    game = flower_mp_game(players, means)
    shared = negotiation._mp_structure(game)
    W0 = frozenset(game.arena.vertices)
    values = [shared.mp_of(c, j) for c in shared.scyc[W0] for j in players]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(players))
        floors = tuple(sorted((j, draw(st.sampled_from(FLOORS)))
                              for j in players if draw(st.booleans())))
        xbar = shared.lp(i, W0, floors)
        if xbar is not None:
            values += list(xbar.values())
    scale = draw(st.sampled_from([1, 2, 6]))
    for _ in range(draw(st.integers(0, 2))):
        n = draw(st.integers(1, 4))
        node = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(node, node, st.integers(-9, 9)),
                              min_size=1, max_size=6))
        best = zs.karp_max_mean(n, edges)
        if best is not None:
            values.append(best / scale)
    values += [x - Fraction(draw(st.integers(0, 2 ** 24)), 2 ** 24)
               for x in draw(st.lists(st.sampled_from(FLOORS), max_size=3))]
    near = [x + Fraction(draw(st.integers(-2, 2)),
                         draw(st.integers(2 ** 32 + 1, 2 ** 70)))
            for x in values]
    twins = [Fraction(x.numerator, x.denominator) for x in values]
    return shared, values + near + twins + [PINF, NINF]


@settings(max_examples=100, deadline=None)
@given(compared_values())
def test_order_keys_order_values_as_fractions_do(case):
    shared, values = case
    keys = [shared.order_key(x) for x in values]
    assert all(k[1] == x for k, x in zip(keys, values))
    for x, kx in zip(values, keys):
        for y, ky in zip(values, keys):
            assert (kx < ky) == (x < y)
            assert (kx >= ky) == (x >= y)
            # one key object per value, whichever Fraction it came from
            assert (kx is ky) == (x == y)


@st.composite
def arenas(draw):
    """An arena of 1-6 vertices: a tree of edges from the first vertex, a
    successor for each vertex without one, and up to eight more edges, so
    that it often falls into several SCCs."""
    n = draw(st.integers(1, 6))
    vertices = [f"v{k}" for k in range(n)]
    edges = {(draw(st.sampled_from(vertices[:k])), vertices[k])
             for k in range(1, n)}
    edges |= {(v, draw(st.sampled_from(vertices))) for v in vertices
              if all(u != v for u, _ in edges)}
    edges |= set(draw(st.lists(st.tuples(st.sampled_from(vertices),
                                         st.sampled_from(vertices)),
                               max_size=8)))
    owner = {v: "circle" for v in vertices}
    return Arena(["circle"], vertices, owner, sorted(edges),
                 init=vertices[0])


@settings(max_examples=150, deadline=None)
@given(arenas())
def test_sc_subsets_match_every_subset_enumeration(arena):
    assert negotiation._sc_subsets(arena) == ref._sc_subsets(arena)


@st.composite
def ratio_graphs(draw):
    """A multigraph on 1-5 nodes whose arcs carry a Fraction weight (mixed
    denominators) and a length of 1-3.  Nodes fall into blocks and arcs
    never go back to an earlier block, so there are often several SCCs;
    some graphs keep only forward arcs and are acyclic."""
    n = draw(st.integers(1, 5))
    block = sorted(draw(st.lists(st.integers(0, 2), min_size=n,
                                 max_size=n)))
    acyclic = draw(st.booleans())
    node = st.integers(0, n - 1)
    weight = st.builds(Fraction, st.integers(-6, 6),
                       st.sampled_from([1, 2, 3, 4, 6]))
    arcs = draw(st.lists(st.tuples(node, node, weight, st.integers(1, 3)),
                         max_size=10))
    return n, [(u, w, wt, ln) for u, w, wt, ln in arcs
               if (u < w if acyclic else block[u] <= block[w])]


def expanded_max_mean(n, arcs):
    """Karp's maximum cycle mean, each arc of length ln cut into ln unit
    edges through ln - 1 dummy nodes; None when acyclic."""
    unit = []
    extra = n
    for u, w, wt, ln in arcs:
        prev = u
        for _ in range(ln - 1):
            unit.append((prev, extra, Fraction(0)))
            prev = extra
            extra += 1
        unit.append((prev, w, wt))
    return mp_ref.on_fractions(zs.karp_max_mean, extra, unit)


@settings(max_examples=300, deadline=None)
@given(ratio_graphs(), st.data())
def test_ratio_cycle_test_matches_karp(graph, data):
    n, arcs = graph
    best = expanded_max_mean(n, arcs)
    # thresholds at the graph's own cycle means (the best mean of every
    # prefix of the arcs is one), so that ties at exactly t come up
    means = {expanded_max_mean(n, arcs[:k]) for k in range(len(arcs) + 1)}
    means.discard(None)
    t = data.draw(st.sampled_from(sorted(means)) if means and
                  data.draw(st.booleans())
                  else st.builds(Fraction, st.integers(-8, 8),
                                 st.integers(1, 5)))
    scale = math.lcm(*(wt.denominator for _, _, wt, _ in arcs))
    scaled = [(u, w, int(wt * scale), ln) for u, w, wt, ln in arcs]
    assert negotiation._ratio_cycle_reaches(n, scaled, scale, t, False) \
        == (best is not None and best >= t)
    assert negotiation._ratio_cycle_reaches(n, scaled, scale, t, True) \
        == (best is not None and best > t)


def test_exact_leaf_values_only_where_the_search_moves(monkeypatch):
    # the exact value is computed for the greedy assignment, for a leaf
    # that beats the incumbent, and for the leaf a witness search accepts;
    # every other leaf is decided by the threshold test alone
    values = []
    tests = []
    exact, reaches = negotiation._assignment_value, negotiation._leaf_reaches

    def counting_exact(ctx, root, assignment):
        key = exact(ctx, root, assignment)  # an order key carrying the value
        values.append(key[1])
        return key

    def counting_test(*args, **kwargs):
        tests.append(1)
        return reaches(*args, **kwargs)

    monkeypatch.setattr(negotiation, "_assignment_value", counting_exact)
    monkeypatch.setattr(negotiation, "_leaf_reaches", counting_test)
    # the two random games reach hundreds of leaves between them
    games = [load_game(name) for name in MP_CORPUS] + [
        random_mp_game(random.Random(402), n=4),
        random_mp_game(random.Random(501), n=5)]
    calls = 0
    for game in games:
        seq, _ = nego_iterate(game, max_iters=4)
        for lam in seq:
            for i in game.players:
                ctx = _MpContext(game, lam, i)
                for v in game.arena.vertices:
                    if game.arena.owner[v] != i:
                        continue
                    values.clear()
                    val, _ = _mp_value_at(ctx, v)
                    calls += len(values)
                    assert all(b < a for a, b in zip(values, values[1:]))
                    assert values[-1:] in ([], [val])
                    for stop in STOPS:
                        values.clear()
                        _mp_value_at(ctx, v, stop_at=stop)
                        calls += len(values)
                        assert len(values) <= 2
                        assert all(x > stop for x in values[:-1])
    assert len(tests) > 2 * calls
