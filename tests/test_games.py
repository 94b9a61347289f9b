import json
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from equilibra.corpus import corpus_list, load_game, read_text, GAMES, \
    MACHINES
from equilibra.games import (GameError, Lasso, parse_game, serialize_game,
                             parse_memory, serialize_memory, eval_lasso,
                             payoff_vector, product_game, vacuous_memory,
                             induced_chain, chain_hit_probabilities,
                             MemoryProfile, canonical_cycle)
from conftest import load_memory, uniform_profile


def test_corpus_roundtrip():
    assert len(corpus_list()) >= 10
    for name in GAMES:
        text = read_text(name)
        g = parse_game(text)
        ser = serialize_game(g)
        g2 = parse_game(ser)
        assert serialize_game(g2) == ser
    fig = load_game("fig_first_example")
    for name in MACHINES:
        m = load_memory(name, fig.arena)
        m2 = parse_memory(serialize_memory(m), fig.arena)
        assert serialize_memory(m2) == serialize_memory(m)


def test_parse_errors():
    doc = json.loads(read_text("ex_extreme2"))
    doc["edges"][0]["prob"] = "1/3"  # 1/3 + 1/2 != 1
    with pytest.raises(GameError, match="probability sum"):
        parse_game(json.dumps(doc))
    doc = json.loads(read_text("fig_ne_spe"))
    doc["edges"].append({"from": "c", "to": "zzz"})
    with pytest.raises(GameError, match="dangling|ingoing|unknown"):
        parse_game(json.dumps(doc))
    doc = json.loads(read_text("fig_ne_spe"))
    doc["edges"] = [e for e in doc["edges"] if e["from"] != "c"]
    with pytest.raises(GameError, match="outgoing"):
        parse_game(json.dumps(doc))


def test_minimal_game():
    doc = {
        "players": ["circle"], "mode": "parity", "init": "a",
        "vertices": [{"id": "a", "owner": "circle"}],
        "edges": [{"from": "a", "to": "a"}],
        "colors": {"a": {"circle": 0}},
    }
    g = parse_game(json.dumps(doc))
    assert eval_lasso(g, Lasso([], ["a"]), "circle") == 1


def test_eval_examples():
    fig = load_game("fig_ne_spe")
    assert eval_lasso(fig, Lasso(["a"], ["b"]), "circle") == 0
    assert eval_lasso(fig, Lasso(["a", "b"], ["c"]), "circle") == 1
    sans = load_game("sans_spe")
    assert eval_lasso(sans, Lasso([], ["a", "b"]), "square") == 3
    assert eval_lasso(sans, Lasso(["a"], ["c"]), "circle") == 1
    with pytest.raises(GameError):
        eval_lasso(fig, Lasso(["a"], []), "circle")


def test_eval_discounted_and_energy():
    from equilibra.games import Arena, PayoffSpec, Game
    arena = Arena(["circle"], ["a", "b"], {"a": "circle", "b": "circle"},
                  [("a", "b"), ("b", "a"), ("b", "b")], init="a")
    rew = {("a", "b"): {"circle": Fraction(1)},
           ("b", "a"): {"circle": Fraction(0)},
           ("b", "b"): {"circle": Fraction(2)}}
    ds = Game(arena, PayoffSpec("discounted-sum", rewards=rew,
                                discount=Fraction(1, 2)))
    # a b b b...: 1 + 1/2*2 + 1/4*2 + ... = 1 + 2 * (1/2)/(1 - 1/2) = 3
    assert eval_lasso(ds, Lasso(["a"], ["b"]), "circle") == 3
    # (a b)^w: 1 + 0/2 + 1/4 + 0/8 ... = 1/(1 - 1/4) = 4/3
    assert eval_lasso(ds, Lasso([], ["a", "b"]), "circle") == Fraction(4, 3)
    en = Game(arena, PayoffSpec("energy", rewards={
        ("a", "b"): {"circle": Fraction(-1)},
        ("b", "a"): {"circle": Fraction(1)},
        ("b", "b"): {"circle": Fraction(0)}}))
    # first step dips to -1: lost
    assert eval_lasso(en, Lasso(["a"], ["b"]), "circle") == 0
    en2 = Game(arena, PayoffSpec("energy", rewards={
        ("a", "b"): {"circle": Fraction(1)},
        ("b", "a"): {"circle": Fraction(-1)},
        ("b", "b"): {"circle": Fraction(0)}}))
    assert eval_lasso(en2, Lasso([], ["a", "b"]), "circle") == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(1, 4), st.data())
def test_lasso_rotation_pumping_invariance(npre, ncyc, data):
    fig = load_game("sans_spe")
    # random valid lasso on the complete part of sans_spe: walk a<->b
    walk = ["a", "b", "a", "b", "a", "b"]
    pre = walk[:npre]
    cyc = ["a", "b"] if (npre % 2 == 0) else ["b", "a"]
    base = Lasso(pre, cyc)
    pumped = Lasso(list(pre) + list(cyc), cyc)
    rotated = Lasso(list(pre) + [cyc[0]], cyc[1:] + cyc[:1])
    assert base == pumped == rotated
    for p in fig.players:
        assert eval_lasso(fig, base, p) == eval_lasso(fig, pumped, p)
        assert eval_lasso(fig, base, p) == eval_lasso(fig, rotated, p)


def test_lasso_parse_and_canonical():
    l1 = Lasso.parse("a,b;c")
    assert l1.prefix == ("a", "b") and l1.cycle == ("c",)
    assert Lasso.parse(";a,b") == Lasso([], ["a", "b"])
    assert Lasso(["x"], ["a", "b", "a", "b"]) == Lasso(["x"], ["a", "b"])
    assert canonical_cycle(["b", "a"]) == ("a", "b")


def test_product_matches_figure():
    g = load_game("fig_first_example")
    m = load_memory("machine_1player", g.arena)
    prod = product_game(g, m, "square")
    assert len(prod.arena.vertices) == 10
    assert prod.arena.init == "a|q0"
    assert "demon" in prod.players
    # deterministic structure: every (v,q) Demon vertex has out-degree 1
    m2 = load_memory("machine_multiplayer", g.arena)
    # multiplayer structure speaks for both players; restrict to square
    with pytest.raises(GameError):
        product_game(g, m2, "square")


def test_product_identity_lift():
    chaos = load_game("chaos")
    vac = vacuous_memory(chaos.arena, "leader")
    prod = product_game(chaos, vac, "leader")
    # one-state never-outputting structure: product isomorphic to the game
    # plus a vacuous Demon; (v,q) + (v,q,q) per vertex
    assert len(prod.arena.vertices) == 2 * len(chaos.arena.vertices)
    from equilibra.games import Lasso as L
    from equilibra.games import eval_lasso as ev
    assert ev(prod, L.parse(";a|q0,a|q0|q0,b|q0,b|q0|q0"), "square") == 3


def test_product_deterministic_demon_degree():
    g = load_game("fig_first_example")
    # deterministic one-player structure for square: always go to c
    m = MemoryProfile(
        ["q0"], "q0", ["square"],
        [("q0", "a", "q0"), ("q0", "b", "q0", "c"), ("q0", "c", "q0")])
    prod = product_game(g, m, "square")
    arena = prod.arena
    for v in arena.vertices:
        if arena.owner[v] == "demon" and v.count("|") == 1:
            assert len(arena.succ(v)) == 1


def test_induced_chain_lottery():
    lot = load_game("lottery")
    blue = MemoryProfile(["q0"], "q0", ["circle"],
                         [("q0", "a", "q0"), ("q0", "b", "q0", "c"),
                          ("q0", "c", "q0")])
    chain = induced_chain(lot, blue)
    probs, nonterm = chain_hit_probabilities(chain)
    assert probs["t1"] == Fraction(1, 40)
    assert probs["t2"] == Fraction(39, 40)
    assert nonterm == 0
    for row in chain.trans:
        if row:
            assert sum(p for _, p in row) == 1


def test_induced_chain_deterministic_is_lasso():
    ex1 = load_game("ex_extreme1")
    prof = MemoryProfile(["q0"], "q0", ["circle", "square"],
                         [("q0", "a", "q0", "b"), ("q0", "b", "q0", "a")])
    chain = induced_chain(ex1, prof)
    # pure cycle a<->b: no terminal reached
    probs, nonterm = chain_hit_probabilities(chain)
    assert nonterm == 1


def test_induced_chain_ex2_uniform():
    ex2 = load_game("ex_extreme2")
    prof = uniform_profile(ex2, ex2.arena.edges)
    probs, nonterm = chain_hit_probabilities(induced_chain(ex2, prof))
    assert probs["t1"] > 0 and probs["t2"] > 0
    assert nonterm == 0


def test_uncovered_vertex():
    ex1 = load_game("ex_extreme1")
    half = MemoryProfile(["q0"], "q0", ["circle"],
                         [("q0", "a", "q0", "b"), ("q0", "b", "q0")])
    with pytest.raises(GameError, match="uncovered"):
        induced_chain(ex1, half)


def test_product_invariants():
    g = load_game("fig_first_example")
    m = load_memory("machine_1player", g.arena)
    prod = product_game(g, m, "square")
    nv, nq = len(g.arena.vertices), len(m.states)
    assert len(prod.arena.vertices) <= nv * nq + nv * nq * nq
    # every product edge projects to a base edge or a memory half-step
    for (x, y) in prod.arena.edges:
        xs, ys = x.split("|"), y.split("|")
        if len(xs) == 2 and len(ys) == 3:
            assert xs[0] == ys[0]  # memory half-step keeps the vertex
        else:
            assert (xs[0], ys[0]) in set(g.arena.edges)


@pytest.mark.parametrize("weights,ok", [
    ((Fraction(1, 3), Fraction(2, 3)), True),
    ((Fraction(1), Fraction(0)), False),
    ((Fraction(2), Fraction(-1)), False),
    ((Fraction(3, 2), Fraction(-1, 2)), False)])
def test_profile_weights_lie_in_unit_interval(weights, ok):
    lot = load_game("lottery")
    to_c, to_t3 = ("q0", "b", "q0", "c"), ("q0", "b", "q0", "t3")
    prof = MemoryProfile(["q0"], "q0", ["circle"],
                         [("q0", "a", "q0"), to_c, to_t3, ("q0", "c", "q0")],
                         weights=dict(zip((to_c, to_t3), weights)))
    if ok:
        prof.validate(lot.arena)
    else:
        with pytest.raises(GameError, match=r"is not in \(0,1\]"):
            prof.validate(lot.arena)


def test_enabled_keeps_transition_order():
    ts = [("q0", "b", "q1", "t3"), ("q0", "a", "q0"), ("q0", "b", "q0", "c"),
          ("q1", "b", "q1", "c")]
    prof = MemoryProfile(["q0", "q1"], "q0", ["circle"], ts)
    assert prof.enabled("q0", "b") == (ts[0], ts[2])
    assert prof.enabled("q1", "a") == ()
    assert not prof.is_deterministic()
    assert prof.weight(ts[2]) == Fraction(1, 2)
