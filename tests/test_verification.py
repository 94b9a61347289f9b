import pytest
from fractions import Fraction

from equilibra.corpus import load_game
from equilibra.games import GameError, product_game, vacuous_memory
from equilibra.verification import (universal_threshold, rational_verify,
                                    achaotic_rational_verify_mp,
                                    achaotic_universal_threshold_mp)
from conftest import load_memory


def test_universal_threshold_fig():
    fig = load_game("fig_ne_spe")
    r = universal_threshold(fig, "circle", Fraction(9, 10),
                            "SubgamePerfect")
    assert r["answer"] == "yes"
    r = universal_threshold(fig, "circle", Fraction(9, 10), "Nash")
    assert r["answer"] == "no"  # the stay-at-a NE pays 0


def test_universal_threshold_sans_vacuous():
    sans = load_game("sans_spe")
    for t in (Fraction(0), Fraction(5), Fraction(-3)):
        r = universal_threshold(sans, "circle", t, "SubgamePerfect")
        assert r["answer"] == "yes"  # no SPE at all: vacuously true


def test_rational_verify_product():
    g = load_game("fig_first_example")
    m = load_memory("machine_1player", g.arena)
    for concept in ("Nash", "SubgamePerfect"):
        r = rational_verify(g, m, "square", Fraction(9, 10), concept)
        assert r["answer"] == "yes"
        assert r["product_vertices"] == 10
    # a threshold above every payoff fails as soon as an equilibrium exists
    r = rational_verify(g, m, "square", Fraction(2), "Nash")
    assert r["answer"] == "no"


def test_rational_verify_vacuous_equals_direct():
    chaos = load_game("chaos")
    vac = vacuous_memory(chaos.arena, "leader")
    direct = universal_threshold(chaos, "leader", Fraction(-1),
                                 "Nash")
    via = rational_verify(chaos, vac, "leader", Fraction(-1), "Nash")
    assert direct["answer"] == via["answer"] == "yes"
    direct = universal_threshold(chaos, "leader", Fraction(0), "Nash")
    via = rational_verify(chaos, vac, "leader", Fraction(0), "Nash")
    assert direct["answer"] == via["answer"] == "no"


def test_achaotic_chaos():
    chaos = load_game("chaos")
    vac = vacuous_memory(chaos.arena, "leader")
    r = achaotic_rational_verify_mp(chaos, vac, "leader", Fraction(-1, 2),
                                    precision_bits=10)
    assert r["answer"] == "yes" and r["eps_min"] == 1
    r = achaotic_rational_verify_mp(chaos, vac, "leader", Fraction(0),
                                    precision_bits=10)
    assert r["answer"] == "no"


def test_achaotic_coincides_when_eps0():
    inf = load_game("inf_spe")
    # eps_min = 0: achaotic coincides with plain SPE verification
    for t in (Fraction(1, 2), Fraction(3)):
        ach = achaotic_universal_threshold_mp(inf, "circle", t,
                                              precision_bits=10)
        direct = universal_threshold(inf, "circle", t, "SubgamePerfect")
        assert ach["answer"] == direct["answer"]
        assert ach["eps_min"] == 0


def test_concept_errors():
    fig = load_game("fig_ne_spe")
    with pytest.raises(GameError):
        universal_threshold(fig, "circle", Fraction(1), "Strong")
