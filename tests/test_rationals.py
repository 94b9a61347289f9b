import copy
import pickle
from fractions import Fraction

import pytest

from equilibra.rationals import (PINF, NINF, parse_rational, parse_ext,
                                 format_ext, format_rational, _Infinity)


def test_order_total():
    assert NINF < Fraction(-10) < Fraction(0) < Fraction(10) < PINF
    assert PINF > NINF
    assert max(Fraction(1), PINF) is PINF
    assert min(Fraction(1), NINF) is NINF
    assert sorted([PINF, Fraction(2), NINF]) == [NINF, Fraction(2), PINF]


def test_arith():
    assert PINF + Fraction(5) is PINF
    assert Fraction(5) + NINF is NINF
    assert -PINF is NINF
    with pytest.raises(ArithmeticError):
        PINF + NINF
    with pytest.raises(ArithmeticError):
        PINF - PINF


def test_parse_format():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == -2
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert parse_ext("+inf") is PINF
    assert parse_ext("-inf") is NINF
    assert format_ext(NINF) == "-inf"
    with pytest.raises(ValueError):
        parse_rational("2/4")  # not in lowest terms
    with pytest.raises(ValueError):
        parse_rational("1/-2")


# the search tests the infinities by identity (`x is PINF`), which holds
# only if no second object of either sign can be made


@pytest.mark.parametrize("inf", [PINF, NINF])
def test_infinities_are_singletons(inf):
    assert _Infinity(inf.sign) is inf
    assert copy.copy(inf) is inf
    assert copy.deepcopy(inf) is inf
    assert copy.deepcopy({"x": [inf]})["x"][0] is inf
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(inf, protocol)) is inf


def test_only_two_infinities():
    assert _Infinity(1) is PINF and _Infinity(-1) is NINF
    with pytest.raises(ValueError):
        _Infinity(0)
