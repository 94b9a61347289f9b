"""The adversarial parity value of every vertex, as `equilibra.zerosum`
exported it until parity negotiation and `nash.val_requirement` read each
player's winning region from `negotiation._ParityStructure.won`: Zielonka
on the whole arena through `parity_region` (which `zerosum` exported and
tests/zielonka_reference.py now holds), once per call.  Kept verbatim as
the oracle those regions are checked against
(tests/test_negotiation_parity.py)."""

from fractions import Fraction

from zielonka_reference import parity_region


def parity_value(game, player):
    """Adversarial value of every vertex for `player` in a parity game:
    1 on the winning region of {player} versus the rest, else 0."""
    colors = {v: game.payoff.color(player, v) for v in game.arena.vertices}
    w0, _ = parity_region(game.arena, colors, {player})
    return {v: (Fraction(1) if v in w0 else Fraction(0))
            for v in game.arena.vertices}
