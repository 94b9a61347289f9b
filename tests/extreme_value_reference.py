"""The extreme adversarial value of one vertex, as `equilibra.zerosum`
exported it until no command called it: a threshold sweep
(`zerosum.extreme_threshold_sweep`) from that vertex on the whole arena.
Kept for the tests that check the sweep against brute force
(tests/test_zerosum.py) and that use it as an oracle
(tests/test_stochastic.py)."""

from equilibra.games import GameError
from equilibra.zerosum import extreme_threshold_sweep


def extreme_adversarial_value(game, partition, v):
    """inf over hostile profiles of sup over i's strategies of the extreme
    risk measure of i's payoff, where i controls v."""
    arena = game.arena
    if game.mode != "terminal":
        raise GameError("extreme values need terminal mode")
    if arena.is_chance(v) or arena.is_terminal(v):
        raise GameError(f"{v} is chance or terminal")
    player = arena.owner[v]
    pess, _ = partition
    pay = {t: game.payoff.terminal_payoffs[t][player]
           for t in game.terminals()}
    return extreme_threshold_sweep(arena.graph, arena.owner, pay,
                                   player in pess, player, [v])[v]
