"""Bundled corpus: the worked figures used throughout the test suite."""

import os

from ..games import parse_game

_DIR = os.path.dirname(os.path.abspath(__file__))

GAMES = ["chaos", "ex_extreme1", "ex_extreme2", "ex_extreme3",
         "fig_first_example", "fig_ne_spe", "inf_spe", "lottery",
         "not_stationary", "sans_spe"]
MACHINES = ["machine_1player", "machine_multiplayer"]


def corpus_list():
    """Names of all bundled corpus files (games and machines)."""
    return GAMES + MACHINES


def read_text(name):
    with open(os.path.join(_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return fh.read()


def load_game(name):
    return parse_game(read_text(name))
