"""Seeded query lists for the three benchmark workloads.

Each workload turns a seed into a fixed list of distinct `equilibra` CLI
queries (argv lists) and writes every generated game to a file first, so
the program under test receives only files and command lines.  The lists
are built in rounds: every round has the same mix of commands, so a run
that stops after any whole number of rounds sees the same mix.  Seeded
random games mirror the shapes of the generators in tests/conftest.py but
take an exact vertex count.
"""

import json
import os
import random
from fractions import Fraction

PLAYERS = ["circle", "square"]

# Mean-payoff corpus games of mp-sweep; `chaos` is `sans_spe` plus a
# vertex-free leader, which rational verification without --machine needs.
MP_CORPUS = ["chaos", "sans_spe", "not_stationary", "inf_spe"]
MP_PLAYERS = {"chaos": ["circle", "square"],
              "sans_spe": ["circle", "square"],
              "not_stationary": ["circle", "square", "diamond"],
              "inf_spe": ["circle", "square"]}
# Thresholds p/q within the reward range of the mean-payoff games, in
# increasing order.
MP_VALUES = [str(x) for x in sorted({Fraction(p, q) for q in range(1, 7)
                                      for p in range(-q, 3 * q + 1)})]


class Workload:
    """A named query list: `build(seed, workdir)` writes the games and
    returns the queries; `budget_s` is the wall-clock cap per query, and
    `tail_pct` the highest percentile that leaves at least ten queries
    beyond it at the workload's query count per run.

    `make_round(rng, r, workdir)` writes the round's games and yields one
    `draw(rng)` per query, returning its argv; a draw that repeats an
    earlier query is drawn again, so every round keeps its full mix.  Each
    draw runs before the generator resumes, so it may use the loop's
    current game."""

    def __init__(self, name, budget_s, tail_pct, rounds, make_round):
        self.name = name
        self.budget_s = budget_s
        self.tail_pct = tail_pct
        self.rounds = rounds
        self._make_round = make_round

    def build(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        seen = set()
        queries = []
        for r in range(self.rounds):
            for draw in self._make_round(rng, r, workdir):
                for _ in range(100):
                    argv = draw(rng)
                    if tuple(argv) not in seen:
                        break
                else:
                    raise ValueError(f"{self.name}: no fresh {argv[0]}")
                seen.add(tuple(argv))
                queries.append({"id": f"{r}.{len(queries)}", "round": r,
                                "argv": argv})
        return queries


def _write(workdir, name, doc):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# random games in the equilibra JSON format


def _edges(rng, vertices, max_deg, sources=None):
    sources = sources or vertices
    edges = set()
    for v in sources:
        k = rng.randint(1, min(max_deg, len(vertices)))
        edges.update((v, w) for w in rng.sample(vertices, k))
    have_in = {w for _, w in edges}
    for v in vertices[1:]:
        if v not in have_in:
            edges.add((rng.choice(sources), v))
    return sorted(edges)


def _skeleton(players, mode, vertices, owner):
    return {"players": list(players), "mode": mode, "init": vertices[0],
            "vertices": [{"id": v, "owner": owner[v]} for v in vertices]}


def mean_payoff_game(rng, n, edge_count=None):
    """n-vertex two-player mean-payoff game, out-degree at most 2, rewards
    in {-1, 0, 1, 2}; with `edge_count`, the edges are drawn again until
    there are exactly that many."""
    vertices = [f"v{k}" for k in range(n)]
    owner = {v: rng.choice(PLAYERS) for v in vertices}
    doc = _skeleton(PLAYERS, "mean-payoff", vertices, owner)
    edges = _edges(rng, vertices, 2)
    while edge_count is not None and len(edges) != edge_count:
        edges = _edges(rng, vertices, 2)
    doc["edges"] = [{"from": u, "to": v,
                     "rewards": {p: str(rng.choice((-1, 0, 1, 2)))
                                 for p in PLAYERS}}
                    for u, v in edges]
    return doc


def parity_game(rng, n):
    """n-vertex two-player parity game, out-degree at most 2, colours 0-2,
    plus a `leader` player that owns no vertex (rational verification
    without --machine needs one)."""
    vertices = [f"v{k}" for k in range(n)]
    owner = {v: rng.choice(PLAYERS) for v in vertices}
    payees = PLAYERS + ["leader"]
    doc = _skeleton(payees, "parity", vertices, owner)
    doc["edges"] = [{"from": u, "to": v}
                    for u, v in _edges(rng, vertices, 2)]
    doc["colors"] = {v: {p: rng.randint(0, 2) for p in payees}
                     for v in vertices}
    return doc


def terminal_game(rng, n):
    """Two-player simple stochastic game: n inner vertices (players and
    chance, the initial one a player's) and one or two terminals with
    payoffs 0-3; chance vertices split uniformly."""
    names = PLAYERS
    inner = [f"v{k}" for k in range(n)]
    terms = [f"t{k}" for k in range(rng.randint(1, 2))]
    owner = {v: rng.choice(names + ["chance"]) for v in inner}
    owner[inner[0]] = rng.choice(names)
    owner.update({t: "terminal" for t in terms})
    edges = _edges(rng, inner + terms, 3, sources=inner)
    out_degree = {u: sum(1 for a, _ in edges if a == u) for u in inner}
    doc = _skeleton(names, "terminal", inner + terms, owner)
    doc["edges"] = [dict({"from": u, "to": v},
                         **({"prob": f"1/{out_degree[u]}"}
                            if owner[u] == "chance" else {}))
                    for u, v in edges]
    doc["terminals"] = {t: {p: str(rng.choice((0, 1, 2, 3))) for p in names}
                        for t in terms}
    return doc


def _bounds(rng, players, values, count):
    """`count` threshold flags on distinct players.  Lower bounds come from
    the lower half of `values` and upper bounds from the upper half, so
    that some play usually fits and the query does the full work instead
    of stopping at "no play fits the thresholds"."""
    half = len(values) // 2
    argv = []
    for p in rng.sample(players, count):
        if rng.random() < 0.5:
            argv.append(f"--lower={p}={rng.choice(values[:half + 1])}")
        else:
            argv.append(f"--upper={p}={rng.choice(values[half:])}")
    return argv


# ---------------------------------------------------------------------------
# mp-sweep: threshold sweeps and eps-min on mean-payoff games whose
# negotiation requirements repeat within and across queries


def _mp_sweep_round(rng, r, workdir):
    game = MP_CORPUS[r % len(MP_CORPUS)]
    rand = _write(workdir, f"sweep{r}", mean_payoff_game(rng, 3))

    def sweep(other):
        # not_stationary's negotiation never converges: below eps = 1 both
        # iterations run to the --max cap (5-20 s), so it is swept with
        # eps >= 1 only
        def draw(rng):
            eps = rng.choice(["1", "3/2", "2"]) \
                if other == "not_stationary" else "0"
            return (["spe-exists", other, f"--eps={eps}"]
                    + _bounds(rng, MP_PLAYERS[other], MP_VALUES, 2))
        return draw

    yield lambda rng: [
        "achaotic-verify", "chaos", "--leader=leader",
        f"--threshold={rng.choice(MP_VALUES)}",
        f"--precision={rng.randint(8, 10)}"]
    yield lambda rng: ["eps-min", game, f"--precision={rng.randint(8, 12)}"]
    for other in MP_CORPUS * 6:
        yield sweep(other)
    for _ in range(2):
        yield lambda rng: [
            "rational-verify", "chaos", "--leader=leader",
            f"--threshold={rng.choice(MP_VALUES)}", "--concept=spe"]
    yield lambda rng: ["eps-min", rand, f"--precision={rng.randint(6, 10)}"]
    for _ in range(2):
        yield lambda rng: (["spe-exists", rand]
                           + _bounds(rng, PLAYERS, MP_VALUES, 2))


# ---------------------------------------------------------------------------
# mp-fresh: one negotiation step and two NE queries per fresh sparse game

# (vertices, edges) of a round's games.  Sparse games only: at the seed
# commit one 3-vertex game with six edges in a few thousand, and one
# 4-vertex game with six or more in about thirty, ran a single `nego`
# step for seconds to minutes, so no fixed budget lets every query
# finish; with at most five edges none of 7500 ran past 0.8 s.  The fixed
# mix, in about the shares the generator draws, keeps the rounds alike.
FRESH_SHAPES = [(3, 4), (3, 5), (3, 5), (4, 5), (4, 5)]


def _mp_fresh_round(rng, r, workdir):
    for k, (n, edge_count) in enumerate(FRESH_SHAPES):
        game = _write(workdir, f"fresh{r}-{k}",
                      mean_payoff_game(rng, n, edge_count))
        yield lambda rng: ["nego", game]
        # two NE queries per game put the median inside the NE cluster
        # instead of between it and the slower negotiation steps
        for _ in range(2):
            yield lambda rng: (["ne-exists", game]
                               + _bounds(rng, PLAYERS, MP_VALUES, 2))


# ---------------------------------------------------------------------------
# parity-xrse: parity negotiation and Zielonka, plus millisecond-scale
# XRSE queries on simple stochastic games


def _parity_xrse_round(rng, r, workdir):
    # sizes cycle through 12-18 so that every pass holds the same mix
    par = _write(workdir, f"parity{r}", parity_game(rng, 12 + r % 7))
    yield lambda rng: ["nego-iterate", par]
    for command in ("spe-exists", "ne-exists"):
        yield lambda rng: [command, par] + _bounds(rng, PLAYERS, ["0", "1"], 1)
    yield lambda rng: [
        "rational-verify", par, "--leader=leader",
        f"--threshold={rng.choice(['0', '1/2'])}", "--concept=nash"]
    for k in range(6):
        term = _write(workdir, f"term{r}-{k}",
                      terminal_game(rng, rng.randint(3, 5)))
        yield lambda rng: [
            "xrse-exists", term,
            f"--pessimists={rng.choice(['all', 'none'])}"]
        yield lambda rng: (
            ["xrse-constrained", term]
            + _bounds(rng, PLAYERS, ["0", "1", "2"], 1))
        yield lambda rng: (
            ["xrse-search", term, "--memory-bound=1", "--pessimists=all"]
            + _bounds(rng, PLAYERS, ["0", "1", "2"], 1))


WORKLOADS = {w.name: w for w in [
    Workload("mp-sweep", 20.0, 91.5, 20, _mp_sweep_round),
    Workload("mp-fresh", 20.0, 99.6, 1000, _mp_fresh_round),
    Workload("parity-xrse", 20.0, 98.8, 200, _parity_xrse_round),
]}
